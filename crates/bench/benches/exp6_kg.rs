//! `cargo bench --bench exp6_kg` — regenerates this paper artifact.

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::exp6_kg(&scale) {
        println!("{table}");
    }
}
