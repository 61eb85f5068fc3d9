//! `cargo bench --bench exp3_uva` — regenerates this paper artifact.

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::exp3_uva(&scale) {
        println!("{table}");
    }
}
