//! `cargo bench --bench exp5_breakdown` — regenerates this paper artifact.

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::exp5_breakdown(&scale) {
        println!("{table}");
    }
}
