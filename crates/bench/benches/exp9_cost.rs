//! `cargo bench --bench exp9_cost` — regenerates this paper artifact.

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::exp9_cost(&scale) {
        println!("{table}");
    }
}
