//! `cargo bench --bench exp8_scalability` — regenerates this paper artifact.

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::exp8_scalability(&scale) {
        println!("{table}");
    }
}
