//! `cargo bench --bench exp10_flush_threads` — regenerates this paper artifact.

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::exp10_flush_threads(&scale) {
        println!("{table}");
    }
}
