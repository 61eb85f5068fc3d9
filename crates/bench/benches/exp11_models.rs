//! `cargo bench --bench exp11_models` — regenerates this paper artifact.

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::exp11_models(&scale) {
        println!("{table}");
    }
}
