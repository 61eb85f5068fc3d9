//! `cargo bench --bench exp1_microbenchmark` — regenerates this paper artifact.

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::exp1_microbenchmark(&scale) {
        println!("{table}");
    }
}
