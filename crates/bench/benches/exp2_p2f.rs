//! `cargo bench --bench exp2_p2f` — regenerates this paper artifact.

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::exp2_p2f(&scale) {
        println!("{table}");
    }
}
