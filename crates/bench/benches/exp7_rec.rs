//! `cargo bench --bench exp7_rec` — regenerates this paper artifact.

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::exp7_rec(&scale) {
        println!("{table}");
    }
}
