//! `cargo bench --bench exp4_pq` — regenerates this paper artifact.

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::exp4_pq(&scale) {
        println!("{table}");
    }
}
