//! `cargo bench --bench fig3_motivation` — regenerates this paper artifact.

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::fig3_motivation(&scale) {
        println!("{table}");
    }
}
