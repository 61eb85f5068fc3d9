//! `cargo bench --bench ablations` — design-choice ablations beyond the
//! paper's numbered experiments (cache policy, dequeue batching, lookahead
//! L, sparse optimizer).

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    for table in frugal_bench::experiments::ablation_cache_policy(&scale) {
        println!("{table}");
    }
    for table in frugal_bench::experiments::ablation_flush_batch(&scale) {
        println!("{table}");
    }
    for table in frugal_bench::experiments::ablation_lookahead(&scale) {
        println!("{table}");
    }
    for table in frugal_bench::experiments::ablation_optimizer(&scale) {
        println!("{table}");
    }
    for table in frugal_bench::experiments::ablation_flush_strategy(&scale) {
        println!("{table}");
    }
}
