//! Train DLRM on an Avazu-shaped recommendation workload — the paper's
//! REC scenario (§4.1) — and compare Frugal against the PyTorch- and
//! HugeCTR-style baselines on the same simulated commodity server.
//!
//! ```sh
//! cargo run --release --example recommendation_dlrm
//! ```

use frugal::core::{presets, System, TrainReport};
use frugal::data::{RecDatasetSpec, RecTrace};
use frugal::models::Dlrm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Avazu's shape (22 sparse features, Zipf-skewed IDs), scaled from
    // 49M IDs to 200k so the host store fits a laptop.
    let spec = RecDatasetSpec::avazu().scaled_to_ids(200_000);
    let n_gpus = 4;
    let steps = 10;
    let trace = RecTrace::new(spec.clone(), 768, n_gpus, 3)?;
    let dim = spec.embedding_dim as usize;

    println!(
        "dataset: {} ({} IDs, {} features, dim {dim})",
        spec.name, spec.n_ids, spec.n_features
    );
    println!("server: {n_gpus}x RTX 3090 (simulated), {steps} steps\n");

    // Real DLRM math: mean-pooled embeddings -> small MLP -> BCE loss.
    // (The paper's 512-512-256-1 head is available as `Dlrm::paper`; the
    // narrower head keeps this example fast on small machines.)
    let make_model = || Dlrm::new(trace.clone(), &[dim, 64, 32, 1], 0.02, 9, true);

    // PyTorch-like: no cache, CPU-involved host access. HugeCTR-like:
    // sharded multi-GPU cache + all_to_all. Frugal: proactive flushing +
    // two-level PQ. One configuration describes all three runs.
    let cfg = presets::demo_commodity(n_gpus, steps);
    let results: Vec<(&str, TrainReport)> = [System::PyTorch, System::HugeCtr, System::Frugal]
        .into_iter()
        .map(|system| {
            let report = system.run(cfg.clone(), &trace, &make_model());
            (system.rec_label(), report)
        })
        .collect();

    println!(
        "{:<10} {:>14} {:>12} {:>10} {:>10}",
        "system", "samples/s", "hit ratio", "first BCE", "last BCE"
    );
    for (name, r) in &results {
        println!(
            "{:<10} {:>14.0} {:>11.1}% {:>10.4} {:>10.4}",
            name,
            r.throughput(),
            r.hit_ratio * 100.0,
            r.first_loss,
            r.final_loss
        );
    }

    let frugal_thr = results[2].1.throughput();
    let pytorch_thr = results[0].1.throughput();
    println!(
        "\nFrugal / PyTorch speedup: {:.2}x (paper Fig 14: 4.9-7.4x at full scale)",
        frugal_thr / pytorch_thr
    );
    Ok(())
}
