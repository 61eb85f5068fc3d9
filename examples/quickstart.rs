//! Quickstart: train an embedding model with Frugal on a simulated
//! commodity-GPU server, and see what proactive flushing buys.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use frugal::core::{presets, FrugalEngine, PullToTarget};
use frugal::data::{KeyDistribution, SyntheticTrace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A skewed embedding workload: 100k keys, Zipf-0.9 popularity,
    // batch 512 per GPU, 4 simulated RTX 3090s.
    let trace = SyntheticTrace::new(100_000, KeyDistribution::Zipf(0.9), 512, 4, 42)?;

    // The embedding-only microbenchmark model (dim 32): every accessed row
    // is pulled toward a per-key target, so the loss visibly converges.
    let model = PullToTarget::new(32, 7);

    // Paper defaults scaled for a demo run: 5% cache, lookahead L = 10,
    // one flushing thread per GPU, two-level priority queue, P2F flushing.
    let mut cfg = presets::demo_commodity(4, 30);
    cfg.lr = 2.0; // gradients are mean-normalized; a higher rate converges fast

    // Validate first: the engine panics on a configuration it rejects.
    cfg.validate()?;
    let engine = FrugalEngine::new(cfg, trace.n_keys(), 32);

    println!("training 30 steps on 4 simulated RTX 3090s...");
    let report = engine.run(&trace, &model);

    println!("loss: {:.4} -> {:.4}", report.first_loss, report.final_loss);
    println!("throughput: {:.0} samples/s", report.throughput());
    println!("cache hit ratio: {:.1}%", report.hit_ratio * 100.0);
    let mean = report.mean_iter();
    println!(
        "per-iteration: comm {} | host DRAM {} | cache {} | other {} | stall {}",
        mean.comm, mean.host_dram, mean.cache, mean.other, mean.stall
    );
    println!(
        "g-entry updates (P2F bookkeeping): {} per step",
        report.mean_gentry_update
    );

    // The whole point of synchronous consistency: the concurrent run is
    // bit-identical to a single-threaded reference.
    let serial = frugal::core::train_serial(&trace, &model, 30, 2.0, 42);
    let check_key = 12_345;
    assert_eq!(
        engine.store().row_vec(check_key),
        serial.store.row_vec(check_key),
        "P2F must match synchronous training exactly"
    );
    println!("verified: parameters are bit-identical to the serial reference");
    Ok(())
}
