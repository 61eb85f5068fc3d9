//! Train knowledge-graph embeddings (TransE on an FB15k-shaped graph) with
//! Frugal — the paper's KG scenario — and sweep the four scorers of
//! Exp #11.
//!
//! ```sh
//! cargo run --release --example knowledge_graph
//! ```

use frugal::core::{presets, System};
use frugal::data::{KgDatasetSpec, KgTrace};
use frugal::models::{KgModel, KgScorer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // FB15k's shape at reduced embedding dimension (paper: dim 400).
    let mut spec = KgDatasetSpec::fb15k();
    spec.embedding_dim = 32;
    spec.neg_sample_size = 16;
    let n_gpus = 2;
    let steps = 60;

    println!(
        "graph: {} ({} entities, {} relations), TransE-style training",
        spec.name, spec.n_entities, spec.n_relations
    );
    println!("server: {n_gpus}x RTX 3090 (simulated), {steps} steps\n");

    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "scorer", "triples/s", "first loss", "last loss"
    );
    for scorer in KgScorer::all() {
        let trace = KgTrace::new(spec.clone(), 64, n_gpus, 17)?;
        // Real scorer math (margin-ranking over negative samples).
        let model = KgModel::new(scorer, trace.clone(), 5, true);
        let mut cfg = presets::demo_commodity(n_gpus, steps);
        cfg.lr = 0.03;
        let report = System::Frugal.run(cfg, &trace, &model);
        println!(
            "{:<10} {:>12.0} {:>12.4} {:>12.4}",
            scorer.name(),
            report.throughput(),
            report.first_loss,
            report.final_loss
        );
    }

    println!("\nEvery scorer trains through the same embedding runtime;");
    println!("the margin loss falls as positives separate from negatives.");
    Ok(())
}
