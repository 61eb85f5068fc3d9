//! Exp #10–#11: sensitivity analyses (Fig 17–18).

use super::{system_columns, Scale, END_TO_END};
use crate::table::{fmt_throughput, ExpTable};
use frugal_baselines::System;
use frugal_core::FrugalConfig;
use frugal_data::{KgDatasetSpec, KgTrace, RecDatasetSpec, RecTrace};
use frugal_models::{Dlrm, KgModel, KgScorer};

/// Exp #10 (Fig 17): sensitivity to the number of flushing threads
/// (Avazu-shaped REC workload).
pub fn exp10_flush_threads(scale: &Scale) -> Vec<ExpTable> {
    let spec = RecDatasetSpec::avazu().scaled_to_ids(scale.rec_ids);
    let trace = RecTrace::new(spec.clone(), scale.rec_batch, scale.gpus, 53).expect("valid trace");
    let dim = spec.embedding_dim as usize;
    let model = Dlrm::new(trace.clone(), &[dim, 512, 512, 256, 1], 0.01, 3, false);
    let mut t = ExpTable::new(
        "Fig 17: Frugal throughput by flushing-thread count",
        &["threads", "throughput", "stall us"],
    );
    for threads in [1usize, 2, 4, 8, 12, 16, 24, 30] {
        let mut cfg = FrugalConfig::commodity(scale.gpus, scale.steps);
        cfg.flush_threads = threads;
        let r = System::Frugal.price(cfg, &trace, &model);
        t.row(vec![
            threads.to_string(),
            fmt_throughput(r.throughput()),
            format!("{:.0}", r.stats.mean_stall().as_micros_f64()),
        ]);
    }
    t.note("paper: throughput rises to ~12 threads, then declines as flushers steal CPU");
    t.note("modeled clock: the stall divides by the configured flushers; the decline is the configuration's oversubscription factor (trainers + flushers + 2 over the modeled 32 cores), an assumption, not a measurement");
    vec![t]
}

/// Exp #11 (Fig 18): sensitivity to the embedding model — four KG scorers
/// and DLRM with 2–6 MLP layers.
pub fn exp11_models(scale: &Scale) -> Vec<ExpTable> {
    let mut out = Vec::new();

    // (a) KG scorers on FB15k-shaped data.
    let spec = KgDatasetSpec::fb15k().scaled_to_entities(scale.kg_entities);
    let batch = 512.min(spec.n_entities as usize / 2).max(16);
    let mut tkg = ExpTable::new(
        "Fig 18a: KG model sensitivity (triples/s)",
        &system_columns("model", &END_TO_END, System::kg_label),
    );
    for scorer in KgScorer::all() {
        let trace = KgTrace::new(spec.clone(), batch, scale.gpus, 59).expect("valid trace");
        let model = KgModel::new(scorer, trace.clone(), 5, false);
        let cfg = FrugalConfig::commodity(scale.gpus, scale.steps);
        let thr =
            |system: System| fmt_throughput(system.price(cfg.clone(), &trace, &model).throughput());
        let mut cells = vec![scorer.name().to_owned()];
        cells.extend(END_TO_END.map(thr));
        tkg.row(cells);
    }
    tkg.note("paper: Frugal wins for every scorer; the embedding layer dominates");
    out.push(tkg);

    // (b) DLRM depth sweep.
    let spec = RecDatasetSpec::avazu().scaled_to_ids(scale.rec_ids);
    let dim = spec.embedding_dim as usize;
    let mut trec = ExpTable::new(
        "Fig 18b: DLRM depth sensitivity (samples/s)",
        &system_columns("layers", &END_TO_END, System::rec_label),
    );
    for depth in [2usize, 3, 4, 5, 6] {
        // Head widths: dim -> 512 x (depth-2) -> 256 -> 1.
        let mut dims = vec![dim];
        dims.extend(std::iter::repeat_n(512, depth.saturating_sub(2)));
        dims.push(256);
        dims.push(1);
        let trace =
            RecTrace::new(spec.clone(), scale.rec_batch, scale.gpus, 61).expect("valid trace");
        let model = Dlrm::new(trace.clone(), &dims, 0.01, 3, false);
        let cfg = FrugalConfig::commodity(scale.gpus, scale.steps);
        let thr =
            |system: System| fmt_throughput(system.price(cfg.clone(), &trace, &model).throughput());
        let mut cells = vec![model.n_layers().to_string()];
        cells.extend(END_TO_END.map(thr));
        trec.row(cells);
    }
    trec.note("paper: deeper DNNs shrink the relative gain but never flip the ordering");
    out.push(trec);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp10_sweeps_thread_counts() {
        let t = &exp10_flush_threads(&Scale::quick())[0];
        assert_eq!(t.n_rows(), 8);
    }

    #[test]
    fn exp11_covers_models() {
        let tables = exp11_models(&Scale::quick());
        assert_eq!(tables[0].n_rows(), 4); // four scorers
        assert_eq!(tables[1].n_rows(), 5); // depths 2..6
    }
}
