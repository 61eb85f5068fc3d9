//! Exp #6–#9: overall performance (Fig 13–16).

use super::{system_columns, Scale, END_TO_END};
use crate::table::{fmt_throughput, ExpTable};
use frugal_core::{EmbeddingModel, FrugalConfig, System, Workload};
use frugal_data::{KgDatasetSpec, KgTrace, RecDatasetSpec, RecTrace};
use frugal_models::{Dlrm, KgModel, KgScorer};
use frugal_sim::Topology;

/// The column of Frugal's throughput over the cache-less baseline's.
fn speedup_column(label: fn(&System) -> &'static str) -> String {
    format!("{}/{}", label(&System::Frugal), label(&System::PyTorch))
}

/// The figures' DLRM over a REC trace: embedding dim, then 512-512-256-1.
fn dlrm(trace: &RecTrace) -> Dlrm {
    let dim = trace.spec().embedding_dim as usize;
    Dlrm::new(trace.clone(), &[dim, 512, 512, 256, 1], 0.01, 3, false)
}

fn kg_specs(scale: &Scale) -> Vec<KgDatasetSpec> {
    vec![
        KgDatasetSpec::fb15k().scaled_to_entities(scale.kg_entities),
        KgDatasetSpec::freebase().scaled_to_entities(scale.kg_entities),
        KgDatasetSpec::wikikg().scaled_to_entities(scale.kg_entities),
    ]
}

fn rec_specs(scale: &Scale) -> Vec<RecDatasetSpec> {
    vec![
        RecDatasetSpec::avazu().scaled_to_ids(scale.rec_ids),
        RecDatasetSpec::criteo().scaled_to_ids(scale.rec_ids),
        RecDatasetSpec::criteo_tb().scaled_to_ids(scale.rec_ids),
    ]
}

/// One cache-ratio row of Fig 13/14: each [`END_TO_END`] system's
/// throughput, then Frugal's over the cache-less baseline's.
fn end_to_end_row(
    scale: &Scale,
    cache_ratio: f64,
    trace: &dyn Workload,
    model: &dyn EmbeddingModel,
) -> Vec<String> {
    let mut cfg = FrugalConfig::commodity(scale.gpus, scale.steps);
    cfg.cache_ratio = cache_ratio;
    let [base, cached, frugal] =
        END_TO_END.map(|s| s.price(cfg.clone(), trace, model).throughput());
    vec![
        format!("{:.0}%", cache_ratio * 100.0),
        fmt_throughput(base),
        fmt_throughput(cached),
        fmt_throughput(frugal),
        format!("{:.2}", frugal / base),
    ]
}

/// Exp #6 (Fig 13): knowledge-graph training throughput (TransE).
pub fn exp6_kg(scale: &Scale) -> Vec<ExpTable> {
    let mut out = Vec::new();
    for spec in kg_specs(scale) {
        let batch = if spec.name.starts_with("FB15k") {
            1200
        } else {
            2000
        }
        .min(spec.n_entities as usize / 2)
        .max(16);
        let mut header = system_columns("cache", &END_TO_END, System::kg_label);
        header.push(speedup_column(System::kg_label));
        let mut t = ExpTable::new(
            format!("Fig 13 ({}): KG throughput (triples/s)", spec.name),
            &header,
        );
        for cache_ratio in [0.05, 0.10] {
            let trace = KgTrace::new(spec.clone(), batch, scale.gpus, 29).expect("valid trace");
            let model = KgModel::new(KgScorer::TransE, trace.clone(), 5, false);
            t.row(end_to_end_row(scale, cache_ratio, &trace, &model));
        }
        t.note("paper: Frugal beats DGL-KE 1.2-1.5x and DGL-KE-cached 4.1-7.1x; DGL-KE-cached can trail vanilla DGL-KE");
        t.note(format!("entities scaled to {}", spec.n_entities));
        out.push(t);
    }
    out
}

/// Exp #7 (Fig 14): recommendation-model training throughput (DLRM).
pub fn exp7_rec(scale: &Scale) -> Vec<ExpTable> {
    let mut out = Vec::new();
    for spec in rec_specs(scale) {
        let mut header = system_columns("cache", &END_TO_END, System::rec_label);
        header.push(speedup_column(System::rec_label));
        let mut t = ExpTable::new(
            format!("Fig 14 ({}): REC throughput (samples/s)", spec.name),
            &header,
        );
        for cache_ratio in [0.05, 0.10] {
            let trace =
                RecTrace::new(spec.clone(), scale.rec_batch, scale.gpus, 31).expect("valid trace");
            t.row(end_to_end_row(scale, cache_ratio, &trace, &dlrm(&trace)));
        }
        t.note("paper: Frugal beats PyTorch 4.9-7.4x and HugeCTR 6.1-8.7x");
        t.note(format!("ID space scaled to {}", spec.n_ids));
        out.push(t);
    }
    out
}

/// One GPU-count row of Fig 15: every microbenchmark system's throughput
/// on `n` commodity GPUs.
fn gpu_count_row(
    n: usize,
    steps: u64,
    trace: &dyn Workload,
    model: &dyn EmbeddingModel,
) -> Vec<String> {
    let cfg = FrugalConfig::commodity(n, steps);
    let mut cells = vec![n.to_string()];
    for system in System::microbench_set() {
        cells.push(fmt_throughput(
            system.price(cfg.clone(), trace, model).throughput(),
        ));
    }
    cells
}

/// Exp #8 (Fig 15): scalability across GPU counts.
pub fn exp8_scalability(scale: &Scale) -> Vec<ExpTable> {
    let mut out = Vec::new();

    // (a) KG on Freebase-shaped data.
    let kg_spec = KgDatasetSpec::freebase().scaled_to_entities(scale.kg_entities);
    let mut tkg = ExpTable::new(
        "Fig 15a (KG, Freebase-shaped): throughput by GPU count",
        &system_columns("gpus", &System::microbench_set(), System::kg_label),
    );
    for n in [2usize, 4, 6, 8] {
        let trace = KgTrace::new(kg_spec.clone(), 1024, n, 37).expect("valid trace");
        let model = KgModel::new(KgScorer::TransE, trace.clone(), 5, false);
        tkg.row(gpu_count_row(n, scale.steps, &trace, &model));
    }
    tkg.note(
        "paper: cache-less systems plateau at >=4 GPUs (root-complex bound); Frugal keeps scaling",
    );
    out.push(tkg);

    // (b) REC on Avazu-shaped data.
    let rec_spec = RecDatasetSpec::avazu().scaled_to_ids(scale.rec_ids);
    let mut trec = ExpTable::new(
        "Fig 15b (REC, Avazu-shaped): throughput by GPU count",
        &system_columns("gpus", &System::microbench_set(), System::rec_label),
    );
    for n in [2usize, 4, 6, 8] {
        let trace = RecTrace::new(rec_spec.clone(), scale.rec_batch, n, 41).expect("valid trace");
        trec.row(gpu_count_row(n, scale.steps, &trace, &dlrm(&trace)));
    }
    trec.note("paper: Frugal improves 1.2-4.9x across GPU counts, sub-linear due to link limits");
    out.push(trec);
    out
}

/// Fig 16's columns.
const COST_COLUMNS: [&str; 6] = [
    "dataset",
    "gpus",
    "A30 best",
    "Frugal 3090",
    "thr ratio",
    "cost-eff x",
];

/// One row of Fig 16, the best existing system on `n` datacenter A30s vs
/// Frugal on `n` commodity RTX 3090s: both throughputs, their ratio, and
/// Frugal's throughput per dollar over the A30 system's, each run priced
/// from its own topology.
fn cost_row(
    dataset: &str,
    n: usize,
    steps: u64,
    trace: &dyn Workload,
    model: &dyn EmbeddingModel,
) -> Vec<String> {
    let dc = FrugalConfig::on(Topology::datacenter(n), steps);
    let commodity = FrugalConfig::commodity(n, steps);
    let (dc_price, commodity_price) = (
        dc.cost.topology().gpu_price_usd(),
        commodity.cost.topology().gpu_price_usd(),
    );
    let best_a30 = [System::PyTorch, System::HugeCtr]
        .iter()
        .map(|&s| s.price(dc.clone(), trace, model).throughput())
        .fold(0.0f64, f64::max);
    let frugal = System::Frugal.price(commodity, trace, model).throughput();
    let cost_eff = (frugal / commodity_price) / (best_a30 / dc_price);
    vec![
        dataset.to_owned(),
        n.to_string(),
        fmt_throughput(best_a30),
        fmt_throughput(frugal),
        format!("{:.2}", frugal / best_a30),
        format!("{cost_eff:.1}"),
    ]
}

/// Exp #9 (Fig 16): cost efficiency — the best existing system on A30s vs
/// Frugal on RTX 3090s, with $/throughput.
pub fn exp9_cost(scale: &Scale) -> Vec<ExpTable> {
    let mut out = Vec::new();

    // (a) KG: FB15k- and Freebase-shaped.
    let mut tkg = ExpTable::new(
        "Fig 16a (KG): best-on-A30 vs Frugal-on-3090 (triples/s)",
        &COST_COLUMNS,
    );
    for spec in [
        KgDatasetSpec::fb15k().scaled_to_entities(scale.kg_entities),
        KgDatasetSpec::freebase().scaled_to_entities(scale.kg_entities),
    ] {
        for n in [2usize, 3, 4] {
            let batch = 1024.min(spec.n_entities as usize / 2).max(16);
            let trace = KgTrace::new(spec.clone(), batch, n, 43).expect("valid trace");
            let model = KgModel::new(KgScorer::TransE, trace.clone(), 5, false);
            tkg.row(cost_row(&spec.name, n, scale.steps, &trace, &model));
        }
    }
    tkg.note(
        "paper: Frugal reaches 89-97% of datacenter throughput at 4.0-4.3x better cost-efficiency",
    );
    out.push(tkg);

    // (b) REC: Avazu- and Criteo-shaped.
    let mut trec = ExpTable::new(
        "Fig 16b (REC): best-on-A30 vs Frugal-on-3090 (samples/s)",
        &COST_COLUMNS,
    );
    for spec in [
        RecDatasetSpec::avazu().scaled_to_ids(scale.rec_ids),
        RecDatasetSpec::criteo().scaled_to_ids(scale.rec_ids),
    ] {
        for n in [2usize, 3, 4] {
            let trace = RecTrace::new(spec.clone(), scale.rec_batch, n, 47).expect("valid trace");
            trec.row(cost_row(&spec.name, n, scale.steps, &trace, &dlrm(&trace)));
        }
    }
    trec.note(format!(
        "prices: A30 ${}, RTX 3090 ${} (paper §4.5)",
        frugal_sim::GpuSpec::a30().price_usd,
        frugal_sim::GpuSpec::rtx3090().price_usd
    ));
    out.push(trec);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp6_and_exp7_cover_datasets() {
        assert_eq!(exp6_kg(&Scale::quick()).len(), 3);
        assert_eq!(exp7_rec(&Scale::quick()).len(), 3);
    }

    #[test]
    fn exp8_scales_both_workloads() {
        let t = exp8_scalability(&Scale::quick());
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].n_rows(), 4);
    }

    #[test]
    fn exp9_reports_cost_efficiency() {
        let t = exp9_cost(&Scale::quick());
        assert_eq!(t.len(), 2);
        // Cost-efficiency advantage should be positive in every row.
        for table in &t {
            for row in 0..table.n_rows() {
                let eff = table.cell_f64(row, 5).expect("cost-eff");
                assert!(eff > 0.0);
            }
        }
    }
}
