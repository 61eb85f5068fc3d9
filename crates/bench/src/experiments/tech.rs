//! Exp #2–#5: the technique ablations (Fig 9–12).

use super::{measured_phase, system_columns, Scale};
use crate::table::{fmt_throughput, telemetry_table, ExpTable};
use frugal_baselines::System;
use frugal_core::{FrugalConfig, ModeledRun, PqKind, PullToTarget};
use frugal_data::{KeyDistribution, KgDatasetSpec, KgTrace, SyntheticTrace};
use frugal_models::{KgModel, KgScorer};
use frugal_sim::{CostModel, HostPath, Topology};
use frugal_telemetry::{LedgerPhase, Telemetry};

/// Exp #2 (Fig 9): P²F vs write-through flushing — stall time and
/// throughput on a Zipf-0.9 workload with 1 % cache.
pub fn exp2_p2f(scale: &Scale) -> Vec<ExpTable> {
    let model = PullToTarget::new(32, 7);
    let mut stall = ExpTable::new(
        "Fig 9a: training stall per iteration (us, log-scale in paper)",
        &[
            "batch",
            "SyncFlushing",
            "P2F",
            "reduction x",
            "p95 (Sync/P2F)",
            "p99 (Sync/P2F)",
        ],
    );
    let mut thr = ExpTable::new(
        "Fig 9b: training throughput (samples/s)",
        &["batch", "SyncFlushing", "P2F", "speedup x"],
    );
    for &batch in &scale.batches {
        let trace = SyntheticTrace::new(
            scale.micro_keys,
            KeyDistribution::Zipf(0.9),
            batch,
            scale.gpus,
            17,
        )
        .expect("valid trace");
        let mut cfg = FrugalConfig::commodity(scale.gpus, scale.steps);
        cfg.cache_ratio = 0.01;
        let sync = System::FrugalSync.price(cfg.clone(), &trace, &model);
        let p2f = System::Frugal.price(cfg, &trace, &model);
        let (ss, sp) = (
            sync.stats.mean_stall().as_micros_f64(),
            p2f.stats.mean_stall().as_micros_f64(),
        );
        let tail = |r: &ModeledRun, q: f64| r.stats.stall_percentile(q).as_micros_f64();
        stall.row(vec![
            batch.to_string(),
            format!("{ss:.0}"),
            format!("{sp:.0}"),
            format!("{:.1}", ss / sp.max(1.0)),
            format!("{:.0}/{:.0}", tail(&sync, 0.95), tail(&p2f, 0.95)),
            format!("{:.0}/{:.0}", tail(&sync, 0.99), tail(&p2f, 0.99)),
        ]);
        thr.row(vec![
            batch.to_string(),
            fmt_throughput(sync.throughput()),
            fmt_throughput(p2f.throughput()),
            format!("{:.2}", p2f.throughput() / sync.throughput()),
        ]);
    }
    stall.note("paper: P2F reduces stall 34-101x");
    stall.note("modeled clock: blocking rows x committed per-row flush price (Sync: every row, synchronously); p95/p99 are nearest-rank tails over iterations");
    thr.note("paper: stall reduction lifts end-to-end throughput 3.5-5.3x");
    vec![stall, thr]
}

/// Exp #3 (Fig 10): UVA-enabled vs CPU-involved host-memory access latency.
pub fn exp3_uva(_scale: &Scale) -> Vec<ExpTable> {
    let cost = CostModel::new(Topology::commodity(4));
    let mut t = ExpTable::new(
        "Fig 10: host memory access latency (us), dim 32",
        &["batch", "CPU-involved", "UVA-enabled", "ratio"],
    );
    for batch in [128u64, 512, 1024, 1536, 2048] {
        let cpu = cost
            .host_read(HostPath::CpuInvolved, batch, 128, 1)
            .as_micros_f64();
        let uva = cost.host_read(HostPath::Uva, batch, 128, 1).as_micros_f64();
        t.row(vec![
            batch.to_string(),
            format!("{cpu:.0}"),
            format!("{uva:.0}"),
            format!("{:.2}", cpu / uva),
        ]);
    }
    t.note("paper: UVA lowers latency 3.1-3.4x (no CPU dispatch, no extra copies)");
    vec![t]
}

/// Exp #4 (Fig 11): two-level PQ vs tree heap, inside the full system on a
/// Freebase-shaped KG workload. The first three columns are on the modeled
/// clock — the heap's O(log N) sifts and its serialization, priced from
/// row counts; the last is the wall-clock contention the two queues
/// actually show on this host (the ledger's registration phase, slowest
/// trainer per step).
pub fn exp4_pq(scale: &Scale) -> Vec<ExpTable> {
    let spec = KgDatasetSpec::freebase().scaled_to_entities(scale.kg_entities);
    let batch = 512usize;
    let mut t = ExpTable::new(
        "Fig 11: TreeHeap vs two-level PQ (KG Freebase-shaped)",
        &[
            "cache",
            "g-entry update ms (Tree/2L)",
            "stall us (Tree/2L)",
            "throughput (Tree/2L)",
            "measured registration us p50 (Tree/2L)",
        ],
    );
    for cache_ratio in [0.05, 0.10] {
        let trace = KgTrace::new(spec.clone(), batch, scale.gpus, 23).expect("valid trace");
        let model = KgModel::new(KgScorer::TransE, trace.clone(), 5, false);
        let cfg = |pq: PqKind| {
            let mut cfg = FrugalConfig::commodity(scale.gpus, scale.steps);
            cfg.cache_ratio = cache_ratio;
            cfg.pq = pq;
            cfg
        };
        let registration_us = |pq: PqKind| {
            let cfg = cfg(pq).with_telemetry(Telemetry::new());
            let r = System::Frugal.run(cfg, &trace, &model);
            measured_phase(&r, LedgerPhase::Registration).map_or(0.0, |p| p.p50_ns as f64 / 1e3)
        };
        let tree = System::Frugal.price(cfg(PqKind::TreeHeap), &trace, &model);
        let two = System::Frugal.price(cfg(PqKind::TwoLevel), &trace, &model);
        t.row(vec![
            format!("{:.0}%", cache_ratio * 100.0),
            format!(
                "{:.2}/{:.2}",
                tree.mean_gentry_update.as_millis_f64(),
                two.mean_gentry_update.as_millis_f64()
            ),
            format!(
                "{:.0}/{:.0}",
                tree.stats.mean_stall().as_micros_f64(),
                two.stats.mean_stall().as_micros_f64()
            ),
            format!(
                "{}/{}",
                fmt_throughput(tree.throughput()),
                fmt_throughput(two.throughput())
            ),
            format!(
                "{:.0}/{:.0}",
                registration_us(PqKind::TreeHeap),
                registration_us(PqKind::TwoLevel)
            ),
        ]);
    }
    t.note("paper: two-level PQ is 1.2-1.4x faster on g-entry updates, cuts stall 74-107x, lifts throughput 2.1-3.3x");
    t.note("g-entry/stall/throughput are modeled: the heap serializes every member's rows and pays a log2(table size) sift per row; the last column is measured wall time on this host");
    t.note(format!(
        "Freebase scaled to {} entities (paper: 86.1M)",
        spec.n_entities
    ));
    vec![t]
}

/// Exp #5 (Fig 12): per-technique time breakdown of one training step,
/// plus a telemetry-instrumented Frugal run at the largest batch showing
/// the measured per-step phase ledger behind the model.
pub fn exp5_breakdown(scale: &Scale) -> Vec<ExpTable> {
    let model = PullToTarget::new(32, 7);
    let mut t = ExpTable::new(
        "Fig 12: per-step breakdown (ms): comm / hostDRAM / cache / other / stall",
        &system_columns("batch", &System::microbench_set(), System::rec_label),
    );
    for &batch in &scale.batches {
        let trace = SyntheticTrace::new(
            scale.micro_keys,
            KeyDistribution::Zipf(0.9),
            batch,
            scale.gpus,
            19,
        )
        .expect("valid trace");
        let mut cells = vec![batch.to_string()];
        for system in System::microbench_set() {
            let r = system.price(
                FrugalConfig::commodity(scale.gpus, scale.steps),
                &trace,
                &model,
            );
            let m = r.stats.mean();
            cells.push(format!(
                "{:.2}/{:.2}/{:.2}/{:.2}/{:.2}",
                m.comm.as_millis_f64(),
                m.host_dram.as_millis_f64(),
                m.cache.as_millis_f64(),
                m.other.as_millis_f64(),
                m.stall.as_millis_f64()
            ));
        }
        t.row(cells);
    }
    t.note("paper: Frugal-Sync cuts forward comm 29-53% and host time up to 76%; Frugal cuts comm 60-85% and host ~98%");

    // One instrumented run: where the modeled breakdown above comes from.
    let batch = *scale.batches.last().expect("scale has batches");
    let trace = SyntheticTrace::new(
        scale.micro_keys,
        KeyDistribution::Zipf(0.9),
        batch,
        scale.gpus,
        19,
    )
    .expect("valid trace");
    let cfg = FrugalConfig::commodity(scale.gpus, scale.steps).with_telemetry(Telemetry::new());
    let r = System::Frugal.run(cfg, &trace, &model);
    let summary = r.telemetry.expect("telemetry was enabled");
    let tele = telemetry_table(
        format!("Fig 12 (instrumented): Frugal per-step phase ledger, batch {batch}"),
        &summary,
    );
    vec![t, tele]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp2_p2f_reduces_stall_at_quick_scale() {
        // The full throughput gap needs default scale (bigger batches, more
        // GPUs); at smoke scale we check the stall ordering that drives it.
        let tables = exp2_p2f(&Scale::quick());
        let stall = &tables[0];
        let last = stall.n_rows() - 1;
        let sync = stall.cell_f64(last, 1).expect("sync stall");
        let p2f = stall.cell_f64(last, 2).expect("p2f stall");
        assert!(p2f < sync, "P2F stall {p2f} must undercut sync {sync}");
    }

    #[test]
    fn exp3_ratio_in_paper_band() {
        let t = &exp3_uva(&Scale::quick())[0];
        for row in 0..t.n_rows() {
            let ratio = t.cell_f64(row, 3).expect("ratio");
            assert!((2.8..3.8).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn exp4_produces_both_cache_ratios() {
        let t = &exp4_pq(&Scale::quick())[0];
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn exp5_has_all_systems() {
        let tables = exp5_breakdown(&Scale::quick());
        assert_eq!(tables[0].n_rows(), Scale::quick().batches.len());
        // The instrumented run's ledger: one row per phase.
        assert_eq!(tables[1].n_rows(), LedgerPhase::COUNT);
    }
}
