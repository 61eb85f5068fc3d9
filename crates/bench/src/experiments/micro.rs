//! Fig 3 (motivation) and Exp #1 (Fig 8, microbenchmark).

use super::{system_columns, Scale};
use crate::table::{fmt_throughput, ExpTable};
use frugal_baselines::System;
use frugal_core::{FrugalConfig, PullToTarget};
use frugal_data::{KeyDistribution, SyntheticTrace};
use frugal_sim::{CostModel, Topology};

/// Fig 3: why existing systems underperform on commodity GPUs.
///
/// (a) HugeCTR-style training throughput on 4×A30 vs 4×RTX 3090;
/// (b) all_to_all bandwidth by transfer size;
/// (c) iteration-time breakdown on both GPU classes.
pub fn fig3_motivation(scale: &Scale) -> Vec<ExpTable> {
    let mut out = Vec::new();
    let dim = 32usize;
    let model = PullToTarget::new(dim, 7);
    let n = scale.gpus.min(4); // the paper's motivation uses 4 GPUs

    // (a) throughput + (c) breakdown.
    let mut ta = ExpTable::new(
        "Fig 3a: HugeCTR throughput, datacenter vs commodity (samples/s)",
        &["batch", "A30 (datacenter)", "RTX3090 (commodity)", "drop %"],
    );
    let mut tc = ExpTable::new(
        "Fig 3c: iteration breakdown (ms): comm / hostDRAM / cache / other",
        &["batch", "A30", "RTX3090"],
    );
    for &batch in &scale.batches {
        let trace = SyntheticTrace::new(scale.micro_keys, KeyDistribution::Zipf(0.9), batch, n, 11)
            .expect("valid trace");
        let datacenter = FrugalConfig::on(Topology::datacenter(n), scale.steps);
        let d = System::HugeCtr.price(datacenter, &trace, &model);
        let c = System::HugeCtr.price(FrugalConfig::commodity(n, scale.steps), &trace, &model);
        let (td, tc_) = (d.throughput(), c.throughput());
        ta.row(vec![
            batch.to_string(),
            fmt_throughput(td),
            fmt_throughput(tc_),
            format!("{:.0}", (1.0 - tc_ / td) * 100.0),
        ]);
        let fmt_bd = |r: &frugal_core::ModeledRun| {
            let m = r.stats.mean();
            format!(
                "{:.2}/{:.2}/{:.2}/{:.2}",
                m.comm.as_millis_f64(),
                m.host_dram.as_millis_f64(),
                m.cache.as_millis_f64(),
                m.other.as_millis_f64()
            )
        };
        tc.row(vec![batch.to_string(), fmt_bd(&d), fmt_bd(&c)]);
    }
    ta.note("paper: up to 37% throughput drop on commodity GPUs");
    tc.note("paper: the gap is dominated by collective comm + host DRAM (54-72%)");
    out.push(ta);

    // (b) all_to_all bandwidth curve.
    let mut tb = ExpTable::new(
        "Fig 3b: all_to_all bandwidth (GB/s per GPU)",
        &["transfer MiB", "A30 (P2P)", "RTX3090 (bounced)", "ratio"],
    );
    let dc = CostModel::new(Topology::datacenter(4));
    let cm = CostModel::new(Topology::commodity(4));
    for mib in [1u64, 4, 16, 64, 100] {
        let bytes = mib << 20;
        let bd = dc.all_to_all_bandwidth_gbps(bytes);
        let bc = cm.all_to_all_bandwidth_gbps(bytes);
        tb.row(vec![
            mib.to_string(),
            format!("{bd:.2}"),
            format!("{bc:.2}"),
            format!("{:.2}", bc / bd),
        ]);
    }
    tb.note("paper: commodity all_to_all is ~54% of datacenter bandwidth");
    out.push(tb);
    out.push(tc);
    out
}

/// Exp #1 (Fig 8): microbenchmark throughput across key distributions,
/// cache ratios, batch sizes, and systems.
pub fn exp1_microbenchmark(scale: &Scale) -> Vec<ExpTable> {
    let dim = 32usize;
    let model = PullToTarget::new(dim, 7);
    let mut out = Vec::new();
    for dist in [
        KeyDistribution::Uniform,
        KeyDistribution::Zipf(0.9),
        KeyDistribution::Zipf(0.99),
    ] {
        for cache_ratio in [0.01, 0.05] {
            let mut t = ExpTable::new(
                format!(
                    "Fig 8 ({}, cache {:.0}%): throughput (samples/s)",
                    dist.label(),
                    cache_ratio * 100.0
                ),
                &system_columns("batch", &System::microbench_set(), System::rec_label),
            );
            for &batch in &scale.batches {
                let trace = SyntheticTrace::new(scale.micro_keys, dist, batch, scale.gpus, 13)
                    .expect("valid trace");
                let mut cells = vec![batch.to_string()];
                for system in System::microbench_set() {
                    let mut cfg = FrugalConfig::commodity(scale.gpus, scale.steps);
                    cfg.cache_ratio = cache_ratio;
                    let r = system.price(cfg, &trace, &model);
                    cells.push(fmt_throughput(r.throughput()));
                }
                t.row(cells);
            }
            t.note(scale.note());
            t.note("paper: Frugal beats PyTorch/HugeCTR/Frugal-Sync by 1.5-10.2x / 4.3-11.3x / 3.3-5.1x");
            out.push(t);
        }
    }
    // UVM sidebar: two orders of magnitude slower.
    let trace = SyntheticTrace::new(
        scale.micro_keys,
        KeyDistribution::Zipf(0.9),
        *scale.batches.last().expect("non-empty batches"),
        scale.gpus,
        13,
    )
    .expect("valid trace");
    let mut t = ExpTable::new(
        "Exp 1 sidebar: PyTorch-UVM page-granularity penalty",
        &["system", "throughput"],
    );
    for system in [System::PyTorch, System::PyTorchUvm] {
        let r = system.price(
            FrugalConfig::commodity(scale.gpus, scale.steps),
            &trace,
            &model,
        );
        t.row(vec![
            system.rec_label().to_owned(),
            fmt_throughput(r.throughput()),
        ]);
    }
    t.note("paper: UVM is two orders of magnitude slower (4 KiB pages per ~128 B embedding)");
    out.push(t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shapes_hold_at_quick_scale() {
        let tables = fig3_motivation(&Scale::quick());
        assert_eq!(tables.len(), 3);
        // Fig 3a: commodity slower than datacenter at the largest batch.
        let ta = &tables[0];
        let last = ta.n_rows() - 1;
        let drop = ta.cell_f64(last, 3).expect("drop cell");
        assert!(drop > 0.0, "commodity should be slower, drop={drop}");
        // Fig 3b: ratio ~0.5 at 100 MiB.
        let tb = &tables[1];
        let ratio = tb.cell_f64(tb.n_rows() - 1, 3).expect("ratio");
        assert!((0.4..0.7).contains(&ratio));
    }

    #[test]
    fn exp1_runs_all_cells_at_quick_scale() {
        let tables = exp1_microbenchmark(&Scale::quick());
        // 3 dists x 2 ratios + UVM sidebar.
        assert_eq!(tables.len(), 7);
        for t in &tables[..6] {
            assert_eq!(t.n_rows(), Scale::quick().batches.len());
        }
    }
}
