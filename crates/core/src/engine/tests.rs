use super::*;
use crate::config::{FlushMode, MembershipPlan, OptimizerKind};
use crate::model::PullToTarget;
use crate::{train_serial, System};
use frugal_data::{KeyDistribution, SyntheticTrace};

fn small_cfg(n_gpus: usize, steps: u64) -> FrugalConfig {
    let mut cfg = FrugalConfig::commodity(n_gpus, steps);
    cfg.flush_threads = 2;
    cfg.lookahead = 4;
    // Mean-normalized gradients: a higher rate keeps the convergence
    // tests fast while staying stable (lr * occurrences/batch < 2).
    cfg.lr = 2.0;
    cfg
}

fn trace(n_keys: u64, batch: usize, n_gpus: usize) -> SyntheticTrace {
    SyntheticTrace::new(n_keys, KeyDistribution::Zipf(0.9), batch, n_gpus, 3).unwrap()
}

#[test]
fn frugal_trains_and_reduces_loss() {
    let t = trace(500, 64, 2);
    let model = PullToTarget::new(8, 1);
    let engine = FrugalEngine::new(small_cfg(2, 30), 500, 8);
    let report = engine.run(&t, &model);
    assert_eq!(report.stats.len(), 30);
    assert!(
        report.final_loss < report.first_loss * 0.7,
        "loss {} -> {}",
        report.first_loss,
        report.final_loss
    );
    assert!(report.throughput() > 0.0);
    // The flush-path metrics must populate on a P2F run.
    assert!(report.flush_rows > 0, "P2F run must flush rows");
    assert!(
        report.flush_apply_ns > 0,
        "P2F run must time its flush applies"
    );
}

#[test]
fn fifo_trains_and_flushes_in_background() {
    let t = trace(500, 64, 2);
    let model = PullToTarget::new(8, 1);
    let mut cfg = small_cfg(2, 30);
    cfg.flush_mode = FlushMode::Fifo;
    let engine = FrugalEngine::new(cfg, 500, 8);
    let report = engine.run(&t, &model);
    assert_eq!(report.stats.len(), 30);
    assert!(report.final_loss < report.first_loss * 0.7);
    // FIFO is proactive: updates reach the host via the flusher pool.
    assert!(report.flush_rows > 0, "FIFO run must flush rows");
}

#[test]
fn cache_gets_hits_on_skewed_keys() {
    let t = trace(1_000, 128, 2);
    let model = PullToTarget::new(4, 4);
    let mut cfg = small_cfg(2, 20);
    cfg.cache_ratio = 0.10;
    let engine = FrugalEngine::new(cfg, 1_000, 4);
    let report = engine.run(&t, &model);
    assert!(
        report.hit_ratio > 0.05,
        "expected hot-key hits, got {}",
        report.hit_ratio
    );
}

#[test]
fn parked_flushers_still_drain() {
    // A throttled, tiny run leaves flushers mostly idle: they must park
    // (parked_ns grows) yet still drain every deferred update by the
    // time `run` returns (the engine debug-asserts pending_keys == 0).
    let t = trace(120, 16, 2);
    let model = PullToTarget::new(4, 6);
    let telemetry = frugal_telemetry::Telemetry::new();
    let mut cfg = small_cfg(2, 8).with_telemetry(telemetry.clone());
    cfg.flush_throttle_us = 50;
    let engine = FrugalEngine::new(cfg, 120, 4);
    let report = engine.run(&t, &model);
    assert_eq!(report.stats.len(), 8);
    let summary = report.telemetry.expect("telemetry on");
    let parked = summary
        .metrics
        .counters
        .iter()
        .find(|(name, _)| name == "flusher.parked_ns")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(parked > 0, "idle flushers should park, not spin");
    // And the run's parameters still match the serial oracle.
    let cfg2 = small_cfg(2, 8);
    let serial =
        crate::serial::train_serial_with(&t, &model, 8, cfg2.lr, cfg2.seed, cfg2.optimizer);
    for key in 0..120 {
        assert_eq!(engine.store().row_vec(key), serial.store.row_vec(key));
    }
}

#[test]
fn resolve_segments_splits_at_membership_change_points() {
    let mut cfg = small_cfg(4, 20);
    cfg.membership = MembershipPlan::default()
        .change(6, vec![0, 2, 3])
        .change(14, vec![0, 1, 2, 3]);
    let segs = resolve_segments(&cfg);
    assert_eq!(
        segs,
        vec![
            Segment {
                start: 0,
                end: 6,
                members: vec![0, 1, 2, 3]
            },
            Segment {
                start: 6,
                end: 14,
                members: vec![0, 2, 3]
            },
            Segment {
                start: 14,
                end: 20,
                members: vec![0, 1, 2, 3]
            },
        ]
    );
    // A static plan resolves to one full-width segment.
    let one = resolve_segments(&small_cfg(4, 20));
    assert_eq!(one.len(), 1);
    assert_eq!((one[0].start, one[0].end), (0, 20));
    assert_eq!(one[0].members, vec![0, 1, 2, 3]);
}

#[test]
#[should_panic(expected = "GPU count mismatch")]
fn rejects_mismatched_gpu_count() {
    let t = trace(100, 16, 4);
    let model = PullToTarget::new(4, 3);
    let engine = FrugalEngine::new(small_cfg(2, 10), 100, 4);
    let _ = engine.run(&t, &model);
}

#[test]
#[should_panic(expected = "invalid FrugalConfig")]
fn rejects_invalid_config_at_construction() {
    let mut cfg = small_cfg(2, 10);
    cfg.flush_threads = 0;
    let _ = FrugalEngine::new(cfg, 100, 4);
}

// The comparator systems: each trains the serial oracle's parameters
// (`System::run`), since all of them are synchronous (§4.1), and is priced
// by the key-stream walk (`System::price`).

#[test]
fn all_baselines_match_serial_reference() {
    let t = trace(300, 32, 2);
    let model = PullToTarget::new(4, 1);
    let serial = train_serial(&t, &model, 15, 0.1, 42);
    for system in [System::PyTorch, System::HugeCtr, System::PyTorchUvm] {
        let mut cfg = FrugalConfig::commodity(2, 15);
        cfg.cache_ratio = 0.1;
        let r = system.run(cfg, &t, &model);
        assert_eq!(
            (r.first_loss.to_bits(), r.final_loss.to_bits()),
            (serial.first_loss.to_bits(), serial.final_loss.to_bits()),
            "{system:?} diverged from the serial reference"
        );
    }
}

#[test]
fn baselines_converge() {
    let t = trace(200, 32, 2);
    let model = PullToTarget::new(4, 2);
    // 60 steps: enough for a 30% loss drop on any reasonable PRNG
    // stream (the vendored rand shim is not bit-compatible with
    // upstream StdRng, so the exact trace differs from the original).
    let cfg = FrugalConfig::commodity(2, 60);
    let r = System::PyTorch.run(cfg, &t, &model);
    assert!(
        r.final_loss < r.first_loss * 0.7,
        "first {} final {}",
        r.first_loss,
        r.final_loss
    );
}

#[test]
fn cached_baseline_gets_hits() {
    let t = trace(1_000, 128, 2);
    let model = PullToTarget::new(4, 2);
    let mut cfg = FrugalConfig::commodity(2, 20);
    cfg.cache_ratio = 0.1;
    let r = System::HugeCtr.run(cfg, &t, &model);
    assert!(r.hit_ratio > 0.05, "hit ratio {}", r.hit_ratio);
}

#[test]
fn uvm_is_dramatically_slower() {
    // Exp #1: PyTorch-UVM is "two orders of magnitude slower".
    let t = trace(100_000, 1024, 2);
    let model = PullToTarget::new(4, 2);
    let cfg = FrugalConfig::commodity(2, 3);
    let tb = System::PyTorch.run(cfg.clone(), &t, &model).throughput();
    let tu = System::PyTorchUvm.run(cfg, &t, &model).throughput();
    assert!(tb / tu > 20.0, "base {tb} vs uvm {tu}");
}

#[test]
fn stall_is_zero_for_baselines() {
    let t = trace(100, 16, 2);
    let model = PullToTarget::new(4, 2);
    let cfg = FrugalConfig::commodity(2, 5);
    let r = System::HugeCtr.run(cfg, &t, &model);
    assert_eq!(r.mean_stall().as_nanos(), 0);
    assert_eq!(r.mean_gentry_update.as_nanos(), 0);
}

#[test]
#[should_panic(expected = "SGD only")]
fn refuses_an_adagrad_config() {
    let mut cfg = FrugalConfig::commodity(2, 5);
    cfg.optimizer = OptimizerKind::Adagrad;
    System::PyTorch.run(cfg, &trace(100, 16, 2), &PullToTarget::new(4, 2));
}

#[test]
#[should_panic(expected = "static cohort")]
fn refuses_an_elastic_plan() {
    let mut cfg = FrugalConfig::commodity(2, 5);
    cfg.membership = MembershipPlan::default()
        .change(2, vec![0])
        .change(4, vec![0, 1]);
    System::HugeCtr.run(cfg, &trace(100, 16, 2), &PullToTarget::new(4, 2));
}
