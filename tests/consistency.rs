//! Consistency tests the covering array (`tests/config_space.rs`) does not
//! make: the baselines' losses, the wait condition's fault seam, and the
//! shutdown drain on a key space much larger than the run.

use frugal::core::{train_serial, FrugalConfig, FrugalEngine, PullToTarget, System};
use frugal::data::{KeyDistribution, SyntheticTrace};

const STEPS: u64 = 20;

fn frugal_cfg(n_gpus: usize) -> FrugalConfig {
    let mut cfg = FrugalConfig::commodity(n_gpus, STEPS);
    cfg.flush_threads = 3;
    cfg.lookahead = 6;
    cfg
}

/// The three baselines train with the serial oracle itself, so the losses
/// they report must be its losses, bit for bit.
#[test]
fn baselines_report_the_oracles_losses() {
    let t = SyntheticTrace::new(600, KeyDistribution::Zipf(0.9), 48, 2, 77).unwrap();
    let model = PullToTarget::new(8, 5);
    let reference = train_serial(&t, &model, STEPS, 0.1, 42);
    for system in [System::PyTorch, System::HugeCtr, System::PyTorchUvm] {
        let mut cfg = frugal_cfg(2);
        cfg.cache_ratio = 0.1;
        let r = system.run(cfg, &t, &model);
        assert_eq!(
            (r.first_loss.to_bits(), r.final_loss.to_bits()),
            (
                reference.first_loss.to_bits(),
                reference.final_loss.to_bits()
            ),
            "baseline-{} diverged from serial",
            system.cli_name()
        );
    }
}

/// Failure injection: disabling the P²F wait condition must be *caught* by
/// the consistency checker — proving the checker works and that the wait
/// condition is load-bearing.
#[test]
fn skipping_wait_condition_breaks_consistency() {
    // Uniform keys over a space barely larger than the per-step footprint:
    // every step writes ~14k unique rows that the next step reads again, so
    // a single flusher cannot drain between steps and unsynchronized reads
    // must hit rows with pending updates.
    let t = SyntheticTrace::new(16_384, KeyDistribution::Uniform, 4_096, 4, 13).unwrap();
    let model = PullToTarget::new(16, 3);
    let mut cfg = FrugalConfig::commodity(4, 12).checked();
    cfg.flush_threads = 1;
    cfg.flush_batch = 8;
    cfg.flush_throttle_us = 500; // a starved flusher cannot hide the race
    cfg.skip_wait = true;
    cfg.lookahead = 4;
    let engine = FrugalEngine::new(cfg, 16_384, 16);
    let report = engine.run(&t, &model);
    assert!(
        report.violations > 0 || report.races > 0,
        "expected consistency violations once the wait condition is skipped \
         (got violations={}, races={})",
        report.violations,
        report.races
    );
}

/// A `skip_wait` run keeps one flush-queue bucket per step, so a run
/// longer than the injection is meant for is refused before it starts.
#[test]
#[should_panic(expected = "skip_wait is failure injection")]
fn a_skip_wait_run_longer_than_its_bound_is_refused() {
    let t = SyntheticTrace::new(64, KeyDistribution::Uniform, 8, 1, 1).unwrap();
    let mut cfg = FrugalConfig::commodity(1, 4097);
    cfg.skip_wait = true;
    FrugalEngine::new(cfg, 64, 4).run(&t, &PullToTarget::new(4, 1));
}

/// The flushing pipeline drains completely: after a run, re-reading the
/// store equals the serial result even for keys only written early on
/// (deferred ∞-priority flushes must not be lost at shutdown).
#[test]
fn deferred_updates_are_never_lost() {
    // Uniform keys on a big space: most keys are written once and never
    // read again, living in the ∞ bucket until the final drain.
    let t = SyntheticTrace::new(5_000, KeyDistribution::Uniform, 64, 2, 21).unwrap();
    let model = PullToTarget::new(4, 1);
    let engine = FrugalEngine::new(frugal_cfg(2), 5_000, 4);
    engine.run(&t, &model);
    let serial = train_serial(&t, &model, STEPS, 0.1, 42);
    for k in 0..5_000 {
        assert_eq!(
            engine.store().row_vec(k),
            serial.store.row_vec(k),
            "key {k}"
        );
    }
}
