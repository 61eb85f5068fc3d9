//! Integration tests for the critical-path profiler: the per-step phase
//! ledger must cover every step of a multi-GPU run with balanced,
//! contiguous records; the stall log must name every blocked wait of a
//! throttled run once; and the FIFO ablation must actually report its
//! stalls (the regression the profiler was built to catch).

use frugal::core::{FlushMode, FrugalConfig, FrugalEngine, PullToTarget, TrainReport};
use frugal::data::{KeyDistribution, SyntheticTrace};
use frugal::telemetry::{LedgerPhase, Telemetry};

const N_KEYS: u64 = 5_000;
const STEPS: u64 = 40;
const N_GPUS: usize = 3;

/// A 3-GPU run with two flushers. `throttle_us > 0` slows every flush
/// batch down, forcing a backlog and therefore real trainer stalls.
fn profiled_run(telemetry: &Telemetry, throttle_us: u64, fifo: bool) -> TrainReport {
    let trace = SyntheticTrace::new(N_KEYS, KeyDistribution::Zipf(0.9), 64, N_GPUS, 17).unwrap();
    let model = PullToTarget::new(8, 3);
    let mut cfg = FrugalConfig::commodity(N_GPUS, STEPS)
        .checked()
        .with_telemetry(telemetry.clone());
    if fifo {
        cfg.flush_mode = FlushMode::Fifo;
    }
    cfg.flush_threads = 2;
    cfg.cache_ratio = 0.02;
    cfg.flush_throttle_us = throttle_us;
    let engine = FrugalEngine::new(cfg, trace.n_keys(), 8);
    engine.run(&trace, &model)
}

#[test]
fn ledger_covers_every_step_balanced_and_contiguous() {
    let telemetry = Telemetry::new();
    profiled_run(&telemetry, 0, false);
    let ledger = telemetry.ledger_summary().expect("telemetry was on");

    // Every step of the run is retained (the window is far larger), and
    // the window is contiguous: steps [0, STEPS).
    assert_eq!(ledger.window, STEPS, "one ledger record per step");
    assert_eq!(ledger.first_step, 0);
    assert_eq!(ledger.last_step, STEPS - 1);
    assert_eq!(
        ledger.last_step - ledger.first_step + 1,
        ledger.window,
        "window must be contiguous"
    );

    // Balanced: every phase reports exactly one (possibly zero-valued)
    // sample per retained step — no phase over- or under-counts.
    for p in &ledger.phases {
        assert_eq!(
            p.steps,
            ledger.window,
            "phase {} must cover the whole window",
            p.phase.name()
        );
    }

    // The phases every trainer executes every step carry real time.
    for phase in [
        LedgerPhase::Sample,
        LedgerPhase::CacheQuery,
        LedgerPhase::Scatter,
        LedgerPhase::Compute,
        LedgerPhase::Deposit,
        LedgerPhase::BarrierA,
        LedgerPhase::Registration,
        LedgerPhase::BarrierC,
        LedgerPhase::LeaderApply,
    ] {
        let s = ledger.phase(phase).expect("phase present");
        assert!(s.total_ns > 0, "{} recorded no time", phase.name());
        assert!(
            s.max_ns >= s.p95_ns && s.p95_ns >= s.p50_ns,
            "percentiles ordered"
        );
    }
    // The flusher lanes recorded background work too.
    let fa = ledger.phase(LedgerPhase::FlushApply).expect("flush_apply");
    assert!(fa.total_ns > 0, "flushers applied batches");
}

#[test]
fn flow_events_pair_each_unblock_to_one_apply() {
    // Throttled flushers force a backlog, so trainers really block. The
    // stall log names every blocked wait once: a positive wait, blocked on
    // a priority the step had to wait for (P²F blocks step `s` only while
    // something at priority ≤ `s` is pending), and as many records (kept
    // or dropped at the cap) as the `p2f.stalls` counter counts.
    let telemetry = Telemetry::new();
    profiled_run(&telemetry, 200, false);
    let summary = telemetry.summary().expect("telemetry was on");
    let stalls = &summary.stalls;
    assert!(!stalls.is_empty(), "a throttled run must stall");
    for r in &stalls.records {
        assert!(r.wait_ns > 0, "step {}: a filed stall waited", r.step);
        assert!(
            r.blocking_priority <= r.step,
            "step {} blocked on priority {}",
            r.step,
            r.blocking_priority
        );
    }
    assert_eq!(
        summary.counter("p2f.stalls"),
        Some(stalls.len() as u64 + stalls.dropped)
    );
}

#[test]
fn fifo_ablation_measures_nonzero_stalls() {
    // FIFO's modeled stall prices every row written in a step — a count
    // taken at registration, so a flusher pool that drains the backlog
    // before the step ends cannot zero it. P²F's prices only the subset
    // the next step reads, so FIFO ≥ P²F holds step for step on the same
    // trace, with no flusher throttling to force it.
    let telemetry = Telemetry::off();
    let fifo = profiled_run(&telemetry, 0, true);
    let p2f = profiled_run(&telemetry, 0, false);
    assert!(
        fifo.stats.stall_percentile(0.95).as_nanos() > 0,
        "FIFO run must record nonzero modeled stalls"
    );
    for (f, p) in fifo.stats.iters().iter().zip(p2f.stats.iters()) {
        assert!(f.stall >= p.stall, "FIFO {} < P2F {}", f.stall, p.stall);
    }
    assert!(fifo.mean_stall() > p2f.mean_stall());
}
