//! The modeled clock is a pure function of `(seed, config)`: everything in
//! `TrainReport::stats` and `mean_gentry_update` is priced from operation
//! counts, so a run whose flushers are throttled — different wall-clock
//! timings, different queue lengths, different interleavings — must report
//! the *same bits* as an unthrottled one.

use frugal::core::{FlushMode, FrugalConfig, FrugalEngine, PqKind, PullToTarget, TrainReport};
use frugal::data::{KeyDistribution, SyntheticTrace};
use frugal::sim::Nanos;

const N_KEYS: u64 = 5_000;
const STEPS: u64 = 24;
const N_GPUS: usize = 3;

fn run(mode: FlushMode, pq: PqKind, throttle_us: u64) -> TrainReport {
    run_wide(N_GPUS, mode, pq, throttle_us)
}

fn run_wide(n_gpus: usize, mode: FlushMode, pq: PqKind, throttle_us: u64) -> TrainReport {
    let trace = SyntheticTrace::new(N_KEYS, KeyDistribution::Zipf(0.9), 64, n_gpus, 17).unwrap();
    let model = PullToTarget::new(8, 3);
    let mut cfg = FrugalConfig::commodity(n_gpus, STEPS);
    cfg.flush_mode = mode;
    cfg.pq = pq;
    cfg.flush_threads = 2;
    cfg.cache_ratio = 0.02;
    cfg.flush_throttle_us = throttle_us;
    FrugalEngine::new(cfg, trace.n_keys(), 8).run(&trace, &model)
}

#[test]
fn modeled_numbers_are_bit_identical_under_flusher_throttling() {
    for mode in [FlushMode::P2f, FlushMode::Fifo, FlushMode::WriteThrough] {
        for pq in [PqKind::TwoLevel, PqKind::TreeHeap] {
            let fast = run(mode, pq, 0);
            let slow = run(mode, pq, 300);
            assert_eq!(fast.stats.len() as u64, STEPS);
            assert_eq!(
                fast.stats.iters(),
                slow.stats.iters(),
                "{mode:?}/{pq:?}: per-iteration breakdowns moved with flusher speed"
            );
            assert_eq!(
                fast.mean_gentry_update, slow.mean_gentry_update,
                "{mode:?}/{pq:?}: modeled registration time moved with flusher speed"
            );
            assert!(
                fast.mean_stall() > Nanos::ZERO,
                "{mode:?}/{pq:?} models a stall"
            );
            assert_eq!(
                fast.mean_gentry_update > Nanos::ZERO,
                mode.proactive(),
                "{mode:?}: g-entry time exactly when there are g-entries"
            );
        }
    }
}

/// Eight members reach registration at visibly different times — nothing
/// holds an early reducer back while its siblings still fold the deposit
/// slots — and the C-leader zeroes the blocking-row counter for the *next*
/// step's registrants. A count that leaked across a step boundary, or lost a
/// member's share, would move the stall bits with the interleaving; a slow
/// flusher pool changes the interleaving.
#[test]
fn eight_wide_modeled_numbers_are_bit_identical_under_flusher_throttling() {
    for mode in [FlushMode::P2f, FlushMode::Fifo, FlushMode::WriteThrough] {
        let fast = run_wide(8, mode, PqKind::TwoLevel, 0);
        let slow = run_wide(8, mode, PqKind::TwoLevel, 300);
        assert_eq!(fast.stats.len() as u64, STEPS);
        assert_eq!(
            fast.stats.iters(),
            slow.stats.iters(),
            "{mode:?}: per-iteration breakdowns moved with flusher speed at width 8"
        );
        assert_eq!(fast.mean_gentry_update, slow.mean_gentry_update);
        assert!(fast.mean_stall() > Nanos::ZERO, "{mode:?} models a stall");
    }
}

#[test]
fn fifo_blocks_on_at_least_the_rows_p2f_blocks_on() {
    // P²F's blocking rows (written at s, read at s + 1) are a subset of
    // FIFO's (everything written at s), and both are priced per row.
    let p2f = run(FlushMode::P2f, PqKind::TwoLevel, 0);
    let fifo = run(FlushMode::Fifo, PqKind::TwoLevel, 0);
    for (s, (p, f)) in p2f.stats.iters().iter().zip(fifo.stats.iters()).enumerate() {
        assert!(
            f.stall >= p.stall,
            "step {s}: fifo {} < p2f {}",
            f.stall,
            p.stall
        );
    }
    assert!(fifo.mean_stall() > p2f.mean_stall());
    // The tree heap's serialized O(log N) dequeues price every blocking
    // row higher than the two-level PQ's.
    let heap = run(FlushMode::P2f, PqKind::TreeHeap, 0);
    assert!(heap.mean_stall() > p2f.mean_stall());
    assert!(heap.mean_gentry_update > p2f.mean_gentry_update);
}
