//! The modeled clock is a pure function of `(seed, config)`: everything in
//! `TrainReport::stats` and `mean_gentry_update` is priced from operation
//! counts, and what the caches hold follows from the keys alone, so a run
//! whose flushers are throttled — different wall-clock timings, different
//! queue lengths, different interleavings — must report the *same bits* as
//! an unthrottled one.

use frugal::core::{
    walk_counts, FlushMode, FrugalConfig, FrugalEngine, MembershipPlan, ModeledRun, PqKind,
    PullToTarget, System, TrainReport,
};
use frugal::data::{KeyDistribution, SyntheticTrace};
use frugal::embed::CachePolicy;
use frugal::sim::{IterBreakdown, Nanos};
use frugal::telemetry::{LedgerPhase, Telemetry};

const N_KEYS: u64 = 5_000;
const STEPS: u64 = 24;
const N_GPUS: usize = 3;

fn run(mode: FlushMode, pq: PqKind, throttle_us: u64) -> TrainReport {
    run_wide(N_GPUS, mode, pq, None, throttle_us)
}

/// `policy`: the cache policy, or `None` for the configuration's default.
fn run_wide(
    n_gpus: usize,
    mode: FlushMode,
    pq: PqKind,
    policy: Option<CachePolicy>,
    throttle_us: u64,
) -> TrainReport {
    let trace = SyntheticTrace::new(N_KEYS, KeyDistribution::Zipf(0.9), 64, n_gpus, 17).unwrap();
    let model = PullToTarget::new(8, 3);
    let mut cfg = FrugalConfig::commodity(n_gpus, STEPS);
    cfg.flush_mode = mode;
    cfg.pq = pq;
    cfg.flush_threads = 2;
    cfg.cache_ratio = 0.02;
    cfg.flush_throttle_us = throttle_us;
    if let Some(policy) = policy {
        cfg.cache_policy = policy;
    }
    FrugalEngine::new(cfg, trace.n_keys(), 8).run(&trace, &model)
}

/// The cache is one more input: `freq` decides from the access counts it
/// has seen, and a trainer that stalls longer behind a slow flusher pool
/// must not fill (or hit) differently for it.
#[test]
fn modeled_numbers_are_bit_identical_under_flusher_throttling() {
    for (mode, policy) in [
        (FlushMode::P2f, None),
        (FlushMode::Fifo, None),
        (FlushMode::WriteThrough, None),
        (FlushMode::P2f, Some(CachePolicy::FrequencyAware)),
    ] {
        for pq in [PqKind::TwoLevel, PqKind::TreeHeap] {
            let case = format!(
                "{mode:?}/{pq:?}/{}",
                policy.map_or("default", |p| p.label())
            );
            let fast = run_wide(N_GPUS, mode, pq, policy, 0);
            let slow = run_wide(N_GPUS, mode, pq, policy, 300);
            assert_eq!(fast.stats.len() as u64, STEPS);
            assert_eq!(
                fast.stats.iters(),
                slow.stats.iters(),
                "{case}: per-iteration breakdowns moved with flusher speed"
            );
            assert_eq!(
                fast.mean_gentry_update, slow.mean_gentry_update,
                "{case}: modeled registration time moved with flusher speed"
            );
            assert_eq!(
                fast.hit_ratio.to_bits(),
                slow.hit_ratio.to_bits(),
                "{case}: hit ratio {} vs {} moved with flusher speed",
                fast.hit_ratio,
                slow.hit_ratio
            );
            assert_eq!(
                fast.cache_fills, slow.cache_fills,
                "{case}: cache fills moved with flusher speed"
            );
            assert!(fast.mean_stall() > Nanos::ZERO, "{case} models a stall");
            assert_eq!(
                fast.mean_gentry_update > Nanos::ZERO,
                mode.proactive(),
                "{case}: g-entry time exactly when there are g-entries"
            );
        }
    }
}

/// Eight members reach registration at visibly different times — nothing
/// holds an early reducer back while its siblings still fold the deposit
/// slots. Each member counts its own blocking rows into its own record and
/// the run is priced after join, so the stall bits cannot move with the
/// interleaving by construction; a slow flusher pool changes the
/// interleaving, and this checks the construction holds.
#[test]
fn eight_wide_modeled_numbers_are_bit_identical_under_flusher_throttling() {
    for mode in [FlushMode::P2f, FlushMode::Fifo, FlushMode::WriteThrough] {
        let fast = run_wide(8, mode, PqKind::TwoLevel, None, 0);
        let slow = run_wide(8, mode, PqKind::TwoLevel, None, 300);
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

/// One fixed workload — seed 7, dim 32, Zipf 0.9 — and what it must report.
/// Every pinned value is a pure function of `(seed, config)`: ten runs in a
/// row agree on all of them. The key-stream walk prices them (P²F and
/// FIFO), and one P²F engine run must count what the walk counts and report
/// its flushed rows. A change that legitimately moves a price, the
/// model or the cache's decisions edits these constants in the same commit
/// and says so.
struct Pinned {
    name: &'static str,
    n_gpus: usize,
    n_keys: u64,
    batch: usize,
    flush_threads: usize,
    steps: u64,
    cache_ratio: f64,
    /// One mid-run 8→6→8 membership transition: trainers 3 and 6 leave a
    /// third of the way in and rejoin at two thirds.
    elastic: bool,
    mean_gentry_ns: u64,
    p95_stall_ns: u64,
    fifo_p95_stall_ns: u64,
    /// Σ of every iteration's modeled total, under P²F and under FIFO.
    sum_total_ns: [u64; 2],
    /// Σ of every iteration's modeled `other`, under P²F and under FIFO:
    /// where each step's oversubscription charge lands, priced from that
    /// step's member count.
    sum_other_ns: [u64; 2],
    hit_ratio_bits: u64,
    cache_fills: u64,
    flush_rows: u64,
}

/// The paper's commodity testbed width.
const EIGHT: Pinned = Pinned {
    name: "8gpu",
    n_gpus: 8,
    n_keys: 40_000,
    batch: 1_024,
    flush_threads: 4,
    steps: 100,
    cache_ratio: 0.05,
    elastic: false,
    mean_gentry_ns: 76_345,
    p95_stall_ns: 32_999,
    fifo_p95_stall_ns: 109_148,
    sum_total_ns: [68_178_276, 75_790_180],
    sum_other_ns: [58_634_562, 58_634_562],
    hit_ratio_bits: 0x3fac_3dcf_0b53_6ba9, // 0.0552
    cache_fills: 1_998,
    flush_rows: 418_843,
};

const PINNED: [Pinned; 3] = [
    Pinned {
        name: "2gpu",
        n_gpus: 2,
        n_keys: 10_000,
        batch: 256,
        flush_threads: 2,
        steps: 200,
        // 2000 rows per GPU: the Zipf head fits, so the cache hits, fills
        // and rejects instead of always missing.
        cache_ratio: 0.20,
        elastic: false,
        mean_gentry_ns: 25_404,
        p95_stall_ns: 4_369,
        fifo_p95_stall_ns: 19_069,
        sum_total_ns: [115_387_202, 118_283_647],
        sum_other_ns: [107_080_803, 107_080_803],
        hit_ratio_bits: 0x3fd4_4c3f_acb3_2295, // 0.3172
        cache_fills: 1_994,
        flush_rows: 70_924,
    },
    EIGHT,
    // The same shape and stalls; the transitions re-register and refill.
    Pinned {
        name: "elastic",
        elastic: true,
        mean_gentry_ns: 85_092,
        sum_total_ns: [69_199_098, 76_811_002],
        sum_other_ns: [59_509_248, 59_509_248],
        hit_ratio_bits: 0x3fac_bff0_0b1f_86ce, // 0.0562
        cache_fills: 2_752,
        ..EIGHT
    },
];

impl Pinned {
    fn cfg(&self) -> FrugalConfig {
        let mut cfg = FrugalConfig::commodity(self.n_gpus, self.steps);
        cfg.flush_threads = self.flush_threads;
        cfg.cache_ratio = self.cache_ratio;
        cfg.seed = 7;
        if self.elastic {
            let shrink = self.steps / 3;
            cfg.membership = MembershipPlan::default()
                .change(shrink, vec![0, 1, 2, 4, 5, 7])
                .change(2 * shrink, (0..self.n_gpus).collect());
        }
        cfg
    }
}

#[test]
fn pinned_profiles_report_their_committed_numbers() {
    for p in &PINNED {
        let name = p.name;
        let trace = SyntheticTrace::new(p.n_keys, KeyDistribution::Zipf(0.9), p.batch, p.n_gpus, 7)
            .unwrap();
        let model = PullToTarget::new(32, 7);
        // The walk carries the pins; one engine run checks that its
        // members counted exactly what the walk decides.
        let walked = System::Frugal.price(p.cfg(), &trace, &model);
        let fifo = System::FrugalFifo.price(p.cfg(), &trace, &model);
        let telemetry = Telemetry::new();
        let cfg = p.cfg().with_telemetry(telemetry.clone());
        let (p2f, counts) = FrugalEngine::new(cfg, p.n_keys, 32).run_counted(&trace, &model);
        assert!(
            counts == walk_counts(&p.cfg(), &trace),
            "{name}: the engine's count records differ from the walk's"
        );
        assert_eq!(p2f.stats.iters(), walked.stats.iters(), "{name}");
        assert_eq!(p2f.violations, 0, "{name}");
        assert_eq!(p2f.flush_rows, p.flush_rows, "{name}: flushed rows");

        assert_eq!(walked.stats.len() as u64, p.steps, "{name}");
        assert_eq!(
            walked.mean_gentry_update.as_nanos(),
            p.mean_gentry_ns,
            "{name}: mean g-entry registration"
        );
        assert_eq!(
            walked.stats.stall_percentile(0.95).as_nanos(),
            p.p95_stall_ns,
            "{name}: p95 stall"
        );
        assert_eq!(
            fifo.stats.stall_percentile(0.95).as_nanos(),
            p.fifo_p95_stall_ns,
            "{name}: p95 stall under arrival-order flushing"
        );
        assert_eq!(
            walked.hit_ratio.to_bits(),
            p.hit_ratio_bits,
            "{name}: hit ratio {}",
            walked.hit_ratio
        );
        assert_eq!(walked.cache_fills, p.cache_fills, "{name}: cache fills");
        let sum = |r: &ModeledRun, f: fn(&IterBreakdown) -> Nanos| -> u64 {
            r.stats.iters().iter().map(|it| f(it).as_nanos()).sum()
        };
        assert_eq!(
            [
                sum(&walked, IterBreakdown::total),
                sum(&fifo, IterBreakdown::total)
            ],
            p.sum_total_ns,
            "{name}: Σ modeled iteration time (P²F, FIFO)"
        );
        assert_eq!(
            [sum(&walked, |it| it.other), sum(&fifo, |it| it.other)],
            p.sum_other_ns,
            "{name}: Σ modeled `other` time (P²F, FIFO)"
        );

        // Two clocked bounds; they catch a collapse, never drift.
        // `leader_apply` books the leader's merge and its apply. Mean a
        // step at width 8 on this 2-core host: 41–175 µs under `cargo test`
        // (the profile that gates; 8 runs, ≥ 5.7× under the bound), 24–62 µs
        // under `--profile ci-debug`, 28–30 µs in a release build — where
        // either half run serially on one member read 4–6 ms.
        let ledger = telemetry.ledger_summary().expect("telemetry was on");
        let leader_apply = ledger.phase(LedgerPhase::LeaderApply).expect("phase");
        assert!(
            leader_apply.mean_ns <= 1e6,
            "{name}: leader_apply mean {} ns a step",
            leader_apply.mean_ns
        );
        // Drain → re-home → resume, twice: 1.8–3.7 ms under `cargo test`
        // (≥ 27× under the bound), 0.22–0.34 ms under `ci-debug`; a drain that
        // spins or a cohort that fails to quiesce promptly takes far longer.
        let transition = p2f.membership_transition_ns;
        if p.elastic {
            assert!(
                (1..=100_000_000).contains(&transition),
                "{name}: transitions took {transition} ns"
            );
        } else {
            assert_eq!(transition, 0, "{name}: a static cohort has no transition");
        }
    }
}
