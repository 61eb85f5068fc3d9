//! Elastic-cohort consistency tests: epoch-versioned shard ownership must
//! never change the trained parameters.
//!
//! The contract: a membership change is a *placement* event, not a
//! *semantics* event. The engine drains to a quiescent point, re-homes
//! moved shards, and resumes, so elastic runs stay bit-identical to the
//! serial oracle; the covering array (`tests/config_space.rs`) checks that
//! across the configuration space. These tests check that transitions are
//! attributed in telemetry, and prove the quiesce protocol load-bearing by
//! skipping it and watching a stale survivor cache row poison the
//! parameters.

use frugal::core::{
    train_serial, FrugalConfig, FrugalEngine, GEntryStore, MembershipPlan, PullToTarget, ShardMap,
    READ_WINDOW,
};
use frugal::data::{KeyDistribution, SyntheticTrace};
use frugal::telemetry::json::{self, Json};
use frugal::telemetry::{LedgerPhase, Telemetry};

const N_KEYS: u64 = 600;
const DIM: usize = 8;
const STEPS: u64 = 20;

/// Segment boundaries used throughout: epochs cover steps [0,7), [7,13),
/// [13,20).
const SHRINK_STEP: u64 = 7;
const REGROW_STEP: u64 = 13;

fn trace(n_gpus: usize) -> SyntheticTrace {
    SyntheticTrace::new(N_KEYS, KeyDistribution::Zipf(0.9), 48, n_gpus, 77).unwrap()
}

fn frugal_cfg(n_gpus: usize) -> FrugalConfig {
    let mut cfg = FrugalConfig::commodity(n_gpus, STEPS);
    cfg.flush_threads = 3;
    cfg.lookahead = 6;
    cfg
}

/// 8 → 6 → 8: trainers 3 and 6 leave at `SHRINK_STEP` and rejoin at
/// `REGROW_STEP`.
fn shrink_regrow_plan() -> MembershipPlan {
    MembershipPlan::default()
        .change(SHRINK_STEP, vec![0, 1, 2, 4, 5, 7])
        .change(REGROW_STEP, (0..8).collect())
}

/// The transition shows up in telemetry: the `membership.transition_ns`
/// counter and the critical-path ledger's `epoch_transition` phase must
/// both record the two epoch changes, on the trace's one `run` track. Each
/// trainer keeps one track (and ledger lane) for the whole run, across its
/// leave and rejoin.
#[test]
fn transitions_are_attributed_in_telemetry() {
    let telemetry = Telemetry::new();
    let t = trace(8);
    let model = PullToTarget::new(DIM, 5);
    let mut cfg = frugal_cfg(8).with_telemetry(telemetry.clone());
    cfg.membership = shrink_regrow_plan();
    let engine = FrugalEngine::new(cfg, N_KEYS, DIM);
    let report = engine.run(&t, &model);
    let summary = report.telemetry.expect("telemetry on");
    let counter = summary
        .counter("membership.transition_ns")
        .expect("membership.transition_ns registered");
    assert_eq!(counter, report.membership_transition_ns);
    assert!(counter > 0);
    let ledger = summary.ledger.expect("ledger on");
    let phase = ledger
        .phase(LedgerPhase::EpochTransition)
        .expect("epoch_transition phase present");
    assert_eq!(
        phase.total_ns, counter,
        "ledger attributes the same nanoseconds the counter records"
    );
    let doc = json::parse(&telemetry.chrome_trace_json().unwrap()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    let field = |ev: &Json, k: &str| ev.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
    let tracks: Vec<(f64, String)> = events
        .iter()
        .filter(|ev| field(ev, "ph") == "M")
        .map(|ev| {
            let tid = ev.get("tid").and_then(Json::as_f64).unwrap();
            (tid, field(ev.get("args").unwrap(), "name"))
        })
        .collect();
    let named = |prefix: &str| tracks.iter().filter(|(_, n)| n.starts_with(prefix)).count();
    assert_eq!((named("trainer-"), named("run")), (8, 1), "{tracks:?}");
    let run_tid = tracks.iter().find(|(_, n)| n == "run").unwrap().0;
    let transitions = events
        .iter()
        .filter(|ev| field(ev, "ph") == "B" && field(ev, "name") == "epoch_transition")
        .map(|ev| ev.get("tid").and_then(Json::as_f64).unwrap())
        .collect::<Vec<_>>();
    assert_eq!(transitions, [run_tid, run_tid]);
    // Static runs must not pay (or report) any transition cost.
    let quiet = FrugalEngine::new(frugal_cfg(8), N_KEYS, DIM);
    let quiet_report = quiet.run(&t, &model);
    assert_eq!(quiet_report.membership_transition_ns, 0);
}

/// Proves the quiesce protocol is load-bearing. With `skip_quiesce`, the
/// new map is published without draining or evicting, so a survivor keeps a
/// cached row for a shard that left; while it is away the interim owner
/// keeps training it, and when the shard comes home the stale row resurfaces
/// and poisons the parameters.
///
/// The test first *computationally* verifies the divergence precondition
/// for this member set — some hot key's shard must leave its epoch-0 owner
/// and come back, and the key must be touched in every epoch — then runs
/// both variants: quiesced (must match serial) and unquiesced (must not).
#[test]
fn skipping_quiesce_breaks_elastic_consistency() {
    let t = trace(8);
    let model = PullToTarget::new(DIM, 5);
    // A generous cache: the default StaticHot policy admits keys below
    // `n_keys * ratio` and never evicts, so any displaced key in that band
    // is guaranteed to still sit (stale) in its old owner's cache when the
    // shard comes home.
    const CACHE_RATIO: f64 = 0.5;
    let cacheable = (N_KEYS as f64 * CACHE_RATIO).ceil() as u64;

    // Precondition: under maps m0 → m1 → m2 (m2 == m0 because placement is
    // a pure function of the member set), find keys whose shard is owned by
    // a *survivor* in epoch 0, moves to a different member in epoch 1, and
    // returns in epoch 2. Leavers don't qualify: their state is dropped at
    // the transition either way.
    let m0 = ShardMap::initial(8, GEntryStore::n_shards());
    let m1 = m0.with_members(&[0, 1, 2, 4, 5, 7]);
    let m2 = m1.with_members(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let displaced: Vec<u64> = (0..cacheable)
        .filter(|&k| {
            let before = m0.owner_of(k);
            m1.is_member(before) && m1.owner_of(k) != before && m2.owner_of(k) == before
        })
        .collect();
    assert!(
        !displaced.is_empty(),
        "member set must displace at least one cacheable survivor-owned key"
    );
    // ... and at least one displaced key must be hot enough to be touched
    // in every epoch (so it gets cached, updated while away, and re-read).
    fn seg_count(t: &SyntheticTrace, k: u64, lo: u64, hi: u64) -> usize {
        (lo..hi)
            .flat_map(|s| (0..8).flat_map(move |g| t.gpu_keys(s, g)))
            .filter(|&x| x == k)
            .count()
    }
    let hot = displaced
        .iter()
        .copied()
        .filter(|&k| {
            seg_count(&t, k, 0, SHRINK_STEP) > 0
                && seg_count(&t, k, SHRINK_STEP, REGROW_STEP) > 0
                && seg_count(&t, k, REGROW_STEP, STEPS) > 0
        })
        .count();
    assert!(
        hot > 0,
        "at least one displaced key must be touched in all three epochs"
    );

    // Control: the same schedule *with* the quiesce protocol is bit-exact.
    let reference = train_serial(&t, &model, STEPS, 0.1, 42);
    let mut clean_cfg = frugal_cfg(8);
    clean_cfg.membership = shrink_regrow_plan();
    clean_cfg.cache_ratio = CACHE_RATIO;
    let clean = FrugalEngine::new(clean_cfg, N_KEYS, DIM);
    clean.run(&t, &model);
    for k in 0..N_KEYS {
        assert_eq!(
            clean.store().row_vec(k),
            reference.store.row_vec(k),
            "quiesced control diverged from serial at key {k}"
        );
    }

    // Failure injection: identical schedule, quiesce skipped.
    let mut cfg = frugal_cfg(8);
    cfg.membership = shrink_regrow_plan();
    cfg.cache_ratio = CACHE_RATIO;
    cfg.skip_quiesce = true;
    let broken = FrugalEngine::new(cfg, N_KEYS, DIM);
    broken.run(&t, &model);
    let diverged = (0..N_KEYS).any(|k| broken.store().row_vec(k) != reference.store.row_vec(k));
    assert!(
        diverged,
        "skipping the quiesce protocol must corrupt the parameters \
         (stale survivor cache rows resurfacing on shard return)"
    );
}

/// The widest lookahead a g-entry's read window holds: a hot key's live
/// reads span all [`READ_WINDOW`] steps, its window slides each time its
/// earliest read is written, and each continuation segment re-registers a
/// whole window of reads. A checked 3 → {0, 2} → 3 run at that lookahead
/// must still train bit-identically to the serial oracle, with no
/// invariant violation.
#[test]
fn the_widest_lookahead_keeps_an_elastic_run_bit_identical() {
    const STEPS: u64 = 160;
    let t = trace(3);
    let model = PullToTarget::new(DIM, 5);
    let mut cfg = FrugalConfig::commodity(3, STEPS).checked();
    cfg.flush_threads = 2;
    cfg.lookahead = READ_WINDOW;
    cfg.membership = MembershipPlan::default()
        .change(70, vec![0, 2])
        .change(110, vec![0, 1, 2]);
    let reference = train_serial(&t, &model, STEPS, cfg.lr, cfg.seed);
    let engine = FrugalEngine::new(cfg, N_KEYS, DIM);
    let report = engine.run(&t, &model);
    assert_eq!((report.violations, report.races), (0, 0));
    assert_eq!(report.final_loss.to_bits(), reference.final_loss.to_bits());
    for k in 0..N_KEYS {
        assert_eq!(
            engine.store().row_vec(k),
            reference.store.row_vec(k),
            "key {k} diverged from serial"
        );
    }
}
