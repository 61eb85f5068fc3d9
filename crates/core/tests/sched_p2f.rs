//! Schedule exploration of the P²F wait-condition path (DESIGN.md §8).
//!
//! Drives the real [`frugal_core::blocked_at`] wait condition against the
//! real g-entry store — its shard queue's top, and a flusher's
//! mark-then-claim ([`GEntryStore::mark_lowest`],
//! [`GEntryStore::claim_marked`]) — and a real [`InflightTable`] under the
//! deterministic scheduler, with a model flusher and a probing trainer:
//!
//! * **Race 2 (historical)** — the flusher claims a batch and applies it
//!   without ever publishing an in-flight marker. Once the entries leave
//!   the queue, its top no longer covers them and nothing else does: a
//!   trainer is admitted while the flush is still pending.
//! * **Race 3 (found by this harness)** — the flusher *does* publish a
//!   marker, but only *after* the claim returns. The window between
//!   extraction and publication is invisible to both halves of the wait
//!   condition.
//! * **Fixed** — the flusher raises its marker before anything leaves the
//!   queue, and lowers it before a lower bucket does; the sweep must be
//!   clean.
//!
//! The full `FrugalEngine` spawns its own uninstrumented OS threads, so
//! these tests exercise the extracted wait/marker machinery directly —
//! the exact code the engine's trainer and flusher loops call. Registrants
//! use the store's shard-queue forms, as the trainers do. Every yield point
//! of the store sits outside its shard locks, so claims, registrations and
//! probes race freely: no suspended thread ever holds a lock a runnable one
//! waits for. Each registrant's reads stay inside the key's read window: a
//! read that tightens a priority below a live read lies above a consumed
//! read that anchors the window.

#![cfg(feature = "sched")]

use frugal_core::{
    blocked_at, GEntryStore, InflightTable, PendingWrites, PriorityPolicy, ShardMap,
};
use frugal_embed::{FlushClaim, GradAggregator};
use frugal_pq::INFINITE;
use frugal_sched::{
    explore, replay, spin_point, yield_point, ExploreConfig, Policy, SimBuilder, SimConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Finite buckets of every scenario's store: wider than any priority used,
/// so no two share one.
const WINDOW: u64 = 16;

fn store(policy: PriorityPolicy) -> Arc<GEntryStore> {
    Arc::new(GEntryStore::with_queue(policy, WINDOW))
}

/// One row of one element.
fn row() -> Arc<[f32]> {
    Arc::from(vec![1.0f32].as_slice())
}

/// Queues `key`'s write of `step`.
fn write(gstore: &GEntryStore, key: u64, step: u64) {
    gstore.queue_writes(step, [(key, row())]);
}

/// A flusher's pass the engine's way, into `guard`: mark, then claim up to
/// `max` keys. Returns the claimed `(key, steps)`.
fn flush(gstore: &GEntryStore, guard: &AtomicU64, max: usize) -> Vec<(u64, Vec<u64>)> {
    let (mut writes, mut claims): (PendingWrites, Vec<FlushClaim>) = (Vec::new(), Vec::new());
    if gstore.mark_lowest(guard) {
        gstore.claim_marked(max, guard, &mut writes, &mut claims);
    }
    claims
        .iter()
        .map(|&(k, a, b)| (k, writes[a..b].iter().map(|&(s, _)| s).collect()))
        .collect()
}

/// Rows in a pass's claims.
fn rows(claimed: &[(u64, Vec<u64>)]) -> usize {
    claimed.iter().map(|(_, steps)| steps.len()).sum()
}

/// How the model flusher hands off claimed entries to the wait condition.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Historical race 2: no in-flight marker at all.
    NoMarker,
    /// Race 3: marker published only after the batch has left the queue.
    PublishAfter,
    /// Current code: marker raised before extraction.
    Guarded,
}

/// One pending write with priority 3; the trainer asks to start step 3.
/// Until the flusher has durably applied the write (`applied` flips true,
/// monotonically), `blocked_at(store, inflight, 3)` must hold in every
/// reachable interleaving.
fn flush_handoff(mode: Mode) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let gstore = store(PriorityPolicy::EarliestRead);
        gstore.queue_reads(3, &[9]);
        write(&gstore, 9, 0);
        let inflight = Arc::new(InflightTable::new(1));
        let applied = Arc::new(AtomicBool::new(false));

        {
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let applied = Arc::clone(&applied);
            sim.thread("flusher", move || {
                match mode {
                    Mode::Guarded => {
                        flush(&gstore, inflight.guard(0), 8);
                    }
                    Mode::NoMarker | Mode::PublishAfter => {
                        // A marker nobody reads.
                        let private = AtomicU64::new(INFINITE);
                        flush(&gstore, &private, 8);
                        if mode == Mode::PublishAfter {
                            // The claim-to-publish window: entries are out
                            // of the queue but no marker covers them.
                            yield_point("flusher.publish_gap");
                            let marker = private.load(Ordering::SeqCst);
                            inflight.guard(0).store(marker, Ordering::SeqCst);
                        }
                    }
                }
                yield_point("flusher.apply");
                applied.store(true, Ordering::SeqCst);
                inflight.clear(0);
            });
        }
        {
            let inflight = Arc::clone(&inflight);
            let applied = Arc::clone(&applied);
            sim.thread("trainer", move || {
                for _ in 0..6 {
                    let ok = !blocked_at(&gstore, &inflight, 3);
                    // `applied` only goes false→true, so if it is still
                    // false *after* the probe, it was false for the probe's
                    // whole duration — the flush was pending and step 3
                    // must have been refused.
                    if !applied.load(Ordering::SeqCst) {
                        assert!(!ok, "pending flush invisible to the wait condition");
                    }
                    yield_point("trainer.probe");
                }
            });
        }
    }
}

fn quiet(seeds: std::ops::Range<u64>) -> ExploreConfig {
    ExploreConfig {
        seeds,
        announce_failure: false,
        ..ExploreConfig::default()
    }
}

#[test]
fn race2_missing_marker_is_found_and_replays() {
    let cfg = quiet(0..1024);
    let outcome = explore(&cfg, flush_handoff(Mode::NoMarker));
    let failure = outcome
        .failure
        .expect("historical race 2 (no in-flight marker) must be found");
    assert!(failure.failures[0]
        .message
        .contains("pending flush invisible"));
    eprintln!("race 2 (missing marker): replay seed {}", failure.seed);
    let replayed = replay(failure.seed, &cfg.sim, flush_handoff(Mode::NoMarker));
    assert!(replayed.failed());
    assert_eq!(replayed.trace, failure.trace);
}

#[test]
fn race3_publish_after_claim_is_found_and_replays() {
    let cfg = quiet(0..1024);
    let outcome = explore(&cfg, flush_handoff(Mode::PublishAfter));
    let failure = outcome
        .failure
        .expect("race 3 (claim-to-publish window) must be found");
    assert!(failure.failures[0]
        .message
        .contains("pending flush invisible"));
    eprintln!("race 3 (publish-after-claim): replay seed {}", failure.seed);
    let replayed = replay(failure.seed, &cfg.sim, flush_handoff(Mode::PublishAfter));
    assert!(replayed.failed());
    assert_eq!(replayed.trace, failure.trace);
}

#[test]
fn marked_claim_survives_sweep() {
    let outcome = explore(&quiet(0..1024), flush_handoff(Mode::Guarded));
    assert!(
        !outcome.found_violation(),
        "a claim behind its marker must keep the wait condition sound: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

#[test]
fn marked_claim_with_two_pending_writes_survives_sweep() {
    // Same shape, two entries straddling the step, in one shard and in
    // two: the marker must cover the batch minimum, not just the first
    // bucket taken.
    for other in [11, 73] {
        let outcome = explore(&quiet(0..512), |sim| {
            let gstore = store(PriorityPolicy::EarliestRead);
            gstore.queue_reads(3, &[9]);
            gstore.queue_reads(2, &[other]);
            write(&gstore, 9, 0);
            write(&gstore, other, 0);
            let inflight = Arc::new(InflightTable::new(1));
            let applied = Arc::new(AtomicBool::new(false));
            {
                let gstore = Arc::clone(&gstore);
                let inflight = Arc::clone(&inflight);
                let applied = Arc::clone(&applied);
                sim.thread("flusher", move || {
                    assert_eq!(rows(&flush(&gstore, inflight.guard(0), 8)), 2);
                    yield_point("flusher.apply");
                    applied.store(true, Ordering::SeqCst);
                    inflight.clear(0);
                });
            }
            {
                let inflight = Arc::clone(&inflight);
                let applied = Arc::clone(&applied);
                sim.thread("trainer", move || {
                    for _ in 0..6 {
                        let ok = !blocked_at(&gstore, &inflight, 3);
                        if !applied.load(Ordering::SeqCst) {
                            assert!(!ok, "pending flush invisible to the wait condition");
                        }
                        yield_point("trainer.probe");
                    }
                });
            }
        });
        assert!(
            !outcome.found_violation(),
            "multi-entry claim must stay sound: {:?}",
            outcome.failure
        );
    }
}

/// A move into a bucket below the marker (key 7: ∞ → 2) between a
/// flusher's mark and its claim: the flusher marked at the lowest bucket it
/// saw (key 3's, priority 5), and must lower its marker before it takes
/// bucket 2. Once the move is registered, step 2 must stay blocked until
/// key 7's row is applied.
fn lower_bucket_during_claim() -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let gstore = store(PriorityPolicy::EarliestRead);
        gstore.queue_reads(5, &[3]);
        write(&gstore, 3, 0);
        write(&gstore, 7, 0); // deferred
        let inflight = Arc::new(InflightTable::new(1));
        let marked = Arc::new(AtomicBool::new(false));
        let reg_done = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicBool::new(false));
        {
            let gstore = Arc::clone(&gstore);
            let (marked, reg_done) = (Arc::clone(&marked), Arc::clone(&reg_done));
            sim.thread("registrant", move || {
                while !marked.load(Ordering::SeqCst) {
                    spin_point("registrant.await_mark");
                }
                gstore.queue_reads(2, &[7]);
                reg_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let (reg_done, applied) = (Arc::clone(&reg_done), Arc::clone(&applied));
            sim.thread("flusher", move || {
                let guard = inflight.guard(0);
                assert!(gstore.mark_lowest(guard));
                assert_eq!(guard.load(Ordering::SeqCst), 5);
                marked.store(true, Ordering::SeqCst);
                while !reg_done.load(Ordering::SeqCst) {
                    spin_point("flusher.await_move");
                }
                let (mut writes, mut claims) = (Vec::new(), Vec::new());
                gstore.claim_marked(8, guard, &mut writes, &mut claims);
                assert_eq!(writes.len(), 2);
                yield_point("flusher.apply");
                applied.store(true, Ordering::SeqCst);
                inflight.clear(0);
            });
        }
        {
            let inflight = Arc::clone(&inflight);
            sim.thread("trainer", move || {
                for _ in 0..12 {
                    if !reg_done.load(Ordering::SeqCst) {
                        yield_point("trainer.await_registration");
                        continue;
                    }
                    let ok = !blocked_at(&gstore, &inflight, 2);
                    if !applied.load(Ordering::SeqCst) {
                        assert!(!ok, "moved entry invisible to the wait condition");
                    }
                    yield_point("trainer.probe");
                }
            });
        }
    }
}

#[test]
fn a_bucket_filled_below_the_marker_survives_sweep() {
    let outcome = explore(&quiet(0..1024), lower_bucket_during_claim());
    assert!(
        !outcome.found_violation(),
        "a claim must lower its marker before it takes a lower bucket: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.budget_exceeded_runs, 0);
}

/// Claims vs. concurrent re-registration on one key (key 7).
///
/// * `deferred = false` — the entry starts at priority 3 with one pending
///   write; the registrant tightens it to 2 with a step-2 prefetch (a copy
///   pushed into bucket 2, the old one left in bucket 3), then the step-2
///   write moves it back to 3 with a second pending write (one more copy
///   in bucket 3). Exactly **2** rows may be applied. (The step-0 read the
///   first write consumed anchors the entry's read window at 0, below the
///   step-2 read.)
/// * `deferred = true` — the entry starts deferred (∞, no reads; paper
///   Fig 6, k1) and the registrant re-activates it to priority 4.
///   Exactly **1** row may be applied.
///
/// The flusher's passes race the registrant, one key a pass, so a pass can
/// land between any two of its steps and take a copy the re-registration
/// has abandoned. A stale copy must claim nothing; the entry's writes must
/// be applied exactly once.
fn reactivation_vs_take(deferred: bool) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let gstore = store(PriorityPolicy::EarliestRead);
        gstore.queue_reads(0, &[7]);
        if !deferred {
            // Priority 3: a step-3 read plus the step-0 write.
            gstore.queue_reads(3, &[7]);
        }
        write(&gstore, 7, 0);
        let expected = if deferred { 1 } else { 2 };
        let reg_done = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicUsize::new(0));

        {
            let gstore = Arc::clone(&gstore);
            let reg_done = Arc::clone(&reg_done);
            sim.thread("registrant", move || {
                if deferred {
                    // Re-activation of a deferred entry: ∞ → 4.
                    gstore.queue_reads(4, &[7]);
                } else {
                    // Tighten 3 → 2, then consume the read with the step-2
                    // write: back to 3, two pending writes.
                    gstore.queue_reads(2, &[7]);
                    write(&gstore, 7, 2);
                }
                reg_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let gstore = Arc::clone(&gstore);
            let applied = Arc::clone(&applied);
            sim.thread("flusher", move || {
                let guard = AtomicU64::new(INFINITE);
                for _ in 0..64 {
                    let claimed = flush(&gstore, &guard, 1);
                    applied.fetch_add(rows(&claimed), Ordering::SeqCst);
                    guard.store(INFINITE, Ordering::SeqCst);
                    if reg_done.load(Ordering::SeqCst) && gstore.pending_keys() == 0 {
                        return;
                    }
                    yield_point("flusher.drain");
                }
            });
        }
        sim.check("writes applied exactly once", move || {
            assert_eq!(
                applied.load(Ordering::SeqCst),
                expected,
                "stale claim double-applied, or the drain starved"
            );
            assert_eq!(gstore.pending_keys(), 0, "pending key survived the drain");
        });
    }
}

#[test]
fn claim_vs_reregistration_survives_sweep() {
    let outcome = explore(&quiet(0..1024), reactivation_vs_take(false));
    assert!(
        !outcome.found_violation(),
        "claims vs re-registration must apply exactly once: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

#[test]
fn claim_vs_infinite_reactivation_survives_sweep() {
    let outcome = explore(&quiet(0..1024), reactivation_vs_take(true));
    assert!(
        !outcome.found_violation(),
        "claims vs ∞ re-activation must apply exactly once: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

/// A claim against a registrant that re-positions one key of the shard
/// whose bucket it takes.
///
/// Keys 135, 7 and 71 share g-entry shard 7, each with one pending write:
/// 135 at priority 1, 7 and 71 at priority 3 (each write consumed a step-0
/// read, which anchors the read windows below the tightening read). While
/// the flusher's passes run — two keys a pass — the registrant tightens key
/// 7 to priority 2 and then registers its step-2 write (back to 3, two
/// pending writes); keys 135 and 71 are never touched. A pass takes the
/// shard's share of a bucket and claims it in one lock hold, each key
/// validated against its entry's priority at that moment: a copy the
/// registrant has moved away from claims nothing, its neighbours are
/// claimed all the same, and exactly 4 rows are applied, none twice.
/// `stale_passes` counts the passes that took a copy and claimed nothing
/// for it.
fn claim_vs_reposition(stale_passes: Arc<AtomicUsize>) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let gstore = store(PriorityPolicy::EarliestRead);
        let run = [135u64, 7, 71];
        gstore.queue_reads(0, &run);
        gstore.queue_reads(1, &[135]);
        gstore.queue_reads(3, &[7, 71]);
        gstore.queue_writes(0, run.iter().map(|&k| (k, row())));
        let reg_done = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(Mutex::new(Vec::new()));

        {
            let gstore = Arc::clone(&gstore);
            let reg_done = Arc::clone(&reg_done);
            sim.thread("registrant", move || {
                gstore.queue_reads(2, &[7]);
                write(&gstore, 7, 2);
                reg_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let (gstore, applied) = (Arc::clone(&gstore), Arc::clone(&applied));
            let stale_passes = Arc::clone(&stale_passes);
            sim.thread("flusher", move || {
                let guard = AtomicU64::new(INFINITE);
                while !reg_done.load(Ordering::SeqCst) || gstore.pending_keys() > 0 {
                    let (mut writes, mut claims) = (Vec::new(), Vec::new());
                    if !gstore.mark_lowest(&guard) {
                        spin_point("flusher.idle");
                        continue;
                    }
                    let taken = gstore.claim_marked(2, &guard, &mut writes, &mut claims);
                    if taken > claims.len() {
                        stale_passes.fetch_add(1, Ordering::Relaxed);
                    }
                    guard.store(INFINITE, Ordering::SeqCst);
                    let mut applied = applied.lock().unwrap();
                    for &(key, start, end) in &claims {
                        applied.extend(writes[start..end].iter().map(|&(step, _)| (key, step)));
                    }
                    drop(applied);
                    yield_point("flusher.drain");
                }
            });
        }
        sim.check("every write applied exactly once", move || {
            let mut applied = applied.lock().unwrap().clone();
            applied.sort_unstable();
            assert_eq!(
                applied,
                vec![(7, 0), (7, 2), (71, 0), (135, 0)],
                "a write was applied twice, or the drain starved"
            );
            assert_eq!(gstore.pending_keys(), 0, "pending key survived the drain");
        });
    }
}

#[test]
fn claim_vs_repositioned_shard_neighbour_survives_sweep() {
    for cfg in [pct(0..1024), quiet(0..1024)] {
        let stale_passes = Arc::new(AtomicUsize::new(0));
        let outcome = explore(&cfg, claim_vs_reposition(Arc::clone(&stale_passes)));
        assert!(
            outcome.failure.is_none(),
            "{:?}: a claim must skip exactly the stale copies of its bucket: {:?}",
            cfg.sim.policy,
            outcome.failure
        );
        assert_eq!(outcome.runs, 1024);
        assert_eq!(outcome.budget_exceeded_runs, 0);
        // The sweep reaches the lazy deletion: passes that took a moved
        // key's abandoned copy.
        let stale = stale_passes.load(Ordering::Relaxed);
        eprintln!("{:?}: {stale} passes took a stale copy", cfg.sim.policy);
        assert!(
            stale >= 256,
            "{:?}: only {stale} stale passes",
            cfg.sim.policy
        );
    }
}

#[test]
fn sharded_batch_registration_survives_sweep() {
    // The parallel-registration path end to end: a trainer registers one
    // shard's g-entry writes with `queue_writes` (keys 1 and 65 share shard
    // 1; key 2 lands in shard 2 and is registered in a second batch) while
    // a flusher drains with mark-then-claim passes and a probing trainer
    // evaluates the wait condition. Reads of step 3 are pre-registered, so
    // every write carries priority 3 — once registration is done (the
    // engine's barrier C orders it before the next wait condition), step 3
    // must stay blocked until all three rows are durably applied. The
    // flusher races both batches.
    let outcome = explore(&quiet(0..1024), |sim| {
        let gstore = store(PriorityPolicy::EarliestRead);
        // Sample-queue prefetch (build phase): step 3 reads all three keys.
        gstore.queue_reads(3, &[1, 65, 2]);
        let inflight = Arc::new(InflightTable::new(1));
        let reg_done = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicUsize::new(0));

        {
            let gstore = Arc::clone(&gstore);
            let reg_done = Arc::clone(&reg_done);
            sim.thread("registrant", move || {
                gstore.queue_writes(0, [(1, row()), (65, row())]);
                yield_point("registrant.between_batches");
                write(&gstore, 2, 0);
                reg_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let applied = Arc::clone(&applied);
            sim.thread("flusher", move || {
                for _ in 0..64 {
                    let claimed = flush(&gstore, inflight.guard(0), 8);
                    // "Apply to host memory": the marker may only clear
                    // after this point.
                    applied.fetch_add(rows(&claimed), Ordering::SeqCst);
                    inflight.clear(0);
                    if applied.load(Ordering::SeqCst) == 3 {
                        return;
                    }
                    yield_point("flusher.idle");
                }
            });
        }
        {
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let applied = Arc::clone(&applied);
            sim.thread("trainer", move || {
                for _ in 0..8 {
                    if !reg_done.load(Ordering::SeqCst) {
                        yield_point("trainer.await_registration");
                        continue;
                    }
                    let ok = !blocked_at(&gstore, &inflight, 3);
                    // Monotone: `applied` only grows, so a post-probe read
                    // of < 3 means rows were pending for the whole probe.
                    if applied.load(Ordering::SeqCst) < 3 {
                        assert!(!ok, "registered write invisible to the wait condition");
                    }
                    yield_point("trainer.probe");
                }
            });
        }
        sim.check("all rows drained", move || {
            assert_eq!(applied.load(Ordering::SeqCst), 3, "flusher starved");
            assert_eq!(gstore.pending_keys(), 0, "pending key survived the drain");
        });
    });
    assert!(
        !outcome.found_violation(),
        "sharded batch registration must keep the wait condition sound: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

#[test]
fn fifo_wait_condition_survives_sweep() {
    // The FIFO-ablation wait condition end to end: an arrival-order store
    // queues every write at its *write* step (reads never reposition
    // anything), and a step-`s` trainer evaluates
    // `blocked_at(store, inflight, s - 1)` — all writes issued before step
    // `s` must be durably applied first. Keys 1 and 65 (shard 1) register
    // at step 0 as one single-priority batch; key 2 (shard 2) follows at
    // step 1 and must NOT gate step 1. Until both step-0 rows are applied,
    // `blocked_at(_, _, 0)` must hold in every reachable interleaving.
    let outcome = explore(&quiet(0..1024), |sim| {
        let gstore = store(PriorityPolicy::ArrivalOrder);
        let inflight = Arc::new(InflightTable::new(1));
        let reg1_done = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicUsize::new(0));
        let applied_step0 = Arc::new(AtomicUsize::new(0));

        {
            let gstore = Arc::clone(&gstore);
            let reg1_done = Arc::clone(&reg1_done);
            sim.thread("registrant", move || {
                gstore.queue_writes(0, [(1, row()), (65, row())]);
                reg1_done.store(true, Ordering::SeqCst);
                yield_point("registrant.between_batches");
                write(&gstore, 2, 1);
            });
        }
        {
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let applied = Arc::clone(&applied);
            let applied_step0 = Arc::clone(&applied_step0);
            sim.thread("flusher", move || {
                for _ in 0..64 {
                    for (_, steps) in flush(&gstore, inflight.guard(0), 8) {
                        applied.fetch_add(1, Ordering::SeqCst);
                        if steps == [0] {
                            applied_step0.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    inflight.clear(0);
                    if applied.load(Ordering::SeqCst) == 3 {
                        return;
                    }
                    yield_point("flusher.idle");
                }
            });
        }
        {
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let reg1_done = Arc::clone(&reg1_done);
            let applied_step0 = Arc::clone(&applied_step0);
            sim.thread("trainer", move || {
                for _ in 0..8 {
                    if !reg1_done.load(Ordering::SeqCst) {
                        yield_point("trainer.await_registration");
                        continue;
                    }
                    let is_blocked = blocked_at(&gstore, &inflight, 0);
                    // Monotone: `applied_step0` only grows, so a post-probe
                    // read of < 2 means step-0 rows were pending for the
                    // probe's whole duration.
                    if applied_step0.load(Ordering::SeqCst) < 2 {
                        assert!(
                            is_blocked,
                            "pending step-0 write invisible to the FIFO wait"
                        );
                    }
                    yield_point("trainer.probe");
                }
            });
        }
        sim.check("all rows drained", move || {
            assert_eq!(applied.load(Ordering::SeqCst), 3, "flusher starved");
            assert_eq!(applied_step0.load(Ordering::SeqCst), 2);
            assert_eq!(gstore.pending_keys(), 0, "pending key survived the drain");
        });
    });
    assert!(
        !outcome.found_violation(),
        "arrival-order registration must keep the FIFO wait sound: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

#[test]
fn tightening_move_vs_claim_survives_sweep() {
    // A tightening move pushes the key into its new bucket and leaves the
    // old copy behind (lazy deletion), so a concurrent wait-condition
    // evaluation always finds the key at one position or the other. This
    // sweep drives the re-activation tightening — a step-2 prefetch
    // arrives for an entry queued at priority 5, whose read window a
    // consumed step-0 read anchors at 0 — against racing flusher passes,
    // which may take the abandoned copy at 5: the stale-claim check must
    // keep the row applied exactly once. A pass that claims the entry at 5
    // before the read lands is the deferred-claim shape (DESIGN §8 race 6):
    // as in the engine, each pass opens the read horizon (reads of step 2
    // are still to come until the registrant declares them done) before it
    // marks. The trainer probes once registration has settled, and from
    // then on `blocked_at(store, inflight, 2)` must hold until the row
    // lands.
    let outcome = explore(&quiet(0..1024), |sim| {
        let gstore = store(PriorityPolicy::EarliestRead);
        // Build phase: one pending write on key 7, earliest read step 5.
        gstore.queue_reads(0, &[7]);
        gstore.queue_reads(5, &[7]);
        write(&gstore, 7, 0);
        let inflight = Arc::new(InflightTable::new(1));
        inflight.set_read_horizon(2);
        let reg_done = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicUsize::new(0));

        {
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let reg_done = Arc::clone(&reg_done);
            sim.thread("registrant", move || {
                // Tighten 5 → 2: the move under test.
                gstore.queue_reads(2, &[7]);
                inflight.set_read_horizon(3);
                reg_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let reg_done = Arc::clone(&reg_done);
            let applied = Arc::clone(&applied);
            sim.thread("flusher", move || {
                for _ in 0..64 {
                    inflight.open(0);
                    let claimed = flush(&gstore, inflight.guard(0), 8);
                    yield_point("flusher.apply");
                    applied.fetch_add(rows(&claimed), Ordering::SeqCst);
                    inflight.clear(0);
                    if reg_done.load(Ordering::SeqCst) && gstore.pending_keys() == 0 {
                        return;
                    }
                    yield_point("flusher.drain");
                }
            });
        }
        {
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let reg_done = Arc::clone(&reg_done);
            let applied = Arc::clone(&applied);
            sim.thread("trainer", move || {
                for _ in 0..8 {
                    if !reg_done.load(Ordering::SeqCst) {
                        yield_point("trainer.await_registration");
                        continue;
                    }
                    let ok = !blocked_at(&gstore, &inflight, 2);
                    // After the tightening, the entry gates step 2; the
                    // monotone `applied` read makes the probe sound.
                    if applied.load(Ordering::SeqCst) == 0 {
                        assert!(!ok, "tightened entry invisible to the wait condition");
                    }
                    yield_point("trainer.probe");
                }
            });
        }
        sim.check("write applied exactly once", move || {
            assert_eq!(
                applied.load(Ordering::SeqCst),
                1,
                "stale claim double-applied, or the drain starved"
            );
            assert_eq!(gstore.pending_keys(), 0, "pending key survived the drain");
        });
    });
    assert!(
        !outcome.found_violation(),
        "a tightening move must keep the wait condition sound: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

/// Number of virtual trainers in the sharded-reduce hand-off sweeps.
const REDUCE_N: usize = 3;

/// Trainer `g`'s per-step gradient contributions: overlapping keys across
/// trainers (1, 2, 65, 130 — spanning several g-entry shards and owners)
/// plus one private key, two adds each, with values where f32 summation
/// order is observable. Mirrors the engine's per-GPU aggregators at
/// barrier A.
fn reduce_contribs(g: usize) -> Vec<(u64, [f32; 2])> {
    let mut out = Vec::new();
    for &key in &[1u64, 2, 65, 130, 200 + g as u64] {
        for i in 0..2u32 {
            let v = (g as f32 + 1.0) * 0.1 + key as f32 * 1e-4 + i as f32 * 1e-7;
            out.push((key, [v, -v * 0.5]));
        }
    }
    out
}

/// The epoch-0 ownership map for the reduce cohort — the same
/// rendezvous-hashed partition the engine snapshots per segment.
fn reduce_map() -> Arc<ShardMap> {
    ShardMap::initial(REDUCE_N, GEntryStore::n_shards())
}

/// The serial oracle: one leader folds every trainer's aggregator in
/// trainer-index order, then the merged rows are partitioned by
/// [`ShardMap::owner_of`]. Returns, per owner, the key-sorted
/// `(key, f32 bit patterns)` rows the decentralized reduce must reproduce
/// exactly.
fn reduce_oracle() -> Vec<Vec<(u64, Vec<u32>)>> {
    let mut leader = GradAggregator::new(2);
    for g in 0..REDUCE_N {
        let mut agg = GradAggregator::new(2);
        for (key, grad) in reduce_contribs(g) {
            agg.add(key, &grad);
        }
        leader.merge(agg);
    }
    let smap = reduce_map();
    let mut per_owner = vec![Vec::new(); REDUCE_N];
    for (key, grad) in leader.into_sorted() {
        let bits: Vec<u32> = grad.iter().map(|v| v.to_bits()).collect();
        per_owner[smap.owner_of(key)].push((key, bits));
    }
    per_owner
}

/// What follows the deposit in [`reduce_handoff`].
#[derive(Clone, Copy, PartialEq)]
enum Handoff {
    /// The broken hand-off: no barrier A between deposit and reduce.
    Unbarriered,
    /// Deposit → barrier A → reduce.
    Barriered,
    /// Deposit → barrier A → reduce → registration with nothing in between
    /// (the engine's step: there is no barrier B), a flusher claiming what
    /// the early members register while their siblings still fold the
    /// deposit slots.
    Registering,
}

/// The step the registering hand-off registers its writes at. Keys 1 and 65
/// are read at `REDUCE_STEP + 1` (registered before the threads start, as
/// the lookahead registration of an earlier step would have), so exactly
/// those two rows leave registration as blocking rows.
const REDUCE_STEP: u64 = 5;
const REDUCE_BLOCKING_ROWS: u64 = 2;

/// State of the registration half of [`Handoff::Registering`].
struct Registration {
    gstore: GEntryStore,
    /// Member `g`'s blocking rows, as the engine's member records them:
    /// written by that member alone, summed once every thread is done.
    read_next: [AtomicU64; REDUCE_N],
    /// `(key, f32 bits)` of every row the flusher applied, read *after* it
    /// held the row across a yield.
    applied: Mutex<Vec<(u64, Vec<u32>)>>,
}

/// The decentralized-reduce hand-off (DESIGN.md §16): every trainer
/// deposits its per-GPU aggregator into its slot, and — after barrier A —
/// reduces the keys it owns across *all* slots in trainer-index order.
///
/// * [`Handoff::Unbarriered`] models the broken hand-off: a trainer starts
///   its cross-slot shard read right after its own deposit. The explorer
///   must find an interleaving where a sibling's slot is still empty and
///   the merge loses that trainer's contribution.
/// * [`Handoff::Barriered`] models the engine's protocol up to the reduce
///   (deposit → barrier → reduce); the sweep must be bitwise-clean against
///   the serial oracle.
/// * [`Handoff::Registering`] runs on into the rest of the member-local
///   pass: drain the reduced rows into the member's update slot, register
///   them (the real [`GEntryStore::queue_writes`] into the store's shard
///   queue), record the member's blocking rows, then
///   drain a *next* step's rows over the same slot the way the next reduce
///   recycles it — while a flusher claims, holds and applies. Every row
///   must be applied exactly once with the oracle's bits (a recycled row
///   never overwrites one the flusher still holds) and the blocking-row
///   total must be exact.
///
/// Slot mutexes are locked only across yield-free critical sections, so a
/// scheduler-suspended vthread can never be holding one (the harness
/// counts only yield points).
fn reduce_handoff(handoff: Handoff) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let slots: Arc<Vec<Mutex<GradAggregator>>> = Arc::new(
            (0..REDUCE_N)
                .map(|_| Mutex::new(GradAggregator::new(2)))
                .collect(),
        );
        let arrived = Arc::new(AtomicUsize::new(0));
        let oracle = Arc::new(reduce_oracle());
        let smap = reduce_map();
        let reg = Arc::new(Registration {
            gstore: GEntryStore::with_queue(PriorityPolicy::EarliestRead, WINDOW),
            read_next: Default::default(),
            applied: Mutex::new(Vec::new()),
        });
        reg.gstore.queue_reads(REDUCE_STEP + 1, &[1, 65]);
        let total_rows: usize = oracle.iter().map(Vec::len).sum();

        for g in 0..REDUCE_N {
            let slots = Arc::clone(&slots);
            let arrived = Arc::clone(&arrived);
            let oracle = Arc::clone(&oracle);
            let smap = Arc::clone(&smap);
            let reg = Arc::clone(&reg);
            let name: &'static str = ["trainer-0", "trainer-1", "trainer-2"][g];
            sim.thread(name, move || {
                // Local accumulation (the step's backward pass).
                let mut agg = GradAggregator::new(2);
                for (key, grad) in reduce_contribs(g) {
                    agg.add(key, &grad);
                }
                yield_point("reduce.accumulated");
                // Deposit: swap the aggregator into this trainer's slot
                // (no yield inside the critical section).
                std::mem::swap(&mut *slots[g].lock().unwrap(), &mut agg);
                // Barrier A modeled as an arrival counter.
                arrived.fetch_add(1, Ordering::SeqCst);
                yield_point("reduce.deposited");
                if handoff != Handoff::Unbarriered {
                    for _ in 0..64 {
                        if arrived.load(Ordering::SeqCst) == REDUCE_N {
                            break;
                        }
                        spin_point("reduce.barrier_wait");
                    }
                    assert_eq!(arrived.load(Ordering::SeqCst), REDUCE_N, "barrier starved");
                }
                // Own-shard reduce across every slot, trainer-index order —
                // the canonical per-key summation order.
                let mut merged = GradAggregator::new(2);
                for slot in slots.iter() {
                    {
                        // Guard dropped before the yield below: a vthread
                        // suspended at a yield point must never hold a
                        // slot lock a runnable sibling could contend.
                        let deposited = slot.lock().unwrap();
                        for (key, grad) in deposited.entries() {
                            if smap.owns_key(g, key) {
                                merged.add(key, grad);
                            }
                        }
                    }
                    yield_point("reduce.slot_read");
                }
                let mut got: Vec<(u64, Vec<u32>)> = merged
                    .entries()
                    .map(|(k, v)| (k, v.iter().map(|x| x.to_bits()).collect()))
                    .collect();
                got.sort();
                assert_eq!(
                    got, oracle[g],
                    "owner {g}'s reduce diverged bitwise from the serial oracle"
                );
                if handoff != Handoff::Registering {
                    return;
                }

                // Straight on into registration: siblings may still be
                // folding. The update slot keeps its rows; the bucketed
                // copies go as soon as the W sets hold the rows.
                let mut update_slot = Vec::new();
                merged.drain_arcs(&mut update_slot);
                let mut bucketed = update_slot.clone();
                bucketed.sort_by_key(|&(key, _)| GEntryStore::shard_of(key));
                let read_next = reg.gstore.queue_writes(REDUCE_STEP, bucketed);
                reg.read_next[g].store(read_next, Ordering::SeqCst);
                yield_point("register.done");
                // The next step's reduce drains over the same slot: rows the
                // flusher has landed are overwritten in place, rows it still
                // holds must be replaced.
                for (key, _) in &got {
                    merged.add(*key, &[f32::NAN, f32::NAN]);
                }
                merged.drain_arcs(&mut update_slot);
            });
        }
        if handoff != Handoff::Registering {
            return;
        }

        {
            let reg = Arc::clone(&reg);
            sim.thread("flusher", move || {
                // The marker is not what this scenario checks.
                let guard = AtomicU64::new(INFINITE);
                let (mut writes, mut claims) = (Vec::new(), Vec::new());
                let mut n_applied = 0;
                while n_applied < total_rows {
                    if !reg.gstore.mark_lowest(&guard) {
                        spin_point("flusher.idle");
                        continue;
                    }
                    reg.gstore.claim_marked(2, &guard, &mut writes, &mut claims);
                    guard.store(INFINITE, Ordering::SeqCst);
                    // Claimed, not yet applied: the owner may be recycling
                    // its update slot right now.
                    yield_point("flusher.holding");
                    let mut applied = reg.applied.lock().unwrap();
                    for &(key, start, end) in &claims {
                        for (step, grad) in &writes[start..end] {
                            assert_eq!(*step, REDUCE_STEP);
                            applied.push((key, grad.iter().map(|x| x.to_bits()).collect()));
                        }
                        n_applied += end - start;
                    }
                    writes.clear();
                    claims.clear();
                }
            });
        }
        sim.check("every row applied once, blocking rows exact", move || {
            let mut applied = std::mem::take(&mut *reg.applied.lock().unwrap());
            applied.sort();
            let mut want: Vec<(u64, Vec<u32>)> = oracle.iter().flatten().cloned().collect();
            want.sort();
            assert_eq!(
                applied, want,
                "flushed rows diverged from the serial oracle (lost, doubled, or overwritten \
                 while held)"
            );
            assert_eq!(
                reg.gstore.pending_keys(),
                0,
                "pending key survived the drain"
            );
            assert_eq!(
                reg.read_next
                    .iter()
                    .map(|n| n.load(Ordering::SeqCst))
                    .sum::<u64>(),
                REDUCE_BLOCKING_ROWS,
                "blocking-row total is not exact"
            );
        });
    }
}

#[test]
fn unbarriered_reduce_handoff_is_found_and_replays() {
    let cfg = quiet(0..1024);
    let outcome = explore(&cfg, reduce_handoff(Handoff::Unbarriered));
    let failure = outcome
        .failure
        .expect("reduce without the deposit barrier must lose a sibling's contribution");
    assert!(failure.failures[0]
        .message
        .contains("diverged bitwise from the serial oracle"));
    eprintln!("unbarriered reduce hand-off: replay seed {}", failure.seed);
    let replayed = replay(failure.seed, &cfg.sim, reduce_handoff(Handoff::Unbarriered));
    assert!(replayed.failed());
    assert_eq!(replayed.trace, failure.trace);
}

#[test]
fn barriered_reduce_handoff_survives_sweep() {
    let outcome = explore(&quiet(0..1024), reduce_handoff(Handoff::Barriered));
    assert!(
        !outcome.found_violation(),
        "deposit → barrier → own-shard reduce must stay bitwise-identical \
         to the serial oracle: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

/// A deferred claim against a late read registration (DESIGN.md §8 race 6).
///
/// Key 9 has one pending write and no registered read: priority ∞. The
/// flusher claims it — rightly blocking no step at that moment — and is
/// then held up before the row lands. Meanwhile registration learns that
/// step 4 reads key 9; the W set is already empty, so nothing is queued,
/// and the claim's marker (`DEFERRED_CLAIM`) is above every step. With
/// `opened`, the flusher first publishes the read horizon (4: reads of
/// step 4 were still to come when it claimed), and step 4 waits for it.
///
/// The registration runs only after the claim returned: that is the order
/// under test (the other one re-activates the queued entry, see
/// [`reactivation_vs_take`]).
fn deferred_claim_vs_late_read(opened: bool) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let gstore = store(PriorityPolicy::EarliestRead);
        write(&gstore, 9, 2);
        let inflight = Arc::new(InflightTable::new(1));
        inflight.set_read_horizon(4);
        let claimed = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicBool::new(false));

        {
            let (gstore, inflight) = (Arc::clone(&gstore), Arc::clone(&inflight));
            let (claimed, applied) = (Arc::clone(&claimed), Arc::clone(&applied));
            sim.thread("flusher", move || {
                if opened {
                    inflight.open(0);
                }
                assert_eq!(flush(&gstore, inflight.guard(0), 8), vec![(9, vec![2])]);
                claimed.store(true, Ordering::SeqCst);
                yield_point("flusher.apply");
                applied.store(true, Ordering::SeqCst);
                inflight.clear(0);
            });
        }
        sim.thread("trainer", move || {
            while !claimed.load(Ordering::SeqCst) {
                spin_point("trainer.await_claim");
            }
            // Step 3's registration (lookahead 1): step 4 reads key 9.
            gstore.queue_reads(4, &[9]);
            yield_point("trainer.barrier_c");
            for _ in 0..4 {
                let ok = !blocked_at(&gstore, &inflight, 4);
                // `applied` only goes false→true: still false after the
                // probe means the row was in flight throughout it.
                if !applied.load(Ordering::SeqCst) {
                    assert!(!ok, "step 4 admitted over an unapplied row it reads");
                }
                yield_point("trainer.probe");
            }
        });
    }
}

#[test]
fn deferred_claim_without_horizon_is_found_and_replays() {
    let cfg = quiet(0..1024);
    let outcome = explore(&cfg, deferred_claim_vs_late_read(false));
    let failure = outcome
        .failure
        .expect("a deferred claim with no read horizon must admit a stale read");
    assert!(failure.failures[0]
        .message
        .contains("admitted over an unapplied row"));
    eprintln!("deferred claim vs late read: replay seed {}", failure.seed);
    let replayed = replay(failure.seed, &cfg.sim, deferred_claim_vs_late_read(false));
    assert!(replayed.failed());
    assert_eq!(replayed.trace, failure.trace);
}

#[test]
fn deferred_claim_behind_the_read_horizon_survives_sweep() {
    let outcome = explore(&quiet(0..1024), deferred_claim_vs_late_read(true));
    assert!(
        !outcome.found_violation(),
        "an opened batch must hold back the steps whose reads may hit it: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
    assert_eq!(outcome.budget_exceeded_runs, 0);
}

/// PCT over the registering hand-off: ~90 yield points a schedule, enough
/// depth to recycle a row under a flusher that still holds it.
fn pct(seeds: std::ops::Range<u64>) -> ExploreConfig {
    ExploreConfig {
        seeds,
        sim: SimConfig {
            max_steps: 4_000,
            policy: Policy::Pct {
                depth: 4,
                steps: 96,
            },
        },
        announce_failure: false,
    }
}

#[test]
fn early_registrant_handoff_survives_sweep() {
    // No barrier between reduce and registration: one member registers its
    // shards' writes (and the flusher claims them) while its siblings are
    // still folding the deposit slots.
    for cfg in [pct(0..1024), quiet(0..1024)] {
        let outcome = explore(&cfg, reduce_handoff(Handoff::Registering));
        assert!(
            outcome.failure.is_none(),
            "{:?}: reduce → registration without barrier B must keep reduced rows, flushed \
             rows and the blocking-row total exact: {:?}",
            cfg.sim.policy,
            outcome.failure
        );
        assert_eq!(outcome.runs, 1024);
        assert_eq!(
            outcome.budget_exceeded_runs, 0,
            "{:?}: the flusher never drained",
            cfg.sim.policy
        );
    }
}
