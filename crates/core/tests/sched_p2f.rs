//! Schedule exploration of the P²F wait-condition path (DESIGN.md §8).
//!
//! Drives the real [`frugal_core::blocked_at`] wait condition against a
//! real [`TwoLevelPq`] and [`InflightTable`] under the deterministic
//! scheduler, with a model flusher and a probing trainer:
//!
//! * **Race 2 (historical)** — the flusher dequeues a batch and applies it
//!   without ever publishing an in-flight marker. Once the entries leave
//!   the queue, `top_priority` no longer covers them and nothing else
//!   does: a trainer is admitted while the flush is still pending.
//! * **Race 3 (found by this harness)** — the flusher *does* publish a
//!   marker, but only *after* `dequeue_batch` returns. The window between
//!   extraction and publication is invisible to both halves of the wait
//!   condition.
//! * **Fixed** — [`PriorityQueue::dequeue_batch_guarded`] publishes the
//!   marker before each entry leaves the queue; the sweep must be clean.
//!
//! The full `FrugalEngine` spawns its own uninstrumented OS threads, so
//! these tests exercise the extracted wait/marker machinery directly —
//! the exact code the engine's trainer and flusher loops call. Registrants
//! use the g-entry store's batch forms, as the trainers do. Their yield
//! points sit inside the shard lock, so wherever a claim shares a shard
//! with a registrant the scheduler may suspend, the claim waits for the
//! registrant's `reg_done` (the engine's barrier C); collecting dequeues,
//! which touch only the queue, race it freely. Each registrant's reads
//! stay inside the key's read window: a read that tightens a priority
//! below a live read lies above a consumed read that anchors the window.

#![cfg(feature = "sched")]

use frugal_core::{blocked_at, GEntryStore, InflightTable, PqOpScratch, PriorityPolicy, ShardMap};
use frugal_embed::GradAggregator;
use frugal_pq::{PriorityQueue, TwoLevelPq, INFINITE};
use frugal_sched::{
    explore, replay, spin_point, yield_point, ExploreConfig, Policy, SimBuilder, SimConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How the model flusher hands off dequeued entries to the wait condition.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Historical race 2: no in-flight marker at all.
    NoMarker,
    /// Race 3: marker published only after the batch has left the queue.
    PublishAfter,
    /// Current code: guard published before extraction.
    Guarded,
}

/// One pending write with priority 3; the trainer asks to start step 3.
/// Until the flusher has durably applied the write (`applied` flips true,
/// monotonically), `blocked_at(pq, inflight, 3)` must hold in every
/// reachable interleaving.
fn flush_handoff(mode: Mode) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let pq = Arc::new(TwoLevelPq::new(16));
        pq.enqueue(9, 3);
        let inflight = Arc::new(InflightTable::new(1));
        let applied = Arc::new(AtomicBool::new(false));

        {
            let pq = Arc::clone(&pq);
            let inflight = Arc::clone(&inflight);
            let applied = Arc::clone(&applied);
            sim.thread("flusher", move || {
                let mut out = Vec::new();
                match mode {
                    Mode::Guarded => {
                        pq.dequeue_batch_guarded(8, &mut out, inflight.guard(0));
                    }
                    Mode::NoMarker | Mode::PublishAfter => {
                        pq.dequeue_batch(8, &mut out);
                        if mode == Mode::PublishAfter {
                            // The dequeue-to-publish window: entries are
                            // out of the queue but no marker covers them.
                            yield_point("flusher.publish_gap");
                            let min = out.iter().map(|&(_, p)| p).min().unwrap_or(INFINITE);
                            inflight.guard(0).store(min, Ordering::SeqCst);
                        }
                    }
                }
                yield_point("flusher.apply");
                applied.store(true, Ordering::SeqCst);
                inflight.clear(0);
            });
        }
        {
            let pq = Arc::clone(&pq);
            let inflight = Arc::clone(&inflight);
            let applied = Arc::clone(&applied);
            sim.thread("trainer", move || {
                for _ in 0..6 {
                    let ok = !blocked_at(pq.as_ref(), &inflight, 3);
                    // `applied` only ever goes false→true, so if it is
                    // still false *after* the probe, it was false for the
                    // probe's whole duration — the flush was pending and
                    // step 3 must have been refused.
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
fn race3_publish_after_dequeue_is_found_and_replays() {
    let cfg = quiet(0..1024);
    let outcome = explore(&cfg, flush_handoff(Mode::PublishAfter));
    let failure = outcome
        .failure
        .expect("race 3 (dequeue-to-publish window) must be found");
    assert!(failure.failures[0]
        .message
        .contains("pending flush invisible"));
    eprintln!(
        "race 3 (publish-after-dequeue): replay seed {}",
        failure.seed
    );
    let replayed = replay(failure.seed, &cfg.sim, flush_handoff(Mode::PublishAfter));
    assert!(replayed.failed());
    assert_eq!(replayed.trace, failure.trace);
}

#[test]
fn guarded_dequeue_survives_sweep() {
    let outcome = explore(&quiet(0..1024), flush_handoff(Mode::Guarded));
    assert!(
        !outcome.found_violation(),
        "guarded dequeue must keep the wait condition sound: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

#[test]
fn guarded_dequeue_with_two_pending_writes_survives_sweep() {
    // Same shape, two entries straddling the step: the guard must cover
    // the batch minimum, not just the first bucket scanned.
    let outcome = explore(&quiet(0..512), |sim| {
        let pq = Arc::new(TwoLevelPq::new(16));
        pq.enqueue(9, 3);
        pq.enqueue(11, 2);
        let inflight = Arc::new(InflightTable::new(1));
        let applied = Arc::new(AtomicBool::new(false));
        {
            let pq = Arc::clone(&pq);
            let inflight = Arc::clone(&inflight);
            let applied = Arc::clone(&applied);
            sim.thread("flusher", move || {
                let mut out = Vec::new();
                pq.dequeue_batch_guarded(8, &mut out, inflight.guard(0));
                yield_point("flusher.apply");
                applied.store(true, Ordering::SeqCst);
                inflight.clear(0);
            });
        }
        {
            let pq = Arc::clone(&pq);
            let inflight = Arc::clone(&inflight);
            let applied = Arc::clone(&applied);
            sim.thread("trainer", move || {
                for _ in 0..6 {
                    let ok = !blocked_at(pq.as_ref(), &inflight, 3);
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
        "multi-entry guarded dequeue must stay sound: {:?}",
        outcome.failure
    );
}

/// Take-writes vs. concurrent re-registration on one key (key 7).
///
/// * `deferred = false` — the entry starts at priority 3 with one pending
///   write; the registrant tightens it to 2 with a step-2 prefetch, then
///   the step-2 write moves it back to 3 with a second pending write.
///   Exactly **2** rows may be applied. (The step-0 read the first write
///   consumed anchors the entry's read window at 0, below the step-2
///   read.)
/// * `deferred = true` — the entry starts deferred (∞, no reads; paper
///   Fig 6, k1) and the registrant re-activates it to priority 4.
///   Exactly **1** row may be applied.
///
/// The flusher first collects pq-only dequeues *while the registrant
/// runs* — each collected `(key, priority)` pair can be a transient
/// position the re-registration already abandoned — and only claims them
/// with `take_writes_into` after `reg_done` (the engine's barrier-C
/// ordering; a same-shard claim against a registrant suspended inside the
/// store, which holds the shard lock at its yield points, would wedge the
/// harness, see `sharded_batch_registration_survives_sweep`). Stale claims
/// must return 0 rows; the entry's writes must be applied exactly once.
fn reactivation_vs_take(deferred: bool) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let pq: Arc<TwoLevelPq> = Arc::new(TwoLevelPq::new(16));
        let gstore = Arc::new(GEntryStore::new());
        let grad: Arc<[f32]> = Arc::from(vec![1.0f32].as_slice());
        let mut scratch = PqOpScratch::default();
        gstore.add_reads_batch(0, &[7], pq.as_ref(), &mut scratch);
        if !deferred {
            // Priority 3: a step-3 read plus the step-0 write.
            gstore.add_reads_batch(3, &[7], pq.as_ref(), &mut scratch);
        }
        gstore.add_writes_batch(0, &[(7, Arc::clone(&grad))], pq.as_ref(), &mut scratch);
        let expected = if deferred { 1 } else { 2 };
        let inflight = Arc::new(InflightTable::new(1));
        let reg_done = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicUsize::new(0));

        {
            let pq = Arc::clone(&pq);
            let gstore = Arc::clone(&gstore);
            let reg_done = Arc::clone(&reg_done);
            let grad = Arc::clone(&grad);
            sim.thread("registrant", move || {
                if deferred {
                    // Re-activation of a deferred entry: ∞ → 4.
                    gstore.add_reads_batch(4, &[7], pq.as_ref(), &mut scratch);
                } else {
                    // Tighten 3 → 2 (re-activation adjust), then consume
                    // the read with the step-2 write: back to 3, two
                    // pending writes.
                    gstore.add_reads_batch(2, &[7], pq.as_ref(), &mut scratch);
                    gstore.add_writes_batch(2, &[(7, grad)], pq.as_ref(), &mut scratch);
                }
                reg_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let pq = Arc::clone(&pq);
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let reg_done = Arc::clone(&reg_done);
            let applied = Arc::clone(&applied);
            sim.thread("flusher", move || {
                let mut claims: Vec<(u64, u64)> = Vec::new();
                let mut out = Vec::new();
                // Phase 1: dequeues racing the registrant (pq only — no
                // g-entry locks touched while the registrant may hold one).
                for _ in 0..3 {
                    out.clear();
                    pq.dequeue_batch_guarded(8, &mut out, inflight.guard(0));
                    inflight.clear(0);
                    claims.extend(out.iter().copied());
                    yield_point("flusher.collect");
                }
                // Phase 2: claim the collected (possibly stale) pairs once
                // registration has settled, then drain the rest.
                let mut writes = Vec::new();
                let mut claimed = false;
                for _ in 0..64 {
                    if !reg_done.load(Ordering::SeqCst) {
                        yield_point("flusher.await_registration");
                        continue;
                    }
                    if !claimed {
                        claimed = true;
                        for &(key, p) in &claims {
                            let n = gstore.take_writes_into(key, p, &mut writes);
                            applied.fetch_add(n, Ordering::SeqCst);
                        }
                    }
                    if gstore.pending_keys() == 0 {
                        return;
                    }
                    out.clear();
                    pq.dequeue_batch_guarded(8, &mut out, inflight.guard(0));
                    for &(key, p) in &out {
                        let n = gstore.take_writes_into(key, p, &mut writes);
                        applied.fetch_add(n, Ordering::SeqCst);
                    }
                    inflight.clear(0);
                    yield_point("flusher.drain");
                }
            });
        }
        let gstore = Arc::clone(&gstore);
        let applied = Arc::clone(&applied);
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
fn take_writes_vs_reregistration_survives_sweep() {
    let outcome = explore(&quiet(0..1024), reactivation_vs_take(false));
    assert!(
        !outcome.found_violation(),
        "take-writes vs re-registration must apply exactly once: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

#[test]
fn take_writes_vs_infinite_reactivation_survives_sweep() {
    let outcome = explore(&quiet(0..1024), reactivation_vs_take(true));
    assert!(
        !outcome.found_violation(),
        "take-writes vs ∞ re-activation must apply exactly once: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

/// A batched claim against a registrant that re-positions one key of the
/// claimed shard run.
///
/// Keys 135, 7 and 71 share g-entry shard 7, each with one pending write:
/// 135 at priority 1, 7 and 71 at priority 3 (each write consumed a step-0
/// read, which anchors the read windows below the tightening read). While
/// the flusher dequeues, the registrant tightens key 7 to priority 2 and
/// then registers its step-2 write (back to 3, two pending writes); keys
/// 135 and 71 are never touched. The flusher collects whatever `(key, priority)` pairs the
/// racing dequeues produced — for key 7 any of `(7, 3)` from before the
/// move, `(7, 2)` from during it, `(7, 3)` from after it — groups them by
/// shard as the engine's flusher does (arrival order inside the run, so
/// 135 leads: the run's keys are not in ascending order) and claims them
/// with **one** [`GEntryStore::take_writes_batch`]: one lock acquisition
/// for the whole run, every pair still validated against the entry's
/// priority at that moment. A pair the registrant has moved away from is
/// refused (the batch's in-flight marker was published for the priority
/// the pair names, not for where the entry went), its neighbours in the run
/// are claimed all the same, and exactly 4 rows are applied, none twice.
///
/// As in [`reactivation_vs_take`], claims wait for `reg_done`: a registrant
/// suspended inside the store holds the shard mutex. `unsorted_runs` counts
/// the claimed runs whose keys were not in ascending order.
fn batched_claim_vs_reposition(unsorted_runs: Arc<AtomicUsize>) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let pq: Arc<TwoLevelPq> = Arc::new(TwoLevelPq::new(16));
        let gstore = Arc::new(GEntryStore::new());
        let grad: Arc<[f32]> = Arc::from(vec![1.0f32].as_slice());
        let mut scratch = PqOpScratch::default();
        let run = [135u64, 7, 71];
        gstore.add_reads_batch(0, &run, pq.as_ref(), &mut scratch);
        gstore.add_reads_batch(1, &[135], pq.as_ref(), &mut scratch);
        gstore.add_reads_batch(3, &[7, 71], pq.as_ref(), &mut scratch);
        let rows: Vec<(u64, Arc<[f32]>)> = run.iter().map(|&k| (k, Arc::clone(&grad))).collect();
        gstore.add_writes_batch(0, &rows, pq.as_ref(), &mut scratch);
        let inflight = Arc::new(InflightTable::new(1));
        let reg_done = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(Mutex::new(Vec::new()));

        {
            let (pq, gstore) = (Arc::clone(&pq), Arc::clone(&gstore));
            let reg_done = Arc::clone(&reg_done);
            sim.thread("registrant", move || {
                gstore.add_reads_batch(2, &[7], pq.as_ref(), &mut scratch);
                gstore.add_writes_batch(2, &[(7, grad)], pq.as_ref(), &mut scratch);
                reg_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let (pq, gstore) = (Arc::clone(&pq), Arc::clone(&gstore));
            let (inflight, applied) = (Arc::clone(&inflight), Arc::clone(&applied));
            let unsorted_runs = Arc::clone(&unsorted_runs);
            sim.thread("flusher", move || {
                let mut batch: Vec<(u64, u64)> = Vec::new();
                let mut out = Vec::new();
                // Dequeues racing the registrant (queue only — no g-entry
                // lock is touched while the registrant may hold one).
                for _ in 0..3 {
                    out.clear();
                    pq.dequeue_batch_guarded(8, &mut out, inflight.guard(0));
                    inflight.clear(0);
                    batch.extend(out.iter().copied());
                    yield_point("flusher.collect");
                }
                while !reg_done.load(Ordering::SeqCst) {
                    spin_point("flusher.await_registration");
                }
                let (mut grouped, mut writes, mut claims) = (Vec::new(), Vec::new(), Vec::new());
                for _ in 0..8 {
                    // One shard run, possibly holding a stale pair of key 7
                    // next to the valid pairs of keys 135 and 71.
                    GEntryStore::group_by_shard(batch.iter().copied(), |&(k, _)| k, &mut grouped);
                    if grouped.windows(2).any(|w| w[0].0 > w[1].0) {
                        unsorted_runs.fetch_add(1, Ordering::Relaxed);
                    }
                    // Registration has settled, so each entry's priority is
                    // what it will be under the claim's lock: exactly the
                    // pairs that name it may be claimed, the first of them
                    // in the run (once per key).
                    let mut valid: Vec<u64> = Vec::new();
                    for &(k, p) in &grouped {
                        if gstore.has_pending_writes(k)
                            && gstore.priority_of(k) == Some(p)
                            && !valid.contains(&k)
                        {
                            valid.push(k);
                        }
                    }
                    gstore.take_writes_batch(&grouped, &mut writes, &mut claims);
                    let claimed: Vec<u64> = claims.iter().map(|&(k, ..)| k).collect();
                    assert_eq!(
                        claimed, valid,
                        "run {grouped:?}: a stale pair was claimed or a valid one refused"
                    );
                    let mut applied = applied.lock().unwrap();
                    for &(key, start, end) in &claims {
                        applied.extend(writes[start..end].iter().map(|&(step, _)| (key, step)));
                    }
                    if gstore.pending_keys() == 0 {
                        return;
                    }
                    drop(applied);
                    // Whatever the collect phase missed.
                    batch.clear();
                    writes.clear();
                    claims.clear();
                    pq.dequeue_batch_guarded(8, &mut batch, inflight.guard(0));
                    inflight.clear(0);
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
fn batched_claim_vs_repositioned_run_member_survives_sweep() {
    for cfg in [pct(0..1024), quiet(0..1024)] {
        let unsorted_runs = Arc::new(AtomicUsize::new(0));
        let outcome = explore(
            &cfg,
            batched_claim_vs_reposition(Arc::clone(&unsorted_runs)),
        );
        assert!(
            outcome.failure.is_none(),
            "{:?}: a batched claim must refuse exactly the stale pairs of its run: {:?}",
            cfg.sim.policy,
            outcome.failure
        );
        assert_eq!(outcome.runs, 1024);
        assert_eq!(outcome.budget_exceeded_runs, 0);
        // The counting pass keeps arrival order inside a run: most sweeps'
        // claims see 135 (priority 1, dequeued first) ahead of 7 and 71
        // (measured: 1 007 such runs under PCT, 1 024 under random).
        assert!(
            unsorted_runs.load(Ordering::Relaxed) >= 512,
            "{:?}: only {} runs out of ascending key order",
            cfg.sim.policy,
            unsorted_runs.load(Ordering::Relaxed)
        );
    }
}

#[test]
fn sharded_batch_registration_survives_sweep() {
    // The parallel-registration path end to end: a trainer registers one
    // shard's g-entry writes with `add_writes_batch` (keys 1 and 65 share
    // shard 1; key 2 lands in shard 2 and is registered in a second batch)
    // while a flusher drains with guarded dequeues + `take_writes_into` and
    // a probing trainer evaluates the wait condition. Reads of step 3 are
    // pre-registered, so every write carries priority 3 — until all three
    // rows are durably applied, step 3 must stay blocked.
    //
    // The flusher and prober gate on `reg1_done` (spun at a yield point):
    // the engine's barrier C orders registration before the next wait-
    // condition evaluation, and a scheduler-suspended registrant holding a
    // shard mutex must never be contended by a runnable thread (the
    // harness counts only yield points, so OS-mutex blocking on a
    // suspended vthread would wedge the controller). The second batch DOES
    // run concurrently with the drain — disjoint shard, so the only
    // shared state is the lock-free queue, exactly the engine's geometry.
    let outcome = explore(&quiet(0..1024), |sim| {
        let pq: Arc<TwoLevelPq> = Arc::new(TwoLevelPq::new(16));
        let gstore = Arc::new(GEntryStore::new());
        let grad: Arc<[f32]> = Arc::from(vec![1.0f32].as_slice());
        // Sample-queue prefetch (build phase): step 3 reads all three keys.
        gstore.add_reads_batch(3, &[1, 65, 2], pq.as_ref(), &mut PqOpScratch::default());
        let inflight = Arc::new(InflightTable::new(1));
        let reg1_done = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicUsize::new(0));

        {
            let pq = Arc::clone(&pq);
            let gstore = Arc::clone(&gstore);
            let reg1_done = Arc::clone(&reg1_done);
            let grad = Arc::clone(&grad);
            sim.thread("registrant", move || {
                let mut scratch = PqOpScratch::default();
                gstore.add_writes_batch(
                    0,
                    &[(1, Arc::clone(&grad)), (65, Arc::clone(&grad))],
                    pq.as_ref(),
                    &mut scratch,
                );
                reg1_done.store(true, Ordering::SeqCst);
                yield_point("registrant.between_batches");
                gstore.add_writes_batch(0, &[(2, Arc::clone(&grad))], pq.as_ref(), &mut scratch);
            });
        }
        {
            let pq = Arc::clone(&pq);
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let reg1_done = Arc::clone(&reg1_done);
            let applied = Arc::clone(&applied);
            sim.thread("flusher", move || {
                let (mut out, mut writes) = (Vec::new(), Vec::new());
                for _ in 0..64 {
                    if !reg1_done.load(Ordering::SeqCst) {
                        yield_point("flusher.await_registration");
                        continue;
                    }
                    out.clear();
                    pq.dequeue_batch_guarded(8, &mut out, inflight.guard(0));
                    for &(key, bucket_p) in &out {
                        if gstore.take_writes_into(key, bucket_p, &mut writes) > 0 {
                            // "Apply to host memory": the marker may only
                            // clear after this point.
                            applied.fetch_add(1, Ordering::SeqCst);
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
            let pq = Arc::clone(&pq);
            let inflight = Arc::clone(&inflight);
            let reg1_done = Arc::clone(&reg1_done);
            let applied = Arc::clone(&applied);
            sim.thread("trainer", move || {
                for _ in 0..8 {
                    if !reg1_done.load(Ordering::SeqCst) {
                        yield_point("trainer.await_registration");
                        continue;
                    }
                    let ok = !blocked_at(pq.as_ref(), &inflight, 3);
                    // Monotone: `applied` only grows, so a post-probe read
                    // of < 3 means rows were pending for the whole probe.
                    if applied.load(Ordering::SeqCst) < 3 {
                        assert!(!ok, "registered write invisible to the wait condition");
                    }
                    yield_point("trainer.probe");
                }
            });
        }
        let gstore = Arc::clone(&gstore);
        let applied = Arc::clone(&applied);
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
    // enqueues every write at its *write* step (reads never reposition
    // anything), and a step-`s` trainer evaluates
    // `blocked_at(pq, inflight, s - 1)` — all writes issued before step
    // `s` must be durably applied first. Keys 1 and 65 (shard 1) register
    // at step 0 as one single-priority batch; key 2 (shard 2) follows at
    // step 1 and must NOT gate step 1. Until both step-0 rows are applied,
    // `blocked_at(_, _, 0)` must hold in every reachable interleaving.
    let outcome = explore(&quiet(0..1024), |sim| {
        let pq: Arc<TwoLevelPq> = Arc::new(TwoLevelPq::new(16));
        let gstore = Arc::new(GEntryStore::with_policy(PriorityPolicy::ArrivalOrder));
        let grad: Arc<[f32]> = Arc::from(vec![1.0f32].as_slice());
        let inflight = Arc::new(InflightTable::new(1));
        let reg1_done = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicUsize::new(0));
        let applied_step0 = Arc::new(AtomicUsize::new(0));

        {
            let pq = Arc::clone(&pq);
            let gstore = Arc::clone(&gstore);
            let reg1_done = Arc::clone(&reg1_done);
            let grad = Arc::clone(&grad);
            sim.thread("registrant", move || {
                let mut scratch = PqOpScratch::default();
                gstore.add_writes_batch(
                    0,
                    &[(1, Arc::clone(&grad)), (65, Arc::clone(&grad))],
                    pq.as_ref(),
                    &mut scratch,
                );
                reg1_done.store(true, Ordering::SeqCst);
                yield_point("registrant.between_batches");
                gstore.add_writes_batch(1, &[(2, Arc::clone(&grad))], pq.as_ref(), &mut scratch);
            });
        }
        {
            let pq = Arc::clone(&pq);
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let reg1_done = Arc::clone(&reg1_done);
            let applied = Arc::clone(&applied);
            let applied_step0 = Arc::clone(&applied_step0);
            sim.thread("flusher", move || {
                let (mut out, mut writes) = (Vec::new(), Vec::new());
                for _ in 0..64 {
                    if !reg1_done.load(Ordering::SeqCst) {
                        yield_point("flusher.await_registration");
                        continue;
                    }
                    out.clear();
                    pq.dequeue_batch_guarded(8, &mut out, inflight.guard(0));
                    for &(key, bucket_p) in &out {
                        if gstore.take_writes_into(key, bucket_p, &mut writes) > 0 {
                            applied.fetch_add(1, Ordering::SeqCst);
                            if bucket_p == 0 {
                                applied_step0.fetch_add(1, Ordering::SeqCst);
                            }
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
            let pq = Arc::clone(&pq);
            let inflight = Arc::clone(&inflight);
            let reg1_done = Arc::clone(&reg1_done);
            let applied_step0 = Arc::clone(&applied_step0);
            sim.thread("trainer", move || {
                for _ in 0..8 {
                    if !reg1_done.load(Ordering::SeqCst) {
                        yield_point("trainer.await_registration");
                        continue;
                    }
                    let is_blocked = blocked_at(pq.as_ref() as &dyn PriorityQueue, &inflight, 0);
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
        let gstore = Arc::clone(&gstore);
        let applied = Arc::clone(&applied);
        let applied_step0 = Arc::clone(&applied_step0);
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
fn adjust_insert_before_delete_window_survives_sweep() {
    // ROADMAP open item: `PriorityQueue::adjust_batch` repositions an entry
    // by inserting the new priority *before* deleting the old one, so a
    // concurrent wait-condition evaluation always finds the key at one
    // position or the other (transiently both). This sweep drives the
    // re-activation tightening — a step-2 prefetch arrives for an entry
    // queued at priority 5, whose read window a consumed step-0 read
    // anchors at 0 — against a racing guarded dequeue, which may collect
    // the abandoned `(7, 5)` pair: the stale-claim check must keep the row
    // applied exactly once. The trainer probes only once registration has
    // settled (before the tightening, step 2 is rightly admitted), and from
    // then on `blocked_at(pq, inflight, 2)` must hold until the row lands.
    let outcome = explore(&quiet(0..1024), |sim| {
        let pq: Arc<TwoLevelPq> = Arc::new(TwoLevelPq::new(16));
        let gstore = Arc::new(GEntryStore::new());
        let grad: Arc<[f32]> = Arc::from(vec![1.0f32].as_slice());
        // Build phase: one pending write on key 7, earliest read step 5.
        let mut scratch = PqOpScratch::default();
        gstore.add_reads_batch(0, &[7], pq.as_ref(), &mut scratch);
        gstore.add_reads_batch(5, &[7], pq.as_ref(), &mut scratch);
        gstore.add_writes_batch(0, &[(7, grad)], pq.as_ref(), &mut scratch);
        let inflight = Arc::new(InflightTable::new(1));
        let reg_done = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicUsize::new(0));

        {
            let pq = Arc::clone(&pq);
            let gstore = Arc::clone(&gstore);
            let reg_done = Arc::clone(&reg_done);
            sim.thread("registrant", move || {
                // Tighten 5 → 2: the adjust under test.
                gstore.add_reads_batch(2, &[7], pq.as_ref(), &mut scratch);
                reg_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let pq = Arc::clone(&pq);
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let reg_done = Arc::clone(&reg_done);
            let applied = Arc::clone(&applied);
            sim.thread("flusher", move || {
                let mut claims: Vec<(u64, u64)> = Vec::new();
                let mut out = Vec::new();
                // One pq-only dequeue racing the adjust. The slot's marker
                // stays published until the collected claims are resolved
                // below, so anything extracted here remains covered by the
                // wait condition throughout (no g-entry locks are touched
                // while the registrant may hold one).
                pq.dequeue_batch_guarded(8, &mut out, inflight.guard(0));
                claims.extend(out.iter().copied());
                yield_point("flusher.collected");
                let mut writes = Vec::new();
                let mut claimed = false;
                for _ in 0..64 {
                    if !reg_done.load(Ordering::SeqCst) {
                        yield_point("flusher.await_registration");
                        continue;
                    }
                    if !claimed {
                        claimed = true;
                        for &(key, p) in &claims {
                            let n = gstore.take_writes_into(key, p, &mut writes);
                            applied.fetch_add(n, Ordering::SeqCst);
                        }
                        inflight.clear(0);
                    }
                    if gstore.pending_keys() == 0 {
                        return;
                    }
                    out.clear();
                    pq.dequeue_batch_guarded(8, &mut out, inflight.guard(0));
                    for &(key, p) in &out {
                        let n = gstore.take_writes_into(key, p, &mut writes);
                        applied.fetch_add(n, Ordering::SeqCst);
                    }
                    inflight.clear(0);
                    yield_point("flusher.drain");
                }
            });
        }
        {
            let pq = Arc::clone(&pq);
            let inflight = Arc::clone(&inflight);
            let reg_done = Arc::clone(&reg_done);
            let applied = Arc::clone(&applied);
            sim.thread("trainer", move || {
                for _ in 0..8 {
                    if !reg_done.load(Ordering::SeqCst) {
                        yield_point("trainer.await_registration");
                        continue;
                    }
                    let ok = !blocked_at(pq.as_ref(), &inflight, 2);
                    // After the tightening, the entry gates step 2; the
                    // monotone `applied` read makes the probe sound.
                    if applied.load(Ordering::SeqCst) == 0 {
                        assert!(!ok, "tightened entry invisible to the wait condition");
                    }
                    yield_point("trainer.probe");
                }
            });
        }
        let gstore = Arc::clone(&gstore);
        let applied = Arc::clone(&applied);
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
        "adjust insert-before-delete must keep the wait condition sound: {:?}",
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
    pq: TwoLevelPq,
    gstore: GEntryStore,
    /// Member `g`'s `add_writes_batch` has returned.
    registered: [AtomicBool; REDUCE_N],
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
///   them (real [`GEntryStore::add_writes_batch`] into a real
///   [`TwoLevelPq`]), record the member's blocking rows, then
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
            pq: TwoLevelPq::new(16),
            gstore: GEntryStore::with_policy(PriorityPolicy::EarliestRead),
            registered: Default::default(),
            read_next: Default::default(),
            applied: Mutex::new(Vec::new()),
        });
        reg.gstore.add_reads_batch(
            REDUCE_STEP + 1,
            &[1, 65],
            &reg.pq,
            &mut PqOpScratch::default(),
        );
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
                let read_next = reg.gstore.add_writes_batch(
                    REDUCE_STEP,
                    &bucketed,
                    &reg.pq,
                    &mut PqOpScratch::default(),
                );
                drop(bucketed);
                reg.registered[g].store(true, Ordering::SeqCst);
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
            let smap = Arc::clone(&smap);
            sim.thread("flusher", move || {
                // Dequeued `(key, bucket priority)` pairs not yet claimed.
                let mut pending = Vec::new();
                let mut writes = Vec::new();
                let mut n_applied = 0;
                while n_applied < total_rows {
                    reg.pq.dequeue_batch(2, &mut pending);
                    // Dequeue any time, but claim only from a member whose
                    // registration has returned: a registrant suspended
                    // inside `add_writes_batch` holds its shard's mutex, and
                    // OS-blocking on it would wedge the harness. Members
                    // own whole shards, so a finished one's are free.
                    let ready = pending.iter().position(|&(key, _)| {
                        reg.registered[smap.owner_of(key)].load(Ordering::SeqCst)
                    });
                    let Some(i) = ready else {
                        spin_point("flusher.idle");
                        continue;
                    };
                    let (key, bucket_p) = pending.swap_remove(i);
                    let n = reg.gstore.take_writes_into(key, bucket_p, &mut writes);
                    // Claimed, not yet applied: the owner may be recycling
                    // its update slot right now.
                    yield_point("flusher.holding");
                    let mut applied = reg.applied.lock().unwrap();
                    for (step, grad) in writes.drain(..) {
                        assert_eq!(step, REDUCE_STEP);
                        applied.push((key, grad.iter().map(|x| x.to_bits()).collect()));
                    }
                    n_applied += n;
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
/// step 4 reads key 9; the W set is already empty, so nothing moves in the
/// queue, and the claim's marker (`DEFERRED_CLAIM`) is above every step.
/// With `opened`, the flusher first publishes the read horizon (4: reads of
/// step 4 were still to come when it dequeued), and step 4 waits for it.
///
/// The registration runs only after the claim returned: that is the order
/// under test (the other one re-activates the queued entry, see
/// [`reactivation_vs_take`]), and a registrant contending the shard mutex of
/// a suspended claimant would wedge the harness.
fn deferred_claim_vs_late_read(opened: bool) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let pq: Arc<TwoLevelPq> = Arc::new(TwoLevelPq::new(16));
        let gstore = Arc::new(GEntryStore::new());
        let mut scratch = PqOpScratch::default();
        let row: Arc<[f32]> = Arc::from(vec![1.0f32].as_slice());
        gstore.add_writes_batch(2, &[(9, row)], pq.as_ref(), &mut scratch);
        let inflight = Arc::new(InflightTable::new(1));
        inflight.set_read_horizon(4);
        let claimed = Arc::new(AtomicBool::new(false));
        let applied = Arc::new(AtomicBool::new(false));

        {
            let (pq, gstore, inflight) =
                (Arc::clone(&pq), Arc::clone(&gstore), Arc::clone(&inflight));
            let (claimed, applied) = (Arc::clone(&claimed), Arc::clone(&applied));
            sim.thread("flusher", move || {
                if opened {
                    inflight.open(0);
                }
                let mut out = Vec::new();
                pq.dequeue_batch_guarded(8, &mut out, inflight.guard(0));
                assert_eq!(out, vec![(9, INFINITE)]);
                let mut writes = Vec::new();
                assert_eq!(gstore.take_writes_into(9, INFINITE, &mut writes), 1);
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
            gstore.add_reads_batch(4, &[9], pq.as_ref(), &mut scratch);
            yield_point("trainer.barrier_c");
            for _ in 0..4 {
                let ok = !blocked_at(pq.as_ref(), &inflight, 4);
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
