//! Deterministic schedule exploration of the PQ concurrency core
//! (`cargo test -p frugal-pq --features sched --test sched_explore`).
//!
//! Each race has two tests: with the historical code re-enabled behind its
//! test-only flag, the explorer must *find* the violating interleaving and
//! *replay* it from the recorded seed; with the current code, a full
//! seed sweep must report zero violations. The sweeps are seeded and the
//! scheduler is deterministic, so these tests have no flake surface: one
//! seed names one interleaving, forever.

#![cfg(feature = "sched")]

use frugal_pq::{LockFreeSet, PriorityQueue, TwoLevelPq, INFINITE};
use frugal_sched::{explore, replay, yield_point, ExploreConfig, Policy, SimBuilder, SimConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn quiet(seeds: std::ops::Range<u64>) -> ExploreConfig {
    ExploreConfig {
        seeds,
        sim: SimConfig::default(),
        announce_failure: false,
    }
}

// ---------------------------------------------------------------------------
// Race: LockFreeSet publish window (insert published the slot before
// counting it, so a key could be visible while `is_empty()` said empty).

fn publish_window_scenario(buggy: bool) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let set = Arc::new(LockFreeSet::new());
        set.set_bug_publish_window(buggy);
        {
            let set = Arc::clone(&set);
            sim.thread("writer", move || set.insert(5));
        }
        {
            let set = Arc::clone(&set);
            sim.thread("reader", move || {
                for _ in 0..4 {
                    // Invariant: a findable key is always counted. The P²F
                    // wait condition treats an empty bucket as "no pending
                    // flush at this priority", so the opposite ordering
                    // admits a step with a pending write.
                    if set.contains(5) {
                        assert!(!set.is_empty(), "key visible but set reports empty");
                    }
                    yield_point("reader.probe");
                }
            });
        }
    }
}

#[test]
fn lfs_publish_window_race_is_found_and_replays() {
    let cfg = quiet(0..1024);
    let outcome = explore(&cfg, publish_window_scenario(true));
    let failure = outcome
        .failure
        .expect("historical publish-window race must be found");
    assert!(failure.failures[0]
        .message
        .contains("key visible but set reports empty"));

    eprintln!("publish-window race: replay seed {}", failure.seed);
    let replayed = replay(failure.seed, &cfg.sim, publish_window_scenario(true));
    assert!(replayed.failed(), "seed {} must replay", failure.seed);
    assert_eq!(replayed.trace, failure.trace);
}

#[test]
fn lfs_count_before_publish_survives_sweep() {
    let outcome = explore(&quiet(0..1024), publish_window_scenario(false));
    assert!(
        outcome.failure.is_none(),
        "count-before-publish order must be race-free: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

// ---------------------------------------------------------------------------
// Race: scan-raise (DESIGN.md §8 race 1). A scanner raising the lower
// bound over a prefix it proved empty can hide an entry inserted into that
// prefix mid-scan. Fix: a fence-paired verification rescan of the skipped
// range after every successful raise (the insert fast path stays a pure
// load — see `TwoLevelPq::note_insert`).

fn scan_raise_scenario(buggy: bool) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let pq = Arc::new(TwoLevelPq::new(8));
        pq.set_bug_scan_raise(buggy);
        // Pre-seeded entry at priority 3 gives the scanner a reason to
        // raise the bound over 0..3 (build phase: not yet scheduled).
        pq.enqueue(100, 3);
        {
            let pq = Arc::clone(&pq);
            sim.thread("scanner", move || {
                pq.top_priority();
            });
        }
        {
            let pq = Arc::clone(&pq);
            sim.thread("inserter", move || pq.enqueue(200, 1));
        }
        let pq = Arc::clone(&pq);
        sim.check("bound is conservative", move || {
            // Both enqueues have returned; the smallest live priority is 1.
            // top_priority must never exceed it (it is exactly what the
            // P²F wait condition compares against the step number).
            let top = pq.top_priority();
            assert!(top <= 1, "scan-raise hid a pending entry: top = {top}");
        });
    }
}

#[test]
fn scan_raise_race_is_found_and_replays() {
    let cfg = quiet(0..4096);
    let outcome = explore(&cfg, scan_raise_scenario(true));
    let failure = outcome
        .failure
        .expect("historical scan-raise race must be found");
    assert!(failure.failures[0]
        .message
        .contains("scan-raise hid a pending entry"));

    eprintln!("scan-raise race: replay seed {}", failure.seed);
    let replayed = replay(failure.seed, &cfg.sim, scan_raise_scenario(true));
    assert!(replayed.failed(), "seed {} must replay", failure.seed);
    assert_eq!(replayed.trace, failure.trace);
}

#[test]
fn rescan_verified_raise_survives_sweep() {
    let outcome = explore(&quiet(0..1024), scan_raise_scenario(false));
    assert!(
        outcome.failure.is_none(),
        "rescan-verified raise must be race-free: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

// ---------------------------------------------------------------------------
// Race: dequeue-to-publish window (found by this harness). Between an
// entry leaving the queue and the flusher publishing its in-flight
// marker, the entry is covered by neither `top_priority` nor the marker.
// Fix: `dequeue_batch_guarded` publishes into the guard *before*
// extraction.

fn dequeue_publish_scenario(guarded: bool) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        let pq = Arc::new(TwoLevelPq::new(8));
        pq.enqueue(9, 3);
        let guard = Arc::new(AtomicU64::new(INFINITE));
        let applied = Arc::new(AtomicBool::new(false));
        {
            let pq = Arc::clone(&pq);
            let guard = Arc::clone(&guard);
            let applied = Arc::clone(&applied);
            sim.thread("flusher", move || {
                let mut out = Vec::new();
                if guarded {
                    pq.dequeue_batch_guarded(4, &mut out, &guard);
                } else {
                    // The historical engine ordering: extract first,
                    // publish the marker after.
                    pq.dequeue_batch(4, &mut out);
                    yield_point("flusher.publish_gap");
                    let min = out.iter().map(|&(_, p)| p).min().unwrap_or(INFINITE);
                    guard.store(min, Ordering::SeqCst);
                }
                yield_point("flusher.apply");
                applied.store(true, Ordering::SeqCst);
                guard.store(INFINITE, Ordering::SeqCst);
            });
        }
        {
            let pq = Arc::clone(&pq);
            let guard = Arc::clone(&guard);
            let applied = Arc::clone(&applied);
            sim.thread("trainer", move || {
                for _ in 0..6 {
                    // The P²F wait condition: step s may proceed iff
                    // top > s and no in-flight marker ≤ s. Until the
                    // flush of the priority-3 entry is applied, step 3
                    // must stay blocked — i.e. covered by one of the two.
                    let covered = pq.top_priority().min(guard.load(Ordering::SeqCst));
                    if !applied.load(Ordering::SeqCst) {
                        assert!(
                            covered <= 3,
                            "pending flush invisible to the wait condition"
                        );
                    }
                    yield_point("trainer.recheck");
                }
            });
        }
    }
}

#[test]
fn dequeue_publish_race_is_found_and_replays() {
    let cfg = quiet(0..1024);
    let outcome = explore(&cfg, dequeue_publish_scenario(false));
    let failure = outcome
        .failure
        .expect("dequeue-to-publish race must be found");
    assert!(failure.failures[0]
        .message
        .contains("pending flush invisible"));

    eprintln!("dequeue-to-publish race: replay seed {}", failure.seed);
    let replayed = replay(failure.seed, &cfg.sim, dequeue_publish_scenario(false));
    assert!(replayed.failed(), "seed {} must replay", failure.seed);
    assert_eq!(replayed.trace, failure.trace);
}

#[test]
fn guarded_dequeue_survives_sweep() {
    let outcome = explore(&quiet(0..1024), dequeue_publish_scenario(true));
    assert!(
        outcome.failure.is_none(),
        "guarded dequeue must leave no window: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

// ---------------------------------------------------------------------------
// Batch registration (the sharded-registration engine path). Two hazards:
//
// * `enqueue_batch` defers the bound update to one `note_insert(min)` after
//   all physical inserts, so a concurrent `top_priority` scan may raise the
//   bound *over* an already-inserted entry mid-batch. The engine publishes
//   the batch before the wait condition runs (barrier C), so the contract
//   is conservativeness *after the batch returns* — swept here with a
//   scanner racing the batch at every interior yield point.
// * `adjust_batch` moves entries between set-semantics buckets; insert-new
//   happens before delete-old per key, and old == new moves must be
//   skipped outright (inserting into the bucket the entry already occupies
//   is a no-op, so the delete would drop the only copy).

#[test]
fn enqueue_batch_stays_conservative_under_concurrent_raise() {
    let outcome = explore(&quiet(0..2048), |sim| {
        let pq = Arc::new(TwoLevelPq::new(8));
        // A pre-seeded high entry gives the scanner a reason to raise the
        // bound over the low prefix mid-batch.
        pq.enqueue(900, 5);
        {
            let pq = Arc::clone(&pq);
            // Keys 1 and 65 collide in a gstore shard upstream; here they
            // are simply two entries whose bound update is deferred.
            sim.thread("registrant", move || {
                pq.enqueue_batch(&[(1, 2), (65, 4), (2, 2)]);
            });
        }
        {
            let pq = Arc::clone(&pq);
            sim.thread("scanner", move || {
                for _ in 0..3 {
                    pq.top_priority();
                    yield_point("scanner.between");
                }
            });
        }
        let pq = Arc::clone(&pq);
        sim.check("bound conservative once batch returns", move || {
            let top = pq.top_priority();
            assert!(
                top <= 2,
                "enqueue_batch left the bound above its min: top = {top}"
            );
        });
    });
    assert!(
        outcome.failure.is_none(),
        "deferred note_insert must stay conservative: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 2048);
}

#[test]
fn adjust_batch_loses_no_entries_under_concurrent_drain() {
    let outcome = explore(&quiet(0..2048), |sim| {
        let pq = Arc::new(TwoLevelPq::new(16));
        pq.enqueue(1, 3);
        pq.enqueue(65, 3);
        pq.enqueue(2, 6);
        let drained = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let guard = Arc::new(AtomicU64::new(INFINITE));
        {
            let pq = Arc::clone(&pq);
            // One real move out of a shared bucket, one no-op move (the
            // would-drop case), one move into the scanned range.
            sim.thread("registrant", move || {
                pq.adjust_batch(&[(1, 3, 5), (65, 3, 3), (2, 6, 4)]);
            });
        }
        {
            let pq = Arc::clone(&pq);
            let drained = Arc::clone(&drained);
            let guard = Arc::clone(&guard);
            sim.thread("flusher", move || {
                let mut out = Vec::new();
                pq.dequeue_batch_guarded(8, &mut out, &guard);
                guard.store(INFINITE, Ordering::SeqCst);
                drained.lock().extend(out.into_iter().map(|(k, _)| k));
            });
        }
        let pq = Arc::clone(&pq);
        let drained = Arc::clone(&drained);
        sim.check("every key still reachable", move || {
            let mut keys = drained.lock().clone();
            let mut out = Vec::new();
            pq.dequeue_batch(16, &mut out);
            keys.extend(out.into_iter().map(|(k, _)| k));
            keys.sort_unstable();
            // A mid-move key is legitimately findable in both its old and
            // new bucket (insert-before-delete); duplicates are filtered by
            // caller-side validation upstream. Loss is the bug.
            keys.dedup();
            assert_eq!(keys, vec![1, 2, 65], "adjust_batch lost an entry");
        });
    });
    assert!(
        outcome.failure.is_none(),
        "insert-before-delete batch adjust must lose nothing: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 2048);
}

// ---------------------------------------------------------------------------
// Run insertion. `insert_run` counts a whole run in `len` once and reserves
// in each segment's `occupied` the part of the run that segment takes — with
// the excess over the segment's room handed back — before the slot CASes.
// The conservative-counter rule must hold for every key of the run at every
// instant: a key `contains` can find is counted in `len` (`is_empty` is
// false) and in its segment's `occupied` (`take_any`, which passes by a
// segment reading 0, hands it out).
//
// The head segment admits 60 keys; 58 are in it before the threads start, so
// the run of four asks the head for 4, is granted 2, hands 2 back, and takes
// the other two to a segment it appends.

fn insert_run_scenario(buggy: bool) -> impl FnMut(&mut SimBuilder) {
    const RUN: [u64; 4] = [1_000, 1_001, 1_002, 1_003];
    move |sim: &mut SimBuilder| {
        let set = Arc::new(LockFreeSet::new());
        set.set_bug_publish_window(buggy);
        set.insert_run(&(0..58).collect::<Vec<_>>());
        {
            let set = Arc::clone(&set);
            sim.thread("registrant", move || set.insert_run(&RUN));
        }
        let taken = Arc::new(parking_lot::Mutex::new(Vec::new()));
        {
            let set = Arc::clone(&set);
            let taken = Arc::clone(&taken);
            sim.thread("observer", move || {
                for _ in 0..4 {
                    // Last key first: those are the ones in the new segment,
                    // whose count starts from zero.
                    let Some(&found) = RUN.iter().rev().find(|&&k| set.contains(k)) else {
                        yield_point("observer.probe");
                        continue;
                    };
                    assert!(!set.is_empty(), "key visible but set reports empty");
                    // Nobody else removes, so a key that was found is still
                    // there: a take of everything must come back with it.
                    let mut out = Vec::new();
                    set.take_any(usize::MAX, &mut out);
                    assert!(
                        out.contains(&found),
                        "key {found} visible but its segment reads unoccupied"
                    );
                    taken.lock().extend(out);
                    return;
                }
            });
        }
        sim.check("counters settle exactly", move || {
            let mut all = taken.lock().clone();
            let left = set.len();
            set.take_any(usize::MAX, &mut all);
            assert_eq!(all.len() - taken.lock().len(), left, "len is exact at rest");
            all.sort_unstable();
            let want: Vec<u64> = (0..58).chain(RUN).collect();
            assert_eq!(all, want, "keys lost or duplicated");
            assert!(set.is_empty());
            // Every segment's count is back at zero: a later run finds the
            // head's 60 places again instead of appending.
            let chain = set.heap_bytes();
            set.insert_run(&(0..60).collect::<Vec<_>>());
            assert_eq!(
                set.heap_bytes(),
                chain,
                "a reservation was never handed back"
            );
        });
    }
}

/// ~90 yield points a schedule, the observer's drain included: PCT places
/// its priority changes within `steps`, and at `steps: 64` the window
/// between a slot CAS and its count is never hit in 1024 seeds.
fn pct_run(seeds: std::ops::Range<u64>) -> ExploreConfig {
    ExploreConfig {
        seeds,
        sim: SimConfig {
            max_steps: 400,
            policy: Policy::Pct {
                depth: 4,
                steps: 96,
            },
        },
        announce_failure: false,
    }
}

#[test]
fn insert_run_publishing_before_counting_is_found_and_replays() {
    // The teeth of the sweep below: the historical publish-then-count order,
    // run-wide, is caught by the same assertions.
    let cfg = pct_run(0..1024);
    let failure = explore(&cfg, insert_run_scenario(true))
        .failure
        .expect("a run published before it is counted must be caught");
    assert!(failure.failures[0]
        .message
        .contains("visible but its segment reads unoccupied"));
    eprintln!("insert_run publish window: replay seed {}", failure.seed);
    let replayed = replay(failure.seed, &cfg.sim, insert_run_scenario(true));
    assert!(replayed.failed(), "seed {} must replay", failure.seed);
    assert_eq!(replayed.trace, failure.trace);
}

#[test]
fn insert_run_keeps_counters_conservative_under_sweep() {
    for cfg in [pct_run(0..1024), quiet(0..1024)] {
        let outcome = explore(&cfg, insert_run_scenario(false));
        assert!(
            outcome.failure.is_none(),
            "{:?}: a run must count every key before publishing it: {:?}",
            cfg.sim.policy,
            outcome.failure
        );
        assert_eq!(outcome.runs, 1024);
        assert_eq!(outcome.budget_exceeded_runs, 0);
    }
}

// ---------------------------------------------------------------------------
// Model check: concurrent set traffic must lose and duplicate nothing.

#[test]
fn lfs_concurrent_traffic_is_linearizable_to_a_set() {
    let outcome = explore(&quiet(0..256), |sim| {
        let set = Arc::new(LockFreeSet::new());
        let taken = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for (name, key) in [("ins-a", 1u64), ("ins-b", 2)] {
            let set = Arc::clone(&set);
            sim.thread(name, move || set.insert(key));
        }
        {
            let set = Arc::clone(&set);
            let taken = Arc::clone(&taken);
            sim.thread("taker", move || {
                let mut out = Vec::new();
                set.take_any(2, &mut out);
                taken.lock().extend(out);
            });
        }
        let set = Arc::clone(&set);
        let taken = Arc::clone(&taken);
        sim.check("no loss, no duplication", move || {
            let mut all = taken.lock().clone();
            for k in [1u64, 2] {
                if set.contains(k) {
                    all.push(k);
                }
            }
            all.sort_unstable();
            assert_eq!(all, vec![1, 2], "keys lost or duplicated");
        });
    });
    assert!(
        outcome.failure.is_none(),
        "set model check failed: {:?}",
        outcome.failure
    );
}
