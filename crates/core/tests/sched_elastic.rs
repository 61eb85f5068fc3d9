//! Schedule exploration of the elastic membership transition (drain →
//! remap → resume).
//!
//! Drives the real deferred-flush machinery — [`GEntryStore`] and its
//! shard queue, [`InflightTable`] — and the real [`ShardMap`] remap
//! under the deterministic scheduler. The scenario is the engine's segment
//! boundary in miniature: trainer 0 leaves one pending epoch-0 g-entry
//! write behind, the cohort shrinks to `{1}`, and trainer 1 (the moved
//! shard's new owner) reads the re-homed row as soon as the coordinator
//! publishes the new epoch.
//!
//! * **Full quiescence** (the engine's protocol) — the coordinator waits
//!   for `pending_keys() == 0` *and* an idle in-flight table before
//!   publishing. The 1024-seed sweep must be clean.
//! * **PQ-drain only** — the coordinator checks only `pending_keys()`,
//!   missing the claimed-but-unapplied window where a flusher has claimed
//!   the writes off the queue but not yet applied them to the host. The
//!   explorer must find the divergence and replay it deterministically.
//! * **No drain** — the new map is published immediately (the engine's
//!   `skip_quiesce` failure injection). Caught the same way.

#![cfg(feature = "sched")]

use frugal_core::{GEntryStore, InflightTable, PriorityPolicy, ShardMap};
use frugal_pq::INFINITE;
use frugal_sched::{explore, replay, yield_point, ExploreConfig, SimBuilder};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// What the coordinator waits for before publishing the next epoch's map.
#[derive(Clone, Copy, PartialEq)]
enum Quiesce {
    /// The engine's predicate: empty pending set *and* idle in-flight table.
    Full,
    /// Only the pending set — blind to claimed-but-unapplied flushes.
    PqOnly,
    /// Publish immediately (`skip_quiesce`).
    None,
}

/// A key trainer 0 owns at full width — the shard that moves when 0 leaves.
fn moved_key(m0: &ShardMap) -> u64 {
    (0..GEntryStore::n_shards() as u64)
        .find(|&k| m0.owner_of(k) == 0)
        .expect("trainer 0 owns at least one shard at full width")
}

fn transition_handoff(mode: Quiesce) -> impl FnMut(&mut SimBuilder) {
    move |sim: &mut SimBuilder| {
        // Remap preconditions, checked computationally every run: the key's
        // shard belongs to the leaver in epoch 0, to the survivor in epoch
        // 1, and returns home when the cohort regrows (placement is a pure
        // function of the member set).
        let m0 = ShardMap::initial(2, GEntryStore::n_shards());
        let m1 = m0.with_members(&[1]);
        let key = moved_key(&m0);
        assert_eq!(m1.owner_of(key), 1, "shrunk cohort re-homes the shard");
        assert_eq!(
            m1.with_members(&[0, 1]).owner_of(key),
            0,
            "regrowing must return the shard to its original owner"
        );

        let gstore = Arc::new(GEntryStore::with_queue(PriorityPolicy::EarliestRead, 16));
        let grad: Arc<[f32]> = Arc::from(vec![1.0f32].as_slice());
        // Epoch 0's parting gift: one deferred write (no future reads, so
        // it sits in the ∞ bucket until the drain).
        gstore.queue_writes(0, [(key, grad)]);
        let inflight = Arc::new(InflightTable::new(1));
        // Host rows durably applied (monotone) and the epoch-1 publication
        // flag (monotone false→true).
        let applied = Arc::new(AtomicUsize::new(0));
        let published = Arc::new(AtomicBool::new(false));

        {
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let applied = Arc::clone(&applied);
            sim.thread("flusher", move || {
                let (mut writes, mut claims) = (Vec::new(), Vec::new());
                for _ in 0..64 {
                    writes.clear();
                    if gstore.mark_lowest(inflight.guard(0)) {
                        gstore.claim_marked(8, inflight.guard(0), &mut writes, &mut claims);
                    }
                    let n = writes.len();
                    if n > 0 {
                        // The claimed-but-unapplied window: the queue is
                        // empty, only the in-flight marker covers the rows.
                        yield_point("flusher.apply");
                        applied.fetch_add(n, Ordering::SeqCst);
                    }
                    inflight.clear(0);
                    if applied.load(Ordering::SeqCst) == 1 {
                        return;
                    }
                    yield_point("flusher.idle");
                }
            });
        }
        {
            let gstore = Arc::clone(&gstore);
            let inflight = Arc::clone(&inflight);
            let published = Arc::clone(&published);
            sim.thread("coordinator", move || {
                match mode {
                    Quiesce::Full => {
                        for _ in 0..128 {
                            let drained = gstore.pending_keys() == 0 && inflight.min() == INFINITE;
                            if drained {
                                break;
                            }
                            yield_point("coordinator.drain_wait");
                        }
                        assert_eq!(gstore.pending_keys(), 0, "drain starved");
                    }
                    Quiesce::PqOnly => {
                        for _ in 0..128 {
                            if gstore.pending_keys() == 0 {
                                break;
                            }
                            yield_point("coordinator.drain_wait");
                        }
                    }
                    Quiesce::None => {}
                }
                // Remap + resume: epoch 1 goes live.
                published.store(true, Ordering::SeqCst);
            });
        }
        {
            let applied = Arc::clone(&applied);
            let published = Arc::clone(&published);
            sim.thread("new-owner", move || {
                // Patient wait: the probe budget must outlast the whole
                // drain.
                for _ in 0..256 {
                    if !published.load(Ordering::SeqCst) {
                        yield_point("new_owner.await_epoch");
                        continue;
                    }
                    // First read of the re-homed shard. `applied` is
                    // monotone, so a post-publication read of 0 means the
                    // epoch-0 write was missing when the new owner resumed.
                    assert_eq!(
                        applied.load(Ordering::SeqCst),
                        1,
                        "re-homed shard served before quiescence"
                    );
                    return;
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
fn quiesced_transition_survives_sweep() {
    let outcome = explore(&quiet(0..1024), transition_handoff(Quiesce::Full));
    assert!(
        !outcome.found_violation(),
        "drain → remap → resume with the full quiescence predicate must \
         never serve a re-homed shard early: {:?}",
        outcome.failure
    );
    assert_eq!(outcome.runs, 1024);
}

#[test]
fn transition_without_drain_is_found_and_replays() {
    let cfg = quiet(0..1024);
    let outcome = explore(&cfg, transition_handoff(Quiesce::None));
    let failure = outcome
        .failure
        .expect("publishing the new map without draining must be caught");
    assert!(failure.failures[0]
        .message
        .contains("re-homed shard served before quiescence"));
    eprintln!("unquiesced transition: replay seed {}", failure.seed);
    let replayed = replay(failure.seed, &cfg.sim, transition_handoff(Quiesce::None));
    assert!(replayed.failed());
    assert_eq!(replayed.trace, failure.trace);
}

#[test]
fn transition_ignoring_inflight_claims_is_found_and_replays() {
    // The subtler half of the predicate: `pending_keys() == 0` alone is
    // not quiescence — a flusher may have claimed the writes (emptying the
    // queue) without having applied them yet.
    let cfg = quiet(0..1024);
    let outcome = explore(&cfg, transition_handoff(Quiesce::PqOnly));
    let failure = outcome
        .failure
        .expect("a drain check blind to in-flight claims must be caught");
    assert!(failure.failures[0]
        .message
        .contains("re-homed shard served before quiescence"));
    eprintln!("inflight-blind transition: replay seed {}", failure.seed);
    let replayed = replay(failure.seed, &cfg.sim, transition_handoff(Quiesce::PqOnly));
    assert!(replayed.failed());
    assert_eq!(replayed.trace, failure.trace);
}
