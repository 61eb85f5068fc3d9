//! The concurrent priority-queue interface shared by Frugal's two designs.
//!
//! Exp #4 of the paper swaps the PQ implementation inside the full system
//! (two-level PQ vs. tree heap) — this trait is that seam. Priorities are
//! training-step numbers; [`INFINITE`] stands for the paper's ∞ priority
//! ("no pending reads" or "nothing to flush", Equation 1).
//!
//! Entries returned by [`PriorityQueue::dequeue_batch`] may be *stale*:
//! `adjust` inserts into the new bucket before deleting from the old one
//! (the paper's ordering, §3.4), so a concurrent dequeuer can observe the
//! old position. Callers must validate each dequeued `(key, priority)` pair
//! against the authoritative g-entry priority and discard mismatches —
//! exactly what the paper prescribes ("Dequeue operations can identify an
//! inconsistent g-entry by comparing its priority with the priority of the
//! hash table in which it resides").

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};

/// A training-step priority. Smaller = flushed sooner.
pub type Priority = u64;

/// The ∞ priority of Equation (1): entries that no upcoming step reads.
pub const INFINITE: Priority = u64::MAX;

/// Guard value published while a *deferred* batch — entries whose priority
/// is [`INFINITE`] — has been claimed off the queue but not yet applied.
///
/// An in-flight marker equal to [`INFINITE`] means "idle", so a guarded
/// dequeue must settle the guard *below* ∞ whenever it extracted anything,
/// even a batch made only of ∞ entries. Otherwise the claimed-but-unapplied
/// window of a deferred flush is invisible to quiescence checks (an elastic
/// membership transition drains on "pending set empty ∧ in-flight table
/// idle", and deferred writes are exactly what pends at a segment
/// boundary). `DEFERRED_CLAIM` sits above every finite priority, so the
/// P²F wait condition (`∃ inflight ≤ s` for a real step `s`) never sees
/// it; only idleness observers do.
pub const DEFERRED_CLAIM: Priority = INFINITE - 1;

/// The value a guarded dequeue settles its guard at for the extracted
/// `batch`: the batch's minimum priority clamped to [`DEFERRED_CLAIM`] (so
/// an all-∞ batch still reads as busy), or [`INFINITE`] — idle — when
/// nothing was extracted.
pub(crate) fn settled_guard(batch: &[(u64, Priority)]) -> Priority {
    batch
        .iter()
        .map(|&(_, p)| p.min(DEFERRED_CLAIM))
        .min()
        .unwrap_or(INFINITE)
}

/// A concurrent priority queue of g-entry keys.
pub trait PriorityQueue: Send + Sync + Debug {
    /// Inserts `key` with `priority`.
    fn enqueue(&self, key: u64, priority: Priority);

    /// Moves `key` from priority `old` to `new`.
    ///
    /// Implementations must make the key visible at `new` *before* removing
    /// it from `old`, so concurrent readers never miss it entirely.
    fn adjust(&self, key: u64, old: Priority, new: Priority);

    /// Inserts a batch of `(key, priority)` pairs.
    ///
    /// Semantically identical to calling [`Self::enqueue`] per item; the
    /// whole-batch contract is the per-item one: on return every entry is
    /// visible to dequeuers **and** to `top_priority`'s conservative bound.
    /// Mid-call, individual entries may be published without the bound yet
    /// lowered — exactly the window a single `enqueue` has between its
    /// bucket insert and its bound update, so callers that sequence
    /// registration before releasing waiters (the engine's barrier) are
    /// unaffected. Implementations override this to amortize shared-state
    /// updates (one bound CAS per batch instead of per key).
    fn enqueue_batch(&self, items: &[(u64, Priority)]) {
        for &(key, priority) in items {
            self.enqueue(key, priority);
        }
    }

    /// Applies a batch of `(key, old, new)` priority moves.
    ///
    /// Per-key ordering follows [`Self::adjust`]: each key is visible at
    /// `new` before it disappears from `old`, so a concurrent dequeuer can
    /// observe at worst a stale copy (discarded by caller-side g-entry
    /// validation), never a missing entry. Batch implementations may
    /// reorder *across* keys (all inserts, then all removes) — the per-key
    /// insert-before-delete invariant is what correctness rests on.
    fn adjust_batch(&self, moves: &[(u64, Priority, Priority)]) {
        for &(key, old, new) in moves {
            self.adjust(key, old, new);
        }
    }

    /// Removes up to `max` entries in (approximately) ascending priority
    /// order, appending `(key, priority)` pairs to `out`. Entries may be
    /// stale; callers validate against the g-entry store.
    fn dequeue_batch(&self, max: usize, out: &mut Vec<(u64, Priority)>);

    /// Like [`Self::dequeue_batch`], but publishes a conservative lower
    /// bound of the extracted entries' priorities into `guard` **before**
    /// each entry leaves the queue.
    ///
    /// This closes the dequeue-to-publish window of the P²F wait
    /// condition: an entry that has left the queue (so `top_priority` no
    /// longer covers it) but whose in-flight marker is not yet published
    /// is invisible to `top > s ∨ ∃ inflight ≤ s`, and a trainer can slip
    /// past it. With this method there is no instant at which an extracted
    /// entry is covered by neither `top_priority` nor `guard`.
    ///
    /// Contract: on return, `guard` holds the minimum priority of the
    /// entries appended to `out`, clamped to [`DEFERRED_CLAIM`] — a batch
    /// of only ∞ entries still reads as busy — or [`INFINITE`] if nothing
    /// was extracted; during the call it is only ever ≤ that minimum
    /// (transiently lower is allowed — the conservative direction). The
    /// caller resets `guard` to [`INFINITE`] once the batch's writes are
    /// applied.
    ///
    /// The default implementation brackets [`Self::dequeue_batch`] with
    /// the strongest guard (0 — "assume the batch could contain
    /// anything"), which is correct for any implementation at the cost of
    /// briefly over-blocking the wait condition. Implementations that can
    /// publish per-bucket (or peeked) priorities should override it.
    fn dequeue_batch_guarded(&self, max: usize, out: &mut Vec<(u64, Priority)>, guard: &AtomicU64) {
        let before = out.len();
        guard.store(0, Ordering::SeqCst);
        self.dequeue_batch(max, out);
        guard.store(settled_guard(&out[before..]), Ordering::SeqCst);
    }

    /// A conservative lower bound on the smallest priority present:
    /// never larger than the true minimum, [`INFINITE`] when (apparently)
    /// empty. This is the value the P²F wait condition compares against the
    /// next step number.
    fn top_priority(&self) -> Priority;

    /// Best-effort, non-destructive peek at one entry near the top:
    /// `(key, priority)` for some entry at (or near) the smallest finite
    /// priority, `None` when the queue looks empty or the implementation
    /// cannot name one. Used for stall provenance ("which key is
    /// blocking?"), not for correctness — the entry may be stale by the
    /// time the caller reads it.
    fn peek_top(&self) -> Option<(u64, Priority)> {
        None
    }

    /// Hints the largest finite priority that can currently exist
    /// (`current_step + L` — the scan-range compression of §3.4).
    /// Implementations may ignore it.
    fn set_upper_bound(&self, upper: Priority);

    /// True if concurrent dequeues serialize on shared state (a global or
    /// near-root lock). A tree heap funnels every dequeue through the root;
    /// the two-level PQ dequeues lock-free. Engines use this to model how
    /// flushing throughput scales with thread count.
    fn dequeue_serializes(&self) -> bool {
        false
    }

    /// Approximate number of entries (including not-yet-collected stale
    /// duplicates in lazy implementations).
    fn len(&self) -> usize;

    /// True if the queue is (approximately) empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settled_guard_clamps_deferred_and_reads_empty_as_idle() {
        assert_eq!(settled_guard(&[]), INFINITE, "nothing extracted: idle");
        assert_eq!(
            settled_guard(&[(1, INFINITE), (2, INFINITE)]),
            DEFERRED_CLAIM,
            "an all-∞ batch must still read as busy"
        );
        assert_eq!(settled_guard(&[(1, INFINITE), (2, 4), (3, 9)]), 4);
    }
}
