//! The P²F wait condition (paper §3.3) and the in-flight flush table.
//!
//! A trainer may start step `s` only when no pending update could still be
//! read by `s`. Two sources must both clear:
//!
//! 1. **Queued** entries: `PQ.top() > s` (strictly) — the queue's
//!    conservative lower bound covers everything not yet dequeued.
//! 2. **In-flight** entries: a flusher that dequeued a batch but has not
//!    finished applying it to host memory holds those entries *outside*
//!    the queue. Each flusher publishes the minimum priority of its
//!    current batch in an [`InflightTable`] slot; the wait condition
//!    blocks while any slot is ≤ `s`.
//!
//! Losing either check re-admits a historical race (DESIGN.md §8 race 2).
//! The handoff between them is itself delicate: markers must be published
//! *before* entries leave the queue ([`frugal_pq::PriorityQueue::dequeue_batch_guarded`]),
//! or there is an instant where an extracted entry is covered by neither
//! check — the dequeue-to-publish race the schedule explorer found.
//!
//! # Deferred claims and the read horizon
//!
//! A *deferred* entry (priority ∞: no registered read) is flushed whenever
//! a flusher has nothing better to do, and its marker
//! ([`frugal_pq::DEFERRED_CLAIM`]) blocks no step — rightly so at the
//! moment of the claim. But registration keeps running: a read of the
//! claimed key can be registered *while the claim is in flight*, finds the
//! W set empty, and moves nothing in the queue. If the flusher is then held
//! up for `L` steps (one, at lookahead 1 — a preempted flusher on a busy
//! host is enough), the step that reads the key is admitted over an
//! unapplied row. Source 2 therefore has a second half: before a flusher
//! dequeues anything it publishes the table's **read horizon** — the first
//! step whose reads are not all registered yet
//! ([`InflightTable::set_read_horizon`], advanced by the engine after each
//! step's registration) — and keeps it up until its batch is applied.
//! Reads registered after the claim are for the horizon step or later, so
//! exactly the steps that could read a row of the batch wait for it; a
//! batch applied within `L` steps of its claim — every batch, in practice —
//! delays nobody.

use frugal_pq::{PriorityQueue, INFINITE};
use std::sync::atomic::{AtomicU64, Ordering};

/// One marker slot per flushing thread: the minimum priority of the batch
/// the flusher is currently moving to host memory, [`INFINITE`] when idle.
#[derive(Debug)]
pub struct InflightTable {
    slots: Vec<AtomicU64>,
    /// Per flusher: the read horizon it published before its current
    /// dequeue ([`Self::open`]), [`INFINITE`] between batches.
    horizons: Vec<AtomicU64>,
    /// The first step whose reads are not all registered yet; [`INFINITE`]
    /// (deferred claims block nothing) until the engine says otherwise.
    read_horizon: AtomicU64,
}

impl InflightTable {
    /// Creates a table with `n` idle slots (one per flushing thread).
    pub fn new(n: usize) -> Self {
        let idle = || (0..n).map(|_| AtomicU64::new(INFINITE)).collect();
        InflightTable {
            slots: idle(),
            horizons: idle(),
            read_horizon: AtomicU64::new(INFINITE),
        }
    }

    /// Declares that every read of a step below `step` is registered, and
    /// that reads of `step` and later may still arrive. Monotone in the
    /// engine: `L` before step 0's registration, `s + 1 + L` once step
    /// `s`'s is complete. A stale (lower) value is merely conservative.
    pub fn set_read_horizon(&self, step: u64) {
        self.read_horizon.store(step, Ordering::SeqCst);
    }

    /// Flusher `slot` is about to dequeue: until [`Self::clear`], steps at
    /// or past the current read horizon wait for it (see the module docs).
    /// Must precede the dequeue — the claim it covers happens under the
    /// key's shard lock, which every later read registration of that key
    /// takes, so whoever could read the row observes this store.
    pub fn open(&self, slot: usize) {
        let horizon = self.read_horizon.load(Ordering::SeqCst);
        self.horizons[slot].store(horizon, Ordering::SeqCst);
    }

    /// The raw marker slot for flusher `slot`, to be passed as the guard of
    /// [`PriorityQueue::dequeue_batch_guarded`].
    pub fn guard(&self, slot: usize) -> &AtomicU64 {
        &self.slots[slot]
    }

    /// Marks flusher `slot` idle again — call only after every row of its
    /// batch is durably in host memory (or when its dequeue came back
    /// empty).
    pub fn clear(&self, slot: usize) {
        self.slots[slot].store(INFINITE, Ordering::Release);
        self.horizons[slot].store(INFINITE, Ordering::Release);
    }

    /// True if any flusher is applying a batch containing priority ≤ `step`,
    /// or one it opened when reads of `step` could still be registered.
    fn any_at_or_below(&self, step: u64) -> bool {
        self.slots.iter().chain(&self.horizons).any(|p| {
            sched_point!("wait.inflight.slot");
            p.load(Ordering::Acquire) <= step
        })
    }

    /// The smallest in-flight priority or open horizon across all flushers
    /// ([`INFINITE`] when all idle).
    pub fn min(&self) -> u64 {
        self.slots
            .iter()
            .chain(&self.horizons)
            .map(|p| p.load(Ordering::Acquire))
            .min()
            .unwrap_or(INFINITE)
    }
}

/// The wait condition at an explicit threshold: true while any pending
/// flush (queued or in-flight) has priority ≤ `threshold`.
///
/// The threshold is the flush strategy's knob: P²F blocks step `s` on
/// priorities ≤ `s` (priorities are *next-read* steps, and a pending write
/// read at `s` must land first — §3.3's strict `PQ.top() > s`), while the
/// FIFO ablation blocks on priorities ≤ `s - 1` (priorities are *write*
/// steps, and every write from steps before `s` must land first).
///
/// Checked in this order — queue first, then in-flight markers — because
/// entries move from the queue *into* a marker: a guarded dequeue
/// publishes the marker before extraction, so an entry missed by the
/// `top_priority` read is already visible to the marker scan that follows.
/// (The reverse order would be racy even with guarded dequeues.)
pub fn blocked_at(pq: &dyn PriorityQueue, inflight: &InflightTable, threshold: u64) -> bool {
    if pq.top_priority() <= threshold {
        return true;
    }
    sched_point!("wait.between_checks");
    inflight.any_at_or_below(threshold)
}

/// The lowest outstanding deadline across both wait-condition sources —
/// the queue top and the in-flight markers. This is what a blocked trainer
/// is blocked *on*; the engine attributes stalls to it in telemetry.
pub fn pending_floor(pq: &dyn PriorityQueue, inflight: &InflightTable) -> u64 {
    pq.top_priority().min(inflight.min())
}

#[cfg(test)]
mod tests {
    use super::*;
    use frugal_pq::TwoLevelPq;

    #[test]
    fn idle_table_blocks_nothing() {
        let pq = TwoLevelPq::new(10);
        let table = InflightTable::new(3);
        assert_eq!(table.min(), INFINITE);
        assert!(!table.any_at_or_below(10));
        assert!(!blocked_at(&pq, &table, 5));
    }

    #[test]
    fn queued_entry_blocks_its_step() {
        let pq = TwoLevelPq::new(10);
        pq.enqueue(1, 4);
        let table = InflightTable::new(1);
        assert!(blocked_at(&pq, &table, 4), "top == s must block (strict >)");
        assert!(blocked_at(&pq, &table, 7));
        assert!(!blocked_at(&pq, &table, 3));
    }

    #[test]
    fn threshold_form_matches_fifo_semantics() {
        // FIFO priorities are write steps: step s blocks on anything ≤ s-1.
        let pq = TwoLevelPq::new(10);
        pq.enqueue(9, 2); // a write from step 2, not yet flushed
        let table = InflightTable::new(1);
        assert!(blocked_at(&pq, &table, 2), "step 3 must wait for step 2");
        assert!(!blocked_at(&pq, &table, 1), "step 2 needs only steps < 2");
        // An in-flight marker participates at the same threshold.
        let mut out = Vec::new();
        pq.dequeue_batch_guarded(8, &mut out, table.guard(0));
        assert!(blocked_at(&pq, &table, 2), "claimed but unapplied blocks");
        table.clear(0);
        assert!(!blocked_at(&pq, &table, 2));
    }

    #[test]
    fn open_batch_blocks_from_the_read_horizon_on() {
        let pq = TwoLevelPq::new(10);
        pq.enqueue(9, INFINITE);
        let table = InflightTable::new(2);
        // No horizon declared: a deferred claim blocks nothing.
        table.open(1);
        assert!(!blocked_at(&pq, &table, 7));
        table.clear(1);
        // Reads of steps < 5 are all registered; those of 5.. may follow.
        table.set_read_horizon(5);
        table.open(1);
        let mut out = Vec::new();
        pq.dequeue_batch_guarded(8, &mut out, table.guard(1));
        assert_eq!(out, vec![(9, INFINITE)]);
        assert!(
            !blocked_at(&pq, &table, 4),
            "no read of step 4 can still appear"
        );
        assert!(
            blocked_at(&pq, &table, 5),
            "a read of step 5 may hit the batch"
        );
        assert!(blocked_at(&pq, &table, 8));
        assert_eq!(table.min(), 5);
        // The horizon that counts is the one at open time.
        table.set_read_horizon(6);
        assert!(blocked_at(&pq, &table, 5));
        table.clear(1);
        assert!(!blocked_at(&pq, &table, 8));
        assert_eq!(table.min(), INFINITE);
    }

    #[test]
    fn inflight_marker_blocks_like_a_queued_entry() {
        let pq = TwoLevelPq::new(10);
        let table = InflightTable::new(2);
        table.guard(1).store(6, Ordering::SeqCst);
        assert!(blocked_at(&pq, &table, 6));
        assert!(!blocked_at(&pq, &table, 5));
        assert_eq!(table.min(), 6);
        table.clear(1);
        assert!(!blocked_at(&pq, &table, 6));
    }
}
