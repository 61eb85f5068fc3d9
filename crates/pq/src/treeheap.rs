//! The tree-heap baseline the paper compares against (Exp #4).
//!
//! "The straightforward implementation of a PQ is using a classic binary
//! tree min-heap. However, its performance is suboptimal … O(log N)
//! operation complexity … and limited concurrency caused by near-root
//! contention."
//!
//! This baseline is a binary heap behind one lock with *lazy invalidation*
//! for `adjust` (push the new position; stale copies are filtered by the
//! caller's g-entry validation, the same protocol the two-level PQ uses).
//! A single lock models the serialization that near-root contention imposes
//! on lock-per-node heaps: every operation still passes through the root.

use crate::queue::{settled_guard, Priority, PriorityQueue, INFINITE};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Maximum heap depth whose per-level locks we materialize (2^40 entries).
const MAX_LEVELS: usize = 40;

/// A lock-serialized binary min-heap with O(log N) operations.
///
/// # Examples
///
/// ```
/// use frugal_pq::{PriorityQueue, TreeHeap};
///
/// let pq = TreeHeap::new();
/// pq.enqueue(3, 9);
/// pq.enqueue(4, 1);
/// assert_eq!(pq.top_priority(), 1);
/// ```
#[derive(Debug)]
pub struct TreeHeap {
    heap: Mutex<BinaryHeap<Reverse<(Priority, u64)>>>,
    /// One lock per tree level: every sift in a per-node-spinlock heap
    /// acquires O(log N) node locks hand-over-hand. The `BinaryHeap` inside
    /// the mutex gives the *ordering*; these per-level acquisitions
    /// reproduce the lock *traffic* of the paper's baseline, which is where
    /// its O(log N) software cost lives.
    level_locks: Vec<AtomicBool>,
}

impl Default for TreeHeap {
    fn default() -> Self {
        TreeHeap {
            heap: Mutex::new(BinaryHeap::new()),
            level_locks: (0..MAX_LEVELS).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

impl TreeHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        TreeHeap::default()
    }

    /// Hand-over-hand per-level lock acquisition for one sift of a heap of
    /// `len` entries (root to leaf).
    fn sift_lock_traffic(&self, len: usize) {
        let levels = (usize::BITS - len.max(1).leading_zeros()) as usize;
        for lock in self.level_locks.iter().take(levels.min(MAX_LEVELS)) {
            while lock
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                std::hint::spin_loop();
            }
            lock.store(false, Ordering::Release);
        }
    }
}

impl PriorityQueue for TreeHeap {
    fn enqueue(&self, key: u64, priority: Priority) {
        let mut heap = self.heap.lock();
        heap.push(Reverse((priority, key)));
        let len = heap.len();
        drop(heap);
        self.sift_lock_traffic(len);
    }

    fn adjust(&self, key: u64, _old: Priority, new: Priority) {
        // Lazy invalidation: the copy at the old priority becomes stale and
        // is discarded by the caller's validation on dequeue.
        let mut heap = self.heap.lock();
        heap.push(Reverse((new, key)));
        let len = heap.len();
        drop(heap);
        self.sift_lock_traffic(len);
    }

    fn enqueue_batch(&self, items: &[(u64, Priority)]) {
        if items.is_empty() {
            return;
        }
        let mut heap = self.heap.lock();
        let mut lens = Vec::with_capacity(items.len());
        for &(key, priority) in items {
            heap.push(Reverse((priority, key)));
            lens.push(heap.len());
        }
        drop(heap);
        // One mutex acquisition for the batch, but every push still pays
        // its own O(log N) sift lock traffic — that per-entry cost is the
        // baseline property Exp #4 measures, so batching must not hide it.
        for len in lens {
            self.sift_lock_traffic(len);
        }
    }

    fn adjust_batch(&self, moves: &[(u64, Priority, Priority)]) {
        if moves.is_empty() {
            return;
        }
        let mut heap = self.heap.lock();
        let mut lens = Vec::with_capacity(moves.len());
        for &(key, _, new) in moves {
            // Lazy invalidation, as in `adjust`: stale copies at the old
            // priority are discarded by caller-side validation.
            heap.push(Reverse((new, key)));
            lens.push(heap.len());
        }
        drop(heap);
        for len in lens {
            self.sift_lock_traffic(len);
        }
    }

    fn dequeue_batch(&self, max: usize, out: &mut Vec<(u64, Priority)>) {
        let mut heap = self.heap.lock();
        let mut pops = 0;
        let len = heap.len();
        for _ in 0..max {
            match heap.pop() {
                Some(Reverse((p, k))) => {
                    out.push((k, p));
                    pops += 1;
                }
                None => break,
            }
        }
        drop(heap);
        for _ in 0..pops {
            self.sift_lock_traffic(len);
        }
    }

    fn dequeue_batch_guarded(&self, max: usize, out: &mut Vec<(u64, Priority)>, guard: &AtomicU64) {
        let mut heap = self.heap.lock();
        // The min-heap pops in ascending order, so the first peek is the
        // whole batch's minimum; publishing it before any pop (still under
        // the lock) leaves no instant at which an extracted entry is
        // covered by neither `top_priority` nor the guard.
        let top = heap.peek().map(|&Reverse((p, k))| (k, p));
        guard.store(settled_guard(top.as_slice()), Ordering::SeqCst);
        let mut pops = 0;
        let len = heap.len();
        for _ in 0..max {
            match heap.pop() {
                Some(Reverse((p, k))) => {
                    out.push((k, p));
                    pops += 1;
                }
                None => break,
            }
        }
        drop(heap);
        for _ in 0..pops {
            self.sift_lock_traffic(len);
        }
    }

    fn top_priority(&self) -> Priority {
        self.heap
            .lock()
            .peek()
            .map(|Reverse((p, _))| *p)
            .unwrap_or(INFINITE)
    }

    fn peek_top(&self) -> Option<(u64, Priority)> {
        // Min-heap root is the exact top; skip ∞ entries (they never
        // block a step, so there is nothing to name for provenance).
        self.heap
            .lock()
            .peek()
            .filter(|Reverse((p, _))| *p != INFINITE)
            .map(|Reverse((p, k))| (*k, *p))
    }

    fn set_upper_bound(&self, _upper: Priority) {
        // Scan-range compression is a two-level-PQ concept; nothing to do.
    }

    fn dequeue_serializes(&self) -> bool {
        true // one lock guards the heap; every dequeue passes the root
    }

    fn len(&self) -> usize {
        self.heap.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::DEFERRED_CLAIM;
    use std::sync::Arc;

    #[test]
    fn orders_by_priority() {
        let pq = TreeHeap::new();
        pq.enqueue(1, 5);
        pq.enqueue(2, 1);
        pq.enqueue(3, 3);
        let mut out = Vec::new();
        pq.dequeue_batch(3, &mut out);
        assert_eq!(out, vec![(2, 1), (3, 3), (1, 5)]);
        assert!(pq.is_empty());
    }

    #[test]
    fn adjust_leaves_stale_ghost() {
        let pq = TreeHeap::new();
        pq.enqueue(7, 2);
        pq.adjust(7, 2, 8);
        // Lazy invalidation: both copies surface; the caller filters by
        // comparing against the g-entry's authoritative priority.
        let mut out = Vec::new();
        pq.dequeue_batch(10, &mut out);
        assert_eq!(out, vec![(7, 2), (7, 8)]);
    }

    #[test]
    fn top_priority_and_infinite() {
        let pq = TreeHeap::new();
        assert_eq!(pq.top_priority(), INFINITE);
        pq.enqueue(1, INFINITE);
        assert_eq!(pq.top_priority(), INFINITE);
        pq.enqueue(2, 4);
        assert_eq!(pq.top_priority(), 4);
    }

    #[test]
    fn guarded_deferred_batch_settles_below_infinite() {
        // Same contract as the two-level PQ: an all-∞ batch clamps the
        // guard to the deferred sentinel so the claim reads as busy.
        let pq = TreeHeap::new();
        pq.enqueue(1, INFINITE);
        let guard = AtomicU64::new(INFINITE);
        let mut out = Vec::new();
        pq.dequeue_batch_guarded(10, &mut out, &guard);
        assert_eq!(out, vec![(1, INFINITE)]);
        assert_eq!(guard.load(Ordering::SeqCst), DEFERRED_CLAIM);
        let mut out = Vec::new();
        pq.dequeue_batch_guarded(10, &mut out, &guard);
        assert_eq!(guard.load(Ordering::SeqCst), INFINITE);
    }

    #[test]
    fn peek_top_names_the_root() {
        let pq = TreeHeap::new();
        assert_eq!(pq.peek_top(), None);
        pq.enqueue(9, INFINITE);
        assert_eq!(pq.peek_top(), None, "∞ entries are never blocking");
        pq.enqueue(5, 3);
        assert_eq!(pq.peek_top(), Some((5, 3)));
        assert_eq!(pq.len(), 2, "peek must not consume");
    }

    #[test]
    fn batch_ops_match_sequential() {
        let a = TreeHeap::new();
        let b = TreeHeap::new();
        let items: Vec<(u64, Priority)> = (0..30u64).map(|k| (k, k % 11)).collect();
        for &(k, p) in &items {
            a.enqueue(k, p);
        }
        b.enqueue_batch(&items);
        let moves: Vec<(u64, Priority, Priority)> =
            (0..30u64).map(|k| (k, k % 11, (k + 3) % 11)).collect();
        for &(k, o, n) in &moves {
            a.adjust(k, o, n);
        }
        b.adjust_batch(&moves);
        assert_eq!(a.len(), b.len(), "lazy ghosts counted identically");
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        a.dequeue_batch(usize::MAX, &mut oa);
        b.dequeue_batch(usize::MAX, &mut ob);
        assert_eq!(oa, ob, "identical pop order including stale copies");
    }

    #[test]
    fn concurrent_use_is_safe() {
        let pq = Arc::new(TreeHeap::new());
        let producers: Vec<_> = (0..2u64)
            .map(|t| {
                let pq = Arc::clone(&pq);
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        pq.enqueue(t * 1_000 + i, i % 50);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut out = Vec::new();
        pq.dequeue_batch(usize::MAX, &mut out);
        assert_eq!(out.len(), 2_000);
    }
}
