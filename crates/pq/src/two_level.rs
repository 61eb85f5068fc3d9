//! The two-level concurrent priority queue (paper §3.4, Figure 7).
//!
//! Level 1 is the *priority index*: an array with one bucket per step
//! number, plus one bucket for ∞. Exploiting that priorities are small
//! integers is what buys O(1) operations instead of the O(log N) of a tree
//! heap. Level 2 is a lock-free set of g-entry keys per bucket
//! ([`LockFreeSet`]).
//!
//! *Scan-range compression* (the paper's dequeue optimization) maintains
//! global lower/upper bounds on live finite priorities: the lower bound is
//! raised when a scan proves a prefix empty and lowered (CAS loop) by any
//! insert below it, so it is always conservative; the upper bound is
//! `current_step + L`, set by the controller, since prefetching only looks
//! `L` steps ahead. Scans cover `[lower, upper]`.

use crate::lockfree_set::LockFreeSet;
use crate::queue::{settled_guard, Priority, PriorityQueue, DEFERRED_CLAIM, INFINITE};
#[cfg(feature = "sched")]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// The paper's two-level concurrent priority queue.
///
/// # Examples
///
/// ```
/// use frugal_pq::{PriorityQueue, TwoLevelPq, INFINITE};
///
/// let pq = TwoLevelPq::new(100);
/// pq.enqueue(7, 3);
/// pq.enqueue(9, INFINITE);
/// assert_eq!(pq.top_priority(), 3);
/// let mut out = Vec::new();
/// pq.dequeue_batch(10, &mut out);
/// assert_eq!(out, vec![(7, 3), (9, INFINITE)]);
/// ```
pub struct TwoLevelPq {
    /// Finite priorities: priority `p` lives in `buckets[p]`.
    buckets: Box<[LockFreeSet]>,
    /// The ∞ bucket.
    infinite: LockFreeSet,
    max_step: u64,
    /// Conservative lower bound of live finite priorities.
    ///
    /// Inserts at or above the bound — the steady-state common case, since
    /// the bound trails the flush frontier — validate it with a *pure
    /// load* and touch nothing, so 8–16 registering trainers do not
    /// invalidate each other's cache line on every enqueue. (An earlier
    /// revision packed an insert epoch into the high bits and CAS-bumped
    /// it on *every* finite insert, making this word a global contention
    /// point that ledger attribution flagged first at 8 trainers.)
    /// Inserts below the bound pull it down with a fetch-min CAS loop;
    /// scan-raises are validated after the fact by a verification rescan
    /// (see [`Self::raise_lower`]) instead of an optimistic epoch check.
    lower: AtomicU64,
    /// Upper bound of live finite priorities (`current_step + L`).
    upper: AtomicU64,
    len: AtomicUsize,
    /// Test-only: reverts the scan-raise fix (the verification rescan,
    /// DESIGN.md §8 race 1) so the schedule explorer can replay the
    /// historical race.
    #[cfg(feature = "sched")]
    bug_scan_raise: AtomicBool,
}

impl std::fmt::Debug for TwoLevelPq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoLevelPq")
            .field("max_step", &self.max_step)
            .field("len", &self.len())
            .field("lower", &self.lower.load(Ordering::Relaxed))
            .field("upper", &self.upper.load(Ordering::Relaxed))
            .finish()
    }
}

impl TwoLevelPq {
    /// Creates a queue accepting priorities `0..=max_step` and ∞, with one
    /// bucket per finite priority. Costs a few words per step (second-level
    /// tables are lazy) and keeps every bucket's segments until the queue
    /// drops.
    pub fn new(max_step: u64) -> Self {
        TwoLevelPq {
            buckets: (0..=max_step).map(|_| LockFreeSet::new()).collect(),
            infinite: LockFreeSet::new(),
            max_step,
            lower: AtomicU64::new(0),
            upper: AtomicU64::new(max_step),
            len: AtomicUsize::new(0),
            #[cfg(feature = "sched")]
            bug_scan_raise: AtomicBool::new(false),
        }
    }

    /// Test-only: disables the verification rescan in
    /// [`Self::raise_lower`], reproducing the pre-fix scan-raise race
    /// (DESIGN.md §8 race 1) for replay by the schedule explorer.
    #[cfg(feature = "sched")]
    pub fn set_bug_scan_raise(&self, on: bool) {
        self.bug_scan_raise.store(on, Ordering::SeqCst);
    }

    /// Test-only: reverts every bucket's insert to the historical
    /// publish-then-count order (see
    /// [`LockFreeSet::set_bug_publish_window`]).
    #[cfg(feature = "sched")]
    pub fn set_bug_publish_window(&self, on: bool) {
        for b in self.buckets.iter() {
            b.set_bug_publish_window(on);
        }
        self.infinite.set_bug_publish_window(on);
    }

    #[cfg(feature = "sched")]
    fn bug_scan_raise(&self) -> bool {
        self.bug_scan_raise.load(Ordering::Relaxed)
    }

    #[cfg(not(feature = "sched"))]
    fn bug_scan_raise(&self) -> bool {
        false
    }

    /// The bucket of priority `p`.
    fn bucket(&self, p: Priority) -> &LockFreeSet {
        if p == INFINITE {
            return &self.infinite;
        }
        assert!(
            p <= self.max_step,
            "priority {p} > max_step {}",
            self.max_step
        );
        &self.buckets[p as usize]
    }

    /// Records a finite insert at priority `p`: pulls the bound down if the
    /// insert landed below it, otherwise validates it with a pure load.
    ///
    /// The caller has already published the entry into its bucket. The
    /// `SeqCst` fence pairs with the one in [`Self::raise_lower`]: the
    /// inserter's order is *publish bucket → fence → load bound*, the
    /// raiser's is *store bound → fence → rescan buckets*. In the total
    /// fence order one of the two runs first, so either the rescan sees
    /// the published entry (and re-lowers the bound), or this load sees
    /// the raised bound (and, since a hidden entry means `p < to`, takes
    /// the CAS path and re-lowers it). Without the fences both sides can
    /// read stale values — the store-buffering anomaly — and a live entry
    /// ends up below the bound, invisible to the P²F wait condition.
    fn note_insert(&self, p: Priority) {
        if p == INFINITE {
            return;
        }
        sched_point!("pq.note_insert");
        fence(Ordering::SeqCst);
        let mut cur = self.lower.load(Ordering::Acquire);
        while p < cur {
            match self
                .lower
                .compare_exchange_weak(cur, p, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
        // p >= bound: the bound already covers this entry, and the common
        // steady-state case (inserts land at or ahead of the flush
        // frontier) writes nothing shared.
    }

    /// Raises the lower bound from the scanned snapshot `seen` to `to`,
    /// then *verifies* the raise with a rescan of the skipped range.
    ///
    /// An entry published after the caller's scan passed its bucket but
    /// before the raise would otherwise be hidden from the P²F wait
    /// condition. Any entry the rescan finds lowers the bound again (via
    /// [`Self::note_insert`]); entries published after the rescan are
    /// covered by their publisher's own `note_insert`, which — thanks to
    /// the paired `SeqCst` fences, see there — must observe the raised
    /// bound. The value-based CAS skips the raise when the bound moved
    /// under the scanner (another raiser won, or an insert lowered it).
    fn raise_lower(&self, seen: u64, to: u64) {
        if to <= seen {
            return;
        }
        sched_point!("pq.raise.cas");
        if self
            .lower
            .compare_exchange(seen, to, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        if self.bug_scan_raise() {
            // Historical code stopped here: no verification rescan, so an
            // insert that raced the caller's scan stayed hidden below the
            // freshly raised bound.
            return;
        }
        fence(Ordering::SeqCst);
        sched_point!("pq.raise.rescan");
        for p in seen..to {
            if !self.buckets[p as usize].is_empty() {
                self.note_insert(p);
                return;
            }
        }
    }

    fn scan_end(&self) -> u64 {
        self.upper.load(Ordering::Acquire).min(self.max_step)
    }

    /// Shared body of [`PriorityQueue::dequeue_batch`] and
    /// [`PriorityQueue::dequeue_batch_guarded`]. With a `guard`, the
    /// bucket's priority is published into it (monotonically, via
    /// `fetch_min`) *before* any entry is extracted from that bucket, so
    /// extracted-but-unreported entries are always covered by either
    /// `top_priority` or the guard. The ∞ bucket publishes
    /// [`DEFERRED_CLAIM`] rather than ∞ itself: ∞ entries can never block
    /// a step, but a claimed deferred batch must still read as busy to
    /// idleness observers (the elastic drain's quiescence predicate), and
    /// ∞ in the guard means "idle".
    fn dequeue_impl(&self, max: usize, out: &mut Vec<(u64, Priority)>, guard: Option<&AtomicU64>) {
        if max == 0 {
            return;
        }
        let mut taken = 0;
        let seen = self.lower.load(Ordering::Acquire);
        let end = self.scan_end();
        let mut first_live: Option<u64> = None;
        let mut p = seen;
        while p <= end && taken < max {
            sched_point!("pq.dequeue.scan");
            let set = &self.buckets[p as usize];
            if !set.is_empty() {
                if let Some(g) = guard {
                    g.fetch_min(p, Ordering::AcqRel);
                    sched_point!("pq.dequeue.guard_published");
                }
                sched_point!("pq.dequeue.take");
                let got = set.take_any_with(max - taken, |k| out.push((k, p)));
                if got > 0 && first_live.is_none() {
                    first_live = Some(p);
                }
                taken += got;
                // The bucket may still hold entries we could not take
                // this round; do not raise the bound past it.
                if !set.is_empty() {
                    first_live = Some(first_live.unwrap_or(p).min(p));
                    break;
                }
            }
            p += 1;
        }
        // Raise the lower bound over the prefix we proved empty (refused if
        // any insert raced the scan).
        match first_live {
            Some(fp) => self.raise_lower(seen, fp),
            None if taken == 0 => self.raise_lower(seen, end.saturating_add(1).min(self.max_step)),
            None => {}
        }
        // Interval ② of the paper's scan: the ∞ bucket.
        if taken < max {
            if let Some(g) = guard {
                // Cover the claimed-but-unapplied window for deferred
                // entries too: ∞ would read as idle, so publish the
                // next-lower sentinel before anything leaves the bucket.
                g.fetch_min(DEFERRED_CLAIM, Ordering::AcqRel);
                sched_point!("pq.dequeue.guard_published");
            }
            taken += self
                .infinite
                .take_any_with(max - taken, |k| out.push((k, INFINITE)));
        }
        if taken > 0 {
            self.len.fetch_sub(taken, Ordering::AcqRel);
        }
    }
}

impl PriorityQueue for TwoLevelPq {
    fn enqueue(&self, key: u64, priority: Priority) {
        // Conservative counter rule (see LockFreeSet): count the entry
        // before it becomes visible, so `len` never under-reports a
        // findable entry.
        sched_point!("pq.enqueue.len");
        self.len.fetch_add(1, Ordering::AcqRel);
        self.bucket(priority).insert(key);
        sched_point!("pq.enqueue.inserted");
        self.note_insert(priority);
    }

    fn adjust(&self, key: u64, old: Priority, new: Priority) {
        if old == new {
            return;
        }
        // Paper ordering: insert into the new bucket first so dequeuers
        // can never miss the entry, then delete from the old bucket. A
        // dequeuer that grabbed the old copy will fail caller-side
        // validation.
        self.bucket(new).insert(key);
        self.note_insert(new);
        if !self.bucket(old).remove(key) {
            // A dequeuer already took the old copy (and decremented len
            // for it); our insert added a live copy, so account for it.
            self.len.fetch_add(1, Ordering::AcqRel);
        }
    }

    fn enqueue_batch(&self, items: &[(u64, Priority)]) {
        if items.is_empty() {
            return;
        }
        // Conservative counter rule, batched: count the whole batch
        // before any entry becomes visible (over-reporting is the safe
        // direction; `len` must never miss a findable entry).
        sched_point!("pq.enqueue_batch.len");
        self.len.fetch_add(items.len(), Ordering::AcqRel);
        let mut min = INFINITE;
        // One set insert per run of equal priorities: a shard's batch
        // is mostly one priority (∞, or the step a lookahead read
        // names) and under FIFO all of it is (the write step), so the
        // bucket's counters are paid per run.
        for run in items.chunk_by(|a, b| a.1 == b.1) {
            let priority = run[0].1;
            self.bucket(priority).insert_run_by(run, |&(key, _)| key);
            sched_point!("pq.enqueue_batch.inserted");
            min = min.min(priority);
        }
        // One bound update for the whole batch: lowering to the batch
        // minimum covers every inserted priority (bound ≤ min ≤ p).
        // A scan-raise racing the inserts is corrected either by its
        // own verification rescan (which sees the published buckets)
        // or by this call's fenced bound check — see `note_insert`.
        self.note_insert(min);
    }

    fn adjust_batch(&self, moves: &[(u64, Priority, Priority)]) {
        if moves.is_empty() {
            return;
        }
        // Paper ordering per key: the new copy is published before the
        // old one is removed. Batching hoists the shared-bound update
        // out of the loop (one CAS per batch); removals run after all
        // inserts, which only widens the stale-copy window dequeuers
        // already tolerate via caller-side validation.
        let mut min = INFINITE;
        // Runs of moves into one bucket go in as one set insert.
        for run in moves.chunk_by(|a, b| a.2 == b.2 && (a.1 == a.2) == (b.1 == b.2)) {
            let (_, old, new) = run[0];
            if old == new {
                // No-op moves, matching `adjust`: inserting and then
                // removing in the same bucket would *drop* the entry
                // (buckets are sets — the insert would not duplicate).
                continue;
            }
            self.bucket(new).insert_run_by(run, |&(key, _, _)| key);
            sched_point!("pq.adjust_batch.inserted");
            min = min.min(new);
        }
        self.note_insert(min);
        for &(key, old, new) in moves {
            if old == new {
                continue;
            }
            sched_point!("pq.adjust_batch.remove");
            if !self.bucket(old).remove(key) {
                // A dequeuer already took the old copy (and decremented
                // len for it); our insert added a live copy.
                self.len.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    fn dequeue_batch(&self, max: usize, out: &mut Vec<(u64, Priority)>) {
        self.dequeue_impl(max, out, None);
    }

    fn dequeue_batch_guarded(&self, max: usize, out: &mut Vec<(u64, Priority)>, guard: &AtomicU64) {
        let before = out.len();
        self.dequeue_impl(max, out, Some(guard));
        // Settle the guard at the batch's exact minimum (it is currently ≤
        // that: scanned-but-drained buckets may have pushed it lower).
        // Every extracted entry is already in `out`, so raising back up to
        // the true minimum cannot uncover anything.
        guard.store(settled_guard(&out[before..]), Ordering::SeqCst);
    }

    fn top_priority(&self) -> Priority {
        let seen = self.lower.load(Ordering::Acquire);
        let end = self.scan_end();
        let mut p = seen;
        while p <= end {
            sched_point!("pq.top.scan");
            if !self.buckets[p as usize].is_empty() {
                self.raise_lower(seen, p);
                return p;
            }
            p += 1;
        }
        sched_point!("pq.top.raise");
        self.raise_lower(seen, end.saturating_add(1).min(self.max_step));
        INFINITE
    }

    fn peek_top(&self) -> Option<(u64, Priority)> {
        // Provenance-only read: scan the finite buckets from the lower
        // bound and name one member of the first non-empty bucket,
        // without raising the bound or disturbing entries.
        let seen = self.lower.load(Ordering::Acquire);
        let end = self.scan_end();
        // ∞ entries never block a step; callers peeking for stall
        // provenance treat "only ∞ left" as nothing to name.
        (seen..=end).find_map(|p| Some((self.buckets[p as usize].peek_any()?, p)))
    }

    fn set_upper_bound(&self, upper: Priority) {
        self.upper
            .store(upper.min(self.max_step), Ordering::Release);
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn enqueue_dequeue_in_priority_order() {
        let pq = TwoLevelPq::new(10);
        pq.enqueue(1, 5);
        pq.enqueue(2, 2);
        pq.enqueue(3, 8);
        let mut out = Vec::new();
        pq.dequeue_batch(3, &mut out);
        let prios: Vec<_> = out.iter().map(|&(_, p)| p).collect();
        assert_eq!(prios, vec![2, 5, 8]);
        assert!(pq.is_empty());
    }

    #[test]
    fn top_priority_tracks_min() {
        let pq = TwoLevelPq::new(100);
        assert_eq!(pq.top_priority(), INFINITE);
        pq.enqueue(1, 30);
        assert_eq!(pq.top_priority(), 30);
        pq.enqueue(2, 10);
        assert_eq!(pq.top_priority(), 10);
        let mut out = Vec::new();
        pq.dequeue_batch(1, &mut out);
        assert_eq!(out, vec![(2, 10)]);
        assert_eq!(pq.top_priority(), 30);
    }

    #[test]
    fn peek_top_is_nondestructive() {
        let pq = TwoLevelPq::new(50);
        assert_eq!(pq.peek_top(), None);
        pq.enqueue(7, INFINITE);
        assert_eq!(pq.peek_top(), None, "∞ entries are never blocking");
        pq.enqueue(3, 4);
        assert_eq!(pq.peek_top(), Some((3, 4)));
        assert_eq!(pq.peek_top(), Some((3, 4)), "peek must not consume");
        assert_eq!(pq.top_priority(), 4);
    }

    #[test]
    fn infinite_entries_dequeue_last() {
        let pq = TwoLevelPq::new(10);
        pq.enqueue(1, INFINITE);
        pq.enqueue(2, 3);
        let mut out = Vec::new();
        pq.dequeue_batch(10, &mut out);
        assert_eq!(out, vec![(2, 3), (1, INFINITE)]);
    }

    #[test]
    fn guarded_deferred_batch_settles_below_infinite() {
        // A claimed batch of only ∞ entries must not leave the guard at
        // INFINITE — that value means "idle" to the in-flight table, and
        // the elastic quiescence check would sail past unapplied writes.
        let pq = TwoLevelPq::new(10);
        pq.enqueue(1, INFINITE);
        pq.enqueue(2, INFINITE);
        let guard = AtomicU64::new(INFINITE);
        let mut out = Vec::new();
        pq.dequeue_batch_guarded(10, &mut out, &guard);
        assert_eq!(out.len(), 2);
        assert_eq!(guard.load(Ordering::SeqCst), DEFERRED_CLAIM);
        // Mixed batch: the finite minimum wins. Empty batch: idle.
        pq.enqueue(3, 4);
        pq.enqueue(4, INFINITE);
        let mut out = Vec::new();
        pq.dequeue_batch_guarded(10, &mut out, &guard);
        assert_eq!(guard.load(Ordering::SeqCst), 4);
        let mut out = Vec::new();
        pq.dequeue_batch_guarded(10, &mut out, &guard);
        assert_eq!(guard.load(Ordering::SeqCst), INFINITE);
    }

    #[test]
    fn infinite_does_not_block_top() {
        let pq = TwoLevelPq::new(10);
        pq.enqueue(1, INFINITE);
        // Only ∞ entries: training never blocks (top > any step).
        assert_eq!(pq.top_priority(), INFINITE);
        assert_eq!(pq.len(), 1);
    }

    #[test]
    fn adjust_moves_entry() {
        let pq = TwoLevelPq::new(10);
        pq.enqueue(7, 2);
        pq.adjust(7, 2, 9);
        assert_eq!(pq.top_priority(), 9);
        let mut out = Vec::new();
        pq.dequeue_batch(10, &mut out);
        assert_eq!(out, vec![(7, 9)]);
    }

    #[test]
    fn adjust_from_infinite_reactivates() {
        // The ∞ -> finite transition happens when a parameter with pending
        // writes gets prefetched for an upcoming step.
        let pq = TwoLevelPq::new(10);
        pq.enqueue(4, INFINITE);
        pq.adjust(4, INFINITE, 1);
        assert_eq!(pq.top_priority(), 1);
    }

    #[test]
    fn adjust_same_priority_is_noop() {
        let pq = TwoLevelPq::new(10);
        pq.enqueue(4, 5);
        pq.adjust(4, 5, 5);
        assert_eq!(pq.len(), 1);
        let mut out = Vec::new();
        pq.dequeue_batch(10, &mut out);
        assert_eq!(out, vec![(4, 5)]);
    }

    #[test]
    fn lower_bound_rescinds_on_lower_insert() {
        let pq = TwoLevelPq::new(100);
        pq.enqueue(1, 50);
        let mut out = Vec::new();
        pq.dequeue_batch(1, &mut out); // raises the scan lower bound to 50
        pq.enqueue(2, 10); // must pull the bound back down
        assert_eq!(pq.top_priority(), 10);
        out.clear();
        pq.dequeue_batch(1, &mut out);
        assert_eq!(out, vec![(2, 10)]);
    }

    #[test]
    fn upper_bound_limits_scan_but_infinity_survives() {
        let pq = TwoLevelPq::new(1_000_000);
        pq.set_upper_bound(20);
        pq.enqueue(1, 15);
        pq.enqueue(2, INFINITE);
        assert_eq!(pq.top_priority(), 15);
        let mut out = Vec::new();
        pq.dequeue_batch(10, &mut out);
        assert_eq!(out, vec![(1, 15), (2, INFINITE)]);
    }

    #[test]
    #[should_panic(expected = "> max_step")]
    fn rejects_out_of_range_priority() {
        let pq = TwoLevelPq::new(10);
        pq.enqueue(1, 11);
    }

    #[test]
    fn dequeue_batch_respects_max() {
        let pq = TwoLevelPq::new(10);
        for k in 0..20 {
            pq.enqueue(k, (k % 5) as Priority);
        }
        let mut out = Vec::new();
        pq.dequeue_batch(7, &mut out);
        assert_eq!(out.len(), 7);
        assert_eq!(pq.len(), 13);
        // Must have taken the smallest priorities first.
        assert!(out.iter().all(|&(_, p)| p <= 2));
    }

    #[test]
    fn concurrent_producers_and_flushers_lose_nothing() {
        let pq = Arc::new(TwoLevelPq::new(1_000));
        let producers: Vec<_> = (0..3u64)
            .map(|t| {
                let pq = Arc::clone(&pq);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        pq.enqueue(t * 2_000 + i, i % 1_000);
                    }
                })
            })
            .collect();
        let flushers: Vec<_> = (0..2)
            .map(|_| {
                let pq = Arc::clone(&pq);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut idle = 0;
                    while idle < 1_000 {
                        let before = got.len();
                        pq.dequeue_batch(64, &mut got);
                        if got.len() == before {
                            idle += 1;
                            std::thread::yield_now();
                        } else {
                            idle = 0;
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = flushers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .map(|(k, _)| k)
            .collect();
        // Drain stragglers.
        let mut rest = Vec::new();
        pq.dequeue_batch(usize::MAX, &mut rest);
        all.extend(rest.iter().map(|&(k, _)| k));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 6_000, "lost or duplicated entries");
        assert!(pq.is_empty());
    }

    #[test]
    fn enqueue_batch_matches_sequential() {
        let a = TwoLevelPq::new(50);
        let b = TwoLevelPq::new(50);
        let items: Vec<(u64, Priority)> = (0..40u64)
            .map(|k| (k, if k % 7 == 0 { INFINITE } else { k % 13 }))
            .collect();
        for &(k, p) in &items {
            a.enqueue(k, p);
        }
        b.enqueue_batch(&items);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.top_priority(), b.top_priority());
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        a.dequeue_batch(usize::MAX, &mut oa);
        b.dequeue_batch(usize::MAX, &mut ob);
        oa.sort_unstable();
        ob.sort_unstable();
        assert_eq!(oa, ob);
    }

    #[test]
    fn adjust_batch_matches_sequential() {
        let a = TwoLevelPq::new(50);
        let b = TwoLevelPq::new(50);
        for k in 0..20u64 {
            a.enqueue(k, 40);
            b.enqueue(k, 40);
        }
        let moves: Vec<(u64, Priority, Priority)> = (0..20u64)
            .map(|k| {
                (
                    k,
                    40,
                    match k % 3 {
                        0 => k % 5,
                        1 => 40, // no-op move
                        _ => INFINITE,
                    },
                )
            })
            .collect();
        for &(k, o, n) in &moves {
            a.adjust(k, o, n);
        }
        b.adjust_batch(&moves);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.top_priority(), b.top_priority());
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        a.dequeue_batch(usize::MAX, &mut oa);
        b.dequeue_batch(usize::MAX, &mut ob);
        oa.sort_unstable();
        ob.sort_unstable();
        assert_eq!(oa, ob);
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn enqueue_batch_lowers_bound_after_raise() {
        // The single note_insert(batch-min) must pull a previously raised
        // scan bound back down below every batch entry.
        let pq = TwoLevelPq::new(100);
        pq.enqueue(1, 60);
        let mut out = Vec::new();
        pq.dequeue_batch(1, &mut out); // raises the lower bound to 60
        pq.enqueue_batch(&[(2, 30), (3, 10), (4, 45)]);
        assert_eq!(pq.top_priority(), 10);
        out.clear();
        pq.dequeue_batch(usize::MAX, &mut out);
        assert_eq!(out, vec![(3, 10), (2, 30), (4, 45)]);
    }

    #[test]
    fn concurrent_batch_registration_loses_nothing() {
        // Two "trainers" registering disjoint batches while a flusher
        // drains: every key must surface exactly once (modulo the stale
        // copies adjust_batch leaves, which dedup removes).
        let pq = Arc::new(TwoLevelPq::new(1_000));
        let regs: Vec<_> = (0..2u64)
            .map(|t| {
                let pq = Arc::clone(&pq);
                std::thread::spawn(move || {
                    for round in 0..200u64 {
                        let base = t * 100_000 + round * 100;
                        let items: Vec<(u64, Priority)> =
                            (0..32).map(|i| (base + i, (round + i) % 900)).collect();
                        pq.enqueue_batch(&items);
                        let moves: Vec<(u64, Priority, Priority)> =
                            items.iter().map(|&(k, p)| (k, p, (p + 7) % 900)).collect();
                        pq.adjust_batch(&moves);
                    }
                })
            })
            .collect();
        let flusher = {
            let pq = Arc::clone(&pq);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut idle = 0;
                while idle < 500 {
                    let before = got.len();
                    pq.dequeue_batch(64, &mut got);
                    if got.len() == before {
                        idle += 1;
                        std::thread::yield_now();
                    } else {
                        idle = 0;
                    }
                }
                got
            })
        };
        for r in regs {
            r.join().unwrap();
        }
        let mut keys: Vec<u64> = flusher
            .join()
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let mut rest = Vec::new();
        pq.dequeue_batch(usize::MAX, &mut rest);
        keys.extend(rest.into_iter().map(|(k, _)| k));
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 2 * 200 * 32, "every registered key surfaced");
    }

    #[test]
    fn adjust_out_of_a_recycled_bucket_counts_the_new_copy() {
        // A dequeuer took key 1 at priority 1, and the drained bucket has
        // since been refilled with key 9. The registrant's adjust (it has
        // not seen the claim yet) must neither find nor disturb anything
        // there, and must count the copy it inserted.
        let pq = TwoLevelPq::new(100);
        pq.enqueue(1, 1);
        let mut out = Vec::new();
        pq.dequeue_batch(1, &mut out);
        pq.enqueue(9, 1);
        pq.adjust(1, 1, 6);
        assert_eq!(pq.len(), 2);
        out.clear();
        pq.dequeue_batch(8, &mut out);
        assert_eq!(out, vec![(9, 1), (1, 6)]);
    }

    #[test]
    fn debug_formats() {
        let pq = TwoLevelPq::new(5);
        pq.enqueue(1, 1);
        let s = format!("{pq:?}");
        assert!(s.contains("TwoLevelPq") && s.contains("len"));
    }
}
