//! A lock-free concurrent set of keys, used as the second level of the
//! two-level priority queue (paper §3.4).
//!
//! The paper uses a "lock-free dynamic scalable hash table" \[34\] for the
//! g-entries sharing one priority. This implementation keeps the same
//! properties with a simpler structure: a chain of open-addressing segments
//! whose slots are `AtomicU64`s. Segment capacities grow geometrically
//! (64, 128, 256, …), so a set of `n` keys has O(log n) segments; each
//! segment tracks its occupancy so full segments are skipped with one
//! atomic load. Insertion CASes an empty (or tombstoned) slot; when every
//! segment is full, a new segment is appended with a single CAS on the
//! chain — the set grows dynamically without ever taking a lock. Removal
//! tombstones the slot; tombstones are reusable, which bounds memory by the
//! peak population rather than total traffic.
//!
//! Insertion is *run-native*: [`LockFreeSet::insert_run`] places a whole
//! slice of keys for the price of one `len` update, one occupancy
//! reservation per segment it lands in, and one slot CAS per key — the
//! registration path hands the set a shard's worth of same-priority keys at
//! a time, and the counters are lines the registering trainers and the
//! dequeuing flusher all write. [`LockFreeSet::insert`] is the run of one.
//! Extraction is batch-native the same way ([`LockFreeSet::take_any`]
//! settles each counter once per call) and resumes where the previous call
//! stopped, so draining a large, mostly-tombstoned set does not rescan its
//! dead prefix on every call.

#[cfg(feature = "sched")]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Capacity of the first segment; later segments double.
const FIRST_SEGMENT_SLOTS: usize = 64;
/// Cap on individual segment size (beyond this, append same-size segments).
const MAX_SEGMENT_SLOTS: usize = 64 * 1024;
// Every capacity is a power of two: probe sequences wrap with a mask.
const _: () = assert!(FIRST_SEGMENT_SLOTS.is_power_of_two() && MAX_SEGMENT_SLOTS.is_power_of_two());

const EMPTY: u64 = 0;
const TOMBSTONE: u64 = u64::MAX;

fn encode(key: u64) -> u64 {
    // Shift keys by one so 0 can mean "empty". Keys of u64::MAX-1 and above
    // are rejected at the API boundary.
    key + 1
}

fn decode(slot: u64) -> u64 {
    slot - 1
}

fn hash(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Segment {
    slots: Box<[AtomicU64]>,
    /// Occupied (non-empty, non-tombstone) slots; heuristic for skip-full.
    occupied: AtomicUsize,
    /// Slot at which the next [`LockFreeSet::take_any`] starts its lap of
    /// this segment. A hint only (relaxed, racy between takers): every lap
    /// visits every slot once wherever it starts.
    take_cursor: AtomicUsize,
    next: AtomicPtr<Segment>,
}

impl Segment {
    fn new(capacity: usize) -> Box<Self> {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || AtomicU64::new(EMPTY));
        Box::new(Segment {
            slots: slots.into_boxed_slice(),
            occupied: AtomicUsize::new(0),
            take_cursor: AtomicUsize::new(0),
            next: AtomicPtr::new(std::ptr::null_mut()),
        })
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The `i`-th slot of the probe sequence of a key hashing to `home`.
    /// Capacities are powers of two, so the wrap is a mask, not a division
    /// per probe.
    fn probe(&self, home: u64, i: usize) -> &AtomicU64 {
        &self.slots[(home as usize).wrapping_add(i) & (self.capacity() - 1)]
    }

    /// Occupancy at which the segment stops admitting keys: a little slack
    /// is left so probes stay short near fullness.
    fn admit_limit(&self) -> usize {
        self.capacity() - self.capacity() / 16
    }

    /// CASes `enc` into the first free (empty or tombstoned) slot of
    /// `key`'s probe sequence; false if a whole lap found none.
    fn claim_slot(&self, enc: u64, key: u64) -> bool {
        let home = hash(key);
        for i in 0..self.capacity() {
            let slot = self.probe(home, i);
            let mut cur = slot.load(Ordering::Acquire);
            while cur == EMPTY || cur == TOMBSTONE {
                match slot.compare_exchange_weak(cur, enc, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return true,
                    Err(now) => cur = now,
                }
            }
        }
        false
    }
}

/// A lock-free, dynamically growing set of `u64` keys.
///
/// The head segment is allocated lazily, so an empty set costs only a few
/// words — the priority index holds one set per training step.
///
/// # Counter discipline
///
/// `len` and per-segment `occupied` follow the *conservative counter* rule:
/// increment **before** a key becomes visible (the slot CAS), decrement
/// **after** it stops being visible (the tombstone CAS). Counters may
/// transiently over-count mid-operation, never under-count — so a reader
/// that can find a key via [`Self::contains`] is guaranteed
/// `!is_empty()`, which the P²F wait condition relies on when it treats an
/// empty bucket as "no pending flush at this priority".
///
/// The rule says nothing about *how many* keys one update covers, so both
/// directions batch: a run of `n` keys adds `n` to `len` once, before its
/// first slot CAS, and reserves in `occupied` the part of the run a
/// segment will take before the first CAS into that segment (a reservation
/// the segment cannot honour is returned before any CAS, one a lost slot
/// race leaves unused right after — over-counted in between, never
/// under); a `take_any` subtracts what it tombstoned once per segment and
/// once per call, afterwards.
pub struct LockFreeSet {
    head: AtomicPtr<Segment>,
    len: AtomicUsize,
    /// Test-only: reverts insert to the historical publish-then-count
    /// order (slot CAS before `len`/`occupied` increments), reopening the
    /// visibility window for the schedule explorer to demonstrate.
    #[cfg(feature = "sched")]
    bug_publish_window: AtomicBool,
}

impl Default for LockFreeSet {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LockFreeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockFreeSet")
            .field("len", &self.len())
            .finish()
    }
}

impl LockFreeSet {
    /// Creates an empty set without allocating any segment.
    pub const fn new() -> Self {
        LockFreeSet {
            head: AtomicPtr::new(std::ptr::null_mut()),
            len: AtomicUsize::new(0),
            #[cfg(feature = "sched")]
            bug_publish_window: AtomicBool::new(false),
        }
    }

    /// Test-only: reverts [`Self::insert`] to the historical
    /// publish-then-count order so the schedule explorer can replay the
    /// occupancy-visibility race it fixes (DESIGN.md §8).
    #[cfg(feature = "sched")]
    pub fn set_bug_publish_window(&self, on: bool) {
        self.bug_publish_window.store(on, Ordering::SeqCst);
    }

    #[cfg(feature = "sched")]
    fn bug_publish_window(&self) -> bool {
        self.bug_publish_window.load(Ordering::Relaxed)
    }

    #[cfg(not(feature = "sched"))]
    fn bug_publish_window(&self) -> bool {
        false
    }

    /// Approximate number of keys currently in the set. Never
    /// under-counts: a key findable by [`Self::contains`] is already
    /// counted. Exact when quiescent.
    pub fn len(&self) -> usize {
        sched_point!("lfs.len.load");
        self.len.load(Ordering::Acquire)
    }

    /// True if the set is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn head_or_install(&self) -> *mut Segment {
        let mut head = self.head.load(Ordering::Acquire);
        if head.is_null() {
            let fresh = Box::into_raw(Segment::new(FIRST_SEGMENT_SLOTS));
            match self.head.compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => head = fresh,
                Err(existing) => {
                    // Somebody else installed a head; free ours.
                    // SAFETY: `fresh` was never published.
                    unsafe { drop(Box::from_raw(fresh)) };
                    head = existing;
                }
            }
        }
        head
    }

    /// Places a prefix of `items` into `seg` and returns its length.
    ///
    /// A segment that reads full is passed by on a plain load — no write to
    /// a line every inserter and the dequeuer share. Otherwise the segment's
    /// share of the run is *reserved* in `occupied` with one `fetch_add`
    /// before any slot CAS, and whatever exceeds the admit limit is handed
    /// straight back, per the conservative counter rule: a visible key must
    /// already be counted, or [`Self::take_any`] could pass over a segment
    /// that holds it.
    fn insert_run_segment<T>(
        &self,
        seg: &Segment,
        items: &[T],
        key_of: &impl Fn(&T) -> u64,
    ) -> usize {
        let buggy = self.bug_publish_window();
        let limit = seg.admit_limit();
        let seen = seg.occupied.load(Ordering::Acquire);
        if seen >= limit {
            return 0;
        }
        let granted = if buggy {
            (limit - seen).min(items.len())
        } else {
            let prev = seg.occupied.fetch_add(items.len(), Ordering::AcqRel);
            let granted = limit.saturating_sub(prev).min(items.len());
            if granted < items.len() {
                seg.occupied
                    .fetch_sub(items.len() - granted, Ordering::AcqRel);
            }
            if granted == 0 {
                return 0;
            }
            sched_point!("lfs.insert.occupied_reserved");
            granted
        };
        let mut placed = 0;
        for item in &items[..granted] {
            let key = key_of(item);
            if !seg.claim_slot(encode(key), key) {
                break;
            }
            sched_point!("lfs.insert.slot_cas");
            if buggy {
                // Historical order: count after publishing.
                seg.occupied.fetch_add(1, Ordering::AcqRel);
            }
            placed += 1;
        }
        if !buggy && placed < granted {
            // Racing inserters took every free slot of a lap: the unused
            // reservation goes back and the rest of the run moves on.
            seg.occupied.fetch_sub(granted - placed, Ordering::AcqRel);
        }
        placed
    }

    /// Inserts `key`: [`Self::insert_run`] of one key. The caller
    /// guarantees `key` is not already present (the priority-queue layer
    /// keeps each g-entry in one slot per bucket).
    ///
    /// # Panics
    ///
    /// Panics if `key >= u64::MAX - 1` (reserved encodings).
    pub fn insert(&self, key: u64) {
        self.insert_run(std::slice::from_ref(&key));
    }

    /// Inserts every key of `keys`, none of which may be present already or
    /// repeat within the run. `len` is counted once for the whole run before
    /// any key is visible, each segment the run lands in is charged one
    /// reservation, and each key one slot CAS — see the counter discipline
    /// on [`LockFreeSet`].
    ///
    /// # Panics
    ///
    /// Panics if any key is `>= u64::MAX - 1` (reserved encodings); nothing
    /// has been inserted or counted by then.
    pub fn insert_run(&self, keys: &[u64]) {
        self.insert_run_by(keys, |&key| key);
    }

    /// [`Self::insert_run`] over any slice that carries its keys: the queue
    /// layer's `(key, priority)` and `(key, old, new)` items go in without
    /// being copied out first.
    pub(crate) fn insert_run_by<T>(&self, items: &[T], key_of: impl Fn(&T) -> u64) {
        if items.is_empty() {
            return;
        }
        for item in items {
            assert!(
                key_of(item) < u64::MAX - 1,
                "key too large (reserved encoding)"
            );
        }
        let buggy = self.bug_publish_window();
        if !buggy {
            // Count before any key can become visible (insert cannot fail,
            // so this never rolls back). The historical order — slot CAS
            // first, count after — left a window where `contains(key)` was
            // true while `is_empty()` reported empty, which the P²F wait
            // condition reads as "nothing pending at this priority".
            self.len.fetch_add(items.len(), Ordering::AcqRel);
            sched_point!("lfs.insert.len_published");
        }
        let mut rest = items;
        let mut seg_ptr = self.head_or_install();
        loop {
            // SAFETY: segments are never freed while the set is alive.
            let seg = unsafe { &*seg_ptr };
            rest = &rest[self.insert_run_segment(seg, rest, &key_of)..];
            if rest.is_empty() {
                break;
            }
            // Segment (effectively) full: walk or append the chain with a
            // doubled capacity, so chains stay O(log n).
            let next = seg.next.load(Ordering::Acquire);
            if next.is_null() {
                let cap = (seg.capacity() * 2).min(MAX_SEGMENT_SLOTS);
                let fresh = Box::into_raw(Segment::new(cap));
                match seg.next.compare_exchange(
                    std::ptr::null_mut(),
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => seg_ptr = fresh,
                    Err(existing) => {
                        // SAFETY: `fresh` was never published.
                        unsafe { drop(Box::from_raw(fresh)) };
                        seg_ptr = existing;
                    }
                }
            } else {
                seg_ptr = next;
            }
        }
        if buggy {
            sched_point!("lfs.insert.bug_window");
            self.len.fetch_add(items.len(), Ordering::AcqRel);
        }
    }

    /// Removes `key` if present; returns whether it was found.
    pub fn remove(&self, key: u64) -> bool {
        let enc = encode(key);
        let home = hash(key);
        let mut seg_ptr = self.head.load(Ordering::Acquire);
        while !seg_ptr.is_null() {
            // SAFETY: segments are never freed while the set is alive.
            let seg = unsafe { &*seg_ptr };
            for i in 0..seg.capacity() {
                let slot = seg.probe(home, i);
                let cur = slot.load(Ordering::Acquire);
                if cur == enc
                    && slot
                        .compare_exchange(enc, TOMBSTONE, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    // Conservative counters: decrement only after the key
                    // stopped being visible (the tombstone CAS above).
                    sched_point!("lfs.remove.tombstoned");
                    seg.occupied.fetch_sub(1, Ordering::AcqRel);
                    self.len.fetch_sub(1, Ordering::AcqRel);
                    return true;
                }
                // An EMPTY slot ends this key's probe run in this segment
                // (inserts never skip an empty slot).
                if cur == EMPTY {
                    break;
                }
            }
            seg_ptr = seg.next.load(Ordering::Acquire);
        }
        false
    }

    /// Atomically removes up to `max` keys, appending them to `out`.
    /// Returns how many were taken.
    pub fn take_any(&self, max: usize, out: &mut Vec<u64>) -> usize {
        self.take_any_with(max, |key| out.push(key))
    }

    /// Atomically removes up to `max` keys, handing each to `sink`. Returns
    /// how many were taken.
    ///
    /// The counters are settled once per segment (`occupied`) and once per
    /// call (`len`), after the tombstone CASes: the conservative rule only
    /// forbids decrementing *before* a key stops being visible, so batching
    /// the decrements is the safe direction and saves two atomic
    /// read-modify-writes per dequeued key.
    ///
    /// Each segment is scanned for one lap starting where the last taker
    /// stopped: a set that is drained a batch at a time (the ∞ bucket)
    /// keeps its live keys ahead of the cursor, not behind a
    /// prefix of tombstones every call would cross again.
    pub(crate) fn take_any_with(&self, max: usize, mut sink: impl FnMut(u64)) -> usize {
        if max == 0 || self.is_empty() {
            return 0;
        }
        let mut taken = 0;
        let mut seg_ptr = self.head.load(Ordering::Acquire);
        while !seg_ptr.is_null() && taken < max {
            // SAFETY: segments are never freed while the set is alive.
            let seg = unsafe { &*seg_ptr };
            if seg.occupied.load(Ordering::Acquire) > 0 {
                let before = taken;
                let cap = seg.capacity();
                let mut i = seg.take_cursor.load(Ordering::Relaxed) & (cap - 1);
                for _ in 0..cap {
                    if taken >= max {
                        break;
                    }
                    let slot = &seg.slots[i];
                    let cur = slot.load(Ordering::Acquire);
                    if cur != EMPTY
                        && cur != TOMBSTONE
                        && slot
                            .compare_exchange(cur, TOMBSTONE, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                    {
                        sched_point!("lfs.take.tombstoned");
                        sink(decode(cur));
                        taken += 1;
                    }
                    i += 1;
                    if i == cap {
                        i = 0;
                    }
                }
                if taken > before {
                    seg.take_cursor.store(i, Ordering::Relaxed);
                    seg.occupied.fetch_sub(taken - before, Ordering::AcqRel);
                }
            }
            seg_ptr = seg.next.load(Ordering::Acquire);
        }
        if taken > 0 {
            self.len.fetch_sub(taken, Ordering::AcqRel);
        }
        taken
    }

    /// Non-destructive best-effort peek: some key currently in the set,
    /// or `None` if it looks empty. The key may be removed concurrently
    /// before the caller uses it — provenance/diagnostics only.
    pub fn peek_any(&self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let mut seg_ptr = self.head.load(Ordering::Acquire);
        while !seg_ptr.is_null() {
            // SAFETY: segments are never freed while the set is alive.
            let seg = unsafe { &*seg_ptr };
            if seg.occupied.load(Ordering::Acquire) > 0 {
                for slot in seg.slots.iter() {
                    let cur = slot.load(Ordering::Acquire);
                    if cur != EMPTY && cur != TOMBSTONE {
                        return Some(decode(cur));
                    }
                }
            }
            seg_ptr = seg.next.load(Ordering::Acquire);
        }
        None
    }

    /// True if `key` is currently present (linearizable at some point during
    /// the call).
    pub fn contains(&self, key: u64) -> bool {
        sched_point!("lfs.contains.scan");
        let enc = encode(key);
        let home = hash(key);
        let mut seg_ptr = self.head.load(Ordering::Acquire);
        while !seg_ptr.is_null() {
            // SAFETY: segments are never freed while the set is alive.
            let seg = unsafe { &*seg_ptr };
            for i in 0..seg.capacity() {
                let cur = seg.probe(home, i).load(Ordering::Acquire);
                if cur == enc {
                    return true;
                }
                if cur == EMPTY {
                    break;
                }
            }
            seg_ptr = seg.next.load(Ordering::Acquire);
        }
        false
    }

    /// Heap bytes this set holds: every segment of its chain (the header
    /// lives wherever the owner put the set).
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = 0;
        let mut seg_ptr = self.head.load(Ordering::Acquire);
        while !seg_ptr.is_null() {
            // SAFETY: segments are never freed while the set is alive.
            let seg = unsafe { &*seg_ptr };
            bytes +=
                std::mem::size_of::<Segment>() + seg.capacity() * std::mem::size_of::<AtomicU64>();
            seg_ptr = seg.next.load(Ordering::Acquire);
        }
        bytes
    }
}

impl Drop for LockFreeSet {
    fn drop(&mut self) {
        let mut seg_ptr = *self.head.get_mut();
        while !seg_ptr.is_null() {
            // SAFETY: we have exclusive access in drop; the chain is a
            // singly linked list of Box-allocated segments.
            let seg = unsafe { Box::from_raw(seg_ptr) };
            seg_ptr = seg.next.load(Ordering::Relaxed);
        }
    }
}

// SAFETY: all shared state is atomics; segments are only freed on drop.
unsafe impl Send for LockFreeSet {}
unsafe impl Sync for LockFreeSet {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn peek_any_is_nondestructive() {
        let s = LockFreeSet::new();
        assert_eq!(s.peek_any(), None);
        s.insert(42);
        assert_eq!(s.peek_any(), Some(42));
        assert_eq!(s.peek_any(), Some(42));
        assert_eq!(s.len(), 1);
        s.remove(42);
        assert_eq!(s.peek_any(), None);
    }

    #[test]
    fn insert_remove_contains() {
        let s = LockFreeSet::new();
        assert!(s.is_empty());
        s.insert(42);
        assert!(s.contains(42));
        assert_eq!(s.len(), 1);
        assert!(s.remove(42));
        assert!(!s.contains(42));
        assert!(!s.remove(42));
        assert!(s.is_empty());
    }

    #[test]
    fn key_zero_is_valid() {
        let s = LockFreeSet::new();
        s.insert(0);
        assert!(s.contains(0));
        assert!(s.remove(0));
    }

    #[test]
    #[should_panic(expected = "key too large")]
    fn rejects_reserved_keys() {
        LockFreeSet::new().insert(u64::MAX);
    }

    #[test]
    fn grows_beyond_one_segment() {
        let s = LockFreeSet::new();
        for k in 0..10_000 {
            s.insert(k);
        }
        assert_eq!(s.len(), 10_000);
        for k in 0..10_000 {
            assert!(s.contains(k), "missing {k}");
        }
        for k in 0..10_000 {
            assert!(s.remove(k), "cannot remove {k}");
        }
        assert!(s.is_empty());
    }

    #[test]
    fn large_population_insert_is_not_quadratic() {
        // 200k inserts must complete quickly; with fixed-size segment
        // chains this regresses to O(n^2) and takes minutes.
        let s = LockFreeSet::new();
        let t0 = std::time::Instant::now();
        for k in 0..200_000 {
            s.insert(k);
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "insert too slow: {:?}",
            t0.elapsed()
        );
        assert_eq!(s.len(), 200_000);
    }

    #[test]
    fn tombstones_are_reused() {
        let s = LockFreeSet::new();
        // Churn the same small population far beyond one segment's capacity;
        // if tombstones were not reused this would chain thousands of
        // segments and contains() would slow to a crawl.
        for round in 0..10_000u64 {
            let k = round % 8;
            s.insert(k);
            assert!(s.remove(k));
        }
        assert!(s.is_empty());
    }

    /// `occupied` of every segment of the chain, head first.
    fn occupancies(s: &LockFreeSet) -> Vec<usize> {
        let mut out = Vec::new();
        let mut seg_ptr = s.head.load(Ordering::Acquire);
        while !seg_ptr.is_null() {
            // SAFETY: the set is alive and owns its chain.
            let seg = unsafe { &*seg_ptr };
            out.push(seg.occupied.load(Ordering::Acquire));
            seg_ptr = seg.next.load(Ordering::Acquire);
        }
        out
    }

    #[test]
    fn a_run_fills_segments_to_their_slack_and_hands_back_the_rest() {
        // 100 keys into a fresh chain: the head admits 60 of its 64 slots
        // (1/16 slack), so the run straddles into the 128-slot segment. The
        // head was asked for all 100; the 40 it could not take must be back
        // off its count, or it reads fuller than it is forever.
        let run: Vec<u64> = (0..100).collect();
        let s = LockFreeSet::new();
        s.insert_run(&run);
        assert_eq!(s.len(), 100);
        assert_eq!(occupancies(&s), vec![60, 40]);
        assert!(run.iter().all(|&k| s.contains(k)));
        // The same keys one at a time land the same way.
        let one_by_one = LockFreeSet::new();
        for &k in &run {
            one_by_one.insert(k);
        }
        assert_eq!(occupancies(&one_by_one), vec![60, 40]);
        // A full head is passed by without touching its count; freed room
        // is found again.
        s.insert_run(&[100, 101]);
        assert_eq!(occupancies(&s), vec![60, 42]);
        let mut out = Vec::new();
        assert_eq!(s.take_any(10, &mut out), 10);
        assert_eq!(occupancies(&s), vec![50, 42]);
        s.insert_run(&(200..230).collect::<Vec<_>>());
        assert_eq!(occupancies(&s), vec![60, 62]);
        assert_eq!(s.len(), 122);
        s.insert_run(&[]);
        assert_eq!(s.len(), 122);
    }

    #[test]
    #[should_panic(expected = "key too large")]
    fn a_run_with_a_reserved_key_inserts_nothing() {
        let s = LockFreeSet::new();
        let caught = std::panic::catch_unwind(|| s.insert_run(&[1, 2, u64::MAX - 1]));
        assert!(s.is_empty() && !s.contains(1), "counted or published early");
        std::panic::resume_unwind(caught.unwrap_err());
    }

    #[test]
    fn take_any_resumes_where_the_last_call_stopped() {
        // Drained two keys at a time while three keep arriving: each call
        // carries on from the last call's slot instead of from slot 0, and
        // still nothing is taken twice, nothing is skipped for good, and a
        // lap that starts mid-segment wraps.
        let s = LockFreeSet::new();
        let mut out = Vec::new();
        let mut next = 0u64;
        for _ in 0..200 {
            s.insert_run(&[next, next + 1, next + 2]);
            next += 3;
            assert_eq!(s.take_any(2, &mut out), 2);
        }
        assert_eq!(s.len(), 200);
        assert_eq!(occupancies(&s).iter().sum::<usize>(), 200);
        assert_eq!(s.take_any(usize::MAX, &mut out), 200);
        out.sort_unstable();
        assert_eq!(out, (0..next).collect::<Vec<_>>());
        assert!(s.is_empty());
    }

    #[test]
    fn take_any_drains() {
        let s = LockFreeSet::new();
        for k in 0..100 {
            s.insert(k);
        }
        let mut out = Vec::new();
        let got = s.take_any(30, &mut out);
        assert_eq!(got, 30);
        assert_eq!(out.len(), 30);
        assert_eq!(s.len(), 70);
        let got = s.take_any(1_000, &mut out);
        assert_eq!(got, 70);
        let mut all = out.clone();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 100, "duplicates or losses in take_any");
    }

    #[test]
    fn take_any_zero_is_noop() {
        let s = LockFreeSet::new();
        s.insert(1);
        let mut out = Vec::new();
        assert_eq!(s.take_any(0, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn concurrent_insert_remove_is_lossless() {
        let s = Arc::new(LockFreeSet::new());
        let threads = 4;
        let per = 2_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..per {
                        s.insert(t * per + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), (threads * per) as usize);

        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut removed = 0;
                    for i in 0..per {
                        if s.remove(t * per + i) {
                            removed += 1;
                        }
                    }
                    removed
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, threads * per);
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_takers_share_without_duplication() {
        let s = Arc::new(LockFreeSet::new());
        for k in 0..4_000 {
            s.insert(k);
        }
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        if s.take_any(64, &mut out) == 0 && s.is_empty() {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4_000, "lost or duplicated keys");
    }

    #[test]
    fn debug_is_nonempty() {
        let s = LockFreeSet::new();
        s.insert(3);
        assert!(format!("{s:?}").contains("len"));
    }
}
