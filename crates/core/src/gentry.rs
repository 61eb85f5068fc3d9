//! g-entries: per-parameter metadata of the P²F algorithm (paper §3.3),
//! and the flush queue that orders them (paper §3.4).
//!
//! Each parameter with upcoming reads or pending updates has a g-entry:
//!
//! * `R set` — future training steps that will read the parameter (filled
//!   by the controller's `L`-step lookahead).
//! * `W set` — pending `(step, Δ)` updates not yet flushed to host memory.
//! * `priority` — Equation (1): `min(R)` while `W ≠ ∅`, else ∞.
//!
//! The store keeps g-entries in sharded open-addressing tables. Only entries
//! with pending writes are queued — entries with `W = ∅` have nothing to
//! flush and, by Equation (1), priority ∞, so keeping them out changes no
//! observable behaviour. Registration has two sinks for the queue
//! operations it produces, behind one routine:
//!
//! * **the shard queue** ([`GEntryStore::queue_writes`],
//!   [`GEntryStore::queue_reads`]) — the engine's. Each shard keeps the
//!   paper's two-level shape itself: a ring of priority buckets plus an ∞
//!   bucket, each a plain `Vec` of keys, pushed under the shard lock that
//!   registration already holds. A per-bucket mask of the shards holding
//!   entries is the priority index: [`GEntryStore::top_priority`] and the
//!   flusher's [`GEntryStore::mark_lowest`] read it without a lock, and
//!   [`GEntryStore::claim_marked`] takes and claims a shard's bucket in one
//!   lock hold, so dequeue and claim are one step.
//! * **an external [`PriorityQueue`]** ([`GEntryStore::add_writes_batch`],
//!   [`GEntryStore::add_reads_batch`]) — for callers that time or test a
//!   queue of their own, with [`GEntryStore::take_writes_into`] as the
//!   matching claim. The paper's insert-into-new-before-delete-from-old
//!   ordering is delegated to [`PriorityQueue::adjust`].
//!
//! # The shard queue
//!
//! A move (an entry whose priority changes while it is queued) pushes the
//! key into its new bucket and leaves the old copy behind: lazy deletion.
//! A claim validates each key it takes against the entry's current
//! priority, so the old copy is skipped as stale. No copy is ever the only
//! one of a pending key: every priority an entry takes is pushed into its
//! bucket, and a taken bucket claims every key whose priority maps to it.
//! In an engine run a move is only ever ∞ → a finite read step (a key
//! written at step `s` has no pending write left: the step-`s` wait flushed
//! it), so only the ∞ bucket ever holds stale copies.
//!
//! The ring has `window` buckets, rounded up to a power of two; priorities
//! `p` and `p + ring` share one. Each bucket's tag in the index is a lower
//! bound of the priorities queued in it, kept by the registrant that pushes
//! into it. It is exact while concurrent registrants keep every live finite
//! priority within `window` consecutive values — the engine's step-`s` wait
//! proves everything `≤ s` flushed before registration inserts into
//! `[s + 1, s + L]`, so `L + 2` buckets suffice. Only that wait needs exact
//! tags. A ring narrower than the live span — any ring under one thread,
//! or the engine's under the `skip_wait` failure injection, which skips the
//! wait — still drains: a claim takes every key whose current priority
//! maps to the bucket, so a bucket that holds two priorities flushes the
//! higher one early and loses nothing.
//!
//! # Compact layout (CriteoTB-scale memory)
//!
//! Earlier revisions kept one `BTreeSet<u64>` (R set) plus a `Vec` (W set)
//! per key inside a `HashMap` — ~150 bytes of resident metadata per live
//! key, which dominates host RAM at 10⁸-key tables. The store now keeps
//! three parallel arrays per shard, 24 bytes per slot:
//!
//! * `keys: [u64]` — open-addressing slots (linear probing, Fibonacci
//!   multiply-shift reduction, backward-shift deletion);
//! * `r_bits: [u64]` + `r_base: [u32]` — the R set as a
//!   [`READ_WINDOW`]-step bitset anchored at `r_base`. The engine registers
//!   each key's reads in step order, and the live ones lie within `L` steps
//!   of each other (`L` ≤ [`READ_WINDOW`], checked by
//!   [`FrugalConfig::validate`](crate::FrugalConfig::validate)), so the
//!   window slides up past consumed steps and always holds the whole set.
//! * `w_tail: [u32]` — `pool index + 1` of the entry's last pending write
//!   (0 = none). The writes themselves are `(step, row, next)` entries of a
//!   per-shard pool, one circular list per key (the last write links back
//!   to the first) and a free list through the same `next` field, so a
//!   registration or a claim touches one 24-byte entry, and a drained entry
//!   is reused by the next write.
//!
//! Two fields of the old layout are gone outright: the cached `priority`
//! (always recomputable from the R/W sets under the shard lock — every
//! mutation path kept it in sync, so recomputing is equivalent) and the
//! `in_pq` flag (an entry is queued *iff* it has pending writes: enqueue
//! happens on the ∅→W transition, claims drain W whole). Growth keeps the
//! table load factor in `[25/32, 7/8]`, bounding resident metadata below 32
//! bytes per live key at any size — measured by
//! [`GEntryStore::resident_bytes`] and recorded in DESIGN.md §14. Deletion
//! closes its hole by backward shift, so the table holds live keys and
//! `EMPTY` slots only: it rehashes when the *live* count outgrows it and
//! never otherwise, and capacity tracks the peak live count.

use frugal_data::Key;
use frugal_embed::FlushClaim;
use frugal_pq::{Priority, PriorityQueue, DEFERRED_CLAIM, INFINITE};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One parameter's pending updates, drained by a flushing thread.
///
/// Gradients are shared (`Arc`) because the same aggregated gradient also
/// travels to the owner GPU's cache-update list; sharing avoids cloning
/// every gradient on the training critical path.
pub type PendingWrites = Vec<(u64, Arc<[f32]>)>;

/// How a g-entry's queue priority derives from its R/W sets — the knob the
/// engine's flush strategies turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PriorityPolicy {
    /// Equation (1), the P²F policy: `min(R)` while `W ≠ ∅`, else ∞ — an
    /// entry's urgency is its earliest upcoming read.
    #[default]
    EarliestRead,
    /// The FIFO ablation: the earliest *pending write* step while `W ≠ ∅`,
    /// else ∞ — arrival-order flushing that ignores future reads. Under
    /// this policy a queued entry's priority never changes (its first
    /// pending write is fixed until a flusher claims the whole W set), so
    /// registration is pure enqueue — no moves at all.
    ArrivalOrder,
}

const SHARDS: usize = 64;

/// Width in steps of a g-entry's read window: the largest span of live
/// reads one key may hold, and so the largest lookahead a run may use.
pub const READ_WINDOW: u64 = 64;

/// Slot sentinel: never a real key.
const EMPTY: u64 = u64::MAX;
/// Grow when `(live + 1) * 8 >= capacity * 7`.
const GROW_NUM: usize = 7;
const GROW_DEN: usize = 8;
/// End of a pool list.
const NIL: u32 = u32::MAX;

/// Reusable scratch for the external-queue registration forms: the
/// priority-queue operations one shard's batch generates, staged so the
/// queue sees a single `enqueue_batch` + `adjust_batch` per shard instead
/// of one call per key. Owned by the caller so the loop never allocates
/// after warm-up.
#[derive(Debug, Default)]
pub struct PqOpScratch {
    enqueues: Vec<(Key, Priority)>,
    moves: Vec<(Key, Priority, Priority)>,
}

/// Where registration sends the queue operations it produces.
enum Sink<'a> {
    /// The store's own shard queue: pushed under the shard lock.
    Shards,
    /// A caller's queue, handed each shard's operations in one batch.
    External(&'a dyn PriorityQueue, &'a mut PqOpScratch),
}

/// One pending write: a pool entry, threaded into its key's circular list
/// while live and into the free list while free.
#[derive(Debug)]
struct PendingWrite {
    row: Option<Arc<[f32]>>,
    step: u32,
    next: u32,
}

/// A shard's pending writes, one entry per `(step, Δ)`, recycled through a
/// free list so the steady state allocates nothing.
#[derive(Debug)]
struct WritePool {
    entries: Vec<PendingWrite>,
    /// First free entry, [`NIL`] when every entry is live.
    free: u32,
}

impl WritePool {
    fn alloc(&mut self, step: u64, row: Arc<[f32]>) -> u32 {
        debug_assert!(step < u32::MAX as u64, "step exceeds 32 bits");
        let (row, step) = (Some(row), step as u32);
        match self.free {
            NIL => {
                let i = self.entries.len() as u32;
                assert!(i < NIL, "write pool full");
                self.entries.push(PendingWrite {
                    row,
                    step,
                    next: NIL,
                });
                i
            }
            i => {
                let e = &mut self.entries[i as usize];
                self.free = e.next;
                (e.row, e.step) = (row, step);
                i
            }
        }
    }
}

/// One shard's queue: priority `p` is queued in `buckets[p & (ring - 1)]`,
/// ∞ in the last bucket. Keys only — their priorities live in the table.
#[derive(Debug)]
struct ShardQueue {
    buckets: Box<[Vec<Key>]>,
    /// Per bucket, a lower bound of the priorities queued in it (exact
    /// in-window); meaningful while it holds keys.
    tags: Box<[Priority]>,
    /// Buckets the current registration run filled from empty.
    fresh: Vec<usize>,
}

impl ShardQueue {
    fn new(buckets: usize) -> Self {
        ShardQueue {
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            tags: vec![INFINITE; buckets].into_boxed_slice(),
            fresh: Vec::new(),
        }
    }

    /// Pushes `key` into the bucket of priority `p`.
    fn push(&mut self, index: &QueueIndex, key: Key, p: Priority) {
        let b = index.bucket_of(p);
        if self.buckets[b].is_empty() {
            self.tags[b] = p;
            self.fresh.push(b);
        } else if p < self.tags[b] {
            // Two priorities in one bucket: only outside the window.
            self.tags[b] = p;
            index.tags[b].fetch_min(p, Ordering::SeqCst);
        }
        self.buckets[b].push(key);
    }

    /// Publishes in `index` the buckets this run filled, once the run's
    /// keys are all in: a flusher that sees shard `sid`'s bit then finds
    /// the run done instead of queueing behind its lock.
    fn publish(&mut self, index: &QueueIndex, sid: usize) {
        for b in self.fresh.drain(..) {
            index.publish(b, self.tags[b], sid);
        }
    }
}

/// The priority index over every shard's queue: per bucket, a mask of the
/// shards whose bucket holds keys, and a lower bound of the priorities
/// queued there (exact in-window, see the module docs; ∞ for the last
/// bucket). Lock-free to read; written by registrants (set) and flushers
/// (clear) under the shard lock whose bit they change.
#[derive(Debug)]
struct QueueIndex {
    shards: Box<[AtomicU64]>,
    tags: Box<[AtomicU64]>,
}

impl QueueIndex {
    fn new(window: u64) -> Self {
        assert!(
            window > 0,
            "the queue window must hold at least one priority"
        );
        let n = window.next_power_of_two() as usize + 1;
        QueueIndex {
            shards: (0..n).map(|_| AtomicU64::new(0)).collect(),
            tags: (0..n).map(|_| AtomicU64::new(INFINITE)).collect(),
        }
    }

    /// The bucket priority `p` is queued in.
    #[inline]
    fn bucket_of(&self, p: Priority) -> usize {
        let ring = self.shards.len() - 1;
        if p == INFINITE {
            ring
        } else {
            (p as usize) & (ring - 1)
        }
    }

    /// Shard `sid`'s bucket `b` goes from empty to holding priority `p`.
    /// The tag is settled before the bit is published, so a reader that
    /// sees the bit sees a tag no higher than `p`.
    fn publish(&self, b: usize, p: Priority, sid: usize) {
        let tag = &self.tags[b];
        let cur = tag.load(Ordering::SeqCst);
        if cur != p {
            if self.shards[b].load(Ordering::SeqCst) == 0 {
                tag.store(p, Ordering::SeqCst);
            } else if p < cur {
                tag.fetch_min(p, Ordering::SeqCst);
            }
        }
        self.shards[b].fetch_or(1 << sid, Ordering::SeqCst);
    }

    /// The lowest queued bucket and its priority, ∞ last; `None` when no
    /// shard queues anything.
    fn lowest(&self) -> Option<(usize, Priority)> {
        let mut best = None;
        for (b, shards) in self.shards.iter().enumerate() {
            if shards.load(Ordering::SeqCst) != 0 {
                sched_point!("gentry.index.bucket");
                let p = self.tags[b].load(Ordering::SeqCst);
                if best.is_none_or(|(_, q)| p < q) {
                    best = Some((b, p));
                }
            }
        }
        best
    }
}

/// One shard: the parallel-array table, the write pool and the shard's
/// queue. All access is under the shard's mutex.
#[derive(Debug)]
struct Shard {
    /// Open-addressing slots; `EMPTY` marks a free one. Every live key is
    /// reachable from its home slot without crossing an `EMPTY`.
    keys: Box<[u64]>,
    /// R-set bitset window: bit `i` = read at step `r_base + i`.
    r_bits: Box<[u64]>,
    /// Window anchors (steps fit in 32 bits).
    r_base: Box<[u32]>,
    /// `pool index + 1` of the last pending write; 0 = no pending writes.
    w_tail: Box<[u32]>,
    /// Live entries.
    len: usize,
    pool: WritePool,
    queue: ShardQueue,
}

/// Fibonacci hash: multiplies the key onto the golden ratio so sequential
/// keys spread across the high bits the range reduction consumes.
#[inline]
fn mix(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Shard {
    fn new(buckets: usize) -> Self {
        Shard {
            keys: vec![EMPTY; 16].into_boxed_slice(),
            r_bits: vec![0; 16].into_boxed_slice(),
            r_base: vec![0; 16].into_boxed_slice(),
            w_tail: vec![0; 16].into_boxed_slice(),
            len: 0,
            pool: WritePool {
                entries: Vec::new(),
                free: NIL,
            },
            queue: ShardQueue::new(buckets),
        }
    }

    /// Start-of-probe slot for `key` in a table of `cap` slots: multiply-
    /// shift range reduction, so capacities need not be powers of two (the
    /// freedom that keeps the load factor — and bytes/key — tightly
    /// bounded across growth).
    #[inline]
    fn home(key: u64, cap: usize) -> usize {
        ((mix(key) as u128 * cap as u128) >> 64) as usize
    }

    #[inline]
    fn find(&self, key: Key) -> Option<usize> {
        debug_assert!(key != EMPTY, "key collides with slot sentinel");
        let cap = self.keys.len();
        let mut i = Self::home(key, cap);
        loop {
            match self.keys[i] {
                EMPTY => return None,
                k if k == key => return Some(i),
                _ => {}
            }
            i += 1;
            if i == cap {
                i = 0;
            }
        }
    }

    /// Slot of `key`, inserting a fresh (empty R/W) entry if absent. May
    /// rehash, so previously returned slot indices are invalidated.
    fn ensure(&mut self, key: Key) -> usize {
        debug_assert!(key != EMPTY, "key collides with slot sentinel");
        if (self.len + 1) * GROW_DEN >= self.keys.len() * GROW_NUM {
            self.grow();
        }
        let cap = self.keys.len();
        let mut i = Self::home(key, cap);
        loop {
            match self.keys[i] {
                EMPTY => {
                    self.keys[i] = key;
                    self.r_bits[i] = 0;
                    self.r_base[i] = 0;
                    self.w_tail[i] = 0;
                    self.len += 1;
                    return i;
                }
                k if k == key => return i,
                _ => {}
            }
            i += 1;
            if i == cap {
                i = 0;
            }
        }
    }

    /// Rehashes to a capacity targeting load factor 25/32 for the current
    /// live count. Together with the 7/8 grow threshold this keeps the live
    /// load in `[25/32, 7/8]` during pure growth — 24 bytes/slot lands
    /// between 27.4 and 30.7 bytes per key, independent of where the key
    /// count falls relative to a power of two. Only a live count at the
    /// threshold gets here, so the new capacity is always larger.
    fn grow(&mut self) {
        let target = (self.len + 1).max(8) * 32 / 25;
        let new_cap = target.max(16);
        debug_assert!(new_cap > self.keys.len(), "rehash without growth");
        let mut keys = vec![EMPTY; new_cap].into_boxed_slice();
        let mut r_bits = vec![0u64; new_cap].into_boxed_slice();
        let mut r_base = vec![0u32; new_cap].into_boxed_slice();
        let mut w_tail = vec![0u32; new_cap].into_boxed_slice();
        for old in 0..self.keys.len() {
            let k = self.keys[old];
            if k == EMPTY {
                continue;
            }
            let mut i = Self::home(k, new_cap);
            while keys[i] != EMPTY {
                i += 1;
                if i == new_cap {
                    i = 0;
                }
            }
            keys[i] = k;
            r_bits[i] = self.r_bits[old];
            r_base[i] = self.r_base[old];
            w_tail[i] = self.w_tail[old];
        }
        self.keys = keys;
        self.r_bits = r_bits;
        self.r_base = r_base;
        self.w_tail = w_tail;
    }

    /// Deletes the entry at `slot` (must be dead: R and W both empty) and
    /// closes the hole by backward shift: each later entry of the probe run
    /// moves into the hole unless its home slot lies cyclically in
    /// `(hole, entry]` — moving that one would put it before its home, out
    /// of reach of its own probe. The run's end (an `EMPTY`, which the 7/8
    /// load ceiling guarantees exists) becomes the new hole's terminator, so
    /// no probe run is ever cut and none grows with deletion traffic.
    fn remove(&mut self, slot: usize) {
        debug_assert!(self.r_is_empty(slot) && self.w_tail[slot] == 0);
        let cap = self.keys.len();
        let mut hole = slot;
        let mut i = slot;
        loop {
            i += 1;
            if i == cap {
                i = 0;
            }
            let k = self.keys[i];
            if k == EMPTY {
                break;
            }
            let home = Self::home(k, cap);
            let reachable_past_hole = if hole <= i {
                hole < home && home <= i
            } else {
                hole < home || home <= i
            };
            if !reachable_past_hole {
                self.keys[hole] = k;
                self.r_bits[hole] = self.r_bits[i];
                self.r_base[hole] = self.r_base[i];
                self.w_tail[hole] = self.w_tail[i];
                hole = i;
            }
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
    }

    // --- R set ---------------------------------------------------------

    /// Adds `step` to the R set. An empty window re-anchors at `step`; a
    /// read past the window's end slides it up over consumed (clear) low
    /// steps. Panics on a read the window cannot hold — below its base, or
    /// beyond a slide past its earliest live read — which no run whose
    /// lookahead passed [`FrugalConfig::validate`](crate::FrugalConfig::validate)
    /// registers.
    fn r_insert(&mut self, slot: usize, step: u64) {
        debug_assert!(step < u32::MAX as u64, "step exceeds 32-bit window base");
        let (base, bits) = (self.r_base[slot] as u64, self.r_bits[slot]);
        if bits == 0 {
            self.r_base[slot] = step as u32;
            self.r_bits[slot] = 1;
            return;
        }
        let shift = (step + 1).saturating_sub(base + READ_WINDOW);
        assert!(
            step >= base && shift <= bits.trailing_zeros() as u64,
            "read of key {} at step {step} outside its {READ_WINDOW}-step window at base {base}",
            self.keys[slot]
        );
        self.r_base[slot] = (base + shift) as u32;
        self.r_bits[slot] = (bits >> shift) | (1u64 << (step - base - shift));
    }

    fn r_remove(&mut self, slot: usize, step: u64) {
        let base = self.r_base[slot] as u64;
        if step >= base && step < base + READ_WINDOW {
            self.r_bits[slot] &= !(1u64 << (step - base));
        }
    }

    fn r_is_empty(&self, slot: usize) -> bool {
        self.r_bits[slot] == 0
    }

    fn r_contains(&self, slot: usize, step: u64) -> bool {
        let base = self.r_base[slot] as u64;
        step >= base
            && step < base + READ_WINDOW
            && self.r_bits[slot] & (1u64 << (step - base)) != 0
    }

    fn r_min(&self, slot: usize) -> Option<u64> {
        let bits = self.r_bits[slot];
        (bits != 0).then(|| self.r_base[slot] as u64 + bits.trailing_zeros() as u64)
    }

    // --- W set ---------------------------------------------------------

    /// Appends `(step, Δ)` to the W set: one pool entry, linked in after
    /// the last write and pointing back at the first.
    fn w_push(&mut self, slot: usize, step: u64, grad: Arc<[f32]>) {
        let new = self.pool.alloc(step, grad);
        let entries = &mut self.pool.entries;
        entries[new as usize].next = match self.w_tail[slot] {
            0 => new,
            t => std::mem::replace(&mut entries[(t - 1) as usize].next, new),
        };
        self.w_tail[slot] = new + 1;
    }

    /// Drains the W set into `out` (step order preserved) and returns how
    /// many updates were claimed. The entries return to the free list.
    fn w_take(&mut self, slot: usize, out: &mut PendingWrites) -> usize {
        let tail = match std::mem::take(&mut self.w_tail[slot]) {
            0 => return 0,
            t => t - 1,
        };
        let pool = &mut self.pool;
        let mut i = pool.entries[tail as usize].next;
        let mut n = 0;
        loop {
            let e = &mut pool.entries[i as usize];
            out.push((e.step as u64, e.row.take().expect("a live pool entry")));
            let next = std::mem::replace(&mut e.next, pool.free);
            pool.free = i;
            n += 1;
            if i == tail {
                return n;
            }
            i = next;
        }
    }

    /// First pending write's step (arrival-order priority); `None` if W=∅.
    fn w_first_step(&self, slot: usize) -> Option<u64> {
        let tail = self.w_tail[slot].checked_sub(1)?;
        let entries = &self.pool.entries;
        Some(entries[entries[tail as usize].next as usize].step as u64)
    }

    #[inline]
    fn has_writes(&self, slot: usize) -> bool {
        self.w_tail[slot] != 0
    }

    /// Equation (1) under `policy`. An entry is queued iff `W ≠ ∅`, and
    /// this is its authoritative queue priority while it is.
    fn priority(&self, slot: usize, policy: PriorityPolicy) -> Priority {
        if !self.has_writes(slot) {
            return INFINITE;
        }
        match policy {
            PriorityPolicy::EarliestRead => self.r_min(slot).unwrap_or(INFINITE),
            // W sets grow in step order, so the first element is the
            // earliest pending write.
            PriorityPolicy::ArrivalOrder => self.w_first_step(slot).unwrap_or(INFINITE),
        }
    }

    /// Claims the entry at `slot` if it is queued at `bucket` (or, with
    /// `bucket` `None`, at exactly `priority`): drains its W set into
    /// `out`, deletes it if no read is left, and returns how many writes it
    /// held — 0 for a stale claim.
    fn claim(
        &mut self,
        slot: usize,
        policy: PriorityPolicy,
        valid: impl FnOnce(Priority) -> bool,
        out: &mut PendingWrites,
    ) -> usize {
        // Stale claim (the paper's inconsistent-g-entry check): moved and
        // live elsewhere in the queue, or already claimed.
        if !self.has_writes(slot) || !valid(self.priority(slot, policy)) {
            return 0;
        }
        let n = self.w_take(slot, out);
        if self.r_is_empty(slot) {
            self.remove(slot);
        }
        n
    }

    /// Resident bytes of this shard's metadata: the parallel arrays, the
    /// write pool and the queue's buckets (keys, not the shared gradient
    /// payloads — those belong to the training pipeline and are counted by
    /// its own accounting).
    fn resident_bytes(&self) -> usize {
        let slots = self.keys.len() * (8 + 8 + 4 + 4);
        let pool = self.pool.entries.capacity() * std::mem::size_of::<PendingWrite>();
        let queue = &self.queue;
        let buckets = queue.buckets.len() * (std::mem::size_of::<Vec<Key>>() + 8)
            + queue.fresh.capacity() * std::mem::size_of::<usize>()
            + self
                .queue
                .buckets
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<Key>())
                .sum::<usize>();
        slots + pool + buckets
    }
}

/// The sharded g-entry store.
///
/// All mutations lock exactly one shard, so the controller, trainers, and
/// flushing threads proceed mostly independently.
#[derive(Debug)]
pub struct GEntryStore {
    shards: Vec<Mutex<Shard>>,
    /// The shard queue's priority index.
    index: QueueIndex,
    /// The shard a flusher's claim visits first.
    cursor: AtomicU32,
    /// Number of keys that currently have pending (unflushed) writes.
    pending_keys: AtomicUsize,
    /// How priorities derive from the R/W sets (fixed per run).
    policy: PriorityPolicy,
}

impl Default for GEntryStore {
    fn default() -> Self {
        Self::new()
    }
}

impl GEntryStore {
    /// Creates an empty store with the P²F [`PriorityPolicy::EarliestRead`]
    /// policy.
    pub fn new() -> Self {
        Self::with_policy(PriorityPolicy::EarliestRead)
    }

    /// Creates an empty store deriving priorities with `policy`, its shard
    /// queue one finite bucket plus ∞: enough for callers that register
    /// into an external queue, or into the shard queue from one thread
    /// (see the module docs); concurrent registrants size the ring with
    /// [`GEntryStore::with_queue`].
    pub fn with_policy(policy: PriorityPolicy) -> Self {
        Self::with_queue(policy, 1)
    }

    /// Creates an empty store deriving priorities with `policy`, whose
    /// shard queue keeps `window` finite buckets (rounded up to a power of
    /// two) plus ∞. Its tags are exact while concurrent registrants keep
    /// every live finite priority within `window` consecutive values (see
    /// the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn with_queue(policy: PriorityPolicy, window: u64) -> Self {
        let index = QueueIndex::new(window);
        let buckets = index.shards.len();
        GEntryStore {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::new(buckets)))
                .collect(),
            index,
            cursor: AtomicU32::new(0),
            pending_keys: AtomicUsize::new(0),
            policy,
        }
    }

    /// The priority policy this store was built with.
    pub fn policy(&self) -> PriorityPolicy {
        self.policy
    }

    fn shard(&self, key: Key) -> &Mutex<Shard> {
        &self.shards[Self::shard_of(key)]
    }

    /// Number of shards (fixed; the engine partitions shard ownership
    /// across trainers through the epoch-versioned
    /// [`ShardMap`](crate::ShardMap)).
    pub const fn n_shards() -> usize {
        SHARDS
    }

    /// The shard index `key` lives in. Stable across the store's lifetime,
    /// so callers can pre-group batches by shard. *Which trainer owns the
    /// shard* is not decided here: the old `shard_of(key) % n_gpus`
    /// formula (`owner_of`) is gone, replaced by
    /// [`ShardMap::owner_of`](crate::ShardMap::owner_of) so ownership can
    /// change between epochs.
    pub fn shard_of(key: Key) -> usize {
        (key as usize) % SHARDS
    }

    /// Writes `items` into `out` (replacing its contents) grouped by the
    /// [`GEntryStore::shard_of`] of `key_of(item)`: shards in ascending
    /// order, each shard's items one contiguous run in their order in
    /// `items`. One counting pass and one placement pass, no comparison
    /// sort — what the batch forms need to take each shard's lock once.
    /// Returns where each shard's run ends in `out`.
    pub fn group_by_shard<T: Copy>(
        items: impl Iterator<Item = T> + Clone,
        key_of: impl Fn(&T) -> Key,
        out: &mut Vec<T>,
    ) -> [usize; SHARDS] {
        out.clear();
        let Some(first) = items.clone().next() else {
            return [0; SHARDS];
        };
        // Per shard: its item count, then the next free position of its run.
        let mut next = [0usize; SHARDS];
        for item in items.clone() {
            next[Self::shard_of(key_of(&item))] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            (*slot, start) = (start, start + *slot);
        }
        out.resize(start, first);
        for item in items {
            let slot = &mut next[Self::shard_of(key_of(&item))];
            out[*slot] = item;
            *slot += 1;
        }
        next
    }

    /// Number of keys with unflushed updates. The engine waits for this to
    /// reach zero when draining at the end of training ("the system waits
    /// for flushing threads to write all deferred parameter updates").
    pub fn pending_keys(&self) -> usize {
        self.pending_keys.load(Ordering::Acquire)
    }

    /// Resident bytes of g-entry metadata across all shards: slot arrays,
    /// write pools and queue buckets. Gradient payloads (`Arc<[f32]>` data)
    /// are shared with the cache-update path and not counted here. This is
    /// the bytes-per-key quantity DESIGN.md §14 tracks at 1M/10M/100M keys.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().resident_bytes()).sum()
    }

    /// Registers the aggregated updates of `step` for every `(key, Δ)` in
    /// `items` (paper §3.3, step 3) into the external queue `pq`: removes
    /// `step` from each R set, appends `(step, Δ)` to the W set, and
    /// enqueues or repositions the entry. Each contiguous same-shard run of
    /// `items` takes its shard's lock once (callers pre-group by
    /// [`GEntryStore::shard_of`], so "once per run" is once per shard) and
    /// hands the queue one `enqueue_batch` + `adjust_batch`, while the
    /// shard lock is still held: releasing it first would let a concurrent
    /// mutator of the same key observe a queued entry (`W ≠ ∅`) not yet
    /// physically present and emit an `adjust` whose old position does not
    /// exist. Each row is shared with the caller (one `Arc` clone per
    /// item).
    ///
    /// Returns how many of the items left registration with priority
    /// `step + 1`: the rows written now that the very next step reads —
    /// the P²F blocking rows of paper Fig 6. The count depends only on the
    /// R sets (filled by lookahead registration in earlier steps), never on
    /// how far the flushers have drained, so it is a pure function of the
    /// batch stream. Always 0 under [`PriorityPolicy::ArrivalOrder`], whose
    /// priorities are write steps.
    pub fn add_writes_batch(
        &self,
        step: u64,
        items: &[(Key, Arc<[f32]>)],
        pq: &dyn PriorityQueue,
        scratch: &mut PqOpScratch,
    ) -> u64 {
        let shared = items.iter().map(|(key, grad)| (*key, Arc::clone(grad)));
        self.register_writes(step, shared, Sink::External(pq, scratch))
    }

    /// The registration of [`GEntryStore::add_writes_batch`] into the
    /// store's own shard queue, over the `(key, Δ)` pairs `items` yields,
    /// each row moved into its W set as it comes. The pairs must arrive
    /// grouped by shard (see [`GEntryStore::group_by_shard`]) for the
    /// one-lock-per-shard promise. Returns the blocking-row count.
    pub fn queue_writes(
        &self,
        step: u64,
        items: impl IntoIterator<Item = (Key, Arc<[f32]>)>,
    ) -> u64 {
        self.register_writes(step, items, Sink::Shards)
    }

    /// The one write-registration routine, for both sinks.
    fn register_writes(
        &self,
        step: u64,
        items: impl IntoIterator<Item = (Key, Arc<[f32]>)>,
        mut sink: Sink<'_>,
    ) -> u64 {
        let mut read_next = 0u64;
        let mut items = items.into_iter().peekable();
        while let Some(&(first, _)) = items.peek() {
            let sid = Self::shard_of(first);
            let mut shard = self.shards[sid].lock();
            if let Sink::External(_, ops) = &mut sink {
                ops.enqueues.clear();
                ops.moves.clear();
            }
            let mut newly_pending = 0usize;
            while let Some((key, grad)) = items.next_if(|&(key, _)| Self::shard_of(key) == sid) {
                let slot = shard.ensure(key);
                let had_writes = shard.has_writes(slot);
                let old_p = shard.priority(slot, self.policy);
                shard.r_remove(slot, step);
                shard.w_push(slot, step, grad);
                let new_p = shard.priority(slot, self.policy);
                read_next += u64::from(new_p == step + 1);
                newly_pending += usize::from(!had_writes);
                if had_writes && new_p == old_p {
                    continue;
                }
                match &mut sink {
                    Sink::Shards => shard.queue.push(&self.index, key, new_p),
                    Sink::External(_, ops) if had_writes => ops.moves.push((key, old_p, new_p)),
                    Sink::External(_, ops) => ops.enqueues.push((key, new_p)),
                }
            }
            // Count before the entries become claimable (the drain check
            // `shutdown && pending_keys() == 0` must never observe a queued
            // entry it thinks is already flushed). A claim of these keys
            // blocks on the shard lock until after this, so the matching
            // decrement cannot run first.
            if newly_pending > 0 {
                self.pending_keys.fetch_add(newly_pending, Ordering::AcqRel);
            }
            shard.queue.publish(&self.index, sid);
            if let Sink::External(pq, ops) = &sink {
                // Under arrival order every fresh enqueue has priority `step`
                // (a claimed key re-entering the queue had an empty W set) and
                // nothing moves, so the shard's batch is one run of one
                // priority.
                pq.enqueue_batch(&ops.enqueues);
                pq.adjust_batch(&ops.moves);
            }
            drop(shard);
            sched_point!("gentry.writes_batch.published");
        }
        read_next
    }

    /// Registers that every key in `keys` will be read at `step` (the
    /// sample-queue prefetch) into the external queue `pq`, with the same
    /// shard-run locking as [`GEntryStore::add_writes_batch`]; an entry with
    /// pending writes whose priority the read tightens is repositioned in
    /// one `adjust_batch` per shard. Callers pre-group `keys` by shard, and
    /// register each key's reads in step order within [`READ_WINDOW`] steps
    /// of its earliest live read (panics otherwise). A repeat of a key's
    /// read of `step`, in the same batch or a later one, is a no-op: the R
    /// set holds one bit per step, so it moves no priority and issues no
    /// queue operation.
    pub fn add_reads_batch(
        &self,
        step: u64,
        keys: &[Key],
        pq: &dyn PriorityQueue,
        scratch: &mut PqOpScratch,
    ) {
        self.register_reads(step, keys, Sink::External(pq, scratch));
    }

    /// The read registration of [`GEntryStore::add_reads_batch`] into the
    /// store's own shard queue: a tightened entry is pushed into its new
    /// bucket, and its old copy is left for the claim to skip.
    pub fn queue_reads(&self, step: u64, keys: &[Key]) {
        self.register_reads(step, keys, Sink::Shards);
    }

    /// The one read-registration routine, for both sinks.
    fn register_reads(&self, step: u64, keys: &[Key], mut sink: Sink<'_>) {
        for run in keys.chunk_by(|a, b| Self::shard_of(*a) == Self::shard_of(*b)) {
            let sid = Self::shard_of(run[0]);
            let mut shard = self.shards[sid].lock();
            if let Sink::External(_, ops) = &mut sink {
                ops.moves.clear();
            }
            for &key in run {
                let slot = shard.ensure(key);
                if !shard.has_writes(slot) {
                    shard.r_insert(slot, step);
                    continue;
                }
                let old_p = shard.priority(slot, self.policy);
                shard.r_insert(slot, step);
                let new_p = shard.priority(slot, self.policy);
                if new_p == old_p {
                    continue;
                }
                match &mut sink {
                    Sink::Shards => shard.queue.push(&self.index, key, new_p),
                    Sink::External(_, ops) => ops.moves.push((key, old_p, new_p)),
                }
            }
            shard.queue.publish(&self.index, sid);
            if let Sink::External(pq, ops) = &sink {
                pq.adjust_batch(&ops.moves);
            }
            drop(shard);
            sched_point!("gentry.reads_batch.published");
        }
    }

    /// Claims the pending writes of `key` for flushing, if `priority` is
    /// still the entry's priority — the claim that goes with an external
    /// queue's dequeue. Appends the claimed `(step, Δ)` pairs to `out`
    /// (step order preserved) and returns how many were claimed: 0 for a
    /// stale dequeue (the paper's inconsistent-g-entry check: the entry was
    /// repositioned and is live elsewhere in the queue, or it was already
    /// claimed). A claimed entry leaves the queue with its W set drained;
    /// if its R set is empty too, it is deleted.
    pub fn take_writes_into(&self, key: Key, priority: Priority, out: &mut PendingWrites) -> usize {
        sched_point!("gentry.take_writes.enter");
        let n = {
            let mut shard = self.shard(key).lock();
            match shard.find(key) {
                Some(slot) => shard.claim(slot, self.policy, |p| p == priority, out),
                None => 0,
            }
        };
        if n > 0 {
            self.pending_keys.fetch_sub(1, Ordering::AcqRel);
        }
        sched_point!(if n == 0 {
            "gentry.take_writes.stale"
        } else {
            "gentry.take_writes.claimed"
        });
        n
    }

    /// A conservative lower bound of the finite priorities queued in the
    /// shard queue — never above the true minimum, [`INFINITE`] when only
    /// deferred entries (or none) are queued. What the P²F wait condition
    /// compares against the next step: lock-free, one load per bucket.
    pub fn top_priority(&self) -> Priority {
        match self.index.lowest() {
            Some((_, p)) => p,
            None => INFINITE,
        }
    }

    /// The flusher's dequeue: publishes into `guard` the lowest priority
    /// the shard queue holds — clamped to [`DEFERRED_CLAIM`], so a batch of
    /// only ∞ entries still reads as busy — and returns whether anything is
    /// queued. Must precede [`GEntryStore::claim_marked`]: from this store
    /// on, an entry that leaves the queue is covered by the marker, so
    /// there is no instant at which a pending flush is visible to neither
    /// [`GEntryStore::top_priority`] nor the marker (DESIGN §8 race 3).
    pub fn mark_lowest(&self, guard: &AtomicU64) -> bool {
        let Some((_, p)) = self.index.lowest() else {
            return false;
        };
        guard.store(p.min(DEFERRED_CLAIM), Ordering::SeqCst);
        sched_point!("gentry.claim.marked");
        true
    }

    /// The flusher's claim: takes up to `max` queued keys, lowest bucket
    /// first, and claims each one the bucket still holds — validated
    /// against the entry's current priority, so a moved key's old copy and
    /// an already claimed key are skipped. Each shard's share of a bucket
    /// is taken and claimed in one hold of the shard lock, and
    /// `pending_keys` drops once per call, after the locks (later is the
    /// conservative direction: its readers only ever wait for zero).
    /// Returns how many keys were taken, stale ones included.
    ///
    /// `guard` is the marker [`GEntryStore::mark_lowest`] raised; before it
    /// extracts from a bucket below it (one that filled since), this lowers
    /// it to that bucket's priority. Each claim appends the entry's
    /// `(step, Δ)` pairs, in step order, to `writes` and its `(key, start,
    /// end)` range into them to `claims`; both are appended to, never
    /// cleared, so a flusher that reuses them allocates nothing after
    /// warm-up.
    pub fn claim_marked(
        &self,
        max: usize,
        guard: &AtomicU64,
        writes: &mut PendingWrites,
        claims: &mut Vec<FlushClaim>,
    ) -> usize {
        let (mut taken, mut claimed) = (0, 0);
        while taken < max {
            let Some((b, p)) = self.index.lowest() else {
                break;
            };
            let floor = p.min(DEFERRED_CLAIM);
            if floor < guard.load(Ordering::SeqCst) {
                guard.store(floor, Ordering::SeqCst);
            }
            // Shards in turn from where the last claim stopped, so a
            // flusher that cannot keep up does not starve the high ones.
            let first = self.cursor.load(Ordering::Relaxed);
            let mut shards = self.index.shards[b]
                .load(Ordering::SeqCst)
                .rotate_right(first);
            while shards != 0 && taken < max {
                let sid = (shards.trailing_zeros() as usize + first as usize) % SHARDS;
                shards &= shards - 1;
                self.cursor.store(sid as u32, Ordering::Relaxed);
                {
                    let mut shard = self.shards[sid].lock();
                    let mut keys = std::mem::take(&mut shard.queue.buckets[b]);
                    let from = keys.len().saturating_sub(max - taken);
                    for &key in &keys[from..] {
                        let Some(slot) = shard.find(key) else {
                            continue;
                        };
                        let start = writes.len();
                        let valid = |q| self.index.bucket_of(q) == b;
                        let n = shard.claim(slot, self.policy, valid, writes);
                        if n > 0 {
                            claimed += 1;
                            claims.push((key, start, start + n));
                        }
                    }
                    taken += keys.len() - from;
                    keys.truncate(from);
                    if keys.is_empty() {
                        self.index.shards[b].fetch_and(!(1 << sid), Ordering::SeqCst);
                    }
                    shard.queue.buckets[b] = keys;
                }
                sched_point!("gentry.claim.shard");
            }
        }
        if claimed > 0 {
            self.pending_keys.fetch_sub(claimed, Ordering::AcqRel);
        }
        taken
    }

    /// Best-effort, non-destructive peek at one key of the lowest finite
    /// bucket and that bucket's priority, for stall provenance ("which key
    /// is blocking?"); the entry may be stale.
    pub fn peek_top(&self) -> Option<(Key, Priority)> {
        let (b, p) = self.index.lowest().filter(|&(_, p)| p != INFINITE)?;
        let shards = self.index.shards[b].load(Ordering::SeqCst);
        let shard = self.shards.get(shards.trailing_zeros() as usize)?.lock();
        shard.queue.buckets[b].last().map(|&key| (key, p))
    }

    /// Keys in the shard queue, stale copies included (stall provenance:
    /// the queue depth).
    pub fn queued_len(&self) -> usize {
        let shard_len =
            |s: &Mutex<Shard>| s.lock().queue.buckets.iter().map(Vec::len).sum::<usize>();
        self.shards.iter().map(shard_len).sum()
    }

    /// The current priority of `key`'s entry, if it exists (tests only).
    pub fn priority_of(&self, key: Key) -> Option<Priority> {
        let shard = self.shard(key).lock();
        shard
            .find(key)
            .map(|slot| shard.priority(slot, self.policy))
    }

    /// True if `key` currently has pending writes (tests and invariant
    /// checks).
    pub fn has_pending_writes(&self, key: Key) -> bool {
        let shard = self.shard(key).lock();
        shard.find(key).is_some_and(|slot| shard.has_writes(slot))
    }

    /// Checks the paper's invariant (2) for `key` at `step`: it must NOT
    /// simultaneously have pending writes and a registered read at `step`.
    /// Returns `true` if the invariant holds.
    pub fn invariant_holds(&self, key: Key, step: u64) -> bool {
        let shard = self.shard(key).lock();
        match shard.find(key) {
            None => true,
            Some(slot) => !shard.has_writes(slot) || !shard.r_contains(slot, step),
        }
    }

    /// Total number of live g-entries (tests).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    /// True if no g-entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frugal_pq::TwoLevelPq;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Registers `key`'s read of `step` (a one-key batch) into the shard
    /// queue.
    fn read(store: &GEntryStore, key: Key, step: u64) {
        store.queue_reads(step, &[key]);
    }

    /// Registers `key`'s update `[v]` of `step` (a one-key batch) into the
    /// shard queue.
    fn write(store: &GEntryStore, key: Key, step: u64, v: f32) {
        store.queue_writes(step, [(key, Arc::from([v].as_slice()))]);
    }

    /// Claims `key` at priority `p`: its drained writes, or `None` for a
    /// stale claim.
    fn take(store: &GEntryStore, key: Key, p: Priority) -> Option<PendingWrites> {
        let mut out = PendingWrites::new();
        (store.take_writes_into(key, p, &mut out) > 0).then_some(out)
    }

    /// One flusher pass the engine's way — mark, then claim up to `max`
    /// keys — with its marker settled: the claimed `(key, steps)` and the
    /// marker it published (`INFINITE` if nothing was queued).
    fn flush(store: &GEntryStore, max: usize) -> (Vec<(Key, Vec<u64>)>, Priority) {
        let guard = AtomicU64::new(INFINITE);
        let (mut writes, mut claims) = (PendingWrites::new(), Vec::new());
        if store.mark_lowest(&guard) {
            store.claim_marked(max, &guard, &mut writes, &mut claims);
        }
        let claimed = claims
            .iter()
            .map(|&(k, a, b)| (k, writes[a..b].iter().map(|&(s, _)| s).collect()))
            .collect();
        (claimed, guard.load(Ordering::SeqCst))
    }

    /// Claims everything queued; returns the rows claimed.
    fn drain(store: &GEntryStore) -> u64 {
        let (claimed, _) = flush(store, usize::MAX);
        claimed.iter().map(|(_, steps)| steps.len() as u64).sum()
    }

    /// No shard holds a live pool entry or a queued key.
    fn assert_pools_idle(store: &GEntryStore) {
        for shard in &store.shards {
            let shard = shard.lock();
            assert!(shard.pool.entries.iter().all(|e| e.row.is_none()));
        }
        assert_eq!(store.queued_len(), 0);
    }

    #[test]
    fn read_only_entries_stay_out_of_queue() {
        let store = GEntryStore::new();
        read(&store, 5, 3);
        assert_eq!(store.queued_len(), 0);
        assert_eq!(store.priority_of(5), Some(INFINITE));
        assert_eq!(store.pending_keys(), 0);
    }

    #[test]
    fn write_enqueues_with_min_read_priority() {
        let store = GEntryStore::new();
        for step in [1, 3, 7] {
            read(&store, 5, step);
        }
        write(&store, 5, 1, 0.1);
        // Read at step 1 was consumed; min remaining read is 3.
        assert_eq!(store.priority_of(5), Some(3));
        assert_eq!(store.top_priority(), 3);
        assert_eq!(store.peek_top(), Some((5, 3)));
        assert_eq!(store.pending_keys(), 1);
    }

    #[test]
    fn write_without_future_reads_is_infinite() {
        let store = GEntryStore::new();
        read(&store, 9, 0);
        write(&store, 9, 0, 1.0);
        assert_eq!(store.priority_of(9), Some(INFINITE));
        assert_eq!(store.top_priority(), INFINITE);
        assert_eq!(store.queued_len(), 1); // still flushed eventually
        assert_eq!(flush(&store, 8), (vec![(9, vec![0])], DEFERRED_CLAIM));
    }

    #[test]
    fn later_read_reactivates_infinite_entry() {
        // Paper Figure 6, k1: deferred update gets a priority once the key
        // is prefetched again.
        let store = GEntryStore::new();
        read(&store, 1, 0);
        write(&store, 1, 0, 1.0);
        assert_eq!(store.priority_of(1), Some(INFINITE));
        read(&store, 1, 2);
        assert_eq!(store.priority_of(1), Some(2));
        assert_eq!(store.top_priority(), 2);
        // The ∞ copy is left behind and skipped: one claim, at 2.
        assert_eq!(store.queued_len(), 2);
        assert_eq!(flush(&store, 8), (vec![(1, vec![0])], 2));
        assert_eq!(store.pending_keys(), 0);
        assert_pools_idle(&store);
    }

    #[test]
    fn take_writes_returns_updates_in_step_order() {
        let store = GEntryStore::new();
        read(&store, 4, 0);
        write(&store, 4, 0, 1.0);
        read(&store, 4, 5);
        write(&store, 4, 5, 2.0);
        let p = store.priority_of(4).unwrap();
        let w = take(&store, 4, p).expect("valid claim");
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].0, &w[0].1[..]), (0, &[1.0f32][..]));
        assert_eq!((w[1].0, &w[1].1[..]), (5, &[2.0f32][..]));
        assert_eq!(store.pending_keys(), 0);
        // W drained and R empty: the entry is garbage-collected.
        assert_eq!(store.priority_of(4), None);
    }

    #[test]
    fn stale_claim_is_rejected() {
        let store = GEntryStore::new();
        read(&store, 4, 2);
        write(&store, 4, 0, 1.0); // priority 2
        assert!(take(&store, 4, 7).is_none(), "wrong priority");
        assert!(take(&store, 4, 2).is_some());
        assert!(take(&store, 4, 2).is_none(), "already drained");
        // The queue's copy is stale now: taken, never claimed.
        assert_eq!(flush(&store, 8), (Vec::new(), 2));
        assert_eq!(store.queued_len(), 0);
    }

    #[test]
    fn surviving_reads_keep_entry_alive() {
        let store = GEntryStore::new();
        read(&store, 4, 2);
        read(&store, 4, 9);
        write(&store, 4, 0, 1.0);
        let (claimed, _) = flush(&store, 8);
        assert_eq!(claimed, vec![(4, vec![0])]);
        // Reads at 2 and 9 remain; entry alive but out of the queue.
        assert_eq!(store.len(), 1);
        assert_eq!(store.priority_of(4), Some(INFINITE));
        // A new write re-enqueues at the surviving min read.
        write(&store, 4, 2, 3.0);
        assert_eq!(store.priority_of(4), Some(9));
        assert_eq!(store.top_priority(), 9);
    }

    #[test]
    fn invariant_check_detects_violation_state() {
        let store = GEntryStore::new();
        read(&store, 4, 6);
        assert!(store.invariant_holds(4, 6), "reads alone are fine");
        write(&store, 4, 0, 1.0);
        assert!(!store.invariant_holds(4, 6), "pending write + read at 6");
        assert!(store.invariant_holds(4, 7), "no read registered at 7");
        let p = store.priority_of(4).unwrap();
        take(&store, 4, p).unwrap();
        assert!(store.invariant_holds(4, 6), "flushed");
    }

    #[test]
    fn paper_figure6_walkthrough() {
        // Reproduces the worked example of Figure 6 (L = 2, keys k1..k3)
        // on the engine's queue shape: a ring of L + 2 buckets.
        let store = GEntryStore::with_queue(PriorityPolicy::EarliestRead, 4);
        let delta = |keys: &[Key]| -> Vec<(Key, Arc<[f32]>)> {
            keys.iter()
                .map(|&k| (k, Arc::from([0.5f32].as_slice())))
                .collect()
        };
        // ❶ prefetch step 0 (k1,k2,k3; shards 1..3) and step 1 (k2).
        store.queue_reads(0, &[1, 2, 3]);
        store.queue_reads(1, &[2]);
        // ❷ top is ∞ > step 0: train.
        assert!(store.top_priority() > 0);
        // ❸ backward of step 0 records Δ for all three keys.
        store.queue_writes(0, delta(&[1, 2, 3]));
        // k2 has a read at step 1 -> priority 1; k1,k3 -> ∞.
        assert_eq!(store.priority_of(2), Some(1));
        assert_eq!(store.priority_of(1), Some(INFINITE));
        assert_eq!(store.priority_of(3), Some(INFINITE));
        // ❹ prefetch step 2 (k1).
        store.queue_reads(2, &[1]);
        assert_eq!(store.priority_of(1), Some(2));
        // ❺ top is 1, not > step 1: training must wait.
        assert!(store.top_priority() <= 1);
        // ❻-❼ flush k2, then train step 1.
        assert_eq!(flush(&store, 1), (vec![(2, vec![0])], 1));
        assert!(store.top_priority() > 1);
        // ❽ backward of step 1 (k2 again, no more reads).
        store.queue_writes(1, delta(&[2]));
        assert_eq!(store.priority_of(2), Some(INFINITE));
        // k1's update from step 0 is still deferred (blue dashed box):
        assert!(store.has_pending_writes(1));
        // ❾ top is 2, not > 2? top == 2 blocks step 2 until k1 flushed.
        assert_eq!(store.top_priority(), 2);
        assert_eq!(flush(&store, 1), (vec![(1, vec![0])], 2));
        assert!(store.top_priority() > 2);
        // ❾ train step 2 (k1), record its update.
        store.queue_writes(2, delta(&[1]));
        // ❿ after training, drain the deferred ∞ updates (k1, k2, k3).
        assert_eq!(drain(&store), 3);
        assert_eq!(store.pending_keys(), 0);
        assert!(store.is_empty());
        assert_pools_idle(&store);
    }

    /// Groups keys by shard (stable within a shard), the pre-grouping the
    /// batch APIs expect from callers.
    fn shard_grouped(keys: &[Key]) -> Vec<Key> {
        let mut v = keys.to_vec();
        v.sort_by_key(|&k| GEntryStore::shard_of(k));
        v
    }

    /// Every queued entry's claim, sorted by key.
    fn drained(store: &GEntryStore) -> Vec<(Key, Vec<u64>)> {
        let (mut claimed, _) = flush(store, usize::MAX);
        claimed.sort();
        claimed
    }

    #[test]
    fn batch_writes_match_sequential_path() {
        // The same operation stream as whole shard-grouped batches and as
        // a sequence of one-key batches must leave identical store + queue
        // state: the shard-run locking changes nothing observable.
        let seq = GEntryStore::new();
        let bat = GEntryStore::new();

        // Keys spanning several shards (incl. two in the same shard:
        // 1 and 65), some with tightening reads, some deferred. The reads
        // of step 0 anchor every window; the writes of step 0 consume them.
        let keys: Vec<Key> = vec![1, 65, 2, 130, 7, 64];
        for step in [0, 3] {
            for &k in &keys {
                read(&seq, k, step);
            }
            bat.queue_reads(step, &shard_grouped(&keys));
        }

        let grad: Arc<[f32]> = vec![0.5].into();
        for &k in &keys {
            seq.queue_writes(0, [(k, Arc::clone(&grad))]);
        }
        let grouped = shard_grouped(&keys);
        bat.queue_writes(0, grouped.iter().map(|&k| (k, Arc::clone(&grad))));

        // A later-registered read of an earlier step re-tightens priorities.
        for &k in &[1u64, 2] {
            read(&seq, k, 1);
        }
        bat.queue_reads(1, &shard_grouped(&[1, 2]));

        for &k in &keys {
            assert_eq!(
                seq.priority_of(k),
                bat.priority_of(k),
                "key {k} priority diverged"
            );
        }
        assert_eq!(bat.priority_of(1), Some(1));
        assert_eq!(bat.priority_of(65), Some(3));
        assert_eq!(seq.pending_keys(), bat.pending_keys());
        assert_eq!(seq.top_priority(), bat.top_priority());
        assert_eq!(seq.queued_len(), bat.queued_len());
        assert_eq!(drained(&seq), drained(&bat), "queue contents diverged");
    }

    #[test]
    fn a_repeated_read_of_a_step_is_a_no_op() {
        // The engine registers a key two streams share once per stream:
        // the repeat, in the same batch or a later one of the same step,
        // must leave the entry and the queue as one registration does —
        // on either sink.
        let r_set = |store: &GEntryStore, k: Key| {
            let shard = store.shard(k).lock();
            let slot = shard.find(k).expect("registered key");
            (shard.r_base[slot], shard.r_bits[slot])
        };
        for pending in [false, true] {
            let k: Key = 9;
            let (once, once_pq) = (GEntryStore::new(), TwoLevelPq::new(100));
            let (twice, twice_pq) = (GEntryStore::new(), TwoLevelPq::new(100));
            let (queued_once, queued_twice) = (GEntryStore::new(), GEntryStore::new());
            let mut scratch = PqOpScratch::default();
            for (store, pq) in [(&once, &once_pq), (&twice, &twice_pq)] {
                store.add_reads_batch(0, &[k], pq, &mut scratch);
                if pending {
                    // Consumes the read of 0: W = {0}, R = {}, priority ∞.
                    let items = [(k, Arc::from([1.0f32].as_slice()))];
                    store.add_writes_batch(0, &items, pq, &mut scratch);
                }
            }
            for store in [&queued_once, &queued_twice] {
                read(store, k, 0);
                if pending {
                    write(store, k, 0, 1.0);
                }
            }
            let (mut a, mut b) = (PqOpScratch::default(), PqOpScratch::default());
            once.add_reads_batch(3, &[k], &once_pq, &mut a);
            twice.add_reads_batch(3, &[k, k], &twice_pq, &mut b);
            queued_once.queue_reads(3, &[k]);
            queued_twice.queue_reads(3, &[k, k]);
            assert_eq!(a.moves, b.moves, "pending {pending}: the repeat moved");
            assert_eq!(a.moves.len(), usize::from(pending));
            twice.add_reads_batch(3, &[k], &twice_pq, &mut b);
            queued_twice.queue_reads(3, &[k]);
            assert!(
                b.moves.is_empty(),
                "pending {pending}: a later repeat moved"
            );

            assert_eq!(r_set(&once, k), r_set(&twice, k), "pending {pending}");
            assert_eq!(r_set(&queued_once, k), r_set(&queued_twice, k));
            assert_eq!(once.priority_of(k), twice.priority_of(k));
            assert_eq!(once_pq.len(), twice_pq.len());
            assert_eq!(once_pq.peek_top(), twice_pq.peek_top());
            assert_eq!(queued_once.queued_len(), queued_twice.queued_len());
            assert_eq!(once.pending_keys(), twice.pending_keys());
            let expected = if pending {
                (Some(3), 1)
            } else {
                (Some(INFINITE), 0)
            };
            assert_eq!((twice.priority_of(k), twice_pq.len()), expected);
            // The shard queue holds the ∞ copy too.
            assert_eq!(queued_twice.queued_len(), 2 * usize::from(pending));
            let top = if pending { 3 } else { INFINITE };
            assert_eq!(queued_twice.top_priority(), top);
        }
    }

    #[test]
    fn batch_write_then_take_round_trip() {
        let store = GEntryStore::new();
        store.queue_reads(2, &[4, 68]);
        let items: Vec<(Key, Arc<[f32]>)> = vec![(4, vec![1.0].into()), (68, vec![2.0].into())];
        store.queue_writes(0, items);
        assert_eq!(store.pending_keys(), 2);
        assert_eq!(store.top_priority(), 2);
        let (claimed, marker) = flush(&store, usize::MAX);
        assert_eq!(claimed.len(), 2, "fresh entries claimable");
        assert!(claimed.iter().all(|(_, steps)| steps == &[0]));
        assert_eq!(marker, 2);
        assert_eq!(store.pending_keys(), 0);
    }

    #[test]
    fn arrival_order_priority_is_first_write_step() {
        let store = GEntryStore::with_policy(PriorityPolicy::ArrivalOrder);
        // Reads never matter under arrival order.
        read(&store, 5, 1);
        write(&store, 5, 3, 0.1);
        assert_eq!(store.priority_of(5), Some(3));
        // A later write does not move the entry: the first pending write
        // still gates it.
        write(&store, 5, 7, 0.2);
        assert_eq!(store.priority_of(5), Some(3));
        // Nor does a tightening read (the P²F policy would move it to 1,
        // then 4 once step 1 is written).
        read(&store, 5, 4);
        assert_eq!(store.priority_of(5), Some(3));
        assert_eq!(store.top_priority(), 3);
        assert_eq!(store.queued_len(), 1, "nothing moved");
        // The claim drains both writes in step order; a fresh write then
        // re-enqueues at its own step.
        assert_eq!(flush(&store, 8), (vec![(5, vec![3, 7])], 3));
        write(&store, 5, 9, 0.3);
        assert_eq!(store.priority_of(5), Some(9));
    }

    #[test]
    fn arrival_order_batch_matches_per_key_path() {
        // Whole batches and one-key batches under arrival order.
        let seq = GEntryStore::with_policy(PriorityPolicy::ArrivalOrder);
        let bat = GEntryStore::with_policy(PriorityPolicy::ArrivalOrder);
        let keys: Vec<Key> = vec![1, 65, 2, 130, 7, 64];
        let grad: Arc<[f32]> = vec![0.5].into();
        for step in [2u64, 5] {
            for &k in &keys {
                seq.queue_writes(step, [(k, Arc::clone(&grad))]);
            }
            let grouped = shard_grouped(&keys);
            bat.queue_writes(step, grouped.iter().map(|&k| (k, Arc::clone(&grad))));
        }
        for &k in &keys {
            assert_eq!(seq.priority_of(k), bat.priority_of(k));
            assert_eq!(seq.priority_of(k), Some(2), "first write step");
        }
        assert_eq!(seq.top_priority(), bat.top_priority());
        assert_eq!(drained(&seq), drained(&bat), "queue contents diverged");
    }

    #[test]
    fn batch_write_counts_rows_the_next_step_reads() {
        // Fig 6: of the rows written at step 0, only those with a read
        // registered for step 1 block — wherever the flushers stand.
        let store = GEntryStore::new();
        store.queue_reads(1, &[3, 67]);
        store.queue_reads(2, &[5]);
        let items: Vec<(Key, Arc<[f32]>)> = vec![
            (3, vec![1.0].into()),
            (67, vec![1.0].into()),
            (5, vec![1.0].into()),
            (9, vec![1.0].into()),
        ];
        assert_eq!(store.queue_writes(0, items.clone()), 2);
        // A second write to an already-pending row counts again at its own
        // step; draining in between changes nothing.
        drain(&store);
        let again: Vec<(Key, Arc<[f32]>)> = vec![(5, vec![1.0].into()), (9, vec![1.0].into())];
        assert_eq!(store.queue_writes(1, again), 1);
        // Arrival-order priorities are write steps: never `step + 1`.
        let fifo = GEntryStore::with_policy(PriorityPolicy::ArrivalOrder);
        assert_eq!(fifo.queue_writes(0, items), 0);
    }

    #[test]
    fn read_window_slides_past_consumed_steps() {
        // The engine's shape at the widest lookahead: reads `READ_WINDOW`
        // steps apart are live together only after the earlier ones are
        // written, so the window slides up over the consumed steps.
        let store = GEntryStore::new();
        let last = READ_WINDOW - 1;
        // A window anchored at 0 holding both of its ends...
        read(&store, 7, 0);
        read(&store, 7, last);
        write(&store, 7, 0, 1.0);
        assert_eq!(store.priority_of(7), Some(last));
        // ...slides once step 0 is consumed: a read `READ_WINDOW` past the
        // base fits, and so does one past the slid window's end.
        read(&store, 7, READ_WINDOW);
        read(&store, 7, last + 40);
        assert_eq!(store.priority_of(7), Some(last));
        assert!(!store.invariant_holds(7, READ_WINDOW));
        // Consuming `last` leaves the slid reads.
        write(&store, 7, last, 1.0);
        assert_eq!(store.priority_of(7), Some(READ_WINDOW));
        write(&store, 7, READ_WINDOW, 1.0);
        assert_eq!(store.priority_of(7), Some(last + 40));
        // Claiming keeps the surviving far read, and the entry with it.
        let p = store.priority_of(7).unwrap();
        assert_eq!(take(&store, 7, p).unwrap().len(), 3);
        assert_eq!(store.len(), 1);
        assert!(store.invariant_holds(7, last + 40));
        // Once the window empties, a fresh far read re-anchors it.
        write(&store, 7, last + 40, 1.0);
        read(&store, 7, 900);
        assert_eq!(store.priority_of(7), Some(900));
        assert_eq!(take(&store, 7, 900).unwrap().len(), 1);
        assert_eq!(store.priority_of(7), Some(INFINITE));
    }

    #[test]
    #[should_panic(expected = "read of key 7 at step 2 outside its 64-step window at base 3")]
    fn a_read_below_the_live_window_panics() {
        let store = GEntryStore::new();
        read(&store, 7, 3);
        read(&store, 7, 2);
    }

    #[test]
    #[should_panic(expected = "read of key 7 at step 64 outside its 64-step window at base 0")]
    fn a_read_past_the_live_window_panics() {
        // Step 0 is still live, so the window cannot slide to take step 64:
        // a lookahead of `READ_WINDOW + 1`.
        let store = GEntryStore::new();
        read(&store, 7, 0);
        read(&store, 7, READ_WINDOW);
    }

    #[test]
    fn table_growth_preserves_entries_and_bounds_memory() {
        // Thousands of same-shard keys force many growth rehashes; every
        // entry must survive with its R/W state, and resident bytes per
        // live key must stay under the §14 bound.
        let store = GEntryStore::with_queue(PriorityPolicy::EarliestRead, 4);
        let n = 4_000u64;
        let keys: Vec<Key> = (0..n).map(|i| i * SHARDS as u64).collect(); // all shard 0
        store.queue_reads(10, &keys);
        for &key in &keys {
            assert_eq!(store.priority_of(key), Some(INFINITE), "key {key}");
            assert!(store.invariant_holds(key, 11));
            assert!(!store.invariant_holds(key, 10) || !store.has_pending_writes(key));
        }
        assert_eq!(store.len(), n as usize);
        // One shard carries all n entries; its table alone must respect
        // the per-key byte bound (the other 63 idle shards only add their
        // fixed 16-slot skeletons and their five empty buckets).
        let idle = 63 * (16 * 24 + 5 * 32);
        let per_key = (store.resident_bytes() - idle) as f64 / n as f64;
        assert!(per_key < 32.0, "resident {per_key:.1} bytes/key");
    }

    impl Shard {
        /// Every live key is reachable from its home slot without crossing
        /// an `EMPTY` — what `find` relies on and `remove` must preserve.
        fn assert_probe_runs_intact(&self) {
            let cap = self.keys.len();
            let mut live = 0;
            for (slot, &k) in self.keys.iter().enumerate() {
                if k == EMPTY {
                    continue;
                }
                live += 1;
                let mut i = Self::home(k, cap);
                while i != slot {
                    assert_ne!(self.keys[i], EMPTY, "key {k}: probe run cut at slot {i}");
                    i = (i + 1) % cap;
                }
            }
            assert_eq!(live, self.len);
        }
    }

    #[test]
    fn backward_shift_keeps_probe_runs_intact_and_payloads_attached() {
        // One shard, a few hundred keys, deletions in an order unrelated to
        // insertion: after every single removal each survivor must still be
        // reachable from its home slot and still carry its own R set.
        let mut shard = Shard::new(2);
        let keys: Vec<Key> = (0..300u64).map(|i| i * 7919 % 10_007).collect();
        for &k in &keys {
            let slot = shard.ensure(k);
            shard.r_insert(slot, k % 50);
        }
        shard.assert_probe_runs_intact();
        let mut live: Vec<Key> = keys.clone();
        let mut x = 12345u64;
        while !live.is_empty() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = live.swap_remove((x >> 33) as usize % live.len());
            let slot = shard.find(k).expect("live key findable");
            shard.r_remove(slot, k % 50);
            shard.remove(slot);
            assert_eq!(shard.find(k), None);
            shard.assert_probe_runs_intact();
            for &other in &live {
                let s = shard.find(other).expect("survivor findable");
                assert_eq!(
                    shard.r_min(s),
                    Some(other % 50),
                    "key {other} lost its R set"
                );
            }
        }
        assert!(shard.keys.iter().all(|&k| k == EMPTY));
    }

    #[test]
    fn churn_at_constant_live_count_never_rehashes() {
        // The engine's steady state: every step registers fresh keys and the
        // flusher claims (deletes) as many old ones. Once the table fits the
        // peak live count it must never be rebuilt — tombstones used to
        // force a same-size rehash every other step — and the write pool
        // recycles its entries instead of growing.
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(10);
        let mut scratch = PqOpScratch::default();
        let key_of = |i: u64| i * SHARDS as u64; // all shard 0
        let live = 500u64;
        let mut churn = |from: u64, rounds: u64| {
            for i in from..from + rounds {
                let row = [(key_of(i + live), Arc::from([1.0f32].as_slice()))];
                store.add_writes_batch(0, &row, &pq, &mut scratch);
                assert!(take(&store, key_of(i), INFINITE).is_some());
            }
        };
        let mut initial = PqOpScratch::default();
        for i in 0..live {
            let row = [(key_of(i), Arc::from([1.0f32].as_slice()))];
            store.add_writes_batch(0, &row, &pq, &mut initial);
        }
        churn(0, 2 * live);
        let table = |store: &GEntryStore| {
            let shard = store.shards[0].lock();
            shard.assert_probe_runs_intact();
            (
                shard.keys.as_ptr(),
                shard.keys.len(),
                shard.pool.entries.as_ptr(),
            )
        };
        let warm = table(&store);
        churn(2 * live, 20_000);
        // `grow` allocates its new slices before dropping the old ones, so
        // an unchanged address means no rehash happened at all.
        assert_eq!(table(&store), warm, "steady-state churn reallocated");
        assert_eq!(store.len(), live as usize);
    }

    #[test]
    fn concurrent_batch_writers_and_flusher_balance() {
        // Two batch registrants on disjoint shard sets racing one flusher:
        // the P²F drain invariant (every staged update flushed exactly
        // once) must survive the batch path and the shard queue's claim.
        let store = Arc::new(GEntryStore::new());
        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for step in 0..300u64 {
                        // Trainer t owns shards with parity t (key % 2 == t
                        // implies shard % 2 == t for SHARDS = 64).
                        let keys: Vec<Key> = (0..16u64).map(|i| 2 * i + t).collect();
                        let reads = shard_grouped(&keys);
                        store.queue_reads(step, &reads);
                        let grouped = shard_grouped(&keys);
                        store.queue_writes(step, grouped.iter().map(|&k| (k, vec![1.0f32].into())));
                    }
                })
            })
            .collect();
        let flusher = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut applied = 0u64;
                let mut idle = 0;
                while idle < 1_000 {
                    let (claimed, _) = flush(&store, 32);
                    if claimed.is_empty() {
                        idle += 1;
                        std::thread::yield_now();
                        continue;
                    }
                    idle = 0;
                    applied += claimed.iter().map(|(_, s)| s.len() as u64).sum::<u64>();
                }
                applied
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        let applied = flusher.join().unwrap();
        let rest = drain(&store);
        assert_eq!(applied + rest, 2 * 300 * 16, "every staged update flushed");
        assert_eq!(store.pending_keys(), 0);
        assert_pools_idle(&store);
    }

    #[test]
    fn concurrent_writes_and_takes_balance() {
        let store = Arc::new(GEntryStore::new());
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for step in 0..500u64 {
                    for k in 0..16u64 {
                        read(&store, k, step);
                        write(&store, k, step, 1.0);
                    }
                }
            })
        };
        let flusher = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let mut applied = 0u64;
                loop {
                    let (claimed, _) = flush(&store, 32);
                    if claimed.is_empty() {
                        if store.pending_keys() == 0 && applied > 0 {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    }
                    applied += claimed.iter().map(|(_, s)| s.len() as u64).sum::<u64>();
                }
                applied
            })
        };
        writer.join().unwrap();
        let applied = flusher.join().unwrap();
        let rest = drain(&store);
        assert_eq!(applied + rest, 500 * 16, "every staged update flushed");
        assert_eq!(store.pending_keys(), 0);
    }

    /// The reference: one `BTreeSet` R set and one step list W set per key,
    /// priorities recomputed from scratch.
    #[derive(Default)]
    struct Reference {
        entries: BTreeMap<Key, (BTreeSet<u64>, Vec<u64>)>,
    }

    impl Reference {
        fn priority(&self, key: Key, policy: PriorityPolicy) -> Priority {
            match self.entries.get(&key) {
                Some((r, w)) if !w.is_empty() => match policy {
                    PriorityPolicy::EarliestRead => r.first().copied().unwrap_or(INFINITE),
                    PriorityPolicy::ArrivalOrder => w[0],
                },
                _ => INFINITE,
            }
        }

        /// The pending keys and their priorities.
        fn pending(&self, policy: PriorityPolicy) -> Vec<(Key, Priority)> {
            let keys = self.entries.iter().filter(|(_, (_, w))| !w.is_empty());
            keys.map(|(&k, _)| (k, self.priority(k, policy))).collect()
        }
    }

    /// One generated operation: `(kind, key, x)`. Kind 0 advances the
    /// current step; 1 reads `key` at `x % 4` steps past the later of the
    /// current step and its last read (skipped where its read window
    /// cannot hold it); 2 writes `key` at the current step; 3 runs one
    /// flusher pass of `x % 6 + 1` keys.
    type QueueOp = (u64, Key, u64);

    /// A ring wide enough that no two live priorities of
    /// [`check_shard_queue`]'s operations share a bucket.
    const WIDE: u64 = 512;

    /// Drives a shard queue of `window` buckets and the reference through
    /// `ops` on one thread and checks, after every operation, that the
    /// queue's top never exceeds the lowest pending finite priority and,
    /// after every flusher pass, that each claim drained a pending entry's
    /// whole W set (so it is claimed exactly once and a stale copy never
    /// is) and that the marker covers every claimed priority. On the
    /// [`WIDE`] ring it also checks that the pass claimed lowest first:
    /// nothing still pending is below what it claimed. A narrower ring
    /// shares buckets between live priorities and may flush the higher
    /// one early, but must still drain.
    fn check_shard_queue(
        policy: PriorityPolicy,
        window: u64,
        ops: &[QueueOp],
    ) -> Result<(), String> {
        let ordered = window == WIDE;
        let store = GEntryStore::with_queue(policy, window);
        let mut reference = Reference::default();
        let mut step = 0u64;
        for &(kind, key, x) in ops {
            match kind % 4 {
                0 => step += 1,
                1 => {
                    let r = reference.entries.get(&key).map(|(r, _)| r);
                    let (first, last) = r.map_or((None, None), |r| (r.first(), r.last()));
                    let at = step.max(last.copied().unwrap_or(0)) + x % 4;
                    if first.is_some_and(|&min| at >= min + READ_WINDOW) {
                        continue;
                    }
                    reference.entries.entry(key).or_default().0.insert(at);
                    store.queue_reads(at, &[key]);
                }
                2 => {
                    let (r, w) = reference.entries.entry(key).or_default();
                    r.remove(&step);
                    w.push(step);
                    let row: Arc<[f32]> = vec![step as f32].into();
                    store.queue_writes(step, [(key, row)]);
                }
                _ => {
                    let before: BTreeMap<Key, Priority> =
                        reference.pending(policy).into_iter().collect();
                    let (claimed, marker) = flush(&store, x as usize % 6 + 1);
                    let mut last = 0;
                    for (k, steps) in &claimed {
                        let Some(&p) = before.get(k) else {
                            return Err(format!("claimed {k}, which had no pending write"));
                        };
                        let (r, w) = reference.entries.get_mut(k).unwrap();
                        if steps != w {
                            return Err(format!("claim of {k} drained {steps:?}, pending {w:?}"));
                        }
                        if (ordered && p < last) || p.min(DEFERRED_CLAIM) < marker {
                            return Err(format!(
                                "{k} claimed at {p} after {last}, marker {marker}"
                            ));
                        }
                        last = p;
                        w.clear();
                        if r.is_empty() {
                            reference.entries.remove(k);
                        }
                    }
                    let lowest_left = reference.pending(policy).iter().map(|&(_, p)| p).min();
                    if ordered && lowest_left.is_some_and(|p| p < last) {
                        return Err(format!("claimed {last} while {lowest_left:?} is pending"));
                    }
                }
            }
            let lowest_finite = reference.pending(policy).iter().map(|&(_, p)| p).min();
            if store.top_priority() > lowest_finite.unwrap_or(INFINITE) {
                return Err(format!(
                    "top {} above the lowest pending {lowest_finite:?}",
                    store.top_priority()
                ));
            }
            for &k in reference.entries.keys() {
                if store.priority_of(k) != Some(reference.priority(k, policy)) {
                    return Err(format!("priority of {k} diverged"));
                }
            }
            if store.pending_keys() != reference.pending(policy).len() {
                return Err("pending_keys diverged".to_owned());
            }
        }
        // A full drain claims everything that is left and frees the pools.
        let left: usize = reference.entries.values().map(|(_, w)| w.len()).sum();
        if drain(&store) != left as u64 {
            return Err("the drain did not claim every pending write".to_owned());
        }
        if store.pending_keys() != 0 {
            return Err("pending keys survived the drain".to_owned());
        }
        assert_pools_idle(&store);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn shard_queue_claims_every_pending_write_once_at_its_priority(
            ops in proptest::collection::vec((0u64..4, prop_oneof![0u64..6, 64u64..70], any::<u64>()), 0..300),
            arrival in any::<bool>(),
        ) {
            let policy = if arrival {
                PriorityPolicy::ArrivalOrder
            } else {
                PriorityPolicy::EarliestRead
            };
            for window in [1, 2, 4, WIDE] {
                if let Err(msg) = check_shard_queue(policy, window, &ops) {
                    prop_assert!(false, "window {}: {}", window, msg);
                }
            }
        }
    }
}
