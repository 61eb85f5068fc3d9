//! g-entries: per-parameter metadata of the P²F algorithm (paper §3.3).
//!
//! Each parameter with upcoming reads or pending updates has a g-entry:
//!
//! * `R set` — future training steps that will read the parameter (filled
//!   by the controller's `L`-step lookahead).
//! * `W set` — pending `(step, Δ)` updates not yet flushed to host memory.
//! * `priority` — Equation (1): `min(R)` while `W ≠ ∅`, else ∞.
//!
//! The store keeps g-entries in sharded open-addressing tables and mirrors
//! every priority change into the [`PriorityQueue`], preserving the paper's
//! insert-into-new-before-delete-from-old ordering (delegated to
//! [`PriorityQueue::adjust`]). Only entries with pending writes live in the
//! queue — entries with `W = ∅` have nothing to flush and, by Equation (1),
//! priority ∞, so keeping them out changes no observable behaviour.
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
//! * `w_idx: [u32]` — `slab index + 1` of the entry's pending-write list
//!   (0 = none). The lists themselves live in a per-shard slab with a free
//!   list, so a drained entry keeps its allocation for reuse.
//!
//! Two fields of the old layout are gone outright: the cached `priority`
//! (always recomputable from the R/W sets under the shard lock — every
//! mutation path kept it in sync, so recomputing is equivalent) and the
//! `in_pq` flag (an entry is in the queue *iff* it has pending writes:
//! enqueue happens on the ∅→W transition, dequeue claims drain W whole).
//! Growth keeps the table load factor in `[25/32, 7/8]`, bounding resident
//! metadata below 31 bytes per live key at any size — measured by
//! [`GEntryStore::resident_bytes`] and recorded in DESIGN.md §14. Deletion
//! closes its hole by backward shift, so the table holds live keys and
//! `EMPTY` slots only: it rehashes when the *live* count outgrows it and
//! never otherwise, and capacity tracks the peak live count.

use frugal_data::Key;
use frugal_embed::FlushClaim;
use frugal_pq::{Priority, PriorityQueue, INFINITE};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// this policy an in-queue entry's priority never changes (its first
    /// pending write is fixed until a flusher claims the whole W set), so
    /// registration is pure enqueue — no `adjust` traffic at all.
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

/// Reusable scratch for the batch registration paths: the priority-queue
/// operations one shard's batch generates, staged so the queue sees a
/// single `enqueue_batch` + `adjust_batch` per shard instead of one call
/// per key. Owned by the caller (one per trainer) so the hot loop never
/// allocates after warm-up.
#[derive(Debug, Default)]
pub struct PqOpScratch {
    enqueues: Vec<(Key, Priority)>,
    moves: Vec<(Key, Priority, Priority)>,
}

/// Pending-write lists, slab-allocated per shard so `w_idx` fits in 32
/// bits and drained lists keep their capacity for the next burst.
#[derive(Debug, Default)]
struct WriteSlab {
    lists: Vec<PendingWrites>,
    free: Vec<u32>,
}

impl WriteSlab {
    /// Index of a fresh (empty) list.
    fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(i) => i,
            None => {
                let i = self.lists.len() as u32;
                assert!(i < u32::MAX - 1, "write slab full");
                self.lists.push(PendingWrites::new());
                i
            }
        }
    }

    fn release(&mut self, idx: u32) {
        debug_assert!(self.lists[idx as usize].is_empty());
        self.free.push(idx);
    }
}

/// One shard: the parallel-array table plus the write slab. All access is
/// under the shard's mutex.
#[derive(Debug)]
struct Shard {
    /// Open-addressing slots; `EMPTY` marks a free one. Every live key is
    /// reachable from its home slot without crossing an `EMPTY`.
    keys: Box<[u64]>,
    /// R-set bitset window: bit `i` = read at step `r_base + i`.
    r_bits: Box<[u64]>,
    /// Window anchors (steps fit in 32 bits — the PQ enforces it).
    r_base: Box<[u32]>,
    /// `slab index + 1` of the pending-write list; 0 = no pending writes.
    w_idx: Box<[u32]>,
    /// Live entries.
    len: usize,
    slab: WriteSlab,
}

/// Fibonacci hash: multiplies the key onto the golden ratio so sequential
/// keys spread across the high bits the range reduction consumes.
#[inline]
fn mix(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Shard {
    fn new() -> Self {
        Shard {
            keys: vec![EMPTY; 16].into_boxed_slice(),
            r_bits: vec![0; 16].into_boxed_slice(),
            r_base: vec![0; 16].into_boxed_slice(),
            w_idx: vec![0; 16].into_boxed_slice(),
            len: 0,
            slab: WriteSlab::default(),
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
                    self.w_idx[i] = 0;
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
        let mut w_idx = vec![0u32; new_cap].into_boxed_slice();
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
            w_idx[i] = self.w_idx[old];
        }
        self.keys = keys;
        self.r_bits = r_bits;
        self.r_base = r_base;
        self.w_idx = w_idx;
    }

    /// Deletes the entry at `slot` (must be dead: R and W both empty) and
    /// closes the hole by backward shift: each later entry of the probe run
    /// moves into the hole unless its home slot lies cyclically in
    /// `(hole, entry]` — moving that one would put it before its home, out
    /// of reach of its own probe. The run's end (an `EMPTY`, which the 7/8
    /// load ceiling guarantees exists) becomes the new hole's terminator, so
    /// no probe run is ever cut and none grows with deletion traffic.
    fn remove(&mut self, slot: usize) {
        debug_assert!(self.r_is_empty(slot) && self.w_idx[slot] == 0);
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
                self.w_idx[hole] = self.w_idx[i];
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

    fn w_push(&mut self, slot: usize, step: u64, grad: Arc<[f32]>) {
        let idx = match self.w_idx[slot] {
            0 => {
                let i = self.slab.alloc();
                self.w_idx[slot] = i + 1;
                i
            }
            i => i - 1,
        };
        let list = &mut self.slab.lists[idx as usize];
        if list.capacity() == 0 {
            // Nearly every key holds exactly one pending write between
            // flushes; Vec's default first allocation (capacity 4, 96 B)
            // would quadruple the dominant slab cost and push the store
            // past its 32 bytes/key budget at scale.
            list.reserve_exact(1);
        }
        list.push((step, grad));
    }

    /// Drains the W set into `out` (step order preserved) and returns how
    /// many updates were claimed. The slab list keeps its capacity.
    fn w_take(&mut self, slot: usize, out: &mut PendingWrites) -> usize {
        match self.w_idx[slot] {
            0 => 0,
            i => {
                let idx = i - 1;
                let list = &mut self.slab.lists[idx as usize];
                let n = list.len();
                out.append(list);
                self.w_idx[slot] = 0;
                self.slab.release(idx);
                n
            }
        }
    }

    /// First pending write's step (arrival-order priority); `None` if W=∅.
    fn w_first_step(&self, slot: usize) -> Option<u64> {
        match self.w_idx[slot] {
            0 => None,
            i => self.slab.lists[(i - 1) as usize].first().map(|&(s, _)| s),
        }
    }

    #[inline]
    fn has_writes(&self, slot: usize) -> bool {
        self.w_idx[slot] != 0
    }

    /// Equation (1) under `policy`. An entry is in the queue iff `W ≠ ∅`,
    /// and this is its authoritative queue priority while it is.
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

    /// Resident bytes of this shard's metadata: the parallel arrays and the
    /// slab skeleton (entry tuples, not the shared gradient payloads —
    /// those belong to the training pipeline and are counted by its own
    /// accounting).
    fn resident_bytes(&self) -> usize {
        let slots = self.keys.len() * (8 + 8 + 4 + 4);
        let slab = self.slab.lists.capacity() * std::mem::size_of::<PendingWrites>()
            + self
                .slab
                .lists
                .iter()
                .map(|l| l.capacity() * std::mem::size_of::<(u64, Arc<[f32]>)>())
                .sum::<usize>()
            + self.slab.free.capacity() * 4;
        slots + slab
    }
}

/// The sharded g-entry store.
///
/// All mutations lock exactly one shard, so the controller, trainers, and
/// flushing threads proceed mostly independently.
#[derive(Debug)]
pub struct GEntryStore {
    shards: Vec<Mutex<Shard>>,
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

    /// Creates an empty store deriving priorities with `policy`.
    pub fn with_policy(policy: PriorityPolicy) -> Self {
        GEntryStore {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
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

    /// Resident bytes of g-entry metadata across all shards: slot arrays
    /// and write-slab skeleton. Gradient payloads (`Arc<[f32]>` data) are
    /// shared with the cache-update path and not counted here. This is the
    /// bytes-per-key quantity DESIGN.md §14 tracks at 1M/10M/100M keys.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().resident_bytes()).sum()
    }

    /// Registers the aggregated updates of `step` for every `(key, Δ)` in
    /// `items` (paper §3.3, step 3): removes `step` from each R set, appends
    /// `(step, Δ)` to the W set, and enqueues or repositions the entry. Each
    /// contiguous same-shard run of `items` takes its shard's lock once
    /// (callers pre-group by [`GEntryStore::shard_of`], so "once per run" is
    /// once per shard) and hands the queue one `enqueue_batch` +
    /// `adjust_batch`.
    ///
    /// The queue operations execute while the shard lock is still held.
    /// Releasing the lock first would let a concurrent mutator of the same
    /// key observe a queued entry (`W ≠ ∅`) not yet physically present and
    /// emit an `adjust` whose old position does not exist.
    ///
    /// Returns how many of the items left registration with priority
    /// `step + 1`: the rows written now that the very next step reads —
    /// the P²F blocking rows of paper Fig 6. The count depends only on the
    /// R sets (filled by lookahead registration in earlier steps), never on
    /// how far the flushers have drained, so it is a pure function of the
    /// batch stream. Always 0 under [`PriorityPolicy::ArrivalOrder`], whose
    /// priorities are write steps.
    ///
    /// This slice form shares each row with the caller (one `Arc` clone per
    /// item); [`GEntryStore::add_writes_iter`] takes the rows from any
    /// iterator.
    pub fn add_writes_batch(
        &self,
        step: u64,
        items: &[(Key, Arc<[f32]>)],
        pq: &dyn PriorityQueue,
        scratch: &mut PqOpScratch,
    ) -> u64 {
        let shared = items.iter().map(|(key, grad)| (*key, Arc::clone(grad)));
        self.add_writes_iter(step, shared, pq, scratch)
    }

    /// The one write-registration routine: the registration of
    /// [`GEntryStore::add_writes_batch`] over the `(key, Δ)` pairs `items`
    /// yields, each row moved into its W set as it comes. The pairs must
    /// arrive grouped by shard (see [`GEntryStore::group_by_shard`]) for
    /// the one-lock-per-shard promise.
    pub fn add_writes_iter(
        &self,
        step: u64,
        items: impl IntoIterator<Item = (Key, Arc<[f32]>)>,
        pq: &dyn PriorityQueue,
        scratch: &mut PqOpScratch,
    ) -> u64 {
        let mut read_next = 0u64;
        let mut items = items.into_iter().peekable();
        while let Some(&(first, _)) = items.peek() {
            let sid = Self::shard_of(first);
            let mut shard = self.shards[sid].lock();
            scratch.enqueues.clear();
            scratch.moves.clear();
            let mut newly_pending = 0usize;
            while let Some((key, grad)) = items.next_if(|&(key, _)| Self::shard_of(key) == sid) {
                let slot = shard.ensure(key);
                let had_writes = shard.has_writes(slot);
                let old_p = if had_writes {
                    shard.priority(slot, self.policy)
                } else {
                    INFINITE
                };
                shard.r_remove(slot, step);
                shard.w_push(slot, step, grad);
                let new_p = shard.priority(slot, self.policy);
                read_next += u64::from(new_p == step + 1);
                if !had_writes {
                    newly_pending += 1;
                    scratch.enqueues.push((key, new_p));
                } else if new_p != old_p {
                    scratch.moves.push((key, old_p, new_p));
                }
            }
            // Count before the entries become findable (the drain check
            // `shutdown && pending_keys() == 0` must never observe a queued
            // entry it thinks is already flushed). A claim of these keys
            // blocks on the shard lock until after this, so the matching
            // decrement cannot run first.
            if newly_pending > 0 {
                self.pending_keys.fetch_add(newly_pending, Ordering::AcqRel);
            }
            sched_point!("gentry.writes_batch.publish");
            // Under arrival order every fresh enqueue has priority `step`
            // (a claimed key re-entering the queue had an empty W set) and
            // nothing moves, so the shard's batch is one run of one
            // priority.
            pq.enqueue_batch(&scratch.enqueues);
            pq.adjust_batch(&scratch.moves);
        }
        read_next
    }

    /// Registers that every key in `keys` will be read at `step` (the
    /// sample-queue prefetch), with the same shard-run locking as
    /// [`GEntryStore::add_writes_batch`]; an entry with pending writes whose
    /// priority the read tightens is repositioned in one `adjust_batch` per
    /// shard. Callers pre-group `keys` by shard, and register each key's
    /// reads in step order within [`READ_WINDOW`] steps of its earliest
    /// live read (panics otherwise). A repeat of a key's read of `step`,
    /// in the same batch or a later one, is a no-op: the R set holds one
    /// bit per step, so it moves no priority and issues no queue
    /// operation.
    pub fn add_reads_batch(
        &self,
        step: u64,
        keys: &[Key],
        pq: &dyn PriorityQueue,
        scratch: &mut PqOpScratch,
    ) {
        let mut i = 0;
        while i < keys.len() {
            let sid = Self::shard_of(keys[i]);
            let mut shard = self.shards[sid].lock();
            scratch.moves.clear();
            while i < keys.len() && Self::shard_of(keys[i]) == sid {
                let key = keys[i];
                let slot = shard.ensure(key);
                if shard.has_writes(slot) {
                    let old_p = shard.priority(slot, self.policy);
                    shard.r_insert(slot, step);
                    let new_p = shard.priority(slot, self.policy);
                    if new_p != old_p {
                        scratch.moves.push((key, old_p, new_p));
                    }
                } else {
                    shard.r_insert(slot, step);
                }
                i += 1;
            }
            sched_point!("gentry.reads_batch.publish");
            pq.adjust_batch(&scratch.moves);
        }
    }

    /// Claims the pending writes of `key` for flushing: the batch of one of
    /// [`GEntryStore::take_writes_batch`]. Appends the claimed `(step, Δ)`
    /// pairs to `out` (step order preserved) and returns how many were
    /// claimed — 0 for a stale dequeue.
    pub fn take_writes_into(
        &self,
        key: Key,
        bucket_priority: Priority,
        out: &mut PendingWrites,
    ) -> usize {
        let start = out.len();
        self.claim_runs(&[(key, bucket_priority)], out, |_| {});
        out.len() - start
    }

    /// Claims a whole dequeued batch for flushing. Each `(key, bucket
    /// priority)` pair of `batch` is claimed, in order, if the bucket
    /// priority still matches the entry's authoritative priority; otherwise
    /// it is a stale dequeue (the paper's inconsistent-g-entry check: the
    /// entry was repositioned and is live elsewhere in the queue, or it was
    /// already claimed) and is skipped. A claimed entry leaves the queue
    /// with its W set drained; if its R set is empty too, it is deleted.
    ///
    /// Each claim appends the entry's `(step, Δ)` pairs, in step order, to
    /// `writes` and its `(key, start, end)` range into them to `claims`.
    /// Each contiguous same-shard run of `batch` takes its shard's lock once
    /// and settles `pending_keys` once, so a flusher that groups its batch
    /// by shard ([`GEntryStore::group_by_shard`]) pays both per shard, not
    /// per key; the order of the keys inside a run does not matter. Both
    /// outputs are appended to, never cleared: flushers reuse them batch
    /// after batch, so the claim path allocates nothing after warm-up, and
    /// the entries' W-list capacity stays in the shard slabs for reuse.
    pub fn take_writes_batch(
        &self,
        batch: &[(Key, Priority)],
        writes: &mut PendingWrites,
        claims: &mut Vec<FlushClaim>,
    ) {
        self.claim_runs(batch, writes, |claim| claims.push(claim));
    }

    /// The one claim routine behind [`GEntryStore::take_writes_into`] and
    /// [`GEntryStore::take_writes_batch`].
    ///
    /// Each pair is validated under its shard's lock against the entry's
    /// authoritative priority at that moment — a registrant that
    /// re-positions a key while the run's earlier keys are being claimed
    /// either did so before the lock was taken (the pair is stale and
    /// refused) or waits for the whole run. `pending_keys` drops once per
    /// run, after the lock: later than per key is the conservative
    /// direction (its readers only ever wait for zero), and the run's
    /// in-flight marker is still up.
    fn claim_runs(
        &self,
        batch: &[(Key, Priority)],
        out: &mut PendingWrites,
        mut claimed: impl FnMut(FlushClaim),
    ) {
        for run in batch.chunk_by(|a, b| Self::shard_of(a.0) == Self::shard_of(b.0)) {
            // Explorer hook for the claim window: a concurrent registrant
            // may reposition an entry between the dequeue that produced its
            // bucket priority and this validation. Both hooks sit outside
            // the shard lock — a suspended lock-holder would wedge any
            // runnable vthread that OS-blocks on the same shard.
            sched_point!("gentry.take_writes.enter");
            let mut keys_claimed = 0usize;
            {
                let mut shard = self.shards[Self::shard_of(run[0].0)].lock();
                for &(key, bucket_priority) in run {
                    let Some(slot) = shard.find(key) else {
                        continue;
                    };
                    // Stale dequeue (the paper's inconsistent-g-entry
                    // check): repositioned and live elsewhere in the queue,
                    // or already claimed.
                    if !shard.has_writes(slot)
                        || shard.priority(slot, self.policy) != bucket_priority
                    {
                        continue;
                    }
                    let start = out.len();
                    let n = shard.w_take(slot, out);
                    if shard.r_is_empty(slot) {
                        shard.remove(slot);
                    }
                    keys_claimed += 1;
                    claimed((key, start, start + n));
                }
            }
            if keys_claimed > 0 {
                self.pending_keys.fetch_sub(keys_claimed, Ordering::AcqRel);
            }
            sched_point!(if keys_claimed == 0 {
                "gentry.take_writes.stale"
            } else {
                "gentry.take_writes.claimed"
            });
        }
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

    /// Registers `key`'s read of `step` (a one-key batch).
    fn read(store: &GEntryStore, pq: &dyn PriorityQueue, key: Key, step: u64) {
        store.add_reads_batch(step, &[key], pq, &mut PqOpScratch::default());
    }

    /// Registers `key`'s update `[v]` of `step` (a one-key batch).
    fn write(store: &GEntryStore, pq: &dyn PriorityQueue, key: Key, step: u64, v: f32) {
        let items = [(key, Arc::from([v].as_slice()))];
        store.add_writes_batch(step, &items, pq, &mut PqOpScratch::default());
    }

    /// Claims `key` at bucket priority `p`: its drained writes, or `None`
    /// for a stale claim.
    fn take(store: &GEntryStore, key: Key, p: Priority) -> Option<PendingWrites> {
        let mut out = PendingWrites::new();
        (store.take_writes_into(key, p, &mut out) > 0).then_some(out)
    }

    /// Claims a dequeued batch the flusher's way; returns the rows claimed.
    fn claim(store: &GEntryStore, batch: &[(Key, Priority)]) -> u64 {
        let mut writes = PendingWrites::new();
        store.take_writes_batch(batch, &mut writes, &mut Vec::new());
        writes.len() as u64
    }

    #[test]
    fn read_only_entries_stay_out_of_queue() {
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(100);
        read(&store, &pq, 5, 3);
        assert!(pq.is_empty());
        assert_eq!(store.priority_of(5), Some(INFINITE));
        assert_eq!(store.pending_keys(), 0);
    }

    #[test]
    fn write_enqueues_with_min_read_priority() {
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(100);
        for step in [1, 3, 7] {
            read(&store, &pq, 5, step);
        }
        write(&store, &pq, 5, 1, 0.1);
        // Read at step 1 was consumed; min remaining read is 3.
        assert_eq!(store.priority_of(5), Some(3));
        assert_eq!(pq.top_priority(), 3);
        assert_eq!(store.pending_keys(), 1);
    }

    #[test]
    fn write_without_future_reads_is_infinite() {
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(100);
        read(&store, &pq, 9, 0);
        write(&store, &pq, 9, 0, 1.0);
        assert_eq!(store.priority_of(9), Some(INFINITE));
        assert_eq!(pq.top_priority(), INFINITE);
        assert_eq!(pq.len(), 1); // still flushed eventually
    }

    #[test]
    fn later_read_reactivates_infinite_entry() {
        // Paper Figure 6, k1: deferred update gets a priority once the key
        // is prefetched again.
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(100);
        read(&store, &pq, 1, 0);
        write(&store, &pq, 1, 0, 1.0);
        assert_eq!(store.priority_of(1), Some(INFINITE));
        read(&store, &pq, 1, 2);
        assert_eq!(store.priority_of(1), Some(2));
        assert_eq!(pq.top_priority(), 2);
    }

    #[test]
    fn take_writes_returns_updates_in_step_order() {
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(100);
        read(&store, &pq, 4, 0);
        write(&store, &pq, 4, 0, 1.0);
        read(&store, &pq, 4, 5);
        write(&store, &pq, 4, 5, 2.0);
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
        let pq = TwoLevelPq::new(100);
        read(&store, &pq, 4, 2);
        write(&store, &pq, 4, 0, 1.0); // priority 2
        assert!(take(&store, 4, 7).is_none(), "wrong bucket priority");
        assert!(take(&store, 4, 2).is_some());
        assert!(take(&store, 4, 2).is_none(), "already drained");
    }

    #[test]
    fn surviving_reads_keep_entry_alive() {
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(100);
        read(&store, &pq, 4, 2);
        read(&store, &pq, 4, 9);
        write(&store, &pq, 4, 0, 1.0);
        let w = take(&store, 4, 2).unwrap();
        assert_eq!(w.len(), 1);
        // Reads at 2 and 9 remain; entry alive but out of the queue.
        assert_eq!(store.len(), 1);
        assert_eq!(store.priority_of(4), Some(INFINITE));
        // A new write re-enqueues at the surviving min read.
        write(&store, &pq, 4, 2, 3.0);
        assert_eq!(store.priority_of(4), Some(9));
    }

    #[test]
    fn invariant_check_detects_violation_state() {
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(100);
        read(&store, &pq, 4, 6);
        assert!(store.invariant_holds(4, 6), "reads alone are fine");
        write(&store, &pq, 4, 0, 1.0);
        assert!(!store.invariant_holds(4, 6), "pending write + read at 6");
        assert!(store.invariant_holds(4, 7), "no read registered at 7");
        let p = store.priority_of(4).unwrap();
        take(&store, 4, p).unwrap();
        assert!(store.invariant_holds(4, 6), "flushed");
    }

    #[test]
    fn paper_figure6_walkthrough() {
        // Reproduces the worked example of Figure 6 (L = 2, keys k1..k3).
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(10);
        let mut scratch = PqOpScratch::default();
        let delta = |keys: &[Key]| -> Vec<(Key, Arc<[f32]>)> {
            keys.iter()
                .map(|&k| (k, Arc::from([0.5f32].as_slice())))
                .collect()
        };
        // ❶ prefetch step 0 (k1,k2,k3; shards 1..3) and step 1 (k2).
        store.add_reads_batch(0, &[1, 2, 3], &pq, &mut scratch);
        store.add_reads_batch(1, &[2], &pq, &mut scratch);
        // ❷ top is ∞ > step 0: train.
        assert!(pq.top_priority() > 0);
        // ❸ backward of step 0 records Δ for all three keys.
        store.add_writes_batch(0, &delta(&[1, 2, 3]), &pq, &mut scratch);
        // k2 has a read at step 1 -> priority 1; k1,k3 -> ∞.
        assert_eq!(store.priority_of(2), Some(1));
        assert_eq!(store.priority_of(1), Some(INFINITE));
        assert_eq!(store.priority_of(3), Some(INFINITE));
        // ❹ prefetch step 2 (k1).
        store.add_reads_batch(2, &[1], &pq, &mut scratch);
        assert_eq!(store.priority_of(1), Some(2));
        // ❺ top is 1, not > step 1: training must wait.
        assert!(pq.top_priority() <= 1);
        // ❻-❼ flush k2, then train step 1.
        let (mut out, mut writes, mut claims) = (Vec::new(), Vec::new(), Vec::new());
        pq.dequeue_batch(1, &mut out);
        assert_eq!(out[0].0, 2);
        store.take_writes_batch(&out, &mut writes, &mut claims);
        assert_eq!(claims.len(), 1);
        assert!(pq.top_priority() > 1);
        // ❽ backward of step 1 (k2 again, no more reads).
        store.add_writes_batch(1, &delta(&[2]), &pq, &mut scratch);
        assert_eq!(store.priority_of(2), Some(INFINITE));
        // k1's update from step 0 is still deferred (blue dashed box):
        assert!(store.has_pending_writes(1));
        // ❾ top is 2, not > 2? top == 2 blocks step 2 until k1 flushed.
        assert_eq!(pq.top_priority(), 2);
        out.clear();
        pq.dequeue_batch(1, &mut out);
        store.take_writes_batch(&out, &mut writes, &mut claims);
        assert_eq!(claims.len(), 2);
        assert!(pq.top_priority() > 2);
        // ❾ train step 2 (k1), record its update.
        store.add_writes_batch(2, &delta(&[1]), &pq, &mut scratch);
        // ❿ after training, drain the deferred ∞ updates (k1, k2, k3).
        out.clear();
        pq.dequeue_batch(10, &mut out);
        store.take_writes_batch(&out, &mut writes, &mut claims);
        assert_eq!(claims.len(), 5);
        assert_eq!(store.pending_keys(), 0);
        assert!(store.is_empty());
    }

    /// Groups keys by shard (stable within a shard), the pre-grouping the
    /// batch APIs expect from callers.
    fn shard_grouped(keys: &[Key]) -> Vec<Key> {
        let mut v = keys.to_vec();
        v.sort_by_key(|&k| GEntryStore::shard_of(k));
        v
    }

    #[test]
    fn batch_writes_match_sequential_path() {
        // The same operation stream as whole shard-grouped batches and as
        // a sequence of one-key batches must leave identical store + queue
        // state: the shard-run locking and the staged queue operations
        // change nothing observable.
        let seq_store = GEntryStore::new();
        let seq_pq = TwoLevelPq::new(100);
        let bat_store = GEntryStore::new();
        let bat_pq = TwoLevelPq::new(100);
        let mut scratch = PqOpScratch::default();

        // Keys spanning several shards (incl. two in the same shard:
        // 1 and 65), some with tightening reads, some deferred. The reads
        // of step 0 anchor every window; the writes of step 0 consume them.
        let keys: Vec<Key> = vec![1, 65, 2, 130, 7, 64];
        for step in [0, 3] {
            for &k in &keys {
                read(&seq_store, &seq_pq, k, step);
            }
            bat_store.add_reads_batch(step, &shard_grouped(&keys), &bat_pq, &mut scratch);
        }

        let grad: Arc<[f32]> = vec![0.5].into();
        let items: Vec<(Key, Arc<[f32]>)> = keys.iter().map(|&k| (k, Arc::clone(&grad))).collect();
        for item in &items {
            seq_store.add_writes_batch(0, std::slice::from_ref(item), &seq_pq, &mut scratch);
        }
        let mut grouped = items.clone();
        grouped.sort_by_key(|&(k, _)| GEntryStore::shard_of(k));
        bat_store.add_writes_batch(0, &grouped, &bat_pq, &mut scratch);

        // A later-registered read of an earlier step re-tightens priorities.
        for &k in &[1u64, 2] {
            read(&seq_store, &seq_pq, k, 1);
        }
        bat_store.add_reads_batch(1, &shard_grouped(&[1, 2]), &bat_pq, &mut scratch);

        for &k in &keys {
            assert_eq!(
                seq_store.priority_of(k),
                bat_store.priority_of(k),
                "key {k} priority diverged"
            );
        }
        assert_eq!(bat_store.priority_of(1), Some(1));
        assert_eq!(bat_store.priority_of(65), Some(3));
        assert_eq!(seq_store.pending_keys(), bat_store.pending_keys());
        assert_eq!(seq_pq.top_priority(), bat_pq.top_priority());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        seq_pq.dequeue_batch(usize::MAX, &mut a);
        bat_pq.dequeue_batch(usize::MAX, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "queue contents diverged");
    }

    #[test]
    fn a_repeated_read_of_a_step_is_a_no_op() {
        // The engine registers a key two streams share once per stream:
        // the repeat, in the same batch or a later one of the same step,
        // must leave the entry and the queue as one registration does.
        let r_set = |store: &GEntryStore, k: Key| {
            let shard = store.shard(k).lock();
            let slot = shard.find(k).expect("registered key");
            (shard.r_base[slot], shard.r_bits[slot])
        };
        for pending in [false, true] {
            let k: Key = 9;
            let (once, once_pq) = (GEntryStore::new(), TwoLevelPq::new(100));
            let (twice, twice_pq) = (GEntryStore::new(), TwoLevelPq::new(100));
            for (store, pq) in [(&once, &once_pq), (&twice, &twice_pq)] {
                read(store, pq, k, 0);
                if pending {
                    // Consumes the read of 0: W = {0}, R = {}, priority ∞.
                    write(store, pq, k, 0, 1.0);
                }
            }
            let (mut a, mut b) = (PqOpScratch::default(), PqOpScratch::default());
            once.add_reads_batch(3, &[k], &once_pq, &mut a);
            twice.add_reads_batch(3, &[k, k], &twice_pq, &mut b);
            assert_eq!(a.moves, b.moves, "pending {pending}: the repeat moved");
            assert_eq!(a.moves.len(), usize::from(pending));
            twice.add_reads_batch(3, &[k], &twice_pq, &mut b);
            assert!(
                b.moves.is_empty(),
                "pending {pending}: a later repeat moved"
            );

            assert_eq!(r_set(&once, k), r_set(&twice, k), "pending {pending}");
            assert_eq!(once.priority_of(k), twice.priority_of(k));
            assert_eq!(once_pq.len(), twice_pq.len());
            assert_eq!(once_pq.peek_top(), twice_pq.peek_top());
            assert_eq!(once.pending_keys(), twice.pending_keys());
            let expected = if pending {
                (Some(3), 1)
            } else {
                (Some(INFINITE), 0)
            };
            assert_eq!((twice.priority_of(k), twice_pq.len()), expected);
        }
    }

    #[test]
    fn batch_write_then_take_round_trip() {
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(100);
        let mut scratch = PqOpScratch::default();
        store.add_reads_batch(2, &[4, 68], &pq, &mut scratch);
        let items: Vec<(Key, Arc<[f32]>)> = vec![(4, vec![1.0].into()), (68, vec![2.0].into())];
        store.add_writes_batch(0, &items, &pq, &mut scratch);
        assert_eq!(store.pending_keys(), 2);
        assert_eq!(pq.top_priority(), 2);
        let mut out = Vec::new();
        pq.dequeue_batch(usize::MAX, &mut out);
        let (mut writes, mut claims) = (Vec::new(), Vec::new());
        store.take_writes_batch(&out, &mut writes, &mut claims);
        assert_eq!(claims.len(), 2, "fresh entries claimable");
        assert!(claims.iter().all(|&(_, start, end)| end - start == 1));
        assert_eq!(store.pending_keys(), 0);
    }

    #[test]
    fn arrival_order_priority_is_first_write_step() {
        let store = GEntryStore::with_policy(PriorityPolicy::ArrivalOrder);
        let pq = TwoLevelPq::new(100);
        // Reads never matter under arrival order.
        read(&store, &pq, 5, 1);
        write(&store, &pq, 5, 3, 0.1);
        assert_eq!(store.priority_of(5), Some(3));
        // A later write does not move the entry: the first pending write
        // still gates it.
        write(&store, &pq, 5, 7, 0.2);
        assert_eq!(store.priority_of(5), Some(3));
        // Nor does a tightening read (the P²F policy would move it to 1,
        // then 4 once step 1 is written).
        read(&store, &pq, 5, 4);
        assert_eq!(store.priority_of(5), Some(3));
        assert_eq!(pq.top_priority(), 3);
        // The claim drains both writes in step order; a fresh write then
        // re-enqueues at its own step.
        let w = take(&store, 5, 3).expect("claimable");
        assert_eq!(w.iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![3, 7]);
        write(&store, &pq, 5, 9, 0.3);
        assert_eq!(store.priority_of(5), Some(9));
    }

    #[test]
    fn arrival_order_batch_matches_per_key_path() {
        // Whole batches and one-key batches under arrival order.
        let seq_store = GEntryStore::with_policy(PriorityPolicy::ArrivalOrder);
        let seq_pq = TwoLevelPq::new(100);
        let bat_store = GEntryStore::with_policy(PriorityPolicy::ArrivalOrder);
        let bat_pq = TwoLevelPq::new(100);
        let mut scratch = PqOpScratch::default();
        let keys: Vec<Key> = vec![1, 65, 2, 130, 7, 64];
        let grad: Arc<[f32]> = vec![0.5].into();
        for step in [2u64, 5] {
            let items: Vec<(Key, Arc<[f32]>)> =
                keys.iter().map(|&k| (k, Arc::clone(&grad))).collect();
            for item in &items {
                seq_store.add_writes_batch(step, std::slice::from_ref(item), &seq_pq, &mut scratch);
            }
            let mut grouped = items.clone();
            grouped.sort_by_key(|&(k, _)| GEntryStore::shard_of(k));
            bat_store.add_writes_batch(step, &grouped, &bat_pq, &mut scratch);
        }
        for &k in &keys {
            assert_eq!(seq_store.priority_of(k), bat_store.priority_of(k));
            assert_eq!(seq_store.priority_of(k), Some(2), "first write step");
        }
        assert_eq!(seq_pq.top_priority(), bat_pq.top_priority());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        seq_pq.dequeue_batch(usize::MAX, &mut a);
        bat_pq.dequeue_batch(usize::MAX, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "queue contents diverged");
    }

    #[test]
    fn batch_write_counts_rows_the_next_step_reads() {
        // Fig 6: of the rows written at step 0, only those with a read
        // registered for step 1 block — wherever the flushers stand.
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(100);
        let mut scratch = PqOpScratch::default();
        store.add_reads_batch(1, &[3, 67], &pq, &mut scratch);
        store.add_reads_batch(2, &[5], &pq, &mut scratch);
        let items: Vec<(Key, Arc<[f32]>)> = vec![
            (3, vec![1.0].into()),
            (67, vec![1.0].into()),
            (5, vec![1.0].into()),
            (9, vec![1.0].into()),
        ];
        assert_eq!(store.add_writes_batch(0, &items, &pq, &mut scratch), 2);
        // A second write to an already-pending row counts again at its own
        // step; draining in between changes nothing.
        let mut out = Vec::new();
        pq.dequeue_batch(usize::MAX, &mut out);
        store.take_writes_batch(&out, &mut Vec::new(), &mut Vec::new());
        let again: Vec<(Key, Arc<[f32]>)> = vec![(5, vec![1.0].into()), (9, vec![1.0].into())];
        assert_eq!(store.add_writes_batch(1, &again, &pq, &mut scratch), 1);
        // Arrival-order priorities are write steps: never `step + 1`.
        let fifo = GEntryStore::with_policy(PriorityPolicy::ArrivalOrder);
        assert_eq!(fifo.add_writes_batch(0, &items, &pq, &mut scratch), 0);
    }

    #[test]
    fn read_window_slides_past_consumed_steps() {
        // The engine's shape at the widest lookahead: reads `READ_WINDOW`
        // steps apart are live together only after the earlier ones are
        // written, so the window slides up over the consumed steps.
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(10_000);
        let last = READ_WINDOW - 1;
        // A window anchored at 0 holding both of its ends...
        read(&store, &pq, 7, 0);
        read(&store, &pq, 7, last);
        write(&store, &pq, 7, 0, 1.0);
        assert_eq!(store.priority_of(7), Some(last));
        // ...slides once step 0 is consumed: a read `READ_WINDOW` past the
        // base fits, and so does one past the slid window's end.
        read(&store, &pq, 7, READ_WINDOW);
        read(&store, &pq, 7, last + 40);
        assert_eq!(store.priority_of(7), Some(last));
        assert!(!store.invariant_holds(7, READ_WINDOW));
        // Consuming `last` leaves the slid reads.
        write(&store, &pq, 7, last, 1.0);
        assert_eq!(store.priority_of(7), Some(READ_WINDOW));
        write(&store, &pq, 7, READ_WINDOW, 1.0);
        assert_eq!(store.priority_of(7), Some(last + 40));
        // Claiming keeps the surviving far read, and the entry with it.
        let p = store.priority_of(7).unwrap();
        assert_eq!(take(&store, 7, p).unwrap().len(), 3);
        assert_eq!(store.len(), 1);
        assert!(store.invariant_holds(7, last + 40));
        // Once the window empties, a fresh far read re-anchors it.
        write(&store, &pq, 7, last + 40, 1.0);
        read(&store, &pq, 7, 900);
        assert_eq!(store.priority_of(7), Some(900));
        assert_eq!(take(&store, 7, 900).unwrap().len(), 1);
        assert_eq!(store.priority_of(7), Some(INFINITE));
    }

    #[test]
    #[should_panic(expected = "read of key 7 at step 2 outside its 64-step window at base 3")]
    fn a_read_below_the_live_window_panics() {
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(100);
        read(&store, &pq, 7, 3);
        read(&store, &pq, 7, 2);
    }

    #[test]
    #[should_panic(expected = "read of key 7 at step 64 outside its 64-step window at base 0")]
    fn a_read_past_the_live_window_panics() {
        // Step 0 is still live, so the window cannot slide to take step 64:
        // a lookahead of `READ_WINDOW + 1`.
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(100);
        read(&store, &pq, 7, 0);
        read(&store, &pq, 7, READ_WINDOW);
    }

    #[test]
    fn table_growth_preserves_entries_and_bounds_memory() {
        // Thousands of same-shard keys force many growth rehashes; every
        // entry must survive with its R/W state, and resident bytes per
        // live key must stay under the §14 bound.
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(1_000);
        let n = 4_000u64;
        let keys: Vec<Key> = (0..n).map(|i| i * SHARDS as u64).collect(); // all shard 0
        store.add_reads_batch(10, &keys, &pq, &mut PqOpScratch::default());
        for &key in &keys {
            assert_eq!(store.priority_of(key), Some(INFINITE), "key {key}");
            assert!(store.invariant_holds(key, 11));
            assert!(!store.invariant_holds(key, 10) || !store.has_pending_writes(key));
        }
        assert_eq!(store.len(), n as usize);
        // One shard carries all n entries; its table alone must respect
        // the per-key byte bound (the other 63 idle shards only add their
        // fixed 16-slot skeletons).
        let idle = 63 * (16 * 24);
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
        let mut shard = Shard::new();
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
        // force a same-size rehash every other step.
        let store = GEntryStore::new();
        let pq = TwoLevelPq::new(10);
        let key_of = |i: u64| i * SHARDS as u64; // all shard 0
        let live = 500u64;
        let churn = |from: u64, rounds: u64| {
            for i in from..from + rounds {
                write(&store, &pq, key_of(i + live), 0, 1.0);
                assert!(take(&store, key_of(i), INFINITE).is_some());
            }
        };
        for i in 0..live {
            write(&store, &pq, key_of(i), 0, 1.0);
        }
        churn(0, 2 * live);
        let table = |store: &GEntryStore| {
            let shard = store.shards[0].lock();
            shard.assert_probe_runs_intact();
            (shard.keys.as_ptr(), shard.keys.len())
        };
        let warm = table(&store);
        churn(2 * live, 20_000);
        // `grow` allocates its new slices before dropping the old ones, so
        // an unchanged address means no rehash happened at all.
        assert_eq!(table(&store), warm, "steady-state churn rebuilt the table");
        assert_eq!(store.len(), live as usize);
    }

    #[test]
    fn concurrent_batch_writers_and_flusher_balance() {
        // Two batch registrants on disjoint shard sets racing one flusher:
        // the P²F drain invariant (every staged update flushed exactly
        // once) must survive the batch path.
        let store = Arc::new(GEntryStore::new());
        let pq = Arc::new(TwoLevelPq::new(2_000));
        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let (store, pq) = (Arc::clone(&store), Arc::clone(&pq));
                std::thread::spawn(move || {
                    let mut scratch = PqOpScratch::default();
                    for step in 0..300u64 {
                        // Trainer t owns shards with parity t (key % 2 == t
                        // implies shard % 2 == t for SHARDS = 64).
                        let keys: Vec<Key> = (0..16u64).map(|i| 2 * i + t).collect();
                        let reads = shard_grouped(&keys);
                        store.add_reads_batch(step, &reads, pq.as_ref(), &mut scratch);
                        let mut items: Vec<(Key, Arc<[f32]>)> =
                            keys.iter().map(|&k| (k, vec![1.0f32].into())).collect();
                        items.sort_by_key(|&(k, _)| GEntryStore::shard_of(k));
                        store.add_writes_batch(step, &items, pq.as_ref(), &mut scratch);
                    }
                })
            })
            .collect();
        let flusher = {
            let (store, pq) = (Arc::clone(&store), Arc::clone(&pq));
            std::thread::spawn(move || {
                let mut applied = 0u64;
                let mut out = Vec::new();
                let mut idle = 0;
                while idle < 1_000 {
                    out.clear();
                    pq.dequeue_batch(32, &mut out);
                    if out.is_empty() {
                        idle += 1;
                        std::thread::yield_now();
                        continue;
                    }
                    idle = 0;
                    applied += claim(&store, &out);
                }
                applied
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        let applied = flusher.join().unwrap();
        let mut out = Vec::new();
        pq.dequeue_batch(usize::MAX, &mut out);
        let rest = claim(&store, &out);
        assert_eq!(applied + rest, 2 * 300 * 16, "every staged update flushed");
        assert_eq!(store.pending_keys(), 0);
    }

    #[test]
    fn concurrent_writes_and_takes_balance() {
        let store = Arc::new(GEntryStore::new());
        let pq = Arc::new(TwoLevelPq::new(1_000));
        let writer = {
            let (store, pq) = (Arc::clone(&store), Arc::clone(&pq));
            std::thread::spawn(move || {
                for step in 0..500u64 {
                    for k in 0..16u64 {
                        read(&store, pq.as_ref(), k, step);
                        write(&store, pq.as_ref(), k, step, 1.0);
                    }
                }
            })
        };
        let flusher = {
            let (store, pq) = (Arc::clone(&store), Arc::clone(&pq));
            std::thread::spawn(move || {
                let mut applied = 0u64;
                let mut out = Vec::new();
                loop {
                    out.clear();
                    pq.dequeue_batch(32, &mut out);
                    if out.is_empty() {
                        if store.pending_keys() == 0 && applied > 0 {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    }
                    applied += claim(&store, &out);
                }
                applied
            })
        };
        writer.join().unwrap();
        // Give the flusher time to drain, then verify totals.
        let applied = flusher.join().unwrap();
        // Drain any remainder.
        let mut out = Vec::new();
        pq.dequeue_batch(usize::MAX, &mut out);
        let rest = claim(&store, &out);
        assert_eq!(applied + rest, 500 * 16, "every staged update flushed");
        assert_eq!(store.pending_keys(), 0);
    }
}
