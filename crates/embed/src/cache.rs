//! Per-GPU embedding caches.
//!
//! Every multi-GPU system in the paper "maintains multi-GPU embedding cache
//! by caching hot entries to reduce host memory fetching" (§1). Each GPU
//! owns one cache instance holding rows of its shard.
//!
//! The cache is split into mechanism and strategy: this module
//! owns the *mechanism* — a flat arena of `slots × dim` floats plus the
//! key→slot index — while all *strategy* lives behind the
//! [`EvictionPolicy`] trait in [`crate::policy`].
//! Three policies ship ([`CachePolicy`]):
//!
//! * [`CachePolicy::StaticHot`] — admit only the statically hottest keys,
//!   never evict (HugeCTR's strategy, the paper's default across systems).
//! * [`CachePolicy::Lru`] — classic least-recently-used.
//! * [`CachePolicy::FrequencyAware`] — LRU recency + decayed per-key
//!   frequencies; admission under pressure requires beating the victim's
//!   frequency (Fang et al.).
//!
//! Rows live in one contiguous `Vec<f32>` arena indexed by slot — no
//! per-slot `Vec`, no pointer chase, and **no allocation on the
//! fill/evict/replace paths**: [`GpuCache::fill_with_state`] (and its
//! stateless forms [`GpuCache::fill_into`] /
//! [`GpuCache::insert_from_slice`]) write straight into the arena (the
//! arena itself grows amortized until the cache first reaches capacity,
//! then never again). Caches are owned by a single trainer thread (one per
//! GPU), so they are plain `&mut` structures — no locking on the fast
//! path, like a real GPU cache kernel operating on device-local memory.
//!
//! A slot is the row **and** its optimizer state: a second arena of
//! `slots × state_width` floats ([`GpuCache::with_state_width`]; width 0 —
//! the default, what stateless rules use — allocates nothing) is indexed
//! by the same slot, handed out with the row by the same probe
//! ([`GpuCache::get_with_state`]) and overwritten by the same fill. So
//! everything the cache holds for a key lives and dies with its slot:
//! cache-side optimizer memory is `capacity × state_width` floats however
//! many keys pass through the cache.
//!
//! **The slot index follows the admission set.** A policy that admits
//! exactly the keys below a bound says so
//! ([`EvictionPolicy::admission_bound`]; `static-hot`'s bound is its hot
//! threshold), and its cache finds a slot by indexing a dense `u32` table
//! with the key: one load, no hash, no probe, and a key past the table is
//! a miss. The table grows on fill, doubling up to the bound, so it spans
//! the largest key filled rather than the threshold. It is taken only
//! while its whole span costs no more than the map's buckets would (4 B a
//! key against 16 B a bucket for twice the capacity: a bound up to eight
//! times the capacity); past that, and for `lru` and `freq`, which admit
//! any key, the index is the `KeyHashMap` it always was. On the
//! benchmark's `zipf` and `sync` shape a member's index is a 200 KB table
//! where the map held ≈ 1.1 MB.
//!
//! **Resolve first, touch after.** [`GpuCache::find`] is the lookup
//! without the access: it tells the policy of the hit or miss exactly as
//! [`GpuCache::get`] does, returns the hit's [`Slot`], and prefetches the
//! slot's row and state. A member resolves a whole batch that way before
//! it reads or updates one row ([`GpuCache::row`], [`GpuCache::slot_mut`]),
//! so the hits' memory latencies overlap instead of queueing.

use crate::policy::{EvictionPolicy, FrequencyAwarePolicy, LruPolicy, StaticHotPolicy};
use crate::store::prefetch;
use frugal_data::{Key, KeyBuildHasher, KeyHashMap};

/// Cache admission/eviction policy selector (see [`crate::policy`] for the
/// behavior behind each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Admit a key iff its *global hotness rank* is below the admission
    /// threshold derived from capacity. No evictions ever happen, matching
    /// a prefilled static cache.
    StaticHot,
    /// Admit everything; evict the least recently used row when full.
    Lru,
    /// LRU victim selection gated by decayed per-key access frequencies:
    /// a missing key displaces the LRU victim only when seen strictly more
    /// often.
    FrequencyAware,
}

impl CachePolicy {
    /// All selectable policies, in ablation/display order.
    pub const ALL: [CachePolicy; 3] = [
        CachePolicy::StaticHot,
        CachePolicy::Lru,
        CachePolicy::FrequencyAware,
    ];

    /// Stable command-line / report label.
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicy::StaticHot => "static-hot",
            CachePolicy::Lru => "lru",
            CachePolicy::FrequencyAware => "freq",
        }
    }

    fn build(&self, capacity: usize, hot_threshold: u64) -> Box<dyn EvictionPolicy> {
        match self {
            CachePolicy::StaticHot => Box::new(StaticHotPolicy::new(hot_threshold)),
            CachePolicy::Lru => Box::new(LruPolicy::new(capacity)),
            CachePolicy::FrequencyAware => Box::new(FrequencyAwarePolicy::new(capacity)),
        }
    }
}

impl std::str::FromStr for CachePolicy {
    type Err = String;

    /// Parses the [`CachePolicy::label`] names (plus a few aliases).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "static-hot" | "static" | "statichot" => Ok(CachePolicy::StaticHot),
            "lru" => Ok(CachePolicy::Lru),
            "freq" | "frequency" | "frequency-aware" => Ok(CachePolicy::FrequencyAware),
            other => Err(format!(
                "unknown cache policy {other} (expected static-hot|lru|freq)"
            )),
        }
    }
}

/// "Not resident" in a [`SlotIndex::Dense`] table.
const NO_SLOT: u32 = u32::MAX;

/// The least a [`SlotIndex::Map`] entry costs: its `(key, slot)` bucket.
const MAP_ENTRY: usize = size_of::<(Key, usize)>();

/// Where a resident key's slot is found.
#[derive(Debug)]
enum SlotIndex {
    /// For a policy that admits exactly the keys below `bound`
    /// ([`EvictionPolicy::admission_bound`]): key `k`'s slot at `slots[k]`,
    /// [`NO_SLOT`] if `k` is not resident. The table grows on fill, doubling
    /// up to `bound` at most, so it covers the largest key filled and not a
    /// threshold far above every key.
    Dense { slots: Vec<u32>, bound: usize },
    /// For any other policy: a key→slot map, and its capacity as built. The
    /// live `capacity()` dips while evict/insert churn leaves tombstones
    /// behind although the table's allocation is unchanged, so
    /// [`GpuCache::resident_bytes`] counts the larger of the two.
    Map {
        map: KeyHashMap<usize>,
        reserved: usize,
    },
}

impl SlotIndex {
    /// An empty index for `policy` over `capacity` slots: the dense table
    /// when the policy's admission set is a key range whose whole table is
    /// no larger than the map's buckets, the map otherwise.
    fn for_policy(policy: &dyn EvictionPolicy, capacity: usize) -> Self {
        // 2× so a full map stays at or below half the table's usable
        // capacity: hashbrown then resolves evict/insert tombstone
        // pressure by rehashing in place instead of deferring a single
        // seed-timed resize into the steady-state fill loop (the
        // zero-alloc guarantee cache_alloc.rs pins). Cost is 16 B per
        // extra slot, noise next to the `dim`-float rows.
        let entries = capacity.saturating_mul(2).min(1 << 21);
        match policy.admission_bound() {
            Some(bound) if bound <= (entries * MAP_ENTRY / size_of::<u32>()) as u64 => {
                SlotIndex::Dense {
                    slots: Vec::new(),
                    bound: bound as usize,
                }
            }
            _ => {
                let map = KeyHashMap::with_capacity_and_hasher(entries, KeyBuildHasher::default());
                SlotIndex::Map {
                    reserved: map.capacity(),
                    map,
                }
            }
        }
    }

    fn get(&self, key: Key) -> Option<usize> {
        match self {
            SlotIndex::Dense { slots, .. } => usize::try_from(key)
                .ok()
                .and_then(|k| slots.get(k))
                .filter(|&&slot| slot != NO_SLOT)
                .map(|&slot| slot as usize),
            SlotIndex::Map { map, .. } => map.get(&key).copied(),
        }
    }

    /// Records `key`, which the policy admits, at `slot`: the dense table's
    /// only growth path.
    fn insert(&mut self, key: Key, slot: usize) {
        match self {
            SlotIndex::Dense { slots, bound } => {
                // Admitted, so `key < bound`; and a slot holds an admitted
                // key, so `slot < bound ≤ u32::MAX`.
                let k = key as usize;
                if k >= slots.len() {
                    let len = (k + 1).max(2 * slots.len()).min(*bound);
                    slots.reserve_exact(len - slots.len());
                    slots.resize(len, NO_SLOT);
                }
                slots[k] = slot as u32;
            }
            SlotIndex::Map { map, .. } => {
                map.insert(key, slot);
            }
        }
    }

    fn remove(&mut self, key: Key) {
        match self {
            SlotIndex::Dense { slots, .. } => slots[key as usize] = NO_SLOT,
            SlotIndex::Map { map, .. } => {
                map.remove(&key);
            }
        }
    }

    /// Forgets every key, keeping the allocation.
    fn clear(&mut self) {
        match self {
            SlotIndex::Dense { slots, .. } => slots.fill(NO_SLOT),
            SlotIndex::Map { map, .. } => map.clear(),
        }
    }

    /// Heap bytes held.
    fn bytes(&self) -> usize {
        match self {
            SlotIndex::Dense { slots, .. } => slots.capacity() * size_of::<u32>(),
            // hashbrown: one (key, slot) bucket + one control byte each.
            SlotIndex::Map { map, reserved } => map.capacity().max(*reserved) * (MAP_ENTRY + 1),
        }
    }
}

/// A resident key's slot, as [`GpuCache::find`] resolved it. It stays the
/// key's until the cache's next fill or [`GpuCache::retain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

/// A single GPU's embedding cache: flat row arena + key→slot index, with
/// the admission/eviction strategy behind an
/// [`EvictionPolicy`].
///
/// # Examples
///
/// ```
/// use frugal_embed::{CachePolicy, GpuCache};
///
/// let mut cache = GpuCache::new(2, 4, CachePolicy::Lru);
/// cache.insert_from_slice(10, &[1.0; 4]);
/// cache.insert_from_slice(20, &[2.0; 4]);
/// cache.get(&10); // refresh 10
/// cache.insert_from_slice(30, &[3.0; 4]); // evicts 20
/// assert!(cache.contains(&10) && !cache.contains(&20));
/// ```
#[derive(Debug)]
pub struct GpuCache {
    capacity: usize,
    dim: usize,
    kind: CachePolicy,
    policy: Box<dyn EvictionPolicy>,
    /// Resident key → slot; the only way in is [`GpuCache::fill_with_state`].
    index: SlotIndex,
    /// Occupying key per slot; `keys.len() <= capacity` always (slots are
    /// only created while below capacity, evictions reuse the victim slot).
    keys: Vec<Key>,
    /// The row arena: `keys.len() × dim` floats, slot-indexed.
    rows: Vec<f32>,
    /// Floats of optimizer state per slot (0 = stateless).
    state_width: usize,
    /// The state arena: `keys.len() × state_width` floats, indexed by the
    /// same slot as `rows`.
    state: Vec<f32>,
    /// The StaticHot admission threshold every build of the policy takes:
    /// `capacity` until [`GpuCache::set_hot_threshold`] says otherwise.
    hot_threshold: u64,
}

impl GpuCache {
    /// Creates a cache holding at most `capacity` rows of `dim` floats.
    ///
    /// For [`CachePolicy::StaticHot`] the admission threshold defaults to
    /// `capacity` (callers with sharded key spaces should set it with
    /// [`GpuCache::set_hot_threshold`]).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(capacity: usize, dim: usize, policy: CachePolicy) -> Self {
        assert!(dim > 0, "dim must be positive");
        // Reserve a bounded prefix of the arena upfront; beyond it the
        // arena doubles amortized until capacity, then never grows again.
        let reserve = capacity.min(1 << 16);
        let hot_threshold = capacity as u64;
        let kind = policy;
        let policy = kind.build(capacity, hot_threshold);
        GpuCache {
            capacity,
            dim,
            kind,
            index: SlotIndex::for_policy(&*policy, capacity),
            policy,
            keys: Vec::with_capacity(reserve),
            rows: Vec::with_capacity(reserve * dim),
            state_width: 0,
            state: Vec::new(),
            hot_threshold,
        }
    }

    /// Gives every slot `width` floats of optimizer state next to its row
    /// (see [`GpuCache::get_with_state`] / [`GpuCache::fill_with_state`]).
    /// The width is a property of the update rule, fixed for the cache's
    /// lifetime.
    ///
    /// # Panics
    ///
    /// Panics if the cache already holds rows.
    pub fn with_state_width(mut self, width: usize) -> Self {
        assert!(self.keys.is_empty(), "state width is fixed before use");
        self.state_width = width;
        // Same upfront slot reserve as the row arena.
        self.state = Vec::with_capacity(self.keys.capacity() * width);
        self
    }

    /// Heap bytes held by the slot storage: row arena, state arena,
    /// per-slot keys and the key→slot index (policy side structures
    /// excluded). Constant once the cache has reached capacity.
    pub fn resident_bytes(&self) -> usize {
        (self.rows.capacity() + self.state.capacity()) * size_of::<f32>()
            + self.keys.capacity() * size_of::<Key>()
            + self.index.bytes()
    }

    /// Sets the StaticHot admission threshold: keys `< threshold` are
    /// cacheable. No-op for the other policies.
    ///
    /// # Panics
    ///
    /// Panics if a resident key falls outside the new threshold: lookups
    /// rely on "not admitted ⇒ not resident" (see [`Self::fill_with_state`]).
    pub fn set_hot_threshold(&mut self, threshold: u64) {
        self.hot_threshold = threshold;
        // The threshold is all the state a static-hot policy has; the other
        // policies carry history a rebuild would lose, and no threshold.
        if self.kind != CachePolicy::StaticHot {
            return;
        }
        self.policy = self.kind.build(self.capacity, threshold);
        assert!(
            self.keys.iter().all(|&k| self.policy.admits(k)),
            "hot threshold {threshold} strands resident rows"
        );
        // The bound picks the index and sizes a dense one.
        self.index = SlotIndex::for_policy(&*self.policy, self.capacity);
        for (slot, &key) in self.keys.iter().enumerate() {
            self.index.insert(key, slot);
        }
    }

    /// Drops every row whose key fails `keep`, compacting survivors into
    /// the low slots (rows and their state keep their exact bit contents).
    ///
    /// This is the elastic-membership eviction hook: when a shard-map
    /// epoch moves shards away from this GPU, the rows of those shards
    /// must leave the cache before training resumes, or a later epoch
    /// that moves the shard *back* would serve stale copies. It rebuilds
    /// the eviction policy from scratch (recency and frequency history is
    /// forgotten — a performance detail at a rare transition, never a
    /// semantic one) with the stored StaticHot threshold.
    pub fn retain<F: FnMut(Key) -> bool>(&mut self, mut keep: F) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_rows = std::mem::take(&mut self.rows);
        let old_state = std::mem::take(&mut self.state);
        self.index.clear();
        self.policy = self.kind.build(self.capacity, self.hot_threshold);
        self.keys.reserve(old_keys.len());
        self.rows.reserve(old_rows.len());
        self.state.reserve(old_state.len());
        let (dim, sw) = (self.dim, self.state_width);
        for (slot, &key) in old_keys.iter().enumerate() {
            if !keep(key) {
                continue;
            }
            self.fill_with_state(key, |row, state| {
                row.copy_from_slice(&old_rows[slot * dim..(slot + 1) * dim]);
                state.copy_from_slice(&old_state[slot * sw..(slot + 1) * sw]);
            });
        }
    }

    /// Maximum number of rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no rows are cached.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The policy in effect.
    pub fn policy(&self) -> CachePolicy {
        self.kind
    }

    /// The one lookup: resolves `key` to its slot and tells the policy of
    /// the hit or miss.
    fn lookup(&mut self, key: &Key) -> Option<usize> {
        match self.index.get(*key) {
            Some(slot) => {
                self.policy.on_hit(*key, slot);
                Some(slot)
            }
            None => {
                self.policy.on_miss(*key);
                None
            }
        }
    }

    /// The `(row, state)` storage of `slot`.
    fn storage_mut(&mut self, slot: usize) -> (&mut [f32], &mut [f32]) {
        let (dim, sw) = (self.dim, self.state_width);
        (
            &mut self.rows[slot * dim..(slot + 1) * dim],
            &mut self.state[slot * sw..(slot + 1) * sw],
        )
    }

    /// Looks up `key`, refreshing policy state. Returns the cached row.
    pub fn get(&mut self, key: &Key) -> Option<&[f32]> {
        let slot = self.lookup(key)?;
        Some(&self.rows[slot * self.dim..(slot + 1) * self.dim])
    }

    /// The lookup of [`Self::get`] and [`Self::get_with_state`], telling
    /// the policy of the hit or miss exactly as they do, without the
    /// access: it returns the hit's slot and asks the memory system for
    /// the slot's row and state. A batch resolved first and read or
    /// updated after ([`Self::row`], [`Self::slot_mut`]) overlaps its
    /// hits' memory latencies instead of waiting them out one by one.
    pub fn find(&mut self, key: &Key) -> Option<Slot> {
        let slot = self.lookup(key)?;
        let (dim, sw) = (self.dim, self.state_width);
        prefetch(&self.rows[slot * dim..(slot + 1) * dim]);
        prefetch(&self.state[slot * sw..(slot + 1) * sw]);
        Some(Slot(
            u32::try_from(slot).expect("a cache holds fewer than 2^32 rows"),
        ))
    }

    /// The row in `slot`.
    pub fn row(&self, slot: Slot) -> &[f32] {
        let slot = slot.0 as usize;
        &self.rows[slot * self.dim..(slot + 1) * self.dim]
    }

    /// The row and optimizer state in `slot`, for an in-cache update.
    pub fn slot_mut(&mut self, slot: Slot) -> (&mut [f32], &mut [f32]) {
        self.storage_mut(slot.0 as usize)
    }

    /// Looks up `key` mutably (for in-cache updates), refreshing policy
    /// state exactly like [`Self::get`].
    pub fn get_mut(&mut self, key: &Key) -> Option<&mut [f32]> {
        self.get_with_state(key).map(|(row, _)| row)
    }

    /// [`Self::get_mut`] returning the slot's optimizer state next to its
    /// row — one probe for both (the state slice is empty at width 0).
    pub fn get_with_state(&mut self, key: &Key) -> Option<(&mut [f32], &mut [f32])> {
        let slot = self.lookup(key)?;
        Some(self.storage_mut(slot))
    }

    /// True if `key` is cached (does not affect policy state).
    pub fn contains(&self, key: &Key) -> bool {
        self.index.get(*key).is_some()
    }

    /// Whether this cache would admit `key` at all (occupancy aside).
    pub fn admits(&self, key: Key) -> bool {
        self.policy.admits(key)
    }

    /// Fills `key`'s slot in place: allocates/steals a slot per the policy,
    /// then hands the slot's `(row, state)` arena storage to `fill`, which
    /// must write both in full — a stolen slot still holds its victim's
    /// row and state. The closure is *not* called when the insert is
    /// rejected, and nothing on this path allocates once the cache has
    /// reached capacity.
    pub fn fill_with_state<F>(&mut self, key: Key, fill: F) -> InsertOutcome
    where
        F: FnOnce(&mut [f32], &mut [f32]),
    {
        // The only way into the index, and it is shut to keys the policy
        // does not admit: what bounds a dense index's keys.
        if !self.policy.admits(key) {
            return InsertOutcome::Rejected;
        }
        if let Some(slot) = self.index.get(key) {
            let (row, state) = self.storage_mut(slot);
            fill(row, state);
            self.policy.on_replace(key, slot);
            return InsertOutcome::Replaced;
        }
        let (slot, evicted) = if self.keys.len() >= self.capacity {
            let Some(victim) = self.policy.evict_candidate(key, &self.keys) else {
                return InsertOutcome::Rejected;
            };
            let old_key = self.keys[victim];
            self.index.remove(old_key);
            self.policy.on_evict(old_key, victim);
            self.keys[victim] = key;
            (victim, Some(old_key))
        } else {
            // Below capacity: mint a fresh slot (the only growth path).
            let slot = self.keys.len();
            self.keys.push(key);
            self.rows.resize((slot + 1) * self.dim, 0.0);
            self.state.resize((slot + 1) * self.state_width, 0.0);
            (slot, None)
        };
        let (row, state) = self.storage_mut(slot);
        fill(row, state);
        debug_assert!(
            self.policy.admits(key),
            "a key the policy does not admit must never become resident"
        );
        self.index.insert(key, slot);
        self.policy.on_insert(key, slot);
        match evicted {
            Some(k) => InsertOutcome::Evicted(k),
            None => InsertOutcome::Inserted,
        }
    }

    /// [`Self::fill_with_state`] for callers with no state to carry: `fill`
    /// writes the row, the slot's state (if any) restarts from zero.
    fn fill_into<F: FnOnce(&mut [f32])>(&mut self, key: Key, fill: F) -> InsertOutcome {
        self.fill_with_state(key, |row, state| {
            fill(row);
            state.fill(0.0);
        })
    }

    /// Inserts `row` for `key` by copying it into the arena (no
    /// intermediate allocation). See [`InsertOutcome`] for the results.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim`.
    pub fn insert_from_slice(&mut self, key: Key, row: &[f32]) -> InsertOutcome {
        assert_eq!(row.len(), self.dim, "row length != dim");
        self.fill_into(key, |dst| dst.copy_from_slice(row))
    }

    /// Does nothing: every policy decides from the accesses it has seen,
    /// so none needs the training clock. Kept because
    /// `benchmark/src/replay.rs` calls it once a step.
    pub fn begin_step(&mut self, _step: u64) {}
}

/// Result of a cache insertion. No variant carries row payloads: rows live
/// in the arena and evicted data is simply overwritten (the host store is
/// always authoritative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Inserted without eviction.
    Inserted,
    /// Replaced an existing row for the same key.
    Replaced,
    /// Inserted; the returned key was evicted to make room.
    Evicted(Key),
    /// The policy rejected the key (admission or eviction bypass).
    Rejected,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sharding;

    #[test]
    fn static_hot_admits_only_hot_keys() {
        let mut c = GpuCache::new(4, 2, CachePolicy::StaticHot);
        c.set_hot_threshold(100);
        assert_eq!(c.insert_from_slice(5, &[1.0, 1.0]), InsertOutcome::Inserted);
        assert_eq!(
            c.insert_from_slice(500, &[2.0, 2.0]),
            InsertOutcome::Rejected
        );
        assert!(c.contains(&5) && !c.contains(&500));
    }

    #[test]
    fn static_hot_never_evicts() {
        let mut c = GpuCache::new(2, 1, CachePolicy::StaticHot);
        c.set_hot_threshold(u64::MAX - 2);
        assert_eq!(c.insert_from_slice(1, &[1.0]), InsertOutcome::Inserted);
        assert_eq!(c.insert_from_slice(2, &[2.0]), InsertOutcome::Inserted);
        // Full: further inserts rejected, existing entries untouched.
        assert_eq!(c.insert_from_slice(3, &[3.0]), InsertOutcome::Rejected);
        assert!(c.contains(&1) && c.contains(&2));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = GpuCache::new(2, 1, CachePolicy::Lru);
        c.insert_from_slice(1, &[1.0]);
        c.insert_from_slice(2, &[2.0]);
        assert!(c.get(&1).is_some()); // 2 is now LRU
        assert_eq!(c.insert_from_slice(3, &[3.0]), InsertOutcome::Evicted(2));
        assert!(c.contains(&1) && c.contains(&3) && !c.contains(&2));
    }

    #[test]
    fn lru_never_exceeds_capacity() {
        let mut c = GpuCache::new(8, 1, CachePolicy::Lru);
        for k in 0..100 {
            c.insert_from_slice(k, &[k as f32]);
            assert!(c.len() <= 8);
        }
        // The eight most recent survive.
        for k in 92..100 {
            assert!(c.contains(&k), "missing {k}");
        }
    }

    #[test]
    fn lru_eviction_order_follows_recency_chain() {
        let mut c = GpuCache::new(3, 1, CachePolicy::Lru);
        c.insert_from_slice(1, &[1.0]);
        c.insert_from_slice(2, &[2.0]);
        c.insert_from_slice(3, &[3.0]);
        // Recency now 3 > 2 > 1. Touch 1 and 2 via get_mut/get.
        c.get_mut(&1).unwrap()[0] = 1.5;
        let _ = c.get(&2);
        // Recency 2 > 1 > 3: inserting evicts 3.
        assert_eq!(c.insert_from_slice(4, &[4.0]), InsertOutcome::Evicted(3));
        // And the freed slot is reused without leaking.
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn get_mut_allows_in_cache_update() {
        let mut c = GpuCache::new(2, 2, CachePolicy::Lru);
        c.insert_from_slice(1, &[1.0, 1.0]);
        c.get_mut(&1).expect("cached")[0] = 9.0;
        assert_eq!(c.get(&1).unwrap(), &[9.0, 1.0]);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = GpuCache::new(2, 1, CachePolicy::Lru);
        c.insert_from_slice(1, &[1.0]);
        let hits = [1, 2, 1].map(|k| c.get(&k).is_some());
        assert_eq!(hits, [true, false, true]);
    }

    #[test]
    fn get_mut_counts_hits_and_misses_like_get() {
        let mut c = GpuCache::new(2, 1, CachePolicy::Lru);
        c.insert_from_slice(1, &[1.0]);
        c.insert_from_slice(2, &[2.0]);
        let hits = [1, 3, 1].map(|k| c.get_mut(&k).is_some());
        assert_eq!(hits, [true, false, true]);
        // The hits refreshed 1 exactly as `get` would: 2 is the victim.
        assert_eq!(c.insert_from_slice(3, &[3.0]), InsertOutcome::Evicted(2));
    }

    #[test]
    fn lookup_agrees_with_an_always_probing_one_for_every_policy() {
        // `contains` reads the index for every key and touches nothing; the
        // lookups must tell the same hits from the same misses — including
        // the keys static-hot never admits (≥ 20), past its dense table.
        for policy in CachePolicy::ALL {
            let mut c = GpuCache::new(8, 1, policy);
            c.set_hot_threshold(20);
            let key_at = |i: u64| (i * 7919 + i / 3) % 40;
            let (mut hits, mut misses) = (0u64, 0u64);
            for i in 0..4_000u64 {
                let key = key_at(i);
                let resident = c.contains(&key);
                let got = if i % 3 == 0 {
                    c.get_with_state(&key).is_some()
                } else {
                    c.get(&key).is_some()
                };
                assert_eq!(got, resident, "{policy:?}: key {key} at access {i}");
                if resident {
                    hits += 1;
                } else {
                    misses += 1;
                    c.insert_from_slice(key, &[key as f32]);
                }
            }
            assert!(hits > 0 && misses > 0, "{policy:?}: stream must be mixed");
        }
    }

    /// Admits keys below 10, evicts slot 0, counts `on_miss` calls.
    #[derive(Debug)]
    struct CountsMisses(std::sync::Arc<std::sync::atomic::AtomicU64>);

    impl EvictionPolicy for CountsMisses {
        fn on_hit(&mut self, _key: Key, _slot: usize) {}
        fn on_miss(&mut self, _key: Key) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn on_insert(&mut self, _key: Key, _slot: usize) {}
        fn on_replace(&mut self, _key: Key, _slot: usize) {}
        fn on_evict(&mut self, _key: Key, _slot: usize) {}
        fn admits(&self, key: Key) -> bool {
            key < 10
        }
        fn evict_candidate(&mut self, _key: Key, _residents: &[Key]) -> Option<usize> {
            Some(0)
        }
    }

    #[test]
    fn unprobed_misses_still_reach_the_policy() {
        let on_miss = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut c = GpuCache::new(2, 1, CachePolicy::Lru);
        c.policy = Box::new(CountsMisses(std::sync::Arc::clone(&on_miss)));
        c.insert_from_slice(1, &[1.0]);
        assert_eq!(c.insert_from_slice(50, &[5.0]), InsertOutcome::Rejected);
        // One hit, one miss on an admitted key, two on keys never admitted.
        assert!(c.get(&1).is_some());
        assert!(c.get(&2).is_none());
        assert!(c.get(&50).is_none());
        assert!(c.get_mut(&51).is_none());
        assert_eq!(on_miss.load(std::sync::atomic::Ordering::Relaxed), 3);
    }

    #[test]
    #[should_panic(expected = "strands resident rows")]
    fn hot_threshold_cannot_strand_residents() {
        let mut c = GpuCache::new(4, 1, CachePolicy::StaticHot);
        c.set_hot_threshold(100);
        c.insert_from_slice(50, &[1.0]);
        c.set_hot_threshold(10);
    }

    #[test]
    fn replace_same_key() {
        let mut c = GpuCache::new(2, 1, CachePolicy::Lru);
        c.insert_from_slice(1, &[1.0]);
        assert_eq!(c.insert_from_slice(1, &[5.0]), InsertOutcome::Replaced);
        assert_eq!(c.get(&1).unwrap(), &[5.0]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row length != dim")]
    fn insert_rejects_bad_dim() {
        let mut c = GpuCache::new(2, 3, CachePolicy::Lru);
        c.insert_from_slice(1, &[1.0]);
    }

    #[test]
    fn zero_capacity_lru_rejects() {
        let mut c = GpuCache::new(0, 1, CachePolicy::Lru);
        assert!(!c.admits(1));
        assert_eq!(c.insert_from_slice(1, &[1.0]), InsertOutcome::Rejected);
        assert!(c.is_empty());
    }

    #[test]
    fn hit_ratio_zero_when_unused() {
        let mut c = GpuCache::new(2, 1, CachePolicy::Lru);
        assert!(c.is_empty());
        assert!((0..4).all(|k| c.get(&k).is_none()));
        assert_eq!(c.policy(), CachePolicy::Lru);
        assert_eq!(c.capacity(), 2);
    }

    #[test]
    fn heavy_churn_is_consistent() {
        // Arena slot reuse under sustained churn: every lookup must still
        // return the right row.
        let mut c = GpuCache::new(16, 1, CachePolicy::Lru);
        for round in 0..2_000u64 {
            let k = round % 40;
            match c.get(&k) {
                Some(row) => assert_eq!(row[0], k as f32, "round {round}"),
                None => {
                    c.insert_from_slice(k, &[k as f32]);
                }
            }
            assert!(c.len() <= 16);
        }
    }

    #[test]
    fn fill_into_writes_arena_directly_and_skips_rejects() {
        let mut c = GpuCache::new(1, 2, CachePolicy::StaticHot);
        c.set_hot_threshold(10);
        let outcome = c.fill_into(3, |dst| dst.copy_from_slice(&[7.0, 8.0]));
        assert_eq!(outcome, InsertOutcome::Inserted);
        assert_eq!(c.get(&3).unwrap(), &[7.0, 8.0]);
        // Rejected fill: the closure must never run.
        let mut ran = false;
        assert_eq!(
            c.fill_into(99, |_| ran = true),
            InsertOutcome::Rejected,
            "cold key must be rejected"
        );
        assert!(!ran, "rejected fill must not invoke the closure");
    }

    #[test]
    fn frequency_aware_protects_hot_residents_from_cold_churn() {
        let mut c = GpuCache::new(2, 1, CachePolicy::FrequencyAware);
        // Build frequency for 1 and 2 (misses count), then cache them.
        for _ in 0..3 {
            let _ = c.get(&1);
            let _ = c.get(&2);
        }
        c.insert_from_slice(1, &[1.0]);
        c.insert_from_slice(2, &[2.0]);
        // A one-hit wonder cannot displace either resident...
        let _ = c.get(&9);
        assert_eq!(c.insert_from_slice(9, &[9.0]), InsertOutcome::Rejected);
        assert!(c.contains(&1) && c.contains(&2));
        // ...but a key seen more often than the LRU victim can.
        for _ in 0..5 {
            let _ = c.get(&7);
        }
        assert_eq!(c.insert_from_slice(7, &[7.0]), InsertOutcome::Evicted(1));
    }

    #[test]
    fn retain_drops_filtered_rows_and_keeps_survivor_bits() {
        let mut c = GpuCache::new(8, 2, CachePolicy::StaticHot);
        c.set_hot_threshold(100);
        for k in 0..6u64 {
            c.insert_from_slice(k, &[k as f32, -(k as f32)]);
        }
        assert!(c.get(&0).is_some());
        c.retain(|k| k % 2 == 0);
        assert_eq!(c.len(), 3);
        for k in 0..6u64 {
            if k % 2 == 0 {
                assert_eq!(c.get(&k).unwrap(), &[k as f32, -(k as f32)]);
            } else {
                assert!(c.get(&k).is_none(), "key {k} must be gone");
            }
        }
        // The rebuilt policy still enforces the stored hot threshold.
        assert_eq!(c.insert_from_slice(500, &[0.0; 2]), InsertOutcome::Rejected);
    }

    #[test]
    fn retain_everything_is_a_no_op_for_contents() {
        let mut c = GpuCache::new(4, 1, CachePolicy::Lru);
        for k in 0..4u64 {
            c.insert_from_slice(k, &[k as f32 + 0.5]);
        }
        c.retain(|_| true);
        assert_eq!(c.len(), 4);
        for k in 0..4u64 {
            assert_eq!(c.get(&k).unwrap(), &[k as f32 + 0.5]);
        }
    }

    /// A stateful fill writing `v` into the row and `-v` into the state.
    fn fill_both(c: &mut GpuCache, key: Key, v: f32) -> InsertOutcome {
        c.fill_with_state(key, |row, state| {
            row.fill(v);
            state.fill(-v);
        })
    }

    #[test]
    fn one_probe_hands_out_row_and_state() {
        let mut c = GpuCache::new(2, 2, CachePolicy::Lru).with_state_width(3);
        assert_eq!(fill_both(&mut c, 1, 1.0), InsertOutcome::Inserted);
        let (row, state) = c.get_with_state(&1).expect("cached");
        assert_eq!((row.len(), state.len()), (2, 3));
        row[0] = 5.0;
        state[2] = 7.0;
        assert!(c.get_with_state(&9).is_none());
        assert_eq!(c.get(&1).unwrap(), &[5.0, 1.0]);
        assert_eq!(c.get_with_state(&1).unwrap().1, &[-1.0, -1.0, 7.0]);
        // A stateless cache hands out empty state, not a panic.
        let mut plain = GpuCache::new(2, 2, CachePolicy::Lru);
        plain.insert_from_slice(1, &[1.0, 2.0]);
        assert!(plain.get_with_state(&1).unwrap().1.is_empty());
    }

    #[test]
    fn evicting_fill_overwrites_the_victims_state() {
        let mut c = GpuCache::new(2, 1, CachePolicy::Lru).with_state_width(2);
        fill_both(&mut c, 1, 1.0);
        fill_both(&mut c, 2, 2.0);
        c.get_with_state(&1).unwrap().1.fill(99.0); // 1 accumulates; 2 is LRU
        assert_eq!(fill_both(&mut c, 3, 3.0), InsertOutcome::Evicted(2));
        assert_eq!(c.get_with_state(&3).unwrap().1, &[-3.0, -3.0]);
        // Evict 1 with a *stateless* fill: its accumulator must not leak
        // into the new occupant either — the slot restarts from zero.
        let _ = c.get(&3);
        assert_eq!(c.insert_from_slice(4, &[4.0]), InsertOutcome::Evicted(1));
        assert_eq!(c.get_with_state(&4).unwrap().1, &[0.0, 0.0]);
        // The surviving neighbour is untouched.
        assert_eq!(c.get_with_state(&3).unwrap().1, &[-3.0, -3.0]);
    }

    #[test]
    fn replacing_fill_overwrites_state() {
        let mut c = GpuCache::new(2, 1, CachePolicy::Lru).with_state_width(1);
        fill_both(&mut c, 1, 1.0);
        c.get_with_state(&1).unwrap().1[0] = 42.0;
        assert_eq!(fill_both(&mut c, 1, 6.0), InsertOutcome::Replaced);
        let (row, state) = c.get_with_state(&1).unwrap();
        assert_eq!((row[0], state[0]), (6.0, -6.0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn retain_carries_survivor_state_and_drops_leavers() {
        let mut c = GpuCache::new(8, 2, CachePolicy::Lru).with_state_width(2);
        for k in 0..6u64 {
            c.fill_with_state(k, |row, state| {
                row.copy_from_slice(&[k as f32, 0.1]);
                state.copy_from_slice(&[k as f32 * 0.3, f32::MIN_POSITIVE]);
            });
        }
        c.retain(|k| k % 2 == 1);
        assert_eq!(c.len(), 3);
        for k in [1u64, 3, 5] {
            let (row, state) = c.get_with_state(&k).expect("survivor");
            assert_eq!(row, &[k as f32, 0.1]);
            assert_eq!(state, &[k as f32 * 0.3, f32::MIN_POSITIVE]);
        }
        // A leaver that comes back starts from whatever its fill writes,
        // not from its pre-transition accumulator.
        assert!(!c.contains(&2));
        fill_both(&mut c, 2, 8.0);
        assert_eq!(c.get_with_state(&2).unwrap().1, &[-8.0, -8.0]);
    }

    #[test]
    fn resident_bytes_counts_state_and_is_flat_at_capacity() {
        let plain = GpuCache::new(16, 4, CachePolicy::Lru);
        let mut c = GpuCache::new(16, 4, CachePolicy::Lru).with_state_width(4);
        assert_eq!(
            c.resident_bytes(),
            plain.resident_bytes() + 16 * 4 * 4,
            "the state arena is capacity × width floats, nothing else"
        );
        for k in 0..16u64 {
            fill_both(&mut c, k, k as f32);
        }
        let at_capacity = c.resident_bytes();
        for k in 16..2_000u64 {
            fill_both(&mut c, k, k as f32);
        }
        assert_eq!(c.resident_bytes(), at_capacity);
        assert_eq!(c.len(), 16);
    }

    #[test]
    #[should_panic(expected = "state width is fixed before use")]
    fn state_width_cannot_change_under_rows() {
        let mut c = GpuCache::new(2, 1, CachePolicy::Lru);
        c.insert_from_slice(1, &[1.0]);
        let _ = c.with_state_width(1);
    }

    /// A reference static-hot cache: key → (row, state), admitting keys
    /// below `threshold` while fewer than `capacity` are resident.
    struct Reference {
        rows: KeyHashMap<(f32, f32)>,
        threshold: u64,
        capacity: usize,
    }

    impl Reference {
        fn fill(&mut self, key: Key, v: f32) -> InsertOutcome {
            if key >= self.threshold {
                InsertOutcome::Rejected
            } else if self.rows.insert(key, (v, -v)).is_some() {
                InsertOutcome::Replaced
            } else if self.rows.len() > self.capacity {
                self.rows.remove(&key);
                InsertOutcome::Rejected
            } else {
                InsertOutcome::Inserted
            }
        }

        /// Every key below `universe` reads the same in `c` as here.
        fn check(&self, c: &mut GpuCache, universe: u64, at: &str) {
            assert_eq!(c.len(), self.rows.len(), "{at}: len");
            for key in 0..universe {
                let want = self.rows.get(&key).copied();
                assert_eq!(c.contains(&key), want.is_some(), "{at}: contains({key})");
                let got = if key % 2 == 0 {
                    c.get_with_state(&key)
                        .map(|(row, state)| (row[0], state[0]))
                } else {
                    c.get(&key).map(|row| (row[0], want.map_or(0.0, |w| w.1)))
                };
                assert_eq!(got, want, "{at}: key {key}");
            }
        }
    }

    #[test]
    fn dense_index_agrees_with_a_map_reference_after_every_operation() {
        const CAP: usize = 24;
        let mut c = GpuCache::new(CAP, 1, CachePolicy::StaticHot).with_state_width(1);
        c.set_hot_threshold(40);
        assert!(matches!(c.index, SlotIndex::Dense { .. }));
        let mut reference = Reference {
            rows: KeyHashMap::default(),
            threshold: 40,
            capacity: CAP,
        };
        let mut x = 7u64;
        for op in 0..600u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 56; // at and above the threshold
            let at = format!("op {op}");
            match op % 100 {
                // Raise the threshold, then lower it back once the keys the
                // lowered one strands have left.
                30 => {
                    c.set_hot_threshold(50);
                    reference.threshold = 50;
                }
                60 => {
                    c.retain(|k| k < 40 && k % 3 != 0);
                    reference.rows.retain(|&k, _| k < 40 && k % 3 != 0);
                    c.set_hot_threshold(40);
                    reference.threshold = 40;
                }
                _ => {
                    let v = op as f32;
                    assert_eq!(fill_both(&mut c, key, v), reference.fill(key, v), "{at}");
                }
            }
            reference.check(&mut c, 56, &at);
            assert!(matches!(c.index, SlotIndex::Dense { .. }), "{at}");
        }
    }

    #[test]
    fn a_dense_index_grows_to_the_largest_key_filled_not_the_threshold() {
        let mut c = GpuCache::new(1 << 18, 1, CachePolicy::StaticHot);
        c.set_hot_threshold(1 << 20);
        assert!(matches!(c.index, SlotIndex::Dense { .. }));
        let empty = c.resident_bytes();
        c.insert_from_slice(3, &[3.0]);
        c.insert_from_slice(1_000, &[1.0]);
        let table = c.resident_bytes() - empty;
        assert!((1_001 * 4..=2_002 * 4).contains(&table), "table {table} B");
        // A threshold too wide for a table smaller than the map gets the map.
        c.set_hot_threshold(u64::MAX - 2);
        assert!(matches!(c.index, SlotIndex::Map { .. }));
        assert_eq!(c.get(&1_000).unwrap(), &[1.0]);
        c.insert_from_slice(u64::MAX - 3, &[9.0]);
        assert!(c.contains(&(u64::MAX - 3)) && c.contains(&3));
    }

    #[test]
    fn the_dense_table_is_no_larger_than_the_map_it_replaces() {
        // The benchmark's static-hot shapes: 5 % of 1 M and of 2 M keys over
        // two members, each filling the half of the hot keys it owns.
        const DIM: usize = 32;
        for n_keys in [1_000_000u64, 2_000_000] {
            let sharding = Sharding::new(2);
            let cap = sharding.cache_capacity(n_keys, 0.05);
            let threshold = sharding.hot_threshold(n_keys, 0.05);
            let mut dense = GpuCache::new(cap, DIM, CachePolicy::StaticHot);
            dense.set_hot_threshold(threshold);
            let mut map = GpuCache::new(cap, DIM, CachePolicy::Lru);
            for key in (0..threshold).step_by(2) {
                assert_eq!(
                    dense.insert_from_slice(key, &[0.5; DIM]),
                    InsertOutcome::Inserted
                );
                map.insert_from_slice(key, &[0.5; DIM]);
            }
            assert_eq!(dense.len(), cap);
            let arenas = cap * DIM * size_of::<f32>() + cap * size_of::<Key>();
            let (table, map) = (
                dense.resident_bytes() - arenas,
                map.resident_bytes() - arenas,
            );
            assert!(
                table >= (threshold as usize - 1) * size_of::<u32>(),
                "the table ({table} B) is counted"
            );
            assert!(table <= map, "{n_keys} keys: table {table} B, map {map} B");
        }
    }

    #[test]
    fn find_resolves_like_get_and_hands_out_the_slot() {
        let mut c = GpuCache::new(2, 2, CachePolicy::Lru).with_state_width(1);
        fill_both(&mut c, 1, 1.0);
        fill_both(&mut c, 2, 2.0);
        let slot = c.find(&1).expect("resident");
        assert!(c.find(&3).is_none());
        assert_eq!(c.row(slot), &[1.0, 1.0]);
        c.slot_mut(slot).1[0] = 5.0;
        assert_eq!(c.get_with_state(&1).unwrap().1, &[5.0]);
        // `find` refreshed 1 as `get` would: 2 is the victim.
        assert_eq!(fill_both(&mut c, 3, 3.0), InsertOutcome::Evicted(2));
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in CachePolicy::ALL {
            assert_eq!(p.label().parse::<CachePolicy>().unwrap(), p);
        }
        assert!("bogus".parse::<CachePolicy>().is_err());
    }
}
