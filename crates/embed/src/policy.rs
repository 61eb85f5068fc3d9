//! Pluggable cache eviction/admission policies.
//!
//! [`GpuCache`](crate::GpuCache) owns the row arena and the key→slot map;
//! everything *strategic* — recency bookkeeping, admission decisions,
//! victim selection, and future-knowledge tracking — lives behind the
//! [`EvictionPolicy`] trait. The cache drives the policy through narrow
//! callbacks; the policy never touches rows.
//!
//! Four implementations (one per [`CachePolicy`](crate::CachePolicy)
//! variant):
//!
//! * [`StaticHotPolicy`] — admit only keys below the static hotness
//!   threshold, never evict (HugeCTR-style prefilled cache).
//! * [`LruPolicy`] — admit everything, evict the least-recently-used slot.
//! * [`FrequencyAwarePolicy`] — LRU recency for victim selection plus
//!   per-key access frequencies with periodic halving decay; a missing key
//!   is admitted under pressure only when its running frequency beats the
//!   victim's (frequency-aware software caching per Fang et al., in the
//!   spirit of TinyLFU admission).
//! * [`OracleBeladyPolicy`] — Belady's MIN fed real future knowledge: the
//!   engine's s+L lookahead registration doubles as a next-use feed
//!   ([`EvictionPolicy::prepare_step`]), so the policy can evict the slot
//!   whose next use is farthest (or absent) and bypass inserts that would
//!   be the farthest themselves.
//!
//! Caches are single-owner structures (one per trainer thread), so
//! policies are plain `&mut` state: no locks, no atomics.

use frugal_data::{Key, KeyHashMap};
use std::collections::VecDeque;
use std::fmt;

/// "No slot" sentinel for the intrusive recency list.
const NIL: usize = usize::MAX;

/// "Never used again" sentinel for oracle next-use distances.
const NEVER: u64 = u64::MAX;

/// The strategic half of a GPU cache: admission, victim selection, and
/// (for lookahead-driven policies) future-knowledge tracking.
///
/// Contract, enforced by [`GpuCache`](crate::GpuCache):
///
/// * `on_hit`/`on_miss` fire on every lookup (`get`/`get_mut`).
/// * `on_insert(key, slot)` fires after `key`'s row lands in a slot that
///   was empty or just vacated by `on_evict`; `on_replace` fires instead
///   when `key` already occupied the slot.
/// * `evict_candidate` is only called with the cache *full*, so
///   `residents[slot]` is the occupying key for every slot; returning
///   `None` rejects the insert (admission bypass).
/// * `on_evict(key, slot)` fires after `evict_candidate` chose `slot`,
///   before the new key is installed there.
/// * `begin_step`/`prepare_step` carry the engine-side future feed to a
///   policy that consumes one; history-driven policies ignore it.
pub trait EvictionPolicy: fmt::Debug + Send {
    /// A lookup for `key` resolved to `slot`.
    fn on_hit(&mut self, key: Key, slot: usize);
    /// A lookup for `key` missed.
    fn on_miss(&mut self, _key: Key) {}
    /// `key`'s row was installed in `slot` (previously empty/vacated).
    fn on_insert(&mut self, key: Key, slot: usize);
    /// `key`'s existing row in `slot` was overwritten.
    fn on_replace(&mut self, key: Key, slot: usize);
    /// `key` was evicted from `slot` (called before the replacement lands).
    fn on_evict(&mut self, key: Key, slot: usize);
    /// Occupancy-independent admission pre-check.
    fn admits(&self, _key: Key) -> bool {
        true
    }
    /// Full cache: pick the victim slot for incoming `key`, or `None` to
    /// reject it. `residents[slot]` is the key occupying `slot`.
    fn evict_candidate(&mut self, key: Key, residents: &[Key]) -> Option<usize>;
    /// The (owner-local) batch keys of `step`, fed as soon as the engine
    /// materializes them (s+L lookahead registration).
    fn prepare_step(&mut self, _step: u64, _keys: &[Key]) {}
    /// The training loop advanced to `step`.
    fn begin_step(&mut self, _step: u64) {}
}

/// Intrusive doubly-linked recency list over cache slots (head = most
/// recent, tail = least recent). O(1) for every operation; storage grows
/// with the slot count, never per-operation.
#[derive(Debug, Default)]
struct RecencyList {
    prev: Vec<usize>,
    next: Vec<usize>,
    head: usize,
    tail: usize,
}

impl RecencyList {
    fn new() -> Self {
        RecencyList {
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn ensure(&mut self, slot: usize) {
        if slot >= self.prev.len() {
            self.prev.resize(slot + 1, NIL);
            self.next.resize(slot + 1, NIL);
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.prev[slot], self.next[slot]);
        if prev != NIL {
            self.next[prev] = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.prev[next] = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.ensure(slot);
        self.prev[slot] = NIL;
        self.next[slot] = self.head;
        if self.head != NIL {
            self.prev[self.head] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    fn tail(&self) -> usize {
        self.tail
    }
}

/// Admit only keys below a static hotness threshold; never evict. With
/// Zipf-ranked key spaces the hottest keys are the numerically smallest,
/// which the threshold encodes (see `Sharding::hot_threshold`).
#[derive(Debug)]
pub struct StaticHotPolicy {
    hot_threshold: u64,
}

impl StaticHotPolicy {
    /// Admits the keys below `hot_threshold`.
    pub fn new(hot_threshold: u64) -> Self {
        StaticHotPolicy { hot_threshold }
    }
}

impl EvictionPolicy for StaticHotPolicy {
    fn on_hit(&mut self, _key: Key, _slot: usize) {}
    fn on_insert(&mut self, _key: Key, _slot: usize) {}
    fn on_replace(&mut self, _key: Key, _slot: usize) {}
    fn on_evict(&mut self, _key: Key, _slot: usize) {}

    fn admits(&self, key: Key) -> bool {
        key < self.hot_threshold
    }

    fn evict_candidate(&mut self, _key: Key, _residents: &[Key]) -> Option<usize> {
        // Static caches never exceed their admission set; if the threshold
        // admits more keys than capacity, reject.
        None
    }
}

/// Classic least-recently-used: admit everything (capacity permitting),
/// evict the recency tail.
#[derive(Debug)]
pub struct LruPolicy {
    list: RecencyList,
    capacity: usize,
}

impl LruPolicy {
    /// An LRU policy for a cache of `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        LruPolicy {
            list: RecencyList::new(),
            capacity,
        }
    }
}

impl EvictionPolicy for LruPolicy {
    fn on_hit(&mut self, _key: Key, slot: usize) {
        self.list.touch(slot);
    }

    fn on_insert(&mut self, _key: Key, slot: usize) {
        self.list.push_front(slot);
    }

    fn on_replace(&mut self, _key: Key, slot: usize) {
        self.list.touch(slot);
    }

    fn on_evict(&mut self, _key: Key, slot: usize) {
        self.list.unlink(slot);
    }

    fn admits(&self, _key: Key) -> bool {
        self.capacity > 0
    }

    fn evict_candidate(&mut self, _key: Key, _residents: &[Key]) -> Option<usize> {
        let victim = self.list.tail();
        debug_assert_ne!(victim, NIL, "full cache must have a tail");
        Some(victim)
    }
}

/// LRU recency for victim selection plus per-key access frequencies with
/// periodic halving decay; under pressure a missing key is admitted only
/// when its running frequency strictly beats the victim's.
///
/// Frequencies count *accesses* (hits and misses alike), so a key builds
/// admission credit while still uncached — the mechanism that keeps
/// one-hit wonders from churning a Zipf cache's hot set (Fang et al.;
/// TinyLFU-style admission). Every `decay_every` accesses all counts are
/// halved and zeroes pruned, which both ages out stale popularity and
/// bounds the frequency map.
#[derive(Debug)]
pub struct FrequencyAwarePolicy {
    list: RecencyList,
    freq: KeyHashMap<u32>,
    accesses: u64,
    decay_every: u64,
    capacity: usize,
}

impl FrequencyAwarePolicy {
    /// A frequency-aware policy for a cache of `capacity` slots. The decay
    /// period scales with capacity so small test caches still decay.
    pub fn new(capacity: usize) -> Self {
        FrequencyAwarePolicy {
            list: RecencyList::new(),
            freq: KeyHashMap::default(),
            accesses: 0,
            decay_every: 10 * capacity.max(8) as u64,
            capacity,
        }
    }

    fn bump(&mut self, key: Key) {
        let c = self.freq.entry(key).or_insert(0);
        *c = c.saturating_add(1);
        self.accesses += 1;
        if self.accesses.is_multiple_of(self.decay_every) {
            self.freq.retain(|_, c| {
                *c >>= 1;
                *c > 0
            });
        }
    }

    fn frequency(&self, key: Key) -> u32 {
        self.freq.get(&key).copied().unwrap_or(0)
    }
}

impl EvictionPolicy for FrequencyAwarePolicy {
    fn on_hit(&mut self, key: Key, slot: usize) {
        self.bump(key);
        self.list.touch(slot);
    }

    fn on_miss(&mut self, key: Key) {
        self.bump(key);
    }

    fn on_insert(&mut self, _key: Key, slot: usize) {
        self.list.push_front(slot);
    }

    fn on_replace(&mut self, _key: Key, slot: usize) {
        self.list.touch(slot);
    }

    fn on_evict(&mut self, _key: Key, slot: usize) {
        // Keep the evicted key's frequency: its history is exactly what
        // lets it re-enter later (and what decay is for).
        self.list.unlink(slot);
    }

    fn admits(&self, _key: Key) -> bool {
        self.capacity > 0
    }

    fn evict_candidate(&mut self, key: Key, residents: &[Key]) -> Option<usize> {
        let victim = self.list.tail();
        debug_assert_ne!(victim, NIL, "full cache must have a tail");
        if self.frequency(key) > self.frequency(residents[victim]) {
            Some(victim)
        } else {
            None
        }
    }
}

/// Belady's MIN with admission bypass, fed real future knowledge.
///
/// The engine registers every step's reads `L` steps ahead; the same
/// materialized key lists, filtered to this cache's owner shard, arrive
/// through [`EvictionPolicy::prepare_step`] as per-key next-use queues.
/// Under pressure the policy evicts the resident whose next use is
/// farthest in the future (absent = infinitely far) — and rejects the
/// *incoming* key instead when its own next use is farther than every
/// resident's, which plain evict-only Belady misses.
///
/// Next-use queues are consumed lazily: `begin_step(s)` only advances the
/// clock, and entries `< now` are dropped at inspection time. A resident's
/// distance is its first use `≥ now` (a step-`s` use not yet popped by a
/// hit is still ahead of a fill decided during step `s`: a later stream of
/// the same member queries the cache after this stream's fills); an
/// *incoming* key's distance is its first use `> now`, because the fill
/// consuming it **is** the `now` use. Hits pop their `≤ now` entries
/// eagerly.
#[derive(Debug)]
pub struct OracleBeladyPolicy {
    /// Per-key future use steps, non-decreasing, deduped per step.
    future: KeyHashMap<VecDeque<u64>>,
    now: u64,
    capacity: usize,
}

impl OracleBeladyPolicy {
    /// An oracle policy for a cache of `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        OracleBeladyPolicy {
            future: KeyHashMap::default(),
            now: 0,
            capacity,
        }
    }

    /// First known use at or after `now` (`NEVER` when none), dropping
    /// consumed entries.
    fn next_use_resident(&mut self, key: Key) -> u64 {
        match self.future.get_mut(&key) {
            None => NEVER,
            Some(q) => {
                while q.front().is_some_and(|&s| s < self.now) {
                    q.pop_front();
                }
                match q.front() {
                    Some(&s) => s,
                    None => {
                        self.future.remove(&key);
                        NEVER
                    }
                }
            }
        }
    }

    /// First known use strictly after `now` (`NEVER` when none): the
    /// incoming key's `now` use is consumed by the fill being decided.
    fn next_use_incoming(&mut self, key: Key) -> u64 {
        match self.future.get_mut(&key) {
            None => NEVER,
            Some(q) => {
                while q.front().is_some_and(|&s| s <= self.now) {
                    q.pop_front();
                }
                match q.front() {
                    Some(&s) => s,
                    None => {
                        self.future.remove(&key);
                        NEVER
                    }
                }
            }
        }
    }
}

impl EvictionPolicy for OracleBeladyPolicy {
    fn on_hit(&mut self, key: Key, _slot: usize) {
        // This step's use is consumed; expose the *next* one.
        if let Some(q) = self.future.get_mut(&key) {
            while q.front().is_some_and(|&s| s <= self.now) {
                q.pop_front();
            }
            if q.is_empty() {
                self.future.remove(&key);
            }
        }
    }

    fn on_insert(&mut self, key: Key, _slot: usize) {
        // Uniform with the eviction path: the fill consumes the `now` use.
        let _ = self.next_use_incoming(key);
    }

    fn on_replace(&mut self, _key: Key, _slot: usize) {}
    fn on_evict(&mut self, _key: Key, _slot: usize) {}

    fn admits(&self, _key: Key) -> bool {
        self.capacity > 0
    }

    fn evict_candidate(&mut self, key: Key, residents: &[Key]) -> Option<usize> {
        let incoming = self.next_use_incoming(key);
        if incoming == NEVER {
            // Known-useless (or unknown) future: never displace a resident.
            return None;
        }
        let mut victim = NIL;
        let mut farthest = 0u64;
        for (slot, &resident) in residents.iter().enumerate() {
            let next = self.next_use_resident(resident);
            if next == NEVER {
                return Some(slot);
            }
            if next > farthest {
                farthest = next;
                victim = slot;
            }
        }
        // Belady with bypass: if the incoming key itself has the farthest
        // next use, caching it can only displace a sooner reuse.
        if incoming >= farthest {
            None
        } else {
            Some(victim)
        }
    }

    fn prepare_step(&mut self, step: u64, keys: &[Key]) {
        if step < self.now {
            return;
        }
        for &key in keys {
            let q = self.future.entry(key).or_default();
            if q.back() != Some(&step) {
                q.push_back(step);
            }
        }
    }

    fn begin_step(&mut self, step: u64) {
        self.now = step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recency_list_tracks_tail_through_churn() {
        let mut l = RecencyList::new();
        l.push_front(0);
        l.push_front(1);
        l.push_front(2);
        assert_eq!(l.tail(), 0);
        l.touch(0); // order now 0 > 2 > 1
        assert_eq!(l.tail(), 1);
        l.unlink(1);
        assert_eq!(l.tail(), 2);
        l.unlink(2);
        assert_eq!(l.tail(), 0);
        l.unlink(0);
        assert_eq!(l.tail(), NIL);
    }

    #[test]
    fn frequency_admission_requires_strictly_higher_count() {
        let mut p = FrequencyAwarePolicy::new(1);
        p.on_miss(10); // freq[10] = 1
        p.on_insert(10, 0);
        p.on_miss(20); // freq[20] = 1: ties lose
        assert_eq!(p.evict_candidate(20, &[10]), None);
        p.on_miss(20); // freq[20] = 2 > freq[10] = 1
        assert_eq!(p.evict_candidate(20, &[10]), Some(0));
    }

    #[test]
    fn frequency_decay_halves_and_prunes() {
        let mut p = FrequencyAwarePolicy::new(1);
        p.decay_every = 4;
        for _ in 0..3 {
            p.bump(1);
        }
        p.bump(2); // 4th access triggers decay: 1 → 1, 2 → 0 (pruned)
        assert_eq!(p.frequency(1), 1);
        assert_eq!(p.frequency(2), 0);
        assert!(!p.freq.contains_key(&2));
    }

    #[test]
    fn oracle_evicts_farthest_next_use() {
        let mut p = OracleBeladyPolicy::new(2);
        p.prepare_step(1, &[10]);
        p.prepare_step(5, &[20]);
        p.prepare_step(2, &[30]);
        p.begin_step(0);
        // Residents 10 (next 1) and 20 (next 5); incoming 30 (next 2)
        // displaces 20.
        assert_eq!(p.evict_candidate(30, &[10, 20]), Some(1));
    }

    #[test]
    fn oracle_bypasses_farthest_incoming_key() {
        let mut p = OracleBeladyPolicy::new(2);
        p.prepare_step(1, &[10]);
        p.prepare_step(2, &[20]);
        p.prepare_step(9, &[30]);
        p.begin_step(0);
        assert_eq!(p.evict_candidate(30, &[10, 20]), None);
        // Unknown future is treated as farthest of all.
        assert_eq!(p.evict_candidate(40, &[10, 20]), None);
    }

    #[test]
    fn oracle_resident_use_at_now_is_still_ahead() {
        // During step s, a resident used *at* s must not look dead (a
        // later stream may still query it), while an incoming key's s-use
        // counts as consumed.
        let mut p = OracleBeladyPolicy::new(2);
        p.prepare_step(3, &[10]);
        p.prepare_step(3, &[30]);
        p.prepare_step(4, &[20]);
        p.begin_step(3);
        assert_eq!(p.next_use_resident(10), 3);
        assert_eq!(p.next_use_incoming(30), NEVER);
    }
}
