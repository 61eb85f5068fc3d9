//! Pluggable cache eviction/admission policies, and the offline bound
//! they are judged against.
//!
//! [`GpuCache`](crate::GpuCache) owns the row arena and the key→slot map;
//! everything *strategic* — recency bookkeeping, admission decisions and
//! victim selection — lives behind the [`EvictionPolicy`] trait. The cache
//! drives the policy through narrow callbacks; the policy never touches
//! rows, and it decides from the accesses it has seen, never from future
//! ones.
//!
//! Three implementations (one per [`CachePolicy`](crate::CachePolicy)
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
//!
//! [`belady_hits`] is no policy: it scores Belady's MIN over a whole known
//! access sequence, the most hits any of them could score on it.
//!
//! Caches are single-owner structures (one per trainer thread), so
//! policies are plain `&mut` state: no locks, no atomics.

use frugal_data::{Key, KeyHashMap};
use std::collections::BTreeSet;
use std::fmt;

/// "No slot" sentinel for the intrusive recency list.
const NIL: usize = usize::MAX;

/// The strategic half of a GPU cache: admission and victim selection.
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

/// The hits of Belady's MIN with bypass over a fully known access sequence:
/// the most any cache of `capacity` slots that fills only the keys it
/// misses can score on it. An offline bound, not a policy.
///
/// `accesses` comes batch by batch, and every key of a batch is looked up
/// before any of them is filled, as a member queries one stream's plan and
/// then fills its misses. After each batch the cache keeps, of its
/// residents and the batch's keys, the `capacity` whose next use is
/// soonest; a key never used again is not kept. With one key a batch this
/// is Belady's rule: a miss evicts the resident used farthest ahead, or is
/// bypassed when it is used farthest ahead itself. The keys of a batch are
/// distinct, as a plan's unique keys are; with repeats, keeping the
/// soonest-used keys is no longer optimal. Next uses come from one reverse
/// scan.
pub fn belady_hits(accesses: &[Vec<Key>], capacity: usize) -> u64 {
    const NEVER: usize = usize::MAX;
    // `next[i]`: the first batch after its own that uses the i-th access's
    // key, over `accesses` flattened.
    let mut next = vec![NEVER; accesses.iter().map(Vec::len).sum()];
    let mut later = KeyHashMap::default();
    let mut end = next.len();
    for (b, batch) in accesses.iter().enumerate().rev() {
        let uses = &mut next[end - batch.len()..end];
        for (n, key) in uses.iter_mut().zip(batch) {
            *n = later.get(key).copied().unwrap_or(NEVER);
        }
        later.extend(batch.iter().map(|&key| (key, b)));
        end -= batch.len();
    }
    // Each resident's next use, and the residents ordered by it.
    let mut due: KeyHashMap<usize> = KeyHashMap::default();
    let mut by_due = BTreeSet::new();
    let (mut hits, mut at) = (0, 0);
    for (b, batch) in accesses.iter().enumerate() {
        let uses = &next[at..at + batch.len()];
        at += batch.len();
        // Lookups: a resident is due now, and its hit moves it to its next use.
        for (&key, &n) in batch.iter().zip(uses) {
            if let Some(d) = due.get_mut(&key) {
                hits += 1;
                by_due.remove(&(b, key));
                by_due.insert((n, key));
                *d = n;
            }
        }
        // Fills: a miss used again displaces the resident due farthest
        // ahead, if that one is due after it.
        for (&key, &n) in batch.iter().zip(uses) {
            if n == NEVER || due.contains_key(&key) {
                continue;
            }
            if due.len() >= capacity {
                match by_due.last() {
                    Some(&(far, victim)) if far > n => {
                        by_due.pop_last();
                        due.remove(&victim);
                    }
                    _ => continue,
                }
            }
            due.insert(key, n);
            by_due.insert((n, key));
        }
    }
    hits
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

    fn one_a_batch(keys: &[Key]) -> Vec<Vec<Key>> {
        keys.iter().map(|&key| vec![key]).collect()
    }

    #[test]
    fn oracle_evicts_farthest_next_use() {
        // 10 and 20 fill the cache; 30 (next use batch 4) displaces 20
        // (next use 5), not 10 (next use 3).
        assert_eq!(belady_hits(&one_a_batch(&[10, 20, 30, 10, 30, 20]), 2), 2);
    }

    #[test]
    fn oracle_bypasses_farthest_incoming_key() {
        // 30 is used again only after both residents: it is not filled,
        // and neither is 40, which is never used again.
        let accesses = one_a_batch(&[10, 20, 30, 40, 10, 20, 30]);
        assert_eq!(belady_hits(&accesses, 2), 2);
        assert_eq!(belady_hits(&accesses, 3), 3);
        assert_eq!(belady_hits(&accesses, 0), 0);
    }

    #[test]
    fn oracle_resident_use_at_now_is_still_ahead() {
        // A batch is looked up before it is filled: 20, due in batch 1,
        // hits there although that batch's 30 displaces it.
        let accesses = [vec![10, 20], vec![20, 30], vec![30, 10]];
        assert_eq!(belady_hits(&accesses, 2), 3);
    }
}
