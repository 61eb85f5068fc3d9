//! Model-agreement property tests for the pluggable cache policies.
//!
//! Each policy is checked against an independently-coded naive reference
//! that replays the engine's access discipline (lookup, then fill on
//! miss) over arbitrary key traces:
//!
//! * StaticHot / LRU / FrequencyAware — exact agreement on every hit/miss
//!   decision, final membership, and the hit/miss counters, plus the
//!   capacity invariant `len ≤ capacity` at every step.
//! * `belady_hits`, the offline bound — exact hit-count agreement with a
//!   from-scratch Belady-MIN simulator (with admission bypass) that
//!   recomputes next uses by scanning the raw trace; on batched traces
//!   (every key of a batch looked up before any is filled, as a member
//!   queries a stream's plan), agreement with an exhaustive search over
//!   every fill choice; and the bound itself: on any batched trace no
//!   policy scores more hits.
//!
//! The reference models here are deliberately naive (`Vec` scans,
//! recompute-from-trace next uses) so they share no code — and no bugs —
//! with the intrusive-list implementations and the reverse scan in
//! `policy.rs`.

use frugal_embed::{belady_hits, CachePolicy, GpuCache};
use proptest::prelude::*;
use std::collections::HashMap;

type Key = u64;

const DIM: usize = 4;

fn row_for(key: Key) -> [f32; DIM] {
    [key as f32; DIM]
}

/// Drive one engine-style access: lookup, then fill on miss. Returns
/// whether the lookup hit.
fn access(cache: &mut GpuCache, key: Key) -> bool {
    if cache.get(&key).is_some() {
        return true;
    }
    if cache.admits(key) {
        let _ = cache.insert_from_slice(key, &row_for(key));
    }
    false
}

// ---------------------------------------------------------------------------
// StaticHot reference: admit below threshold, never evict.
// ---------------------------------------------------------------------------

fn check_static_hot(cap: usize, threshold: u64, trace: &[Key]) -> Result<(), String> {
    let mut cache = GpuCache::new(cap, DIM, CachePolicy::StaticHot);
    cache.set_hot_threshold(threshold);
    let mut resident: Vec<Key> = Vec::new();
    for (i, &key) in trace.iter().enumerate() {
        let got = access(&mut cache, key);
        let want = resident.contains(&key);
        if !want && key < threshold && resident.len() < cap {
            resident.push(key);
        }
        if got != want {
            return Err(format!("op {i}: key {key} hit={got}, model says {want}"));
        }
        if cache.len() > cap {
            return Err(format!("op {i}: len {} > capacity {cap}", cache.len()));
        }
    }
    verify_membership(&cache, &resident, trace)
}

// ---------------------------------------------------------------------------
// LRU reference: Vec ordered front = most recent.
// ---------------------------------------------------------------------------

fn check_lru(cap: usize, trace: &[Key]) -> Result<(), String> {
    let mut cache = GpuCache::new(cap, DIM, CachePolicy::Lru);
    let mut order: Vec<Key> = Vec::new(); // front = MRU
    for (i, &key) in trace.iter().enumerate() {
        let got = access(&mut cache, key);
        let want = order.contains(&key);
        if want {
            order.retain(|&k| k != key);
            order.insert(0, key);
        } else {
            if order.len() == cap {
                order.pop();
            }
            order.insert(0, key);
        }
        if got != want {
            return Err(format!("op {i}: key {key} hit={got}, model says {want}"));
        }
        if cache.len() > cap {
            return Err(format!("op {i}: len {} > capacity {cap}", cache.len()));
        }
    }
    verify_membership(&cache, &order, trace)
}

// ---------------------------------------------------------------------------
// FrequencyAware reference: LRU order + decayed counters, admission only
// when the incoming frequency strictly beats the LRU victim's.
// ---------------------------------------------------------------------------

struct FreqModel {
    cap: usize,
    order: Vec<Key>, // front = MRU
    freq: HashMap<Key, u32>,
    accesses: u64,
    decay_every: u64,
}

impl FreqModel {
    fn new(cap: usize) -> Self {
        FreqModel {
            cap,
            order: Vec::new(),
            freq: HashMap::new(),
            accesses: 0,
            // Must mirror FrequencyAwarePolicy::new.
            decay_every: 10 * cap.max(8) as u64,
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

    fn f(&self, key: Key) -> u32 {
        self.freq.get(&key).copied().unwrap_or(0)
    }

    /// Lookup + fill-on-miss, mirroring the engine discipline.
    fn access(&mut self, key: Key) -> bool {
        let hit = self.order.contains(&key);
        self.bump(key);
        if hit {
            self.order.retain(|&k| k != key);
            self.order.insert(0, key);
            return true;
        }
        if self.order.len() < self.cap {
            self.order.insert(0, key);
        } else {
            let victim = *self.order.last().expect("full cache has a tail");
            if self.f(key) > self.f(victim) {
                self.order.pop();
                self.order.insert(0, key);
            }
        }
        false
    }
}

fn check_freq(cap: usize, trace: &[Key]) -> Result<(), String> {
    let mut cache = GpuCache::new(cap, DIM, CachePolicy::FrequencyAware);
    let mut model = FreqModel::new(cap);
    for (i, &key) in trace.iter().enumerate() {
        let got = access(&mut cache, key);
        let want = model.access(key);
        if got != want {
            return Err(format!("op {i}: key {key} hit={got}, model says {want}"));
        }
        if cache.len() > cap {
            return Err(format!("op {i}: len {} > capacity {cap}", cache.len()));
        }
    }
    verify_membership(&cache, &model.order, trace)
}

// ---------------------------------------------------------------------------
// Belady-MIN reference: recompute next uses by scanning the raw trace.
// ---------------------------------------------------------------------------

/// From-scratch OPT-with-bypass simulator: on a miss with the cache full,
/// evict the farthest-next-use member of `residents ∪ {incoming}` — which
/// bypasses the insert when the incoming key itself is farthest. Next uses
/// are recomputed from the trace at every decision; no queues, no clock.
fn opt_hits(cap: usize, trace: &[Key]) -> u64 {
    let next_use = |from: usize, key: Key| -> usize {
        trace[from..]
            .iter()
            .position(|&t| t == key)
            .map(|d| from + d)
            .unwrap_or(usize::MAX)
    };
    let mut resident: Vec<Key> = Vec::new();
    let mut hits = 0u64;
    for (s, &key) in trace.iter().enumerate() {
        if resident.contains(&key) {
            hits += 1;
            continue;
        }
        if resident.len() < cap {
            resident.push(key);
            continue;
        }
        if cap == 0 {
            continue;
        }
        let incoming = next_use(s + 1, key);
        let (slot, farthest) = resident
            .iter()
            .enumerate()
            .map(|(i, &r)| (i, next_use(s + 1, r)))
            .max_by_key(|&(_, d)| d)
            .expect("nonempty residents");
        if incoming < farthest {
            resident[slot] = key;
        }
    }
    hits
}

/// The most hits a demand-filled cache of `cap` slots can score on
/// `batches` (keys below 8), by trying every choice: after each batch it
/// may keep any `cap` of its residents and the batch's keys.
fn best_hits(cap: usize, batches: &[Vec<Key>]) -> u64 {
    fn go(
        cap: usize,
        batches: &[Vec<Key>],
        resident: u8,
        memo: &mut HashMap<(usize, u8), u64>,
    ) -> u64 {
        let Some(batch) = batches.first() else {
            return 0;
        };
        if let Some(&best) = memo.get(&(batches.len(), resident)) {
            return best;
        }
        let hits = batch.iter().filter(|&&k| resident & 1 << k != 0).count() as u64;
        let open = batch.iter().fold(resident, |m, &k| m | 1 << k);
        let mut best = 0;
        let mut keep = open;
        loop {
            if keep.count_ones() as usize <= cap {
                best = best.max(go(cap, &batches[1..], keep, memo));
            }
            if keep == 0 {
                break;
            }
            keep = (keep - 1) & open;
        }
        memo.insert((batches.len(), resident), hits + best);
        hits + best
    }
    go(cap, batches, 0, &mut HashMap::new())
}

/// Replays `batches` through a `policy` cache as a member does a step's
/// streams: every key of a batch is looked up, then its misses are filled.
/// Returns the hit count.
fn batched_hits(policy: CachePolicy, cap: usize, threshold: u64, batches: &[Vec<Key>]) -> u64 {
    let mut cache = GpuCache::new(cap, DIM, policy);
    cache.set_hot_threshold(threshold);
    let mut hits = 0;
    for batch in batches {
        let missing: Vec<Key> = batch
            .iter()
            .copied()
            .filter(|key| cache.get(key).is_none())
            .collect();
        hits += (batch.len() - missing.len()) as u64;
        for key in missing {
            let _ = cache.insert_from_slice(key, &row_for(key));
        }
    }
    hits
}

/// A trace as one-key batches.
fn singletons(trace: &[Key]) -> Vec<Vec<Key>> {
    trace.iter().map(|&key| vec![key]).collect()
}

/// Batches of distinct keys, as a plan's unique keys are.
fn distinct(mut batches: Vec<Vec<Key>>) -> Vec<Vec<Key>> {
    for batch in &mut batches {
        batch.sort_unstable();
        batch.dedup();
    }
    batches
}

// ---------------------------------------------------------------------------
// Shared final-state check: membership parity and row integrity.
// ---------------------------------------------------------------------------

fn verify_membership(cache: &GpuCache, resident: &[Key], trace: &[Key]) -> Result<(), String> {
    for &key in trace {
        let want = resident.contains(&key);
        if cache.contains(&key) != want {
            return Err(format!(
                "final membership of key {key}: cache {}, model {want}",
                cache.contains(&key)
            ));
        }
    }
    if cache.len() != resident.len() {
        return Err(format!(
            "final len {} != model len {}",
            cache.len(),
            resident.len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn static_hot_matches_model(
        cap in 1usize..6,
        threshold in 0u64..12,
        trace in proptest::collection::vec(0u64..12, 0..200),
    ) {
        if let Err(e) = check_static_hot(cap, threshold, &trace) {
            prop_assert!(false, "{e}");
        }
    }

    #[test]
    fn lru_matches_model(
        cap in 1usize..6,
        trace in proptest::collection::vec(0u64..12, 0..200),
    ) {
        if let Err(e) = check_lru(cap, &trace) {
            prop_assert!(false, "{e}");
        }
    }

    #[test]
    fn frequency_aware_matches_model(
        cap in 1usize..6,
        trace in proptest::collection::vec(0u64..12, 0..200),
    ) {
        if let Err(e) = check_freq(cap, &trace) {
            prop_assert!(false, "{e}");
        }
    }

    #[test]
    fn oracle_matches_belady_min(
        cap in 1usize..6,
        trace in proptest::collection::vec(0u64..10, 0..120),
    ) {
        // Hit-for-hit agreement with the from-scratch OPT simulator. Tie
        // breaks between never-used-again residents may differ, but dead
        // keys can't contribute future hits, so the counts must match.
        let got = belady_hits(&singletons(&trace), cap);
        let want = opt_hits(cap, &trace);
        prop_assert_eq!(got, want, "belady {} vs OPT {} on {:?}", got, want, trace);
    }

    #[test]
    fn belady_hits_is_the_batched_optimum(
        cap in 0usize..4,
        batches in proptest::collection::vec(proptest::collection::vec(0u64..6, 0..5), 0..8),
    ) {
        // Keeping the soonest-used keys after each batch is optimal even
        // when a batch is looked up before any of it is filled.
        let batches = distinct(batches);
        let got = belady_hits(&batches, cap);
        let want = best_hits(cap, &batches);
        prop_assert_eq!(got, want, "belady {} vs search {} on {:?}", got, want, batches);
    }

    #[test]
    fn oracle_is_an_upper_bound_on_online_policies(
        cap in 1usize..6,
        threshold in 0u64..12,
        batches in proptest::collection::vec(proptest::collection::vec(0u64..10, 0..5), 0..60),
    ) {
        // Belady-MIN with bypass is optimal over the whole class of
        // demand-filled admission/eviction policies, so on a fully known
        // trace, batched the way a member looks keys up, no policy may
        // beat it.
        let batches = distinct(batches);
        let bound = belady_hits(&batches, cap);
        for policy in CachePolicy::ALL {
            let hits = batched_hits(policy, cap, threshold, &batches);
            prop_assert!(
                bound >= hits,
                "{} {} > belady {} on {:?}", policy.label(), hits, bound, batches
            );
        }
    }
}

/// Every lookup is a hit exactly when its key was resident, so counting
/// `get(..).is_some()` counts the hits (spot check on a fixed skewed
/// trace).
#[test]
fn stats_count_every_lookup() {
    let trace: Vec<Key> = (0..100).map(|i| (i * i) % 7).collect();
    let mut cache = GpuCache::new(3, DIM, CachePolicy::Lru);
    let (mut hits, mut misses) = (0u64, 0u64);
    for &key in &trace {
        let resident = cache.contains(&key);
        let hit = access(&mut cache, key);
        assert_eq!(hit, resident, "key {key}");
        if hit {
            hits += 1;
        } else {
            misses += 1;
        }
    }
    assert!(hits > 0 && misses > 0, "the trace must mix hits and misses");
    assert_eq!(hits + misses, trace.len() as u64);
}
