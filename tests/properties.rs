//! Property-based tests (proptest) over the core invariants.

use frugal::data::Zipf;
use frugal::embed::{CachePolicy, GpuCache};
use frugal::pq::{PriorityQueue, TreeHeap, TwoLevelPq, INFINITE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Zipf samples always land in the key space, for any valid parameters.
    #[test]
    fn zipf_samples_in_range(n in 1u64..100_000, theta in 0.0f64..1.5, seed in any::<u64>()) {
        let z = Zipf::new(n, theta).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Two-level PQ: dequeue order is non-decreasing in priority, nothing
    /// is lost, ∞ entries come last.
    #[test]
    fn two_level_pq_orders_and_preserves(
        entries in proptest::collection::vec((0u64..10_000, 0u64..64), 1..200),
    ) {
        let pq = TwoLevelPq::new(64);
        let mut expected: Vec<(u64, u64)> = Vec::new();
        let mut seen_keys = std::collections::HashSet::new();
        for &(key, p) in &entries {
            if seen_keys.insert(key) {
                let priority = if p == 63 { INFINITE } else { p };
                pq.enqueue(key, priority);
                expected.push((key, priority));
            }
        }
        let mut out = Vec::new();
        pq.dequeue_batch(usize::MAX, &mut out);
        prop_assert_eq!(out.len(), expected.len());
        // Non-decreasing priorities.
        for w in out.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "priority order violated");
        }
        // Same key set.
        let mut got: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        let mut want: Vec<u64> = expected.iter().map(|&(k, _)| k).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert!(pq.is_empty());
    }

    /// adjust() never loses an entry, whatever the move sequence.
    #[test]
    fn pq_adjust_preserves_entries(
        moves in proptest::collection::vec((0u64..32, 0u64..20), 1..100),
    ) {
        let pq = TwoLevelPq::new(32);
        let mut position: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for &(key, p) in &moves {
            match position.get(&key) {
                None => {
                    pq.enqueue(key, p);
                    position.insert(key, p);
                }
                Some(&old) if old != p => {
                    pq.adjust(key, old, p);
                    position.insert(key, p);
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        pq.dequeue_batch(usize::MAX, &mut out);
        // Stale copies may surface; validate against authoritative position
        // exactly like the flusher does.
        let mut live: std::collections::HashSet<u64> = position.keys().copied().collect();
        for (k, p) in out {
            if position.get(&k) == Some(&p) {
                live.remove(&k);
            }
        }
        prop_assert!(live.is_empty(), "entries lost: {live:?}");
    }

    /// Tree heap agrees with a sorted reference on pure enqueue/dequeue.
    #[test]
    fn treeheap_orders(entries in proptest::collection::vec((0u64..1000, 0u64..50), 1..100)) {
        let pq = TreeHeap::new();
        for &(k, p) in &entries {
            pq.enqueue(k, p);
        }
        let mut out = Vec::new();
        pq.dequeue_batch(usize::MAX, &mut out);
        let mut prios: Vec<u64> = out.iter().map(|&(_, p)| p).collect();
        let mut sorted = prios.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&prios[..], &sorted[..]);
        prios.sort_unstable();
        prop_assert_eq!(prios.len(), entries.len());
    }

    /// LRU cache never exceeds capacity and keeps the most recent key.
    #[test]
    fn lru_cache_bounds(ops in proptest::collection::vec(0u64..64, 1..300), cap in 1usize..16) {
        let mut cache = GpuCache::new(cap, 1, CachePolicy::Lru);
        for &k in &ops {
            if cache.get(&k).is_none() {
                cache.insert_from_slice(k, &[k as f32]);
            }
            prop_assert!(cache.len() <= cap);
        }
        let last = *ops.last().unwrap();
        prop_assert!(cache.contains(&last), "most recent key evicted");
    }
}
