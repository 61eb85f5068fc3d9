//! Model-based property tests: the lock-free set against a `HashSet`, and
//! the two-level PQ against a sorted reference, over random op sequences —
//! including a windowed queue driven across many wraps of its bucket ring.

use frugal_pq::{LockFreeSet, PriorityQueue, TwoLevelPq, INFINITE};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

/// Lookahead of the windowed-queue model; its ring has 8 buckets.
const L: u64 = 5;

/// The smallest finite priority in the model, or ∞.
fn model_top(model: &BTreeMap<u64, u64>) -> u64 {
    model.values().copied().min().unwrap_or(INFINITE)
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    TakeAny(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..128).prop_map(Op::Insert),
        (0u64..128).prop_map(Op::Remove),
        (0usize..8).prop_map(Op::TakeAny),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lockfree_set_matches_hashset_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let set = LockFreeSet::new();
        let mut model: HashSet<u64> = HashSet::new();
        for op in ops {
            match op {
                Op::Insert(k) => {
                    if !model.contains(&k) {
                        set.insert(k);
                        model.insert(k);
                    }
                }
                Op::Remove(k) => {
                    prop_assert_eq!(set.remove(k), model.remove(&k));
                }
                Op::TakeAny(max) => {
                    let mut out = Vec::new();
                    let got = set.take_any(max, &mut out);
                    prop_assert!(got <= max);
                    for k in out {
                        prop_assert!(model.remove(&k), "took absent key {}", k);
                    }
                }
            }
            prop_assert_eq!(set.len(), model.len());
        }
        for &k in &model {
            prop_assert!(set.contains(k), "model key {} missing", k);
        }
    }

    #[test]
    fn two_level_pq_top_is_sound(
        inserts in proptest::collection::vec((0u64..64, 0u64..33), 1..100),
    ) {
        // top_priority must never exceed the true minimum live priority —
        // the safety direction the P2F wait condition depends on.
        let pq = TwoLevelPq::new(32);
        let mut seen = HashSet::new();
        let mut min_live = INFINITE;
        for &(k, p) in &inserts {
            if seen.insert(k) {
                let p = if p == 32 { INFINITE } else { p };
                pq.enqueue(k, p);
                min_live = min_live.min(p);
            }
        }
        prop_assert!(pq.top_priority() <= min_live);
    }

    #[test]
    fn windowed_pq_matches_btreemap_model_across_wraps(
        steps in proptest::collection::vec(
            proptest::collection::vec((0u64..3, 0u64..24, 0u64..L + 1), 0..6),
            170..200,
        ),
    ) {
        // Engine-shaped traffic over a ring of 8 buckets for ≥ 170 steps:
        // more than 20 wraps. Step `s` enqueues into `[s + 1, s + L]` ∪ ∞
        // and moves entries within that span, then everything due by
        // `s + 1` is flushed — so the live span never exceeds the ring.
        let pq = TwoLevelPq::with_window(10_000, L + 2);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut out = Vec::new();
        for (s, ops) in steps.iter().enumerate() {
            let s = s as u64;
            let in_window = |off: u64| if off == L { INFINITE } else { s + 1 + off };
            for &(kind, key, off) in ops {
                match (kind, model.get(&key).copied()) {
                    (0 | 1, None) => {
                        pq.enqueue(key, in_window(off));
                        model.insert(key, in_window(off));
                    }
                    (0 | 1, Some(old)) => {
                        pq.adjust(key, old, in_window(off));
                        model.insert(key, in_window(off));
                    }
                    _ => {
                        out.clear();
                        pq.dequeue_batch(1, &mut out);
                        match out.first() {
                            None => prop_assert!(model.is_empty()),
                            Some(&(k, p)) => {
                                // Ascending order: the entry dequeued is a
                                // minimum of the model.
                                prop_assert_eq!(model.remove(&k), Some(p));
                                prop_assert!(p <= model_top(&model));
                            }
                        }
                    }
                }
                prop_assert_eq!(pq.len(), model.len());
                prop_assert_eq!(pq.top_priority(), model_top(&model));
            }
            pq.set_upper_bound(s + 1 + L);
            // The wait condition of step s + 1: flush everything due.
            while pq.top_priority() <= s + 1 {
                out.clear();
                pq.dequeue_batch(4, &mut out);
                for &(k, p) in &out {
                    prop_assert_eq!(model.remove(&k), Some(p), "step {}: key {}", s, k);
                }
            }
            prop_assert!(model_top(&model) > s + 1);
        }
        out.clear();
        pq.dequeue_batch(usize::MAX, &mut out);
        out.sort_unstable();
        prop_assert_eq!(out, model.into_iter().collect::<Vec<_>>());
        prop_assert!(pq.resident_bytes() < 16 * 1024, "8 buckets, recycled");
    }
}
