//! Model-based property tests: the lock-free set against a `HashSet` — with
//! a twin set that takes every run of keys one key at a time — and the
//! two-level PQ against a sorted reference, over random op sequences,
//! including engine-shaped traffic under a moving upper bound.

use frugal_pq::{LockFreeSet, PriorityQueue, TwoLevelPq, INFINITE};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lookahead of the engine-shaped model.
const L: u64 = 5;

/// The smallest finite priority in the model, or ∞.
fn model_top(model: &BTreeMap<u64, u64>) -> u64 {
    model.values().copied().min().unwrap_or(INFINITE)
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    /// `len` consecutive keys from `first`: up to 100 of them, so a run
    /// into a fresh chain (64 slots, 60 admitted) fills the head segment to
    /// its 1/16 slack and carries on into the next one.
    InsertRun(u64, u64),
    Remove(u64),
    TakeAny(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..256).prop_map(Op::Insert),
        (0u64..256, 0u64..100).prop_map(|(first, len)| Op::InsertRun(first, len)),
        (0u64..256).prop_map(Op::Remove),
        (0usize..80).prop_map(Op::TakeAny),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lockfree_set_matches_hashset_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        // `set` takes runs whole; `twin` takes the same keys one by one.
        // A run is the same inserts with fewer counter updates, so the two
        // must agree on everything observable — membership, `len`, the
        // order `take_any` hands keys out in (same slots, same cursors),
        // and the chain they grew (a reservation that overshot a segment's
        // room and was not handed back would push keys into a segment the
        // twin never needed).
        let set = LockFreeSet::new();
        let twin = LockFreeSet::new();
        let mut model: HashSet<u64> = HashSet::new();
        for op in ops {
            match op {
                Op::Insert(k) => {
                    if model.insert(k) {
                        set.insert(k);
                        twin.insert(k);
                    }
                }
                Op::InsertRun(first, len) => {
                    let run: Vec<u64> = (first..first + len).filter(|&k| model.insert(k)).collect();
                    set.insert_run(&run);
                    for &k in &run {
                        twin.insert(k);
                    }
                }
                Op::Remove(k) => {
                    prop_assert_eq!(set.remove(k), model.remove(&k));
                    twin.remove(k);
                }
                Op::TakeAny(max) => {
                    let (mut out, mut twin_out) = (Vec::new(), Vec::new());
                    let got = set.take_any(max, &mut out);
                    twin.take_any(max, &mut twin_out);
                    prop_assert!(got <= max);
                    prop_assert_eq!(got, max.min(model.len()), "a lap misses no live key");
                    prop_assert_eq!(&out, &twin_out);
                    for k in out {
                        prop_assert!(model.remove(&k), "took absent key {}", k);
                    }
                }
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(twin.len(), model.len());
            prop_assert_eq!(set.heap_bytes(), twin.heap_bytes());
        }
        for &k in &model {
            prop_assert!(set.contains(k) && twin.contains(k), "model key {} missing", k);
        }
        let mut rest = Vec::new();
        set.take_any(usize::MAX, &mut rest);
        prop_assert_eq!(rest.len(), model.len());
        prop_assert!(set.is_empty());
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
    fn windowed_pq_matches_btreemap_model(
        steps in proptest::collection::vec(
            proptest::collection::vec((0u64..3, 0u64..24, 0u64..L + 1), 0..6),
            170..200,
        ),
    ) {
        // Engine-shaped traffic for ≥ 170 steps: step `s` enqueues into
        // `[s + 1, s + L]` ∪ ∞ and moves entries within that span, then
        // raises the upper bound to `s + 1 + L` and flushes everything due
        // by `s + 1`, so the scan window `[lower, upper]` moves with it.
        let pq = TwoLevelPq::new(200 + L + 1);
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
    }
}

/// Registrants inserting runs while dequeuers take: every key comes out
/// exactly once, and the counters land on zero. (The interleavings that
/// matter are enumerated under the schedule explorer, `sched_explore.rs`;
/// this is the same traffic at full speed and real sizes — runs that span
/// several segments of a chain other threads are growing and draining.)
#[test]
fn concurrent_runs_and_takers_lose_nothing() {
    const WRITERS: u64 = 3;
    const PER_WRITER: u64 = 6_000;
    let set = LockFreeSet::new();
    let writers_left = AtomicU64::new(WRITERS);
    let mut taken: Vec<u64> = std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (set, writers_left) = (&set, &writers_left);
            scope.spawn(move || {
                let keys: Vec<u64> = (w * PER_WRITER..(w + 1) * PER_WRITER).collect();
                // Run lengths 1, 2, … 97, 1, …: ones and segment-straddlers.
                let mut rest = &keys[..];
                let mut len = 1;
                while !rest.is_empty() {
                    let (run, tail) = rest.split_at(len.min(rest.len()));
                    set.insert_run(run);
                    rest = tail;
                    len = len % 97 + 1;
                }
                writers_left.fetch_sub(1, Ordering::SeqCst);
            });
        }
        let takers: Vec<_> = (0..2)
            .map(|_| {
                let (set, writers_left) = (&set, &writers_left);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // Read "writers done" *before* the take that finds
                        // nothing: then nothing can arrive after it.
                        let done = writers_left.load(Ordering::SeqCst) == 0;
                        if set.take_any(64, &mut out) == 0 && done {
                            return out;
                        }
                    }
                })
            })
            .collect();
        takers
            .into_iter()
            .flat_map(|t| t.join().expect("taker panicked"))
            .collect()
    });
    taken.sort_unstable();
    assert_eq!(
        taken,
        (0..WRITERS * PER_WRITER).collect::<Vec<_>>(),
        "keys lost or handed out twice"
    );
    assert!(set.is_empty(), "len must settle at zero: {}", set.len());
    assert!(!set.contains(0) && !set.contains(WRITERS * PER_WRITER - 1));
}
