//! Microbenchmarks of the priority-queue operations (§3.4): enqueue /
//! adjust / dequeue on the two-level PQ vs the tree heap, plus the
//! scan-range-compression ablation the paper credits with a 28 %
//! dequeue-time reduction.

use frugal_pq::{PriorityQueue, TreeHeap, TwoLevelPq, INFINITE};
use std::hint::black_box;
use std::time::{Duration, Instant};

const MAX_STEP: u64 = 100_000;
const POPULATION: u64 = 50_000;
const SAMPLES: u32 = 10;

/// Times `routine` on fresh inputs from `setup` (setup off the clock):
/// warms up for 0.5 s, sizes the iterations so the samples fill about
/// 2 s, and prints min / mean / max time per call over the samples.
fn bench<I>(name: &str, mut setup: impl FnMut() -> I, mut routine: impl FnMut(I)) {
    let mut time_one = || {
        let input = setup();
        let t0 = Instant::now();
        routine(black_box(input));
        t0.elapsed()
    };
    let (warm, mut est, mut n) = (Instant::now(), Duration::ZERO, 0u32);
    while warm.elapsed() < Duration::from_millis(500) || n == 0 {
        est += time_one();
        n += 1;
    }
    let budget = Duration::from_secs(2) / SAMPLES;
    let iters = (budget.as_nanos() / (est / n).as_nanos().max(1)).clamp(1, 1_000_000) as u32;
    let per_call = |total: Duration| total.as_nanos() as f64 / iters as f64;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| per_call((0..iters).map(|_| time_one()).sum()))
        .collect();
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0, f64::max);
    let fmt = |ns: f64| match ns {
        ns if ns >= 1e6 => format!("{:.4} ms", ns / 1e6),
        ns if ns >= 1e3 => format!("{:.4} µs", ns / 1e3),
        ns => format!("{ns:.2} ns"),
    };
    let (min, mean, max) = (fmt(min), fmt(mean), fmt(max));
    println!("{name:<40} time: [{min} {mean} {max}]  ({SAMPLES} samples x {iters} iters)");
}

fn filled<P: PriorityQueue>(pq: &P) {
    for k in 0..POPULATION {
        let p = if k % 7 == 0 { INFINITE } else { k % 64 };
        pq.enqueue(k, p);
    }
}

fn bench_enqueue() {
    bench(
        &format!("enqueue/two_level/{POPULATION}"),
        || TwoLevelPq::new(MAX_STEP),
        |pq| {
            for k in 0..10_000u64 {
                pq.enqueue(black_box(k), k % 64);
            }
        },
    );
    bench(
        &format!("enqueue/tree_heap/{POPULATION}"),
        TreeHeap::new,
        |pq| {
            for k in 0..10_000u64 {
                pq.enqueue(black_box(k), k % 64);
            }
        },
    );
}

fn bench_adjust() {
    let pq = TwoLevelPq::new(MAX_STEP);
    filled(&pq);
    let mut round = 0u64;
    bench(
        "adjust_priority/two_level",
        || (),
        |()| {
            round += 1;
            for k in 0..1_000u64 {
                let old = if round == 1 {
                    if k % 7 == 0 {
                        INFINITE
                    } else {
                        k % 64
                    }
                } else {
                    64 + ((round - 2 + k) % MAX_STEP.saturating_sub(64))
                };
                let new = 64 + ((round - 1 + k) % MAX_STEP.saturating_sub(64));
                pq.adjust(black_box(k), old, new);
            }
        },
    );
    let pq = TreeHeap::new();
    filled(&pq);
    let mut round = 0u64;
    bench(
        "adjust_priority/tree_heap",
        || (),
        |()| {
            round += 1;
            for k in 0..1_000u64 {
                pq.adjust(black_box(k), 0, 64 + ((round + k) % 1_000));
            }
        },
    );
}

fn bench_dequeue() {
    for (name, compressed) in [
        ("two_level_compressed", true),
        ("two_level_full_scan", false),
    ] {
        bench(
            &format!("dequeue_batch/{name}"),
            || {
                let pq = TwoLevelPq::new(MAX_STEP);
                // Sparse population across the whole step range: exactly
                // the case scan-range compression targets.
                for k in 0..4_000u64 {
                    pq.enqueue(k, (k * 23) % MAX_STEP);
                }
                pq.set_upper_bound(MAX_STEP);
                pq
            },
            |pq| {
                let mut out = Vec::with_capacity(64);
                // Compression raises the lower bound as it drains; the
                // full-scan variant resets it by reinserting low.
                while {
                    out.clear();
                    pq.dequeue_batch(64, &mut out);
                    if !compressed && !out.is_empty() {
                        // Defeat the lower-bound optimisation.
                        pq.enqueue(out[0].0, 0);
                        pq.dequeue_batch(1, &mut out);
                    }
                    !out.is_empty()
                } {}
            },
        );
    }
    bench(
        "dequeue_batch/tree_heap",
        || {
            let pq = TreeHeap::new();
            for k in 0..4_000u64 {
                pq.enqueue(k, (k * 23) % MAX_STEP);
            }
            pq
        },
        |pq| {
            let mut out = Vec::with_capacity(64);
            while {
                out.clear();
                pq.dequeue_batch(64, &mut out);
                !out.is_empty()
            } {}
        },
    );
}

fn main() {
    bench_enqueue();
    bench_adjust();
    bench_dequeue();
}
