//! Microbenchmarks of the priority-queue operations (§3.4): enqueue /
//! adjust / dequeue on the two-level PQ vs the tree heap, plus the
//! scan-range-compression ablation the paper credits with a 28 %
//! dequeue-time reduction — and the flusher's whole batch path
//! (`flush_batch`), stage by stage, in ns per flushed row.

use frugal_core::{GEntryStore, InflightTable, PriorityPolicy};
use frugal_data::{Key, KeyDistribution, KeyHashSet, SyntheticTrace};
use frugal_embed::{apply_claims, HostStore, SgdRule};
use frugal_pq::{PriorityQueue, TreeHeap, TwoLevelPq, INFINITE};
use std::hint::black_box;
use std::sync::Arc;
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

/// Rows a flusher takes per batch, as the engine's default.
const FLUSH_BATCH: usize = 256;
/// Row width, streams, keys per stream-step and lookahead of the
/// benchmark workloads.
const DIM: usize = 32;
const STREAMS: usize = 2;
const BATCH_PER_STREAM: usize = 1024;
const LOOKAHEAD: u64 = 10;
/// Steps registered before the timed ones, and timed steps per sample.
const WARM_STEPS: u64 = 20;
const FLUSH_STEPS: u64 = 100;

/// The flusher's batch path, one registered step at a time: register step
/// `s + L`'s reads and step `s`'s writes into the g-entry store's shard
/// queue (shard-grouped, as the trainers do), then drain it as one flusher
/// does — `mark_lowest` → `claim_marked` of [`FLUSH_BATCH`] keys →
/// `apply_claims` — timing each stage. Prints each stage's ns per flushed
/// row, min / mean / max over [`SAMPLES`] samples of [`FLUSH_STEPS`]
/// steps.
fn bench_flush_batch(shape: &str, n_keys: u64, dist: KeyDistribution) {
    let trace = SyntheticTrace::new(n_keys, dist, BATCH_PER_STREAM, STREAMS, 7).unwrap();
    let store = HostStore::new(n_keys, DIM, 7);
    let rule = SgdRule::new(0.01);
    let steps = WARM_STEPS + FLUSH_STEPS * SAMPLES as u64;
    let gstore = GEntryStore::with_queue(PriorityPolicy::EarliestRead, LOOKAHEAD + 2);
    let inflight = InflightTable::new(1);
    let grad: Arc<[f32]> = vec![1e-3; DIM].into();
    // A step's distinct keys, grouped by shard.
    let mut seen = KeyHashSet::default();
    let mut step_keys = |s: u64| -> Vec<Key> {
        seen.clear();
        let unique: Vec<Key> = (0..STREAMS)
            .flat_map(|g| trace.gpu_keys(s, g))
            .filter(|&k| seen.insert(k))
            .collect();
        let mut grouped = Vec::new();
        GEntryStore::group_by_shard(unique.iter().copied(), |&k| k, &mut grouped);
        grouped
    };
    for s in 0..LOOKAHEAD {
        gstore.queue_reads(s, &step_keys(s));
    }
    let (mut writes, mut claims) = (Vec::new(), Vec::new());
    // Nanoseconds per stage (mark, claim, apply) and rows.
    let mut sample = ([0u64; 3], 0u64);
    let mut samples = Vec::new();
    for s in 0..steps {
        gstore.queue_reads(s + LOOKAHEAD, &step_keys(s + LOOKAHEAD));
        let rows = step_keys(s).into_iter().map(|k| (k, Arc::clone(&grad)));
        gstore.queue_writes(s, rows);
        loop {
            let t0 = Instant::now();
            inflight.open(0);
            if !gstore.mark_lowest(inflight.guard(0)) {
                inflight.clear(0);
                break;
            }
            let t1 = Instant::now();
            claims.clear();
            gstore.claim_marked(FLUSH_BATCH, inflight.guard(0), &mut writes, &mut claims);
            let t2 = Instant::now();
            let rows = apply_claims(&store, &rule, &claims, &writes);
            writes.clear();
            inflight.clear(0);
            let t3 = Instant::now();
            if s >= WARM_STEPS {
                let (ns, n) = &mut sample;
                for (stage, (a, b)) in ns.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3)]) {
                    *stage += (b - a).as_nanos() as u64;
                }
                *n += rows;
            }
        }
        if s >= WARM_STEPS && (s + 1 - WARM_STEPS).is_multiple_of(FLUSH_STEPS) {
            samples.push(std::mem::take(&mut sample));
        }
    }
    for (i, stage) in ["mark", "claim", "apply", "total"].iter().enumerate() {
        let per_row: Vec<f64> = samples
            .iter()
            .map(|(ns, rows)| ns.get(i).copied().unwrap_or(ns.iter().sum()) as f64 / *rows as f64)
            .collect();
        let mean = per_row.iter().sum::<f64>() / per_row.len() as f64;
        let min = per_row.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_row.iter().copied().fold(0.0, f64::max);
        let name = format!("flush_batch/{shape}/{stage}");
        println!("{name:<40} ns/row: [{min:.2} {mean:.2} {max:.2}]");
    }
    let rows: u64 = samples.iter().map(|(_, rows)| rows).sum();
    println!(
        "flush_batch/{shape}: {:.0} rows flushed per step, batch {FLUSH_BATCH}",
        rows as f64 / (FLUSH_STEPS * SAMPLES as u64) as f64
    );
}

fn main() {
    bench_enqueue();
    bench_adjust();
    bench_dequeue();
    bench_flush_batch("zipf", 1_000_000, KeyDistribution::Zipf(0.9));
    bench_flush_batch("cold", 2_000_000, KeyDistribution::Uniform);
}
