//! The steady-state P²F step allocates only what it names: one
//! `Arc<[f32]>` per updated row, the workload's sampled key `Vec`s and the
//! model's `BatchGrads` (all three are ROADMAP item 2a's remainder). The
//! P²F metadata path — priority-queue buckets, g-entry tables, the
//! flusher's claim scratch — allocates nothing once warm: the queue's
//! bucket ring is recycled as the lookahead window advances, and the
//! g-entry tables rehash only when their *live* count outgrows them.
//!
//! The cache is part of that path: a fill seeds the slot's row and its
//! optimizer state in place, so a stateful optimizer under an evicting
//! cache meets the same budget as stateless SGD.
//!
//! Own test binary with a single `#[test]` (configurations run back to
//! back): the counter is process-global, because the engine spawns its
//! trainer and flusher threads itself.

use frugal::core::{
    BatchGrads, EmbeddingModel, FrugalConfig, FrugalEngine, OptimizerKind, PullToTarget,
};
use frugal::data::{Key, KeyDistribution, SyntheticTrace};
use frugal::embed::CachePolicy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts allocations (and reallocations,
/// which come through `alloc` by `GlobalAlloc`'s default `realloc`).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const STEPS: u64 = 900;
const N_KEYS: u64 = 20_000;
const BATCH: usize = 256;
const DIM: usize = 8;

/// `PullToTarget`, stamping the process's allocation count at the end of
/// every step (`end_step` runs once per step, on the barrier-A leader) into
/// a vector sized up front.
struct Stamping {
    inner: PullToTarget,
    at_step_end: Vec<AtomicU64>,
}

impl EmbeddingModel for Stamping {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn forward_backward(&self, gpu: usize, step: u64, keys: &[Key], rows: &[f32]) -> BatchGrads {
        self.inner.forward_backward(gpu, step, keys, rows)
    }

    fn end_step(&self, step: u64) {
        self.at_step_end[step as usize].store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Runs `cfg` for [`STEPS`] steps and checks the allocation budget over the
/// run's last third against its middle third.
fn assert_steady_state(name: &str, mut cfg: FrugalConfig) {
    // Uniform keys over a space 40× the step's footprint: most rows are
    // written once and deferred (the ∞ bucket), some are read again inside
    // the lookahead (finite buckets, adjusts), and the g-entry tables churn
    // at a constant live count — every P²F metadata path is live.
    let trace = SyntheticTrace::new(N_KEYS, KeyDistribution::Uniform, BATCH, 2, 11).unwrap();
    let model = Stamping {
        inner: PullToTarget::new(DIM, 3),
        at_step_end: (0..STEPS).map(|_| AtomicU64::new(0)).collect(),
    };
    cfg.flush_threads = 1;
    let engine = FrugalEngine::new(cfg, N_KEYS, DIM);
    let report = engine.run(&trace, &model);
    assert!(report.flush_rows > 0);

    // Updated rows of a span of steps: unique keys per step, both streams.
    let rows = |steps: std::ops::Range<u64>| -> u64 {
        steps
            .map(|s| {
                let unique: HashSet<Key> = (0..2).flat_map(|g| trace.gpu_keys(s, g)).collect();
                unique.len() as u64
            })
            .sum()
    };
    // `end_step(s)` stamps before step s's reduce and registration, so a
    // span of stamps covers whole step periods all the same.
    let allocs = |steps: std::ops::Range<u64>| -> u64 {
        let at = |s: u64| model.at_step_end[s as usize].load(Ordering::Relaxed);
        at(steps.end - 1) - at(steps.start - 1)
    };
    let third = STEPS / 3;
    let middle = third..2 * third;
    let last = 2 * third..STEPS;
    let (a_mid, a_last) = (allocs(middle.clone()), allocs(last.clone()));
    let (r_mid, r_last) = (rows(middle), rows(last.clone()));
    eprintln!(
        "{name}: allocations/step: middle third {:.1} ({:.1} rows), last third {:.1} ({:.1} rows), \
         {:.1} cache fills/step",
        a_mid as f64 / third as f64,
        r_mid as f64 / third as f64,
        a_last as f64 / third as f64,
        r_last as f64 / third as f64,
        report.cache_fills as f64 / STEPS as f64,
    );
    // No trend: what is left scales with the rows, which do not drift.
    let drift = (a_last as f64 - a_mid as f64).abs() / a_mid as f64;
    assert!(
        drift < 0.02,
        "{name}: allocations drifted {:.1} % between the middle and the last third",
        drift * 100.0
    );
    // And what is left is the named remainder: a per-row `Arc`, plus a
    // constant for the two key lists, the two `BatchGrads` and the sample
    // ring's bookkeeping — not a segment per priority or a rebuilt table.
    let budget = r_last + 64 * last.count() as u64;
    assert!(
        a_last <= budget,
        "{name}: last third allocated {a_last} times; rows + 64 per step allows {budget}"
    );
}

#[test]
fn steady_state_p2f_step_allocates_only_its_named_remainder() {
    assert_steady_state("sgd/static-hot", FrugalConfig::commodity(2, STEPS));

    // A stateful optimizer under a cache that evicts every step: each
    // trainer owns ~250 of a step's ~505 unique keys and caches 100 rows,
    // so every step refills the whole cache more than twice over (252
    // fills per step). What this pins: a fill writes the row *and* its
    // Adagrad accumulator into the (stolen) slot and allocates nothing.
    // When the accumulators lived in a per-trainer map beside the cache,
    // every fill allocated a state `Vec` to seed it — this run then made
    // 775.5 allocations per step against 524.0 for the one above, 187 over
    // the budget.
    let mut cfg = FrugalConfig::commodity(2, STEPS).with_cache_policy(CachePolicy::Lru);
    cfg.optimizer = OptimizerKind::Adagrad;
    cfg.cache_ratio = 0.01;
    assert_steady_state("adagrad/lru", cfg);
}
