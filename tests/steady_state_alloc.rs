//! The steady-state step allocates only what it hands to someone else: the
//! workload's sampled key `Vec`s, the model's `BatchGrads` (a constant per
//! step), and a gradient row's `Arc` only where the row it would recycle —
//! the same position of the member's update slot of two steps before — is
//! still held by a g-entry that has not been flushed. The reduce folds the
//! deposits straight into that slot's rows and recycles every other row in
//! place as it goes (`ArcFold`), and registration shares each row with its
//! g-entry without staging it anywhere, so
//!
//! * under write-through, where nothing outlives the step, the count is the
//!   constant — the updated rows are not in the budget at all;
//! * under P²F it is the constant plus the rows the flusher has not landed
//!   yet — one `Arc` each, a few per cent of the updated rows — and it does
//!   not grow.
//!
//! The P²F metadata path — priority-queue buckets, g-entry tables, the
//! flusher's dequeue and claim scratch — allocates nothing once warm: the
//! queue's bucket ring is recycled as the lookahead window advances, a
//! dequeue writes straight into the caller's batch, and the g-entry tables
//! rehash only when their *live* count outgrows them.
//!
//! The cache is part of that path: a fill seeds the slot's row and its
//! optimizer state in place, so a stateful optimizer under an evicting
//! cache meets the same budget as stateless SGD.
//!
//! Own test binary whose tests take turns (`TURN`): the counter is
//! process-global, because the engine spawns its trainer and flusher
//! threads itself.

use frugal::core::{
    BatchGrads, EmbeddingModel, FlushMode, FrugalConfig, FrugalEngine, OptimizerKind, PullToTarget,
};
use frugal::data::{Key, KeyDistribution, SyntheticTrace};
use frugal::embed::CachePolicy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Held by the test that is counting.
static TURN: Mutex<()> = Mutex::new(());

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

/// The per-step constant: two key lists, two `BatchGrads` and the sample
/// ring's bookkeeping — not a segment per priority or a rebuilt table.
/// Measured: 16.4–16.7.
const PER_STEP: u64 = 32;

/// The share of a step's updated rows a P²F step may allocate anew on top
/// of [`PER_STEP`]: rows whose predecessor in the update slot the flusher
/// has not landed by the reduce that recycles it, two steps later.
/// Measured: 0–0.6 % (16.5–19.4 allocations a step in all, nearly always
/// 16.5–16.7); the budget leaves room for a flusher that loses the CPU for
/// a couple of dozen steps of the last third, and none for a per-call
/// scratch anywhere on the dequeue → claim → apply path (when each dequeue
/// grew a fresh `Vec`, these runs made 35–36 a step).
const UNFLUSHED_ROW_SHARE: u64 = 16;

/// Runs `cfg` for [`STEPS`] steps and checks the allocation budget over the
/// run's last third, and that it did not grow since the middle third.
/// `rows_in_budget`: whether the step may allocate an `Arc` for one in
/// [`UNFLUSHED_ROW_SHARE`] of its updated rows on top of [`PER_STEP`].
fn assert_steady_state(name: &str, mut cfg: FrugalConfig, rows_in_budget: bool) {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
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
    let proactive = cfg.flush_mode.proactive();
    let engine = FrugalEngine::new(cfg, N_KEYS, DIM);
    let report = engine.run(&trace, &model);
    assert_eq!(report.flush_rows > 0, proactive);

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
         {:.1} cache fills/step; at least {:.1} % of the last third's rows recycled",
        a_mid as f64 / third as f64,
        r_mid as f64 / third as f64,
        a_last as f64 / third as f64,
        r_last as f64 / third as f64,
        report.cache_fills as f64 / STEPS as f64,
        100.0 * (1.0 - a_last.min(r_last) as f64 / r_last as f64),
    );
    let unflushed = if rows_in_budget {
        r_last / UNFLUSHED_ROW_SHARE
    } else {
        0
    };
    let budget = PER_STEP * last.count() as u64 + unflushed;
    assert!(
        a_last <= budget,
        "{name}: last third allocated {a_last} times; the budget allows {budget}"
    );
    // No trend. One-sided, and measured against the rows: how many of them
    // are recycled moves with how far the flusher has drained, so the count
    // may well fall, and what is left of it is small next to its own noise.
    let growth = a_last as f64 - a_mid as f64;
    assert!(
        growth < 0.02 * r_last as f64,
        "{name}: allocations grew by {growth} ({:.1} % of the rows) from the middle to the \
         last third",
        100.0 * growth / r_last as f64
    );
}

#[test]
fn steady_state_p2f_step_allocates_only_its_named_remainder() {
    assert_steady_state("sgd/static-hot", FrugalConfig::commodity(2, STEPS), true);

    // A stateful optimizer under a cache that evicts every step: each
    // trainer owns ~250 of a step's ~505 unique keys and caches 100 rows,
    // so every step refills the whole cache more than twice over (252
    // fills per step). What this pins: a fill writes the row *and* its
    // Adagrad accumulator into the (stolen) slot and allocates nothing.
    // When the accumulators lived in a per-trainer map beside the cache,
    // every fill allocated a state `Vec` to seed it — this run then made
    // 775.5 allocations per step against 524.0 for the one above, 187 over
    // the budget.
    let mut cfg = FrugalConfig::commodity(2, STEPS);
    cfg.cache_policy = CachePolicy::Lru;
    cfg.optimizer = OptimizerKind::Adagrad;
    cfg.cache_ratio = 0.01;
    assert_steady_state("adagrad/lru", cfg, true);
}

#[test]
fn steady_state_write_through_step_allocates_a_constant() {
    // Nothing holds a gradient row past its step, so every row of the
    // update slot is overwritten in place: ~506 updated rows a step, none
    // of them in the budget. (One `Arc` per row put this at ≈ 520.)
    let mut cfg = FrugalConfig::commodity(2, STEPS);
    cfg.flush_mode = FlushMode::WriteThrough;
    assert_steady_state("write-through", cfg, false);
}
