//! The steady-state cache fill path must be allocation-free: once a
//! `GpuCache` has reached capacity and its policy's side structures have
//! seen the working set, sustained miss→fill→evict churn may not allocate.
//! The engine runs this loop on every trainer every step, so a hidden
//! `Vec`/`HashMap` growth here is a per-step tax (and the exact regression
//! the flat-arena rewrite removed: the old `insert(key, slot.to_vec())`
//! call allocated one `Vec` per fill).
//!
//! Own test binary so the `#[global_allocator]` swap cannot perturb other
//! suites.

use frugal_embed::{CachePolicy, GpuCache, InsertOutcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A pass-through allocator that counts allocations per thread: the test
/// runner executes sibling tests (and its own bookkeeping) on other threads
/// of this process, and their allocations are not the measured loop's.
struct CountingAlloc;

thread_local! {
    /// Const-initialised and `Drop`-free, so touching it from inside the
    /// allocator neither allocates nor registers a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator still runs while a thread's locals are
        // being torn down.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DIM: usize = 16;
const CAP: usize = 64;
const UNIVERSE: u64 = 256;

/// One churn pass: a strided walk over a fixed key universe 4× the cache
/// capacity — every round misses, fills, and (at capacity) evicts.
/// Returns the number of accepted fills so the work cannot be optimized
/// away.
fn churn(cache: &mut GpuCache, row: &[f32], rounds: u64) -> u64 {
    let mut filled = 0u64;
    for r in 0..rounds {
        for i in 0..UNIVERSE {
            let key = (i * 7 + r) % UNIVERSE;
            if cache.get(&key).is_some() {
                continue;
            }
            if cache.admits(key)
                && !matches!(cache.insert_from_slice(key, row), InsertOutcome::Rejected)
            {
                filled += 1;
            }
        }
    }
    filled
}

#[test]
fn steady_state_fill_loop_never_allocates() {
    let row = vec![1.0f32; DIM];
    for policy in [
        CachePolicy::StaticHot,
        CachePolicy::Lru,
        CachePolicy::FrequencyAware,
    ] {
        let mut cache = GpuCache::new(CAP, DIM, policy);
        cache.set_hot_threshold(CAP as u64);
        // Warm-up: reach capacity and let the policy's side structures
        // (recency list, frequency table) grow to their working-set
        // footprint. Enough rounds that the frequency policy also crosses
        // several decay boundaries before measurement starts.
        churn(&mut cache, &row, 8);
        // Footprint spike: walk a batch of cold keys so the frequency
        // table resizes to its terminal capacity *now*. A table the
        // universe fits snugly (above half its usable capacity) defers
        // exactly one tombstone-triggered resize to whenever erase/insert
        // churn next crosses its load threshold — a moment that depends on
        // the per-process hash seed and would otherwise land in the
        // measured region on some runs.
        for k in 0..10 * UNIVERSE {
            let _ = cache.get(&(UNIVERSE + k));
        }
        churn(&mut cache, &row, 4);
        let before = allocs();
        let filled = churn(&mut cache, &row, 16);
        let after = allocs();
        std::hint::black_box(filled);
        assert_eq!(
            after - before,
            0,
            "{policy:?} allocated during steady-state churn ({filled} fills)"
        );
    }
}

#[test]
fn stateful_fills_and_updates_allocate_nothing_and_memory_is_capacity_bound() {
    // A slot is the row *and* its optimizer state: filling a (stolen) slot
    // writes both in place, updating a cached row reaches both with one
    // probe, and neither path owns any per-key storage outside the arenas
    // — so 10 000 evicting fills over 10 000 distinct keys cost zero
    // allocations and leave the cache's footprint exactly where it was.
    let host_row = vec![1.0f32; DIM];
    let host_state = vec![0.25f32; DIM];
    let grad = vec![0.5f32; DIM];
    let mut cache = GpuCache::new(CAP, DIM, CachePolicy::Lru).with_state_width(DIM);
    let fill = |cache: &mut GpuCache, key: u64| {
        cache.fill_with_state(key, |row, state| {
            row.copy_from_slice(&host_row);
            state.copy_from_slice(&host_state);
        })
    };
    // Warm-up: reach capacity, then churn enough that the key→slot map's
    // deferred tombstone rehash (see the churn test) is behind us.
    for key in 0..16 * CAP as u64 {
        fill(&mut cache, key);
    }
    let resident = cache.resident_bytes();
    assert!(resident >= CAP * 2 * DIM * 4, "rows + state are counted");
    let before = allocs();
    let mut evictions = 0u64;
    for key in 100_000..110_000u64 {
        if matches!(fill(&mut cache, key), InsertOutcome::Evicted(_)) {
            evictions += 1;
        }
        let (row, state) = cache.get_with_state(&key).expect("just filled");
        for ((p, a), g) in row.iter_mut().zip(state.iter_mut()).zip(&grad) {
            *a += g * g;
            *p -= g / a.sqrt();
        }
    }
    let after = allocs();
    assert_eq!(evictions, 10_000, "every fill must steal a slot");
    assert_eq!(after - before, 0, "stateful fill/update path allocated");
    assert_eq!(cache.resident_bytes(), resident, "footprint moved");
    assert_eq!(cache.len(), CAP);
}
