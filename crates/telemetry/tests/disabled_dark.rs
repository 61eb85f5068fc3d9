//! The disabled telemetry path must be *dark*: a `Telemetry::off()`
//! handle's hot-path operations — phase spans, retroactive records, stall
//! filing — may allocate nothing and must cost at most a
//! few branches each. The engine calls these on every step of every
//! trainer and flusher, so any hidden cost here taxes un-instrumented
//! runs.

use frugal_telemetry::{LaneKind, LedgerPhase, StallRecord, Telemetry, ThreadRecorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

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

const ITERS: u64 = 100_000;
/// The timed test's batches, and rounds a batch.
const BATCHES: u64 = 20;
const BATCH_ROUNDS: u64 = 5_000;

/// One round of every disabled hot-path operation the engine performs
/// per step. Returns a value the optimizer cannot discard.
fn hot_ops(telemetry: &Telemetry, rec: &mut ThreadRecorder, start: Instant, i: u64) -> u64 {
    let barrier = rec.span(i, LedgerPhase::BarrierA); // disabled: no clock read
    drop(barrier);
    let compute = rec
        .span_with(i, LedgerPhase::Compute, &[("rows", i)])
        .finish();
    rec.record(rec.current_step(), LedgerPhase::FlushApply, start, 7, &[]);
    telemetry.ledger_advance(i);
    telemetry.record_stall(StallRecord {
        step: i,
        wait_ns: 1,
        blocking_priority: i + 1,
        pending_keys: 1,
        queue_depth: 3,
        blocking_key: Some(9),
    });
    rec.current_step() + compute
}

#[test]
fn disabled_hot_path_never_allocates() {
    let telemetry = Telemetry::off();
    // Setup outside the measured region (the disabled constructors are
    // allocation-free too, but that is not what this test pins down).
    let mut rec = telemetry.recorder("dark", LaneKind::Trainer);
    assert!(!rec.is_enabled());
    let start = Instant::now();

    let before = allocs();
    let mut sink = 0u64;
    for i in 0..ITERS {
        sink = sink.wrapping_add(hot_ops(&telemetry, &mut rec, start, i));
    }
    std::hint::black_box(sink);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "disabled telemetry allocated on the hot path"
    );
}

#[test]
fn disabled_hot_path_is_cheap() {
    let telemetry = Telemetry::off();
    let mut rec = telemetry.recorder("dark", LaneKind::Trainer);
    let start = Instant::now();

    // Warm up, then time `BATCHES` batches and bound the fastest round.
    // The minimum is the path's own cost; a mean also carries whatever
    // preemption a loaded host adds. The bound is deliberately loose (100
    // ns per full round of ~7 disabled calls, i.e. far under 1% of a ~500
    // µs engine step even if every call sat on the critical path) while
    // still catching an accidental clock read or lock acquisition sneaking
    // into the disabled path.
    let mut sink = 0u64;
    for i in 0..1_000 {
        sink = sink.wrapping_add(hot_ops(&telemetry, &mut rec, start, i));
    }
    let mut fastest = u64::MAX;
    for batch in 0..BATCHES {
        let t0 = Instant::now();
        for i in 0..BATCH_ROUNDS {
            let step = batch * BATCH_ROUNDS + i;
            sink = sink.wrapping_add(hot_ops(&telemetry, &mut rec, start, step));
        }
        fastest = fastest.min(t0.elapsed().as_nanos() as u64 / BATCH_ROUNDS);
    }
    std::hint::black_box(sink);
    assert!(
        fastest < 100,
        "fastest disabled hot-path round took {fastest} ns (expected branch-only cost)"
    );
}

#[test]
fn disabled_span_recording_is_inert() {
    let telemetry = Telemetry::off();
    let mut rec = telemetry.recorder("dark", LaneKind::Flusher);
    let t = Instant::now();
    let before = allocs();
    // A finished span returns the elapsed time it recorded; a disabled
    // recorder returns 0 without touching the clock, the ledger or any
    // buffer, and a retroactive record is dropped the same way.
    let span = rec.span_with(3, LedgerPhase::Compute, &[("rows", 3)]);
    assert_eq!(span.finish(), 0);
    rec.record(
        rec.current_step(),
        LedgerPhase::FlushApply,
        t,
        5,
        &[("rows", 3)],
    );
    assert_eq!(rec.current_step(), 0);
    assert_eq!(allocs() - before, 0);
}
