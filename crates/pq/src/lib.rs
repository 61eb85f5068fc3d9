//! # frugal-pq — the paper's two-level concurrent priority queue
//!
//! The P²F algorithm (paper §3.3) keeps one *g-entry* per parameter and
//! orders pending flushes by priority = the next training step that will
//! read the parameter. Flushing threads hammer this queue concurrently with
//! the controller adjusting priorities, so the queue's scalability decides
//! the training stall (Exp #4).
//!
//! * [`TwoLevelPq`] — the paper's design: a priority index (a ring of
//!   buckets recycled as the lookahead window advances) over lock-free key
//!   sets, O(1) enqueue/dequeue/adjust, with scan-range compression.
//! * [`TreeHeap`] — the classic binary-heap baseline with O(log N)
//!   operations and lock serialization.
//! * [`PriorityQueue`] — the trait both implement. The training engine
//!   runs neither: its queue is the same two-level shape kept inside the
//!   g-entry store's shards. These queues are what Exp #4's modeled prices
//!   describe, what the benchmark's replay registers into, and what the
//!   PQ micro-benchmarks time.
//! * [`LockFreeSet`] — the second-level lock-free hash structure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Yield-point instrumentation for the schedule-exploration harness.
///
/// With the `sched` feature this cedes control to `frugal-sched`'s
/// deterministic scheduler (a no-op outside a simulation); without it the
/// macro compiles to nothing. Placed at every shared-memory transition
/// that participates in a cross-thread protocol, so interleavings are
/// enumerable at exactly the granularity the correctness argument uses.
// Defined before the modules so it is textually in scope throughout the
// crate (legacy macro scoping) — no per-module import needed.
macro_rules! sched_point {
    ($label:expr) => {{
        #[cfg(feature = "sched")]
        frugal_sched::yield_point($label);
    }};
}

/// [`sched_point!`] for the back-edge of a spin-wait: also tells the
/// scheduler that the caller waits on another thread (see
/// `frugal_sched::spin_point`).
macro_rules! sched_spin {
    ($label:expr) => {{
        #[cfg(feature = "sched")]
        frugal_sched::spin_point($label);
    }};
}

mod lockfree_set;
mod queue;
mod treeheap;
mod two_level;

pub use lockfree_set::LockFreeSet;
pub use queue::{Priority, PriorityQueue, DEFERRED_CLAIM, INFINITE};
pub use treeheap::TreeHeap;
pub use two_level::TwoLevelPq;
