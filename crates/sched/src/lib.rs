//! # frugal-sched — deterministic schedule exploration for the P²F core
//!
//! The paper's correctness story rests on invariant (2) of §3.3: at step
//! `s` no g-entry has `W ≠ ∅ ∧ s ∈ R`. The structures enforcing it
//! ([`TwoLevelPq`], `LockFreeSet`, the wait-condition path) are lock-free,
//! and the bugs they can have are *schedule-dependent*: a particular
//! interleaving of a handful of atomic operations. Stress loops hit such
//! interleavings by luck; this crate hits them by **enumeration**.
//!
//! The harness is a "loom-lite": no dependencies, no replacement atomics.
//! Code under test is instrumented with explicit yield points
//! ([`yield_point`], and [`spin_point`] on the back-edge of a spin-wait;
//! cfg-gated behind each crate's `sched` feature), and a
//! scenario's threads run as *virtual threads* — real OS threads of which
//! exactly **one** is runnable at any instant. Every scheduling decision
//! comes from a seeded deterministic policy, so
//!
//! * a run is fully determined by its seed (same seed ⇒ same interleaving
//!   ⇒ same outcome), and
//! * a violation found by [`explore`] is replayed exactly by
//!   [`replay`] with the printed seed.
//!
//! Two policies are provided: uniform random walk over runnable threads,
//! and PCT-style priority scheduling with `d` change points (probabilistic
//! concurrency testing — good at low-depth ordering bugs with few
//! schedules).
//!
//! ```
//! use frugal_sched::{explore, ExploreConfig, SimBuilder};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! // A lost-update race: two threads read-modify-write non-atomically.
//! let outcome = explore(&ExploreConfig::default(), |sim: &mut SimBuilder| {
//!     let cell = Arc::new(AtomicU64::new(0));
//!     for name in ["a", "b"] {
//!         let cell = Arc::clone(&cell);
//!         sim.thread(name, move || {
//!             let v = cell.load(Ordering::SeqCst);
//!             frugal_sched::yield_point("between load and store");
//!             cell.store(v + 1, Ordering::SeqCst);
//!         });
//!     }
//!     let cell = Arc::clone(&cell);
//!     sim.check("no lost update", move || {
//!         assert_eq!(cell.load(Ordering::SeqCst), 2, "lost update");
//!     });
//! });
//! let failure = outcome.failure.expect("the race must be found");
//! assert!(failure.failures[0].message.contains("lost update"));
//! ```
//!
//! [`TwoLevelPq`]: ../frugal_pq/struct.TwoLevelPq.html

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod explore;
mod rng;
mod sim;

pub use explore::{explore, replay, ExploreConfig, ExploreOutcome};
pub use rng::SplitMix64;
pub use sim::{
    run_schedule, spin_point, yield_point, Policy, RunOutcome, SimBuilder, SimConfig,
    ThreadFailure, TraceEvent,
};
