//! # frugal-core — the paper's contribution: P²F and the Frugal engine
//!
//! Implements §3 of *Frugal: Efficient and Economic Embedding Model
//! Training with Commodity GPUs* (ASPLOS '25):
//!
//! * [`GEntryStore`] — per-parameter metadata (R/W sets, Equation-1
//!   priorities) and, in its shards, the flush queue that orders them.
//! * [`FrugalEngine`] — the multi-threaded training runtime: training
//!   processes, the controller's sample-queue prefetch, update
//!   registration, background flushing threads, and the P²F wait
//!   condition. Also runs the write-through **Frugal-Sync** baseline.
//! * [`ShardMap`] — epoch-versioned shard → trainer ownership; the single
//!   partition behind the reduce, cache locality, and registration
//!   routing, republished at quiesced boundaries for elastic membership.
//! * [`train_serial`] — the synchronous-consistency oracle: a Frugal run
//!   must be bit-identical to this single-threaded reference.
//! * [`System`] — the six systems of §4.1 (Frugal, Frugal-Sync,
//!   Frugal-FIFO and the PyTorch-, HugeCTR- and UVM-like comparators) and
//!   the one runner: [`System::run`] trains a run, and [`System::price`]
//!   prices it by the key-stream walk — every system's cache decisions and
//!   modeled clock from the keys alone, no threads and no numerics. The
//!   engine's count records must equal the walk's ([`walk_counts`]), and
//!   [`belady_hit_ratio`] bounds what any cache policy could hit.
//! * [`Workload`] / [`EmbeddingModel`] — the seams through which datasets
//!   (`frugal-data`) and models (`frugal-models`) plug in;
//!   [`PullToTarget`] is the embedding-only microbenchmark model.

#![warn(missing_docs)]

// Yield-point hook for the schedule-exploration harness; compiles to
// nothing without the `sched` feature. Defined before the modules so it is
// textually in scope throughout the crate.
macro_rules! sched_point {
    ($label:expr) => {{
        #[cfg(feature = "sched")]
        frugal_sched::yield_point($label);
        // Consume the label so computed-label call sites stay
        // warning-free in non-`sched` builds.
        #[cfg(not(feature = "sched"))]
        let _ = $label;
    }};
}

mod config;
mod engine;
mod gentry;
mod member;
mod model;
mod plan;
pub mod presets;
mod price;
mod report;
mod serial;
mod shardmap;
mod systems;
mod wait;
mod walk;
mod workload;

pub use config::{
    ConfigError, FlushMode, FrugalConfig, MembershipChange, MembershipPlan, OptimizerKind, PqKind,
};
pub use engine::FrugalEngine;
pub use gentry::{GEntryStore, PendingWrites, PqOpScratch, PriorityPolicy, READ_WINDOW};
pub use model::{BatchGrads, EmbeddingModel, PullToTarget};
pub use price::RunCounts;
pub use report::{ModeledRun, TrainReport};
pub use serial::{train_serial, train_serial_with, SerialRun};
pub use shardmap::ShardMap;
pub use systems::System;
pub use wait::{blocked_at, pending_floor, InflightTable};
pub use walk::{belady_hit_ratio, walk_counts};
pub use workload::Workload;
