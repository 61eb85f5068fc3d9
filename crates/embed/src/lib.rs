//! # frugal-embed — embedding storage substrate
//!
//! The embedding layer dominates embedding-model training (paper §2.1:
//! "over 60% time" in production models). This crate provides its storage:
//!
//! * [`HostStore`] — the complete parameter set in host memory, shared by
//!   all training processes and the flushing threads, with an optional
//!   seqlock *checked mode* that detects consistency violations.
//! * [`GpuCache`] — a per-GPU hot-row cache: flat slot arenas (a row and
//!   its optimizer state per slot) with the admission/eviction strategy
//!   behind the [`EvictionPolicy`] trait (StaticHot, LRU, frequency-aware);
//!   [`belady_hits`] is the offline bound they are judged against.
//! * [`Sharding`] — cohort-wide cache-capacity and admission-threshold
//!   math (key → owner routing lives in `frugal-core`'s `ShardMap`).
//! * [`UpdateRule`] ([`SgdRule`], [`AdagradRule`]) — thread-safe optimizer
//!   rules: one update kernel the flushing threads apply to the host store
//!   (dense lock-free per-row state in a [`DenseStateTable`]) and the
//!   trainers apply to their cached rows (state in the cache slot).
//! * [`kernels`] — auto-vectorizable elementwise row kernels every hot
//!   per-row loop (optimizer steps, gradient accumulation, row copies)
//!   routes through.
//! * [`GradAggregator`] — canonical-order per-key gradient summation for
//!   bitwise-reproducible synchronous updates; [`ArcFold`] is the same sum
//!   folded straight into recycled shared rows (the engine's reduce).
//! * [`apply_claims`] / [`apply_updates`] — the flush-apply entry points:
//!   every path that moves pending updates into the [`HostStore`]
//!   (background flushers, the write-through leader) goes through here.
//! * [`save_checkpoint`]/[`load_checkpoint`] — framed binary checkpoints of
//!   the parameter store.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod agg;
mod cache;
mod checkpoint;
mod flush;
pub mod kernels;
pub mod policy;
mod rule;
mod shard;
mod state;
mod store;

pub use agg::{ArcFold, GradAggregator};
pub use cache::{CachePolicy, GpuCache, InsertOutcome, Slot};
pub use checkpoint::{load_checkpoint, save_checkpoint, CheckpointError};
pub use flush::{apply_claims, apply_updates, FlushClaim};
pub use policy::{belady_hits, EvictionPolicy};
pub use rule::{AdagradRule, SgdRule, UpdateRule};
pub use shard::Sharding;
pub use state::DenseStateTable;
pub use store::{initial_value, HostStore};
