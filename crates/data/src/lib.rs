//! # frugal-data — workloads and datasets for the Frugal reproduction
//!
//! Provides everything the paper's evaluation (§4.1) trains on:
//!
//! * [`KeyDistribution`]/[`Zipf`] — the microbenchmark's uniform and
//!   Zipfian (0.9 / 0.99) key generators.
//! * [`SyntheticTrace`] — the embedding-only microbenchmark workload.
//! * [`RecDatasetSpec`]/[`RecTrace`] — Avazu/Criteo/CriteoTB-shaped CTR
//!   workloads for DLRM (paper Table 2), with learnable synthetic labels.
//! * [`KgDatasetSpec`]/[`KgTrace`] — FB15k/Freebase/WikiKG-shaped triples
//!   with negative sampling for the knowledge-graph models.
//! * [`par::fill_chunks`] — fills a set-up table (the host store's initial
//!   rows, the alias sampler's weights) on every core.
//!
//! All traces are deterministic functions of `(seed, step, gpu)`, which is
//! what lets Frugal's controller prefetch future steps' keys (the sample
//! queue of §3.2) and lets tests compare engines on identical batches.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod datasets;
pub mod hash;
pub mod par;
mod trace;
mod zipf;

pub use datasets::{KgDatasetSpec, RecDatasetSpec};
pub use hash::{KeyBuildHasher, KeyHashMap, KeyHashSet, KeyHasher};
pub use trace::{latent_weight, Key, KgBatch, KgTrace, RecBatch, RecTrace, SyntheticTrace};
pub use zipf::{DistError, KeyDistribution, KeySampler, Zipf, ZipfAlias, ALIAS_TABLE_MAX};
