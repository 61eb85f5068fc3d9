//! # frugal-baselines — the paper's comparator systems
//!
//! The systems Frugal is evaluated against (paper §4.1), priced on the
//! same substrate (`frugal-sim` hardware model, `frugal-embed` caches,
//! `frugal-core` model/workload seams and shard map) so the comparison
//! isolates the *architecture*, exactly as the paper did by
//! re-implementing HugeCTR's multi-GPU cache inside PyTorch:
//!
//! * **PyTorch / DGL-KE** — no GPU cache, CPU-involved host access.
//! * **HugeCTR / DGL-KE-cached** — sharded multi-GPU cache with
//!   `all_to_all` exchange (Fig 2b).
//! * **PyTorch-UVM** — unified-memory paging.
//!
//! All three train synchronously, so a baseline run is the serial
//! oracle's run ([`frugal_core::train_serial`]) plus [`System::price`]:
//! the key-stream walk ([`frugal_core::price`]) that decides the caches'
//! hits and fills and prices each step.
//!
//! A run is a [`System`] plus a [`FrugalConfig`](frugal_core::FrugalConfig):
//! [`System::run`] trains the six systems of §4.1 — these three and the
//! Frugal variants — from the same configuration, and [`System::price`]
//! returns the modeled part of that run's report from the walk alone.

#![warn(missing_docs)]

mod engine;
mod systems;

pub use systems::System;
