//! # frugal-baselines — the paper's comparator systems
//!
//! Re-implementations of the systems Frugal is evaluated against
//! (paper §4.1), built on the same substrate (`frugal-sim` hardware model,
//! `frugal-embed` storage, `frugal-core` model/workload seams) so the
//! comparison isolates the *architecture*, exactly as the paper did by
//! re-implementing HugeCTR's multi-GPU cache inside PyTorch:
//!
//! * **PyTorch / DGL-KE** — no GPU cache, CPU-involved host access.
//! * **HugeCTR / DGL-KE-cached** — sharded multi-GPU cache with
//!   `all_to_all` exchange (Fig 2b).
//! * **PyTorch-UVM** — unified-memory paging.
//!
//! A run is a [`System`] plus a [`FrugalConfig`](frugal_core::FrugalConfig):
//! [`System::run`] trains the six systems of §4.1 — these three and the
//! Frugal variants — from the same configuration.

#![warn(missing_docs)]

mod engine;
mod systems;

pub use engine::BaselineEngine;
pub use systems::System;
