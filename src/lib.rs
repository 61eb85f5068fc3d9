//! # frugal — reproduction of the ASPLOS '25 Frugal system
//!
//! Facade crate re-exporting every subsystem of the reproduction. See the
//! individual crates for details:
//!
//! * [`sim`] — hardware cost model (GPUs, PCIe, host memory).
//! * [`data`] — synthetic workloads and datasets.
//! * [`tensor`] — dense math substrate (MLP, optimizers, losses).
//! * [`pq`] — the two-level concurrent priority queue and its tree-heap
//!   baseline.
//! * [`embed`] — embedding tables, host parameter store, multi-GPU caches.
//! * [`core`] — the P²F algorithm, controller, flushing threads, the
//!   Frugal / Frugal-Sync training engines, and
//!   [`System`](core::System): the six systems of §4.1 (the Frugal
//!   variants and the PyTorch-, HugeCTR-, DGL-KE- and UVM-like
//!   comparators), each run or priced from one configuration.
//! * [`models`] — DLRM and the knowledge-graph scorers.
//! * [`telemetry`] — dependency-free metrics, phase spans, and Chrome-trace
//!   export for all of the above.

#![warn(missing_docs)]

pub use frugal_core as core;
pub use frugal_data as data;
pub use frugal_embed as embed;
pub use frugal_models as models;
pub use frugal_pq as pq;
pub use frugal_sim as sim;
pub use frugal_telemetry as telemetry;
pub use frugal_tensor as tensor;
