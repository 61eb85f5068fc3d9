//! # frugal-sim — hardware substrate for the Frugal reproduction
//!
//! The Frugal paper (ASPLOS '25) evaluates an embedding-model training
//! runtime on servers full of commodity GPUs. This crate replaces that
//! hardware with a deterministic, calibrated cost model:
//!
//! * [`GpuSpec`] — device presets (RTX 3090/4090, A30, A100) including the
//!   capability flags the paper's argument rests on (PCIe P2P, UVA scope).
//! * [`Topology`] — a server of `n` identical GPUs behind one root complex.
//! * [`CostModel`] — latencies for every hardware operation a training
//!   engine performs: all_to_all collectives (P2P vs host-bounced),
//!   host-memory access (CPU-involved vs UVA vs UVM paging), GPU cache
//!   kernels, and DNN compute.
//! * [`IterBreakdown`]/[`RunStats`] — the per-iteration time decomposition
//!   used by the paper's Figures 3c and 12, and throughput accounting.
//!
//! Simulated time is a distinct type, [`Nanos`], so modeled hardware time
//! can never silently mix with measured wall-clock software time.
//!
//! # Examples
//!
//! ```
//! use frugal_sim::{CostModel, HostPath, Topology};
//!
//! // Compare the cache-miss path of the two GPU classes.
//! let commodity = CostModel::new(Topology::commodity(4));
//! let cpu = commodity.host_read(HostPath::CpuInvolved, 2048, 128, 1);
//! let uva = commodity.host_read(HostPath::Uva, 2048, 128, 1);
//! assert!(cpu.as_secs_f64() / uva.as_secs_f64() > 3.0); // paper Fig 10
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod breakdown;
mod cost;
mod gpu;
mod time;
mod topology;

pub use breakdown::{IterBreakdown, RunStats};
pub use cost::{CostModel, CostParams, HostPath, PqCost};
pub use gpu::{GpuClass, GpuSpec};
pub use time::Nanos;
pub use topology::{HostSpec, Topology, TopologyError};
