//! # frugal-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation, and the
//! ablations beyond it: [`experiments::ARTIFACTS`] names each one beside
//! its paper artifact. The package's program prints them at
//! [`experiments::Scale::default`]:
//!
//! ```sh
//! cargo run --release -p frugal-bench -- <artifact>... | all
//! ```
//!
//! The one `cargo bench` target, `pq_ops`, times the §3.4 queue operations.

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
