//! One function per table/figure of the paper's evaluation.
//!
//! Every function returns [`ExpTable`](crate::table::ExpTable)s whose rows
//! mirror the paper's
//! x-axis and series, with notes recording the scale substitutions (smaller
//! key spaces, fewer steps) made to fit this host. `cargo bench` runs them
//! all; EXPERIMENTS.md records paper-vs-measured.

mod ablations;
mod micro;
mod overall;
mod sensitivity;
mod tables;
mod tech;

pub use ablations::{
    ablation_cache_policy, ablation_flush_batch, ablation_flush_strategy, ablation_lookahead,
    ablation_optimizer,
};
pub use micro::{exp1_microbenchmark, fig3_motivation};
pub use overall::{exp6_kg, exp7_rec, exp8_scalability, exp9_cost};
pub use sensitivity::{exp10_flush_threads, exp11_models};
pub use tables::{table1_gpu_specs, table2_datasets};
pub use tech::{exp2_p2f, exp3_uva, exp4_pq, exp5_breakdown};

use frugal_core::{System, TrainReport};
use frugal_telemetry::{LedgerPhase, LedgerPhaseSummary};

/// The systems the end-to-end and model-sensitivity figures (Fig 13, 14
/// and 18) compare, in column order.
const END_TO_END: [System; 3] = [System::PyTorch, System::HugeCtr, System::Frugal];

/// A table header: `first`, then one column per system, named by `label`
/// ([`System::rec_label`] or [`System::kg_label`]).
fn system_columns(
    first: &str,
    systems: &[System],
    label: fn(&System) -> &'static str,
) -> Vec<String> {
    std::iter::once(first.to_owned())
        .chain(systems.iter().map(|s| label(s).to_owned()))
        .collect()
}

/// The measured (wall-clock) per-step summary of ledger `phase` in a run
/// made with telemetry on — what experiments print next to modeled
/// columns. `None` when the run carried no telemetry.
fn measured_phase(report: &TrainReport, phase: LedgerPhase) -> Option<&LedgerPhaseSummary> {
    report.telemetry.as_ref()?.ledger.as_ref()?.phase(phase)
}

/// Global scale knobs for the experiment suite.
///
/// The paper's testbed has 8 GPUs, 64 cores, and datasets up to 882 M IDs;
/// this harness runs everything on whatever machine hosts it, so sizes are
/// scaled down. Every bench target and the `cache_ablation` bin run
/// `Scale::default()`; the unit tests run a smaller scale.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Synthetic-microbenchmark key-space size (paper: 10 M).
    pub micro_keys: u64,
    /// GPUs for non-scalability experiments (paper: 8).
    pub gpus: usize,
    /// Steps measured per configuration.
    pub steps: u64,
    /// Batch-size sweep (paper: 128..6144).
    pub batches: Vec<usize>,
    /// Cap on REC dataset ID spaces (paper: up to 882 M).
    pub rec_ids: u64,
    /// Cap on KG entity counts (paper: up to 87 M).
    pub kg_entities: u64,
    /// Per-GPU batch for KG/REC end-to-end runs.
    pub rec_batch: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            micro_keys: 1_000_000,
            gpus: 4,
            steps: 5,
            batches: vec![128, 512, 1024, 2048],
            rec_ids: 1_000_000,
            kg_entities: 120_000,
            rec_batch: 1024,
        }
    }
}

impl Scale {
    /// Note string describing the downscaling, appended to tables.
    pub fn note(&self) -> String {
        format!(
            "scaled: {} GPUs, {} keys (micro), {} steps/config; paper: 8 GPUs, 10M keys",
            self.gpus, self.micro_keys, self.steps
        )
    }
}

#[cfg(test)]
impl Scale {
    /// A very small scale for the unit tests.
    pub(crate) fn quick() -> Self {
        Scale {
            micro_keys: 20_000,
            gpus: 2,
            steps: 3,
            batches: vec![128, 512],
            rec_ids: 20_000,
            kg_entities: 5_000,
            rec_batch: 128,
        }
    }
}
