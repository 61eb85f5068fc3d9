//! One function per table/figure of the paper's evaluation.
//!
//! Every function returns [`ExpTable`]s whose rows
//! mirror the paper's
//! x-axis and series, with notes recording the scale substitutions (smaller
//! key spaces, fewer steps) made to fit this host. [`ARTIFACTS`] names them
//! for the `frugal-bench` program; EXPERIMENTS.md records paper-vs-measured.

mod ablations;
mod micro;
mod overall;
mod sensitivity;
mod tables;
mod tech;

pub use ablations::{
    ablation_cache_policy, ablation_flush_batch, ablation_flush_strategy, ablation_lookahead,
    ablation_optimizer, cache_policy_grid, cache_policy_table, cache_policy_violations, PolicyCell,
};
pub use micro::{exp1_microbenchmark, fig3_motivation};
pub use overall::{exp6_kg, exp7_rec, exp8_scalability, exp9_cost};
pub use sensitivity::{exp10_flush_threads, exp11_models};
pub use tables::{table1_gpu_specs, table2_datasets};
pub use tech::{exp2_p2f, exp3_uva, exp4_pq, exp5_breakdown};

use crate::table::ExpTable;
use frugal_core::{System, TrainReport};
use frugal_data::{KeyDistribution, SyntheticTrace};
use frugal_telemetry::{LedgerPhase, LedgerPhaseSummary};

/// One printable artifact: its command-line name and the function that
/// builds its tables.
pub type Artifact = (&'static str, fn(&Scale) -> Vec<ExpTable>);

/// Every artifact `frugal-bench` prints, in paper order (what `all` prints).
pub const ARTIFACTS: [Artifact; 19] = [
    ("table1_gpu_specs", |_| vec![table1_gpu_specs()]), // Table 1
    ("table2_datasets", |_| vec![table2_datasets()]),   // Table 2
    ("fig3_motivation", fig3_motivation),               // Fig 3a/3b/3c
    ("exp1_microbenchmark", exp1_microbenchmark),       // Fig 8
    ("exp2_p2f", exp2_p2f),                             // Fig 9
    ("exp3_uva", exp3_uva),                             // Fig 10
    ("exp4_pq", exp4_pq),                               // Fig 11
    ("exp5_breakdown", exp5_breakdown),                 // Fig 12
    ("exp6_kg", exp6_kg),                               // Fig 13
    ("exp7_rec", exp7_rec),                             // Fig 14
    ("exp8_scalability", exp8_scalability),             // Fig 15
    ("exp9_cost", exp9_cost),                           // Fig 16
    ("exp10_flush_threads", exp10_flush_threads),       // Fig 17
    ("exp11_models", exp11_models),                     // Fig 18
    // Beyond the paper.
    ("ablation_cache_policy", ablation_cache_policy),
    ("ablation_flush_batch", ablation_flush_batch),
    ("ablation_lookahead", ablation_lookahead),
    ("ablation_optimizer", ablation_optimizer),
    ("ablation_flush_strategy", ablation_flush_strategy),
];

/// The artifacts command-line `names` ask for, in their order; `all` is
/// every one of [`ARTIFACTS`]. No name, or an unknown one, is an error
/// that lists the valid names.
pub fn resolve(names: &[impl AsRef<str>]) -> Result<Vec<Artifact>, String> {
    let expected = || {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        format!("(expected all|{})", names.join("|"))
    };
    if names.is_empty() {
        return Err(format!("no artifact named {}", expected()));
    }
    let mut artifacts = Vec::new();
    for name in names.iter().map(AsRef::as_ref) {
        if name == "all" {
            artifacts.extend(ARTIFACTS);
        } else {
            let artifact = ARTIFACTS.iter().find(|(a, _)| *a == name);
            let unknown = || format!("unknown artifact {name} {}", expected());
            artifacts.push(*artifact.ok_or_else(unknown)?);
        }
    }
    Ok(artifacts)
}

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

/// The microbenchmark key space at Zipf 0.9: `batch` keys per GPU on
/// `scale.gpus` GPUs.
fn zipf09_trace(scale: &Scale, batch: usize, seed: u64) -> SyntheticTrace {
    SyntheticTrace::new(
        scale.micro_keys,
        KeyDistribution::Zipf(0.9),
        batch,
        scale.gpus,
        seed,
    )
    .expect("valid trace")
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
/// scaled down. `frugal-bench` prints every artifact at `Scale::default()`;
/// the unit tests run a smaller scale.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_names_are_unique() {
        for (i, (name, _)) in ARTIFACTS.iter().enumerate() {
            assert!(
                ARTIFACTS[i + 1..].iter().all(|(other, _)| other != name),
                "{name} named twice"
            );
        }
    }

    #[test]
    fn all_is_every_artifact_once_in_paper_order() {
        let names = |artifacts: Vec<Artifact>| -> Vec<&str> {
            artifacts.into_iter().map(|(name, _)| name).collect()
        };
        let all = names(resolve(&["all"]).unwrap());
        assert_eq!(all, names(ARTIFACTS.to_vec()));
        assert_eq!(all.first(), Some(&"table1_gpu_specs"));
        assert_eq!(all.last(), Some(&"ablation_flush_strategy"));
        assert_eq!(
            names(resolve(&["exp9_cost", "table2_datasets"]).unwrap()),
            ["exp9_cost", "table2_datasets"]
        );
    }

    #[test]
    fn an_unknown_name_lists_the_valid_ones() {
        for names in [&["exp12_gpus"][..], &["exp2_p2f", "exp12_gpus"], &[]] {
            let err = resolve(names).unwrap_err();
            assert!(err.contains("expected all|"), "{err}");
            for (name, _) in ARTIFACTS {
                assert!(err.contains(name), "{err}");
            }
        }
        let err = resolve(&["exp12_gpus"]).unwrap_err();
        assert!(err.contains("unknown artifact exp12_gpus"), "{err}");
    }
}
