//! The named systems of the paper's evaluation and a uniform runner.

use frugal_baselines::{BaselineConfig, BaselineEngine, BaselineKind};
use frugal_core::{EmbeddingModel, FrugalConfig, FrugalEngine, PqKind, TrainReport, Workload};
use frugal_embed::CachePolicy;
use frugal_sim::Topology;
use frugal_telemetry::{LedgerPhase, LedgerPhaseSummary, Telemetry};

/// A competitor system from §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// PyTorch (REC) / DGL-KE (KG): no multi-GPU cache.
    PyTorch,
    /// PyTorch-UVM: unified-memory baseline (Exp #1).
    PyTorchUvm,
    /// HugeCTR (REC) / DGL-KE-cached (KG): multi-GPU cache + all_to_all.
    HugeCtr,
    /// Frugal with write-through flushing.
    FrugalSync,
    /// Frugal with arrival-order (FIFO) background flushing — the priority
    /// ablation: proactive like Frugal, but every pending write gates the
    /// next step.
    FrugalFifo,
    /// The full Frugal system (P²F + two-level PQ).
    Frugal,
}

impl System {
    /// Display label in REC experiments.
    pub fn rec_label(&self) -> &'static str {
        match self {
            System::PyTorch => "PyTorch",
            System::PyTorchUvm => "PyTorch-UVM",
            System::HugeCtr => "HugeCTR",
            System::FrugalSync => "Frugal-Sync",
            System::FrugalFifo => "Frugal-FIFO",
            System::Frugal => "Frugal",
        }
    }

    /// Display label in KG experiments (paper naming).
    pub fn kg_label(&self) -> &'static str {
        match self {
            System::PyTorch => "DGL-KE",
            System::PyTorchUvm => "DGL-KE-UVM",
            System::HugeCtr => "DGL-KE-cached",
            System::FrugalSync => "Frugal-Sync",
            System::FrugalFifo => "Frugal-FIFO",
            System::Frugal => "Frugal",
        }
    }

    /// The four systems of the microbenchmark (Fig 8).
    pub fn microbench_set() -> [System; 4] {
        [
            System::PyTorch,
            System::HugeCtr,
            System::FrugalSync,
            System::Frugal,
        ]
    }
}

/// Knobs shared by all experiment runs.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Server topology (GPU model + count).
    pub topology: Topology,
    /// Steps to train per configuration.
    pub steps: u64,
    /// Cache ratio for cache-enabled systems.
    pub cache_ratio: f64,
    /// Flushing threads for Frugal.
    pub flush_threads: usize,
    /// Priority queue implementation for Frugal.
    pub pq: PqKind,
    /// Cache eviction policy for cache-enabled systems (Frugal variants
    /// and the HugeCTR-style baseline).
    pub cache_policy: CachePolicy,
    /// Sample-queue lookahead.
    pub lookahead: u64,
    /// Telemetry handle threaded into the engine; off by default so bench
    /// sweeps measure the zero-overhead path. Attach [`Telemetry::new`] to
    /// get per-phase spans and a `TelemetrySummary`
    /// (frugal_telemetry::TelemetrySummary) on the report.
    pub telemetry: Telemetry,
}

impl RunOptions {
    /// Paper defaults on `n` commodity GPUs.
    pub fn commodity(n: usize, steps: u64) -> Self {
        RunOptions {
            topology: Topology::commodity(n),
            steps,
            cache_ratio: 0.05,
            flush_threads: 8,
            pq: PqKind::TwoLevel,
            cache_policy: CachePolicy::StaticHot,
            lookahead: 10,
            telemetry: Telemetry::off(),
        }
    }

    /// Paper defaults on `n` datacenter GPUs (A30).
    pub fn datacenter(n: usize, steps: u64) -> Self {
        RunOptions {
            topology: Topology::datacenter(n),
            ..Self::commodity(n, steps)
        }
    }
}

/// Runs `system` on `workload`/`model` and returns the report.
///
/// Workload key-space size and model dimension must describe the store to
/// build.
pub fn run_system(
    system: System,
    opts: &RunOptions,
    workload: &dyn Workload,
    model: &dyn EmbeddingModel,
) -> TrainReport {
    let n_keys = workload.n_keys();
    let dim = model.dim();
    match system {
        System::Frugal | System::FrugalSync | System::FrugalFifo => {
            let mut cfg = FrugalConfig::commodity(opts.topology.n_gpus(), opts.steps);
            cfg.cost = frugal_sim::CostModel::new(opts.topology.clone());
            cfg.cache_ratio = opts.cache_ratio;
            cfg.flush_threads = opts.flush_threads;
            cfg.pq = opts.pq;
            cfg.lookahead = opts.lookahead;
            cfg.cache_policy = opts.cache_policy;
            cfg.telemetry = opts.telemetry.clone();
            match system {
                System::FrugalSync => cfg = cfg.write_through(),
                System::FrugalFifo => cfg = cfg.fifo(),
                _ => {}
            }
            let engine = FrugalEngine::new(cfg, n_keys, dim);
            engine.run(workload, model)
        }
        System::PyTorch | System::PyTorchUvm | System::HugeCtr => {
            let kind = match system {
                System::PyTorch => BaselineKind::NoCache,
                System::PyTorchUvm => BaselineKind::Uvm,
                _ => BaselineKind::Cached,
            };
            let mut cfg = BaselineConfig::pytorch(opts.topology.clone(), opts.steps);
            cfg.kind = kind;
            cfg.cache_ratio = opts.cache_ratio;
            cfg.cache_policy = opts.cache_policy;
            cfg.telemetry = opts.telemetry.clone();
            let engine = BaselineEngine::new(cfg, n_keys, dim);
            engine.run(workload, model)
        }
    }
}

/// The measured (wall-clock) per-step summary of ledger `phase` in a run
/// made with telemetry on — what experiments print next to modeled
/// columns. `None` when the run carried no telemetry.
pub fn measured_phase(report: &TrainReport, phase: LedgerPhase) -> Option<&LedgerPhaseSummary> {
    report.telemetry.as_ref()?.ledger.as_ref()?.phase(phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frugal_core::PullToTarget;
    use frugal_data::{KeyDistribution, SyntheticTrace};

    #[test]
    fn labels() {
        assert_eq!(System::HugeCtr.rec_label(), "HugeCTR");
        assert_eq!(System::HugeCtr.kg_label(), "DGL-KE-cached");
        assert_eq!(System::microbench_set().len(), 4);
    }

    #[test]
    fn runner_covers_all_systems() {
        let trace = SyntheticTrace::new(500, KeyDistribution::Zipf(0.9), 16, 2, 1).unwrap();
        let model = PullToTarget::new(4, 1);
        let mut opts = RunOptions::commodity(2, 4);
        opts.flush_threads = 2;
        for system in [
            System::PyTorch,
            System::PyTorchUvm,
            System::HugeCtr,
            System::FrugalSync,
            System::FrugalFifo,
            System::Frugal,
        ] {
            let r = run_system(system, &opts, &trace, &model);
            assert!(r.throughput() > 0.0, "{system:?}");
        }
    }
}
