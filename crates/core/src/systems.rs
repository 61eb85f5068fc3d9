//! The named systems of the paper's evaluation (§4.1) and the one runner:
//! a [`System`] plus a [`FrugalConfig`] describe a run.
//!
//! The comparators are priced on the same substrate as Frugal (the
//! `frugal-sim` hardware model, the `frugal-embed` caches, this crate's
//! model/workload seams and shard map), so the comparison isolates the
//! *architecture*, as the paper did by re-implementing HugeCTR's multi-GPU
//! cache inside PyTorch:
//!
//! * **PyTorch / DGL-KE** — no GPU cache, CPU-involved host access.
//! * **HugeCTR / DGL-KE-cached** — sharded multi-GPU cache with
//!   `all_to_all` exchange (Fig 2b).
//! * **PyTorch-UVM** — unified-memory paging.
//!
//! All three train synchronously, so a baseline run is the serial oracle's
//! run ([`train_serial`]) plus [`System::price`]: the key-stream walk
//! (`walk.rs`) that decides the caches' hits and fills and prices each
//! step. The Frugal variants train on the [`FrugalEngine`], and
//! [`System::price`] walks them under member routing.

use crate::config::{ConfigError, FlushMode, FrugalConfig, OptimizerKind};
use crate::engine::FrugalEngine;
use crate::model::EmbeddingModel;
use crate::report::{ModeledRun, TrainReport};
use crate::serial::train_serial;
use crate::walk::{price, Routing};
use crate::workload::Workload;
use frugal_sim::HostPath;

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
    /// Every system, in declaration order.
    pub const ALL: [System; 6] = [
        System::PyTorch,
        System::PyTorchUvm,
        System::HugeCtr,
        System::FrugalSync,
        System::FrugalFifo,
        System::Frugal,
    ];

    /// The command-line name (`--system`), parsed back by [`str::parse`].
    pub fn cli_name(&self) -> &'static str {
        match self {
            System::PyTorch => "pytorch",
            System::PyTorchUvm => "uvm",
            System::HugeCtr => "hugectr",
            System::FrugalSync => "frugal-sync",
            System::FrugalFifo => "frugal-fifo",
            System::Frugal => "frugal",
        }
    }

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

    /// The four systems of the microbenchmark (Fig 8), also compared in
    /// the breakdown (Fig 12) and the scalability sweep (Fig 15).
    pub fn microbench_set() -> [System; 4] {
        [
            System::PyTorch,
            System::HugeCtr,
            System::FrugalSync,
            System::Frugal,
        ]
    }

    /// The flush mode a Frugal variant runs `cfg` under; `None` for the
    /// baselines, which apply every update synchronously.
    fn flush_mode(self) -> Option<FlushMode> {
        match self {
            System::Frugal => Some(FlushMode::P2f),
            System::FrugalSync => Some(FlushMode::WriteThrough),
            System::FrugalFifo => Some(FlushMode::Fifo),
            System::PyTorch | System::PyTorchUvm | System::HugeCtr => None,
        }
    }

    /// Checks `cfg` as this system's engine will, so binaries can report a
    /// bad argument instead of the engine's construction panic. Baselines
    /// read no flush knob, so only the Frugal variants can fail.
    pub fn validate(self, cfg: &FrugalConfig) -> Result<(), ConfigError> {
        match self.flush_mode() {
            Some(flush_mode) => FrugalConfig {
                flush_mode,
                ..cfg.clone()
            }
            .validate(),
            None => Ok(()),
        }
    }

    /// Trains `workload` with `model` as this system, on the run `cfg`
    /// describes. The system decides the architecture and, for the Frugal
    /// variants, the flush mode; `cfg` supplies everything else. A Frugal
    /// engine's store is sized from the workload's key space and the
    /// model's dimension.
    ///
    /// A baseline run is the serial oracle's ([`train_serial`]) plus
    /// [`System::price`]; of `cfg` it reads `cost`, `cache_ratio` and
    /// `cache_policy` (HugeCTR only), `lr`, `steps`, `seed` and
    /// `telemetry`.
    ///
    /// # Examples
    ///
    /// ```
    /// use frugal_core::{FrugalConfig, PullToTarget, System};
    /// use frugal_data::{KeyDistribution, SyntheticTrace};
    ///
    /// let trace = SyntheticTrace::new(1_000, KeyDistribution::Zipf(0.9), 32, 2, 1)?;
    /// let cfg = FrugalConfig::commodity(2, 10);
    /// let report = System::HugeCtr.run(cfg, &trace, &PullToTarget::new(8, 7));
    /// assert!(report.throughput() > 0.0 && report.hit_ratio > 0.0);
    /// # Ok::<(), frugal_data::DistError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the Frugal engine rejects `cfg` (see
    /// [`System::validate`]), or if a baseline is asked to train with an
    /// optimizer other than SGD or under an elastic membership plan.
    pub fn run(
        self,
        mut cfg: FrugalConfig,
        workload: &dyn Workload,
        model: &dyn EmbeddingModel,
    ) -> TrainReport {
        if let Some(flush_mode) = self.flush_mode() {
            cfg.flush_mode = flush_mode;
            return FrugalEngine::new(cfg, workload.n_keys(), model.dim()).run(workload, model);
        }
        assert_eq!(
            cfg.optimizer,
            OptimizerKind::Sgd,
            "baselines train with SGD only"
        );
        let modeled = self.price(cfg.clone(), workload, model);
        let serial = train_serial(workload, model, cfg.steps, cfg.lr, cfg.seed);
        // One thread applies every update synchronously, in a static
        // cohort: no races, no background flush, no transition.
        TrainReport {
            stats: modeled.stats,
            hit_ratio: modeled.hit_ratio,
            cache_fills: modeled.cache_fills,
            mean_gentry_update: modeled.mean_gentry_update,
            violations: 0,
            races: 0,
            flush_rows: modeled.flush_rows,
            flush_apply_ns: 0,
            membership_transition_ns: 0,
            first_loss: serial.first_loss,
            final_loss: serial.final_loss,
            telemetry: cfg.telemetry.summary(),
        }
    }

    /// The modeled part of what [`System::run`] reports for the same
    /// arguments — the modeled clock, hit ratio, cache fills, g-entry time
    /// and flushed rows — from the key stream alone: the key-stream walk,
    /// with neither the engine nor the serial oracle running. Frugal's
    /// variants take member routing, priced by the engine's own pricing;
    /// HugeCTR takes owner routing, and PyTorch and PyTorch-UVM owner
    /// routing with no cache. The owner routings always route by the full
    /// cohort's map.
    ///
    /// # Panics
    ///
    /// Panics if the workload's GPU count differs from the topology, if a
    /// Frugal variant is priced on a `cfg` its engine rejects, or if a
    /// baseline is priced under an elastic membership plan.
    pub fn price(
        self,
        mut cfg: FrugalConfig,
        workload: &dyn Workload,
        model: &dyn EmbeddingModel,
    ) -> ModeledRun {
        let routing = match self {
            System::PyTorch => Routing::Host(HostPath::CpuInvolved),
            System::PyTorchUvm => Routing::Host(HostPath::Uvm),
            System::HugeCtr => Routing::Owner,
            System::FrugalSync | System::FrugalFifo | System::Frugal => Routing::Member,
        };
        match self.flush_mode() {
            Some(flush_mode) => cfg.flush_mode = flush_mode,
            None => assert!(
                cfg.membership.changes.is_empty(),
                "baselines run a static cohort, not an elastic membership plan"
            ),
        }
        price(&cfg, workload, model, routing)
    }
}

impl std::str::FromStr for System {
    type Err = String;

    /// Parses the [`System::cli_name`] names.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        System::ALL
            .into_iter()
            .find(|system| system.cli_name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = System::ALL.iter().map(System::cli_name).collect();
                format!("unknown system {s} (expected {})", names.join("|"))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PullToTarget;
    use frugal_data::{KeyDistribution, SyntheticTrace};
    use frugal_sim::Topology;

    #[test]
    fn labels() {
        assert_eq!(System::HugeCtr.rec_label(), "HugeCTR");
        assert_eq!(System::HugeCtr.kg_label(), "DGL-KE-cached");
        assert_eq!(System::microbench_set().len(), 4);
    }

    #[test]
    fn every_system_parses_back_from_its_cli_name() {
        for system in System::ALL {
            assert_eq!(system.cli_name().parse::<System>(), Ok(system));
        }
    }

    #[test]
    fn an_unknown_name_lists_the_valid_ones() {
        let err = "tensorflow".parse::<System>().unwrap_err();
        assert!(err.contains("unknown system tensorflow"), "{err}");
        for system in System::ALL {
            assert!(err.contains(system.cli_name()), "{err}");
        }
    }

    #[test]
    fn validate_applies_the_systems_flush_mode() {
        let mut cfg = FrugalConfig::commodity(2, 4);
        cfg.flush_threads = 0;
        assert!(System::Frugal.validate(&cfg).is_err());
        assert!(System::FrugalFifo.validate(&cfg).is_err());
        // Write-through and the baselines need no flushers.
        assert_eq!(System::FrugalSync.validate(&cfg), Ok(()));
        assert_eq!(System::HugeCtr.validate(&cfg), Ok(()));
    }

    /// One runner, one price: every system's run reports exactly what the
    /// walk prices for it.
    #[test]
    fn runner_covers_all_systems() {
        let trace = SyntheticTrace::new(500, KeyDistribution::Zipf(0.9), 16, 2, 1).unwrap();
        let model = PullToTarget::new(4, 1);
        let mut cfg = FrugalConfig::commodity(2, 4);
        cfg.flush_threads = 2;
        for system in System::ALL {
            let r = system.run(cfg.clone(), &trace, &model);
            let p = system.price(cfg.clone(), &trace, &model);
            assert!(r.throughput() > 0.0, "{system:?}");
            assert_eq!(r.stats.iters(), p.stats.iters(), "{system:?}");
            assert_eq!(r.hit_ratio.to_bits(), p.hit_ratio.to_bits(), "{system:?}");
            assert_eq!(r.cache_fills, p.cache_fills, "{system:?}");
            assert_eq!(r.mean_gentry_update, p.mean_gentry_update, "{system:?}");
            assert_eq!(r.flush_rows, p.flush_rows, "{system:?}");
        }
    }

    #[test]
    fn hugectr_slower_on_commodity_than_datacenter() {
        // Fig 3a: up to 37% throughput drop on commodity GPUs.
        let model = PullToTarget::new(4, 2);
        let t = SyntheticTrace::new(10_000, KeyDistribution::Zipf(0.9), 512, 4, 3).unwrap();
        let commodity = FrugalConfig::commodity(4, 5);
        let datacenter = FrugalConfig::on(Topology::datacenter(4), 5);
        let tc = System::HugeCtr.run(commodity, &t, &model).throughput();
        let td = System::HugeCtr.run(datacenter, &t, &model).throughput();
        assert!(
            tc < td,
            "commodity {tc} should be slower than datacenter {td}"
        );
        let drop = 1.0 - tc / td;
        assert!(drop > 0.1, "drop {drop} too small");
    }
}
