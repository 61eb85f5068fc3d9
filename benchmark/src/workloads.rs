//! The four workloads and the run plan (step counts) they are measured
//! with. Everything the engine sees is generated here from `--seed`.

use frugal_core::{FlushMode, FrugalConfig, OptimizerKind, PullToTarget};
use frugal_data::{KeyDistribution, SyntheticTrace};
use frugal_embed::CachePolicy;

/// Logical GPUs = trainer threads. Two is what the 2-core reference host
/// can run without measuring its scheduler.
pub const N_GPUS: usize = 2;
pub const DIM: usize = 32;
pub const BATCH_PER_GPU: usize = 1024;
pub const KEYS_PER_STEP: u64 = (BATCH_PER_GPU * N_GPUS) as u64;
pub const LOOKAHEAD: u64 = 10;
pub const FLUSH_BATCH: usize = 256;
/// One flusher: the smallest P²F cohort that still has a cross-GPU host
/// read, and at most one thread more than the reference host has cores.
pub const FLUSH_THREADS: usize = 1;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload exists (one line; copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub n_keys: u64,
    pub dist: KeyDistribution,
    pub cache_ratio: f64,
    pub cache_policy: CachePolicy,
    pub optimizer: OptimizerKind,
    pub flush_mode: FlushMode,
    /// The workload's defining property: the cache hit ratio every run
    /// must land in (exclusive bounds), so workload drift fails loudly.
    pub hit_ratio: (f64, f64),
    /// Whether the traced run must see a non-zero P²F stall wait.
    pub expects_stall: bool,
    /// Timed steps `N` of an untraced run (after the warm-up).
    pub timed_steps: u64,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "zipf",
        why: "Paper Exp #1/#2 shape: 1M keys, Zipf 0.9, 5% static-hot cache, SGD, P2F; every layer is live and registration is the largest work phase",
        n_keys: 1_000_000,
        dist: KeyDistribution::Zipf(0.9),
        cache_ratio: 0.05,
        cache_policy: CachePolicy::StaticHot,
        optimizer: OptimizerKind::Sgd,
        flush_mode: FlushMode::P2f,
        hit_ratio: (0.2, 0.4),
        expects_stall: false,
        timed_steps: 3000,
    },
    WorkloadSpec {
        name: "cold",
        why: "2M uniform keys (256 MB table) bypass the cache: work moves to host reads, g-entry inserts, the infinite PQ bucket and flush apply; a cache change must show no change here",
        n_keys: 2_000_000,
        dist: KeyDistribution::Uniform,
        cache_ratio: 0.05,
        cache_policy: CachePolicy::StaticHot,
        optimizer: OptimizerKind::Sgd,
        flush_mode: FlushMode::P2f,
        hit_ratio: (-1.0, 0.05),
        expects_stall: false,
        timed_steps: 2500,
    },
    WorkloadSpec {
        name: "hot",
        why: "100k keys, Zipf 1.2, 20% LRU cache, Adagrad, P2F: eviction and recency writes, duplicate-heavy batches, rows written at s and read at s+1 (real stall), stateful optimizer",
        n_keys: 100_000,
        dist: KeyDistribution::Zipf(1.2),
        cache_ratio: 0.20,
        cache_policy: CachePolicy::Lru,
        optimizer: OptimizerKind::Adagrad,
        flush_mode: FlushMode::P2f,
        hit_ratio: (0.35, 1.0),
        expects_stall: true,
        timed_steps: 5000,
    },
    WorkloadSpec {
        name: "sync",
        why: "zipf inputs under write-through (Frugal-Sync): same sampling, cache, aggregation and store, but no PQ, g-entries or flushers; every P2F-machinery change must show no change here",
        n_keys: 1_000_000,
        dist: KeyDistribution::Zipf(0.9),
        cache_ratio: 0.05,
        cache_policy: CachePolicy::StaticHot,
        optimizer: OptimizerKind::Sgd,
        flush_mode: FlushMode::WriteThrough,
        hit_ratio: (0.2, 0.4),
        expects_stall: false,
        timed_steps: 7000,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Step counts of the four kinds of run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Warm-up steps `W` before the timed window: caches fill, g-entry
    /// shards and scratch buffers reach steady capacity.
    pub warmup: u64,
    /// Timed steps `N` of an untraced run — and of the traced run, which
    /// must repeat the untraced runs' exact counts.
    pub timed: u64,
    /// Steps `V` of the checked run compared with the serial oracle.
    pub verify: u64,
    /// Warm-up and timed steps of the single-threaded layer replay.
    pub replay_warmup: u64,
    pub replay: u64,
    /// How often a run repeats its set-up to report the median. A fixed
    /// count, not a time budget: the allocator's state after set-up, and
    /// with it peak memory, depends on how many tables were built and freed.
    pub setups: usize,
    /// Whether to assert the workload's defining property (off for the
    /// tiny smoke plan, whose caches never warm).
    pub check_properties: bool,
}

impl WorkloadSpec {
    pub fn plan(&self) -> Plan {
        Plan {
            warmup: 500,
            timed: self.timed_steps,
            verify: 500,
            replay_warmup: 300,
            replay: 1000,
            // ≈ 0.5 s of set-ups whatever the table size: 2 on `cold`, 4 on
            // `zipf` and `sync`, 7 on `hot`.
            setups: ((4_000_000 / self.n_keys) as usize).clamp(1, 7),
            check_properties: true,
        }
    }

    /// The same shape on a table a hundredth the size: the harness smoke
    /// test's input.
    pub fn tiny(&self) -> (WorkloadSpec, Plan) {
        let spec = WorkloadSpec {
            n_keys: self.n_keys / 100,
            ..*self
        };
        let plan = Plan {
            warmup: 20,
            timed: 40,
            verify: 30,
            replay_warmup: 10,
            replay: 30,
            setups: 1,
            check_properties: false,
        };
        (spec, plan)
    }

    pub fn proactive(&self) -> bool {
        self.flush_mode.proactive()
    }

    pub fn trace(&self, seed: u64) -> SyntheticTrace {
        SyntheticTrace::new(self.n_keys, self.dist, BATCH_PER_GPU, N_GPUS, seed)
            .expect("workload table holds valid distributions")
    }

    pub fn model(&self, seed: u64) -> PullToTarget {
        PullToTarget::new(DIM, seed)
    }

    /// The engine configuration for a run of `steps` steps. `--seed` feeds
    /// the parameter init here, the key stream in [`Self::trace`] and the
    /// model targets in [`Self::model`].
    pub fn config(&self, steps: u64, seed: u64) -> FrugalConfig {
        let mut cfg = FrugalConfig::commodity(N_GPUS, steps);
        cfg.cache_ratio = self.cache_ratio;
        cfg.cache_policy = self.cache_policy;
        cfg.lookahead = LOOKAHEAD;
        cfg.flush_threads = FLUSH_THREADS;
        cfg.flush_batch = FLUSH_BATCH;
        cfg.optimizer = self.optimizer;
        cfg.flush_mode = self.flush_mode;
        cfg.seed = seed;
        cfg
    }

    /// Checks a run's hit ratio against the defining property.
    pub fn check_hit_ratio(&self, hit_ratio: f64) -> Result<(), String> {
        let (lo, hi) = self.hit_ratio;
        if hit_ratio > lo && hit_ratio < hi {
            Ok(())
        } else {
            Err(format!(
                "{}: hit ratio {hit_ratio:.4} outside ({lo}, {hi}) — the workload drifted",
                self.name
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::valid_name;

    #[test]
    fn workload_table_is_well_formed() {
        for w in &WORKLOADS {
            assert!(valid_name(w.name));
            assert!(!w.why.contains('\n') && w.why.len() <= 200, "{}", w.name);
            assert_eq!(find(w.name), Some(w));
            w.config(10, 1).validate().unwrap();
            let (tiny, plan) = w.tiny();
            assert!(tiny.n_keys >= 1_000 && !plan.check_properties);
        }
        assert!(find("nope").is_none());
        // `sync` is `zipf` with only the flush mode changed.
        let (z, s) = (find("zipf").unwrap(), find("sync").unwrap());
        assert_eq!(
            WorkloadSpec {
                name: z.name,
                why: z.why,
                flush_mode: z.flush_mode,
                timed_steps: z.timed_steps,
                ..*s
            },
            *z
        );
    }

    #[test]
    fn the_seed_feeds_keys_init_and_targets() {
        let w = find("zipf").unwrap();
        assert_eq!(w.trace(7).gpu_keys(3, 1), w.trace(7).gpu_keys(3, 1));
        assert_ne!(w.trace(7).gpu_keys(3, 1), w.trace(8).gpu_keys(3, 1));
        assert_ne!(w.model(7).target(5, 0), w.model(8).target(5, 0));
        assert_eq!((w.config(10, 7).seed, w.config(10, 8).seed), (7, 8));
    }

    #[test]
    fn hit_ratio_property_is_exclusive() {
        let cold = find("cold").unwrap();
        assert!(cold.check_hit_ratio(0.0).is_ok());
        assert!(cold.check_hit_ratio(0.05).is_err());
        let hot = find("hot").unwrap();
        assert!(hot.check_hit_ratio(0.43).is_ok());
        assert!(hot.check_hit_ratio(0.35).is_err());
    }
}
