//! The comparator systems of the paper's evaluation (§4.1), re-implemented
//! on the shared substrate.
//!
//! | Paper system    | Here                               | Structure |
//! |-----------------|------------------------------------|-----------|
//! | PyTorch         | [`System::PyTorch`]                | no GPU cache; every lookup/update takes the CPU-involved host path |
//! | DGL-KE          | [`System::PyTorch`]                | same engine, KG workload/model |
//! | HugeCTR         | [`System::HugeCtr`]                | sharded multi-GPU cache, `all_to_all` key/embedding exchange (Fig 2b), CPU-involved miss path on commodity GPUs, UVA on datacenter GPUs |
//! | DGL-KE-cached   | [`System::HugeCtr`]                | same engine, KG workload/model |
//! | PyTorch-UVM     | [`System::PyTorchUvm`]             | unified-memory paging: a 4 KiB page migrates per embedding |
//!
//! All of them are synchronous: updates are aggregated per key in canonical
//! order and applied to the host store at each step, so every baseline is
//! bit-identical to the serial reference — matching the paper's note that
//! "all competitor systems meet the synchronous training consistency".
//!
//! The engines run the *numerics* for real (the store genuinely trains) and
//! account hardware time with the cost model; they have no background
//! concurrency, so a single thread iterating over the simulated GPUs is
//! faithful.

use crate::System;
use frugal_core::{
    EmbeddingModel, FrugalConfig, GEntryStore, OptimizerKind, ShardMap, TrainReport, Workload,
};
use frugal_data::Key;
use frugal_embed::{kernels, GpuCache, GradAggregator, HostStore, Sharding};
use frugal_sim::{HostPath, IterBreakdown, Nanos, RunStats};
use frugal_telemetry::{LaneKind, LedgerPhase};
use std::collections::HashMap;

/// Which baseline architecture an engine runs (named publicly by
/// [`System`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BaselineKind {
    /// No GPU cache; CPU-involved host access for everything
    /// (PyTorch / DGL-KE).
    NoCache,
    /// Sharded multi-GPU cache with all_to_all exchange
    /// (HugeCTR / DGL-KE-cached).
    Cached,
    /// CUDA unified memory paging (PyTorch-UVM).
    Uvm,
}

/// A baseline training engine.
///
/// # Examples
///
/// ```
/// use frugal_baselines::{BaselineEngine, System};
/// use frugal_core::{FrugalConfig, PullToTarget};
/// use frugal_data::{KeyDistribution, SyntheticTrace};
///
/// let trace = SyntheticTrace::new(1_000, KeyDistribution::Zipf(0.9), 32, 2, 1)?;
/// let cfg = FrugalConfig::commodity(2, 10);
/// let engine = BaselineEngine::new(System::HugeCtr, cfg, 1_000, 8);
/// let report = engine.run(&trace, &PullToTarget::new(8, 7));
/// assert!(report.throughput() > 0.0);
/// # Ok::<(), frugal_data::DistError>(())
/// ```
#[derive(Debug)]
pub struct BaselineEngine {
    kind: BaselineKind,
    cfg: FrugalConfig,
    store: HostStore,
}

impl BaselineEngine {
    /// Creates the `system` baseline with a fresh host store of
    /// `n_keys × dim`. Of `cfg` it reads `cost`, `cache_ratio` and
    /// `cache_policy` (HugeCTR only), `lr`, `steps`, `seed` and
    /// `telemetry`.
    ///
    /// # Panics
    ///
    /// Panics if `system` is a Frugal variant, or if `cfg` would change
    /// what a baseline trains: an optimizer other than SGD or an elastic
    /// membership plan.
    pub fn new(system: System, cfg: FrugalConfig, n_keys: u64, dim: usize) -> Self {
        let kind = match system {
            System::PyTorch => BaselineKind::NoCache,
            System::PyTorchUvm => BaselineKind::Uvm,
            System::HugeCtr => BaselineKind::Cached,
            other => panic!("{other:?} is not a baseline system"),
        };
        assert_eq!(
            cfg.optimizer,
            OptimizerKind::Sgd,
            "baselines train with SGD only"
        );
        assert!(
            cfg.membership.changes.is_empty(),
            "baselines run a static cohort, not an elastic membership plan"
        );
        let mut store = HostStore::new(n_keys, dim, cfg.seed);
        store.attach_row_counters(&cfg.telemetry);
        BaselineEngine { kind, cfg, store }
    }

    /// The host parameter store (inspect after [`BaselineEngine::run`]).
    pub fn store(&self) -> &HostStore {
        &self.store
    }

    /// Trains `workload` with `model` and returns the run report.
    ///
    /// # Panics
    ///
    /// Panics if the workload GPU count differs from the configured
    /// topology or the model dimension differs from the store.
    pub fn run(&self, workload: &dyn Workload, model: &dyn EmbeddingModel) -> TrainReport {
        let cfg = &self.cfg;
        let n = cfg.n_gpus();
        assert_eq!(workload.n_gpus(), n, "workload/topology GPU count mismatch");
        let dim = model.dim();
        assert_eq!(dim, self.store.dim(), "model/store dim mismatch");
        let row_bytes = (dim * 4) as u64;
        let sharding = Sharding::new(n);
        // Baselines are never elastic: the epoch-0 map is their permanent
        // (static) placement, but the partition itself is the same
        // ShardMap the Frugal engine uses — one ownership formula in the
        // whole codebase.
        let smap = ShardMap::initial(n, GEntryStore::n_shards());
        let n_keys = workload.n_keys();
        let topo_uva = cfg.cost.topology().supports_host_uva()
            && !cfg.cost.topology().gpu_spec().is_commodity();
        let miss_path = if topo_uva {
            HostPath::Uva // datacenter GPUs: unthrottled UVA (paper §2.3)
        } else {
            HostPath::CpuInvolved
        };

        // Per-GPU caches (Cached only).
        let mut caches: Vec<GpuCache> = (0..n)
            .map(|_| {
                let mut c = GpuCache::new(
                    sharding.cache_capacity(n_keys, cfg.cache_ratio),
                    dim,
                    cfg.cache_policy,
                );
                c.set_hot_threshold(sharding.hot_threshold(n_keys, cfg.cache_ratio));
                c
            })
            .collect();

        let mut rec = cfg.telemetry.recorder("baseline", LaneKind::Trainer);
        let mut stats = RunStats::new(workload.samples_per_step());
        let mut iters = Vec::with_capacity(cfg.steps as usize);
        let mut total_hits = 0u64;
        let mut total_misses = 0u64;
        let mut total_fills = 0u64;
        let mut first_loss = 0.0f32;
        let mut final_loss = 0.0f32;
        let cost = &cfg.cost;
        let batch_per_gpu = workload.samples_per_step() / n as u64;

        for s in 0..cfg.steps {
            let mut merged = GradAggregator::new(dim);
            let mut loss_sum = 0.0f32;
            let mut it = IterBreakdown::default();

            // ---- Per-owner query routing (Cached only): every GPU's keys
            // are resolved at the owner's cache, as in Fig 2b.
            let sample_span = rec.span(s, LedgerPhase::Sample);
            let mut per_gpu_unique: Vec<Vec<Key>> = Vec::with_capacity(n);
            for g in 0..n {
                let keys = workload.keys(s, g);
                let mut unique = Vec::with_capacity(keys.len());
                let mut seen: HashMap<Key, usize> = HashMap::with_capacity(keys.len());
                for &k in &keys {
                    seen.entry(k).or_insert_with(|| {
                        unique.push(k);
                        unique.len() - 1
                    });
                }
                per_gpu_unique.push(unique);
            }
            drop(sample_span);
            let mut owner_hits = vec![0u64; n];
            let mut owner_misses = vec![0u64; n];
            let mut owner_queries = vec![0u64; n];
            if self.kind == BaselineKind::Cached {
                let _span = rec.span(s, LedgerPhase::CacheQuery);
                let mut routed: Vec<Vec<Key>> = (0..n).map(|_| Vec::new()).collect();
                let mut routed_seen: Vec<std::collections::HashSet<Key>> =
                    (0..n).map(|_| std::collections::HashSet::new()).collect();
                for unique in &per_gpu_unique {
                    for &k in unique {
                        let o = smap.owner_of(k);
                        if routed_seen[o].insert(k) {
                            routed[o].push(k);
                        }
                    }
                }
                for (o, keys) in routed.iter().enumerate() {
                    owner_queries[o] = keys.len() as u64;
                    for &k in keys {
                        if caches[o].get(&k).is_some() {
                            owner_hits[o] += 1;
                        } else {
                            owner_misses[o] += 1;
                            if caches[o].admits(k) {
                                let outcome =
                                    caches[o].fill_into(k, |dst| self.store.read_row(k, dst));
                                if !matches!(outcome, frugal_embed::InsertOutcome::Rejected) {
                                    total_fills += 1;
                                }
                            }
                        }
                    }
                }
            }

            // ---- Per-GPU forward/backward (real math; values come from the
            // always-current host store, caches are performance artifacts).
            for g in 0..n {
                let keys = workload.keys(s, g);
                let unique = &per_gpu_unique[g];
                let u = unique.len() as u64;
                let mut rows = vec![0.0f32; keys.len() * dim];
                let hr_span =
                    rec.span_with(s, LedgerPhase::HostRead, &[("rows", keys.len() as u64)]);
                for (i, &key) in keys.iter().enumerate() {
                    self.store.read_row(key, &mut rows[i * dim..(i + 1) * dim]);
                }
                drop(hr_span);
                let compute_span = rec.span(s, LedgerPhase::Compute);
                let grads = model.forward_backward(g, s, &keys, &rows);
                loss_sum += grads.loss;
                let mut agg = GradAggregator::new(dim);
                for (i, &key) in keys.iter().enumerate() {
                    agg.add(key, &grads.emb_grads[i * dim..(i + 1) * dim]);
                }
                merged.merge(agg);
                drop(compute_span);

                // ---- Modeled hardware time for GPU g this step.
                let mut comm = if model.dense_param_bytes() > 0 {
                    cost.all_to_all(model.dense_param_bytes())
                } else {
                    Nanos::ZERO
                };
                let host;
                let mut cache_t = Nanos::ZERO;
                let mut other = cost.dnn_time(
                    model.dense_flops_per_sample() * batch_per_gpu as f64,
                    model.dense_layers().max(1),
                );
                match self.kind {
                    BaselineKind::NoCache => {
                        // Gather + scatter through the CPU for all keys.
                        host = cost.host_read(HostPath::CpuInvolved, u, row_bytes, n)
                            + cost.host_write(HostPath::CpuInvolved, u, row_bytes, n);
                    }
                    BaselineKind::Uvm => {
                        host = cost.host_read(HostPath::Uvm, u, row_bytes, n)
                            + cost.host_write(HostPath::Uvm, u, row_bytes, n);
                    }
                    BaselineKind::Cached => {
                        // Fig 2b pipeline: ➊ bucket keys (CPU), ➋ all_to_all
                        // keys, ➌ owner cache query, ➍ all_to_all embeddings
                        // (and gradients on the way back), ➎ reorder (CPU).
                        let remote =
                            unique.iter().filter(|&&k| !smap.owns_key(g, k)).count() as u64;
                        comm += cost.all_to_all(u * 8) + cost.all_to_all(remote * row_bytes) * 2;
                        cache_t = cost.cache_query(owner_queries[g]);
                        host = cost.host_read(miss_path, owner_misses[g], row_bytes, n)
                            + cost.host_write(miss_path, owner_misses[g], row_bytes, n);
                        other += Nanos::from_micros_f64(cost.params().cpu_dispatch_us * 2.0);
                    }
                }
                it.comm = it.comm.max(comm);
                it.host_dram = it.host_dram.max(host);
                it.cache = it.cache.max(cache_t);
                it.other = it.other.max(other);
            }

            // CPU-shared per-iteration software: framework row work and the
            // coordinated cache update run on the host's service pool, so
            // they are charged once per step, not per GPU.
            let total_rows: u64 = per_gpu_unique.iter().map(|u| u.len() as u64).sum();
            match self.kind {
                BaselineKind::NoCache | BaselineKind::Uvm => {
                    it.other += cost.framework_nocache(total_rows);
                }
                BaselineKind::Cached => {
                    it.other += cost.framework_cached(total_rows);
                    it.cache += cost.cache_coordinated_update(total_rows);
                }
            }

            model.end_step(s);

            // ---- Synchronous update application (canonical order) — the
            // write-through "flush" every baseline pays on the critical path.
            let updates = merged.into_arrival_order();
            let apply_span = rec.span_with(
                s,
                LedgerPhase::FlushApply,
                &[("rows", updates.len() as u64)],
            );
            for (key, grad) in updates {
                self.store
                    .write_row(key, |row| kernels::sgd_step(row, &grad, cfg.lr));
                if self.kind == BaselineKind::Cached {
                    let o = smap.owner_of(key);
                    if let Some(row) = caches[o].get_mut(&key) {
                        kernels::sgd_step(row, &grad, cfg.lr);
                    }
                }
            }
            drop(apply_span);

            total_hits += owner_hits.iter().sum::<u64>();
            total_misses += owner_misses.iter().sum::<u64>();
            let loss = loss_sum / n as f32;
            if s == 0 {
                first_loss = loss;
            }
            final_loss = loss;
            iters.push(it);
        }

        for it in &iters {
            stats.push(*it);
        }
        let hit_ratio = if total_hits + total_misses == 0 {
            0.0
        } else {
            total_hits as f64 / (total_hits + total_misses) as f64
        };
        if let Some(reg) = cfg.telemetry.registry() {
            reg.counter("cache.hits").add(total_hits);
            reg.counter("cache.misses").add(total_misses);
            reg.counter("cache.fills").add(total_fills);
        }
        TrainReport {
            stats,
            hit_ratio,
            cache_fills: total_fills,
            mean_gentry_update: Nanos::ZERO,
            violations: 0,
            races: self.store.race_count(),
            // Baselines apply updates synchronously; nothing is flushed in
            // the background.
            flush_rows: 0,
            flush_apply_ns: 0,
            // Baseline cohorts are static; no epochs, no transitions.
            membership_transition_ns: 0,
            first_loss,
            final_loss,
            telemetry: cfg.telemetry.summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frugal_core::{train_serial, PullToTarget};
    use frugal_data::{KeyDistribution, SyntheticTrace};
    use frugal_sim::Topology;

    fn trace(n_keys: u64, batch: usize, n: usize) -> SyntheticTrace {
        SyntheticTrace::new(n_keys, KeyDistribution::Zipf(0.9), batch, n, 3).unwrap()
    }

    #[test]
    fn all_baselines_match_serial_reference() {
        let t = trace(300, 32, 2);
        let model = PullToTarget::new(4, 1);
        let serial = train_serial(&t, &model, 15, 0.1, 42);
        for system in [System::PyTorch, System::HugeCtr, System::PyTorchUvm] {
            let mut cfg = FrugalConfig::commodity(2, 15);
            cfg.cache_ratio = 0.1;
            let engine = BaselineEngine::new(system, cfg, 300, 4);
            engine.run(&t, &model);
            for key in 0..300 {
                assert_eq!(
                    engine.store().row_vec(key),
                    serial.store.row_vec(key),
                    "{system:?} diverged at key {key}"
                );
            }
        }
    }

    #[test]
    fn baselines_converge() {
        let t = trace(200, 32, 2);
        let model = PullToTarget::new(4, 2);
        // 60 steps: enough for a 30% loss drop on any reasonable PRNG
        // stream (the vendored rand shim is not bit-compatible with
        // upstream StdRng, so the exact trace differs from the original).
        let cfg = FrugalConfig::commodity(2, 60);
        let engine = BaselineEngine::new(System::PyTorch, cfg, 200, 4);
        let r = engine.run(&t, &model);
        assert!(
            r.final_loss < r.first_loss * 0.7,
            "first {} final {}",
            r.first_loss,
            r.final_loss
        );
    }

    #[test]
    fn cached_baseline_gets_hits() {
        let t = trace(1_000, 128, 2);
        let model = PullToTarget::new(4, 2);
        let mut cfg = FrugalConfig::commodity(2, 20);
        cfg.cache_ratio = 0.1;
        let engine = BaselineEngine::new(System::HugeCtr, cfg, 1_000, 4);
        let r = engine.run(&t, &model);
        assert!(r.hit_ratio > 0.05, "hit ratio {}", r.hit_ratio);
    }

    #[test]
    fn uvm_is_dramatically_slower() {
        // Exp #1: PyTorch-UVM is "two orders of magnitude slower".
        let t = trace(100_000, 1024, 2);
        let model = PullToTarget::new(4, 2);
        let cfg = FrugalConfig::commodity(2, 3);
        let base = BaselineEngine::new(System::PyTorch, cfg.clone(), 100_000, 4);
        let uvm = BaselineEngine::new(System::PyTorchUvm, cfg, 100_000, 4);
        let tb = base.run(&t, &model).throughput();
        let tu = uvm.run(&t, &model).throughput();
        assert!(tb / tu > 20.0, "base {tb} vs uvm {tu}");
    }

    #[test]
    fn hugectr_slower_on_commodity_than_datacenter() {
        // Fig 3a: up to 37% throughput drop on commodity GPUs.
        let model = PullToTarget::new(4, 2);
        let t = trace(10_000, 512, 4);
        let commodity = FrugalConfig::commodity(4, 5);
        let datacenter = FrugalConfig::on(Topology::datacenter(4), 5);
        let c = BaselineEngine::new(System::HugeCtr, commodity, 10_000, 4);
        let d = BaselineEngine::new(System::HugeCtr, datacenter, 10_000, 4);
        let tc = c.run(&t, &model).throughput();
        let td = d.run(&t, &model).throughput();
        assert!(
            tc < td,
            "commodity {tc} should be slower than datacenter {td}"
        );
        let drop = 1.0 - tc / td;
        assert!(drop > 0.1, "drop {drop} too small");
    }

    #[test]
    fn stall_is_zero_for_baselines() {
        let t = trace(100, 16, 2);
        let model = PullToTarget::new(4, 2);
        let cfg = FrugalConfig::commodity(2, 5);
        let engine = BaselineEngine::new(System::HugeCtr, cfg, 100, 4);
        let r = engine.run(&t, &model);
        assert_eq!(r.mean_stall(), Nanos::ZERO);
        assert_eq!(r.mean_gentry_update, Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "SGD only")]
    fn refuses_an_adagrad_config() {
        let mut cfg = FrugalConfig::commodity(2, 5);
        cfg.optimizer = OptimizerKind::Adagrad;
        BaselineEngine::new(System::PyTorch, cfg, 100, 4);
    }

    #[test]
    #[should_panic(expected = "static cohort")]
    fn refuses_an_elastic_plan() {
        let plan = frugal_core::MembershipPlan::kill_and_recover(1, 2, 2, 4);
        let cfg = FrugalConfig::commodity(2, 5).with_membership(plan);
        BaselineEngine::new(System::HugeCtr, cfg, 100, 4);
    }

    #[test]
    #[should_panic(expected = "not a baseline")]
    fn refuses_a_frugal_system() {
        BaselineEngine::new(System::Frugal, FrugalConfig::commodity(2, 5), 100, 4);
    }
}
