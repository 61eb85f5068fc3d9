//! The comparator systems' run: the serial oracle's numerics, priced by a
//! walk over the run's key stream.
//!
//! | Paper system    | Here                               | Structure |
//! |-----------------|------------------------------------|-----------|
//! | PyTorch         | [`System::PyTorch`]                | no GPU cache; every lookup/update takes the CPU-involved host path |
//! | DGL-KE          | [`System::PyTorch`]                | same walk, KG workload/model |
//! | HugeCTR         | [`System::HugeCtr`]                | sharded multi-GPU cache, `all_to_all` key/embedding exchange (Fig 2b), CPU-involved miss path on commodity GPUs, UVA on datacenter GPUs |
//! | DGL-KE-cached   | [`System::HugeCtr`]                | same walk, KG workload/model |
//! | PyTorch-UVM     | [`System::PyTorchUvm`]             | unified-memory paging: a 4 KiB page migrates per embedding |
//!
//! All of them are synchronous — "all competitor systems meet the
//! synchronous training consistency" (§4.1) — so their parameters and
//! losses are the serial oracle's by definition: a baseline run *is*
//! [`train_serial`]. What tells the systems apart is time, and the walk
//! prices it from the key stream alone: it dedups each GPU's batch,
//! routes HugeCTR's unique keys to their [`ShardMap`] owner, decides hits,
//! misses and fills in the owner caches, and charges every step with the
//! cost model. The caches hold no parameters; a baseline has no
//! background concurrency, so one thread walking the simulated GPUs is
//! faithful.

use crate::System;
use frugal_core::{
    train_serial, EmbeddingModel, FrugalConfig, GEntryStore, OptimizerKind, ShardMap, TrainReport,
    Workload,
};
use frugal_data::{Key, KeyHashSet};
use frugal_embed::{GpuCache, InsertOutcome, Sharding};
use frugal_sim::{HostPath, IterBreakdown, Nanos, RunStats};
use frugal_telemetry::{LaneKind, LedgerPhase};

/// Trains `workload` with `model` as the baseline `system` on the run
/// `cfg` describes. Of `cfg` it reads `cost`, `cache_ratio` and
/// `cache_policy` (HugeCTR only), `lr`, `steps`, `seed` and `telemetry`.
///
/// # Panics
///
/// Panics if `system` is a Frugal variant, if `cfg` would change what a
/// baseline trains (an optimizer other than SGD or an elastic membership
/// plan), or if the workload GPU count differs from the topology.
pub(crate) fn run(
    system: System,
    cfg: &FrugalConfig,
    workload: &dyn Workload,
    model: &dyn EmbeddingModel,
) -> TrainReport {
    assert!(
        matches!(
            system,
            System::PyTorch | System::PyTorchUvm | System::HugeCtr
        ),
        "{system:?} is not a baseline system"
    );
    assert_eq!(
        cfg.optimizer,
        OptimizerKind::Sgd,
        "baselines train with SGD only"
    );
    assert!(
        cfg.membership.changes.is_empty(),
        "baselines run a static cohort, not an elastic membership plan"
    );
    let n = cfg.n_gpus();
    assert_eq!(workload.n_gpus(), n, "workload/topology GPU count mismatch");
    let serial = train_serial(workload, model, cfg.steps, cfg.lr, cfg.seed);

    let cost = &cfg.cost;
    let row_bytes = (model.dim() * 4) as u64;
    let host_rw = |path, rows| {
        cost.host_read(path, rows, row_bytes, n) + cost.host_write(path, rows, row_bytes, n)
    };
    // The uncached systems differ only in the path every row takes.
    let cached = system == System::HugeCtr;
    let uncached_path = if system == System::PyTorchUvm {
        HostPath::Uvm
    } else {
        HostPath::CpuInvolved
    };
    let miss_path =
        if cost.topology().supports_host_uva() && !cost.topology().gpu_spec().is_commodity() {
            HostPath::Uva // datacenter GPUs: unthrottled UVA (paper §2.3)
        } else {
            HostPath::CpuInvolved
        };
    // Baselines are never elastic: the epoch-0 map is their permanent
    // placement, the same ownership formula the Frugal engine routes by.
    let smap = ShardMap::initial(n, GEntryStore::n_shards());
    let n_keys = workload.n_keys();
    let sharding = Sharding::new(n);
    // HugeCTR's per-GPU caches. The walk prices what they decide, never
    // what they hold, so a slot carries one placeholder float, not a row.
    let n_caches = if cached { n } else { 0 };
    let mut caches: Vec<GpuCache> = (0..n_caches)
        .map(|_| {
            let capacity = sharding.cache_capacity(n_keys, cfg.cache_ratio);
            let mut c = GpuCache::new(capacity, 1, cfg.cache_policy);
            c.set_hot_threshold(sharding.hot_threshold(n_keys, cfg.cache_ratio));
            c
        })
        .collect();

    let mut rec = cfg.telemetry.recorder("baseline", LaneKind::Trainer);
    let mut stats = RunStats::new(workload.samples_per_step());
    let (mut total_hits, mut total_misses, mut total_fills) = (0u64, 0u64, 0u64);
    let batch_per_gpu = workload.samples_per_step() / n as u64;

    for s in 0..cfg.steps {
        let sample_span = rec.span(s, LedgerPhase::Sample);
        let per_gpu_unique: Vec<Vec<Key>> = (0..n)
            .map(|g| {
                let mut seen = KeyHashSet::default();
                let keys = workload.keys(s, g);
                keys.into_iter().filter(|&k| seen.insert(k)).collect()
            })
            .collect();
        drop(sample_span);

        // Every GPU's keys are resolved at the owner's cache (Fig 2b),
        // each key once, in first occurrence over GPUs 0..n.
        let mut routed: Vec<Vec<Key>> = vec![Vec::new(); caches.len()];
        let mut owner_misses = vec![0u64; caches.len()];
        if cached {
            let _span = rec.span(s, LedgerPhase::CacheQuery);
            let mut seen = KeyHashSet::default();
            for &k in per_gpu_unique.iter().flatten() {
                if seen.insert(k) {
                    routed[smap.owner_of(k)].push(k);
                }
            }
            for ((cache, keys), misses) in caches.iter_mut().zip(&routed).zip(&mut owner_misses) {
                for &k in keys {
                    if cache.get(&k).is_some() {
                        total_hits += 1;
                    } else {
                        *misses += 1;
                        if cache.fill_into(k, |_| {}) != InsertOutcome::Rejected {
                            total_fills += 1;
                        }
                    }
                }
            }
            total_misses += owner_misses.iter().sum::<u64>();
        }

        // Modeled hardware time: each phase is the slowest GPU's.
        let mut it = IterBreakdown::default();
        for (g, unique) in per_gpu_unique.iter().enumerate() {
            let u = unique.len() as u64;
            let mut comm = if model.dense_param_bytes() > 0 {
                cost.all_to_all(model.dense_param_bytes())
            } else {
                Nanos::ZERO
            };
            let mut cache_t = Nanos::ZERO;
            let mut other = cost.dnn_time(
                model.dense_flops_per_sample() * batch_per_gpu as f64,
                model.dense_layers().max(1),
            );
            let host = if cached {
                // Fig 2b pipeline: ➊ bucket keys (CPU), ➋ all_to_all keys,
                // ➌ owner cache query, ➍ all_to_all embeddings (and
                // gradients on the way back), ➎ reorder (CPU).
                let remote = unique.iter().filter(|&&k| !smap.owns_key(g, k)).count() as u64;
                comm += cost.all_to_all(u * 8) + cost.all_to_all(remote * row_bytes) * 2;
                cache_t = cost.cache_query(routed[g].len() as u64);
                other += Nanos::from_micros_f64(cost.params().cpu_dispatch_us * 2.0);
                host_rw(miss_path, owner_misses[g])
            } else {
                // Gather + scatter through the host for every key.
                host_rw(uncached_path, u)
            };
            it.comm = it.comm.max(comm);
            it.host_dram = it.host_dram.max(host);
            it.cache = it.cache.max(cache_t);
            it.other = it.other.max(other);
        }
        // CPU-shared per-iteration software: framework row work and the
        // coordinated cache update run on the host's service pool, so
        // they are charged once per step, not per GPU.
        let total_rows: u64 = per_gpu_unique.iter().map(|u| u.len() as u64).sum();
        if cached {
            it.other += cost.framework_cached(total_rows);
            it.cache += cost.cache_coordinated_update(total_rows);
        } else {
            it.other += cost.framework_nocache(total_rows);
        }
        stats.push(it);

        // The synchronous apply updates every trained row in its owner's
        // cache as well, in merged arrival order — per owner, that is
        // `routed`'s order. Only the lookup of that update is observable
        // here: it moves LRU recency and the frequency counts.
        for (cache, keys) in caches.iter_mut().zip(&routed) {
            for k in keys {
                cache.get(k);
            }
        }
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
        // The serial oracle trains on one thread.
        races: 0,
        // Baselines apply updates synchronously; nothing is flushed in
        // the background.
        flush_rows: 0,
        flush_apply_ns: 0,
        // Baseline cohorts are static; no epochs, no transitions.
        membership_transition_ns: 0,
        first_loss: serial.first_loss,
        final_loss: serial.final_loss,
        telemetry: cfg.telemetry.summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frugal_core::PullToTarget;
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
            let r = system.run(cfg, &t, &model);
            assert_eq!(
                (r.first_loss.to_bits(), r.final_loss.to_bits()),
                (serial.first_loss.to_bits(), serial.final_loss.to_bits()),
                "{system:?} diverged from the serial reference"
            );
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
        let r = System::PyTorch.run(cfg, &t, &model);
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
        let r = System::HugeCtr.run(cfg, &t, &model);
        assert!(r.hit_ratio > 0.05, "hit ratio {}", r.hit_ratio);
    }

    #[test]
    fn uvm_is_dramatically_slower() {
        // Exp #1: PyTorch-UVM is "two orders of magnitude slower".
        let t = trace(100_000, 1024, 2);
        let model = PullToTarget::new(4, 2);
        let cfg = FrugalConfig::commodity(2, 3);
        let tb = System::PyTorch.run(cfg.clone(), &t, &model).throughput();
        let tu = System::PyTorchUvm.run(cfg, &t, &model).throughput();
        assert!(tb / tu > 20.0, "base {tb} vs uvm {tu}");
    }

    #[test]
    fn hugectr_slower_on_commodity_than_datacenter() {
        // Fig 3a: up to 37% throughput drop on commodity GPUs.
        let model = PullToTarget::new(4, 2);
        let t = trace(10_000, 512, 4);
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

    #[test]
    fn stall_is_zero_for_baselines() {
        let t = trace(100, 16, 2);
        let model = PullToTarget::new(4, 2);
        let cfg = FrugalConfig::commodity(2, 5);
        let r = System::HugeCtr.run(cfg, &t, &model);
        assert_eq!(r.mean_stall(), Nanos::ZERO);
        assert_eq!(r.mean_gentry_update, Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "SGD only")]
    fn refuses_an_adagrad_config() {
        let mut cfg = FrugalConfig::commodity(2, 5);
        cfg.optimizer = OptimizerKind::Adagrad;
        System::PyTorch.run(cfg, &trace(100, 16, 2), &PullToTarget::new(4, 2));
    }

    #[test]
    #[should_panic(expected = "static cohort")]
    fn refuses_an_elastic_plan() {
        let mut cfg = FrugalConfig::commodity(2, 5);
        cfg.membership = frugal_core::MembershipPlan::default()
            .change(2, vec![0])
            .change(4, vec![0, 1]);
        System::HugeCtr.run(cfg, &trace(100, 16, 2), &PullToTarget::new(4, 2));
    }

    #[test]
    #[should_panic(expected = "not a baseline")]
    fn refuses_a_frugal_system() {
        let cfg = FrugalConfig::commodity(2, 5);
        run(
            System::Frugal,
            &cfg,
            &trace(100, 16, 2),
            &PullToTarget::new(4, 2),
        );
    }
}
