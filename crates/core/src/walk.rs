//! The key-stream walk: every system's cache decisions and the counts its
//! modeled clock prices, from the keys alone — no threads, no numerics.
//!
//! [`crate::System::price`] prices every system through [`price`].
//!
//! One loop, two routings. *Member* routing (the Frugal variants) makes
//! each member's cache decisions through the trainer's own [`member`]
//! functions, with no-op callbacks, and yields exactly the engine's
//! per-member [`CountRecord`]s, which [`price_run`] prices;
//! `tests/config_space.rs` checks the threading record for record. *Owner*
//! routing (HugeCTR, and PyTorch and PyTorch-UVM with no cache) sends every
//! unique key once to its [`ShardMap`] owner's cache (Fig 2b). In both, the
//! synchronous apply's lookups ([`member::apply`]) then take each owner's
//! rows in first arrival across streams 0..n. A cache slot holds one
//! placeholder float, never a row.
//!
//! [`belady_hit_ratio`] reads the member routing's plans once more, for the
//! offline bound on what any cache policy could hit.

use crate::config::{FlushMode, FrugalConfig};
use crate::engine::resolve_segments;
use crate::gentry::GEntryStore;
use crate::member::{self, member_cache, Lookups};
use crate::model::EmbeddingModel;
use crate::plan::{PlanScratch, StepPlan};
use crate::price::{dense_prices, price_run, CountRecord, RunCounts};
use crate::report::ModeledRun;
use crate::workload::Workload;
use crate::ShardMap;
use frugal_data::{Key, KeyHashSet};
use frugal_embed::{belady_hits, GpuCache};
use frugal_sim::{HostPath, IterBreakdown, Nanos, RunStats};
use frugal_telemetry::{LaneKind, LedgerPhase};

/// Where a step's keys are looked up, and so which system [`price`] prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Routing {
    /// Frugal under the configuration's flush mode.
    Member,
    /// HugeCTR / DGL-KE-cached: owner caches and an `all_to_all` exchange.
    Owner,
    /// PyTorch / DGL-KE ([`HostPath::CpuInvolved`]) and PyTorch-UVM
    /// ([`HostPath::Uvm`]): no GPU cache; every unique key goes through
    /// host memory on the given path.
    Host(HostPath),
}

/// One step as the walk leaves it: per stream its plan, per owner its
/// rows, per stream (member routing) or per owner its misses and accepted
/// fills, per member its `read_next`.
struct Step<'a> {
    smap: &'a ShardMap,
    members: &'a [usize],
    plans: &'a [StepPlan],
    rows: &'a [Vec<Key>],
    misses: &'a [usize],
    fills: &'a [usize],
    read_next: &'a [u64],
}

/// The one loop: walks every step under `routing`, hands each to `visit`,
/// and returns the run's cache hits, misses and fills. With telemetry on it
/// books each step's `sample` and `cache_query` and publishes the `cache.*`
/// counters.
fn walk(
    cfg: &FrugalConfig,
    workload: &dyn Workload,
    routing: Routing,
    mut visit: impl FnMut(&Step<'_>),
) -> (u64, u64, u64) {
    let n = cfg.n_gpus();
    assert_eq!(workload.n_gpus(), n, "workload/topology GPU count mismatch");
    let (steps, lookahead) = (cfg.steps, cfg.lookahead);
    let member = routing == Routing::Member;
    let cached = !matches!(routing, Routing::Host(_));
    // Only P²F registers the lookahead reads that make a written row
    // block the next step.
    let p2f = member && cfg.flush_mode == FlushMode::P2f;
    // The plans of steps `s` and `s + 1` (`read_next` reads no further
    // ahead), each (step, stream) planned once.
    let at = |s: u64| (s % 2) as usize;
    let mut window = vec![vec![StepPlan::default(); n]; 2];
    let mut scratch = PlanScratch::default();
    let mut plan_step = |window: &mut Vec<Vec<StepPlan>>, s: u64| {
        for (g, plan) in window[at(s)].iter_mut().enumerate() {
            plan.rebuild(workload.keys(s, g), &mut scratch);
        }
    };
    if steps > 0 {
        plan_step(&mut window, 0);
    }
    // A slot holds one placeholder float and no optimizer state.
    let new_cache = || member_cache(cfg, workload.n_keys(), 1, 0);
    let mut caches: Vec<Option<GpuCache>> = (0..n).map(|_| None).collect();
    let mut rows = vec![Vec::new(); n];
    let (mut misses, mut fills, mut read_next) = (vec![0; n], vec![0; n], vec![0; n]);
    let (mut seen, mut next, mut lookups) = (
        KeyHashSet::default(),
        KeyHashSet::default(),
        Lookups::default(),
    );
    let mut totals = (0, 0, 0);
    let mut rec = cfg.telemetry.recorder("walk", LaneKind::Trainer);
    let mut smap = ShardMap::initial(n, GEntryStore::n_shards());
    for (i, seg) in resolve_segments(cfg).iter().enumerate() {
        if i > 0 {
            smap = smap.with_members(&seg.members);
            member::transition(&mut caches, &smap, cfg.skip_quiesce);
        }
        for &t in seg.members.iter().filter(|_| cached) {
            caches[t].get_or_insert_with(new_cache);
        }
        for s in seg.start..seg.end {
            let sample_span = rec.span(s, LedgerPhase::Sample);
            if s + 1 < steps {
                plan_step(&mut window, s + 1);
            }
            let plans = &window[at(s)];
            seen.clear();
            rows.iter_mut().for_each(Vec::clear);
            for &k in plans.iter().flat_map(StepPlan::unique).filter(|_| cached) {
                if seen.insert(k) {
                    rows[smap.owner_of(k)].push(k);
                }
            }
            drop(sample_span);
            let query_span = rec.span(s, LedgerPhase::CacheQuery);
            misses.fill(0);
            fills.fill(0);
            read_next.fill(0);
            for &t in seg.members.iter().filter(|_| cached) {
                let cache = caches[t].as_mut().expect("a member has a cache");
                if member {
                    for g in smap.streams_of(t) {
                        member::query(cache, &smap, t, &plans[g], &mut lookups, |_, _| {});
                        misses[g] = lookups.missing.len();
                        fills[g] = member::fill(
                            cache,
                            &smap,
                            t,
                            &lookups.missing,
                            &mut (),
                            |_, _, _, _| {},
                            |_, _, _, _, _| {},
                        );
                    }
                } else {
                    // An owner looks each routed key up and fills it at once.
                    for &k in &rows[t] {
                        if cache.get(&k).is_none() {
                            misses[t] += 1;
                            fills[t] += usize::from(member::fill_row(cache, k, |_, _| {}));
                        }
                    }
                }
                member::apply(cache, &mut lookups, &rows[t], |&k| k, |_, _, _| {});
            }
            drop(query_span);
            // Registration adds the reads of `s + L` after the writes of
            // `s`, so a row's next-step read is known when it is written
            // only if `L ≥ 2` (the engine's `L = 1` boundary).
            if p2f && lookahead >= 2 && s + 1 < steps {
                next.clear();
                next.extend(window[at(s + 1)].iter().flat_map(StepPlan::unique));
                for &t in &seg.members {
                    read_next[t] = rows[t].iter().filter(|&k| next.contains(k)).count() as u64;
                }
            }
            // A member looks every unique key up (what it does not own
            // misses); an owner only the keys routed to it.
            let lookups: usize = if member {
                plans.iter().map(|p| p.unique().len()).sum()
            } else {
                rows.iter().map(Vec::len).sum()
            };
            let step_misses: usize = misses.iter().sum();
            totals.0 += (lookups - step_misses) as u64;
            totals.1 += step_misses as u64;
            totals.2 += fills.iter().sum::<usize>() as u64;
            visit(&Step {
                smap: &smap,
                members: &seg.members,
                plans,
                rows: &rows,
                misses: &misses,
                fills: &fills,
                read_next: &read_next,
            });
        }
    }
    if let Some(reg) = cfg.telemetry.registry() {
        reg.counter("cache.hits").add(totals.0);
        reg.counter("cache.misses").add(totals.1);
        reg.counter("cache.fills").add(totals.2);
    }
    totals
}

/// What the engine's members count on this run (see [`RunCounts`]),
/// decided by the walk alone: the check of
/// [`crate::FrugalEngine::run_counted`]. The losses are 0.
pub fn walk_counts(cfg: &FrugalConfig, workload: &dyn Workload) -> RunCounts {
    let mut records: Vec<CountRecord> = (0..cfg.n_gpus()).map(|_| CountRecord::default()).collect();
    walk(cfg, workload, Routing::Member, |step| {
        for &t in step.members {
            let mut n_streams = 0;
            for g in step.smap.streams_of(t) {
                let unique = step.plans[g].unique().len();
                records[t].stream(g, unique, step.misses[g], step.fills[g], 0.0);
                n_streams += 1;
            }
            records[t].step(n_streams, step.rows[t].len(), step.read_next[t]);
        }
    });
    RunCounts(records)
}

/// The hit ratio of Belady's MIN over the whole run
/// ([`frugal_embed::belady_hits`]): the most hits any cache policy could
/// score where [`walk_counts`] counts `cfg.cache_policy`'s. Each member's
/// accesses are the keys `member::query` looks up (its owned unique keys
/// of each stream it runs, one batch per stream and step) from the same
/// step plans, and the denominator is the walk's: every unique key of
/// every plan. An offline reference; no run decides by it.
///
/// # Panics
///
/// Panics if the workload's GPU count differs from the topology, or if
/// `cfg` plans a membership change.
pub fn belady_hit_ratio(cfg: &FrugalConfig, workload: &dyn Workload) -> f64 {
    let n = cfg.n_gpus();
    assert_eq!(workload.n_gpus(), n, "workload/topology GPU count mismatch");
    assert!(
        cfg.membership.changes.is_empty(),
        "the Belady bound is computed for a static cohort"
    );
    let smap = ShardMap::initial(n, GEntryStore::n_shards());
    let mut accesses: Vec<Vec<Vec<Key>>> = vec![Vec::new(); n];
    let (mut plan, mut scratch) = (StepPlan::default(), PlanScratch::default());
    let mut lookups = 0;
    for s in 0..cfg.steps {
        for (t, batches) in accesses.iter_mut().enumerate() {
            for g in smap.streams_of(t) {
                plan.rebuild(workload.keys(s, g), &mut scratch);
                lookups += plan.unique().len();
                let owned = plan.unique().iter().filter(|&&k| smap.owns_key(t, k));
                batches.push(owned.copied().collect());
            }
        }
    }
    let capacity = member_cache(cfg, workload.n_keys(), 1, 0).capacity();
    let hits: u64 = accesses.iter().map(|a| belady_hits(a, capacity)).sum();
    hits as f64 / lookups.max(1) as f64
}

/// The modeled part of training `workload` with `model` under `routing`,
/// from the key stream alone. Under [`Routing::Member`] it is what
/// [`crate::FrugalEngine::run`] reports for `cfg`: the walk's records
/// priced by the engine's own pricing. The owner routings always route by
/// the full cohort's map.
///
/// # Panics
///
/// Panics if the workload's GPU count differs from the topology, or if
/// member routing is asked to price a `cfg` that
/// [`FrugalConfig::validate`] rejects.
pub(crate) fn price(
    cfg: &FrugalConfig,
    workload: &dyn Workload,
    model: &dyn EmbeddingModel,
    routing: Routing,
) -> ModeledRun {
    let samples = workload.samples_per_step();
    if routing == Routing::Member {
        if let Err(e) = cfg.validate() {
            panic!("invalid FrugalConfig: {e}");
        }
        let RunCounts(records) = walk_counts(cfg, workload);
        let segments = resolve_segments(cfg);
        let p = price_run(cfg, model, workload.n_keys(), samples, &segments, &records);
        return ModeledRun {
            stats: p.stats,
            hit_ratio: p.hits as f64 / (p.hits + p.misses).max(1) as f64,
            cache_fills: p.fills,
            mean_gentry_update: p.mean_gentry_update,
            flush_rows: p.flush_rows,
        };
    }
    let (cost, n) = (&cfg.cost, cfg.n_gpus());
    let row_bytes = (model.dim() * 4) as u64;
    let host_rw = |path, rows| {
        cost.host_read(path, rows, row_bytes, n) + cost.host_write(path, rows, row_bytes, n)
    };
    let cached = routing == Routing::Owner;
    let topology = cost.topology();
    let path = match routing {
        Routing::Host(path) => path,
        // Datacenter GPUs reach host memory over unthrottled UVA (§2.3).
        _ if topology.supports_host_uva() && !topology.gpu_spec().is_commodity() => HostPath::Uva,
        _ => HostPath::CpuInvolved,
    };
    let (dense, dnn) = dense_prices(cfg, model, samples);
    let mut stats = RunStats::new(samples);
    let (hits, misses, fills) = walk(cfg, workload, routing, |step| {
        // Each phase is the slowest GPU's.
        let mut it = IterBreakdown::default();
        for (g, unique) in step.plans.iter().map(StepPlan::unique).enumerate() {
            let u = unique.len() as u64;
            let (mut comm, mut cache, mut other) = (dense, Nanos::ZERO, dnn);
            let host = if cached {
                // Fig 2b: ➊ bucket keys (CPU), ➋ all_to_all keys, ➌ owner
                // cache query, ➍ all_to_all embeddings (and gradients on
                // the way back), ➎ reorder (CPU).
                let remote = unique
                    .iter()
                    .filter(|&&k| !step.smap.owns_key(g, k))
                    .count();
                comm += cost.all_to_all(u * 8) + cost.all_to_all(remote as u64 * row_bytes) * 2;
                cache = cost.cache_query(step.rows[g].len() as u64);
                other += Nanos::from_micros_f64(cost.params().cpu_dispatch_us * 2.0);
                host_rw(path, step.misses[g] as u64)
            } else {
                // Gather + scatter through the host for every key.
                host_rw(path, u)
            };
            it.comm = it.comm.max(comm);
            it.host_dram = it.host_dram.max(host);
            it.cache = it.cache.max(cache);
            it.other = it.other.max(other);
        }
        // Framework row work and the coordinated cache update run on the
        // host's shared service pool: charged once a step, not per GPU.
        let total_rows: u64 = step.plans.iter().map(|p| p.unique().len() as u64).sum();
        if cached {
            it.other += cost.framework_cached(total_rows);
            it.cache += cost.cache_coordinated_update(total_rows);
        } else {
            it.other += cost.framework_nocache(total_rows);
        }
        stats.push(it);
    });
    ModeledRun {
        stats,
        hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        cache_fills: fills,
        mean_gentry_update: Nanos::ZERO,
        flush_rows: 0,
    }
}
