//! The Frugal training engine (paper §3).
//!
//! One OS thread per simulated GPU ("training process"), a pool of flushing
//! threads, and the flush strategy's protocol between them:
//!
//! * **Forward** — each trainer resolves its batch keys against its local
//!   cache (owned, hot keys) and reads everything else from the host store
//!   with UVA-style zero-copy reads, which are safe because the wait
//!   condition guarantees no key read at step `s` has unflushed updates.
//! * **Backward** — per-GPU gradients are aggregated per key in canonical
//!   order at a step barrier; **every trainer then reduces the key shards
//!   it owns across all per-GPU deposits in GPU index order**
//!   (decentralized all-to-all — no leader-serial merge), applies its
//!   shard synchronously under write-through, and registers the g-entry
//!   writes (and, under P²F, the step `s + L` reads) for the
//!   [`GEntryStore`] shards it owns using the batch APIs — none of the
//!   per-key step work (Exp #4a) is serialized on a leader thread.
//! * **Flushing threads** — claim the highest-priority g-entries from the
//!   store's shard queue and apply their pending updates to the host store
//!   in step order; idle flushers park on the flush condvar (bounded wait)
//!   instead of burning a core.
//! * **Wait condition** — the strategy's consistency gate: under P²F a
//!   trainer may start step `s` only when `PQ.top() > s` (strictly), the
//!   exact condition of §3.3, which this module measures as the training
//!   stall.
//!
//! The engine is split along its natural seams:
//!
//! * [`strategy`] — the per-[`FlushMode`](crate::FlushMode) constant
//!   table: `P2f` (the paper's system), `WriteThrough` (the Frugal-Sync
//!   baseline), and `Fifo` (the arrival-order priority ablation).
//! * [`step`] — the two-barrier step protocol (A→C: decentralized sharded
//!   reduce, sharded apply and sharded registration as one member-local
//!   pass; after C: bookkeeping), the sample ring, and their shared state.
//! * [`trainer`] — the per-GPU loop and the registration phase.
//! * [`flusher`] — the flusher pool: coordination ([`FlushCoord`]) and the
//!   per-thread drain loop.
//! * [`counters`] — the registry-backed run counters.
//!
//! Everything mode-specific is a [`strategy`] table entry consulted at
//! barrier granularity; the per-key hot paths are strategy-blind. The
//! engine prices nothing: each member counts its work into its
//! [`CountRecord`], and [`price_run`](crate::price::price_run) prices the
//! whole run after the last segment joins. Wall-clock timings feed only
//! the ledger, the counters and the traces.

mod barrier;
mod counters;
mod flusher;
mod step;
mod strategy;
mod trainer;

use crate::config::FrugalConfig;
use crate::gentry::GEntryStore;
use crate::member;
use crate::model::EmbeddingModel;
use crate::price::{self, CountRecord, RunCounts};
use crate::report::TrainReport;
use crate::workload::Workload;
use crate::ShardMap;
use barrier::SpinBarrier;
use counters::RunMetrics;
use flusher::FlushCoord;
use frugal_data::Key;
use frugal_embed::{GpuCache, HostStore, UpdateRule};
use frugal_pq::INFINITE;
use frugal_telemetry::{LaneKind, LedgerPhase, Registry, ThreadRecorder};
use std::sync::Arc;
use std::time::Instant;
use strategy::Strategy;

/// The longest run [`FrugalConfig::skip_wait`] may inject its fault into:
/// without the wait's proof the flush queue keeps one bucket per step in
/// every shard (32 bytes each), 16 MB at this bound.
pub(crate) const SKIP_WAIT_MAX_STEPS: u64 = 4096;

/// One contiguous run of steps under a fixed shard-map epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Segment {
    /// First step of the segment (inclusive).
    pub(crate) start: u64,
    /// One past the last step (exclusive).
    pub(crate) end: u64,
    /// The epoch's sorted member ids.
    pub(crate) members: Vec<usize>,
}

/// Splits the run into segments at the membership plan's change points.
/// Always non-empty; the first segment starts at step 0 with the full
/// cohort, the last ends at `cfg.steps`.
pub(crate) fn resolve_segments(cfg: &FrugalConfig) -> Vec<Segment> {
    let mut segments = Vec::with_capacity(cfg.membership.changes.len() + 1);
    let mut members: Vec<usize> = (0..cfg.n_gpus()).collect();
    let mut start = 0u64;
    for change in &cfg.membership.changes {
        // Validation guarantees 0 < change.step < steps and strict
        // monotonicity, so every segment is non-empty.
        segments.push(Segment {
            start,
            end: change.step,
            members,
        });
        members = change.members.clone();
        start = change.step;
    }
    segments.push(Segment {
        start,
        end: cfg.steps,
        members,
    });
    segments
}

/// What one trainer index keeps for the whole run — across segments, leaves
/// and rejoins: its cache (created on first membership, dropped when it
/// leaves), its recorder (ledger lane + trace track), its count record and
/// its update slot.
pub(crate) struct MemberState {
    pub(crate) cache: Option<GpuCache>,
    pub(crate) rec: ThreadRecorder,
    pub(crate) counts: CountRecord,
    /// The merged `(key, grad)` rows the member reduced this step, in
    /// canonical arrival order: written by its reduce, then read by its own
    /// write-through apply and registration between barriers A and C.
    pub(crate) updates: Vec<(Key, Arc<[f32]>)>,
    /// The previous step's update slot. Each reduce swaps the two and folds
    /// over the older rows (see [`frugal_embed::ArcFold`]), so a row
    /// registered at step `s` is recycled at step `s + 2`: a flusher still
    /// landing step `s`'s rows while step `s + 1` reduces costs no
    /// allocation.
    pub(crate) previous: Vec<(Key, Arc<[f32]>)>,
}

/// Shared state between trainers, the leader, and flushers for one run.
pub(crate) struct RunShared<'a> {
    pub(crate) cfg: &'a FrugalConfig,
    /// The run's flush-strategy constants (the `cfg.flush_mode` row).
    pub(crate) strategy: &'static Strategy,
    /// Sparse optimizer for the host path: applied by the flushing threads
    /// (P²F/FIFO) or the barrier leader (write-through). One rule either
    /// way, so the per-row state `copy_state` hands to cache fills is
    /// the host path's state in every mode.
    pub(crate) rule: Arc<dyn UpdateRule>,
    pub(crate) workload: &'a dyn Workload,
    pub(crate) model: &'a dyn EmbeddingModel,
    pub(crate) store: &'a HostStore,
    /// The g-entries and, in their shards, the flush queue.
    pub(crate) gstore: GEntryStore,
    /// The step protocol's shared state (see [`step::StepState`]).
    pub(crate) step: step::StepState,
    /// Flusher/trainer coordination (see [`FlushCoord`]).
    pub(crate) flush: FlushCoord,
    /// Named run counters (see [`RunMetrics`]).
    pub(crate) metrics: RunMetrics,
}

/// The between-segments membership transition: drain the deferred-flush
/// machinery to a quiescent point and re-home per-member state under the
/// next epoch's map. Runs on the `run` thread while **no** trainer threads
/// exist (the previous segment's scope has joined), so every mutation here
/// is single-threaded by construction.
///
/// The quiescent point is what keeps elastic runs bit-identical: once
/// every pending g-entry write has reached the host store and every
/// flusher is idle, the host rows are exactly the serial oracle's rows for
/// the boundary step — so a moved shard's new owner starts from the same
/// bytes the old owner would have. Survivor caches evict the rows they no
/// longer own; rows they keep are still bit-identical to host (they saw
/// the same gradient sequence), so invariant (2) holds in the new epoch
/// without any cache flush.
///
/// `skip_quiesce` (failure injection) moves to the new map *without* the
/// drain or the evictions: stale survivor cache rows and unflushed
/// pre-epoch writes then race the new owners — the divergence the elastic
/// consistency tests must catch.
///
/// `rec` is the run thread's recorder: the transition gates the first step
/// of the new segment, so it is booked there (its own phase, not
/// `StallWait` — it is membership cost, not flush-wait cost).
fn membership_transition(
    shared: &RunShared<'_>,
    members: &mut [MemberState],
    next: &ShardMap,
    resume_step: u64,
    rec: &ThreadRecorder,
) {
    let t0 = Instant::now();
    if !shared.cfg.skip_quiesce {
        // Drain: flushers keep running between segments, so waking them
        // once and parking until they are done is enough (their post-apply
        // notify wakes this thread). Every pending entry sits in a bucket
        // the flushers scan — a finite one, or the eagerly drained ∞ bucket
        // — and nothing registers meanwhile, so the backlog strictly
        // shrinks. The in-flight check closes the claimed-but-unapplied
        // window.
        shared.flush.notify_all();
        shared.flush.wait_until(|| {
            shared.gstore.pending_keys() == 0 && shared.flush.inflight.min() == INFINITE
        });
    }
    let caches = members.iter_mut().map(|m| &mut m.cache);
    member::transition(caches, next, shared.cfg.skip_quiesce);
    let ns = t0.elapsed().as_nanos() as u64;
    shared.metrics.membership_transition_ns.add(ns);
    rec.record(resume_step, LedgerPhase::EpochTransition, t0, ns, &[]);
}

/// The Frugal / Frugal-Sync training engine.
///
/// # Examples
///
/// ```
/// use frugal_core::{FrugalConfig, FrugalEngine, PullToTarget, Workload};
/// use frugal_data::{KeyDistribution, SyntheticTrace};
///
/// let trace = SyntheticTrace::new(1_000, KeyDistribution::Zipf(0.9), 32, 2, 1)?;
/// let mut cfg = FrugalConfig::commodity(2, 20);
/// cfg.flush_threads = 2;
/// let model = PullToTarget::new(8, 7);
/// let engine = FrugalEngine::new(cfg, trace.n_keys(), 8);
/// let report = engine.run(&trace, &model);
/// assert!(report.final_loss < report.first_loss);
/// # Ok::<(), frugal_data::DistError>(())
/// ```
#[derive(Debug)]
pub struct FrugalEngine {
    cfg: FrugalConfig,
    store: Arc<HostStore>,
}

impl FrugalEngine {
    /// Creates an engine with a fresh host store of `n_keys × dim`.
    ///
    /// # Panics
    ///
    /// Panics if [`FrugalConfig::validate`] rejects the configuration.
    /// Binaries that want a graceful error should call `validate`
    /// themselves first.
    pub fn new(cfg: FrugalConfig, n_keys: u64, dim: usize) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid FrugalConfig: {e}");
        }
        let mut store = if cfg.checked {
            HostStore::new_checked(n_keys, dim, cfg.seed)
        } else {
            HostStore::new(n_keys, dim, cfg.seed)
        };
        store.attach_row_counters(&cfg.telemetry);
        FrugalEngine {
            cfg,
            store: Arc::new(store),
        }
    }

    /// The host parameter store (inspect after [`FrugalEngine::run`]).
    pub fn store(&self) -> &HostStore {
        &self.store
    }

    /// The engine configuration.
    pub fn config(&self) -> &FrugalConfig {
        &self.cfg
    }

    /// Trains `workload` with `model` and returns the run report.
    ///
    /// # Panics
    ///
    /// Panics if the workload GPU count differs from the configured
    /// topology or if the model dimension differs from the store.
    pub fn run(&self, workload: &dyn Workload, model: &dyn EmbeddingModel) -> TrainReport {
        self.run_counted(workload, model).0
    }

    /// [`FrugalEngine::run`], also returning what every member counted:
    /// the records the report was priced from, which
    /// [`crate::walk_counts`] must reproduce.
    ///
    /// # Panics
    ///
    /// As [`FrugalEngine::run`].
    pub fn run_counted(
        &self,
        workload: &dyn Workload,
        model: &dyn EmbeddingModel,
    ) -> (TrainReport, RunCounts) {
        let cfg = &self.cfg;
        let n = cfg.n_gpus();
        assert_eq!(workload.n_gpus(), n, "workload/topology GPU count mismatch");
        assert_eq!(model.dim(), self.store.dim(), "model/store dim mismatch");
        let strategy = Strategy::of(cfg.flush_mode);

        // The step-`s` wait proves every priority `≤ s` flushed before
        // registration inserts into `[s + 1, s + L]` (FIFO: `{s}` after
        // `≤ s − 1`), so `L + 2` recycled buckets hold every live finite
        // priority. Skipping the wait (failure injection) voids that proof;
        // such a run keeps one bucket per step, in each of the 64 shards.
        let window = if cfg.skip_wait {
            assert!(
                cfg.steps <= SKIP_WAIT_MAX_STEPS,
                "skip_wait is failure injection for runs of at most {SKIP_WAIT_MAX_STEPS} steps \
                 (its flush queue keeps one bucket per step); got {}",
                cfg.steps
            );
            cfg.steps + cfg.lookahead + 3
        } else {
            cfg.lookahead + 2
        };
        // Run counters live on the telemetry registry when one is attached,
        // on a private registry otherwise (the report reads them either
        // way).
        let registry = cfg
            .telemetry
            .registry()
            .unwrap_or_else(|| Arc::new(Registry::new()));

        let shared = RunShared {
            cfg,
            strategy,
            rule: cfg.optimizer.build_shared(
                cfg.lr,
                self.store.n_keys(),
                self.store.dim(),
                cfg.checked,
            ),
            workload,
            model,
            store: &self.store,
            gstore: GEntryStore::with_queue(strategy.priority_policy, window),
            step: step::StepState::new(n, cfg.lookahead, strategy.registers_reads),
            flush: FlushCoord::new(cfg.flush_threads),
            metrics: RunMetrics::new(&registry),
        };

        if strategy.registers_reads {
            // The bootstrap registers the reads of steps 0..L before any
            // write exists; step 0's registration adds those of step L.
            shared.flush.inflight.set_read_horizon(cfg.lookahead);
        }

        // Per-trainer state for the whole run, indexed by trainer id; the
        // transitions this thread runs get their own recorder.
        let mut members: Vec<MemberState> = (0..n)
            .map(|t| MemberState {
                cache: None,
                rec: cfg
                    .telemetry
                    .recorder(format!("trainer-{t}"), LaneKind::Trainer),
                counts: CountRecord::default(),
                updates: Vec::new(),
                previous: Vec::new(),
            })
            .collect();
        // The current epoch's map: fixed for a segment, replaced only by
        // this thread between segments (each from its predecessor, so
        // epochs advance one at a time).
        let mut smap = ShardMap::initial(n, GEntryStore::n_shards());
        let run_rec = cfg.telemetry.recorder("run", LaneKind::Trainer);
        let segments = resolve_segments(cfg);

        // Flushers are spawned once for the whole run and live across
        // membership transitions — elasticity only reshapes the *trainer*
        // cohort. Each segment spawns its members under a fresh barrier
        // sized to the epoch's cohort.
        std::thread::scope(|scope| {
            let mut flushers = Vec::new();
            if cfg.flush_mode.proactive() {
                for i in 0..cfg.flush_threads {
                    let shared = &shared;
                    flushers.push(scope.spawn(move || flusher::flusher_loop(shared, i)));
                }
            }
            for (i, seg) in segments.iter().enumerate() {
                if i > 0 {
                    smap = smap.with_members(&seg.members);
                    membership_transition(&shared, &mut members, &smap, seg.start, &run_rec);
                }
                // Lock-free: two crossings per step make the barrier
                // hot-path state at 8–16 trainers. Its waiters spin for as
                // long as the engine's threads — this cohort plus the
                // flushers — have a core each (see `barrier` docs).
                let barrier =
                    SpinBarrier::new(seg.members.len(), seg.members.len() + flushers.len());
                std::thread::scope(|seg_scope| {
                    let cohort = members
                        .iter_mut()
                        .enumerate()
                        .filter(|(t, _)| seg.members.contains(t));
                    for (t, member) in cohort {
                        let (barrier, shared, smap) = (&barrier, &shared, &*smap);
                        seg_scope.spawn(move || {
                            trainer::trainer_loop(shared, barrier, t, seg, smap, member)
                        });
                    }
                    // The inner scope joins every member before the next
                    // transition (or shutdown) can touch shared state.
                });
            }
            // Drain: wait for all deferred updates to reach host memory.
            shared.flush.begin_shutdown();
            for f in flushers {
                f.join().expect("flusher panicked");
            }
            debug_assert_eq!(shared.gstore.pending_keys(), 0);
        });

        // Price the run and publish its cache counters — `cache.hits`
        // (unique keys a cache served), `cache.misses` (read from host
        // DRAM), `cache.fills` (accepted host→cache copies) — now that
        // every member has joined.
        let records: Vec<CountRecord> = members.into_iter().map(|m| m.counts).collect();
        let priced = price::price_run(
            cfg,
            model,
            self.store.n_keys(),
            workload.samples_per_step(),
            &segments,
            &records,
        );
        registry.counter("cache.hits").add(priced.hits);
        registry.counter("cache.misses").add(priced.misses);
        registry.counter("cache.fills").add(priced.fills);
        let lookups = priced.hits + priced.misses;
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            priced.hits as f64 / lookups as f64
        };
        let report = TrainReport {
            stats: priced.stats,
            hit_ratio,
            cache_fills: priced.fills,
            mean_gentry_update: priced.mean_gentry_update,
            violations: shared.metrics.violations.get() as usize,
            races: self.store.race_count() + shared.rule.race_count(),
            flush_rows: shared.metrics.flush_rows.get(),
            flush_apply_ns: shared.metrics.flush_apply_ns.get(),
            membership_transition_ns: shared.metrics.membership_transition_ns.get(),
            first_loss: priced.first_loss,
            final_loss: priced.final_loss,
            telemetry: cfg.telemetry.summary(),
        };
        (report, RunCounts(records))
    }
}

#[cfg(test)]
mod tests;
