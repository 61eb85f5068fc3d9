//! The two-barrier step protocol: the decentralized reduce behind barrier
//! A, and the shared state that carries a step across its barriers.
//!
//! Each step crosses two barriers. The thread the barrier elects can differ
//! at each crossing, so leader state lives in [`StepState`], not
//! thread-locals:
//!
//! 1. trainers deposit per-GPU aggregates and phase times → **A** →
//! 2. *every* trainer runs one uninterrupted member-local pass: it reduces
//!    the key shards it owns across all per-GPU aggregator slots in GPU
//!    index order ([`reduce_own_shard`]) into its own update slot; under
//!    write-through applies that slot to the host store (the sharded form
//!    of the old leader apply); then runs its registration phase (see
//!    [`super::trainer::register_phase`]) over the same slot — the cache
//!    partition and the g-entry partition are the same [`crate::ShardMap`],
//!    so the rows a member reduced are exactly the rows its cache may hold
//!    and the rows it must register, and no member ever reads a sibling's
//!    update slot: nothing between A and C waits on anyone. Meanwhile the
//!    A-leader ([`leader_prepare`]) advances the ledger cursor, ends the
//!    model step and composes the iteration's phase maxima from the
//!    deposits (before C, so slow trainers cannot race slot reuse) → **C** →
//! 3. the C-leader ([`leader_finish`]) finalizes bookkeeping
//!    (`set_upper_bound`, the modeled registration and stall prices, the
//!    iteration record, the per-step counter reset) while other trainers
//!    already enter step `s + 1` — nothing it does gates their wait
//!    condition, and barrier A of `s + 1` orders all of it before that
//!    step's reduce and registration.
//!
//! (The barriers keep their historical names: a barrier B used to separate
//! the reduce from registration, and has guarded nothing since both read
//! only the member's own slot.)
//!
//! # Why the reduce stays bit-identical to the serial leader merge
//!
//! Bit-equality needs every key's gradients summed in the canonical order
//! (sample order within a stream — already inside each deposited
//! aggregator — then stream index order across streams). The *across-key*
//! order is free: rows are independent. [`reduce_own_shard`] scans
//! `agg_slots[0..n_streams]` in index order and folds only the keys the
//! current shard-map epoch assigns member `t`
//! ([`crate::ShardMap::owns_key`]), so each key sees exactly the serial
//! leader's addition sequence, just on a different thread. The epoch's
//! map partitions the key space, so every key is reduced exactly once —
//! and because every member borrows the run thread's *same* map for the
//! whole segment, the partition cannot tear mid-step. Across an epoch
//! change only *which thread* folds a key moves; the fold order per key
//! is unchanged, which is why elastic runs stay bitwise equal too.
//!
//! # The sample ring
//!
//! [`SampleRing`] double-buffers sampling: at the top of step `s`, trainer
//! `g` draws step `s + L`'s batch for its own GPU and publishes it; the
//! batch consumed at step `s` was published `L` steps ago. Registration
//! (the `s + L` read prefetch) reads all GPUs' lists straight from the
//! ring, so the workload is sampled exactly once per (step, GPU) — the old
//! leader gathered every trainer's list a second time each step.

use super::RunShared;
use crate::config::FlushMode;
use crate::ShardMap;
use frugal_data::Key;
use frugal_embed::{ArcFold, GradAggregator};
use frugal_sim::{IterBreakdown, Nanos, PqCost, RunStats};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One member's reduced `(key, merged gradient)` rows for the step.
type UpdateSlot = RwLock<Vec<(Key, Arc<[f32]>)>>;

/// Per-trainer, per-step instrumentation deposited at the barrier.
#[derive(Debug, Clone, Default)]
pub(crate) struct PhaseTimes {
    pub(crate) comm: Nanos,
    pub(crate) host_dram: Nanos,
    pub(crate) cache: Nanos,
    pub(crate) other: Nanos,
    pub(crate) loss: f32,
}

/// Per-GPU ring of published sample batches, indexed `[gpu][step % len]`.
///
/// Trainer `g` is the only writer of row `g`: it publishes step
/// `s + lookahead`'s keys at the top of step `s` (and steps
/// `0..lookahead` before the loop). Readers are trainer `g` itself (its
/// own batch at step `s`) and, under read-registering strategies, every
/// trainer's registration phase (the `s + lookahead` lists of all GPUs,
/// after barrier A of step `s`, which orders the publish before those
/// reads).
///
/// The ring holds `lookahead + 2` slots: values `s..=s+L` must stay live
/// while step `s` runs, plus one slot of slack so publishing `s + L` at
/// the *top* of step `s` never overwrites a slot whose batch read is
/// still pending.
#[derive(Debug)]
pub(crate) struct SampleRing {
    slots: Vec<Vec<RwLock<Vec<Key>>>>,
    len: u64,
}

impl SampleRing {
    fn new(n_gpus: usize, lookahead: u64) -> Self {
        let len = lookahead + 2;
        SampleRing {
            slots: (0..n_gpus)
                .map(|_| (0..len).map(|_| RwLock::new(Vec::new())).collect())
                .collect(),
            len,
        }
    }

    /// Publishes `keys` as GPU `gpu`'s batch of `step`.
    pub(crate) fn publish(&self, gpu: usize, step: u64, keys: Vec<Key>) {
        *self.slots[gpu][(step % self.len) as usize].write() = keys;
    }

    /// Reads GPU `gpu`'s batch of `step`. The caller must only ask for
    /// steps inside the live window (see type docs); the barriers provide
    /// the publish → read ordering.
    pub(crate) fn read(&self, gpu: usize, step: u64) -> RwLockReadGuard<'_, Vec<Key>> {
        self.slots[gpu][(step % self.len) as usize].read()
    }
}

/// Rotating-leader state: the barrier can elect a different thread at each
/// of the step's two crossings, so what the A-leader produces for the
/// C-leader lives here.
#[derive(Debug)]
pub(crate) struct LeaderState {
    /// Phase maxima composed by the A-leader, finalized by the C-leader.
    pub(crate) it: IterBreakdown,
    pub(crate) loss_sum: f32,
}

/// What the run reports on the modeled clock, kept by the C-leader as steps
/// finish: every iteration's breakdown, the first and the latest step's
/// mean loss, and the running sum of the modeled g-entry registration
/// times (the report reads only their mean).
#[derive(Debug)]
pub(crate) struct RunRecord {
    pub(crate) stats: RunStats,
    pub(crate) first_loss: f32,
    pub(crate) final_loss: f32,
    gentry_sum: Nanos,
}

impl RunRecord {
    fn push(&mut self, it: IterBreakdown, loss: f32, gentry_time: Nanos) {
        if self.stats.is_empty() {
            self.first_loss = loss;
        }
        self.final_loss = loss;
        self.gentry_sum += gentry_time;
        self.stats.push(it);
    }

    /// Mean modeled g-entry registration time per recorded step.
    pub(crate) fn mean_gentry(&self) -> Nanos {
        match self.stats.len() as u64 {
            0 => Nanos::ZERO,
            n => self.gentry_sum / n,
        }
    }
}

/// The step protocol's shared state: deposit slots, the per-owner reduced
/// update slots, the sample ring, rotating-leader state, and the run's
/// modeled record.
#[derive(Debug)]
pub(crate) struct StepState {
    /// Per-GPU aggregators: trainers swap their full scratch aggregator in
    /// before barrier A; after A every trainer read-scans all of them in
    /// GPU index order. Kept warm (arena reuse) across steps.
    pub(crate) agg_slots: Vec<RwLock<GradAggregator>>,
    /// Per-owner reduced updates: slot `g` holds the merged
    /// `(key, grad)` rows trainer `g` owns this step, in canonical
    /// arrival order. Written and then read by its owner between A and C
    /// (and read by the C-leader, whose cost model prices the members' row
    /// counts). The rows stay in the slot for the next step's reduce to
    /// recycle (see [`ArcFold`]).
    pub(crate) update_slots: Vec<UpdateSlot>,
    /// Per-GPU phase instrumentation for the current step.
    pub(crate) phase_slots: Vec<Mutex<PhaseTimes>>,
    /// The double-buffered sample pipeline (see [`SampleRing`]).
    pub(crate) ring: SampleRing,
    /// Rotating-leader state (see [`LeaderState`]).
    pub(crate) leader: Mutex<LeaderState>,
    /// P²F's blocking rows: rows registered this step whose post-write
    /// priority is `s + 1`, summed across members (each counts its own
    /// shards, see [`crate::GEntryStore::add_writes_batch`]). Read and
    /// then zeroed by the C-leader.
    pub(crate) blocking_next: AtomicU64,
    /// The C-leader's per-step record (see [`RunRecord`]).
    pub(crate) record: Mutex<RunRecord>,
}

impl StepState {
    pub(crate) fn new(n_gpus: usize, dim: usize, samples_per_step: u64, lookahead: u64) -> Self {
        StepState {
            agg_slots: (0..n_gpus)
                .map(|_| RwLock::new(GradAggregator::new(dim)))
                .collect(),
            update_slots: (0..n_gpus).map(|_| RwLock::new(Vec::new())).collect(),
            phase_slots: (0..n_gpus)
                .map(|_| Mutex::new(PhaseTimes::default()))
                .collect(),
            ring: SampleRing::new(n_gpus, lookahead),
            leader: Mutex::new(LeaderState {
                it: IterBreakdown::default(),
                loss_sum: 0.0,
            }),
            blocking_next: AtomicU64::new(0),
            record: Mutex::new(RunRecord {
                stats: RunStats::new(samples_per_step),
                first_loss: 0.0,
                final_loss: 0.0,
                gentry_sum: Nanos::ZERO,
            }),
        }
    }
}

/// The decentralized reduce, run by *every* member right after barrier A:
/// fold the keys the epoch assigns member `t` across all per-stream
/// aggregator slots, in stream index order, straight into
/// `update_slots[t]` — one key → position probe per deposit entry, each
/// row summed in the `Arc` it leaves the reduce in ([`ArcFold`]). The fold
/// writes over the previous step's rows, in place wherever the flushers
/// have let go of them (always, under write-through).
///
/// See the module docs for the bit-equality argument. Visibility: the
/// deposits into `agg_slots` happen before barrier A; the slots are next
/// written after barrier C, which cannot complete until every reducer is
/// done — the read locks here never observe a mid-swap aggregator.
pub(crate) fn reduce_own_shard(
    shared: &RunShared<'_>,
    smap: &ShardMap,
    t: usize,
    fold: &mut ArcFold,
) {
    let mut out = shared.step.update_slots[t].write();
    for slot in &shared.step.agg_slots {
        let agg = slot.read();
        for (key, grad) in agg.entries() {
            if smap.owns_key(t, key) {
                fold.add(&mut out, key, grad);
            }
        }
    }
    fold.finish(&mut out);
}

/// The A-leader's work between barriers A and C, next to its own reduce
/// and registration: route flusher ledger attribution to this step, end the
/// model's step, and fold the per-GPU phase times into the iteration's
/// maxima. The compose must finish before C — once trainers pass C they may
/// deposit step `s + 1` times into the same slots. The heavy lifting a
/// leader used to do — merge, publish, synchronous apply, lookahead
/// re-sampling — is decentralized into [`reduce_own_shard`], the per-owner
/// write-through apply, and the [`SampleRing`].
pub(crate) fn leader_prepare(shared: &RunShared<'_>, s: u64) {
    // Route flusher-lane ledger attribution to this step (±1-step
    // approximation: background work between barrier A of step s and
    // barrier A of step s + 1 books to step s).
    shared.cfg.telemetry.ledger_advance(s);
    shared.model.end_step(s);

    let mut it = IterBreakdown::default();
    let mut loss_sum = 0.0f32;
    for slot in &shared.step.phase_slots {
        let p = slot.lock();
        it.comm = it.comm.max(p.comm);
        it.host_dram = it.host_dram.max(p.host_dram);
        it.cache = it.cache.max(p.cache);
        it.other = it.other.max(p.other);
        loss_sum += p.loss;
    }
    let mut leader = shared.step.leader.lock();
    leader.it = it;
    leader.loss_sum = loss_sum;
}

/// The C-leader's bookkeeping after barrier C: raise the PQ scan bound,
/// price the step's registration and stall from its operation counts (the
/// blocking-row counter is read and zeroed here), and push the iteration
/// record. Nothing here gates the other trainers' next step — they are
/// already past C — and the next barrier A cannot complete before this
/// thread arrives, so the next [`leader_prepare`], the owners' update-slot
/// rewrites and their `blocking_next` contributions (all behind that
/// barrier) never race these reads or the reset.
///
/// Everything that reaches the iteration record is a pure function of
/// `(seed, config)`: the members' row counts, the blocking-row count, the
/// row width, the configured thread counts and the queue kind. No
/// `Instant`-derived value does — wall-clock timings stay in the ledger,
/// the counters and the traces.
pub(crate) fn leader_finish(shared: &RunShared<'_>, smap: &ShardMap, s: u64) {
    let cfg = shared.cfg;
    let n_streams = cfg.n_gpus();
    if let Some(bound) = shared.strategy.upper_bound_after(s, cfg.lookahead) {
        // Scan-range compression (§3.4). The raise makes no queued entry
        // visible, so it wakes no flusher.
        shared.pq.set_upper_bound(bound);
    }
    if shared.strategy.registers_reads {
        // Registration of step s is complete: the next reads to appear are
        // those of step s + 1 + L (see `crate::wait`).
        shared
            .flush
            .inflight
            .set_read_horizon(s + 1 + cfg.lookahead);
    }

    // Rows each member reduced (and, under the proactive modes,
    // registered) this step. Only the epoch's members wrote a slot — a
    // non-member's slot holds a previous epoch's stale rows. The members'
    // slots are stable until after the next barrier A, which waits on this
    // thread.
    let member_rows = smap
        .members()
        .iter()
        .map(|&t| shared.step.update_slots[t].read().len() as u64);
    let total_rows: u64 = member_rows.clone().sum();
    // Read and zeroed in one, whatever the mode: a reset left to the arm
    // that consumes the count is a reset that arm's siblings never run.
    let read_next = shared.step.blocking_next.swap(0, Ordering::AcqRel);
    let row_bytes = (shared.model.dim() * 4) as u64;
    let pq_cost = if shared.pq.dequeue_serializes() {
        PqCost::Serialized {
            capacity: shared.store.n_keys(),
        }
    } else {
        PqCost::Concurrent
    };
    let (gentry_time, stall) = match cfg.flush_mode {
        // Write-through has no g-entries; its synchronous flush of the
        // whole update list is the stall.
        FlushMode::WriteThrough => (Nanos::ZERO, cfg.cost.sync_flush(total_rows, n_streams)),
        mode => {
            // Which rows gate the next wait: the ones written now that the
            // next step reads under P²F, every written row under FIFO — so
            // FIFO ≥ P²F holds row for row.
            let blocking = match mode {
                FlushMode::Fifo => total_rows,
                _ => read_next,
            };
            (
                cfg.cost
                    .gentry_registration(member_rows, row_bytes, pq_cost),
                cfg.cost
                    .flush_stall(blocking, row_bytes, cfg.flush_threads, pq_cost),
            )
        }
    };
    let leader = shared.step.leader.lock();
    let mut it = leader.it;
    // The controller/flushers contend with trainers for CPU cores: charge
    // the configuration's oversubscription factor on the critical-path
    // registration time (the Fig 17 "too many flushing threads divert CPU"
    // effect). The trainer count is the epoch's *member* count — a shrunk
    // cohort occupies fewer cores.
    let oversub = cfg
        .cost
        .cpu_oversubscription(smap.n_members() + cfg.flush_threads + 2);
    it.other += gentry_time * oversub + cfg.cost.framework_frugal();
    it.stall = stall;
    // Loss normalizes by the *stream* count: every stream ran regardless
    // of the cohort width, so the mean matches the serial oracle's.
    shared
        .step
        .record
        .lock()
        .push(it, leader.loss_sum / n_streams as f32, gentry_time);
}
