//! The two-barrier step protocol: the decentralized reduce behind barrier
//! A, and the shared state that carries a step across its barriers.
//!
//! Each step crosses two barriers; the leader each one elects does one
//! small chore, and no modeled number crosses either (each member counts
//! its work into its own [`crate::price::CountRecord`], priced after the
//! run):
//!
//! 1. trainers deposit per-GPU aggregates → **A** →
//! 2. *every* trainer runs one uninterrupted member-local pass: it reduces
//!    the key shards it owns across all per-GPU deposit slots in GPU
//!    index order ([`reduce_own_shard`]) into its own update slot (a `Vec`
//!    in its [`super::MemberState`], which no other thread reaches); under
//!    write-through applies that slot to the host store (the sharded form
//!    of the old leader apply); then runs its registration phase (see
//!    [`super::trainer::register_phase`]) over the same slot — the cache
//!    partition and the g-entry partition are the same [`crate::ShardMap`],
//!    so the rows a member reduced are exactly the rows its cache may hold
//!    and the rows it must register, and no member ever reads a sibling's
//!    update slot: nothing between A and C waits on anyone. Meanwhile the
//!    A-leader ([`leader_prepare`]) advances the ledger cursor and ends the
//!    model step → **C** →
//! 3. the C-leader ([`leader_finish`]) raises the queue's scan bound and
//!    the read horizon while other trainers already enter step `s + 1` —
//!    nothing it does gates their wait condition, and barrier A of `s + 1`
//!    orders it before that step's registration.
//!
//! (The barriers keep their historical names: a barrier B used to separate
//! the reduce from registration, and has guarded nothing since both read
//! only the member's own slot.)
//!
//! # Why the reduce stays bit-identical to the serial leader merge
//!
//! Bit-equality needs every key's gradients summed in the canonical order
//! (sample order within a stream — already inside each deposit — then
//! stream index order across streams). The *across-key*
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
//! `g` draws step `s + L`'s batch for its own GPU and publishes it as a
//! [`StepPlan`]; the plan consumed at step `s` was published `L` steps
//! ago. Registration (the `s + L` read prefetch) reads its own shards'
//! slices of every GPU's plan from the ring, so each (step, GPU) batch is
//! sampled and deduplicated exactly once.

use super::RunShared;
use crate::plan::{PlanScratch, StepPlan};
use crate::ShardMap;
use frugal_data::Key;
use frugal_embed::ArcFold;
use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::Arc;

/// Per-GPU ring of published step plans, indexed `[gpu][step % len]`.
///
/// Trainer `g` is the only writer of row `g`: it publishes step
/// `s + lookahead`'s plan at the top of step `s` (and steps
/// `0..lookahead` before the loop). Readers are trainer `g` itself (its
/// own plan at step `s`) and, under read-registering strategies, every
/// trainer's registration phase (its shards' slices of the
/// `s + lookahead` plans of all GPUs, after barrier A of step `s`, which
/// orders the publish before those reads).
///
/// The ring holds `lookahead + 2` slots: values `s..=s+L` must stay live
/// while step `s` runs, plus one slot of slack so publishing `s + L` at
/// the *top* of step `s` never overwrites a slot whose batch read is
/// still pending.
#[derive(Debug)]
pub(crate) struct SampleRing {
    slots: Vec<Vec<RwLock<StepPlan>>>,
    len: u64,
    /// Whether plans are grouped by shard as they are published: only
    /// read registration reads the grouping.
    group: bool,
}

impl SampleRing {
    fn new(n_gpus: usize, lookahead: u64, group: bool) -> Self {
        let len = lookahead + 2;
        SampleRing {
            slots: (0..n_gpus)
                .map(|_| (0..len).map(|_| RwLock::default()).collect())
                .collect(),
            len,
            group,
        }
    }

    /// Publishes `keys` as GPU `gpu`'s batch of `step`: rebuilds the
    /// slot's plan in place, grouped by shard if the ring groups.
    pub(crate) fn publish(&self, gpu: usize, step: u64, keys: Vec<Key>, scratch: &mut PlanScratch) {
        let mut plan = self.slots[gpu][(step % self.len) as usize].write();
        plan.rebuild(keys, scratch);
        if self.group {
            plan.group_by_shard();
        }
    }

    /// Reads GPU `gpu`'s plan of `step`. The caller must only ask for
    /// steps inside the live window (see type docs); the barriers provide
    /// the publish → read ordering.
    pub(crate) fn read(&self, gpu: usize, step: u64) -> RwLockReadGuard<'_, StepPlan> {
        self.slots[gpu][(step % self.len) as usize].read()
    }
}

/// The step protocol's shared state: the deposit slots and the sample ring.
#[derive(Debug)]
pub(crate) struct StepState {
    /// Per-GPU deposits: stream `g`'s gradients of the step summed per key,
    /// row `i` belonging to the `i`-th unique key of its plan. Trainers
    /// swap their scratch arena in before barrier A; after A every trainer
    /// read-scans all of them in GPU index order. Kept warm across steps.
    pub(crate) agg_slots: Vec<RwLock<Vec<f32>>>,
    /// The double-buffered sample pipeline (see [`SampleRing`]).
    pub(crate) ring: SampleRing,
}

impl StepState {
    /// `registers_reads`: whether the strategy registers lookahead reads,
    /// the one reader of a plan's shard grouping.
    pub(crate) fn new(n_gpus: usize, lookahead: u64, registers_reads: bool) -> Self {
        StepState {
            agg_slots: (0..n_gpus).map(|_| RwLock::default()).collect(),
            ring: SampleRing::new(n_gpus, lookahead, registers_reads),
        }
    }
}

/// The decentralized reduce of step `s`, run by *every* member right after
/// barrier A: fold the keys the epoch assigns member `t` across all
/// per-stream deposits, in stream index order, straight into its update
/// slot `out` — one key → position probe per deposit row, each row summed
/// in the `Arc` it leaves the reduce in ([`ArcFold`]). The fold writes over
/// the previous step's rows, in place wherever the flushers have let go of
/// them (always, under write-through). Returns the number of rows the
/// member reduced.
///
/// See the module docs for the bit-equality argument. Visibility: the
/// deposits into `agg_slots` happen before barrier A; the slots are next
/// written after barrier C, which cannot complete until every reducer is
/// done — the read locks here never observe a mid-swap deposit. The plans
/// naming the deposits' keys are republished only at step `s + 2`.
pub(crate) fn reduce_own_shard(
    shared: &RunShared<'_>,
    smap: &ShardMap,
    t: usize,
    s: u64,
    fold: &mut ArcFold,
    out: &mut Vec<(Key, Arc<[f32]>)>,
) -> usize {
    let dim = shared.model.dim();
    for (g, slot) in shared.step.agg_slots.iter().enumerate() {
        let (plan, grads) = (shared.step.ring.read(g, s), slot.read());
        for (&key, grad) in plan.unique().iter().zip(grads.chunks_exact(dim)) {
            if smap.owns_key(t, key) {
                fold.add(out, key, grad);
            }
        }
    }
    fold.finish(out);
    out.len()
}

/// The A-leader's work between barriers A and C, next to its own reduce
/// and registration: route flusher ledger attribution to this step and end
/// the model's step — once per step, on one thread.
pub(crate) fn leader_prepare(shared: &RunShared<'_>, s: u64) {
    // Route flusher-lane ledger attribution to this step (±1-step
    // approximation: background work between barrier A of step s and
    // barrier A of step s + 1 books to step s).
    shared.cfg.telemetry.ledger_advance(s);
    shared.model.end_step(s);
}

/// The C-leader's bookkeeping after barrier C: raise the PQ scan bound and
/// the read horizon. Nothing here gates the other trainers' next step —
/// they are already past C — and the next barrier A cannot complete before
/// this thread arrives.
pub(crate) fn leader_finish(shared: &RunShared<'_>, s: u64) {
    let cfg = shared.cfg;
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
}
