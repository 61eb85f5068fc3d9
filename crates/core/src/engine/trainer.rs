//! The per-member training loop (paper §3.2's "training process") and its
//! registration phase.
//!
//! A *member* is a trainer thread active in the current shard-map epoch; a
//! *stream* is one of the workload's fixed per-GPU sample sequences. At
//! full cohort each member processes exactly its own stream; a shrunk
//! cohort deals the orphaned streams round-robin over the survivors
//! ([`ShardMap::streams_of`]), so every batch is still sampled, reduced,
//! and applied exactly once — the run stays bit-identical to the serial
//! oracle while membership changes only move work between threads.
//!
//! A step is: sample ahead (each batch published as a
//! [`StepPlan`](crate::plan::StepPlan), its one dedup pass), wait for the
//! flush condition, run each stream's forward/backward (the plan's unique
//! keys feed the cache query, and its dense instance → unique index serves
//! the row scatter and the gradient aggregation alike), deposit → barrier
//! A → reduce the owned shards, apply them (write-through) and register
//! them, with no barrier in between → barrier C. See
//! [`super::step`] for the protocol and what the two leaders do. Every
//! cache decision is a call into [`crate::member`], which the walk shares.

use super::step;
use super::{MemberState, RunShared, Segment};
use crate::config::FlushMode;
use crate::gentry::{GEntryStore, PqOpScratch};
use crate::member::{self, member_cache};
use crate::plan::PlanScratch;
use crate::wait;
use crate::ShardMap;
use frugal_data::Key;
use frugal_embed::{ArcFold, GpuCache};
use frugal_telemetry::{LedgerPhase, StallRecord, ThreadRecorder};
use std::sync::Arc;

use super::barrier::SpinBarrier;

/// A trainer's reusable hot-loop buffers: the plan builder's dedup table,
/// row staging, the gradient sums, the reduce's key index and the
/// registration order. Everything here is cleared (capacity kept) instead
/// of re-allocated, and the ring's plans are rebuilt in place, so after
/// warm-up the per-step loop allocates only what it hands to someone else:
/// the workload's sampled key lists, the model's `BatchGrads`, and an `Arc`
/// gradient row only where last step's row in the same position of the
/// update slot is still held by an unflushed g-entry (never, under
/// write-through — see [`ArcFold`]).
#[derive(Default)]
pub(crate) struct StepScratch {
    /// The dedup table of the plans this member publishes.
    dedup: PlanScratch,
    /// Unique rows, `unique.len() × dim`; every row is overwritten by the
    /// cache copy or the host read, so shrinking and regrowing never
    /// zero-fills more than the growth.
    urows: Vec<f32>,
    /// Per-sample rows, `keys.len() × dim`, overwritten by the scatter.
    rows: Vec<f32>,
    /// Cache misses: `(unique index, key)`.
    missing: Vec<(usize, Key)>,
    /// The stream's gradients summed per unique key, `unique.len() × dim`
    /// (swapped with the deposit slot).
    agg: Vec<f32>,
    /// The reduce's key → update-slot position index (see
    /// [`step::reduce_own_shard`]).
    fold: ArcFold,
    /// Write registration order: the update slot's positions grouped by
    /// g-entry shard, arrival order within a shard.
    write_order: Vec<u32>,
    /// Staged PQ operations for the g-entry batch calls.
    pq_ops: PqOpScratch,
}

/// Registers member `t`'s owned-shard reads of step `read_step`: its own
/// shards' slices of every stream's plan of that step, drawn from the
/// sample ring (published at the top of step `read_step - L`, ordered
/// before these reads by barrier A), one batch call per slice. The work is
/// the member's share of the keys, not every stream's whole batch.
///
/// A key two streams share is registered twice, and the second
/// registration is a no-op: the g-entry R set is a per-step bitset. So is
/// re-registering a read another epoch's owner already registered, so a
/// segment bootstrap can uniformly (re-)register its whole lookahead
/// window without perturbing priorities.
pub(crate) fn register_own_reads(
    shared: &RunShared<'_>,
    smap: &ShardMap,
    t: usize,
    read_step: u64,
    scratch: &mut StepScratch,
) {
    for g in 0..smap.n_streams() {
        let plan = shared.step.ring.read(g, read_step);
        for keys in plan.owned(smap, t) {
            shared
                .gstore
                .add_reads_batch(read_step, keys, shared.pq.as_ref(), &mut scratch.pq_ops);
        }
    }
}

/// The tail of every member's pass between barriers A and C, straight
/// after its reduce: apply the owned cache updates, register own-shard
/// g-entry writes (batch), register the own-shard reads of step `s + L`
/// (batch, read-driven strategies only). Returns this member's share of
/// the step's blocking rows: the registered rows step `s + 1` reads (0
/// outside the proactive modes).
///
/// Shard ownership is the [`ShardMap`]'s single partition: member `t` owns
/// every [`GEntryStore`] shard the current epoch assigns it, and — because
/// the cache partition is the *same* map — `updates` (the rows `t` itself
/// reduced into its update slot) is exactly the set of updates its cache
/// may hold *and* the set it must register. One scan of the own slot feeds
/// both; no other member's slot ever needs reading here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn register_phase(
    shared: &RunShared<'_>,
    smap: &ShardMap,
    rec: &mut ThreadRecorder,
    s: u64,
    t: usize,
    updates: &[(Key, Arc<[f32]>)],
    scratch: &mut StepScratch,
    cache: &mut GpuCache,
) -> u64 {
    let cfg = shared.cfg;
    let proactive = cfg.flush_mode.proactive();

    // The member's update slot, written by its own reduce a moment ago.
    // One pass folds its rows into the local cache (the cache sees the same
    // per-key gradient sequence as the host path, keeping both
    // bit-identical); one counting pass orders its positions by shard for
    // registration. Both book to `cache_apply`, so that `registration`
    // times the g-entry work alone.
    {
        let _span = rec.span(s, LedgerPhase::CacheApply);
        let rows = updates.iter().map(|(key, grad)| (*key, grad));
        member::apply(cache, rows, |row, state, grad| {
            shared.rule.step(row, state, grad)
        });
        if proactive {
            GEntryStore::group_by_shard(
                0..updates.len() as u32,
                |&i| updates[i as usize].0,
                &mut scratch.write_order,
            );
        }
    }
    if !proactive {
        return 0;
    }
    // Write registration — the sharded critical path (what a serial
    // leader used to spend on *all* keys): each owned shard's lock is
    // taken once, and each row is shared with its W set on the way in,
    // which leaves the slot and the pending flush as its only holders —
    // the next reduce recycles it once it has landed.
    let own_rows = updates.len() as u64;
    let _span = rec.span_with(s, LedgerPhase::Registration, &[("rows", own_rows)]);
    let rows = scratch.write_order.iter().map(|&i| {
        let (key, grad) = &updates[i as usize];
        (*key, Arc::clone(grad))
    });
    let read_next = shared
        .gstore
        .add_writes_iter(s, rows, shared.pq.as_ref(), &mut scratch.pq_ops);

    if shared.strategy.registers_reads {
        // Sample-queue prefetch: the reads of step s + L, own shards
        // only, drawn from the sample ring (published at the top of
        // this step by each stream's current member).
        let read_step = s + cfg.lookahead;
        if read_step < cfg.steps {
            register_own_reads(shared, smap, t, read_step, scratch);
        }
    }
    // A cohort of one never waits at barrier C, whose waiters wake the
    // flushers for the fresh entries (see `FlushCoord`): wake them here.
    if smap.n_members() == 1 {
        shared.flush.notify_all();
    }
    read_next
}

/// One member's run of one segment: steps `seg.start..seg.end` under the
/// segment's shard-map epoch, processing every stream the epoch deals it.
/// `member` is the trainer's cache, recorder and count record, for the run.
pub(crate) fn trainer_loop(
    shared: &RunShared<'_>,
    barrier: &SpinBarrier,
    t: usize,
    seg: &Segment,
    smap: &ShardMap,
    member: &mut MemberState,
) {
    let cfg = shared.cfg;
    let dim = shared.model.dim();
    // The segment's map is immutable for the segment's lifetime, so the
    // per-key hot path below indexes plain arrays.
    debug_assert!(smap.is_member(t), "trainer {t} spawned outside its epoch");
    let streams: Vec<usize> = smap.streams_of(t).collect();
    let MemberState {
        cache,
        rec,
        counts,
        updates,
    } = member;
    // The member's persistent cache, created on first membership. Cached
    // rows evolve with their own copy of the optimizer state, seeded from
    // the host path's at fill time: both copies then see the same per-key
    // gradient sequence through the same kernel (`shared.rule.step`), so
    // states and values stay bit-identical.
    let cache = cache.get_or_insert_with(|| {
        let (n_keys, state_width) = (shared.workload.n_keys(), shared.rule.state_width(dim));
        member_cache(cfg, n_keys, dim, state_width)
    });
    counts.reserve((seg.end - seg.start) as usize, streams.len());
    let mut scratch = StepScratch::default();
    let registers_reads = shared.strategy.registers_reads;
    let proactive = cfg.flush_mode.proactive();

    // Bootstrap the sample ring: each member publishes its *streams'*
    // batches for the segment's lookahead window — the in-loop publish
    // then keeps the window one step ahead. One barrier crossing orders
    // every publish before any cross-stream ring read. For a continuation
    // segment the slots already hold these exact lists (the workload is
    // deterministic), so the republish is idempotent; it keeps one
    // uniform protocol instead of a first-segment special case.
    let boot_end = (seg.start + cfg.lookahead).min(cfg.steps);
    for s0 in seg.start..boot_end {
        for &g in &streams {
            let keys = shared.workload.keys(s0, g);
            shared.step.ring.publish(g, s0, keys, &mut scratch.dedup);
        }
    }
    barrier.wait();

    // Sample-queue prefetch (paper §3.2): each member registers its own
    // shards' reads of the segment's first L steps before its first step.
    // At run start no writes exist yet, so this issues no queue
    // operations; at a continuation segment the R-bitset registration is
    // idempotent against the previous owner's.
    if registers_reads {
        for s0 in seg.start..boot_end {
            register_own_reads(shared, smap, t, s0, &mut scratch);
        }
    }

    for s in seg.start..seg.end {
        // Double-buffered sampling: draw and plan step `s + L`'s batches
        // for this member's streams *now*, before the wait condition, so
        // sample generation overlaps the stall window instead of sitting
        // on the critical path; the plans consumed below were published L
        // steps ago.
        let sample_span = rec.span(s, LedgerPhase::Sample);
        let ahead = s + cfg.lookahead;
        if ahead < cfg.steps {
            for &g in &streams {
                let keys = shared.workload.keys(ahead, g);
                shared.step.ring.publish(g, ahead, keys, &mut scratch.dedup);
            }
        }
        drop(sample_span);
        // The strategy's wait condition — P²F's `PQ.top() > s` (§3.3), or
        // FIFO's "all writes < s flushed". The physical wait enforces
        // consistency and is what the ledger's `stall_wait` measures; the
        // *reported* stall is priced after the run from blocking-row counts
        // (see `crate::price`), because a host with fewer cores than
        // threads cannot exhibit the overlap a multi-core controller has.
        if !cfg.skip_wait {
            if let Some(th) = shared.strategy.wait_threshold(s) {
                let blocked = |shared: &RunShared<'_>| {
                    wait::blocked_at(shared.pq.as_ref(), &shared.flush.inflight, th)
                };
                if blocked(shared) {
                    // Stall attribution: what is this wait blocked *on*?
                    // The lowest deadline across the queue top and
                    // in-flight flushes, the outstanding backlog, the
                    // queue depth, and (best effort) a key sitting at the
                    // blocking priority.
                    let floor = wait::pending_floor(shared.pq.as_ref(), &shared.flush.inflight);
                    let pending = shared.gstore.pending_keys() as u64;
                    let (queue_depth, blocking_key) = if cfg.telemetry.is_enabled() {
                        (shared.pq.len() as u64, shared.pq.peek_top().map(|(k, _)| k))
                    } else {
                        (0, None)
                    };
                    let span = rec.span_with(
                        s,
                        LedgerPhase::StallWait,
                        &[("blocking_priority", floor), ("pending_keys", pending)],
                    );
                    // About to give up the core: hand it to a flusher.
                    shared.flush.notify_all();
                    shared.flush.wait_until(|| !blocked(shared));
                    let wait_ns = span.finish();
                    if wait_ns > 0 {
                        cfg.telemetry.record_stall(StallRecord {
                            step: s,
                            wait_ns,
                            blocking_priority: floor,
                            pending_keys: pending,
                            queue_depth,
                            blocking_key,
                        });
                    }
                }
            }
        }

        // Each of this member's streams runs the full forward/backward
        // sequence in stream-index order (streams_of yields ascending):
        // the same per-(stream, step) calls a full cohort makes, just
        // grouped onto fewer threads.
        for &g in &streams {
            // Batch hand-off: this stream's plan was published `L` steps
            // ago (or in the bootstrap). The read guard pins the slot
            // through the forward pass — safe, because only this member
            // republishes the slot, at step `s + 2`, long after the guard
            // drops.
            let plan = shared.step.ring.read(g, s);

            // Forward pass 1 — cache query: the plan's owned unique keys
            // served from the local cache, the rest collected as misses.
            // All staging buffers are per-member scratch — cleared, never
            // re-allocated.
            let cq_span = rec.span(s, LedgerPhase::CacheQuery);
            let unique_n = plan.unique().len();
            scratch.urows.resize(unique_n * dim, 0.0);
            let (urows, at) = (&mut scratch.urows, |i: usize| i * dim..(i + 1) * dim);
            member::query(cache, smap, t, &plan, &mut scratch.missing, |i, row| {
                frugal_embed::kernels::copy(&mut urows[at(i)], row)
            });
            drop(cq_span);

            // Forward pass 2 — host reads (UVA zero-copy) for the misses,
            // each owned one filled with the row just read and the host
            // path's optimizer state for it (safe: the wait condition
            // guarantees this key has no in-flight updates while it is
            // being read).
            let missing = &scratch.missing;
            let hr_span =
                rec.span_with(s, LedgerPhase::HostRead, &[("rows", missing.len() as u64)]);
            let fills = member::fill(
                cache,
                smap,
                t,
                missing,
                &mut scratch.urows,
                |urows, m, i, key| {
                    // The misses are all known: overlap their DRAM latencies.
                    shared.store.prefetch_ahead(missing, m, |&(_, key)| key);
                    // Verify the consistency invariant first when checking is on.
                    if cfg.checked && !shared.gstore.invariant_holds(key, s) {
                        shared.metrics.violations.incr();
                    }
                    shared.store.read_row(key, &mut urows[at(i)]);
                },
                |urows, i, key, row, state| {
                    row.copy_from_slice(&urows[at(i)]);
                    shared.rule.copy_state(key, state);
                },
            );
            drop(hr_span);

            // Scatter unique rows to per-instance rows for the model.
            let scatter_span = rec.span(s, LedgerPhase::Scatter);
            scratch.rows.resize(plan.keys().len() * dim, 0.0);
            for (row, &u) in scratch.rows.chunks_exact_mut(dim).zip(plan.index()) {
                let u = u as usize;
                frugal_embed::kernels::copy(row, &scratch.urows[u * dim..(u + 1) * dim]);
            }
            drop(scatter_span);

            let compute_span = rec.span(s, LedgerPhase::Compute);
            let grads = shared
                .model
                .forward_backward(g, s, plan.keys(), &scratch.rows);

            // Aggregate this stream's gradients per key in arrival order,
            // addressed by the plan's index — no hashing (the arena is
            // reused: swapped into the stream's deposit slot below, read by
            // the reducers, swapped back for the next stream/step).
            scratch.agg.clear();
            scratch.agg.resize(unique_n * dim, 0.0);
            for (&u, grad) in plan.index().iter().zip(grads.emb_grads.chunks_exact(dim)) {
                let u = u as usize;
                frugal_embed::kernels::add(&mut scratch.agg[u * dim..(u + 1) * dim], grad);
            }
            drop(compute_span);

            // Deposit: hand the aggregates to the reducers, and count the
            // stream's work into the member's own record.
            let _deposit = rec.span(s, LedgerPhase::Deposit);
            counts.stream(g, unique_n, scratch.missing.len(), fills, grads.loss);
            // The plan guard is released before the barrier: the slot is
            // republished (by this member) only at step s + 2.
            drop(plan);
            // The swapped-out arena still holds step s - 1's sums (the
            // reduce only *reads* the deposit slots); its readers all
            // finished before barrier C of step s - 1, so the next clear
            // may overwrite it.
            let mut slot = shared.step.agg_slots[g].write();
            std::mem::swap(&mut *slot, &mut scratch.agg);
        }

        // Barrier A: every stream's aggregates deposited.
        let a = {
            let _span = rec.span(s, LedgerPhase::BarrierA);
            barrier.wait()
        };
        if a.is_leader() {
            let _span = rec.span(s, LedgerPhase::LeaderApply);
            step::leader_prepare(shared, s);
        }
        // One member-local pass to barrier C. Decentralized reduce: fold
        // this member's owned keys across all deposit slots (stream index
        // order — canonical) into this member's update slot.
        let reduce_span = rec.span(s, LedgerPhase::Reduce);
        let rows = step::reduce_own_shard(shared, smap, t, s, &mut scratch.fold, updates);
        match cfg.flush_mode {
            // The write-through flush the paper describes, sharded by key
            // ownership: each member pushes its owned rows to host memory
            // inside the barrier (the real apply runs at host-memcpy speed
            // and is not representative; the cost model supplies the
            // stall). Applied through the shared rule — the same host-path
            // state the flushers would use — so stateful optimizers expose
            // correct `copy_state`s to cache fills in this mode too.
            // Ownership partitions the key space, so the concurrent applies
            // touch disjoint rows and need no coordination.
            FlushMode::WriteThrough => {
                frugal_embed::apply_updates(shared.store, shared.rule.as_ref(), updates)
            }
            // The flushers apply what registration queues.
            FlushMode::P2f | FlushMode::Fifo => {}
        }
        drop(reduce_span);
        // Registration reads only the slot this member just wrote, so it
        // needs no barrier behind the reduce.
        let read_next = register_phase(shared, smap, rec, s, t, updates, &mut scratch, cache);
        counts.step(streams.len(), rows, read_next);
        // Barrier C: registration complete — the step's entries are all
        // queued before any member can evaluate step s + 1's wait
        // condition. The C-leader raises the scan bound concurrently. A
        // member that will wait here for a sibling wakes the flushers first,
        // so they run on the core it gives up (see `FlushCoord`).
        let c = {
            let _span = rec.span(s, LedgerPhase::BarrierC);
            barrier.wait_then(|| {
                if proactive {
                    shared.flush.notify_all();
                }
            })
        };
        if c.is_leader() {
            let _span = rec.span(s, LedgerPhase::LeaderApply);
            step::leader_finish(shared, s);
        }
    }
}
