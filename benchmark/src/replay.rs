//! The layer replay: one thread drives the workload's real key stream
//! through the layers' public functions in the engine's order, with a span
//! and a row count around every call.
//!
//! Per step and stream: `SyntheticTrace::gpu_keys` → dedup →
//! `GpuCache::get` → `HostStore::read_row` → `GpuCache::insert_from_slice`
//! → `forward_backward` → `GradAggregator::add`; then per owner the reduce
//! (`add` over the deposit slots, `drain_arcs`), the owner's cache update
//! and, under write-through, `apply_updates`; under P²F the registration
//! (`GEntryStore::add_writes_batch` / `add_reads_batch` for step `s + L`,
//! over a priority-queue wrapper that times and counts each trait call as
//! a child span) and one flusher's drain (`dequeue_batch_guarded` →
//! `take_writes_into` → `apply_claims`) until the queue is empty.
//!
//! The replay is not the engine: one thread, no contention, a flusher that
//! always keeps up. It makes the same calls with the same keys, priorities
//! and batch sizes — its host store ends bit-identical to the serial
//! oracle's, which a test checks — and that is what a per-row cost needs;
//! the `recon.*` ratios say how far the sum of those costs is from the
//! engine's ledger.

use crate::rep::RepOutput;
use crate::spans::{chrome_events, totals_by_name, NameTotal, Span, SpanLog};
use crate::workloads::{Plan, WorkloadSpec, BATCH_PER_GPU, DIM, FLUSH_BATCH, LOOKAHEAD, N_GPUS};
use frugal_core::{EmbeddingModel, GEntryStore, PendingWrites, PqOpScratch, ShardMap};
use frugal_data::{Key, KeyHashMap, KeyHashSet};
use frugal_embed::{
    apply_claims, apply_updates, kernels, FlushClaim, GpuCache, GradAggregator, HostStore,
    InsertOutcome, Sharding,
};
use frugal_pq::{Priority, PriorityQueue, TwoLevelPq, INFINITE};
use frugal_tensor::RowOptimizer;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `TwoLevelPq` behind the `PriorityQueue` trait, with a span around every
/// operation that does work. The g-entry store calls these from inside its
/// batch registration, so they nest under the `gentry.*` span open in the
/// same log and are subtracted from its self time.
#[derive(Debug)]
struct TimedPq {
    inner: TwoLevelPq,
    log: Arc<SpanLog>,
}

impl PriorityQueue for TimedPq {
    fn enqueue(&self, key: u64, priority: Priority) {
        self.log
            .time("pq.enqueue", || (self.inner.enqueue(key, priority), 1));
    }

    fn adjust(&self, key: u64, old: Priority, new: Priority) {
        self.log
            .time("pq.adjust", || (self.inner.adjust(key, old, new), 1));
    }

    fn enqueue_batch(&self, items: &[(u64, Priority)]) {
        if !items.is_empty() {
            let n = items.len() as u64;
            self.log
                .time("pq.enqueue", || (self.inner.enqueue_batch(items), n));
        }
    }

    fn adjust_batch(&self, moves: &[(u64, Priority, Priority)]) {
        if !moves.is_empty() {
            let n = moves.len() as u64;
            self.log
                .time("pq.adjust", || (self.inner.adjust_batch(moves), n));
        }
    }

    fn dequeue_batch(&self, max: usize, out: &mut Vec<(u64, Priority)>) {
        let before = out.len();
        self.log.time("pq.dequeue", || {
            self.inner.dequeue_batch(max, out);
            ((), (out.len() - before) as u64)
        });
    }

    fn dequeue_batch_guarded(&self, max: usize, out: &mut Vec<(u64, Priority)>, guard: &AtomicU64) {
        let before = out.len();
        self.log.time("pq.dequeue", || {
            self.inner.dequeue_batch_guarded(max, out, guard);
            ((), (out.len() - before) as u64)
        });
    }

    fn top_priority(&self) -> Priority {
        self.inner.top_priority()
    }

    fn peek_top(&self) -> Option<(u64, Priority)> {
        self.inner.peek_top()
    }

    fn set_upper_bound(&self, upper: Priority) {
        self.inner.set_upper_bound(upper);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// The P²F-only layers of a replay.
struct Deferred {
    gstore: GEntryStore,
    pq: TimedPq,
    pq_ops: PqOpScratch,
    /// One bucket per g-entry shard, refilled per owner.
    write_bufs: Vec<Vec<(Key, Arc<[f32]>)>>,
    read_bufs: Vec<Vec<Key>>,
    read_seen: KeyHashSet,
    guard: AtomicU64,
    dequeued: Vec<(u64, Priority)>,
    writes: PendingWrites,
    claims: Vec<FlushClaim>,
}

/// How many of the replay's newest steps its exported trace covers.
const TRACE_STEPS: u64 = 50;

/// Replays `plan.replay_warmup + plan.replay` steps. Returns the spans of
/// the last `plan.replay` (in entry order), the g-entry metadata bytes per
/// live entry after the last step's registration (0 under write-through),
/// and the host store it trained.
fn run_replay(spec: &WorkloadSpec, plan: &Plan, seed: u64) -> (Vec<Span>, f64, HostStore) {
    let steps = plan.replay_warmup + plan.replay;
    let trace = spec.trace(seed);
    let model = spec.model(seed);
    let cfg = spec.config(steps, seed);
    let store = HostStore::new(spec.n_keys, DIM, seed);
    let rule = spec.optimizer.build_shared(cfg.lr, spec.n_keys, DIM, false);
    let smap = ShardMap::initial(N_GPUS, GEntryStore::n_shards());
    let sharding = Sharding::new(N_GPUS);
    let mut caches: Vec<GpuCache> = (0..N_GPUS)
        .map(|_| {
            let cap = sharding.cache_capacity(spec.n_keys, spec.cache_ratio);
            let mut cache = GpuCache::new(cap, DIM, spec.cache_policy);
            cache.set_hot_threshold(sharding.hot_threshold(spec.n_keys, spec.cache_ratio));
            cache
        })
        .collect();
    // The cache-side optimizer mirrors: cached copies see the same
    // gradient sequence as the host rows.
    let mut cache_opts: Vec<Box<dyn RowOptimizer>> = (0..N_GPUS)
        .map(|_| spec.optimizer.build_local(cfg.lr))
        .collect();
    // ~400 spans a step: two registration calls per shard, each with a
    // queue child, dominate.
    let log = Arc::new(SpanLog::new(Instant::now(), 0, plan.replay as usize * 512));
    let mut deferred = spec.proactive().then(|| Deferred {
        gstore: GEntryStore::new(),
        pq: TimedPq {
            inner: TwoLevelPq::new(steps + LOOKAHEAD + 2),
            log: Arc::clone(&log),
        },
        pq_ops: PqOpScratch::default(),
        write_bufs: vec![Vec::new(); GEntryStore::n_shards()],
        read_bufs: vec![Vec::new(); GEntryStore::n_shards()],
        read_seen: KeyHashSet::default(),
        guard: AtomicU64::new(INFINITE),
        dequeued: Vec::with_capacity(FLUSH_BATCH),
        writes: PendingWrites::new(),
        claims: Vec::with_capacity(FLUSH_BATCH),
    });
    if let Some(d) = &deferred {
        d.pq.set_upper_bound(LOOKAHEAD + 1);
    }

    // The sample ring: step `s + L` is drawn at step `s`, as the engine's
    // double-buffered sampling does; `L + 2` slots like the engine's.
    let ring_len = LOOKAHEAD + 2;
    let slot_of = |step: u64| (step % ring_len) as usize;
    let mut ring: Vec<Vec<Vec<Key>>> = vec![vec![Vec::new(); ring_len as usize]; N_GPUS];

    let mut index_of: KeyHashMap<usize> = KeyHashMap::default();
    let mut unique: Vec<Key> = Vec::new();
    let mut urows: Vec<f32> = Vec::new();
    let mut rows: Vec<f32> = Vec::new();
    let mut missing: Vec<(usize, Key)> = Vec::new();
    let mut filled: Vec<Key> = Vec::new();
    let mut aggs: Vec<GradAggregator> = (0..N_GPUS).map(|_| GradAggregator::new(DIM)).collect();
    let mut merged = GradAggregator::new(DIM);
    let mut updates: Vec<(Key, Arc<[f32]>)> = Vec::new();
    let mut gentry_bytes_per_key = 0.0;

    // Bootstrap (untimed): the first L steps' batches and, under P²F,
    // their read registrations — no writes exist yet, so no queue traffic.
    log.begin_step(0, false);
    for s0 in 0..LOOKAHEAD.min(steps) {
        for (g, stream) in ring.iter_mut().enumerate() {
            stream[slot_of(s0)] = trace.gpu_keys(s0, g);
        }
        if let Some(d) = &mut deferred {
            for t in 0..N_GPUS {
                register_reads(d, &log, &smap, t, s0, &ring, slot_of(s0));
            }
        }
    }

    for s in 0..steps {
        log.begin_step(s, s >= plan.replay_warmup);
        let ahead = s + LOOKAHEAD;
        for g in 0..N_GPUS {
            if ahead < steps {
                ring[g][slot_of(ahead)] = log.time("data.sample", || {
                    (trace.gpu_keys(ahead, g), BATCH_PER_GPU as u64)
                });
            }
            let keys = &ring[g][slot_of(s)];
            let cache = &mut caches[g];
            cache.begin_step(s);

            log.time("replay.dedup", || {
                index_of.clear();
                unique.clear();
                for &key in keys {
                    if let std::collections::hash_map::Entry::Vacant(e) = index_of.entry(key) {
                        e.insert(unique.len());
                        unique.push(key);
                    }
                }
                ((), keys.len() as u64)
            });
            urows.clear();
            urows.resize(unique.len() * DIM, 0.0);
            log.time("cache.get", || {
                missing.clear();
                let mut gets = 0;
                for (i, &key) in unique.iter().enumerate() {
                    if smap.owns_key(g, key) {
                        gets += 1;
                        if let Some(row) = cache.get(&key) {
                            kernels::copy(&mut urows[i * DIM..(i + 1) * DIM], row);
                            continue;
                        }
                    }
                    missing.push((i, key));
                }
                ((), gets)
            });
            log.time("store.read", || {
                for &(i, key) in &missing {
                    store.read_row(key, &mut urows[i * DIM..(i + 1) * DIM]);
                }
                ((), missing.len() as u64)
            });
            // The engine fills right after each read; keys are unique
            // within a stream's step, so filling after all reads is the
            // same sequence of cache calls. The admission filter runs over
            // every miss, the insert over the few it lets through: two
            // spans, so neither's per-row cost carries the other's loop.
            log.time("cache.admit", || {
                let examined = missing.len() as u64;
                missing.retain(|&(_, key)| smap.owns_key(g, key) && cache.admits(key));
                ((), examined)
            });
            log.time("cache.insert", || {
                filled.clear();
                for &(i, key) in &missing {
                    let row = &urows[i * DIM..(i + 1) * DIM];
                    if cache.insert_from_slice(key, row) != InsertOutcome::Rejected {
                        filled.push(key);
                    }
                }
                ((), missing.len() as u64)
            });
            // A stateful optimizer's host-side row state seeds the mirror.
            log.time("state.seed", || {
                for &key in &filled {
                    if let Some(state) = rule.state_snapshot(key) {
                        cache_opts[g].seed_state(key, state);
                    }
                }
                ((), filled.len() as u64)
            });
            log.time("replay.scatter", || {
                rows.clear();
                rows.resize(keys.len() * DIM, 0.0);
                for (i, key) in keys.iter().enumerate() {
                    let u = index_of[key];
                    kernels::copy(
                        &mut rows[i * DIM..(i + 1) * DIM],
                        &urows[u * DIM..(u + 1) * DIM],
                    );
                }
                ((), keys.len() as u64)
            });
            let grads = log.time("model.fwd_bwd", || {
                (model.forward_backward(g, s, keys, &rows), keys.len() as u64)
            });
            log.time("agg.add", || {
                for (i, &key) in keys.iter().enumerate() {
                    aggs[g].add(key, &grads.emb_grads[i * DIM..(i + 1) * DIM]);
                }
                ((), keys.len() as u64)
            });
        }
        // Ownership lookups sit inside query, reduce and registration;
        // timed here on their own over the last stream's unique keys.
        log.time("shardmap.owner", || {
            for &key in &unique {
                black_box(smap.owner_of(black_box(key)));
            }
            ((), unique.len() as u64)
        });

        for t in 0..N_GPUS {
            // The decentralized reduce: owner `t` folds its keys across
            // every stream's deposit, in stream order.
            log.time("agg.merge", || {
                merged.clear();
                for agg in &aggs {
                    for (key, grad) in agg.entries() {
                        if smap.owns_key(t, key) {
                            merged.add(key, grad);
                        }
                    }
                }
                ((), merged.len() as u64)
            });
            log.time("agg.drain", || {
                updates.clear();
                merged.drain_arcs(&mut updates);
                ((), updates.len() as u64)
            });
            log.time("cache.apply", || {
                for (key, grad) in &updates {
                    if let Some(row) = caches[t].get_mut(key) {
                        cache_opts[t].update_row(*key, row, grad);
                    }
                }
                ((), updates.len() as u64)
            });
            match &mut deferred {
                None => log.time("store.write", || {
                    apply_updates(&store, rule.as_ref(), &updates);
                    ((), updates.len() as u64)
                }),
                Some(d) => {
                    log.time("replay.bucket", || {
                        for buf in &mut d.write_bufs {
                            buf.clear();
                        }
                        for (key, grad) in &updates {
                            d.write_bufs[GEntryStore::shard_of(*key)]
                                .push((*key, Arc::clone(grad)));
                        }
                        ((), updates.len() as u64)
                    });
                    for buf in d.write_bufs.iter().filter(|b| !b.is_empty()) {
                        log.time("gentry.add_writes", || {
                            d.gstore.add_writes_batch(s, buf, &d.pq, &mut d.pq_ops);
                            ((), buf.len() as u64)
                        });
                    }
                    if ahead < steps {
                        register_reads(d, &log, &smap, t, ahead, &ring, slot_of(ahead));
                    }
                }
            }
        }
        for agg in &mut aggs {
            agg.clear();
        }

        if let Some(d) = &mut deferred {
            if s + 1 == steps {
                let entries = d.gstore.len().max(1);
                gentry_bytes_per_key = d.gstore.resident_bytes() as f64 / entries as f64;
            }
            d.pq.set_upper_bound(s + 1 + LOOKAHEAD);
            drain(d, &log, &store, rule.as_ref());
        }
    }
    drop(deferred);

    let spans = Arc::into_inner(log)
        .expect("the queue wrapper is dropped")
        .into_spans();
    (spans, gentry_bytes_per_key, store)
}

/// The replay run: per-row self times of every layer call, and the trace
/// of its newest [`TRACE_STEPS`] steps.
pub fn replay(
    spec: &WorkloadSpec,
    plan: &Plan,
    seed: u64,
    trace_path: Option<&std::path::Path>,
) -> RepOutput {
    let (spans, gentry_bytes_per_key, _store) = run_replay(spec, plan, seed);
    let steps = plan.replay_warmup + plan.replay;
    let mut out = report(
        &totals_by_name(&spans),
        plan.replay as f64,
        spec.proactive(),
    );
    out.set("count.gentry_bytes_per_key", gentry_bytes_per_key);
    if let Some(path) = trace_path {
        let kept: Vec<Span> = {
            // Parent indices must stay valid: keep a suffix, re-base them.
            let from = spans
                .iter()
                .position(|s| s.step + TRACE_STEPS >= steps && s.parent.is_none())
                .unwrap_or(spans.len());
            spans[from..]
                .iter()
                .map(|s| Span {
                    parent: s.parent.map(|p| p - from),
                    ..s.clone()
                })
                .collect()
        };
        let events = chrome_events(&kept, 2, &[(0, "layer replay (one thread)".to_owned())]);
        let doc = crate::jsonio::obj(vec![
            ("displayTimeUnit", crate::jsonio::text("ms")),
            ("traceEvents", frugal_telemetry::json::Json::Arr(events)),
        ]);
        if let Err(e) = std::fs::write(path, crate::jsonio::to_line(&doc)) {
            out.failures
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    out
}

/// Owner `t`'s read registration for `read_step`: filter every stream's
/// batch to the shards `t` owns, dedup into shard buckets, one
/// `add_reads_batch` per bucket — `trainer::register_own_reads`' shape.
fn register_reads(
    d: &mut Deferred,
    log: &SpanLog,
    smap: &ShardMap,
    t: usize,
    read_step: u64,
    ring: &[Vec<Vec<Key>>],
    slot: usize,
) {
    log.time("replay.read_filter", || {
        for buf in &mut d.read_bufs {
            buf.clear();
        }
        d.read_seen.clear();
        let mut scanned = 0;
        for stream in ring {
            for &key in &stream[slot] {
                scanned += 1;
                let sid = GEntryStore::shard_of(key);
                if smap.owner_of_shard(sid) == t && d.read_seen.insert(key) {
                    d.read_bufs[sid].push(key);
                }
            }
        }
        ((), scanned)
    });
    for buf in d.read_bufs.iter().filter(|b| !b.is_empty()) {
        log.time("gentry.add_reads", || {
            d.gstore
                .add_reads_batch(read_step, buf, &d.pq, &mut d.pq_ops);
            ((), buf.len() as u64)
        });
    }
}

/// One flusher's loop body, repeated until the queue yields nothing:
/// guarded dequeue, key-sorted claim, apply — `flusher::flusher_loop`'s
/// shape without the parking.
fn drain(d: &mut Deferred, log: &SpanLog, store: &HostStore, rule: &dyn frugal_embed::UpdateRule) {
    loop {
        d.dequeued.clear();
        d.pq.dequeue_batch_guarded(FLUSH_BATCH, &mut d.dequeued, &d.guard);
        if d.dequeued.is_empty() {
            return;
        }
        log.time("gentry.take_writes", || {
            d.dequeued.sort_unstable();
            d.writes.clear();
            d.claims.clear();
            for &(key, bucket_p) in &d.dequeued {
                let start = d.writes.len();
                let n = d.gstore.take_writes_into(key, bucket_p, &mut d.writes);
                if n > 0 {
                    d.claims.push((key, start, start + n));
                }
            }
            ((), d.dequeued.len() as u64)
        });
        log.time("flush.apply", || {
            let applied = apply_claims(store, rule, &d.claims, &d.writes);
            ((), applied)
        });
        d.guard.store(INFINITE, Ordering::SeqCst);
    }
}

/// Per-row self times and per-step leg totals from the replay's spans.
fn report(totals: &BTreeMap<&'static str, NameTotal>, steps: f64, proactive: bool) -> RepOutput {
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mut out = RepOutput::default();
    for (metric, span) in [
        ("data.sample_ns_key", "data.sample"),
        ("cache.get_ns_key", "cache.get"),
        ("cache.insert_ns_row", "cache.insert"),
        ("store.read_ns_row", "store.read"),
        ("agg.add_ns_key", "agg.add"),
        ("agg.merge_ns_row", "agg.merge"),
        ("agg.drain_ns_row", "agg.drain"),
        ("gentry.add_writes_ns_row", "gentry.add_writes"),
        ("gentry.add_reads_ns_key", "gentry.add_reads"),
        ("gentry.take_writes_ns_row", "gentry.take_writes"),
        ("pq.enqueue_ns_op", "pq.enqueue"),
        ("pq.adjust_ns_op", "pq.adjust"),
        ("pq.dequeue_ns_row", "pq.dequeue"),
        ("flush.apply_ns_row", "flush.apply"),
        ("shardmap.owner_ns_key", "shardmap.owner"),
        ("model.fwd_bwd_ns_key", "model.fwd_bwd"),
    ] {
        out.set(metric, of(span).self_ns_per_row());
    }
    // Host rows are written by the flush apply under P²F and by the
    // synchronous apply under write-through: one metric, whichever call
    // the workload makes.
    let write = if proactive {
        "flush.apply"
    } else {
        "store.write"
    };
    out.set("store.write_ns_row", of(write).self_ns_per_row());
    out.set("pq.enqueues_per_step", of("pq.enqueue").rows as f64 / steps);
    out.set("pq.adjusts_per_step", of("pq.adjust").rows as f64 / steps);

    // What one trainer (of N_GPUS) or the flusher would spend per step on
    // the calls behind each ledger phase — the numerators of `recon.*`.
    let per_trainer_step = |names: &[&str]| {
        names.iter().map(|n| of(n).total_ns).sum::<u64>() as f64 / steps / N_GPUS as f64
    };
    out.set(
        "replay.cache_query_ns_step",
        per_trainer_step(&["replay.dedup", "cache.get"]),
    );
    out.set(
        "replay.host_read_ns_step",
        per_trainer_step(&["store.read", "cache.admit", "cache.insert", "state.seed"]),
    );
    out.set(
        "replay.compute_ns_step",
        per_trainer_step(&["model.fwd_bwd", "agg.add"]),
    );
    out.set(
        "replay.registration_ns_step",
        per_trainer_step(&[
            "gentry.add_writes",
            "gentry.add_reads",
            "replay.read_filter",
        ]),
    );
    out.set(
        "replay.flush_apply_ns_step",
        of("flush.apply").total_ns as f64 / steps,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn replay_covers_every_live_layer() {
        for w in &WORKLOADS {
            let (spec, plan) = w.tiny();
            let r = replay(&spec, &plan, 7, None);
            assert_eq!(r.failures, Vec::<String>::new(), "{}", w.name);
            for always in [
                "data.sample_ns_key",
                "cache.get_ns_key",
                "store.read_ns_row",
                "store.write_ns_row",
                "agg.add_ns_key",
                "agg.merge_ns_row",
                "agg.drain_ns_row",
                "shardmap.owner_ns_key",
                "model.fwd_bwd_ns_key",
                "replay.compute_ns_step",
            ] {
                assert!(r.get(always) > 0.0, "{} {always}", w.name);
            }
            for p2f_only in [
                "gentry.add_writes_ns_row",
                "gentry.add_reads_ns_key",
                "gentry.take_writes_ns_row",
                "pq.enqueue_ns_op",
                "pq.dequeue_ns_row",
                "pq.enqueues_per_step",
                "flush.apply_ns_row",
                "count.gentry_bytes_per_key",
                "replay.registration_ns_step",
            ] {
                assert_eq!(
                    r.get(p2f_only) > 0.0,
                    spec.proactive(),
                    "{} {p2f_only}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn replay_leaves_the_store_where_the_oracle_does() {
        // The proof that the replay makes the engine's calls in the
        // engine's order: its host store equals the serial oracle's bit
        // for bit, on the stateful-optimizer and the write-through path.
        for name in ["hot", "sync"] {
            let (spec, plan) = crate::workloads::find(name).unwrap().tiny();
            let steps = plan.replay_warmup + plan.replay;
            let oracle = frugal_core::train_serial_with(
                &spec.trace(7),
                &spec.model(7),
                steps,
                spec.config(steps, 7).lr,
                7,
                spec.optimizer,
            );
            let (_, _, store) = run_replay(&spec, &plan, 7);
            for key in 0..spec.n_keys {
                assert_eq!(
                    store.row_vec(key),
                    oracle.store.row_vec(key),
                    "{name}: key {key}"
                );
            }
        }
    }
}
