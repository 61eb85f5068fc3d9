//! The modeled clock: a finished run's counts, priced by `frugal-sim`.
//!
//! The engine's threads price nothing. Each member appends exact integer
//! counts to its own [`CountRecord`], and [`price_run`] prices every
//! record on the run thread once the last segment has joined. No lock,
//! atomic or barrier carries a modeled number, so the price is a pure
//! function of `(seed, config)` by construction.

use crate::config::{FlushMode, FrugalConfig, PqKind};
use crate::engine::Segment;
use crate::model::EmbeddingModel;
use frugal_sim::{HostPath, IterBreakdown, Nanos, PqCost, RunStats};

/// One stream's forward pass at one step, as the member that ran it saw it.
#[derive(Debug, Clone, Copy)]
struct StreamCounts {
    stream: u32,
    /// Distinct keys of the batch.
    unique: u32,
    /// Unique keys the member's cache did not serve.
    host_reads: u32,
    /// Host reads the cache accepted as fills.
    fills: u32,
    loss: f32,
}

/// Counts compare; the loss is numerics, which the walk does not run (the
/// serial oracle checks it).
impl PartialEq for StreamCounts {
    fn eq(&self, other: &Self) -> bool {
        let counts = |c: &Self| (c.stream, c.unique, c.host_reads, c.fills);
        counts(self) == counts(other)
    }
}

/// One member's step: how many streams it ran (their [`StreamCounts`]
/// precede this entry in the record), and its share of the reduce and
/// registration.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemberCounts {
    streams: u32,
    /// Rows in the member's update slot after the reduce.
    rows: u32,
    /// Registered rows whose next read is the next step (P²F's blocking
    /// rows; 0 under the other modes).
    read_next: u32,
}

/// Everything one member counted over the run, one [`MemberCounts`] per
/// step it was a member of, in step order across segments — the step
/// itself is implicit. Written only by that member's thread; read after
/// the run has joined.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct CountRecord {
    streams: Vec<StreamCounts>,
    steps: Vec<MemberCounts>,
}

impl CountRecord {
    /// Makes room for `steps` more steps of `streams` streams each, so
    /// counting them never grows the record.
    pub(crate) fn reserve(&mut self, steps: usize, streams: usize) {
        self.streams.reserve(steps * streams);
        self.steps.reserve(steps);
    }

    /// Counts one stream's forward pass at the current step.
    pub(crate) fn stream(
        &mut self,
        stream: usize,
        unique: usize,
        host_reads: usize,
        fills: usize,
        loss: f32,
    ) {
        self.streams.push(StreamCounts {
            stream: narrow(stream),
            unique: narrow(unique),
            host_reads: narrow(host_reads),
            fills: narrow(fills),
            loss,
        });
    }

    /// Closes the member's step: the `streams` it just counted, the `rows`
    /// it reduced and the `read_next` its registration returned.
    pub(crate) fn step(&mut self, streams: usize, rows: usize, read_next: u64) {
        self.steps.push(MemberCounts {
            streams: narrow(streams),
            rows: narrow(rows),
            read_next: narrow(read_next),
        });
    }
}

/// Every member's count record over a run, indexed by trainer id: what
/// the engine's members counted ([`crate::FrugalEngine::run_counted`]) or
/// what the key-stream walk decides ([`crate::walk_counts`]). Two are equal
/// when every count of every member's every step is; losses are left out.
#[derive(Debug, PartialEq)]
pub struct RunCounts(pub(crate) Vec<CountRecord>);

/// Narrows a count to the record's width. Every count is bounded by one
/// step's sampled keys, far below `u32::MAX`.
fn narrow(n: impl TryInto<u32>) -> u32 {
    n.try_into().ok().expect("a step's count exceeds u32")
}

/// The whole run on the modeled clock, and the cache outcomes it counted.
pub(crate) struct PricedRun {
    pub(crate) stats: RunStats,
    /// Mean modeled g-entry registration time per step.
    pub(crate) mean_gentry_update: Nanos,
    pub(crate) first_loss: f32,
    pub(crate) final_loss: f32,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) fills: u64,
    /// Rows the flushers apply: every reduced row under the proactive
    /// modes, none under write-through.
    pub(crate) flush_rows: u64,
}

/// Every system's per-GPU dense share of a step: the `all_to_all` of the
/// dense parameters (none without them) and the DNN's forward and
/// backward over one GPU's slice of the batch.
pub(crate) fn dense_prices(
    cfg: &FrugalConfig,
    model: &dyn EmbeddingModel,
    samples_per_step: u64,
) -> (Nanos, Nanos) {
    let cost = &cfg.cost;
    let comm = match model.dense_param_bytes() {
        0 => Nanos::ZERO,
        bytes => cost.all_to_all(bytes),
    };
    let batch_per_gpu = samples_per_step / cfg.n_gpus() as u64;
    let dnn = cost.dnn_time(
        model.dense_flops_per_sample() * batch_per_gpu as f64,
        model.dense_layers().max(1),
    );
    (comm, dnn)
}

/// Prices every step of the run from the members' records. `segments`
/// gives each step's members; `records` is indexed by trainer id;
/// `cfg.pq` and `capacity` (the store's key count) set how dequeues scale:
/// the two-level PQ dequeues lock-free, a tree heap funnels every dequeue
/// through its root.
///
/// Per step: each stream's comm / host DRAM / cache / DNN price, the max of
/// each over the streams, then the registration and stall prices from the
/// members' row counts, then the oversubscription charge on `other`. The
/// loss is the stream-index-order sum over the stream count.
pub(crate) fn price_run(
    cfg: &FrugalConfig,
    model: &dyn EmbeddingModel,
    capacity: u64,
    samples_per_step: u64,
    segments: &[Segment],
    records: &[CountRecord],
) -> PricedRun {
    let cost = &cfg.cost;
    let n_streams = cfg.n_gpus();
    let row_bytes = (model.dim() * 4) as u64;
    let pq_cost = match cfg.pq {
        PqKind::TwoLevel => PqCost::Concurrent,
        PqKind::TreeHeap => PqCost::Serialized { capacity },
    };
    let (comm, dnn) = dense_prices(cfg, model, samples_per_step);

    // Per member, the next unread step and stream entries of its record.
    let mut next = vec![(0usize, 0usize); records.len()];
    let mut rows = Vec::new();
    let mut losses = vec![0.0f32; n_streams];
    let mut stats = RunStats::new(samples_per_step);
    let (mut first_loss, mut final_loss) = (0.0, 0.0);
    let mut gentry_sum = Nanos::ZERO;
    let (mut hits, mut misses, mut fills, mut flush_rows) = (0, 0, 0, 0);
    for seg in segments {
        // The controller/flushers contend with trainers for CPU cores:
        // charge the configuration's oversubscription factor on the
        // critical-path registration time (the Fig 17 "too many flushing
        // threads divert CPU" effect). The trainer count is the epoch's
        // *member* count — a shrunk cohort occupies fewer cores.
        let oversub = cost.cpu_oversubscription(seg.members.len() + cfg.flush_threads + 2);
        for _ in seg.start..seg.end {
            // Each stream's price, then the max over the streams.
            let mut it = IterBreakdown {
                comm,
                other: dnn,
                ..IterBreakdown::default()
            };
            rows.clear();
            let mut read_next = 0u64;
            let mut streams_seen = 0;
            for &t in &seg.members {
                let (step_ix, stream_ix) = &mut next[t];
                let m = records[t].steps[*step_ix];
                *step_ix += 1;
                let ran = &records[t].streams[*stream_ix..*stream_ix + m.streams as usize];
                *stream_ix += ran.len();
                for c in ran {
                    let host_dram =
                        cost.host_read(HostPath::Uva, c.host_reads.into(), row_bytes, n_streams);
                    let cache =
                        cost.cache_query(c.unique.into()) + cost.cache_update(c.fills.into());
                    it.host_dram = it.host_dram.max(host_dram);
                    it.cache = it.cache.max(cache);
                    losses[c.stream as usize] = c.loss;
                    hits += u64::from(c.unique - c.host_reads);
                    misses += u64::from(c.host_reads);
                    fills += u64::from(c.fills);
                }
                streams_seen += ran.len();
                rows.push(u64::from(m.rows));
                read_next += u64::from(m.read_next);
            }
            debug_assert_eq!(streams_seen, n_streams, "every stream runs every step");
            let total_rows: u64 = rows.iter().sum();
            let (gentry_time, stall) = match cfg.flush_mode {
                // Write-through has no g-entries; its synchronous flush of
                // the whole update list is the stall. The non-critical-path
                // flush writes of the proactive modes are *not* charged —
                // that is precisely Frugal's point.
                FlushMode::WriteThrough => (Nanos::ZERO, cost.sync_flush(total_rows, n_streams)),
                mode => {
                    flush_rows += total_rows;
                    // Which rows gate the next wait: the ones written now
                    // that the next step reads under P²F, every written row
                    // under FIFO — so FIFO ≥ P²F holds row for row.
                    let blocking = match mode {
                        FlushMode::Fifo => total_rows,
                        _ => read_next,
                    };
                    (
                        cost.gentry_registration(rows.iter().copied(), row_bytes, pq_cost),
                        cost.flush_stall(blocking, row_bytes, cfg.flush_threads, pq_cost),
                    )
                }
            };
            it.other += gentry_time * oversub + cost.framework_frugal();
            it.stall = stall;
            // Loss normalizes by the *stream* count: every stream ran
            // regardless of the cohort width, so the mean matches the
            // serial oracle's.
            let loss = losses.iter().fold(0.0f32, |sum, &l| sum + l) / n_streams as f32;
            if stats.is_empty() {
                first_loss = loss;
            }
            final_loss = loss;
            gentry_sum += gentry_time;
            stats.push(it);
        }
    }
    PricedRun {
        mean_gentry_update: gentry_sum / (stats.len() as u64).max(1),
        stats,
        first_loss,
        final_loss,
        hits,
        misses,
        fills,
        flush_rows,
    }
}
