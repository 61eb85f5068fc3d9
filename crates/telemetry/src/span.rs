//! Phase definitions, per-thread span recorders, and RAII span timers.
//!
//! A [`ThreadRecorder`] is created once per trainer/flusher thread from a
//! [`Telemetry`](crate::Telemetry) handle. Opening a [`Span`] on it stamps
//! the current time; dropping the span records the duration both into the
//! phase's histogram (for percentiles) and into the thread's bounded ring
//! (for Chrome trace export). When telemetry is disabled the recorder is
//! empty and a span is a no-op that never reads the clock.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use crate::registry::Histogram;
use crate::trace::{FlowRecord, FlowSink, SpanEvent, ThreadBuf, TraceCollector};

/// The engine phases that get span timing.
///
/// Trainer-side phases decompose one training iteration the way the
/// paper's Fig. 3c / Fig. 12 decompose iteration time; flusher-side
/// phases decompose background flushing (P²F or write-through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Drawing the iteration's sample keys from the workload.
    Sample,
    /// Resolving unique keys against the GPU embedding caches.
    CacheQuery,
    /// Reading rows missed by every cache from host DRAM.
    HostRead,
    /// Model forward/backward plus gradient aggregation.
    Compute,
    /// Leader-side g-entry registration and PQ updates for one step.
    GEntryUpdate,
    /// Blocking in the P²F wait condition (`PQ.top() > s` violated).
    P2fWait,
    /// Flusher thread pulling a batch out of the priority queue.
    FlushDequeue,
    /// Flusher thread applying dequeued rows to host DRAM.
    FlushApply,
}

impl Phase {
    /// Number of phases (size for per-phase lookup tables).
    pub const COUNT: usize = 8;

    /// Every phase, in a fixed order matching `as usize` indices.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Sample,
        Phase::CacheQuery,
        Phase::HostRead,
        Phase::Compute,
        Phase::GEntryUpdate,
        Phase::P2fWait,
        Phase::FlushDequeue,
        Phase::FlushApply,
    ];

    /// Index into per-phase tables.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The histogram name this phase records into.
    pub fn metric_name(self) -> &'static str {
        match self {
            Phase::Sample => "trainer.sample_ns",
            Phase::CacheQuery => "trainer.cache_query_ns",
            Phase::HostRead => "trainer.host_read_ns",
            Phase::Compute => "trainer.compute_ns",
            Phase::GEntryUpdate => "leader.gentry_update_ns",
            Phase::P2fWait => "trainer.p2f_wait_ns",
            Phase::FlushDequeue => "flusher.dequeue_ns",
            Phase::FlushApply => "flusher.apply_ns",
        }
    }

    /// Short name used for trace events.
    pub fn trace_name(self) -> &'static str {
        match self {
            Phase::Sample => "sample",
            Phase::CacheQuery => "cache_query",
            Phase::HostRead => "host_read",
            Phase::Compute => "compute",
            Phase::GEntryUpdate => "gentry_update",
            Phase::P2fWait => "p2f_wait",
            Phase::FlushDequeue => "flush_dequeue",
            Phase::FlushApply => "flush_apply",
        }
    }

    /// Trace event category (`cat` field in Chrome traces).
    pub fn category(self) -> &'static str {
        match self {
            Phase::Sample
            | Phase::CacheQuery
            | Phase::HostRead
            | Phase::Compute
            | Phase::P2fWait => "trainer",
            Phase::GEntryUpdate => "leader",
            Phase::FlushDequeue | Phase::FlushApply => "flusher",
        }
    }
}

/// Up to two numeric key/value annotations attached to a span
/// (e.g. stall attribution on a P²F wait).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanArgs {
    pairs: [(&'static str, u64); 2],
    len: u8,
}

impl SpanArgs {
    /// No annotations.
    pub const EMPTY: SpanArgs = SpanArgs {
        pairs: [("", 0); 2],
        len: 0,
    };

    /// One annotation.
    pub fn one(k: &'static str, v: u64) -> Self {
        SpanArgs {
            pairs: [(k, v), ("", 0)],
            len: 1,
        }
    }

    /// Two annotations.
    pub fn two(k1: &'static str, v1: u64, k2: &'static str, v2: u64) -> Self {
        SpanArgs {
            pairs: [(k1, v1), (k2, v2)],
            len: 2,
        }
    }

    /// The annotations, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.pairs.iter().take(self.len as usize).copied()
    }

    /// Whether there are no annotations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Per-thread span recorder handed out by
/// [`Telemetry::recorder`](crate::Telemetry::recorder).
///
/// Not `Sync` on purpose: each engine thread owns its recorder, so the
/// sequence counter is a plain [`Cell`] and opening a span costs one
/// clock read plus a cell bump.
#[derive(Debug)]
pub struct ThreadRecorder {
    inner: Option<RecorderInner>,
}

#[derive(Debug)]
pub(crate) struct RecorderInner {
    buf: Arc<ThreadBuf>,
    flows: Arc<FlowSink>,
    epoch: Instant,
    seq: Cell<u64>,
    hists: [Arc<Histogram>; Phase::COUNT],
}

impl ThreadRecorder {
    /// A recorder that does nothing (telemetry off).
    pub fn disabled() -> Self {
        ThreadRecorder { inner: None }
    }

    pub(crate) fn enabled(
        buf: Arc<ThreadBuf>,
        flows: Arc<FlowSink>,
        epoch: Instant,
        hists: [Arc<Histogram>; Phase::COUNT],
    ) -> Self {
        ThreadRecorder {
            inner: Some(RecorderInner {
                buf,
                flows,
                epoch,
                seq: Cell::new(0),
                hists,
            }),
        }
    }

    /// Whether spans opened on this recorder actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits the producing half of a cross-thread flow arrow (Chrome
    /// `ph:"s"`), e.g. a flusher batch that just cleared its in-flight
    /// marker. `id == 0` means "no batch" and is ignored, as is a
    /// disabled recorder.
    pub fn flow_start(&self, id: u64) {
        self.flow(id, true);
    }

    /// Emits the consuming half of a flow arrow (Chrome `ph:"f"`,
    /// binding to the enclosing slice end), e.g. a trainer observing the
    /// stall-clearing batch. `id == 0` is ignored.
    pub fn flow_finish(&self, id: u64) {
        self.flow(id, false);
    }

    fn flow(&self, id: u64, start: bool) {
        let Some(rec) = &self.inner else { return };
        if id == 0 {
            return;
        }
        rec.flows.push(FlowRecord {
            id,
            tid: TraceCollector::tid_of(&rec.buf),
            ts_ns: rec.epoch.elapsed().as_nanos() as u64,
            start,
        });
    }

    /// Opens an unannotated span for `phase`; it records when dropped.
    #[inline]
    pub fn span(&self, phase: Phase) -> Span<'_> {
        self.span_with(phase, SpanArgs::EMPTY)
    }

    /// Records a span retroactively: it began at `start` and ends now.
    ///
    /// For call sites that only decide after the fact whether an interval
    /// is worth recording (e.g. a flusher dequeue poll that found work,
    /// as opposed to thousands of idle polls). Returns the duration in
    /// nanoseconds (0 when disabled). Both sequence numbers are taken at
    /// completion, so ordering versus RAII spans on the same thread stays
    /// consistent as long as the retro span does not overlap one — which
    /// single-threaded phase structure guarantees.
    pub fn record_completed(&self, phase: Phase, start: Instant, args: SpanArgs) -> u64 {
        let Some(rec) = &self.inner else { return 0 };
        let dur_ns = start.elapsed().as_nanos() as u64;
        let begin_seq = rec.seq.get();
        rec.seq.set(begin_seq + 2);
        rec.hists[phase.index()].record(dur_ns);
        rec.buf.push(SpanEvent {
            phase,
            begin_ns: start.duration_since(rec.epoch).as_nanos() as u64,
            dur_ns,
            begin_seq,
            end_seq: begin_seq + 1,
            args,
        });
        dur_ns
    }

    /// Opens a span carrying `args` annotations.
    #[inline]
    pub fn span_with(&self, phase: Phase, args: SpanArgs) -> Span<'_> {
        match &self.inner {
            None => Span(None),
            Some(rec) => {
                let start = Instant::now();
                let seq = rec.seq.get();
                rec.seq.set(seq + 1);
                Span(Some(ActiveSpan {
                    rec,
                    phase,
                    start,
                    begin_ns: start.duration_since(rec.epoch).as_nanos() as u64,
                    begin_seq: seq,
                    args,
                }))
            }
        }
    }
}

/// An in-flight phase timing; completes (histogram + trace ring) on drop.
#[must_use = "a span records its phase duration when dropped"]
#[derive(Debug)]
pub struct Span<'a>(Option<ActiveSpan<'a>>);

#[derive(Debug)]
struct ActiveSpan<'a> {
    rec: &'a RecorderInner,
    phase: Phase,
    start: Instant,
    begin_ns: u64,
    begin_seq: u64,
    args: SpanArgs,
}

impl Span<'_> {
    /// Ends the span now and returns its duration in nanoseconds
    /// (0 when telemetry is disabled).
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        let Some(a) = self.0.take() else {
            return 0;
        };
        let dur_ns = a.start.elapsed().as_nanos() as u64;
        let end_seq = a.rec.seq.get();
        a.rec.seq.set(end_seq + 1);
        a.rec.hists[a.phase.index()].record(dur_ns);
        a.rec.buf.push(SpanEvent {
            phase: a.phase,
            begin_ns: a.begin_ns,
            dur_ns,
            begin_seq: a.begin_seq,
            end_seq,
            args: a.args,
        });
        dur_ns
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// A histogram-only latency probe for hot call sites shared across
/// threads (priority-queue operations, host-store row traffic).
///
/// Unlike [`Span`], a probe emits no trace events — per-op events would
/// flood the ring — and a disabled probe's [`Probe::time`] compiles down
/// to calling the closure.
#[derive(Debug, Clone, Default)]
pub struct Probe(Option<Arc<Histogram>>);

impl Probe {
    /// A probe that does nothing.
    pub fn disabled() -> Self {
        Probe(None)
    }

    pub(crate) fn enabled(h: Arc<Histogram>) -> Self {
        Probe(Some(h))
    }

    /// Whether this probe records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f`, recording its wall time when enabled.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.0 {
            None => f(),
            Some(h) => {
                let t0 = Instant::now();
                let out = f();
                h.record(t0.elapsed().as_nanos() as u64);
                out
            }
        }
    }

    /// RAII variant of [`Probe::time`]: starts the clock now and records
    /// when the returned guard drops. Useful where the timed region has
    /// multiple exits.
    #[inline]
    pub fn timer(&self) -> ProbeTimer<'_> {
        ProbeTimer(self.0.as_deref().map(|h| (h, Instant::now())))
    }
}

/// Guard returned by [`Probe::timer`]; records its lifetime on drop.
#[derive(Debug)]
pub struct ProbeTimer<'a>(Option<(&'a Histogram, Instant)>);

impl Drop for ProbeTimer<'_> {
    fn drop(&mut self) {
        if let Some((h, t0)) = self.0.take() {
            h.record(t0.elapsed().as_nanos() as u64);
        }
    }
}
