//! Per-thread phase recorders and RAII span timers.
//!
//! A [`ThreadRecorder`] is created once per engine thread (trainer,
//! flusher, or the run thread's membership transitions) from a
//! [`Telemetry`](crate::Telemetry) handle. It is the thread's one timer:
//! opening a [`Span`] stamps the current time, and finishing it adds the
//! duration to the thread's ledger cell for the span's step and
//! [`LedgerPhase`], and pushes the same interval into the thread's bounded
//! trace ring (for Chrome trace export). When telemetry is disabled the
//! recorder is empty and a span is a no-op that never reads the clock.

use std::sync::Arc;
use std::time::Instant;

use crate::ledger::{Lane, LedgerPhase};
use crate::trace::{SpanEvent, ThreadBuf};
use crate::Inner;

/// A span's stored annotations: the first two of the `(key, value)` pairs
/// it was opened with (e.g. stall attribution on a P²F wait).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanArgs {
    pairs: [(&'static str, u64); 2],
    len: u8,
}

impl SpanArgs {
    pub(crate) const EMPTY: SpanArgs = SpanArgs {
        pairs: [("", 0); 2],
        len: 0,
    };

    fn new(args: &[(&'static str, u64)]) -> Self {
        debug_assert!(args.len() <= 2, "a span keeps at most two annotations");
        let mut out = SpanArgs::EMPTY;
        for (slot, &pair) in out.pairs.iter_mut().zip(args) {
            *slot = pair;
            out.len += 1;
        }
        out
    }

    /// The annotations, in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.pairs.iter().take(self.len as usize).copied()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Per-thread phase recorder handed out by
/// [`Telemetry::recorder`](crate::Telemetry::recorder): one ledger lane plus
/// one trace track.
///
/// A thread is in one phase at a time: a [`Span`] borrows its recorder
/// mutably, so phases cannot nest, the open span's state lives here, and a
/// span is one pointer (a disabled one costs a branch, not a copy). A
/// recorder may move between threads (a trainer keeps its recorder across
/// membership segments).
#[derive(Debug)]
pub struct ThreadRecorder {
    inner: Option<RecorderInner>,
}

#[derive(Debug)]
pub(crate) struct RecorderInner {
    tel: Arc<Inner>,
    buf: Arc<ThreadBuf>,
    lane: Arc<Lane>,
    /// The open span's step, phase, start and annotations.
    open: (u64, LedgerPhase, Instant, SpanArgs),
}

impl RecorderInner {
    /// Books one finished interval: the ledger cell and the trace ring.
    fn book(&self, step: u64, phase: LedgerPhase, start: Instant, dur_ns: u64, args: SpanArgs) {
        self.lane.add(step, phase, dur_ns);
        self.buf.push(SpanEvent {
            phase,
            begin_ns: start.duration_since(self.tel.epoch).as_nanos() as u64,
            dur_ns,
            args,
        });
    }

    /// Ends the open span now; returns its duration.
    fn close(&mut self) -> u64 {
        let (step, phase, start, args) = self.open;
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.book(step, phase, start, dur_ns, args);
        dur_ns
    }
}

impl ThreadRecorder {
    /// A recorder that does nothing (telemetry off).
    pub fn disabled() -> Self {
        ThreadRecorder { inner: None }
    }

    pub(crate) fn enabled(tel: Arc<Inner>, buf: Arc<ThreadBuf>, lane: Arc<Lane>) -> Self {
        let open = (0, LedgerPhase::Sample, tel.epoch, SpanArgs::EMPTY);
        ThreadRecorder {
            inner: Some(RecorderInner {
                tel,
                buf,
                lane,
                open,
            }),
        }
    }

    /// Whether spans opened on this recorder actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The ledger's step cursor, which the barrier-A leader advances at the
    /// top of each step (0 when disabled). Flusher threads do not track the
    /// trainer step, so they book their spans here.
    #[inline]
    pub fn current_step(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(r) => r.tel.ledger.current_step(),
        }
    }

    /// Opens an unannotated span of `phase` booked to `step`; it records
    /// when finished or dropped.
    #[inline]
    pub fn span(&mut self, step: u64, phase: LedgerPhase) -> Span<'_> {
        self.span_with(step, phase, &[])
    }

    /// Opens a span annotated with up to two `(key, value)` pairs, e.g.
    /// `&[("rows", 64)]` (the trace shows them on the span's begin event).
    #[inline]
    pub fn span_with(
        &mut self,
        step: u64,
        phase: LedgerPhase,
        args: &[(&'static str, u64)],
    ) -> Span<'_> {
        match &mut self.inner {
            None => Span(None),
            Some(rec) => {
                rec.open = (step, phase, Instant::now(), SpanArgs::new(args));
                Span(Some(rec))
            }
        }
    }

    /// Records a span retroactively: it began at `start` and lasted
    /// `dur_ns` (a duration the caller has already measured for a counter
    /// of its own, so that both read the same nanoseconds).
    ///
    /// For call sites that only decide after the fact whether an interval
    /// is worth recording (e.g. a flusher dequeue poll that found work,
    /// as opposed to thousands of idle polls). The interval must not
    /// overlap the thread's other spans.
    #[inline]
    pub fn record(
        &self,
        step: u64,
        phase: LedgerPhase,
        start: Instant,
        dur_ns: u64,
        args: &[(&'static str, u64)],
    ) {
        if let Some(rec) = &self.inner {
            rec.book(step, phase, start, dur_ns, SpanArgs::new(args));
        }
    }
}

/// An in-flight phase timing; completes (ledger cell + trace ring) on
/// finish or drop.
#[must_use = "a span records its phase duration when dropped"]
#[derive(Debug)]
pub struct Span<'a>(Option<&'a mut RecorderInner>);

impl Span<'_> {
    /// Ends the span now and returns its duration in nanoseconds
    /// (0 when telemetry is disabled).
    pub fn finish(mut self) -> u64 {
        let ns = match &mut self.0 {
            None => 0,
            Some(rec) => rec.close(),
        };
        self.0 = None; // booked: nothing left for the drop
        ns
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(rec) = &mut self.0 {
            rec.close();
        }
    }
}
