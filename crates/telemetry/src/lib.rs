//! `frugal-telemetry`: dependency-free observability for the Frugal
//! engine stack.
//!
//! The crate records each event once, in one of three places, all behind
//! one cheap-to-clone [`Telemetry`] handle:
//!
//! * the span ledger and its trace: one per-thread timer, the
//!   [`ThreadRecorder`], whose every [`Span`] over a [`LedgerPhase`] adds
//!   its duration to the thread's lane of the per-step ledger (exact
//!   windowed percentiles, [`LedgerSummary`]) and pushes the same interval
//!   into a bounded per-thread ring exported as Chrome trace-event JSON
//!   (`chrome://tracing` / Perfetto) — near-zero cost when telemetry is off;
//! * the run counters: a [`Registry`] of named atomic [`Counter`]s and
//!   log2-bucketed [`Histogram`]s with p50/p95/p99 summaries, snapshotted
//!   as JSONL by the crate's own [`json`] module;
//! * the stall log: every P²F wait that blocked files a [`StallRecord`]
//!   naming the blocking priority, the pending-key count and a blocking key.
//!
//! `Telemetry::off()` (the default) carries no allocation and makes every
//! operation a no-op, so engine code wires spans unconditionally. The
//! [`Registry`] is also usable standalone: the engine keeps the counters
//! its report reads (cache hits and misses, flushed rows) on a registry
//! even when telemetry is disabled.

#![warn(missing_docs)]

pub mod json;
mod ledger;
mod registry;
mod span;
mod trace;

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use ledger::{LaneKind, LedgerPhase, LedgerPhaseSummary, LedgerSummary, DEFAULT_LEDGER_STEPS};
pub use registry::{Counter, Histogram, HistogramSummary, MetricsSnapshot, Registry};
pub use span::{Span, ThreadRecorder};
pub use trace::DEFAULT_SPANS_PER_THREAD;

use json::JsonWriter;
use ledger::LedgerCore;
use trace::TraceCollector;

/// Default cap on retained [`StallRecord`]s.
pub const DEFAULT_MAX_STALLS: usize = 4 * 1024;

/// One P²F wait that actually blocked, with its attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallRecord {
    /// The training step that stalled.
    pub step: u64,
    /// How long the trainer waited, in nanoseconds.
    pub wait_ns: u64,
    /// `PQ.top()` at wait entry — the priority (deadline step) of the
    /// flush work blocking this step.
    pub blocking_priority: u64,
    /// Pending g-entry keys at wait entry (outstanding flush backlog).
    pub pending_keys: u64,
    /// Priority-queue depth (keys awaiting dequeue) at wait entry.
    pub queue_depth: u64,
    /// A key sitting at the blocking priority at wait entry, when the
    /// queue could name one (best effort, non-destructive peek).
    pub blocking_key: Option<u64>,
}

/// The retained stall records plus how many were dropped at the cap.
#[derive(Debug, Clone, Default)]
pub struct StallSummary {
    /// Retained records, in occurrence order.
    pub records: Vec<StallRecord>,
    /// Records dropped once the cap was hit.
    pub dropped: u64,
}

impl StallSummary {
    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing stalled (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total blocked time across retained records, in nanoseconds.
    pub fn total_wait_ns(&self) -> u64 {
        self.records.iter().map(|r| r.wait_ns).sum()
    }

    /// The longest retained stall.
    pub fn longest(&self) -> Option<&StallRecord> {
        self.records.iter().max_by_key(|r| r.wait_ns)
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    registry: Arc<Registry>,
    trace: TraceCollector,
    ledger: LedgerCore,
    stalls: Mutex<Vec<StallRecord>>,
    stalls_dropped: AtomicU64,
    stall_cap: usize,
}

/// Handle to one telemetry domain (one training run).
///
/// Cloning shares the underlying registry, rings, and stall log. The
/// default handle is [`Telemetry::off`]: disabled, allocation-free, and
/// every operation on it is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// An enabled instance with default capacities.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPANS_PER_THREAD, DEFAULT_MAX_STALLS)
    }

    /// An enabled instance retaining at most `spans_per_thread` completed
    /// spans per recorder thread and `max_stalls` stall records.
    pub fn with_capacity(spans_per_thread: usize, max_stalls: usize) -> Self {
        Self::with_ledger_capacity(spans_per_thread, max_stalls, DEFAULT_LEDGER_STEPS)
    }

    /// [`Telemetry::with_capacity`] with an explicit step-ledger window
    /// (`ledger_steps` step slots per lane).
    pub fn with_ledger_capacity(
        spans_per_thread: usize,
        max_stalls: usize,
        ledger_steps: usize,
    ) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                registry: Arc::new(Registry::new()),
                trace: TraceCollector::new(spans_per_thread),
                ledger: LedgerCore::new(ledger_steps),
                stalls: Mutex::new(Vec::new()),
                stalls_dropped: AtomicU64::new(0),
                stall_cap: max_stalls,
            })),
        }
    }

    /// The disabled handle (same as `Telemetry::default()`).
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shared metric registry, when enabled.
    pub fn registry(&self) -> Option<Arc<Registry>> {
        self.inner.as_ref().map(|i| Arc::clone(&i.registry))
    }

    /// Creates the phase recorder of one engine thread: a ledger lane of
    /// `kind` and a trace track labelled `name` (a disabled recorder when
    /// telemetry is off). One thread at a time may use a recorder.
    pub fn recorder(&self, name: impl Into<String>, kind: LaneKind) -> ThreadRecorder {
        match &self.inner {
            None => ThreadRecorder::disabled(),
            Some(i) => ThreadRecorder::enabled(
                Arc::clone(i),
                i.trace.register_thread(name.into()),
                i.ledger.lane(kind),
            ),
        }
    }

    /// Advances the ledger's step cursor; called by the barrier-A leader
    /// at the top of each step so flusher lanes attribute their work to
    /// the step currently executing.
    #[inline]
    pub fn ledger_advance(&self, step: u64) {
        if let Some(i) = &self.inner {
            i.ledger.advance(step);
        }
    }

    /// Windowed per-phase critical-path statistics; `None` when
    /// disabled.
    pub fn ledger_summary(&self) -> Option<LedgerSummary> {
        self.inner.as_ref().map(|i| i.ledger.summary())
    }

    /// Files a stall record (kept up to the configured cap) and bumps
    /// the `p2f.stalls` counter.
    pub fn record_stall(&self, rec: StallRecord) {
        let Some(i) = &self.inner else { return };
        i.registry.counter("p2f.stalls").incr();
        let mut stalls = i.stalls.lock().unwrap();
        if stalls.len() < i.stall_cap {
            stalls.push(rec);
        } else {
            i.stalls_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of everything recorded so far; `None` when disabled.
    pub fn summary(&self) -> Option<TelemetrySummary> {
        let i = self.inner.as_ref()?;
        Some(TelemetrySummary {
            metrics: i.registry.snapshot(),
            stalls: StallSummary {
                records: i.stalls.lock().unwrap().clone(),
                dropped: i.stalls_dropped.load(Ordering::Relaxed),
            },
            ledger: Some(i.ledger.summary()),
            dropped_spans: i.trace.dropped_spans(),
        })
    }

    /// The full Chrome trace-event document; `None` when disabled.
    pub fn chrome_trace_json(&self) -> Option<String> {
        let i = self.inner.as_ref()?;
        let mut w = JsonWriter::new();
        i.trace.write_chrome_trace(&mut w);
        Some(w.finish())
    }

    /// Writes the Chrome trace to `path`. Returns `Ok(false)` without
    /// touching the filesystem when disabled.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<bool> {
        match self.chrome_trace_json() {
            None => Ok(false),
            Some(doc) => {
                std::fs::write(path, doc)?;
                Ok(true)
            }
        }
    }

    /// One JSON object per line for every metric and stall record;
    /// `None` when disabled.
    pub fn metrics_jsonl(&self) -> Option<String> {
        Some(self.summary()?.to_jsonl())
    }
}

/// Everything a run recorded, in plain data form (attached to
/// `TrainReport` by the engines).
#[derive(Debug, Clone, Default)]
pub struct TelemetrySummary {
    /// Counter and histogram snapshot, sorted by name.
    pub metrics: MetricsSnapshot,
    /// P²F stall attribution records.
    pub stalls: StallSummary,
    /// Per-step critical-path phase ledger (exact windowed percentiles);
    /// `None` only on summaries built before the ledger existed.
    pub ledger: Option<LedgerSummary>,
    /// Spans evicted from trace rings (0 means the trace is complete).
    pub dropped_spans: u64,
}

impl TelemetrySummary {
    /// Value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Summary of a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.metrics
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Renders a human-readable table (used by `examples/train.rs` and
    /// the bench harness).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if let Some(ledger) = self.ledger.as_ref().filter(|l| !l.is_empty()) {
            let _ = writeln!(
                out,
                "  step ledger: {} steps (steps {}..={}), per-step critical path:",
                ledger.window, ledger.first_step, ledger.last_step
            );
            let _ = writeln!(
                out,
                "  {:<28} {:>11} {:>11} {:>11} {:>11} {:>11}",
                "phase (ns/step)", "mean", "p50", "p95", "p99", "max"
            );
            for p in &ledger.phases {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>11.0} {:>11} {:>11} {:>11} {:>11}",
                    p.phase.name(),
                    p.mean_ns,
                    p.p50_ns,
                    p.p95_ns,
                    p.p99_ns,
                    p.max_ns
                );
            }
        }
        if !self.metrics.histograms.is_empty() {
            let _ = writeln!(
                out,
                "  {:<28} {:>9} {:>11} {:>11} {:>11} {:>11}",
                "histogram", "count", "p50", "p95", "p99", "mean"
            );
            for (name, s) in &self.metrics.histograms {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>9} {:>11} {:>11} {:>11} {:>11.0}",
                    name,
                    s.count,
                    s.p50,
                    s.p95,
                    s.p99,
                    s.mean()
                );
            }
        }
        if !self.metrics.counters.is_empty() {
            let _ = writeln!(out, "  {:<28} {:>9}", "counter", "value");
            for (name, v) in &self.metrics.counters {
                let _ = writeln!(out, "  {name:<28} {v:>9}");
            }
        }
        if self.stalls.is_empty() {
            let _ = writeln!(out, "  no P2F stalls recorded");
        } else {
            let total_ms = self.stalls.total_wait_ns() as f64 / 1e6;
            let _ = write!(
                out,
                "  {} P2F stalls ({} dropped), total wait {:.3} ms",
                self.stalls.len(),
                self.stalls.dropped,
                total_ms
            );
            if let Some(l) = self.stalls.longest() {
                let _ = write!(
                    out,
                    "; longest {:.3} ms at step {} (blocking priority {}, {} pending keys, \
                     queue depth {})",
                    l.wait_ns as f64 / 1e6,
                    l.step,
                    l.blocking_priority,
                    l.pending_keys,
                    l.queue_depth
                );
            }
            let _ = writeln!(out);
        }
        if self.dropped_spans > 0 {
            let _ = writeln!(
                out,
                "  note: {} spans evicted from trace rings",
                self.dropped_spans
            );
        }
        out
    }

    /// Serializes the snapshot as JSONL: one object per metric, then one
    /// per stall record.
    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.metrics.counters {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("kind").string("counter");
            w.key("name").string(name);
            w.key("value").number_u64(*v);
            w.end_object();
            out.push_str(&w.finish());
            out.push('\n');
        }
        for (name, s) in &self.metrics.histograms {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("kind").string("histogram");
            w.key("name").string(name);
            w.key("count").number_u64(s.count);
            w.key("sum").number_u64(s.sum);
            w.key("min").number_u64(s.min);
            w.key("max").number_u64(s.max);
            w.key("p50").number_u64(s.p50);
            w.key("p95").number_u64(s.p95);
            w.key("p99").number_u64(s.p99);
            w.end_object();
            out.push_str(&w.finish());
            out.push('\n');
        }
        if let Some(ledger) = self.ledger.as_ref().filter(|l| !l.is_empty()) {
            for p in &ledger.phases {
                let mut w = JsonWriter::new();
                w.begin_object();
                w.key("kind").string("ledger_phase");
                w.key("name").string(p.phase.name());
                w.key("steps").number_u64(p.steps);
                w.key("total_ns").number_u64(p.total_ns);
                w.key("mean_ns").number_f64(p.mean_ns);
                w.key("p50_ns").number_u64(p.p50_ns);
                w.key("p95_ns").number_u64(p.p95_ns);
                w.key("p99_ns").number_u64(p.p99_ns);
                w.key("max_ns").number_u64(p.max_ns);
                w.end_object();
                out.push_str(&w.finish());
                out.push('\n');
            }
        }
        for r in &self.stalls.records {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("kind").string("stall");
            w.key("step").number_u64(r.step);
            w.key("wait_ns").number_u64(r.wait_ns);
            w.key("blocking_priority").number_u64(r.blocking_priority);
            w.key("pending_keys").number_u64(r.pending_keys);
            w.key("queue_depth").number_u64(r.queue_depth);
            if let Some(k) = r.blocking_key {
                w.key("blocking_key").number_u64(k);
            }
            w.end_object();
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::off();
        assert!(!tel.is_enabled());
        assert!(tel.registry().is_none());
        assert!(tel.summary().is_none());
        assert!(tel.chrome_trace_json().is_none());
        let mut rec = tel.recorder("t", LaneKind::Flusher);
        assert!(!rec.is_enabled());
        assert_eq!(rec.span(3, LedgerPhase::Compute).finish(), 0);
        rec.record(
            rec.current_step(),
            LedgerPhase::FlushApply,
            Instant::now(),
            100,
            &[],
        );
        assert_eq!(rec.current_step(), 0);
        tel.record_stall(StallRecord {
            step: 0,
            wait_ns: 1,
            blocking_priority: 0,
            pending_keys: 0,
            queue_depth: 0,
            blocking_key: None,
        });
        tel.ledger_advance(9);
        assert!(tel.ledger_summary().is_none());
    }

    #[test]
    fn zero_ledger_capacity_is_clamped_and_summarizes() {
        // Regression: a zero-step ledger window used to underflow in the
        // summary's window trim (`capacity - 1` on u64, a debug-build
        // panic). The constructor clamps to one slot and the trim
        // saturates, so the degenerate config just keeps the newest step.
        let tel = Telemetry::with_ledger_capacity(16, 16, 0);
        let rec = tel.recorder("t", LaneKind::Trainer);
        for step in 0..5u64 {
            rec.record(step, LedgerPhase::Compute, Instant::now(), 100 + step, &[]);
        }
        let s = tel.ledger_summary().expect("enabled telemetry summarizes");
        assert_eq!(s.window, 1);
        assert_eq!((s.first_step, s.last_step), (4, 4));
    }

    #[test]
    fn spans_feed_ledger_and_trace() {
        let tel = Telemetry::new();
        let mut rec = tel.recorder("trainer-0", LaneKind::Trainer);
        let host_read = rec.span_with(7, LedgerPhase::HostRead, &[("rows", 4)]);
        std::thread::sleep(std::time::Duration::from_micros(200));
        let host_read_ns = host_read.finish();
        {
            let _compute = rec.span(7, LedgerPhase::Compute);
        }
        let ledger = tel.ledger_summary().unwrap();
        assert_eq!((ledger.first_step, ledger.last_step), (7, 7));
        assert!(host_read_ns >= 200_000);
        let booked = ledger.phase(LedgerPhase::HostRead).unwrap().total_ns;
        assert_eq!(booked, host_read_ns);
        assert!(tel.summary().unwrap().metrics.histograms.is_empty());

        let doc = json::parse(&tel.chrome_trace_json().unwrap()).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(json::Json::as_array)
            .unwrap();
        let b = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Json::as_str) == Some("B"))
            .count();
        let e = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Json::as_str) == Some("E"))
            .count();
        assert_eq!((b, e), (2, 2));
        // The annotated host_read begin event carries its args.
        assert!(events.iter().any(|ev| {
            ev.get("name").and_then(json::Json::as_str) == Some("host_read")
                && ev
                    .get("args")
                    .and_then(|a| a.get("rows"))
                    .and_then(json::Json::as_f64)
                    == Some(4.0)
        }));
    }

    #[test]
    fn stall_records_are_capped() {
        let tel = Telemetry::with_capacity(64, 2);
        for step in 0..5 {
            tel.record_stall(StallRecord {
                step,
                wait_ns: 100 * (step + 1),
                blocking_priority: step,
                pending_keys: 7,
                queue_depth: 11,
                blocking_key: Some(42),
            });
        }
        let s = tel.summary().unwrap();
        assert_eq!(s.stalls.len(), 2);
        assert_eq!(s.stalls.dropped, 3);
        assert_eq!(s.counter("p2f.stalls"), Some(5));
        assert_eq!(s.stalls.longest().unwrap().step, 1);
        assert_eq!(s.stalls.total_wait_ns(), 300);
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let tel = Telemetry::new();
        let mut rec = tel.recorder("t", LaneKind::Trainer);
        rec.span(3, LedgerPhase::Sample).finish();
        tel.registry().unwrap().counter("cache.hits").add(9);
        tel.record_stall(StallRecord {
            step: 3,
            wait_ns: 42,
            blocking_priority: 1,
            pending_keys: 2,
            queue_depth: 5,
            blocking_key: Some(17),
        });
        rec.record(3, LedgerPhase::StallWait, Instant::now(), 42, &[]);
        let jsonl = tel.metrics_jsonl().unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines.len() >= 4);
        for line in &lines {
            json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        }
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"stall\"")));
        assert!(lines.iter().any(|l| l.contains("\"queue_depth\":5")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"kind\":\"ledger_phase\"") && l.contains("\"stall_wait\"")));
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::new();
        let clone = tel.clone();
        clone.registry().unwrap().counter("cache.hits").incr();
        assert_eq!(tel.summary().unwrap().counter("cache.hits"), Some(1));
    }
}
