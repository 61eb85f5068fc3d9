//! Bounded per-thread event rings and Chrome trace-event export.
//!
//! Each recorder thread owns a ring of *completed* spans (begin time and
//! duration). Storing completed spans — not
//! raw begin/end events — means ring eviction always drops a span's `B`
//! and `E` together, so exported traces stay balanced no matter how much
//! history was overwritten. The export emits the Chrome trace-event JSON
//! format, loadable in `chrome://tracing` and Perfetto.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::JsonWriter;
use crate::ledger::LedgerPhase;
use crate::span::SpanArgs;

/// Default per-thread ring capacity (completed spans).
pub const DEFAULT_SPANS_PER_THREAD: usize = 16 * 1024;

/// Cap on retained cross-thread flow events (starts + finishes).
pub const DEFAULT_FLOW_EVENTS: usize = 32 * 1024;

/// One half of a cross-thread flow arrow (`ph:"s"` / `ph:"f"` in Chrome
/// trace terms): a flusher batch clearing its in-flight marker (start)
/// or a trainer observing itself unblocked by that batch (finish).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowRecord {
    /// Flow id — the flusher batch id; start/finish pairs share it.
    pub id: u64,
    /// Emitting thread.
    pub tid: u64,
    /// Emission time relative to the telemetry epoch.
    pub ts_ns: u64,
    /// `true` for the flusher-side start, `false` for the trainer-side
    /// finish.
    pub start: bool,
}

/// Bounded shared ring of [`FlowRecord`]s (all threads push here; flow
/// volume is one event per stall or applied batch, far below span
/// volume, so a single mutex-guarded ring is fine).
#[derive(Debug)]
pub(crate) struct FlowSink {
    capacity: usize,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<FlowRecord>>,
}

impl FlowSink {
    pub fn new(capacity: usize) -> Self {
        FlowSink {
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends a flow half-event, evicting the oldest at capacity.
    pub fn push(&self, rec: FlowRecord) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(rec);
    }

    pub fn snapshot(&self) -> Vec<FlowRecord> {
        self.ring.lock().unwrap().iter().copied().collect()
    }
}

/// One completed span, as stored in a thread ring.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanEvent {
    pub phase: LedgerPhase,
    pub begin_ns: u64,
    pub dur_ns: u64,
    pub args: SpanArgs,
}

/// A single thread's bounded span ring.
#[derive(Debug)]
pub(crate) struct ThreadBuf {
    tid: u64,
    name: String,
    capacity: usize,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<SpanEvent>>,
}

impl ThreadBuf {
    /// The thread id this ring was registered with.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Appends a completed span, evicting the oldest at capacity.
    pub fn push(&self, ev: SpanEvent) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }
}

/// All thread rings for one [`Telemetry`](crate::Telemetry) instance.
#[derive(Debug)]
pub(crate) struct TraceCollector {
    capacity: usize,
    next_tid: AtomicU64,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    /// Cross-thread flow arrows; each record carries its ring's `tid`.
    pub flows: FlowSink,
}

impl TraceCollector {
    pub fn new(spans_per_thread: usize) -> Self {
        TraceCollector {
            capacity: spans_per_thread.max(1),
            next_tid: AtomicU64::new(1),
            threads: Mutex::new(Vec::new()),
            flows: FlowSink::new(DEFAULT_FLOW_EVENTS),
        }
    }

    /// Creates and registers a ring for a new recorder thread.
    pub fn register_thread(&self, name: String) -> Arc<ThreadBuf> {
        let buf = Arc::new(ThreadBuf {
            tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
            name,
            capacity: self.capacity,
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        });
        self.threads.lock().unwrap().push(Arc::clone(&buf));
        buf
    }

    /// Spans evicted across all rings so far.
    pub fn dropped_spans(&self) -> u64 {
        self.threads
            .lock()
            .unwrap()
            .iter()
            .map(|t| t.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Writes the full Chrome trace-event document.
    ///
    /// Per thread, a `thread_name` metadata event is followed by each
    /// span's `B`/`E` pair in ring order — which is time order, since a
    /// thread is in one phase at a time.
    pub fn write_chrome_trace(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("displayTimeUnit").string("ms");
        w.key("traceEvents").begin_array();
        let threads = self.threads.lock().unwrap();
        for buf in threads.iter() {
            w.begin_object();
            w.key("ph").string("M");
            w.key("name").string("thread_name");
            w.key("pid").number_u64(1);
            w.key("tid").number_u64(buf.tid);
            w.key("args").begin_object();
            w.key("name").string(&buf.name);
            w.end_object();
            w.end_object();

            for ev in buf.ring.lock().unwrap().iter() {
                for (ph, ts_ns) in [("B", ev.begin_ns), ("E", ev.begin_ns + ev.dur_ns)] {
                    w.begin_object();
                    w.key("ph").string(ph);
                    w.key("name").string(ev.phase.name());
                    w.key("pid").number_u64(1);
                    w.key("tid").number_u64(buf.tid);
                    w.key("ts").number_f64(ts_ns as f64 / 1_000.0);
                    if ph == "B" && !ev.args.is_empty() {
                        w.key("args").begin_object();
                        for (k, v) in ev.args.iter() {
                            w.key(k).number_u64(v);
                        }
                        w.end_object();
                    }
                    w.end_object();
                }
            }
        }
        // Cross-thread flow arrows: flusher batch (`s`) → unblocked
        // trainer (`f`, binding point "e" = enclosing slice end).
        for flow in self.flows.snapshot() {
            w.begin_object();
            w.key("ph").string(if flow.start { "s" } else { "f" });
            if !flow.start {
                w.key("bp").string("e");
            }
            w.key("name").string("unblock");
            w.key("cat").string("p2f_unblock");
            w.key("id").number_u64(flow.id);
            w.key("pid").number_u64(1);
            w.key("tid").number_u64(flow.tid);
            w.key("ts").number_f64(flow.ts_ns as f64 / 1_000.0);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(begin_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            phase: LedgerPhase::Compute,
            begin_ns,
            dur_ns,
            args: SpanArgs::EMPTY,
        }
    }

    #[test]
    fn ring_evicts_whole_spans_and_counts_drops() {
        let tc = TraceCollector::new(2);
        let buf = tc.register_thread("t".into());
        buf.push(event(0, 10));
        buf.push(event(20, 10));
        buf.push(event(40, 10));
        assert_eq!(tc.dropped_spans(), 1);
        assert_eq!(buf.ring.lock().unwrap().len(), 2);
        assert_eq!(buf.ring.lock().unwrap()[0].begin_ns, 20);
    }

    #[test]
    fn chrome_export_is_balanced_and_ordered() {
        let tc = TraceCollector::new(8);
        let buf = tc.register_thread("trainer-0".into());
        // Back-to-back spans: 0..30 ns, then 30..40 ns.
        buf.push(event(0, 30));
        buf.push(event(30, 10));
        let mut w = JsonWriter::new();
        tc.write_chrome_trace(&mut w);
        let doc = crate::json::parse(&w.finish()).expect("trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(crate::json::Json::as_array)
            .unwrap();
        let phs: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(crate::json::Json::as_str))
            .collect();
        assert_eq!(phs, ["M", "B", "E", "B", "E"]);
        let ts: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(crate::json::Json::as_str) != Some("M"))
            .map(|e| e.get("ts").and_then(crate::json::Json::as_f64).unwrap())
            .collect();
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "ts not monotonic: {ts:?}"
        );
    }

    #[test]
    fn flow_events_export_as_s_f_pairs() {
        let tc = TraceCollector::new(8);
        let fbuf = tc.register_thread("flusher-0".into());
        let tbuf = tc.register_thread("trainer-0".into());
        tc.flows.push(FlowRecord {
            id: 7,
            tid: fbuf.tid(),
            ts_ns: 1_000,
            start: true,
        });
        tc.flows.push(FlowRecord {
            id: 7,
            tid: tbuf.tid(),
            ts_ns: 2_000,
            start: false,
        });
        let mut w = JsonWriter::new();
        tc.write_chrome_trace(&mut w);
        let doc = crate::json::parse(&w.finish()).expect("trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(crate::json::Json::as_array)
            .unwrap();
        let s = events
            .iter()
            .find(|e| e.get("ph").and_then(crate::json::Json::as_str) == Some("s"))
            .expect("flow start present");
        let f = events
            .iter()
            .find(|e| e.get("ph").and_then(crate::json::Json::as_str) == Some("f"))
            .expect("flow finish present");
        assert_eq!(s.get("id").and_then(crate::json::Json::as_f64), Some(7.0));
        assert_eq!(f.get("id").and_then(crate::json::Json::as_f64), Some(7.0));
        assert_eq!(f.get("bp").and_then(crate::json::Json::as_str), Some("e"));
        assert!(s.get("bp").is_none());
        let ts_s = s.get("ts").and_then(crate::json::Json::as_f64).unwrap();
        let ts_f = f.get("ts").and_then(crate::json::Json::as_f64).unwrap();
        assert!(ts_s <= ts_f);
    }

    #[test]
    fn flow_sink_is_bounded() {
        let sink = FlowSink::new(2);
        for id in 0..5 {
            sink.push(FlowRecord {
                id,
                tid: 1,
                ts_ns: id,
                start: true,
            });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].id, 3);
        assert_eq!(sink.dropped.load(Ordering::Relaxed), 3);
    }
}
