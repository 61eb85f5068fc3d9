//! Bounded per-thread event rings and Chrome trace-event export.
//!
//! Each recorder thread owns a ring of *completed* spans (begin time and
//! duration). Storing completed spans — not
//! raw begin/end events — means ring eviction always drops a span's `B`
//! and `E` together, so exported traces stay balanced no matter how much
//! history was overwritten. The export emits the Chrome trace-event JSON
//! format — one `M` (thread name) event per thread, then a `B`/`E` pair per
//! span and nothing else — loadable in `chrome://tracing` and Perfetto.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::JsonWriter;
use crate::ledger::LedgerPhase;
use crate::span::SpanArgs;

/// Default per-thread ring capacity (completed spans).
pub const DEFAULT_SPANS_PER_THREAD: usize = 16 * 1024;

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
}

impl TraceCollector {
    pub fn new(spans_per_thread: usize) -> Self {
        TraceCollector {
            capacity: spans_per_thread.max(1),
            next_tid: AtomicU64::new(1),
            threads: Mutex::new(Vec::new()),
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
}
