//! Benchmark-side spans: recorded around the calls into each layer, kept in
//! memory, written out as Chrome trace events after the run.
//!
//! A span has a name, a start, an end, the span that caused it (its
//! parent) and the training step as the identifier all spans of one step
//! share. A layer's *self time* is its span's duration minus the part its
//! child spans cover — how the replay separates g-entry bookkeeping from
//! the priority-queue calls made inside it.

use crate::jsonio::{num, obj, text};
use frugal_telemetry::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Display track (one per logical thread) in the exported trace.
    pub track: u32,
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<usize>,
    /// Work items the call handled (keys, rows, queue operations).
    pub rows: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct LogInner {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    step: u64,
    /// Spans are dropped while disabled (warm-up steps).
    enabled: bool,
}

/// A span log for one logical thread of calls. Interior mutability (a
/// mutex, uncontended) lets the timed priority-queue wrapper, which the
/// g-entry store calls back into through `&dyn PriorityQueue`, record
/// child spans into the log its caller holds open.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    track: u32,
    inner: Mutex<LogInner>,
}

/// An open span: holds the slot and the start stamp, taken after the log's
/// own bookkeeping so that bookkeeping is never inside the timed interval.
#[derive(Debug)]
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

impl SpanLog {
    pub fn new(epoch: Instant, track: u32, capacity: usize) -> Self {
        SpanLog {
            epoch,
            track,
            inner: Mutex::new(LogInner {
                spans: Vec::with_capacity(capacity),
                stack: Vec::new(),
                step: 0,
                enabled: true,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        self.inner
            .lock()
            .expect("span log poisoned: a recording thread panicked")
    }

    /// Sets the step later spans belong to and whether they are kept.
    pub fn begin_step(&self, step: u64, enabled: bool) {
        let mut g = self.lock();
        g.step = step;
        g.enabled = enabled;
    }

    pub fn enter(&self, name: &'static str) -> Open {
        let slot = {
            let mut g = self.lock();
            if g.enabled {
                let slot = g.spans.len();
                let (parent, step) = (g.stack.last().copied(), g.step);
                g.spans.push(Span {
                    name,
                    track: self.track,
                    step,
                    start_ns: 0,
                    end_ns: 0,
                    parent,
                    rows: 0,
                });
                g.stack.push(slot);
                Some(slot)
            } else {
                None
            }
        };
        Open {
            slot,
            start: Instant::now(),
        }
    }

    pub fn exit(&self, open: Open, rows: u64) {
        let end = Instant::now();
        let Some(slot) = open.slot else { return };
        let mut g = self.lock();
        let popped = g.stack.pop();
        debug_assert_eq!(popped, Some(slot), "spans must close innermost first");
        let span = &mut g.spans[slot];
        span.start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
        span.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        span.rows = rows;
    }

    /// Times `f` as a span named `name`; `f` returns its result and the
    /// number of work items it handled.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        let open = self.enter(name);
        let (value, rows) = f();
        self.exit(open, rows);
        value
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.inner
            .into_inner()
            .expect("span log poisoned: a recording thread panicked")
            .spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub rows: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct children.
    pub self_ns: u64,
}

impl NameTotal {
    pub fn self_ns_per_row(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.rows as f64
        }
    }
}

/// Self time per span: duration minus the durations of its direct
/// children (children of one logical thread never overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.rows += s.rows;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The engine phase (an engine-side span of the same trace) that causes a
/// callback span: the engine calls back into the benchmark's workload and
/// model wrappers from inside these phases.
fn engine_parent(name: &str) -> Option<&'static str> {
    match name {
        "callback.keys" => Some("sample"),
        "callback.forward_backward" => Some("compute"),
        "callback.end_step" => Some("leader_apply"),
        _ => None,
    }
}

/// Chrome trace events (`ph: "X"` complete events) for `spans`, under
/// process `pid`, with a `thread_name` record per track.
pub fn chrome_events(spans: &[Span], pid: u32, track_names: &[(u32, String)]) -> Vec<Json> {
    let mut events = Vec::with_capacity(spans.len() + track_names.len());
    for (track, name) in track_names {
        events.push(obj(vec![
            ("ph", text("M")),
            ("name", text("thread_name")),
            ("pid", num(pid as f64)),
            ("tid", num(*track as f64)),
            ("args", obj(vec![("name", text(name))])),
        ]));
    }
    for s in spans {
        let mut args = vec![("step", num(s.step as f64)), ("rows", num(s.rows as f64))];
        if let Some(parent) = s.parent.map(|p| spans[p].name).or(engine_parent(s.name)) {
            args.push(("parent", text(parent)));
        }
        events.push(obj(vec![
            ("ph", text("X")),
            ("name", text(s.name)),
            ("cat", text("benchmark")),
            ("pid", num(pid as f64)),
            ("tid", num(s.track as f64)),
            ("ts", num(s.start_ns as f64 / 1_000.0)),
            ("dur", num(s.dur_ns() as f64 / 1_000.0)),
            ("args", obj(args)),
        ]));
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, rows: u64) -> Span {
        Span {
            name,
            track: 0,
            step: 3,
            start_ns: start,
            end_ns: end,
            parent,
            rows,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("gentry.add_writes", 0, 1_000, None, 10),
            span("pq.enqueue", 100, 400, Some(0), 8),
            span("pq.adjust", 500, 600, Some(0), 2),
            span("inner", 150, 200, Some(1), 1),
            span("gentry.add_writes", 2_000, 2_500, None, 5),
        ];
        assert_eq!(self_times(&spans), vec![600, 250, 100, 50, 500]);
        let totals = totals_by_name(&spans);
        let g = totals["gentry.add_writes"];
        assert_eq!((g.rows, g.total_ns, g.self_ns), (15, 1_500, 1_100));
        assert!((g.self_ns_per_row() - 1_100.0 / 15.0).abs() < 1e-9);
        assert_eq!(totals["pq.enqueue"].self_ns, 250);
        assert_eq!(NameTotal::default().self_ns_per_row(), 0.0);
    }

    #[test]
    fn log_nests_spans_and_drops_disabled_steps() {
        let log = SpanLog::new(Instant::now(), 7, 16);
        log.begin_step(0, false);
        log.time("warmup", || ((), 1));
        log.begin_step(5, true);
        let got = log.time("outer", || {
            log.time("child", || ((), 2));
            (11, 4)
        });
        assert_eq!(got, 11);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].rows),
            ("outer", None, 4)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].rows),
            ("child", Some(0), 2)
        );
        assert!(spans.iter().all(|s| s.step == 5 && s.track == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn chrome_events_carry_parent_and_step() {
        let spans = vec![
            span("gentry.add_writes", 1_000, 3_000, None, 10),
            span("pq.enqueue", 1_500, 2_000, Some(0), 8),
        ];
        let events = chrome_events(&spans, 2, &[(0, "replay".to_owned())]);
        assert_eq!(events.len(), 3);
        let child = &events[2];
        assert_eq!(child.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(child.get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(child.get("dur").and_then(Json::as_f64), Some(0.5));
        let args = child.get("args").unwrap();
        assert_eq!(
            args.get("parent").and_then(Json::as_str),
            Some("gentry.add_writes")
        );
        assert_eq!(args.get("step").and_then(Json::as_f64), Some(3.0));
    }
}
