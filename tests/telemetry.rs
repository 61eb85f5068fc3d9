//! Integration tests for the telemetry pipeline: registry counters must
//! agree with the engine's own report, the exported Chrome trace must be
//! well-formed without any external JSON library, and the trace and the
//! per-step ledger must be one timer's two views of the same intervals.

use std::collections::HashMap;

use frugal::core::{FrugalConfig, FrugalEngine, PullToTarget};
use frugal::data::{KeyDistribution, SyntheticTrace};
use frugal::telemetry::json::{self, Json};
use frugal::telemetry::Telemetry;

/// One checked-mode run on `n_gpus` trainers with telemetry attached.
fn instrumented_run(telemetry: &Telemetry, n_gpus: usize) -> frugal::core::TrainReport {
    let trace = SyntheticTrace::new(5_000, KeyDistribution::Zipf(0.9), 64, n_gpus, 31).unwrap();
    let model = PullToTarget::new(8, 3);
    let mut cfg = FrugalConfig::commodity(n_gpus, 25)
        .checked()
        .with_telemetry(telemetry.clone());
    cfg.flush_threads = 2;
    cfg.cache_ratio = 0.02;
    let engine = FrugalEngine::new(cfg, trace.n_keys(), 8);
    engine.run(&trace, &model)
}

/// Every completed span of a Chrome trace as `(track name, span name,
/// duration in ns)`: `B`/`E` pairs matched per track, durations recovered
/// from the exported µs timestamps (three decimals, i.e. exact ns).
fn trace_spans(doc: &str) -> Vec<(String, String, u64)> {
    let root = json::parse(doc).expect("trace must be valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let mut tracks: HashMap<i64, String> = HashMap::new();
    let mut open: HashMap<i64, Vec<(String, f64)>> = HashMap::new();
    let mut spans = Vec::new();
    for ev in events {
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as i64;
        let name = ev.get("name").and_then(Json::as_str).expect("name");
        let ts = ev.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
        match ev.get("ph").and_then(Json::as_str).expect("ph") {
            "M" => {
                let track = ev.get("args").and_then(|a| a.get("name"));
                tracks.insert(tid, track.and_then(Json::as_str).unwrap().to_owned());
            }
            "B" => open.entry(tid).or_default().push((name.to_owned(), ts)),
            "E" => {
                let (begun, begin_ts) = open.get_mut(&tid).and_then(Vec::pop).expect("E after B");
                assert_eq!(begun, name, "track {tid}: E closes another span");
                let dur_ns = ((ts - begin_ts) * 1e3).round() as u64;
                spans.push((tracks[&tid].clone(), begun, dur_ns));
            }
            other => panic!("unexpected trace event {other:?}"),
        }
    }
    spans
}

#[test]
fn registry_counters_match_the_report() {
    let telemetry = Telemetry::new();
    let report = instrumented_run(&telemetry, 2);
    let summary = report.telemetry.as_ref().expect("telemetry was on");

    let hits = summary.counter("cache.hits").expect("cache.hits");
    let misses = summary.counter("cache.misses").expect("cache.misses");
    assert!(hits + misses > 0, "the run looked up keys");

    // hit_ratio is defined as hits over the same two counters.
    let expected = hits as f64 / (hits + misses) as f64;
    assert!(
        (report.hit_ratio - expected).abs() < 1e-12,
        "hit_ratio {} != {hits}/({hits}+{misses})",
        report.hit_ratio
    );

    // Checked mode with no failure injection: the P2F invariant holds.
    assert_eq!(summary.counter("p2f.violations"), Some(0));
    assert_eq!(report.violations, 0);

    // Every cache miss reads one host row.
    assert_eq!(summary.counter("store.row_reads"), Some(misses));

    // The registry holds measured numbers only, each recorded once: no
    // modeled-clock counter, and no histogram but the flush batch sizes.
    let histograms: Vec<&str> = summary
        .metrics
        .histograms
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(histograms, ["flush.batch_rows"]);
    for (name, _) in &summary.metrics.counters {
        assert!(!name.ends_with("modeled_ns"), "modeled counter {name}");
    }

    // Each of the 2 trainers timed every phase of every step.
    let spans = trace_spans(&telemetry.chrome_trace_json().unwrap());
    for track in ["trainer-0", "trainer-1"] {
        let compute = spans
            .iter()
            .filter(|(t, name, _)| t == track && name == "compute")
            .count();
        assert_eq!(compute, 25, "{track}");
    }
}

/// One timer, two views: on a one-trainer run (where the ledger's
/// per-step maximum over trainer lanes is that trainer's own value, and
/// flusher lanes sum), every phase's trace spans add up to exactly the
/// nanoseconds its ledger booked, and every booked phase has spans.
#[test]
fn trace_spans_sum_to_the_ledger_per_phase() {
    let telemetry = Telemetry::new();
    let report = instrumented_run(&telemetry, 1);
    let summary = report.telemetry.expect("telemetry was on");
    assert_eq!(summary.dropped_spans, 0, "the rings kept every span");
    let ledger = summary.ledger.expect("ledger on");
    assert_eq!(ledger.window, 25, "the ledger kept every step");
    let spans = trace_spans(&telemetry.chrome_trace_json().unwrap());
    for p in &ledger.phases {
        let name = p.phase.name();
        let traced: u64 = spans
            .iter()
            .filter(|(_, n, _)| n == name)
            .map(|(_, _, ns)| ns)
            .sum();
        assert_eq!(traced, p.total_ns, "phase {name}: trace vs ledger");
    }
    for name in ["barrier_a", "cache_apply", "registration", "leader_apply"] {
        assert!(spans.iter().any(|(_, n, _)| n == name), "no {name} span");
    }
}

#[test]
fn chrome_trace_is_valid_balanced_and_monotonic() {
    let telemetry = Telemetry::new();
    instrumented_run(&telemetry, 2);
    let doc = telemetry.chrome_trace_json().expect("telemetry was on");

    let root = json::parse(&doc).expect("trace must be valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // The trace is plain `M`/`B`/`E` events. Count B/E per thread and
    // check per-thread ts never goes backwards.
    let mut open: Vec<(f64, i64, i64)> = Vec::new(); // (last_ts, depth, tid)
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        assert!(matches!(ph, "M" | "B" | "E"), "unexpected event {ph:?}");
        if ph == "M" {
            continue; // thread_name metadata carries no ts
        }
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as i64;
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        let slot = match open.iter_mut().find(|(_, _, t)| *t == tid) {
            Some(s) => s,
            None => {
                open.push((f64::MIN, 0, tid));
                open.last_mut().unwrap()
            }
        };
        assert!(
            ts >= slot.0,
            "thread {tid}: ts went backwards ({ts} < {})",
            slot.0
        );
        slot.0 = ts;
        slot.1 += if ph == "B" { 1 } else { -1 };
        assert!(slot.1 >= 0, "thread {tid}: E without matching B");
    }
    assert!(open.len() >= 2, "at least the two trainer threads traced");
    for (_, depth, tid) in &open {
        assert_eq!(*depth, 0, "thread {tid}: unbalanced B/E events");
    }
}

#[test]
fn disabled_telemetry_stays_dark() {
    let telemetry = Telemetry::off();
    let report = instrumented_run(&telemetry, 2);
    assert!(report.telemetry.is_none());
    assert!(telemetry.chrome_trace_json().is_none());
    assert!(telemetry.metrics_jsonl().is_none());
    assert!(!telemetry
        .write_chrome_trace("/nonexistent/should-not-write")
        .unwrap_or(true));
}
