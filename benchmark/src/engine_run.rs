//! Runs of the real engine, measured from outside: through
//! `FrugalEngine::run`, the `Workload` / `EmbeddingModel` seams the engine
//! calls back into, and the public `TrainReport`.
//!
//! A run is set-up (trace + model + `FrugalEngine::new`) followed by
//! `engine.run` for `warmup + timed` steps. The model wrapper stamps
//! `EmbeddingModel::end_step` — called once per step by the barrier-A
//! leader — into a pre-allocated vector, which gives per-step wall times
//! with the engine's telemetry off. The timed window runs from the stamp
//! of step `warmup - 1` to the stamp of the last step: exactly `timed`
//! step periods, with the process CPU clock read at the same two stamps.
//! Training is a closed loop (trainers in lock-step barriers, no arrival
//! schedule), so the rates below are outputs, not settings.

use crate::host;
use crate::rep::RepOutput;
use crate::spans::{chrome_events, Span, SpanLog};
use crate::stats;
use crate::workloads::{Plan, WorkloadSpec, DIM, FLUSH_THREADS, KEYS_PER_STEP, N_GPUS};
use frugal_core::{
    train_serial_with, BatchGrads, EmbeddingModel, FrugalEngine, PullToTarget, TrainReport,
    Workload,
};
use frugal_data::{Key, SyntheticTrace};
use frugal_telemetry::json::{self, Json};
use frugal_telemetry::{LedgerPhase, LedgerPhaseSummary, Telemetry, TelemetrySummary};
use std::sync::Mutex;
use std::time::Instant;

/// Spans around the engine's callbacks into the benchmark (traced run
/// only): one log per sample stream plus one for the step leader.
struct CallbackSpans {
    streams: Vec<SpanLog>,
    leader: SpanLog,
    /// Spans of earlier steps are dropped, bounding the trace file.
    keep_from: u64,
}

/// Display tracks of the callback spans in the exported trace: clear of
/// the engine exporter's thread ids, stream `g` on `STREAM_TRACK + g`.
const STREAM_TRACK: u32 = 1000;
const LEADER_TRACK: u32 = STREAM_TRACK + N_GPUS as u32;

impl CallbackSpans {
    fn new(epoch: Instant, keep_from: u64, kept_steps: u64) -> Self {
        let per_stream = 2 * kept_steps as usize;
        CallbackSpans {
            streams: (0..N_GPUS as u32)
                .map(|g| SpanLog::new(epoch, STREAM_TRACK + g, per_stream))
                .collect(),
            leader: SpanLog::new(epoch, LEADER_TRACK, kept_steps as usize),
            keep_from,
        }
    }

    /// `log`, set to `step` (kept only if the step is recent enough).
    fn at<'a>(&self, log: &'a SpanLog, step: u64) -> &'a SpanLog {
        log.begin_step(step, step >= self.keep_from);
        log
    }

    fn into_spans(self) -> Vec<Span> {
        let mut all = Vec::new();
        for log in self.streams.into_iter().chain([self.leader]) {
            all.extend(log.into_spans());
        }
        all
    }
}

/// The workload the traced run hands the engine: the same generated trace,
/// with a span around every `keys` call.
struct SpannedTrace<'a> {
    inner: SyntheticTrace,
    spans: &'a CallbackSpans,
}

impl Workload for SpannedTrace<'_> {
    fn n_keys(&self) -> u64 {
        self.inner.n_keys()
    }

    fn n_gpus(&self) -> usize {
        self.inner.n_gpus()
    }

    fn samples_per_step(&self) -> u64 {
        self.inner.samples_per_step()
    }

    fn keys(&self, step: u64, gpu: usize) -> Vec<Key> {
        let log = self.spans.at(&self.spans.streams[gpu], step);
        log.time("callback.keys", || {
            let keys = self.inner.gpu_keys(step, gpu);
            let n = keys.len() as u64;
            (keys, n)
        })
    }
}

/// The model every run hands the engine: `PullToTarget` plus the step
/// clock in `end_step` (and, in the traced run, callback spans).
struct ClockedModel<'a> {
    inner: PullToTarget,
    /// Wall-clock stamp of every `end_step`, in step order.
    marks: Mutex<Vec<Instant>>,
    /// Process CPU time at the two ends of the timed window.
    cpu_ns: Mutex<Vec<u64>>,
    /// The steps whose `end_step` open and close the timed window.
    window: (u64, u64),
    spans: Option<&'a CallbackSpans>,
}

impl<'a> ClockedModel<'a> {
    fn new(inner: PullToTarget, warmup: u64, timed: u64, spans: Option<&'a CallbackSpans>) -> Self {
        assert!(
            warmup >= 1 && timed >= 1,
            "a run needs warm-up and timed steps"
        );
        ClockedModel {
            inner,
            marks: Mutex::new(Vec::with_capacity((warmup + timed) as usize)),
            cpu_ns: Mutex::new(Vec::with_capacity(2)),
            window: (warmup - 1, warmup + timed - 1),
            spans,
        }
    }
}

impl EmbeddingModel for ClockedModel<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn forward_backward(&self, gpu: usize, step: u64, keys: &[Key], rows: &[f32]) -> BatchGrads {
        match self.spans {
            None => self.inner.forward_backward(gpu, step, keys, rows),
            Some(spans) => {
                spans
                    .at(&spans.streams[gpu], step)
                    .time("callback.forward_backward", || {
                        let grads = self.inner.forward_backward(gpu, step, keys, rows);
                        (grads, keys.len() as u64)
                    })
            }
        }
    }

    fn end_step(&self, step: u64) {
        let open = self.spans.map(|s| {
            let log = s.at(&s.leader, step);
            (log, log.enter("callback.end_step"))
        });
        self.inner.end_step(step);
        let poisoned = "step clock poisoned: a trainer panicked";
        self.marks.lock().expect(poisoned).push(Instant::now());
        if step == self.window.0 || step == self.window.1 {
            self.cpu_ns
                .lock()
                .expect(poisoned)
                .push(host::process_cpu_ns());
        }
        if let Some((log, open)) = open {
            log.exit(open, 1);
        }
    }

    fn dense_flops_per_sample(&self) -> f64 {
        self.inner.dense_flops_per_sample()
    }

    fn dense_layers(&self) -> u32 {
        self.inner.dense_layers()
    }

    fn dense_param_bytes(&self) -> u64 {
        self.inner.dense_param_bytes()
    }
}

/// What the traced run adds to an engine run.
struct Tracing {
    telemetry: Telemetry,
    /// The clock zero the callback spans share with the engine's spans
    /// (taken right after `telemetry` was made).
    epoch: Instant,
    /// How many of the newest steps keep their callback spans.
    kept_steps: u64,
}

/// One engine run and what the clocks around it read.
struct EngineRun {
    report: TrainReport,
    /// Median of the run's set-ups.
    setup_s: f64,
    run_wall_s: f64,
    /// Last `end_step` stamp → `engine.run` returns: the rest of the last
    /// step plus the drain of every deferred flush.
    drain_ms: f64,
    /// The `timed` step periods of the window, ascending, in µs.
    periods_us: Vec<f64>,
    window_s: f64,
    window_cpu_ns: u64,
    callback_spans: Vec<Span>,
}

impl EngineRun {
    fn keys_per_s(&self) -> f64 {
        self.periods_us.len() as f64 * KEYS_PER_STEP as f64 / self.window_s
    }

    fn mean_step_us(&self) -> f64 {
        self.window_s * 1e6 / self.periods_us.len() as f64
    }
}

fn run_engine(spec: &WorkloadSpec, plan: &Plan, seed: u64, tracing: Option<&Tracing>) -> EngineRun {
    let (warmup, timed) = (plan.warmup, plan.timed);
    let steps = warmup + timed;

    let spans = tracing
        .map(|t| CallbackSpans::new(t.epoch, steps.saturating_sub(t.kept_steps), t.kept_steps));
    // Set-up (trace + model + `FrugalEngine::new`), `plan.setups` times: a
    // 10 ms set-up timed once, at the start of a fresh process, reads the
    // process's cold start (the first two repeats are 1.5× slower than the
    // rest) as much as the work. The median is reported; the run uses the
    // last one.
    let mut setups_s = Vec::new();
    let (trace, inner_model, engine) = loop {
        let t_setup = Instant::now();
        let trace = spec.trace(seed);
        let inner_model = spec.model(seed);
        let mut cfg = spec.config(steps, seed);
        if let Some(t) = tracing {
            cfg.telemetry = t.telemetry.clone();
        }
        let engine = FrugalEngine::new(cfg, spec.n_keys, DIM);
        setups_s.push(t_setup.elapsed().as_secs_f64());
        if setups_s.len() >= plan.setups {
            break (trace, inner_model, engine);
        }
        // The old table is freed here, before the next one is built, so
        // peak memory stays one set-up's.
    };
    let setup_s = stats::median(&setups_s);
    let model = ClockedModel::new(inner_model, warmup, timed, spans.as_ref());

    let t_run = Instant::now();
    let report = match &spans {
        None => engine.run(&trace, &model),
        Some(spans) => engine.run(
            &SpannedTrace {
                inner: trace,
                spans,
            },
            &model,
        ),
    };
    let run_end = Instant::now();

    let ClockedModel { marks, cpu_ns, .. } = model;
    let marks = marks.into_inner().expect("engine threads have joined");
    let cpu_ns = cpu_ns.into_inner().expect("engine threads have joined");
    assert_eq!(
        marks.len() as u64,
        steps,
        "end_step must fire once per step"
    );
    assert_eq!(cpu_ns.len(), 2, "the window has two ends");
    let w = warmup as usize;
    let mut periods_us: Vec<f64> = (w..marks.len())
        .map(|i| marks[i].duration_since(marks[i - 1]).as_secs_f64() * 1e6)
        .collect();
    periods_us.sort_by(f64::total_cmp);
    let last = *marks.last().expect("steps >= 2");
    EngineRun {
        report,
        setup_s,
        run_wall_s: run_end.duration_since(t_run).as_secs_f64(),
        drain_ms: run_end.duration_since(last).as_secs_f64() * 1e3,
        periods_us,
        window_s: last.duration_since(marks[w - 1]).as_secs_f64(),
        window_cpu_ns: cpu_ns[1] - cpu_ns[0],
        callback_spans: spans.map_or_else(Vec::new, CallbackSpans::into_spans),
    }
}

/// The values that must repeat exactly across runs of one (workload, seed)
/// — on this commit and, under a pure speed-up, on every later one.
fn record_exact(out: &mut RepOutput, report: &TrainReport) {
    out.set_exact("flush_rows", report.flush_rows);
    out.set_exact("cache_fills", report.cache_fills);
    out.set_exact(
        "hit_ratio_bits",
        format!("{:016x}", report.hit_ratio.to_bits()),
    );
    out.set_exact(
        "final_loss_bits",
        format!("{:08x}", report.final_loss.to_bits()),
    );
    out.set_exact("steps", report.stats.len());
}

fn check_properties(out: &mut RepOutput, spec: &WorkloadSpec, plan: &Plan, report: &TrainReport) {
    if !plan.check_properties {
        return;
    }
    if let Err(e) = spec.check_hit_ratio(report.hit_ratio) {
        out.failures.push(e);
    }
    if !spec.proactive() {
        out.check(report.flush_rows == 0, || {
            format!(
                "{}: write-through flushed {} rows",
                spec.name, report.flush_rows
            )
        });
    }
}

fn mean_us<T>(items: &[T], ns: impl Fn(&T) -> u64) -> f64 {
    items.iter().map(ns).sum::<u64>() as f64 / items.len() as f64 / 1e3
}

/// An untraced run: every end-to-end metric, plus the per-layer numbers
/// that need no tracing (`engine.*` step times, the `sim.*` breakdown).
pub fn untraced(spec: &WorkloadSpec, plan: &Plan, seed: u64) -> RepOutput {
    let run = run_engine(spec, plan, seed, None);
    let mut out = RepOutput::default();
    let keys = (plan.timed * KEYS_PER_STEP) as f64;

    out.set("keys_per_s", run.keys_per_s());
    out.set("cpu_ns_per_key", run.window_cpu_ns as f64 / keys);
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.set("setup_s", run.setup_s);

    // The modeled (simulated-clock) side, over the same window.
    let iters = &run.report.stats.iters()[plan.warmup as usize..];
    let modeled_s: f64 = iters.iter().map(|it| it.total().as_secs_f64()).sum();
    let samples = (iters.len() as u64 * run.report.stats.samples_per_iter()) as f64;
    out.set("modeled_samples_per_s", samples / modeled_s);
    out.set("sim.step_us", mean_us(iters, |it| it.total().as_nanos()));
    out.set("sim.stall_us", mean_us(iters, |it| it.stall.as_nanos()));
    out.set(
        "sim.host_dram_us",
        mean_us(iters, |it| it.host_dram.as_nanos()),
    );
    out.set("sim.cache_us", mean_us(iters, |it| it.cache.as_nanos()));
    out.set(
        "sim.gentry_us",
        run.report.mean_gentry_update.as_micros_f64(),
    );

    let tail = stats::highest_percentile(run.periods_us.len()).map_or(0.5, |q| q.min(0.99));
    out.set(
        "engine.step_p50_us",
        stats::nearest_rank(&run.periods_us, 0.5),
    );
    out.set(
        "engine.step_p99_us",
        stats::nearest_rank(&run.periods_us, tail),
    );
    out.set("engine.step_tail_q", tail);
    out.set("engine.step_periods", run.periods_us.len() as f64);
    out.set("engine.drain_ms", run.drain_ms);
    out.set("engine.run_wall_s", run.run_wall_s);

    record_exact(&mut out, &run.report);
    check_properties(&mut out, spec, plan, &run.report);
    out
}

/// How many of the newest steps the exported trace covers.
const TRACE_STEPS: u64 = 400;

fn ledger_phase(summary: &TelemetrySummary, phase: LedgerPhase) -> Option<&LedgerPhaseSummary> {
    summary.ledger.as_ref()?.phase(phase)
}

fn phase_mean_ns(summary: &TelemetrySummary, phase: LedgerPhase) -> f64 {
    ledger_phase(summary, phase).map_or(0.0, |p| p.mean_ns)
}

/// The ledger's trainer-side phases: what one step's critical path is
/// made of, as far as the engine accounts for it.
const TRAINER_PHASES: [(LedgerPhase, &str); 10] = [
    (LedgerPhase::Sample, "phase.sample_us"),
    (LedgerPhase::CacheQuery, "phase.cache_query_us"),
    (LedgerPhase::HostRead, "phase.host_read_us"),
    (LedgerPhase::Compute, "phase.compute_us"),
    (LedgerPhase::Reduce, "phase.reduce_us"),
    (LedgerPhase::CacheApply, "phase.cache_apply_us"),
    (LedgerPhase::Registration, "phase.registration_us"),
    (LedgerPhase::LeaderApply, "phase.leader_apply_us"),
    (LedgerPhase::BarrierA, "phase.barrier_a_us"),
    (LedgerPhase::StallWait, "phase.stall_wait_us"),
];

/// The traced run: the same engine run with `Telemetry` on. Phase times
/// come from the public ledger (per-step means over the timed window: the
/// ledger is sized to keep exactly those steps), counts from the public
/// counters (whole run, per step). Writes the Chrome trace of the newest
/// [`TRACE_STEPS`] steps to `trace_path`.
pub fn traced(
    spec: &WorkloadSpec,
    plan: &Plan,
    seed: u64,
    trace_path: Option<&std::path::Path>,
) -> RepOutput {
    let kept_steps = TRACE_STEPS.min(plan.timed);
    // Span rings sized for about the kept steps (a trainer records ~6 spans
    // a step, the flusher two per batch); the ledger keeps the timed steps.
    let tracing = Tracing {
        telemetry: Telemetry::with_ledger_capacity(
            16 * kept_steps as usize,
            4096,
            plan.timed as usize,
        ),
        epoch: Instant::now(),
        kept_steps,
    };
    let run = run_engine(spec, plan, seed, Some(&tracing));
    let mut out = RepOutput::default();
    let Some(summary) = run.report.telemetry.as_ref() else {
        out.failures
            .push("traced run returned no telemetry".to_owned());
        return out;
    };
    let steps = (plan.warmup + plan.timed) as f64;
    let counter = |name: &str| summary.counter(name).unwrap_or(0) as f64;

    out.set("traced.keys_per_s", run.keys_per_s());
    let mut accounted_ns = 0.0;
    for (phase, name) in TRAINER_PHASES {
        let ns = phase_mean_ns(summary, phase);
        accounted_ns += ns;
        out.set(name, ns / 1e3);
    }
    out.set(
        "engine.ledger_coverage",
        accounted_ns / (run.mean_step_us() * 1e3),
    );
    let stall_p99 = ledger_phase(summary, LedgerPhase::StallWait).map_or(0, |p| p.p99_ns);
    out.set("phase.stall_wait_p99_us", stall_p99 as f64 / 1e3);
    out.set(
        "count.p2f_stalls_per_kstep",
        counter("p2f.stalls") / steps * 1e3,
    );

    out.set(
        "phase.flush_dequeue_us",
        phase_mean_ns(summary, LedgerPhase::FlushDequeue) / 1e3,
    );
    out.set(
        "phase.flush_apply_us",
        phase_mean_ns(summary, LedgerPhase::FlushApply) / 1e3,
    );
    let flush_rows = run.report.flush_rows as f64;
    let per_flushed_row = |total_ns: f64| {
        if flush_rows > 0.0 {
            total_ns / flush_rows
        } else {
            0.0
        }
    };
    out.set(
        "flusher.dequeue_ns_row",
        per_flushed_row(counter("flusher.dequeue_total_ns")),
    );
    out.set(
        "flusher.claim_ns_row",
        per_flushed_row(counter("flusher.claim_total_ns")),
    );
    out.set(
        "flusher.apply_ns_row",
        per_flushed_row(counter("flusher.apply_total_ns")),
    );
    out.set(
        "flusher.batch_rows_mean",
        summary
            .histogram("flush.batch_rows")
            .map_or(0.0, |h| h.mean()),
    );
    let flusher_wall_ns = run.run_wall_s * 1e9 * FLUSH_THREADS as f64;
    out.set(
        "flusher.parked_share",
        if spec.proactive() {
            counter("flusher.parked_ns") / flusher_wall_ns
        } else {
            0.0
        },
    );

    out.set("count.keys_per_step", KEYS_PER_STEP as f64);
    out.set(
        "count.unique_keys_per_step",
        (counter("cache.hits") + counter("cache.misses")) / steps,
    );
    out.set(
        "count.host_reads_per_step",
        counter("store.row_reads") / steps,
    );
    out.set("count.cache_hit_ratio", run.report.hit_ratio);
    out.set(
        "count.cache_fills_per_step",
        run.report.cache_fills as f64 / steps,
    );
    out.set("count.flush_rows_per_step", flush_rows / steps);
    out.set(
        "count.store_writes_per_step",
        counter("store.row_writes") / steps,
    );

    record_exact(&mut out, &run.report);
    out.set_exact("store_row_reads", counter("store.row_reads"));
    out.set_exact("store_row_writes", counter("store.row_writes"));
    out.set_exact(
        "unique_keys",
        counter("cache.hits") + counter("cache.misses"),
    );
    check_properties(&mut out, spec, plan, &run.report);
    if plan.check_properties {
        let (stall_us, registration_us) = (
            out.get("phase.stall_wait_us"),
            out.get("phase.registration_us"),
        );
        out.check(!spec.expects_stall || stall_us > 0.0, || {
            format!("{}: no P2F stall wait in the traced run", spec.name)
        });
        out.check(spec.proactive() || registration_us == 0.0, || {
            format!("{}: write-through spent time in registration", spec.name)
        });
    }
    if let Some(path) = trace_path {
        if let Err(e) = write_trace(path, &tracing.telemetry, &run.callback_spans) {
            out.failures
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    out
}

/// One Chrome trace document: the engine's own spans (its exporter's
/// `B`/`E` events and flusher→trainer flow arrows) plus the benchmark's
/// callback spans on their own tracks, on one clock.
fn write_trace(
    path: &std::path::Path,
    telemetry: &Telemetry,
    callback_spans: &[Span],
) -> Result<(), String> {
    let doc = telemetry.chrome_trace_json().ok_or("telemetry is off")?;
    let mut doc = json::parse(&doc).map_err(|e| e.to_string())?;
    let Json::Obj(fields) = &mut doc else {
        return Err("trace document is not an object".to_owned());
    };
    let Some((_, Json::Arr(events))) = fields.iter_mut().find(|(k, _)| k == "traceEvents") else {
        return Err("trace document has no traceEvents".to_owned());
    };
    let mut tracks: Vec<(u32, String)> = (0..N_GPUS as u32)
        .map(|g| (STREAM_TRACK + g, format!("benchmark callbacks, stream {g}")))
        .collect();
    tracks.push((LEADER_TRACK, "benchmark callbacks, step leader".to_owned()));
    events.extend(chrome_events(callback_spans, 1, &tracks));
    std::fs::write(path, crate::jsonio::to_line(&doc)).map_err(|e| e.to_string())
}

/// The verify run's optional fault: the public knobs that break P²F's
/// wait condition, used to prove the check below can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// `skip_wait` with a throttled flusher, as `tests/consistency.rs`
    /// injects it: trainers read host rows whose updates are still queued.
    SkipWait,
}

/// The verify run: the workload's inputs for `plan.verify` steps in checked
/// mode, then every host-store row and the final loss compared bitwise
/// with the single-threaded oracle (`train_serial_with`) on the same
/// trace. The oracle is timed: it is the single-worker baseline.
pub fn verify(spec: &WorkloadSpec, plan: &Plan, seed: u64, fault: Fault) -> RepOutput {
    let steps = plan.verify;
    let trace = spec.trace(seed);
    let model = spec.model(seed);
    let mut cfg = spec.config(steps, seed).checked();
    if fault == Fault::SkipWait {
        cfg.skip_wait = true;
        cfg.flush_throttle_us = 500;
        cfg.flush_batch = 8;
    }
    let lr = cfg.lr;
    let engine = FrugalEngine::new(cfg, spec.n_keys, DIM);
    let report = engine.run(&trace, &model);

    // The oracle's time includes building its own store (inside the call).
    let t_oracle = Instant::now();
    let oracle = train_serial_with(&trace, &model, steps, lr, seed, spec.optimizer);
    let oracle_s = t_oracle.elapsed().as_secs_f64();

    let mut out = RepOutput::default();
    out.set(
        "oracle.keys_per_s",
        (steps * KEYS_PER_STEP) as f64 / oracle_s,
    );

    let (mut got, mut want) = (vec![0.0f32; DIM], vec![0.0f32; DIM]);
    let mut differing = 0u64;
    let mut first = None;
    for key in 0..spec.n_keys {
        engine.store().read_row(key, &mut got);
        oracle.store.read_row(key, &mut want);
        if got
            .iter()
            .zip(&want)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            differing += 1;
            first.get_or_insert(key);
        }
    }
    out.check(differing == 0, || {
        format!(
            "{}: {differing} host rows differ bitwise from the serial oracle (first: key {})",
            spec.name,
            first.unwrap_or(0)
        )
    });
    out.check(
        report.final_loss.to_bits() == oracle.final_loss.to_bits(),
        || {
            format!(
                "{}: final loss {} differs from the oracle's {}",
                spec.name, report.final_loss, oracle.final_loss
            )
        },
    );
    out.check(report.violations == 0, || {
        format!(
            "{}: {} consistency violations",
            spec.name, report.violations
        )
    });
    out.check(report.races == 0, || {
        format!("{}: {} row races", spec.name, report.races)
    });
    out.set_exact(
        "verify_final_loss_bits",
        format!("{:08x}", report.final_loss.to_bits()),
    );
    out
}

/// The small workload the fault self-test runs: uniform keys over a table
/// barely larger than a batch, so nearly every row written at step `s` is
/// read again within a step or two — while its update is still queued
/// behind the throttled flusher.
pub fn selftest_input() -> (WorkloadSpec, Plan) {
    let (mut spec, mut plan) = crate::workloads::find("cold")
        .expect("cold is in the table")
        .tiny();
    spec.n_keys = 4_096;
    plan.verify = 8;
    (spec, plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harness smoke for one workload: tiny tables, all three engine
    /// runs. One test per workload so they run side by side and the four
    /// together stay under ten seconds.
    fn smoke(name: &str) {
        let w = crate::workloads::find(name).unwrap();
        let (spec, plan) = w.tiny();
        let u = untraced(&spec, &plan, 7);
        assert_eq!(u.failures, Vec::<String>::new(), "{}", w.name);
        // (40 steps can be too short for one 10 ms tick of CPU time.)
        for name in ["keys_per_s", "modeled_samples_per_s", "setup_s"] {
            assert!(u.get(name) > 0.0, "{} {name}", w.name);
        }
        assert_eq!(u.exact["steps"], "60");
        assert!(u.get("engine.step_p50_us") > 0.0);
        assert!(u.get("engine.step_p99_us") >= u.get("engine.step_p50_us"));

        let path = host::out_dir()
            .unwrap()
            .join(format!("smoke-test.{}.trace.json", w.name));
        let t = traced(&spec, &plan, 7, Some(&path));
        assert_eq!(t.failures, Vec::<String>::new(), "{}", w.name);
        assert_eq!(t.get("count.keys_per_step"), KEYS_PER_STEP as f64);
        assert!(t.get("phase.compute_us") > 0.0 && t.get("engine.ledger_coverage") > 0.0);
        assert_eq!(
            t.get("phase.registration_us") > 0.0,
            spec.proactive(),
            "{}",
            w.name
        );
        assert_eq!(t.get("count.flush_rows_per_step") > 0.0, spec.proactive());
        // Determinism, and telemetry changes no behaviour: the second run
        // repeats every exact value of the first.
        for (k, v) in &u.exact {
            assert_eq!(&t.exact[k], v, "{} {k}", w.name);
        }
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let named = |n: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(n))
        };
        assert!(named("compute") && named("callback.forward_backward") && named("callback.keys"));

        let v = verify(&spec, &plan, 7, Fault::None);
        assert_eq!(v.failures, Vec::<String>::new(), "{}", w.name);
        assert!(v.get("oracle.keys_per_s") > 0.0);
    }

    #[test]
    fn zipf_runs_verifies_and_traces() {
        smoke("zipf");
    }

    #[test]
    fn cold_runs_verifies_and_traces() {
        smoke("cold");
    }

    #[test]
    fn hot_runs_verifies_and_traces() {
        smoke("hot");
    }

    #[test]
    fn sync_runs_verifies_and_traces() {
        smoke("sync");
    }

    /// The correctness check is live: the injected fault must be caught,
    /// the clean configuration must pass.
    #[test]
    fn verify_catches_a_skipped_wait() {
        let (spec, plan) = selftest_input();
        let clean = verify(&spec, &plan, 7, Fault::None);
        assert_eq!(clean.failures, Vec::<String>::new());
        let broken = verify(&spec, &plan, 7, Fault::SkipWait);
        assert!(!broken.failures.is_empty(), "skip_wait went unnoticed");
    }
}
