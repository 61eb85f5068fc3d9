//! Fixed-seed engine perf smoke: the per-PR perf trajectory tracker.
//!
//! Runs the full Frugal engine on deterministic workloads and writes
//! `BENCH_engine.json` with the numbers the perf trajectory tracks. Three
//! profiles are measured per invocation:
//!
//! * `2gpu` — the historical smoke workload (2 GPUs, 10k keys, Zipf 0.9,
//!   batch 256), keeping the trajectory comparable across the repo's life;
//! * `8gpu` — the paper's commodity testbed width (8 GPUs, 40k keys,
//!   batch 1024, 4 flushers), the configuration the scaling work is gated
//!   on. Its step count defaults to half the 2-GPU count (the cohort is
//!   4× wider, so wall-clock per step grows on small hosts) and can be
//!   pinned with `FRUGAL_SMOKE_STEPS_8GPU`;
//! * `elastic` — the `8gpu` workload with one mid-run 8→6→8 membership
//!   transition (shrink at ⅓ of the run, regrow at ⅔). Besides the common
//!   metrics it records `membership_transition_ms` (total drain → re-home
//!   → resume wall time, gated by an absolute ceiling in `ci/perf_gate.py`)
//!   and `post_transition_steps_per_sec` (throughput with the transition
//!   time excluded — the steady-state rate the cohort returns to).
//!
//! Each profile records:
//!
//! * `steps_per_sec` — wall-clock engine steps per second (best of
//!   `FRUGAL_SMOKE_REPEATS` runs, to cut scheduler noise),
//! * `mean_gentry_ns` — mean per-step g-entry registration time (the
//!   paper's Exp #4a metric, on the modeled clock),
//! * `p95_stall_ns` — 95th-percentile modeled training stall (with
//!   `mean_gentry_ns`, a pure function of the profile's seed and
//!   configuration: `ci/perf_gate.py` requires both to equal the
//!   baseline exactly),
//! * `flush_apply_ns_row` — mean flush-apply cost per row (claim +
//!   optimizer step + host-store write), the flush-path efficiency
//!   metric (taken from the same best-throughput run),
//! * `cache_hit_ratio` — aggregate GPU-cache hit ratio (gated as a floor:
//!   a policy or sharding regression that silently craters cache locality
//!   shows up here before it shows up in throughput),
//! * `cache_fill_ns_row` — mean host→arena copy cost per accepted cache
//!   fill (the zero-alloc flat-arena fill path).
//!
//! The `fifo_*` fields record the arrival-order flush ablation on the
//! same workload; the perf gate reports them but never gates on them.
//!
//! After the timed repeats, one additional run per profile executes with
//! full telemetry attached and emits the critical-path **phase ledger**: a
//! `"phases"` object with per-step mean/p50/p95/p99/max nanoseconds for
//! every engine phase (sample → leader_apply on trainers, dequeue/apply on
//! flushers). `ci/perf_gate.py` uses it to attribute a throughput or
//! stall regression to the phase(s) that moved. `profiled_steps_per_sec`
//! records that run's throughput so the profiling overhead itself is
//! visible (it must stay within a few percent of `steps_per_sec`).
//!
//! A `gentry_mem` block records the compact g-entry store's resident
//! bytes per key at `FRUGAL_SMOKE_MEM_KEYS` keys (default 1M; the
//! DESIGN.md §14 numbers were produced with 1M/10M/100M) — the CriteoTB
//! feasibility measurement behind the < 32 bytes/key acceptance bound.
//!
//! Environment knobs: `FRUGAL_SMOKE_STEPS` (default 200),
//! `FRUGAL_SMOKE_STEPS_8GPU` (default half of `FRUGAL_SMOKE_STEPS`),
//! `FRUGAL_SMOKE_WARMUP` (warmup steps before the timed repeats; default
//! full profile length — see `measure_profile`),
//! `FRUGAL_SMOKE_REPEATS` (default 3), `FRUGAL_SMOKE_MEM_KEYS` (default
//! 1e6), `FRUGAL_SMOKE_OUT` (default `BENCH_engine.json`),
//! `FRUGAL_SMOKE_BASELINE` (path to a previous output whose `current`
//! blocks are embedded as `baseline` for side-by-side comparison; flat
//! files predating the multi-profile schema are read as a bare `2gpu`
//! profile), `FRUGAL_SMOKE_TRACE` (path to write the 2-GPU profiled run's
//! Chrome trace — open in `chrome://tracing` or Perfetto to see the
//! cross-thread unblock arrows).

use frugal_core::{FrugalConfig, FrugalEngine, GEntryStore, MembershipPlan, PullToTarget};
use frugal_data::{KeyDistribution, SyntheticTrace};
use frugal_pq::TwoLevelPq;
use frugal_telemetry::{LedgerPhase, Telemetry};
use std::sync::Arc;
use std::time::Instant;

const DIM: usize = 32;
const SEED: u64 = 7;

/// One smoke workload configuration.
#[derive(Debug, Clone, Copy)]
struct Profile {
    name: &'static str,
    n_gpus: usize,
    n_keys: u64,
    batch: usize,
    flush_threads: usize,
    steps: u64,
    /// Per-GPU cache capacity as a fraction of the embedding table. Set
    /// explicitly per profile (not left at the `commodity` default) so the
    /// smoke exercises a *warm* cache: with the default 5% the early
    /// profiles recorded `cache_hit_ratio: 0.0000`, which made the perf
    /// gate's hit-ratio floor vacuous.
    cache_ratio: f64,
    /// Whether this profile's instrumented run exports the Chrome trace.
    trace: bool,
    /// Elastic profiles run one mid-run 8→6→8 membership transition
    /// (shrink at ⅓ of the run, regrow at ⅔) and additionally record
    /// `membership_transition_ms` and the steady-state throughput with the
    /// transition cost excluded.
    elastic: bool,
}

#[derive(Debug, Clone, Copy)]
struct SmokeNumbers {
    steps_per_sec: f64,
    mean_gentry_ns: u64,
    p95_stall_ns: u64,
    flush_apply_ns_row: f64,
    cache_hit_ratio: f64,
    cache_fill_ns_row: f64,
    /// Arrival-order flush ablation on the same workload — recorded for
    /// the trajectory (the perf gate reports it but does not gate on it).
    fifo_steps_per_sec: f64,
    fifo_p95_stall_ns: u64,
    /// Elastic profiles only (0 elsewhere): total wall time of the run's
    /// membership transitions (drain → re-home → resume), and the run's
    /// throughput with that time excluded — the steady-state rate the
    /// cohort returns to after the regrow.
    membership_transition_ms: f64,
    post_transition_steps_per_sec: f64,
}

/// One per-phase row of the profiled run's ledger summary.
#[derive(Debug, Clone)]
struct PhaseRow {
    name: &'static str,
    steps: u64,
    mean_ns: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn smoke_cfg(p: &Profile) -> FrugalConfig {
    let mut cfg = FrugalConfig::commodity(p.n_gpus, p.steps);
    cfg.flush_threads = p.flush_threads;
    cfg.cache_ratio = p.cache_ratio;
    cfg.seed = SEED;
    if p.elastic {
        // Trainers 3 and 6 leave a third of the way in and rejoin at two
        // thirds — the same 8→6→8 shape the elastic bit-equality suite
        // proves correct; here it is timed instead.
        let shrink = (p.steps / 3).max(1);
        let regrow = (p.steps * 2 / 3).max(shrink + 1);
        cfg = cfg.with_membership(
            MembershipPlan::default()
                .change(shrink, vec![0, 1, 2, 4, 5, 7])
                .change(regrow, (0..p.n_gpus).collect()),
        );
    }
    cfg
}

fn make_trace(p: &Profile) -> SyntheticTrace {
    SyntheticTrace::new(
        p.n_keys,
        KeyDistribution::Zipf(0.9),
        p.batch,
        p.n_gpus,
        SEED,
    )
    .expect("valid trace")
}

fn run_once(p: &Profile) -> SmokeNumbers {
    let trace = make_trace(p);
    let model = PullToTarget::new(DIM, SEED);
    let engine = FrugalEngine::new(smoke_cfg(p), p.n_keys, DIM);
    let t0 = Instant::now();
    let report = engine.run(&trace, &model);
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.stats.len(), p.steps as usize);
    assert_eq!(report.violations, 0);

    // The arrival-order ablation on the same workload, timed once per run:
    // informational trajectory numbers (never gated).
    let fifo_engine = FrugalEngine::new(smoke_cfg(p).fifo(), p.n_keys, DIM);
    let t1 = Instant::now();
    let fifo_report = fifo_engine.run(&trace, &model);
    let fifo_wall = t1.elapsed().as_secs_f64();
    assert_eq!(fifo_report.stats.len(), p.steps as usize);

    let transition_s = report.membership_transition_ns as f64 / 1e9;
    if p.elastic {
        assert!(
            report.membership_transition_ns > 0,
            "elastic profile must execute its transitions"
        );
    }
    SmokeNumbers {
        steps_per_sec: p.steps as f64 / wall.max(1e-9),
        mean_gentry_ns: report.mean_gentry_update.as_nanos(),
        p95_stall_ns: report.stats.stall_percentile(0.95).as_nanos(),
        flush_apply_ns_row: report.mean_flush_apply_ns_row(),
        cache_hit_ratio: report.hit_ratio,
        cache_fill_ns_row: report.mean_cache_fill_ns_row(),
        fifo_steps_per_sec: p.steps as f64 / fifo_wall.max(1e-9),
        fifo_p95_stall_ns: fifo_report.stats.stall_percentile(0.95).as_nanos(),
        membership_transition_ms: transition_s * 1e3,
        post_transition_steps_per_sec: p.steps as f64 / (wall - transition_s).max(1e-9),
    }
}

/// One fully instrumented run: phase ledger, stall provenance, and (when
/// `FRUGAL_SMOKE_TRACE` is set) a Chrome trace with unblock flow arrows.
/// Kept separate from the timed repeats so profiling cost never taints
/// the gated `steps_per_sec`.
fn run_profiled_once(p: &Profile) -> (f64, Telemetry) {
    let telemetry = Telemetry::new();
    let trace = make_trace(p);
    let model = PullToTarget::new(DIM, SEED);
    let cfg = smoke_cfg(p).with_telemetry(telemetry.clone());
    let engine = FrugalEngine::new(cfg, p.n_keys, DIM);
    let t0 = Instant::now();
    let report = engine.run(&trace, &model);
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.stats.len(), p.steps as usize);
    (p.steps as f64 / wall.max(1e-9), telemetry)
}

/// Best of `repeats` instrumented runs — the *same* sample count as the
/// untimed measurement, so `profiled_steps_per_sec` vs `steps_per_sec`
/// reflects profiling overhead rather than best-of-N sampling bias or
/// scheduler noise. The kept run's ledger and Chrome trace are the ones
/// exported.
fn run_profiled(p: &Profile, repeats: u64) -> (f64, Vec<PhaseRow>) {
    let mut best = run_profiled_once(p);
    for _ in 1..repeats {
        let next = run_profiled_once(p);
        if next.0 > best.0 {
            best = next;
        }
    }
    let (sps, telemetry) = best;

    if p.trace {
        if let Ok(path) = std::env::var("FRUGAL_SMOKE_TRACE") {
            if !path.is_empty() {
                match telemetry.write_chrome_trace(&path) {
                    Ok(true) => eprintln!("wrote chrome trace: {path}"),
                    Ok(false) => eprintln!("chrome trace skipped (telemetry off)"),
                    Err(e) => eprintln!("chrome trace write failed: {e}"),
                }
            }
        }
    }

    let mut rows = Vec::with_capacity(LedgerPhase::COUNT);
    if let Some(summary) = telemetry.ledger_summary() {
        for p in summary.phases {
            rows.push(PhaseRow {
                name: p.phase.name(),
                steps: p.steps,
                mean_ns: p.mean_ns as u64,
                p50_ns: p.p50_ns,
                p95_ns: p.p95_ns,
                p99_ns: p.p99_ns,
                max_ns: p.max_ns,
            });
        }
    }
    (sps, rows)
}

/// The g-entry memory probe: builds a store shaped like a mid-training
/// lookahead window over `keys` keys — every key carries a registered
/// read, one in 64 also carries a pending write (sharing one gradient
/// allocation, so the measurement isolates store metadata) — and reports
/// the analytic resident bytes plus a best-effort process-RSS delta.
fn gentry_mem_probe(keys: u64) -> (usize, f64, i64) {
    let rss_before = proc_rss_bytes();
    let store = GEntryStore::new();
    // max_step bounds PQ allocation, not the probe; reads spread over a
    // lookahead-sized step window like the engine produces.
    let pq = TwoLevelPq::new(1024);
    let grad: Arc<[f32]> = vec![0.0f32; DIM].into();
    for k in 0..keys {
        store.add_read(k, k % 11, &pq);
        if k % 64 == 0 {
            store.add_write(k, k % 11, Arc::clone(&grad), &pq);
        }
    }
    let resident = store.resident_bytes();
    let rss_delta = proc_rss_bytes() - rss_before;
    assert_eq!(store.len(), keys as usize);
    (resident, resident as f64 / keys as f64, rss_delta)
}

/// Resident set size in bytes from `/proc/self/statm` (0 where absent).
fn proc_rss_bytes() -> i64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            let pages: i64 = s.split_whitespace().nth(1)?.parse().ok()?;
            Some(pages * 4096)
        })
        .unwrap_or(0)
}

/// Extracts `"field": <number>` from the `"current"` object of a previous
/// smoke output (the files are flat and machine-written; a full JSON parser
/// is not warranted for a handful of known keys). `json` is one profile's
/// slice (see [`extract_profile`]).
fn extract_number(json: &str, field: &str) -> Option<f64> {
    let cur = json.find("\"current\"")?;
    let tail = &json[cur..];
    let pos = tail.find(&format!("\"{field}\""))?;
    let rest = &tail[pos + field.len() + 2..];
    let colon = rest.find(':')?;
    let val: String = rest[colon + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    val.parse().ok()
}

/// Copies the `"phases": { ... }` object out of the `"current"` block of a
/// previous smoke output verbatim (balanced-brace scan; the files are
/// machine-written with no braces inside strings). Baselines written
/// before the phase ledger existed simply have no such object.
fn extract_phases(json: &str) -> Option<String> {
    let cur = json.find("\"current\"")?;
    let tail = &json[cur..];
    let pos = tail.find("\"phases\"")?;
    let rest = &tail[pos..];
    balanced_object(rest)
}

/// The `{ ... }` object starting at the first `{` of `s`, braces balanced.
fn balanced_object(s: &str) -> Option<String> {
    let open = s.find('{')?;
    let mut depth = 0usize;
    for (i, c) in s[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(s[open..=open + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Slices one profile's object out of a previous smoke output.
///
/// Multi-profile files carry `"profiles": {"2gpu": {...}, "8gpu": {...}}`;
/// the named object is returned verbatim. Files written before the
/// multi-profile schema are flat — their whole document *is* the 2-GPU
/// profile, so they are returned whole for `"2gpu"` and absent for any
/// other name. Either way the result is fed to [`extract_number`] /
/// [`extract_phases`], which scan for the `"current"` block inside.
fn extract_profile(json: &str, name: &str) -> Option<String> {
    match json.find("\"profiles\"") {
        Some(pos) => {
            let tail = &json[pos..];
            let profiles = balanced_object(tail)?;
            let ppos = profiles.find(&format!("\"{name}\""))?;
            balanced_object(&profiles[ppos..])
        }
        None if name == "2gpu" => Some(json.to_string()),
        None => None,
    }
}

fn phases_json(rows: &[PhaseRow], indent: &str) -> String {
    let mut s = String::from("{\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "{indent}  \"{}\": {{\"steps\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}{}\n",
            r.name,
            r.steps,
            r.mean_ns,
            r.p50_ns,
            r.p95_ns,
            r.p99_ns,
            r.max_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str(indent);
    s.push('}');
    s
}

/// Renders one result block. `phases` is pre-rendered JSON (either from
/// this run's ledger or copied verbatim from a baseline file); scalar
/// fields stay first so the flat `extract_number` parser keeps working on
/// both old and new files. Elastic profiles append the transition cost
/// and the steady-state (transition-excluded) throughput.
fn block(
    n: &SmokeNumbers,
    profiled_steps_per_sec: f64,
    phases: Option<&str>,
    elastic: bool,
    ind: &str,
) -> String {
    let mut s = format!(
        "{{\n{ind}  \"steps_per_sec\": {:.2},\n{ind}  \"mean_gentry_ns\": {},\n{ind}  \"p95_stall_ns\": {},\n{ind}  \"flush_apply_ns_row\": {:.2},\n{ind}  \"cache_hit_ratio\": {:.4},\n{ind}  \"cache_fill_ns_row\": {:.2},\n{ind}  \"fifo_steps_per_sec\": {:.2},\n{ind}  \"fifo_p95_stall_ns\": {},\n{ind}  \"profiled_steps_per_sec\": {:.2}",
        n.steps_per_sec,
        n.mean_gentry_ns,
        n.p95_stall_ns,
        n.flush_apply_ns_row,
        n.cache_hit_ratio,
        n.cache_fill_ns_row,
        n.fifo_steps_per_sec,
        n.fifo_p95_stall_ns,
        profiled_steps_per_sec
    );
    if elastic {
        s.push_str(&format!(
            ",\n{ind}  \"membership_transition_ms\": {:.3},\n{ind}  \"post_transition_steps_per_sec\": {:.2}",
            n.membership_transition_ms, n.post_transition_steps_per_sec
        ));
    }
    if let Some(p) = phases {
        s.push_str(&format!(",\n{ind}  \"phases\": "));
        s.push_str(p);
    }
    s.push_str(&format!("\n{ind}}}"));
    s
}

/// Measures one profile end to end and renders its JSON object (workload,
/// optional baseline block sliced from `baseline_json`, current block).
fn measure_profile(p: &Profile, repeats: u64, baseline_json: Option<&str>) -> String {
    eprintln!(
        "profile {}: {} gpus, {} keys, batch {}, {} steps",
        p.name, p.n_gpus, p.n_keys, p.batch, p.steps
    );
    // Warmup run (page-faults the store, primes the allocator, and lets
    // the OS scheduler settle thread placement), then take the best of
    // `repeats` measured runs. Full-length by default: the truncated
    // 20-step warmup left the wider profiles under-warmed, so the
    // *profiled* run — which executes after all the timed repeats — beat
    // the timed best by >20% (warmup bias, not profiling speedup).
    // `FRUGAL_SMOKE_WARMUP` overrides the warmup step count.
    let warmup = Profile {
        steps: env_u64("FRUGAL_SMOKE_WARMUP", p.steps).max(1),
        ..*p
    };
    let _ = run_once(&warmup);
    let mut best: Option<SmokeNumbers> = None;
    for i in 0..repeats {
        let n = run_once(p);
        eprintln!(
            "  run {}/{}: {:.1} steps/s, gentry {} ns, p95 stall {} ns, flush {:.1} ns/row, hit {:.1}%, fill {:.1} ns/row, fifo {:.1} steps/s",
            i + 1,
            repeats,
            n.steps_per_sec,
            n.mean_gentry_ns,
            n.p95_stall_ns,
            n.flush_apply_ns_row,
            n.cache_hit_ratio * 100.0,
            n.cache_fill_ns_row,
            n.fifo_steps_per_sec
        );
        best = Some(match best {
            Some(b) if b.steps_per_sec >= n.steps_per_sec => b,
            _ => n,
        });
    }
    let current = best.expect("at least one run");

    // The instrumented run, after the timed repeats so its overhead cannot
    // taint them.
    let (profiled_sps, phase_rows) = run_profiled(p, repeats);
    eprintln!(
        "  profiled run: {:.1} steps/s ({:+.1}% vs best untimed)",
        profiled_sps,
        (profiled_sps / current.steps_per_sec - 1.0) * 100.0
    );
    for r in &phase_rows {
        eprintln!(
            "    phase {:>14}: mean {:>9} ns  p50 {:>9}  p95 {:>9}  p99 {:>9}  max {:>10}",
            r.name, r.mean_ns, r.p50_ns, r.p95_ns, r.p99_ns, r.max_ns
        );
    }

    let profile_baseline = baseline_json.and_then(|j| extract_profile(j, p.name));
    let baseline = profile_baseline.as_ref().and_then(|json| {
        Some(SmokeNumbers {
            steps_per_sec: extract_number(json, "steps_per_sec")?,
            mean_gentry_ns: extract_number(json, "mean_gentry_ns")? as u64,
            p95_stall_ns: extract_number(json, "p95_stall_ns")? as u64,
            // Optional: baselines written before these fields existed
            // compare as 0 (the perf gate skips a zero baseline).
            flush_apply_ns_row: extract_number(json, "flush_apply_ns_row").unwrap_or(0.0),
            cache_hit_ratio: extract_number(json, "cache_hit_ratio").unwrap_or(0.0),
            cache_fill_ns_row: extract_number(json, "cache_fill_ns_row").unwrap_or(0.0),
            fifo_steps_per_sec: extract_number(json, "fifo_steps_per_sec").unwrap_or(0.0),
            fifo_p95_stall_ns: extract_number(json, "fifo_p95_stall_ns").unwrap_or(0.0) as u64,
            membership_transition_ms: extract_number(json, "membership_transition_ms")
                .unwrap_or(0.0),
            post_transition_steps_per_sec: extract_number(json, "post_transition_steps_per_sec")
                .unwrap_or(0.0),
        })
    });
    let baseline_profiled = profile_baseline
        .as_ref()
        .and_then(|json| extract_number(json, "profiled_steps_per_sec"))
        .unwrap_or(0.0);
    let baseline_phases = profile_baseline.as_ref().and_then(|j| extract_phases(j));

    let mut s = format!(
        "{{\n      \"workload\": {{\n        \"n_gpus\": {},\n        \"zipf\": 0.9,\n        \"steps\": {},\n        \"n_keys\": {},\n        \"batch\": {},\n        \"flush_threads\": {},\n        \"cache_ratio\": {},\n        \"seed\": {SEED}\n      }},\n",
        p.n_gpus, p.steps, p.n_keys, p.batch, p.flush_threads, p.cache_ratio
    );
    if let Some(b) = &baseline {
        s.push_str(&format!(
            "      \"baseline\": {},\n",
            block(
                b,
                baseline_profiled,
                baseline_phases.as_deref(),
                p.elastic,
                "      "
            )
        ));
        println!(
            "{} baseline: {:.1} steps/s, gentry {} ns, p95 stall {} ns, flush {:.1} ns/row",
            p.name, b.steps_per_sec, b.mean_gentry_ns, b.p95_stall_ns, b.flush_apply_ns_row
        );
    }
    let cur_phases = phases_json(&phase_rows, "        ");
    s.push_str(&format!(
        "      \"current\": {}\n    }}",
        block(
            &current,
            profiled_sps,
            Some(&cur_phases),
            p.elastic,
            "      "
        )
    ));
    if p.elastic {
        println!(
            "{} transitions: {:.3} ms total, {:.1} steps/s excluding transition time",
            p.name, current.membership_transition_ms, current.post_transition_steps_per_sec
        );
    }
    println!(
        "{} current: {:.1} steps/s, gentry {} ns, p95 stall {} ns, flush {:.1} ns/row, hit {:.1}%, fill {:.1} ns/row, fifo {:.1} steps/s",
        p.name,
        current.steps_per_sec,
        current.mean_gentry_ns,
        current.p95_stall_ns,
        current.flush_apply_ns_row,
        current.cache_hit_ratio * 100.0,
        current.cache_fill_ns_row,
        current.fifo_steps_per_sec
    );
    s
}

fn main() {
    let steps = env_u64("FRUGAL_SMOKE_STEPS", 200);
    let repeats = env_u64("FRUGAL_SMOKE_REPEATS", 3).max(1);
    let mem_keys = env_u64("FRUGAL_SMOKE_MEM_KEYS", 1_000_000).max(1);
    let out_path =
        std::env::var("FRUGAL_SMOKE_OUT").unwrap_or_else(|_| "BENCH_engine.json".to_string());

    let profiles = [
        Profile {
            name: "2gpu",
            n_gpus: 2,
            n_keys: 10_000,
            batch: 256,
            flush_threads: 2,
            steps,
            // 20% of 10k keys = 2000 rows per GPU: under Zipf 0.9 the hot
            // head fits, so the profile measures a working cache (hits,
            // fills, and evictions) instead of an always-missing one.
            cache_ratio: 0.20,
            trace: true,
            elastic: false,
        },
        Profile {
            name: "8gpu",
            n_gpus: 8,
            n_keys: 40_000,
            batch: 1_024,
            flush_threads: 4,
            steps: env_u64("FRUGAL_SMOKE_STEPS_8GPU", (steps / 2).max(20)),
            // 5% of 40k keys = 2000 rows per GPU. Doubling this bought
            // almost no extra hits (the Zipf-0.9 head past the hot set is
            // nearly flat, and cache ownership splits it 8 ways) while the
            // larger resident set tripled cache_apply/fill cost — so the
            // wide profile keeps the paper's 5% and the non-zero hit floor
            // comes from the hot head it does capture.
            cache_ratio: 0.05,
            trace: false,
            elastic: false,
        },
        Profile {
            name: "elastic",
            n_gpus: 8,
            n_keys: 40_000,
            batch: 1_024,
            flush_threads: 4,
            steps: env_u64("FRUGAL_SMOKE_STEPS_8GPU", (steps / 2).max(20)),
            // Identical workload to `8gpu` except for the mid-run 8→6→8
            // membership transition, so the throughput delta between the
            // two profiles *is* the elasticity cost.
            cache_ratio: 0.05,
            trace: false,
            elastic: true,
        },
    ];

    let baseline_json = std::env::var("FRUGAL_SMOKE_BASELINE")
        .ok()
        .and_then(|p| std::fs::read_to_string(p).ok());

    let mut json = String::from("{\n  \"bench\": \"engine_smoke\",\n  \"profiles\": {\n");
    for (i, p) in profiles.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {}{}\n",
            p.name,
            measure_profile(p, repeats, baseline_json.as_deref()),
            if i + 1 < profiles.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");

    let (resident, bytes_per_key, rss_delta) = gentry_mem_probe(mem_keys);
    eprintln!(
        "gentry mem probe: {mem_keys} keys, {resident} resident bytes ({bytes_per_key:.1} B/key), rss delta {rss_delta}"
    );
    json.push_str(&format!(
        "  \"gentry_mem\": {{\n    \"keys\": {mem_keys},\n    \"resident_bytes\": {resident},\n    \"bytes_per_key\": {bytes_per_key:.2},\n    \"rss_delta_bytes\": {rss_delta}\n  }}\n}}\n"
    ));
    std::fs::write(&out_path, &json).expect("write smoke output");
    println!("wrote {out_path}: gentry store {bytes_per_key:.1} bytes/key at {mem_keys} keys");
}
