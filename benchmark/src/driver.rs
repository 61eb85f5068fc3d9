//! The driver: spawns one child process per run (so peak memory and
//! allocator state are per run), repeats runs until the time budget is
//! spent, checks them, and folds them into the metrics of one workload.

use crate::host;
use crate::jsonio::{num, obj, text, to_line};
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};
use crate::rep::RepOutput;
use crate::stats;
use crate::workloads::WorkloadSpec;
use frugal_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The four kinds of run, each one child process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    Untraced,
    Traced,
    Replay,
    Verify,
}

impl Mode {
    pub const ALL: [Mode; 4] = [Mode::Untraced, Mode::Traced, Mode::Replay, Mode::Verify];

    pub fn label(self) -> &'static str {
        match self {
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
            Mode::Replay => "replay",
            Mode::Verify => "verify",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.label() == s)
    }
}

/// Which metrics a driver run is after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// `--trace 0`: untraced runs and the verify run.
    EndToEnd,
    /// `--trace 1`: untraced and traced runs, the replay and the verify run.
    PerLayer,
    /// No `--trace`: everything, as the one command prints it.
    Both,
}

/// How many rounds of repeated runs to make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounds {
    Fixed(u64),
    /// As many whole rounds as fit in this many seconds (at least one).
    Seconds(u64),
}

/// A child that has not finished by then is wedged: kill it, fail the run.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// Runs `benchmark rep …` as a child process and parses the one JSON line
/// it prints. The child is always waited for, also when it is killed.
fn run_child(mode: Mode, workload: &str, seed: u64) -> Result<RepOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["rep", "--mode", mode.label(), "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning a {} run: {e}", mode.label()))?;
    // The child prints a few kB, well inside the pipe buffer, so it never
    // blocks on a reader that only reads after the exit.
    let started = Instant::now();
    let timed_out = loop {
        match child.try_wait() {
            Ok(Some(_)) => break false,
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => break true,
            Ok(None) => std::thread::sleep(Duration::from_millis(25)),
            Err(e) => return Err(format!("waiting for a {} run: {e}", mode.label())),
        }
    };
    if timed_out {
        // Best effort: the child may exit between the poll and the kill.
        let _ = child.kill();
    }
    let output = child
        .wait_with_output()
        .map_err(|e| format!("collecting a {} run: {e}", mode.label()))?;
    if timed_out {
        return Err(format!(
            "{} run of {workload} wedged (killed after {CHILD_TIMEOUT:?})",
            mode.label()
        ));
    }
    if !output.status.success() {
        return Err(format!(
            "{} run of {workload} exited with {}",
            mode.label(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let doc = json::parse(line).map_err(|e| format!("{} run output: {e}", mode.label()))?;
    RepOutput::from_json(&doc)
}

/// Everything measured for one workload.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    pub name: String,
    /// Correct runs by mode, in the order made.
    pub reps: BTreeMap<Mode, Vec<RepOutput>>,
    /// Runs made (each is one operation for the failure share).
    pub attempted: u64,
    /// Runs that exited non-zero, failed the oracle or a workload-property
    /// check, or broke determinism.
    pub failed: u64,
    pub failures: Vec<String>,
}

impl WorkloadResult {
    fn attempt(&mut self, mode: Mode, seed: u64) {
        self.attempted += 1;
        match run_child(mode, &self.name, seed) {
            Ok(rep) if rep.failures.is_empty() => self.accept(mode, rep),
            Ok(rep) => {
                self.failed += 1;
                self.failures.extend(rep.failures);
            }
            Err(e) => {
                self.failed += 1;
                self.failures.push(e);
            }
        }
    }

    /// Keeps a correct run — unless it breaks determinism: every exact
    /// value it shares with the first kept engine run must be identical
    /// (the arithmetic is fixed by the seed, and telemetry changes no
    /// behaviour, so untraced and traced runs are held to the same values).
    fn accept(&mut self, mode: Mode, rep: RepOutput) {
        let reference = [Mode::Untraced, Mode::Traced]
            .iter()
            .find_map(|m| self.reps.get(m)?.first());
        let differing = reference.and_then(|first| {
            rep.exact
                .iter()
                .find(|(k, v)| first.exact.get(*k).is_some_and(|f| f != *v))
                .map(|(k, v)| format!("{k} = {v}, was {}", first.exact[k]))
        });
        if let Some(what) = differing {
            self.failed += 1;
            self.failures.push(format!(
                "{}: a {} run broke determinism: {what}",
                self.name,
                mode.label()
            ));
            return;
        }
        self.reps.entry(mode).or_default().push(rep);
    }

    fn runs_of(&self, mode: Mode) -> &[RepOutput] {
        self.reps.get(&mode).map_or(&[], Vec::as_slice)
    }

    /// The untraced runs' values of an end-to-end metric.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        self.runs_of(Mode::Untraced)
            .iter()
            .map(|r| r.get(metric))
            .collect()
    }

    /// Per value name, the median over the correct runs that measured it,
    /// plus the quotients that need two kinds of run.
    fn pooled(&self) -> BTreeMap<String, f64> {
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for rep in self.reps.values().flatten() {
            for (name, v) in &rep.values {
                samples.entry(name).or_default().push(*v);
            }
        }
        let mut pool: BTreeMap<String, f64> = samples
            .into_iter()
            .map(|(name, v)| (name.to_owned(), stats::median(&v)))
            .collect();
        let get = |pool: &BTreeMap<String, f64>, name: &str| pool.get(name).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        let untraced = get(&pool, "keys_per_s");
        let traced = get(&pool, "traced.keys_per_s");
        let overhead = if traced > 0.0 {
            1.0 - ratio(traced, untraced)
        } else {
            0.0
        };
        pool.insert("engine.trace_overhead".to_owned(), overhead);
        let speedup = ratio(untraced, get(&pool, "oracle.keys_per_s"));
        pool.insert("engine.speedup_vs_oracle".to_owned(), speedup);
        // Reconciliation: what the replay's per-call costs add up to for
        // one step, over what the engine's ledger booked to the phase.
        for phase in [
            "registration",
            "flush_apply",
            "host_read",
            "cache_query",
            "compute",
        ] {
            let replayed_ns = get(&pool, &format!("replay.{phase}_ns_step"));
            let ledger_ns = get(&pool, &format!("phase.{phase}_us")) * 1e3;
            pool.insert(format!("recon.{phase}"), ratio(replayed_ns, ledger_ns));
        }
        pool
    }

    /// Every per-layer metric, 0 where nothing measured it.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let pool = self.pooled();
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, pool.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Measures one workload: rounds of repeated engine runs until the budget
/// is spent, then the single runs (replay, verify).
pub fn measure(spec: &WorkloadSpec, seed: u64, rounds: Rounds, scope: Scope) -> WorkloadResult {
    let mut result = WorkloadResult {
        name: spec.name.to_owned(),
        ..WorkloadResult::default()
    };
    let repeated: &[Mode] = match scope {
        Scope::EndToEnd => &[Mode::Untraced],
        Scope::PerLayer | Scope::Both => &[Mode::Untraced, Mode::Traced],
    };
    let started = Instant::now();
    let mut done = 0u64;
    loop {
        for &mode in repeated {
            result.attempt(mode, seed);
        }
        done += 1;
        let spent = started.elapsed();
        let enough = match rounds {
            Rounds::Fixed(n) => done >= n,
            // Stop when another round of the mean length would overrun.
            Rounds::Seconds(s) => spent.as_secs_f64() * (1.0 + 1.0 / done as f64) > s as f64,
        };
        if enough {
            break;
        }
    }
    if scope != Scope::EndToEnd {
        result.attempt(Mode::Replay, seed);
    }
    result.attempt(Mode::Verify, seed);
    result
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = stats::quartiles(values);
    (stats::median(values), q1, q3)
}

/// Prints a workload's metrics by name, with units.
pub fn print(result: &WorkloadResult, scope: Scope) {
    println!(
        "== {}: {} runs, {} failed",
        result.name, result.attempted, result.failed
    );
    for f in &result.failures {
        println!("   FAILED: {f}");
    }
    if scope != Scope::PerLayer {
        for m in &END_TO_END {
            let v = result.samples(m.name);
            let (median, q1, q3) = summary(&v);
            println!(
                "   {:<26} {:>16.4} {:<10} q1 {:.4} q3 {:.4} spread {:.4} ({} better, bound {}) runs {:?}",
                m.name,
                median,
                m.unit,
                q1,
                q3,
                stats::spread(&v),
                m.better.label(),
                m.bound,
                v
            );
        }
    }
    if scope != Scope::EndToEnd {
        let pool = result.pooled();
        let note = |name: &str| pool.get(name).copied().unwrap_or(0.0);
        println!(
            "   (engine.step_p99_us is the p{} of {} step periods per run)",
            note("engine.step_tail_q") * 100.0,
            note("engine.step_periods")
        );
        for (name, unit, value) in result.per_layer() {
            println!("   {name:<30} {value:>16.4} {unit}");
        }
    }
}

/// The last line of a `--workload … --trace …` run: one JSON object with
/// exactly the keys `correct`, `attempted`, `failed` and `metrics`.
pub fn contract_line(result: &WorkloadResult, scope: Scope) -> Result<String, String> {
    let metrics: Vec<(String, Json)> = if scope == Scope::EndToEnd {
        let runs = result.runs_of(Mode::Untraced);
        if runs.is_empty() {
            return Err(format!("{}: no untraced run succeeded", result.name));
        }
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, stats::median(&result.samples(m.name))))
            .map(metric_entry)
            .collect()
    } else {
        result.per_layer().into_iter().map(metric_entry).collect()
    };
    Ok(to_line(&obj(vec![
        ("correct", Json::Bool(result.correct())),
        ("attempted", num(result.attempted as f64)),
        ("failed", num(result.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])))
}

fn metric_entry((name, unit, value): (&str, &str, f64)) -> (String, Json) {
    (
        name.to_owned(),
        obj(vec![("value", num(value)), ("unit", text(unit))]),
    )
}

/// The results document `run` writes and `compare` reads.
pub fn results_doc(results: &[WorkloadResult], seed: u64) -> Json {
    let end_to_end = |r: &WorkloadResult, m: &EndToEnd| {
        let v = r.samples(m.name);
        let (median, q1, q3) = summary(&v);
        obj(vec![
            ("unit", text(m.unit)),
            ("better", text(m.better.label())),
            ("bound", num(m.bound)),
            ("median", num(median)),
            ("q1", num(q1)),
            ("q3", num(q3)),
            ("runs", Json::Arr(v.into_iter().map(num).collect())),
        ])
    };
    let workloads = results
        .iter()
        .map(|r| {
            let spec = crate::workloads::find(&r.name).expect("results come from the table");
            let plan = spec.plan();
            let exact = r
                .reps
                .values()
                .flatten()
                .flat_map(|rep| rep.exact.iter())
                .map(|(k, v)| (k.clone(), text(v)))
                .collect::<BTreeMap<_, _>>();
            let doc = obj(vec![
                (
                    "steps",
                    obj(vec![
                        ("W", num(plan.warmup as f64)),
                        ("N", num(plan.timed as f64)),
                        ("V", num(plan.verify as f64)),
                        ("replay", num(plan.replay as f64)),
                    ]),
                ),
                ("attempted", num(r.attempted as f64)),
                ("failed", num(r.failed as f64)),
                (
                    "failures",
                    Json::Arr(r.failures.iter().map(|f| text(f)).collect()),
                ),
                (
                    "end_to_end",
                    Json::Obj(
                        END_TO_END
                            .iter()
                            .map(|m| (m.name.to_owned(), end_to_end(r, m)))
                            .collect(),
                    ),
                ),
                (
                    "per_layer",
                    Json::Obj(r.per_layer().into_iter().map(metric_entry).collect()),
                ),
                ("exact", Json::Obj(exact.into_iter().collect())),
            ]);
            (r.name.clone(), doc)
        })
        .collect();
    obj(vec![
        ("stamp", host::stamp()),
        ("seed", num(seed as f64)),
        ("workloads", Json::Obj(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(values: &[(&str, f64)], exact: &[(&str, &str)]) -> RepOutput {
        let mut r = RepOutput::default();
        for (k, v) in values {
            r.set(k, *v);
        }
        for (k, v) in exact {
            r.set_exact(k, v);
        }
        r
    }

    #[test]
    fn modes_round_trip_through_their_labels() {
        for m in Mode::ALL {
            assert_eq!(Mode::parse(m.label()), Some(m));
        }
        assert_eq!(Mode::parse("bogus"), None);
    }

    #[test]
    fn pooling_takes_medians_and_derives_the_quotients() {
        let mut r = WorkloadResult {
            name: "zipf".to_owned(),
            ..WorkloadResult::default()
        };
        for k in [900.0, 1000.0, 1100.0] {
            r.accept(
                Mode::Untraced,
                rep(&[("keys_per_s", k), ("setup_s", 0.5)], &[("steps", "3000")]),
            );
        }
        r.accept(
            Mode::Traced,
            rep(
                &[
                    ("traced.keys_per_s", 950.0),
                    ("phase.registration_us", 600.0),
                ],
                &[("steps", "3000")],
            ),
        );
        r.accept(
            Mode::Replay,
            rep(&[("replay.registration_ns_step", 300_000.0)], &[]),
        );
        r.accept(Mode::Verify, rep(&[("oracle.keys_per_s", 500.0)], &[]));
        assert_eq!(r.samples("keys_per_s"), vec![900.0, 1000.0, 1100.0]);
        let layers: BTreeMap<_, _> = r.per_layer().into_iter().map(|(n, _, v)| (n, v)).collect();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!((layers["engine.trace_overhead"] - 0.05).abs() < 1e-12);
        assert_eq!(layers["engine.speedup_vs_oracle"], 2.0);
        assert_eq!(layers["recon.registration"], 0.5);
        assert_eq!(layers["recon.compute"], 0.0, "unmeasured quotients read 0");
        assert_eq!(layers["phase.registration_us"], 600.0);
        assert_eq!(layers["pq.enqueue_ns_op"], 0.0);
        assert!(r.correct());

        let line = contract_line(&r, Scope::EndToEnd).unwrap();
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            doc.get("metrics")
                .unwrap()
                .get("keys_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1000.0)
        );
        let line = contract_line(&r, Scope::PerLayer).unwrap();
        let doc = json::parse(&line).unwrap();
        assert_eq!(
            doc.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn a_run_that_changes_an_exact_value_is_a_failed_run() {
        let mut r = WorkloadResult {
            name: "zipf".to_owned(),
            ..WorkloadResult::default()
        };
        r.accept(
            Mode::Untraced,
            rep(&[("keys_per_s", 1.0)], &[("flush_rows", "10")]),
        );
        r.accept(
            Mode::Untraced,
            rep(&[("keys_per_s", 2.0)], &[("flush_rows", "10")]),
        );
        assert!(r.correct());
        r.accept(
            Mode::Traced,
            rep(&[("traced.keys_per_s", 2.0)], &[("flush_rows", "11")]),
        );
        assert_eq!(r.failed, 1);
        assert!(r.failures[0].contains("flush_rows = 11, was 10"));
        assert!(r.runs_of(Mode::Traced).is_empty());
        assert!(contract_line(&WorkloadResult::default(), Scope::EndToEnd).is_err());
    }
}
