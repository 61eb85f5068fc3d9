//! The repo's benchmark: four fixed-seed workloads measured end to end and
//! layer by layer, from outside the program. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run [--workload <name>] [--seed <n>] [--seconds <n> | --runs <n>] [--trace <0|1>]
//! benchmark compare <A.json> <B.json>
//! benchmark selftest
//! benchmark manifest
//! ```
//!
//! `run` without `--workload` is the one command: every workload, every
//! check, every metric by name with its unit, and `out/results.json`.
//! With `--workload` and `--trace` it is one driver run, whose last line
//! of output is the result object `BENCHMARK.json`'s contract describes.

mod compare;
mod driver;
mod engine_run;
mod host;
mod jsonio;
mod metrics;
mod rep;
mod replay;
mod spans;
mod stats;
mod workloads;

use driver::{Mode, Rounds, Scope};
use engine_run::Fault;
use std::process::ExitCode;
use workloads::{WorkloadSpec, WORKLOADS};

/// Flags as `--name value` pairs, each allowed once.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| allowed.contains(n))
                .ok_or_else(|| format!("unknown argument {flag:?} (flags: {allowed:?})"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            if flags.iter().any(|(n, _)| n == name) {
                return Err(format!("--{name} given twice"));
            }
            flags.push((name.to_owned(), value.clone()));
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} {v:?} is not a whole number"))
            })
            .transpose()
    }

    fn workload(&self) -> Result<Option<&'static WorkloadSpec>, String> {
        self.get("workload")
            .map(|name| {
                workloads::find(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (workloads: {known:?})")
                })
            })
            .transpose()
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "runs", "trace"])?;
    let seed = flags.number("seed")?.unwrap_or(7);
    let rounds = match (flags.number("runs")?, flags.number("seconds")?) {
        (Some(_), Some(_)) => return Err("give --runs or --seconds, not both".to_owned()),
        (Some(0), _) | (_, Some(0)) => return Err("--runs and --seconds start at 1".to_owned()),
        (Some(n), None) => Rounds::Fixed(n),
        (None, s) => Rounds::Seconds(s.unwrap_or(metrics::RUN_SECONDS)),
    };
    let scope = match flags.get("trace") {
        None => Scope::Both,
        Some("0") => Scope::EndToEnd,
        Some("1") => Scope::PerLayer,
        Some(other) => return Err(format!("--trace {other:?} is not 0 or 1")),
    };
    let selected: Vec<&WorkloadSpec> = match flags.workload()? {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };

    let results: Vec<_> = selected
        .iter()
        .map(|spec| {
            let result = driver::measure(spec, seed, rounds, scope);
            driver::print(&result, scope);
            result
        })
        .collect();
    let all_correct = results.iter().all(|r| r.correct());
    if let ([result], true) = (results.as_slice(), scope != Scope::Both) {
        // One driver run: the contract's result object is the last line.
        println!("{}", driver::contract_line(result, scope)?);
        return Ok(ExitCode::SUCCESS);
    }
    let path = host::out_dir()
        .map_err(|e| format!("creating the output directory: {e}"))?
        .join("results.json");
    let doc = jsonio::to_line(&driver::results_doc(&results, seed));
    std::fs::write(&path, doc + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One run, in this process; prints its result as one JSON line. Internal:
/// the driver spawns it.
fn cmd_rep(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["mode", "workload", "seed"])?;
    let mode = flags
        .get("mode")
        .and_then(Mode::parse)
        .ok_or("rep needs --mode untraced|traced|replay|verify")?;
    let spec = flags.workload()?.ok_or("rep needs --workload")?;
    let seed = flags.number("seed")?.ok_or("rep needs --seed")?;
    let plan = spec.plan();
    let out_path = |suffix: &str| {
        host::out_dir()
            .map(|d| d.join(format!("{}.{suffix}", spec.name)))
            .map_err(|e| format!("creating the output directory: {e}"))
    };
    let rep = match mode {
        Mode::Untraced => engine_run::untraced(spec, &plan, seed),
        Mode::Traced => engine_run::traced(spec, &plan, seed, Some(&out_path("trace.json")?)),
        Mode::Replay => replay::replay(spec, &plan, seed, Some(&out_path("replay.trace.json")?)),
        Mode::Verify => engine_run::verify(spec, &plan, seed, Fault::None),
    };
    println!("{}", jsonio::to_line(&rep.to_json()));
    Ok(ExitCode::SUCCESS)
}

fn read_json(path: &str) -> Result<frugal_telemetry::json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    frugal_telemetry::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare <A.json> <B.json>".to_owned());
    };
    let acceptable = compare::compare(&read_json(a)?, &read_json(b)?)?;
    Ok(if acceptable {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Proves the correctness check is live: the verify step must pass the
/// clean configuration and fail the one with the wait condition skipped.
fn cmd_selftest() -> Result<ExitCode, String> {
    let (spec, plan) = engine_run::selftest_input();
    let clean = engine_run::verify(&spec, &plan, 7, Fault::None);
    let broken = engine_run::verify(&spec, &plan, 7, Fault::SkipWait);
    println!("clean run: {} failures", clean.failures.len());
    println!("skip_wait run: caught as {:?}", broken.failures);
    if clean.failures.is_empty() && !broken.failures.is_empty() {
        println!("selftest passed: the verify step is live");
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "selftest FAILED: the clean run must pass (failures: {:?}) and the skip_wait run must not",
            clean.failures
        );
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "run" => cmd_run(rest),
            "rep" => cmd_rep(rest),
            "compare" => cmd_compare(rest),
            "selftest" if rest.is_empty() => cmd_selftest(),
            "manifest" if rest.is_empty() => {
                print!("{}", metrics::manifest());
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unknown command {other:?}")),
        },
        None => Err(
            "usage: benchmark run|compare|selftest|manifest (see benchmark/README.md)".to_owned(),
        ),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_are_pairs_known_and_unique() {
        let allowed = ["workload", "seed", "seconds", "trace"];
        let f = Flags::parse(
            &args(&["--workload", "hot", "--seed", "9", "--trace", "1"]),
            &allowed,
        )
        .unwrap();
        assert_eq!(f.workload().unwrap().map(|w| w.name), Some("hot"));
        assert_eq!(f.number("seed"), Ok(Some(9)));
        assert_eq!(f.number("seconds"), Ok(None));
        assert_eq!(f.get("trace"), Some("1"));
        assert!(Flags::parse(&args(&["--bogus", "1"]), &allowed).is_err());
        assert!(Flags::parse(&args(&["--seed"]), &allowed).is_err());
        assert!(Flags::parse(&args(&["--seed", "1", "--seed", "2"]), &allowed).is_err());
        assert!(Flags::parse(&args(&["seed", "1"]), &allowed).is_err());
        let f = Flags::parse(&args(&["--workload", "nope", "--seed", "x"]), &allowed).unwrap();
        assert!(f.workload().is_err());
        assert!(f.number("seed").is_err());
    }
}
