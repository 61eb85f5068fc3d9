//! A command-line training driver over the whole system — pick a workload,
//! a system, and a topology, and get the paper's metrics back.
//!
//! ```sh
//! cargo run --release --example train -- \
//!     --workload rec --system frugal --gpus 4 --batch 512 --steps 20
//! cargo run --release --example train -- --workload kg --system hugectr
//! cargo run --release --example train -- --workload micro --system pytorch \
//!     --datacenter --cache-ratio 0.10
//! ```
//!
//! Set `FRUGAL_TRACE=<path>` to enable telemetry: the run prints its metric
//! summary and writes a Chrome trace-event file (load it in
//! `chrome://tracing` or <https://ui.perfetto.dev>):
//!
//! ```sh
//! FRUGAL_TRACE=trace.json cargo run --release --example train
//! ```

use frugal::core::{EmbeddingModel, FrugalConfig, PullToTarget, System, TrainReport, Workload};
use frugal::data::{
    KeyDistribution, KgDatasetSpec, KgTrace, RecDatasetSpec, RecTrace, SyntheticTrace,
};
use frugal::embed::CachePolicy;
use frugal::models::{Dlrm, KgModel, KgScorer};
use frugal::sim::{GpuSpec, Topology};
use frugal::telemetry::Telemetry;

#[derive(Debug)]
struct Args {
    workload: String,
    system: String,
    gpus: usize,
    batch: usize,
    steps: u64,
    cache_ratio: f64,
    cache_policy: CachePolicy,
    flush_threads: usize,
    keys: u64,
    datacenter: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: "micro".into(),
            system: "frugal".into(),
            gpus: 4,
            batch: 512,
            steps: 20,
            cache_ratio: 0.05,
            cache_policy: CachePolicy::StaticHot,
            flush_threads: 8,
            keys: 1_000_000,
            datacenter: false,
        };
        let mut i = 0;
        let take = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while i < argv.len() {
            match argv[i].as_str() {
                "--workload" => args.workload = take(argv, i, "--workload")?,
                "--system" => args.system = take(argv, i, "--system")?,
                "--gpus" => {
                    args.gpus = take(argv, i, "--gpus")?
                        .parse()
                        .map_err(|e| format!("--gpus: {e}"))?
                }
                "--batch" => {
                    args.batch = take(argv, i, "--batch")?
                        .parse()
                        .map_err(|e| format!("--batch: {e}"))?
                }
                "--steps" => {
                    args.steps = take(argv, i, "--steps")?
                        .parse()
                        .map_err(|e| format!("--steps: {e}"))?
                }
                "--cache-ratio" => {
                    args.cache_ratio = take(argv, i, "--cache-ratio")?
                        .parse()
                        .map_err(|e| format!("--cache-ratio: {e}"))?
                }
                "--cache-policy" => {
                    args.cache_policy = take(argv, i, "--cache-policy")?
                        .parse()
                        .map_err(|e| format!("--cache-policy: {e}"))?
                }
                "--flush-threads" => {
                    args.flush_threads = take(argv, i, "--flush-threads")?
                        .parse()
                        .map_err(|e| format!("--flush-threads: {e}"))?
                }
                "--keys" => {
                    args.keys = take(argv, i, "--keys")?
                        .parse()
                        .map_err(|e| format!("--keys: {e}"))?
                }
                "--datacenter" => {
                    args.datacenter = true;
                    i += 1;
                    continue;
                }
                "--help" | "-h" => {
                    println!(
                        "usage: train [--workload micro|rec|kg] [--system frugal|frugal-sync|frugal-fifo|pytorch|hugectr|uvm]\n\
                         \x20            [--gpus N] [--batch N] [--steps N] [--cache-ratio F]\n\
                         \x20            [--cache-policy static-hot|lru|freq|oracle]\n\
                         \x20            [--flush-threads N] [--keys N] [--datacenter]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
            i += 2;
        }
        if args.batch == 0 {
            return Err("--batch must be at least 1".into());
        }
        Ok(args)
    }

    /// The server the run is priced on.
    fn topology(&self) -> Result<Topology, String> {
        let gpu = if self.datacenter {
            GpuSpec::a30()
        } else {
            GpuSpec::rtx3090()
        };
        Topology::homogeneous(gpu, self.gpus).map_err(|e| e.to_string())
    }
}

/// The run the flags describe: `system` on `topology` with the flags'
/// knobs, everything else at the paper defaults.
fn run(
    args: &Args,
    system: System,
    topology: Topology,
    workload: &dyn Workload,
    model: &dyn EmbeddingModel,
    telemetry: &Telemetry,
) -> Result<TrainReport, String> {
    let mut cfg = FrugalConfig::on(topology, args.steps);
    cfg.cache_ratio = args.cache_ratio;
    cfg.cache_policy = args.cache_policy;
    cfg.flush_threads = args.flush_threads;
    cfg.telemetry = telemetry.clone();
    // Report bad flag combinations as an error instead of the engine's
    // construction panic.
    system.validate(&cfg).map_err(|e| e.to_string())?;
    Ok(system.run(cfg, workload, model))
}

fn main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv)?;
    let system: System = args.system.parse()?;
    let topology = args.topology()?;
    println!("{args:?}\n");

    let trace_path = std::env::var("FRUGAL_TRACE").ok();
    let telemetry = if trace_path.is_some() {
        Telemetry::new()
    } else {
        Telemetry::off()
    };

    let report = match args.workload.as_str() {
        "micro" => {
            let trace = SyntheticTrace::new(
                args.keys,
                KeyDistribution::Zipf(0.9),
                args.batch,
                args.gpus,
                42,
            )
            .map_err(|e| e.to_string())?;
            let model = PullToTarget::new(32, 7);
            run(&args, system, topology, &trace, &model, &telemetry)?
        }
        "rec" => {
            let spec = RecDatasetSpec::avazu().scaled_to_ids(args.keys);
            let trace = RecTrace::new(spec.clone(), args.batch, args.gpus, 42)
                .map_err(|e| e.to_string())?;
            let dim = spec.embedding_dim as usize;
            let model = Dlrm::new(trace.clone(), &[dim, 512, 512, 256, 1], 0.01, 7, false);
            run(&args, system, topology, &trace, &model, &telemetry)?
        }
        "kg" => {
            let spec = KgDatasetSpec::freebase().scaled_to_entities(args.keys.min(200_000));
            let trace =
                KgTrace::new(spec.clone(), args.batch, args.gpus, 42).map_err(|e| e.to_string())?;
            let model = KgModel::new(KgScorer::TransE, trace.clone(), 7, false);
            run(&args, system, topology, &trace, &model, &telemetry)?
        }
        other => return Err(format!("unknown workload {other}")),
    };

    let m = report.mean_iter();
    println!("throughput       {:>12.0} samples/s", report.throughput());
    println!("cache hit ratio  {:>11.1}%", report.hit_ratio * 100.0);
    if report.cache_fills > 0 {
        println!("cache fills      {:>12} rows", report.cache_fills);
    }
    println!("per-iteration breakdown:");
    println!("  comm      {}", m.comm);
    println!("  host DRAM {}", m.host_dram);
    println!("  cache     {}", m.cache);
    println!("  other     {}", m.other);
    println!("  stall     {}", m.stall);
    if report.mean_gentry_update.as_nanos() > 0 {
        println!(
            "g-entry updates  {:>12} per step",
            report.mean_gentry_update.to_string()
        );
    }
    if let Some(summary) = &report.telemetry {
        println!("\ntelemetry:\n{}", summary.render());
    }
    if let Some(path) = &trace_path {
        telemetry
            .write_chrome_trace(path)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("Chrome trace written to {path} (open in chrome://tracing)");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
        Args::parse(&argv)
    }

    #[test]
    fn zero_gpus_is_an_error_not_a_panic() {
        let args = parse(&["--gpus", "0"]).expect("the flag itself parses");
        let err = args.topology().unwrap_err();
        assert!(err.contains("at least one GPU"), "{err}");
        assert!(parse(&["--gpus", "2"]).unwrap().topology().is_ok());
    }

    #[test]
    fn every_listed_system_parses() {
        let usage = "frugal|frugal-sync|frugal-fifo|pytorch|hugectr|uvm";
        for name in usage.split('|') {
            assert_eq!(name.parse::<System>().unwrap().cli_name(), name);
        }
    }

    #[test]
    fn zero_batch_is_rejected() {
        let err = parse(&["--batch", "0"]).unwrap_err();
        assert!(err.contains("--batch"), "{err}");
        assert_eq!(parse(&["--batch", "1"]).unwrap().batch, 1);
    }
}
