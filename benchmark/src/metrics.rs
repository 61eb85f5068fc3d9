//! The metric catalogue: every number the benchmark reports, with its unit
//! and direction, and for end-to-end metrics the bound. `BENCHMARK.json`
//! is generated from this table (`benchmark manifest`), and a test keeps
//! the committed file equal to it.

use crate::jsonio::{num, obj, text};
use crate::workloads::WORKLOADS;
use frugal_telemetry::json::Json;
use Better::{Higher, Lower};

/// How long one driver run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative = better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (base - new) / base.abs(),
            Better::Lower => (new - base) / base.abs(),
        }
    }
}

/// A metric a user of the system would see. `bound` is the share of the
/// parent's median by which it may worsen before a change is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Measured by untraced runs only; each is the median of a driver run's
/// repeats. Never 0 on any workload.
pub const END_TO_END: [EndToEnd; 5] = [
    // Host wall clock: timed steps × 2048 keys over the window between
    // the first and last `end_step` stamp.
    EndToEnd {
        name: "keys_per_s",
        unit: "keys/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Host CPU clock: process utime + stime over the same window, per key.
    // Spinning, flusher and leader CPU all count; its reciprocal is keys/s
    // per core.
    EndToEnd {
        name: "cpu_ns_per_key",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    // Simulated clock: the paper's headline throughput on the modeled
    // RTX 3090 server, over the same steps.
    EndToEnd {
        name: "modeled_samples_per_s",
        unit: "samples/s",
        better: Better::Higher,
        bound: 0.15,
    },
    // `VmHWM` of the run's process at exit.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    // Host wall clock: trace + model + `FrugalEngine::new`.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single-layer metrics, from the traced run (`phase.*`, `flusher.*`,
/// `count.*`), the untraced runs (`engine.*`, `sim.*`), the layer replay
/// (`data.*` … `model.*`), the verify run (`oracle.*`) and their quotients
/// (`recon.*`). 0 where the layer is not live on a workload (`sync` has no
/// g-entries, queue or flushers). The README says which end-to-end metric
/// each should move, on which workload.
pub const PER_LAYER: [PerLayer; 64] = [
    layer("engine.step_p50_us", "us", Lower),
    layer("engine.step_p99_us", "us", Lower),
    layer("engine.drain_ms", "ms", Lower),
    layer("engine.run_wall_s", "s", Lower),
    layer("engine.speedup_vs_oracle", "ratio", Higher),
    layer("engine.trace_overhead", "ratio", Lower),
    layer("engine.ledger_coverage", "ratio", Higher),
    layer("phase.sample_us", "us", Lower),
    layer("phase.cache_query_us", "us", Lower),
    layer("phase.host_read_us", "us", Lower),
    layer("phase.compute_us", "us", Lower),
    layer("phase.reduce_us", "us", Lower),
    layer("phase.cache_apply_us", "us", Lower),
    layer("phase.registration_us", "us", Lower),
    layer("phase.leader_apply_us", "us", Lower),
    layer("phase.barrier_a_us", "us", Lower),
    layer("phase.stall_wait_us", "us", Lower),
    layer("phase.stall_wait_p99_us", "us", Lower),
    layer("count.p2f_stalls_per_kstep", "count", Lower),
    layer("phase.flush_dequeue_us", "us", Lower),
    layer("phase.flush_apply_us", "us", Lower),
    layer("flusher.dequeue_ns_row", "ns", Lower),
    layer("flusher.claim_ns_row", "ns", Lower),
    layer("flusher.apply_ns_row", "ns", Lower),
    layer("flusher.batch_rows_mean", "rows", Higher),
    layer("flusher.parked_share", "ratio", Higher),
    layer("count.keys_per_step", "count", Higher),
    layer("count.unique_keys_per_step", "count", Lower),
    layer("count.host_reads_per_step", "count", Lower),
    layer("count.cache_hit_ratio", "ratio", Higher),
    layer("count.cache_fills_per_step", "count", Lower),
    layer("count.flush_rows_per_step", "count", Lower),
    layer("count.store_writes_per_step", "count", Lower),
    layer("sim.step_us", "us", Lower),
    layer("sim.stall_us", "us", Lower),
    layer("sim.gentry_us", "us", Lower),
    layer("sim.host_dram_us", "us", Lower),
    layer("sim.cache_us", "us", Lower),
    layer("data.sample_ns_key", "ns", Lower),
    layer("cache.get_ns_key", "ns", Lower),
    layer("cache.insert_ns_row", "ns", Lower),
    layer("store.read_ns_row", "ns", Lower),
    layer("store.write_ns_row", "ns", Lower),
    layer("agg.add_ns_key", "ns", Lower),
    layer("agg.drain_ns_row", "ns", Lower),
    layer("agg.merge_ns_row", "ns", Lower),
    layer("gentry.add_writes_ns_row", "ns", Lower),
    layer("gentry.add_reads_ns_key", "ns", Lower),
    layer("gentry.take_writes_ns_row", "ns", Lower),
    layer("count.gentry_bytes_per_key", "bytes", Lower),
    layer("pq.enqueue_ns_op", "ns", Lower),
    layer("pq.adjust_ns_op", "ns", Lower),
    layer("pq.dequeue_ns_row", "ns", Lower),
    layer("pq.enqueues_per_step", "count", Lower),
    layer("pq.adjusts_per_step", "count", Lower),
    layer("flush.apply_ns_row", "ns", Lower),
    layer("shardmap.owner_ns_key", "ns", Lower),
    layer("model.fwd_bwd_ns_key", "ns", Lower),
    layer("oracle.keys_per_s", "keys/s", Higher),
    layer("recon.registration", "ratio", Higher),
    layer("recon.flush_apply", "ratio", Higher),
    layer("recon.host_read", "ratio", Higher),
    layer("recon.cache_query", "ratio", Higher),
    layer("recon.compute", "ratio", Higher),
];

/// `BENCHMARK.json`, pretty-printed: exactly the keys the contract names.
pub fn manifest() -> String {
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items
            .iter()
            .map(|i| format!("    {}", crate::jsonio::to_line(i)))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let workloads = WORKLOADS
        .iter()
        .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.label())),
                ("bound", num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            obj(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.label())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        crate::jsonio::to_line(&Json::Arr(command.iter().map(|c| text(c)).collect())),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// Names of metrics and workloads, as `BENCHMARK.json` accepts them:
/// `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use frugal_telemetry::json::parse;
    use std::collections::BTreeSet;

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_follow_the_manifest_rule() {
        for ok in ["zipf", "phase.stall_wait_p99_us", "a-b_c.9", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-x",
            "keys/s",
            "a b",
            "µs",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_obeys_the_manifest_limits() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert_eq!(Better::Lower.worsening(0.0, 5.0), 0.0);
    }

    #[test]
    fn committed_manifest_is_the_catalogue() {
        let generated = manifest();
        let doc = parse(&generated).expect("the manifest is JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(generated.len() < 64 * 1024);
        let committed = crate::host::package_dir().join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&committed)
            .unwrap_or_else(|e| panic!("{}: {e}", committed.display()));
        assert_eq!(
            committed, generated,
            "BENCHMARK.json is stale: regenerate it with `benchmark manifest`"
        );
    }
}
