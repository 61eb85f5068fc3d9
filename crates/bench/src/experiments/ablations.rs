//! Ablations beyond the paper's numbered experiments, covering design
//! choices DESIGN.md calls out: cache admission policy, batched dequeue
//! size, and the sample-queue lookahead `L`.

use super::{measured_phase, zipf09_trace, Scale};
use crate::table::{fmt_throughput, ExpTable};
use frugal_core::{belady_hit_ratio, FrugalConfig, PullToTarget, System, TrainReport};
use frugal_data::{KeyDistribution, SyntheticTrace};
use frugal_embed::CachePolicy;
use frugal_telemetry::{LedgerPhase, Telemetry};

/// Mean measured µs per step of ledger `phase` (0 without telemetry).
fn measured_us(r: &TrainReport, phase: LedgerPhase) -> String {
    format!(
        "{:.0}",
        measured_phase(r, phase).map_or(0.0, |p| p.mean_ns / 1e3)
    )
}

/// One cell of the [`ablation_cache_policy`] grid, at full precision.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCell {
    /// The trace's key distribution.
    pub dist: KeyDistribution,
    /// The total cache ratio.
    pub ratio: f64,
    /// Each policy's hit ratio, in [`CachePolicy::ALL`] order.
    pub hits: [f64; 3],
    /// Belady's MIN over the whole run ([`belady_hit_ratio`]).
    pub oracle: f64,
}

/// Cache eviction policy × key skew × cache ratio under P²F, priced by the
/// key-stream walk (the P²F engine's cache decisions, checked against the
/// engine record for record): per-policy hit ratios for every cell of the
/// grid, with Belady's MIN over the whole run ([`belady_hit_ratio`]), the
/// bound no policy can beat at any run length. [`ablation_cache_policy`]
/// prints it and [`cache_policy_violations`] checks it.
pub fn cache_policy_grid(scale: &Scale) -> Vec<PolicyCell> {
    let model = PullToTarget::new(32, 7);
    let mut grid = Vec::new();
    for dist in [
        KeyDistribution::Zipf(0.8),
        KeyDistribution::Zipf(0.9),
        KeyDistribution::Zipf(0.99),
    ] {
        let trace = SyntheticTrace::new(
            scale.micro_keys,
            dist,
            *scale.batches.last().expect("non-empty"),
            scale.gpus,
            67,
        )
        .expect("valid trace");
        for ratio in [0.01, 0.05, 0.10] {
            let mut cfg = FrugalConfig::commodity(scale.gpus, cache_policy_steps(scale));
            cfg.flush_threads = 4;
            cfg.cache_ratio = ratio;
            let hits = CachePolicy::ALL.map(|policy| {
                cfg.cache_policy = policy;
                System::Frugal.price(cfg.clone(), &trace, &model).hit_ratio
            });
            let oracle = belady_hit_ratio(&cfg, &trace);
            grid.push(PolicyCell {
                dist,
                ratio,
                hits,
                oracle,
            });
        }
    }
    grid
}

/// The steps each [`cache_policy_grid`] cell runs.
fn cache_policy_steps(scale: &Scale) -> u64 {
    scale.steps * 5
}

/// [`cache_policy_grid`] as a table of percentages. The paper fixes
/// HugeCTR's static policy for all systems; this ablation shows how much
/// headroom adaptive policies leave on the table.
pub fn cache_policy_table(scale: &Scale, grid: &[PolicyCell]) -> ExpTable {
    let mut t = ExpTable::new(
        "Ablation: cache policy x skew x ratio (hit ratio %)",
        &[
            "distribution",
            "ratio",
            "static-hot",
            "lru",
            "freq",
            "oracle",
        ],
    );
    let percent = |hit: f64| format!("{:.1}%", hit * 100.0);
    for cell in grid {
        let mut cells = vec![cell.dist.label(), format!("{:.2}", cell.ratio)];
        cells.extend(cell.hits.map(percent));
        cells.push(percent(cell.oracle));
        t.row(cells);
    }
    t.note(format!(
        "priced by the key-stream walk, {} steps; oracle = Belady's MIN over the whole \
         run (offline upper bound), freq = frequency-aware admission+eviction, \
         static-hot = paper setup",
        cache_policy_steps(scale)
    ));
    t
}

/// The cache policy grid ([`cache_policy_grid`]) as printed.
pub fn ablation_cache_policy(scale: &Scale) -> Vec<ExpTable> {
    vec![cache_policy_table(scale, &cache_policy_grid(scale))]
}

/// The orderings the [`cache_policy_grid`] is built around, one message per
/// violating row: the `oracle` (Belady's MIN over the whole run) bounds
/// every policy in every cell, and on Zipf ≥ 0.9 `freq` does not lose to
/// `lru` (churn protection is what frequency-aware admission buys on
/// skewed traffic). Every cell is a pure function of the seed and the
/// grid, so the orderings are checked exactly, on the unrounded ratios.
pub fn cache_policy_violations(grid: &[PolicyCell]) -> Vec<String> {
    let mut violations = Vec::new();
    for (row, cell) in grid.iter().enumerate() {
        let (dist, ratio) = (cell.dist.label(), cell.ratio);
        let [hot, lru, freq] = cell.hits.map(|hit| hit * 100.0);
        let oracle = cell.oracle * 100.0;
        if oracle < hot || oracle < lru || oracle < freq {
            violations.push(format!(
                "{dist} ratio {ratio:.2} (row {row}): oracle {oracle:.6}% below a policy \
                 (static-hot {hot:.6}%, lru {lru:.6}%, freq {freq:.6}%)"
            ));
        }
        if matches!(cell.dist, KeyDistribution::Zipf(s) if s >= 0.9) && freq < lru {
            violations.push(format!(
                "{dist} ratio {ratio:.2} (row {row}): freq {freq:.6}% lost to lru {lru:.6}% \
                 on a skewed trace"
            ));
        }
    }
    violations
}

/// Batched dequeue (§3.4: "Dequeue can be batched to remove the repeated
/// scanning overhead"): flusher batch size vs the flushers' measured
/// dequeue cost and the trainers' measured wait. Batch size moves no
/// operation count, so the modeled clock cannot see it — the columns are
/// wall-clock.
pub fn ablation_flush_batch(scale: &Scale) -> Vec<ExpTable> {
    let model = PullToTarget::new(32, 7);
    let trace = zipf09_trace(scale, *scale.batches.last().expect("non-empty"), 71);
    let mut t = ExpTable::new(
        "Ablation: flusher dequeue batch size (measured on this host)",
        &[
            "batch",
            "dequeue ns/row",
            "flush dequeue us/step",
            "stall wait us/step",
        ],
    );
    for flush_batch in [1usize, 8, 64, 256] {
        let mut cfg = FrugalConfig::commodity(scale.gpus, scale.steps * 2);
        cfg.flush_threads = 4;
        cfg.flush_batch = flush_batch;
        cfg.telemetry = Telemetry::new();
        let r = System::Frugal.run(cfg, &trace, &model);
        let dequeue_ns = r
            .telemetry
            .as_ref()
            .and_then(|t| t.counter("flusher.dequeue_total_ns"))
            .unwrap_or(0);
        t.row(vec![
            flush_batch.to_string(),
            format!("{:.0}", dequeue_ns as f64 / r.flush_rows.max(1) as f64),
            measured_us(&r, LedgerPhase::FlushDequeue),
            measured_us(&r, LedgerPhase::StallWait),
        ]);
    }
    t.note("paper §3.4: batching removes repeated scan overhead; batch=1 pays one scan per entry");
    t.note("wall-clock columns (ledger + flusher counters); modeled throughput and stall are batch-independent by construction");
    vec![t]
}

/// Sample-queue lookahead `L` (paper default 10): too small starves the
/// priority signal (everything looks ∞ until the last moment); large values
/// only cost queue memory.
pub fn ablation_lookahead(scale: &Scale) -> Vec<ExpTable> {
    let model = PullToTarget::new(32, 7);
    let trace = zipf09_trace(scale, *scale.batches.last().expect("non-empty"), 73);
    let mut t = ExpTable::new(
        "Ablation: sample-queue lookahead L",
        &[
            "L",
            "throughput",
            "stall us",
            "measured registration us/step",
            "measured stall wait us/step",
        ],
    );
    for lookahead in [1u64, 2, 5, 10, 20] {
        let mut cfg = FrugalConfig::commodity(scale.gpus, scale.steps * 2);
        cfg.lookahead = lookahead;
        let modeled = System::Frugal.price(cfg.clone(), &trace, &model);
        let r = System::Frugal.run(cfg.with_telemetry(Telemetry::new()), &trace, &model);
        t.row(vec![
            lookahead.to_string(),
            fmt_throughput(modeled.throughput()),
            format!("{:.0}", modeled.stats.mean_stall().as_micros_f64()),
            measured_us(&r, LedgerPhase::Registration),
            measured_us(&r, LedgerPhase::StallWait),
        ]);
    }
    t.note("paper §3.2 sets L = 10 by default");
    t.note("throughput/stall are modeled: blocking rows are the writes whose next-step read was already announced when they registered, so every L >= 2 prices alike and L = 1 (read announced after the write) prices none; L's real effect is the two measured columns");
    vec![t]
}

/// The flush-strategy ablation: P²F vs arrival-order FIFO vs write-through
/// on the same Zipf workload. All three are synchronously consistent; the
/// table shows what each pays for it. FIFO flushes proactively like P²F
/// but enqueues at write-step priority, so *every* pending row gates the
/// next step — isolating the paper's claim (§3.3) that the read-driven
/// priorities, not background flushing per se, are what keep the wait
/// cheap.
pub fn ablation_flush_strategy(scale: &Scale) -> Vec<ExpTable> {
    let model = PullToTarget::new(32, 7);
    let trace = zipf09_trace(scale, *scale.batches.last().expect("non-empty"), 83);
    let mut t = ExpTable::new(
        "Ablation: flush strategy (priority vs arrival order vs sync)",
        &["strategy", "throughput", "stall us", "flushed rows"],
    );
    for system in [System::Frugal, System::FrugalFifo, System::FrugalSync] {
        let mut cfg = FrugalConfig::commodity(scale.gpus, scale.steps * 2);
        cfg.flush_threads = 4;
        let modeled = system.price(cfg, &trace, &model);
        t.row(vec![
            system.rec_label().to_owned(),
            fmt_throughput(modeled.throughput()),
            format!("{:.0}", modeled.stats.mean_stall().as_micros_f64()),
            modeled.flush_rows.to_string(),
        ]);
    }
    t.note("FIFO is proactive yet unselective: all pending writes gate the next step, the stall P2F's read-driven priorities avoid");
    vec![t]
}

/// SGD vs Adagrad through the full Frugal engine: the optimizer extension.
pub fn ablation_optimizer(scale: &Scale) -> Vec<ExpTable> {
    use frugal_core::OptimizerKind;
    let model = PullToTarget::new(32, 7);
    let trace = SyntheticTrace::new(
        scale.micro_keys.min(100_000),
        KeyDistribution::Zipf(0.9),
        scale.batches[0],
        scale.gpus,
        79,
    )
    .expect("valid trace");
    let mut t = ExpTable::new(
        "Ablation: sparse optimizer (loss trajectory through Frugal)",
        &["optimizer", "first loss", "final loss", "throughput"],
    );
    for (name, kind) in [
        ("SGD", OptimizerKind::Sgd),
        ("Adagrad", OptimizerKind::Adagrad),
    ] {
        let mut cfg = FrugalConfig::commodity(scale.gpus, scale.steps * 4);
        cfg.flush_threads = 4;
        cfg.optimizer = kind;
        cfg.lr = 1.0;
        let modeled = System::Frugal.price(cfg.clone(), &trace, &model);
        let r = System::Frugal.run(cfg, &trace, &model);
        t.row(vec![
            name.to_owned(),
            format!("{:.4}", r.first_loss),
            format!("{:.4}", r.final_loss),
            fmt_throughput(modeled.throughput()),
        ]);
    }
    t.note("both run through identical P2F machinery; Adagrad keeps per-row state on host and cache paths");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_run_at_quick_scale() {
        assert_eq!(ablation_cache_policy(&Scale::quick())[0].n_rows(), 9);
        assert_eq!(ablation_flush_batch(&Scale::quick())[0].n_rows(), 4);
        assert_eq!(ablation_lookahead(&Scale::quick())[0].n_rows(), 5);
        assert_eq!(ablation_optimizer(&Scale::quick())[0].n_rows(), 2);
        assert_eq!(ablation_flush_strategy(&Scale::quick())[0].n_rows(), 3);
    }

    #[test]
    fn oracle_bounds_every_policy_in_every_cell() {
        // 100 steps, long past the sample queue's lookahead window: a
        // Belady limited to that window fell below `freq` and
        // `static-hot` at this length; the whole run's Belady cannot.
        let scale = Scale {
            batches: vec![256],
            steps: 20,
            ..Scale::quick()
        };
        let violations = cache_policy_violations(&cache_policy_grid(&scale));
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn fifo_pays_the_stall_p2f_avoids() {
        // The ablation's headline: on a skewed workload, arrival-order
        // flushing stalls more than read-driven priorities, because cold
        // pending rows nobody is about to read still gate the next step.
        // The modeled stall prices blocking rows, and P2F's (written now,
        // read next) are a subset of FIFO's (written now) on the same
        // trace — so the ordering holds step for step, on exact values.
        let scale = Scale::quick();
        let model = PullToTarget::new(32, 7);
        let trace = SyntheticTrace::new(
            scale.micro_keys,
            KeyDistribution::Zipf(0.9),
            512,
            scale.gpus,
            83,
        )
        .unwrap();
        let cfg = FrugalConfig::commodity(scale.gpus, 16);
        let p2f = System::Frugal.price(cfg.clone(), &trace, &model);
        let fifo = System::FrugalFifo.price(cfg, &trace, &model);
        assert!(fifo.flush_rows > 0, "FIFO must flush in the background");
        for (f, p) in fifo.stats.iters().iter().zip(p2f.stats.iters()) {
            assert!(f.stall >= p.stall, "FIFO {} < P2F {}", f.stall, p.stall);
        }
        assert!(
            fifo.stats.mean_stall() > p2f.stats.mean_stall(),
            "FIFO stall {:?} should exceed P2F stall {:?}",
            fifo.stats.mean_stall(),
            p2f.stats.mean_stall()
        );
    }
}
