//! Ablations beyond the paper's numbered experiments, covering design
//! choices DESIGN.md calls out: cache admission policy, batched dequeue
//! size, and the sample-queue lookahead `L`.

use super::{measured_phase, Scale};
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

/// Cache eviction policy × key skew × cache ratio under P²F, priced by the
/// key-stream walk (the P²F engine's cache decisions, checked against the
/// engine record for record): per-policy hit ratios for every cell of the
/// grid. The paper fixes HugeCTR's static policy for all systems; this
/// ablation shows how much headroom adaptive policies leave on the table,
/// against Belady's MIN over the whole run ([`belady_hit_ratio`]), the
/// bound no policy can beat at any run length.
pub fn ablation_cache_policy(scale: &Scale) -> Vec<ExpTable> {
    let dim = 32usize;
    let model = PullToTarget::new(dim, 7);
    let steps = scale.steps * 5;
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
            let mut cfg = FrugalConfig::commodity(scale.gpus, steps);
            cfg.flush_threads = 4;
            cfg.cache_ratio = ratio;
            let mut cells = vec![dist.label(), format!("{ratio:.2}")];
            for policy in CachePolicy::ALL {
                cfg.cache_policy = policy;
                let r = System::Frugal.price(cfg.clone(), &trace, &model);
                cells.push(format!("{:.1}%", r.hit_ratio * 100.0));
            }
            let oracle = belady_hit_ratio(&cfg, &trace);
            cells.push(format!("{:.1}%", oracle * 100.0));
            t.row(cells);
        }
    }
    t.note(format!(
        "priced by the key-stream walk, {steps} steps; oracle = Belady's MIN over the whole \
         run (offline upper bound), freq = frequency-aware admission+eviction, \
         static-hot = paper setup"
    ));
    vec![t]
}

/// Batched dequeue (§3.4: "Dequeue can be batched to remove the repeated
/// scanning overhead"): flusher batch size vs the flushers' measured
/// dequeue cost and the trainers' measured wait. Batch size moves no
/// operation count, so the modeled clock cannot see it — the columns are
/// wall-clock.
pub fn ablation_flush_batch(scale: &Scale) -> Vec<ExpTable> {
    let dim = 32usize;
    let model = PullToTarget::new(dim, 7);
    let trace = SyntheticTrace::new(
        scale.micro_keys,
        KeyDistribution::Zipf(0.9),
        *scale.batches.last().expect("non-empty"),
        scale.gpus,
        71,
    )
    .expect("valid trace");
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
    let dim = 32usize;
    let model = PullToTarget::new(dim, 7);
    let trace = SyntheticTrace::new(
        scale.micro_keys,
        KeyDistribution::Zipf(0.9),
        *scale.batches.last().expect("non-empty"),
        scale.gpus,
        73,
    )
    .expect("valid trace");
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
    let dim = 32usize;
    let model = PullToTarget::new(dim, 7);
    let trace = SyntheticTrace::new(
        scale.micro_keys,
        KeyDistribution::Zipf(0.9),
        *scale.batches.last().expect("non-empty"),
        scale.gpus,
        83,
    )
    .expect("valid trace");
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
    let dim = 32usize;
    let model = PullToTarget::new(dim, 7);
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
        let t = &ablation_cache_policy(&scale)[0];
        let pct = |row, col| {
            let cell = t.cell(row, col).expect("hit-ratio cell");
            cell.trim_end_matches('%')
                .parse::<f64>()
                .expect("a percentage")
        };
        for row in 0..t.n_rows() {
            let oracle = pct(row, 5);
            for (col, policy) in [(2, "static-hot"), (3, "lru"), (4, "freq")] {
                assert!(
                    oracle >= pct(row, col),
                    "{} {}: oracle {oracle}% < {policy} {}%",
                    t.cell(row, 0).unwrap(),
                    t.cell(row, 1).unwrap(),
                    pct(row, col)
                );
            }
        }
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
