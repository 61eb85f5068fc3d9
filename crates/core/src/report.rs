//! Training-run reports.

use frugal_sim::{IterBreakdown, Nanos, RunStats};
use frugal_telemetry::TelemetrySummary;

/// Everything a finished training run reports — the quantities the paper's
/// evaluation plots.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-iteration time breakdowns, every field on the **modeled**
    /// clock: priced by `frugal-sim` once, after the run, from the key and
    /// row counts each member recorded — the stall from the step's
    /// blocking-row count. A pure function of `(seed, config)` — the
    /// measured wait is the telemetry ledger's `stall_wait` phase.
    pub stats: RunStats,
    /// Aggregate GPU-cache hit ratio over all trainers. Its denominator is
    /// the `cache.hits` + `cache.misses` telemetry counters.
    pub hit_ratio: f64,
    /// Rows copied host→cache on the miss path (accepted inserts only) —
    /// the `cache.fills` telemetry counter.
    pub cache_fills: u64,
    /// Mean per-step time to register a batch's g-entry updates — the
    /// paper's Exp #4a metric, on the **modeled** clock: the rows the
    /// slowest member registers (all members' rows under a serializing
    /// queue) × `frugal-sim`'s per-row price, a pure function of
    /// `(seed, config)`. The *measured* counterpart is the telemetry
    /// ledger's `registration` phase (and the trace's `registration`
    /// spans). Zero for engines without g-entries.
    pub mean_gentry_update: Nanos,
    /// Consistency-invariant violations observed on host reads — the
    /// `p2f.violations` telemetry counter. Only collected in checked mode
    /// ([`FrugalConfig::checked`](crate::FrugalConfig::checked)); must be 0
    /// unless failure injection (`skip_wait`) is on.
    pub violations: usize,
    /// Seqlock races detected in checked mode, summed over the host store
    /// (read/write overlaps) and the optimizer's dense state table
    /// (update/update overlaps).
    pub races: usize,
    /// Rows flushed to the host store by the flushing threads — the
    /// `flush.rows` telemetry counter. Zero for write-through engines.
    pub flush_rows: u64,
    /// Total nanoseconds the flushing threads spent applying rows (optimizer
    /// step + host-store write; the claim before it is timed apart, into
    /// `flusher.claim_total_ns`) — the `flusher.apply_total_ns` telemetry
    /// counter.
    pub flush_apply_ns: u64,
    /// Total nanoseconds spent in elastic membership transitions (drain to
    /// quiescence + survivor cache eviction), summed over the run's epoch
    /// changes — the `membership.transition_ns` telemetry counter. Zero for
    /// static-cohort runs.
    pub membership_transition_ns: u64,
    /// Mean loss over the first recorded step.
    pub first_loss: f32,
    /// Mean loss over the last recorded step.
    pub final_loss: f32,
    /// Metrics, the per-step phase ledger, and stall attribution collected
    /// during the run; `None` when the run's
    /// [`Telemetry`](frugal_telemetry::Telemetry) handle was off.
    pub telemetry: Option<TelemetrySummary>,
}

impl TrainReport {
    /// Training throughput in samples per second (the paper's headline
    /// metric).
    pub fn throughput(&self) -> f64 {
        self.stats.throughput()
    }

    /// Mean per-iteration breakdown.
    pub fn mean_iter(&self) -> IterBreakdown {
        self.stats.mean()
    }

    /// Mean per-iteration training-process stall (Exp #2/#4 metric).
    pub fn mean_stall(&self) -> Nanos {
        self.stats.mean_stall()
    }
}

/// The modeled part of a [`TrainReport`] — the fields of the same names —
/// from the key stream alone: what [`System::price`](crate::System::price)
/// returns.
#[derive(Debug, Clone)]
pub struct ModeledRun {
    /// Per-iteration breakdowns on the modeled clock.
    pub stats: RunStats,
    /// Aggregate GPU-cache hit ratio.
    pub hit_ratio: f64,
    /// Rows the caches accepted on the miss path.
    pub cache_fills: u64,
    /// Mean modeled g-entry registration time a step.
    pub mean_gentry_update: Nanos,
    /// Rows the flushing threads apply: the reduced rows of every member's
    /// every step under P²F and FIFO; zero under write-through and for the
    /// baselines, which have no flushers.
    pub flush_rows: u64,
}

impl ModeledRun {
    /// Training throughput in samples per second.
    pub fn throughput(&self) -> f64 {
        self.stats.throughput()
    }
}
