//! Registry-backed run counters.

use frugal_telemetry::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Registry-backed run counters.
///
/// The run report reads several of these back (the violation count, the
/// flushed-row and flush-apply totals), so they always live on a metric
/// registry: the run's telemetry registry when telemetry is on, a private
/// one otherwise. Either way each is visible by name (`flush.rows`,
/// `flusher.dequeue_total_ns`, …) in telemetry snapshots. The `*_ns`
/// counters are wall-clock measurements for the ledger and traces; none of
/// them feeds a modeled number.
#[derive(Debug)]
pub(crate) struct RunMetrics {
    /// Counter `p2f.violations`: consistency-invariant violations seen on
    /// host reads (checked mode).
    pub(crate) violations: Arc<Counter>,
    /// Counters `flusher.dequeue_total_ns` / `flusher.claim_total_ns` /
    /// `flusher.apply_total_ns` / `flush.rows`: measured flusher costs,
    /// split into the dequeue part (finding the lowest queued priority and
    /// raising the in-flight marker), the claim part (taking and claiming
    /// each shard's bucket under its lock, which contends with registering
    /// trainers), and the pure host-apply part (optimizer step + store
    /// write only).
    pub(crate) flush_dequeue_ns: Arc<Counter>,
    pub(crate) flush_claim_ns: Arc<Counter>,
    pub(crate) flush_apply_ns: Arc<Counter>,
    pub(crate) flush_rows: Arc<Counter>,
    /// Counter `flusher.parked_ns`: time idle flushers spent parked on the
    /// flush condvar instead of spinning (the Fig 17 "flushers divert CPU"
    /// effect, avoided).
    pub(crate) flusher_parked_ns: Arc<Counter>,
    /// Histogram `flush.batch_rows`: rows applied per non-empty flush
    /// batch — how many rows each batch's fixed costs (index scan,
    /// marker, wake) are spread over.
    pub(crate) flush_batch_rows: Arc<Histogram>,
    /// Counter `membership.transition_ns`: wall time spent in elastic
    /// membership transitions (drain to quiescence + cache eviction +
    /// shard-map republication), summed over the run's epoch changes.
    pub(crate) membership_transition_ns: Arc<Counter>,
}

impl RunMetrics {
    pub(crate) fn new(registry: &Registry) -> Self {
        RunMetrics {
            violations: registry.counter("p2f.violations"),
            flush_dequeue_ns: registry.counter("flusher.dequeue_total_ns"),
            flush_claim_ns: registry.counter("flusher.claim_total_ns"),
            flush_apply_ns: registry.counter("flusher.apply_total_ns"),
            flush_rows: registry.counter("flush.rows"),
            flusher_parked_ns: registry.counter("flusher.parked_ns"),
            flush_batch_rows: registry.histogram("flush.batch_rows"),
            membership_transition_ns: registry.counter("membership.transition_ns"),
        }
    }
}
