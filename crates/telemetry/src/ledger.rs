//! Per-step phase ledger: a fixed-slot, allocation-free ring of per-step
//! phase durations with exact windowed percentiles.
//!
//! Histograms (log2 buckets) answer "what does this phase cost over the
//! whole run" but cannot say *which step* regressed or give exact
//! percentiles. The ledger keeps, per engine thread (lane), a ring of
//! `capacity` step slots; each slot holds one accumulated duration cell
//! per [`LedgerPhase`]. A lane is written only through its
//! [`ThreadRecorder`](crate::ThreadRecorder), whose spans add their
//! duration to the lane's cell as they finish. Writes are wait-free
//! single-writer stores:
//!
//! * every lane is owned by exactly one recorder, and a recorder is used by
//!   one thread at a time, so slot maintenance needs no CAS loops;
//! * a slot is tagged with `step + 1` (`0` = never written). When the
//!   owner writes a step whose slot still carries an older step's tag, it
//!   zeroes the slot's cells and retags — so wrap-around never needs a
//!   coordinated clear;
//! * flusher lanes do not know the trainer step; they attribute work to
//!   the ledger's *step cursor*, which the barrier-A leader advances at
//!   the top of each step. Attribution is therefore exact for trainer
//!   phases and within ±1 step for flusher phases (documented, and fine:
//!   the summary aggregates per step before computing percentiles).
//!
//! The summary ([`LedgerSummary`]) folds lanes per step — **max** across
//! trainer lanes (the critical path is the slowest trainer) and **sum**
//! across flusher lanes (total background work) — then sorts the per-step
//! values for *exact* nearest-rank percentiles over the retained window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default number of step slots retained per lane.
pub const DEFAULT_LEDGER_STEPS: usize = 4096;

/// The per-step phases the ledger distinguishes.
///
/// Trainer phases decompose one training step on the slowest-trainer
/// critical path; flusher phases decompose background flushing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerPhase {
    /// Drawing the step's sample keys.
    Sample,
    /// Resolving unique keys against the GPU caches.
    CacheQuery,
    /// Reading cache-missed rows from host DRAM.
    HostRead,
    /// Copying unique rows out to the batch's per-sample rows.
    Scatter,
    /// Forward/backward plus gradient aggregation.
    Compute,
    /// Pricing a stream's modeled phase times and handing its aggregates
    /// and times to the reducers.
    Deposit,
    /// Waiting on barrier A (slowest-trainer sync before the reduce).
    BarrierA,
    /// Decentralized reduce: folding this trainer's key shard across all
    /// per-GPU aggregator slots, plus the sharded write-through apply.
    Reduce,
    /// Applying merged gradients to the GPU caches.
    CacheApply,
    /// Registering write/read intents in the g-entry store and PQ.
    Registration,
    /// Waiting on barrier C (registration complete before the next step).
    BarrierC,
    /// Blocked in the flush-wait condition (P²F / FIFO gate).
    StallWait,
    /// Leader-only bookkeeping after barriers A and C: the A-leader's
    /// ledger advance and model step end; the C-leader's scan-bound raise
    /// and read horizon.
    LeaderApply,
    /// Elastic membership transition: drain to quiescence, evict moved
    /// shards from survivor caches, publish the next shard-map epoch.
    /// Attributed to the first step of the new epoch's segment.
    EpochTransition,
    /// Flusher: pulling batches out of the priority queue.
    FlushDequeue,
    /// Flusher: claiming the dequeued keys' pending writes from the
    /// g-entry store.
    FlushClaim,
    /// Flusher: applying dequeued rows to host DRAM.
    FlushApply,
}

impl LedgerPhase {
    /// Number of phases (cells per step slot).
    pub const COUNT: usize = 17;

    /// Every phase, in a fixed order matching `as usize` indices.
    pub const ALL: [LedgerPhase; LedgerPhase::COUNT] = [
        LedgerPhase::Sample,
        LedgerPhase::CacheQuery,
        LedgerPhase::HostRead,
        LedgerPhase::Scatter,
        LedgerPhase::Compute,
        LedgerPhase::Deposit,
        LedgerPhase::BarrierA,
        LedgerPhase::Reduce,
        LedgerPhase::CacheApply,
        LedgerPhase::Registration,
        LedgerPhase::BarrierC,
        LedgerPhase::StallWait,
        LedgerPhase::LeaderApply,
        LedgerPhase::EpochTransition,
        LedgerPhase::FlushDequeue,
        LedgerPhase::FlushClaim,
        LedgerPhase::FlushApply,
    ];

    /// Index into per-phase cell tables.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (the telemetry table's rows, the JSON
    /// summary's keys and the Chrome trace's span names).
    pub fn name(self) -> &'static str {
        match self {
            LedgerPhase::Sample => "sample",
            LedgerPhase::CacheQuery => "cache_query",
            LedgerPhase::HostRead => "host_read",
            LedgerPhase::Scatter => "scatter",
            LedgerPhase::Compute => "compute",
            LedgerPhase::Deposit => "deposit",
            LedgerPhase::BarrierA => "barrier_a",
            LedgerPhase::Reduce => "reduce",
            LedgerPhase::CacheApply => "cache_apply",
            LedgerPhase::Registration => "registration",
            LedgerPhase::BarrierC => "barrier_c",
            LedgerPhase::StallWait => "stall_wait",
            LedgerPhase::LeaderApply => "leader_apply",
            LedgerPhase::EpochTransition => "epoch_transition",
            LedgerPhase::FlushDequeue => "flush_dequeue",
            LedgerPhase::FlushClaim => "flush_claim",
            LedgerPhase::FlushApply => "flush_apply",
        }
    }
}

/// Which kind of thread owns a lane; decides cross-lane aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// A trainer thread: per-step values are maxed across lanes
    /// (critical path = slowest trainer).
    Trainer,
    /// A flusher thread: per-step values are summed across lanes
    /// (total background work done during the step).
    Flusher,
}

/// One thread's ring of tagged step slots.
#[derive(Debug)]
pub(crate) struct Lane {
    kind: LaneKind,
    /// `step + 1` of the step occupying each slot; 0 = never written.
    tags: Box<[AtomicU64]>,
    /// `capacity * LedgerPhase::COUNT` duration cells, slot-major.
    cells: Box<[AtomicU64]>,
}

impl Lane {
    /// Accumulates `ns` into `phase` for `step`.
    #[inline]
    pub(crate) fn add(&self, step: u64, phase: LedgerPhase, ns: u64) {
        let slot = (step % self.tags.len() as u64) as usize;
        let tag = step + 1;
        let cells = &self.cells[slot * LedgerPhase::COUNT..(slot + 1) * LedgerPhase::COUNT];
        if self.tags[slot].load(Ordering::Relaxed) != tag {
            // The slot still holds an older (wrapped) step: zero its
            // cells and retag. Single-writer ownership makes this safe;
            // a concurrent summary read may see a torn slot, which only
            // perturbs one step of a 4096-step window.
            for c in cells {
                c.store(0, Ordering::Relaxed);
            }
            self.tags[slot].store(tag, Ordering::Release);
        }
        cells[phase.index()].fetch_add(ns, Ordering::Relaxed);
    }
}

/// The ledger core owned by a `Telemetry` instance.
#[derive(Debug)]
pub(crate) struct LedgerCore {
    capacity: usize,
    /// Current step, advanced by the barrier-A leader; flusher lanes
    /// attribute their work to this step.
    cursor: AtomicU64,
    lanes: Mutex<Vec<Arc<Lane>>>,
}

impl LedgerCore {
    pub fn new(capacity: usize) -> Self {
        LedgerCore {
            capacity: capacity.max(1),
            cursor: AtomicU64::new(0),
            lanes: Mutex::new(Vec::new()),
        }
    }

    pub fn advance(&self, step: u64) {
        self.cursor.store(step, Ordering::Release);
    }

    /// The step the barrier-A leader last advanced the cursor to.
    pub fn current_step(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Registers a new lane; the caller must be its only writer.
    pub fn lane(&self, kind: LaneKind) -> Arc<Lane> {
        let lane = Arc::new(Lane {
            kind,
            tags: (0..self.capacity).map(|_| AtomicU64::new(0)).collect(),
            cells: (0..self.capacity * LedgerPhase::COUNT)
                .map(|_| AtomicU64::new(0))
                .collect(),
        });
        self.lanes.lock().unwrap().push(Arc::clone(&lane));
        lane
    }

    /// Folds every lane into per-step, per-phase totals and computes
    /// exact percentiles over the retained step window.
    pub fn summary(&self) -> LedgerSummary {
        let lanes = self.lanes.lock().unwrap();
        // step -> [u64; COUNT] after cross-lane folding.
        let mut steps: std::collections::BTreeMap<u64, [u64; LedgerPhase::COUNT]> =
            std::collections::BTreeMap::new();
        for lane in lanes.iter() {
            for slot in 0..lane.tags.len() {
                let tag = lane.tags[slot].load(Ordering::Acquire);
                if tag == 0 {
                    continue;
                }
                let step = tag - 1;
                let entry = steps.entry(step).or_insert([0; LedgerPhase::COUNT]);
                for phase in LedgerPhase::ALL {
                    let v = lane.cells[slot * LedgerPhase::COUNT + phase.index()]
                        .load(Ordering::Relaxed);
                    let cell = &mut entry[phase.index()];
                    match lane.kind {
                        LaneKind::Trainer => *cell = (*cell).max(v),
                        LaneKind::Flusher => *cell += v,
                    }
                }
            }
        }
        // Lanes wrap independently: an idle flusher lane can still carry
        // a tag for a step the (always-writing) trainer lanes have long
        // overwritten. Trim to the newest `capacity` steps so every
        // retained step has complete trainer coverage.
        let newest = steps.keys().next_back().copied().unwrap_or(0);
        // Saturate both subtractions: the constructor clamps capacity to
        // >= 1, but a zero must trim to "keep only the newest step", not
        // underflow (`0 - 1` panicked in debug builds before the guard).
        let oldest_kept = newest.saturating_sub((self.capacity as u64).saturating_sub(1));
        let window: Vec<(u64, [u64; LedgerPhase::COUNT])> = steps
            .into_iter()
            .filter(|(step, _)| *step >= oldest_kept)
            .collect();
        let (first_step, last_step) = match (window.first(), window.last()) {
            (Some((f, _)), Some((l, _))) => (*f, *l),
            _ => (0, 0),
        };
        let phases = LedgerPhase::ALL
            .map(|phase| {
                let mut vals: Vec<u64> = window
                    .iter()
                    .map(|(_, cells)| cells[phase.index()])
                    .collect();
                vals.sort_unstable();
                LedgerPhaseSummary::from_sorted(phase, &vals)
            })
            .to_vec();
        LedgerSummary {
            window: window.len() as u64,
            first_step,
            last_step,
            phases,
        }
    }
}

/// Exact per-step statistics for one phase over the retained window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerPhaseSummary {
    /// Which phase.
    pub phase: LedgerPhase,
    /// Per-step samples folded into the stats (= the window size).
    pub steps: u64,
    /// Sum of per-step values, in nanoseconds.
    pub total_ns: u64,
    /// Mean per-step value.
    pub mean_ns: f64,
    /// Exact 50th percentile (nearest rank) of per-step values.
    pub p50_ns: u64,
    /// Exact 95th percentile.
    pub p95_ns: u64,
    /// Exact 99th percentile.
    pub p99_ns: u64,
    /// Largest per-step value.
    pub max_ns: u64,
}

impl LedgerPhaseSummary {
    fn from_sorted(phase: LedgerPhase, sorted: &[u64]) -> Self {
        let steps = sorted.len() as u64;
        let total_ns: u64 = sorted.iter().sum();
        let pct = |q: f64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let rank = ((q * steps as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        LedgerPhaseSummary {
            phase,
            steps,
            total_ns,
            mean_ns: if steps == 0 {
                0.0
            } else {
                total_ns as f64 / steps as f64
            },
            p50_ns: pct(0.50),
            p95_ns: pct(0.95),
            p99_ns: pct(0.99),
            max_ns: sorted.last().copied().unwrap_or(0),
        }
    }
}

/// Windowed, per-phase critical-path statistics for a run.
#[derive(Debug, Clone, Default)]
pub struct LedgerSummary {
    /// Distinct steps in the retained window.
    pub window: u64,
    /// Oldest retained step.
    pub first_step: u64,
    /// Newest retained step.
    pub last_step: u64,
    /// One entry per [`LedgerPhase`], in `LedgerPhase::ALL` order.
    pub phases: Vec<LedgerPhaseSummary>,
}

impl LedgerSummary {
    /// The summary for `phase`, if the window is non-empty.
    pub fn phase(&self, phase: LedgerPhase) -> Option<&LedgerPhaseSummary> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// Whether any step was recorded.
    pub fn is_empty(&self) -> bool {
        self.window == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trainer_lanes_max_and_flusher_lanes_sum() {
        let core = LedgerCore::new(16);
        let t0 = core.lane(LaneKind::Trainer);
        let t1 = core.lane(LaneKind::Trainer);
        let f0 = core.lane(LaneKind::Flusher);
        let f1 = core.lane(LaneKind::Flusher);
        for step in 0..4u64 {
            t0.add(step, LedgerPhase::Compute, 100 + step);
            t1.add(step, LedgerPhase::Compute, 200 + step);
            f0.add(step, LedgerPhase::FlushApply, 10);
            f1.add(step, LedgerPhase::FlushApply, 30);
        }
        let s = core.summary();
        assert_eq!(s.window, 4);
        assert_eq!((s.first_step, s.last_step), (0, 3));
        let compute = s.phase(LedgerPhase::Compute).unwrap();
        // Max across trainers: 200..=203.
        assert_eq!(compute.total_ns, 200 + 201 + 202 + 203);
        assert_eq!(compute.max_ns, 203);
        // Sum across flushers: 40 per step.
        let apply = s.phase(LedgerPhase::FlushApply).unwrap();
        assert_eq!(apply.total_ns, 160);
        assert_eq!(apply.p95_ns, 40);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let core = LedgerCore::new(256);
        let lane = core.lane(LaneKind::Trainer);
        // 100 steps: values 1..=100 ns.
        for step in 0..100u64 {
            lane.add(step, LedgerPhase::StallWait, step + 1);
        }
        let s = core.summary();
        let w = s.phase(LedgerPhase::StallWait).unwrap();
        assert_eq!(w.steps, 100);
        assert_eq!(w.p50_ns, 50);
        assert_eq!(w.p95_ns, 95);
        assert_eq!(w.p99_ns, 99);
        assert_eq!(w.max_ns, 100);
        assert!((w.mean_ns - 50.5).abs() < 1e-9);
    }

    #[test]
    fn wrapping_retags_slots_and_keeps_the_newest_window() {
        let core = LedgerCore::new(4);
        let lane = core.lane(LaneKind::Trainer);
        for step in 0..10u64 {
            lane.add(step, LedgerPhase::Registration, 1000 + step);
            // Accumulation within a step must survive the retag.
            lane.add(step, LedgerPhase::Registration, 1);
        }
        let s = core.summary();
        assert_eq!(s.window, 4);
        assert_eq!((s.first_step, s.last_step), (6, 9));
        let r = s.phase(LedgerPhase::Registration).unwrap();
        assert_eq!(r.max_ns, 1009 + 1);
        assert_eq!(r.total_ns, (1006 + 1007 + 1008 + 1009) + 4);
    }

    #[test]
    fn zero_capacity_saturates_instead_of_underflowing() {
        // The constructor clamps to one slot, and summary's window trim
        // must saturate rather than compute `0 - 1` (a debug-build panic
        // before the guard). Exercised end to end through the public API
        // in crate tests; here against the core directly.
        let core = LedgerCore::new(0);
        assert_eq!(core.summary().window, 0, "empty ledger, no panic");
        let lane = core.lane(LaneKind::Trainer);
        for step in 0..3u64 {
            lane.add(step, LedgerPhase::Compute, 10 + step);
        }
        let s = core.summary();
        // One retained slot: only the newest step survives the trim.
        assert_eq!(s.window, 1);
        assert_eq!((s.first_step, s.last_step), (2, 2));
        assert_eq!(s.phase(LedgerPhase::Compute).unwrap().total_ns, 12);
    }

    #[test]
    fn cursor_routes_flusher_attribution() {
        let core = LedgerCore::new(8);
        let f = core.lane(LaneKind::Flusher);
        core.advance(5);
        assert_eq!(core.current_step(), 5);
        f.add(core.current_step(), LedgerPhase::FlushDequeue, 77);
        let s = core.summary();
        assert_eq!((s.first_step, s.last_step), (5, 5));
        assert_eq!(s.phase(LedgerPhase::FlushDequeue).unwrap().total_ns, 77);
    }
}
