//! Engine configuration.

use crate::gentry::READ_WINDOW;
use frugal_embed::{AdagradRule, CachePolicy, SgdRule, UpdateRule};
use frugal_sim::{CostModel, Topology};
use frugal_telemetry::Telemetry;
use frugal_tensor::RowOptimizer;
use std::sync::Arc;

/// The sparse optimizer applied to embedding rows.
///
/// SGD is stateless, which makes multi-engine bit-equality trivial.
/// Adagrad carries per-row state; the engine keeps independent state for
/// the host path (flushing threads) and each owner's cached copies — both
/// see exactly the per-key gradient sequence of synchronous training, so
/// results remain bit-identical to the serial reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// Plain SGD (`p -= lr * g`), the default.
    Sgd,
    /// Adagrad with per-row accumulated squared gradients.
    Adagrad,
}

impl OptimizerKind {
    /// Builds the thread-safe rule shared by the flushing threads.
    ///
    /// Stateful rules preallocate dense per-row state for `n_keys` rows of
    /// `dim` f32 (see [`frugal_embed::DenseStateTable`]); `checked` builds
    /// that state with seqlock race detection so consistency runs can fold
    /// state races into the report alongside the host store's.
    pub fn build_shared(
        &self,
        lr: f32,
        n_keys: u64,
        dim: usize,
        checked: bool,
    ) -> Arc<dyn UpdateRule> {
        match self {
            OptimizerKind::Sgd => Arc::new(SgdRule::new(lr)),
            OptimizerKind::Adagrad if checked => {
                Arc::new(AdagradRule::new_checked(lr, n_keys, dim))
            }
            OptimizerKind::Adagrad => Arc::new(AdagradRule::new(lr, n_keys, dim)),
        }
    }

    /// Builds a single-threaded optimizer for owner-cache updates, the
    /// write-through leader, and the serial reference.
    pub fn build_local(&self, lr: f32) -> Box<dyn RowOptimizer> {
        match self {
            OptimizerKind::Sgd => Box::new(frugal_tensor::Sgd::new(lr)),
            OptimizerKind::Adagrad => Box::new(frugal_tensor::Adagrad::new(lr)),
        }
    }
}

/// Which concurrent priority queue the modeled clock prices (Exp #4's
/// ablation). Pricing only: the engine always runs the g-entry store's own
/// shard queue, whose buckets are the two-level shape of §3.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PqKind {
    /// The paper's two-level PQ (§3.4).
    TwoLevel,
    /// The binary tree-heap baseline.
    TreeHeap,
}

/// How updates reach host memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushMode {
    /// The P²F algorithm: deferred, priority-ordered background flushing
    /// (the full Frugal system).
    P2f,
    /// Write-through: every step synchronously applies all updates to host
    /// memory before the next step starts (the Frugal-Sync baseline /
    /// "SyncFlushing" of Exp #2).
    WriteThrough,
    /// The priority ablation: proactive background flushing like
    /// [`FlushMode::P2f`], but in arrival order — every g-entry is enqueued
    /// at priority = its write step and reads are never registered. Still
    /// bit-equal to the serial oracle (step `s` waits until all writes of
    /// steps `< s` are flushed), but it pays the stall P²F's read-driven
    /// priorities avoid: *everything* pending gates the next step, not just
    /// the rows about to be read (paper §3.3's motivation, made runnable).
    Fifo,
}

impl FlushMode {
    /// True when this mode relies on background flushing threads (and on
    /// g-entry registration feeding the priority queue).
    pub fn proactive(self) -> bool {
        !matches!(self, FlushMode::WriteThrough)
    }
}

/// One scheduled cohort change: at the top of `step`, the active trainer
/// set becomes `members` (see [`MembershipPlan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipChange {
    /// First step executed by the new cohort. The transition itself runs
    /// at the quiesced boundary between `step - 1` and `step`.
    pub step: u64,
    /// Sorted, non-empty set of active trainer ids (subset of
    /// `0..n_gpus`).
    pub members: Vec<usize>,
}

/// A run's elastic-membership schedule: an ordered list of
/// [`MembershipChange`]s applied at quiesced step boundaries.
///
/// The default (empty) plan keeps the full `0..n_gpus` cohort for the
/// whole run — the classic fixed-width engine. A non-empty plan shrinks
/// and grows the cohort mid-run; the engine drains all pending host
/// updates to a quiescent point, republishes the
/// [`ShardMap`](crate::ShardMap) under the new member set (epoch + 1),
/// evicts survivors' cache rows that moved away, and resumes. Logical
/// sample streams are fixed at `n_gpus` regardless of cohort width, so an
/// elastic run stays bit-identical to the serial oracle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MembershipPlan {
    /// Changes in strictly increasing `step` order, every step in
    /// `(0, steps)`.
    pub changes: Vec<MembershipChange>,
}

impl MembershipPlan {
    /// Appends a change: from `step` on, `members` is the active cohort.
    pub fn change(mut self, step: u64, members: Vec<usize>) -> Self {
        self.changes.push(MembershipChange { step, members });
        self
    }

    /// Structural validation (called from [`FrugalConfig::validate`]).
    fn validate(&self, n_gpus: usize, steps: u64) -> Result<(), ConfigError> {
        let bad = |why: String| Err(ConfigError::Membership(why));
        let mut prev_step = 0u64;
        let mut prev_members: Vec<usize> = (0..n_gpus).collect();
        for c in &self.changes {
            if c.step <= prev_step || c.step >= steps {
                return bad(format!(
                    "change step {} not strictly inside ({prev_step}, {steps})",
                    c.step
                ));
            }
            if c.members.is_empty() {
                return bad(format!("change at step {} has no members", c.step));
            }
            if !c.members.windows(2).all(|w| w[0] < w[1]) {
                return bad(format!(
                    "members at step {} must be sorted and unique",
                    c.step
                ));
            }
            if *c.members.last().unwrap() >= n_gpus {
                return bad(format!(
                    "member {} at step {} outside 0..{n_gpus}",
                    c.members.last().unwrap(),
                    c.step
                ));
            }
            if c.members == prev_members {
                return bad(format!("change at step {} is a no-op", c.step));
            }
            prev_step = c.step;
            prev_members = c.members.clone();
        }
        Ok(())
    }
}

/// A rejected [`FrugalConfig`] (see [`FrugalConfig::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The topology has zero GPUs — there is nothing to train on.
    NoGpus,
    /// `lookahead` outside `1..=`[`READ_WINDOW`]: the sample queue must run
    /// at least one step ahead of training for prefetch-driven priorities
    /// to exist, and a g-entry's read window holds at most [`READ_WINDOW`]
    /// steps of live reads.
    Lookahead(u64),
    /// The flush mode relies on background flushers but `flush_threads == 0`
    /// — nothing would ever drain the pending updates.
    NoFlushers(FlushMode),
    /// `cache_ratio` outside `(0, 1]` (also rejects NaN).
    CacheRatio(f64),
    /// The elastic membership plan is malformed (unordered, out-of-range,
    /// empty cohort, or a no-op change).
    Membership(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoGpus => write!(f, "topology has zero GPUs"),
            ConfigError::Lookahead(0) => {
                write!(
                    f,
                    "lookahead 0: the sample queue must run at least one step ahead"
                )
            }
            ConfigError::Lookahead(l) => write!(
                f,
                "lookahead {l} exceeds {READ_WINDOW}, the steps of live reads a g-entry's read \
                 window holds"
            ),
            ConfigError::NoFlushers(mode) => write!(
                f,
                "{mode:?} mode needs flush_threads >= 1 (nothing would drain pending updates)"
            ),
            ConfigError::CacheRatio(r) => {
                write!(f, "cache_ratio {r} outside (0, 1]")
            }
            ConfigError::Membership(why) => write!(f, "membership plan: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of the Frugal training engine.
#[derive(Debug, Clone)]
pub struct FrugalConfig {
    /// Hardware model (defines GPU count class, link paths, latencies).
    pub cost: CostModel,
    /// Cache size as a fraction of total parameters (paper default 5 %).
    pub cache_ratio: f64,
    /// Cache admission policy.
    pub cache_policy: CachePolicy,
    /// Sample-queue lookahead `L` in steps (paper default 10), in
    /// `1..=`[`READ_WINDOW`] (64): each g-entry holds its live reads in a
    /// window that wide.
    pub lookahead: u64,
    /// Number of background flushing threads (paper default 8, optimum 12).
    pub flush_threads: usize,
    /// Entries per flusher dequeue (batched dequeue, §3.4).
    pub flush_batch: usize,
    /// Learning rate for embedding rows.
    pub lr: f32,
    /// Sparse optimizer for embedding rows.
    pub optimizer: OptimizerKind,
    /// Steps to train.
    pub steps: u64,
    /// Priority-queue implementation the modeled clock prices.
    pub pq: PqKind,
    /// Flushing strategy (Frugal vs Frugal-Sync).
    pub flush_mode: FlushMode,
    /// Run the host store in checked (race-detecting) mode and verify the
    /// consistency invariant on every host read.
    pub checked: bool,
    /// Failure injection: skip the P²F wait condition. Consistency is then
    /// expected to break; used to validate the checker. Such a run's flush
    /// queue keeps one bucket per step, so it may be at most 4 096 steps
    /// long (the engine panics otherwise).
    pub skip_wait: bool,
    /// Elastic cohort schedule (default: static full cohort).
    pub membership: MembershipPlan,
    /// Failure injection: apply membership changes *without* draining to a
    /// quiescent point or evicting survivors' moved cache rows. Stale
    /// cached copies can then resurrect old parameter values when a shard
    /// returns to a previous owner — used to prove the quiesce protocol is
    /// load-bearing.
    pub skip_quiesce: bool,
    /// Failure injection / testing: sleep this many microseconds after each
    /// flusher batch, simulating a starved or slow flushing pipeline.
    pub flush_throttle_us: u64,
    /// Seed for parameter initialization.
    pub seed: u64,
    /// Telemetry handle: metrics registry, phase spans, and trace ring.
    /// Defaults to [`Telemetry::off`] (near-zero instrumentation cost);
    /// pass [`Telemetry::new`] to collect a
    /// [`TelemetrySummary`](frugal_telemetry::TelemetrySummary) and
    /// Chrome traces in the run's [`TrainReport`](crate::TrainReport).
    pub telemetry: Telemetry,
}

impl FrugalConfig {
    /// Defaults from the paper's evaluation setup (§4.1) on a commodity
    /// topology of `n_gpus` RTX 3090s.
    pub fn commodity(n_gpus: usize, steps: u64) -> Self {
        Self::on(Topology::commodity(n_gpus), steps)
    }

    /// Defaults from the paper's evaluation setup (§4.1), priced on
    /// `topology`.
    pub fn on(topology: Topology, steps: u64) -> Self {
        FrugalConfig {
            cost: CostModel::new(topology),
            cache_ratio: 0.05,
            cache_policy: CachePolicy::StaticHot,
            lookahead: 10,
            flush_threads: 8,
            // Larger dequeue batches amortize the guarded-dequeue and wake
            // overhead per applied row; on time-sliced hosts 256 measured
            // consistently faster than the paper-era 64 with no stall cost
            // (the in-flight marker covers the whole batch either way).
            flush_batch: 256,
            lr: 0.1,
            optimizer: OptimizerKind::Sgd,
            steps,
            pq: PqKind::TwoLevel,
            flush_mode: FlushMode::P2f,
            checked: false,
            skip_wait: false,
            membership: MembershipPlan::default(),
            skip_quiesce: false,
            flush_throttle_us: 0,
            seed: 42,
            telemetry: Telemetry::off(),
        }
    }

    /// Enables telemetry collection on this run.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Checks the configuration's structural invariants, returning the
    /// first violation. [`FrugalEngine::new`](crate::FrugalEngine::new)
    /// calls this and panics on `Err`; binaries call it directly to report
    /// bad arguments gracefully instead of panicking deep inside a run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_gpus() == 0 {
            return Err(ConfigError::NoGpus);
        }
        if !(1..=READ_WINDOW).contains(&self.lookahead) {
            return Err(ConfigError::Lookahead(self.lookahead));
        }
        if self.flush_mode.proactive() && self.flush_threads == 0 {
            return Err(ConfigError::NoFlushers(self.flush_mode));
        }
        if !(self.cache_ratio > 0.0 && self.cache_ratio <= 1.0) {
            return Err(ConfigError::CacheRatio(self.cache_ratio));
        }
        self.membership.validate(self.n_gpus(), self.steps)?;
        Ok(())
    }

    /// Enables consistency checking (tests).
    pub fn checked(mut self) -> Self {
        self.checked = true;
        self
    }

    /// Number of GPUs in the configured topology.
    pub fn n_gpus(&self) -> usize {
        self.cost.topology().n_gpus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_defaults_match_paper() {
        let c = FrugalConfig::commodity(8, 100);
        assert_eq!(c.n_gpus(), 8);
        assert!(!c.cost.topology().supports_p2p());
        let dc = FrugalConfig::on(Topology::datacenter(8), 100);
        assert!(dc.cost.topology().supports_p2p());
        assert_eq!(c.cache_ratio, 0.05);
        assert_eq!(c.lookahead, 10);
        assert_eq!(c.flush_threads, 8);
        assert_eq!(c.flush_mode, FlushMode::P2f);
        assert_eq!(c.pq, PqKind::TwoLevel);
    }

    #[test]
    fn optimizer_builders_produce_rules() {
        let shared = OptimizerKind::Adagrad.build_shared(0.1, 100, 4, false);
        assert_eq!(shared.learning_rate(), 0.1);
        let checked = OptimizerKind::Adagrad.build_shared(0.1, 100, 4, true);
        assert_eq!(checked.race_count(), 0);
        let mut local = OptimizerKind::Sgd.build_local(0.5);
        let mut row = vec![1.0f32];
        local.update_row(0, &mut row, &[1.0]);
        assert_eq!(row, vec![0.5]);
    }

    #[test]
    fn cache_policy_builder_sets_policy() {
        let mut c = FrugalConfig::commodity(2, 10);
        c.cache_policy = CachePolicy::FrequencyAware;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn builders_toggle_modes() {
        let mut c = FrugalConfig::commodity(2, 10).checked();
        assert!(c.checked);
        assert!(c.flush_mode.proactive());
        c.flush_mode = FlushMode::Fifo;
        assert!(c.flush_mode.proactive());
        c.flush_mode = FlushMode::WriteThrough;
        assert!(!c.flush_mode.proactive());
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_each_invariant() {
        assert_eq!(FrugalConfig::commodity(2, 10).validate(), Ok(()));

        let mut c = FrugalConfig::commodity(2, 10);
        c.lookahead = READ_WINDOW;
        assert_eq!(c.validate(), Ok(()));
        for bad in [0, READ_WINDOW + 1] {
            c.lookahead = bad;
            assert_eq!(c.validate(), Err(ConfigError::Lookahead(bad)));
        }

        let mut c = FrugalConfig::commodity(2, 10);
        c.flush_threads = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoFlushers(FlushMode::P2f)));
        // Write-through needs no flushers; FIFO does.
        c.flush_mode = FlushMode::WriteThrough;
        assert_eq!(c.validate(), Ok(()));
        c.flush_mode = FlushMode::Fifo;
        assert_eq!(c.validate(), Err(ConfigError::NoFlushers(FlushMode::Fifo)));

        for bad in [0.0, -0.1, 1.5, f64::NAN] {
            let mut c = FrugalConfig::commodity(2, 10);
            c.cache_ratio = bad;
            assert!(
                matches!(c.validate(), Err(ConfigError::CacheRatio(_))),
                "cache_ratio {bad} must be rejected"
            );
        }
    }

    #[test]
    fn membership_plan_validates() {
        let ok = MembershipPlan::default()
            .change(3, vec![0, 1, 2])
            .change(7, vec![0, 1, 2, 3]);
        let mut cfg = FrugalConfig::commodity(4, 10);
        cfg.membership = ok;
        assert_eq!(cfg.validate(), Ok(()));

        let reject = |plan: MembershipPlan| {
            let mut c = FrugalConfig::commodity(4, 10);
            c.membership = plan;
            assert!(
                matches!(c.validate(), Err(ConfigError::Membership(_))),
                "plan must be rejected: {:?}",
                c.membership
            );
        };
        // Step 0 (the initial cohort is always full), past the end,
        // unordered steps, empty / unsorted / out-of-range members, and
        // no-op changes are all malformed.
        reject(MembershipPlan::default().change(0, vec![0, 1]));
        reject(MembershipPlan::default().change(10, vec![0, 1]));
        reject(
            MembershipPlan::default()
                .change(5, vec![0, 1])
                .change(5, vec![0, 1, 2]),
        );
        reject(MembershipPlan::default().change(3, vec![]));
        reject(MembershipPlan::default().change(3, vec![1, 0]));
        reject(MembershipPlan::default().change(3, vec![0, 4]));
        reject(MembershipPlan::default().change(3, vec![0, 1, 2, 3]));
    }

    #[test]
    fn kill_and_recover_builds_a_leave_plus_rejoin() {
        // A killed trainer is a leave followed by a rejoin of the full
        // cohort: trainer 2 of 4 dies before step 3 and returns at step 8.
        let plan = MembershipPlan::default()
            .change(3, vec![0, 1, 3])
            .change(8, vec![0, 1, 2, 3]);
        assert_eq!(
            plan.changes,
            vec![
                MembershipChange {
                    step: 3,
                    members: vec![0, 1, 3]
                },
                MembershipChange {
                    step: 8,
                    members: vec![0, 1, 2, 3]
                },
            ]
        );
        let mut cfg = FrugalConfig::commodity(4, 10);
        cfg.membership = plan;
        assert_eq!(cfg.validate(), Ok(()));
    }
}
