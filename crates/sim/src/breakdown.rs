//! Per-iteration time decomposition.
//!
//! [`IterBreakdown`] carries the exact categories the paper uses in its
//! motivation (Fig 3c) and technique analysis (Fig 12): collective
//! communication, host DRAM access, GPU cache access, and "other" (DNN
//! compute etc.), plus the training-process *stall* that Exp #2/#4 measure.

use crate::time::Nanos;

/// Time spent in each phase of one training iteration.
///
/// # Examples
///
/// ```
/// use frugal_sim::{IterBreakdown, Nanos};
///
/// let mut it = IterBreakdown::default();
/// it.comm += Nanos::from_millis(3);
/// it.other += Nanos::from_millis(1);
/// assert_eq!(it.total(), Nanos::from_millis(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IterBreakdown {
    /// Collective communication on the critical path (all_to_all of keys and
    /// embeddings) — "comm." in Fig 3c.
    pub comm: Nanos,
    /// Host memory access for cache misses / parameter reads — "host DRAM".
    pub host_dram: Nanos,
    /// Local GPU cache access (query + update) — "cache".
    pub cache: Nanos,
    /// Everything else: DNN compute, sampling, optimizer — "other".
    pub other: Nanos,
    /// Foreground stall waiting for flushing (write-through drain or the
    /// P²F wait condition), priced from the rows that block.
    pub stall: Nanos,
}

impl IterBreakdown {
    /// Total iteration time.
    pub fn total(&self) -> Nanos {
        self.comm + self.host_dram + self.cache + self.other + self.stall
    }

    /// Element-wise sum with another breakdown.
    pub fn merged(&self, rhs: &IterBreakdown) -> IterBreakdown {
        IterBreakdown {
            comm: self.comm + rhs.comm,
            host_dram: self.host_dram + rhs.host_dram,
            cache: self.cache + rhs.cache,
            other: self.other + rhs.other,
            stall: self.stall + rhs.stall,
        }
    }
}

/// Aggregate statistics over the iterations of a training run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    iters: Vec<IterBreakdown>,
    samples_per_iter: u64,
}

impl RunStats {
    /// Creates empty statistics for a run processing `samples_per_iter`
    /// samples (summed across all GPUs) per iteration.
    pub fn new(samples_per_iter: u64) -> Self {
        RunStats {
            iters: Vec::new(),
            samples_per_iter,
        }
    }

    /// Records one iteration.
    pub fn push(&mut self, it: IterBreakdown) {
        self.iters.push(it);
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.iters.len()
    }

    /// True if no iterations were recorded.
    pub fn is_empty(&self) -> bool {
        self.iters.is_empty()
    }

    /// The recorded iterations.
    pub fn iters(&self) -> &[IterBreakdown] {
        &self.iters
    }

    /// Samples processed per iteration (all GPUs).
    pub fn samples_per_iter(&self) -> u64 {
        self.samples_per_iter
    }

    /// Element-wise mean breakdown of the recorded iterations.
    ///
    /// Returns the default (all-zero) breakdown if nothing was recorded.
    pub fn mean(&self) -> IterBreakdown {
        if self.iters.is_empty() {
            return IterBreakdown::default();
        }
        let n = self.iters.len() as u64;
        let sum = self
            .iters
            .iter()
            .fold(IterBreakdown::default(), |acc, it| acc.merged(it));
        IterBreakdown {
            comm: sum.comm / n,
            host_dram: sum.host_dram / n,
            cache: sum.cache / n,
            other: sum.other / n,
            stall: sum.stall / n,
        }
    }

    /// Mean per-iteration stall time.
    pub fn mean_stall(&self) -> Nanos {
        self.mean().stall
    }

    /// Nearest-rank percentile (`0 < q <= 1`) of per-iteration stall time
    /// (the Exp #2/#4 metric; measured: the ledger's `stall_wait` phase) —
    /// `stall_percentile(0.5)` is the median stall. Returns zero if nothing
    /// was recorded.
    pub fn stall_percentile(&self, q: f64) -> Nanos {
        assert!(q > 0.0 && q <= 1.0, "percentile q must be in (0, 1]");
        let mut values: Vec<Nanos> = self.iters.iter().map(|it| it.stall).collect();
        if values.is_empty() {
            return Nanos::ZERO;
        }
        values.sort();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        values[rank - 1]
    }

    /// End-to-end training throughput in samples/second: the paper's
    /// headline metric ("all throughputs refer to samples per second").
    pub fn throughput(&self) -> f64 {
        let total: Nanos = self.iters.iter().map(|it| it.total()).sum();
        if total.is_zero() {
            return 0.0;
        }
        (self.samples_per_iter * self.iters.len() as u64) as f64 / total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn it(ms: [u64; 5]) -> IterBreakdown {
        IterBreakdown {
            comm: Nanos::from_millis(ms[0]),
            host_dram: Nanos::from_millis(ms[1]),
            cache: Nanos::from_millis(ms[2]),
            other: Nanos::from_millis(ms[3]),
            stall: Nanos::from_millis(ms[4]),
        }
    }

    #[test]
    fn total_sums_all_phases() {
        assert_eq!(it([1, 2, 3, 4, 5]).total(), Nanos::from_millis(15));
    }

    #[test]
    fn merged_is_elementwise() {
        let m = it([1, 2, 3, 4, 5]).merged(&it([5, 4, 3, 2, 1]));
        assert_eq!(m, it([6, 6, 6, 6, 6]));
    }

    #[test]
    fn mean_of_two_iters() {
        let mut s = RunStats::new(1024);
        s.push(it([2, 0, 0, 0, 0]));
        s.push(it([4, 0, 0, 0, 0]));
        assert_eq!(s.mean().comm, Nanos::from_millis(3));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn mean_of_empty_run_is_zero() {
        let s = RunStats::new(1024);
        assert_eq!(s.mean(), IterBreakdown::default());
        assert_eq!(s.throughput(), 0.0);
    }

    #[test]
    fn throughput_is_samples_over_time() {
        let mut s = RunStats::new(1_000);
        s.push(it([0, 0, 0, 10, 0])); // 10 ms
        s.push(it([0, 0, 0, 10, 0])); // 10 ms
                                      // 2000 samples / 20 ms = 100k samples/s
        assert!((s.throughput() - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = RunStats::new(1);
        for ms in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            s.push(it([0, 0, 0, ms, ms / 10]));
        }
        assert_eq!(s.stall_percentile(0.1), Nanos::from_millis(1));
        assert_eq!(s.stall_percentile(0.5), Nanos::from_millis(5));
        assert_eq!(s.stall_percentile(0.55), Nanos::from_millis(6));
        assert_eq!(s.stall_percentile(0.99), Nanos::from_millis(10));
        assert_eq!(s.stall_percentile(1.0), Nanos::from_millis(10));
    }

    #[test]
    fn percentiles_of_empty_run_are_zero() {
        let s = RunStats::new(1);
        assert_eq!(s.stall_percentile(0.99), Nanos::ZERO);
        assert_eq!(s.stall_percentile(0.5), Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "percentile q must be in (0, 1]")]
    fn percentile_rejects_bad_quantile() {
        let s = RunStats::new(1);
        let _ = s.stall_percentile(0.0);
    }

    #[test]
    fn mean_stall_tracks_stall_only() {
        let mut s = RunStats::new(1);
        s.push(it([9, 9, 9, 9, 4]));
        s.push(it([0, 0, 0, 0, 2]));
        assert_eq!(s.mean_stall(), Nanos::from_millis(3));
    }
}
