//! Named metric registry: atomic counters and log2-bucketed nanosecond
//! histograms with percentile summaries.
//!
//! Handles returned by the registry are `Arc`s, so hot paths resolve a
//! metric once and then touch a single atomic per update. The registry
//! itself is independent of the [`Telemetry`](crate::Telemetry) switch:
//! the engine keeps counters it *computes with* (cache hits, flush rows)
//! on a registry even when tracing is disabled.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets; bucket `i` covers values with bit width `i`,
/// i.e. bucket 0 holds only 0 and bucket `i>0` holds `[2^(i-1), 2^i)`.
/// 64 buckets cover the whole `u64` range of nanosecond durations.
const BUCKETS: usize = 64;

/// A lock-free histogram of `u64` samples (by convention, nanoseconds).
///
/// Samples land in log2 buckets, so `record` is one `leading_zeros` plus
/// three relaxed atomic adds. Percentiles are estimated from the bucket
/// cumulative distribution using each bucket's geometric midpoint, then
/// clamped to the observed min/max — at most one power-of-two of error,
/// which is plenty for p50/p95/p99 over phase durations.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [(); BUCKETS].map(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Index of the bucket holding `v`: its bit width.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let idx = Self::bucket_of(v).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot with percentile estimates.
    pub fn summary(&self) -> HistogramSummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Derive total from the bucket snapshot so percentile ranks are
        // consistent with it even if recorders race with this read.
        let count: u64 = counts.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        if count == 0 {
            return HistogramSummary::default();
        }
        let pct = |q: f64| -> u64 {
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_midpoint(i).clamp(min, max);
                }
            }
            max
        };
        HistogramSummary {
            count,
            sum,
            min,
            max,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }
}

/// Geometric midpoint of bucket `i` (its representative value).
fn bucket_midpoint(i: usize) -> u64 {
    if i == 0 {
        return 0;
    }
    let lo = 1u64 << (i - 1);
    let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
    (lo as f64 * hi as f64).sqrt() as u64
}

/// Point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Estimated 50th percentile.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Get-or-register store of named metrics.
///
/// Metric names are `&'static str` by design: every metric in the stack
/// is declared at a call site, and static names keep registration
/// allocation-free and make typos a compile-time grep away.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, registering it first if needed.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(self.counters.lock().unwrap().entry(name).or_default())
    }

    /// Returns the histogram named `name`, registering it first if needed.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(self.histograms.lock().unwrap().entry(name).or_default())
    }

    /// Snapshot of every metric, sorted by name within each kind.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.to_string(), v.summary()))
                .collect(),
        }
    }
}

/// Sorted point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_returns_the_same_handle_per_name() {
        let r = Registry::new();
        let a = r.counter("cache.hits");
        let b = r.counter("cache.hits");
        a.add(3);
        b.incr();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(r.snapshot().counters, vec![("cache.hits".to_string(), 4)]);
    }

    #[test]
    fn histogram_percentiles_bracket_the_distribution() {
        let h = Histogram::default();
        // 90 fast samples around 1µs, 10 slow around 1ms.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1_000);
        assert_eq!(s.max, 1_000_000);
        // p50 must sit in the fast mode's bucket (within 2x of 1µs)...
        assert!(s.p50 >= 512 && s.p50 <= 2_048, "p50 = {}", s.p50);
        // ...and p95/p99 in the slow mode's bucket.
        assert!(s.p95 >= 500_000, "p95 = {}", s.p95);
        assert!(s.p99 >= 500_000 && s.p99 <= 1_000_000, "p99 = {}", s.p99);
        assert!((s.mean() - 100_900.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = Histogram::default();
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn extreme_samples_stay_in_range() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        // The top log2 bucket must clamp its representative value instead
        // of overflowing back to a small number.
        assert!(s.p99 >= s.p50);
    }
}
