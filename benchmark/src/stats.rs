//! Order statistics the benchmark reports: medians, quartiles, nearest-rank
//! percentiles, and the rule for how far into the tail a sample reaches.

/// Nearest-rank percentile of an ascending-sorted slice: the value at rank
/// `ceil(q * n)` (1-based), the definition `frugal-telemetry`'s ledger and
/// `frugal-sim`'s `RunStats` use. 0 for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail percentiles the benchmark will report, in ascending order.
const TAIL_CANDIDATES: [f64; 5] = [0.90, 0.95, 0.99, 0.999, 0.9999];

/// The highest tail percentile that still has at least ten samples beyond
/// it in a sample of `n`; `None` when even p90 does not (n < 100).
pub fn highest_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the midpoint rule for even counts. 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method: position `(n + 1) * k / 4`, linear
/// interpolation, clamped to the sample) — the rule the acceptance check
/// measures spreads with. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (0 when the median is
/// 0): the run-to-run spread every bound is compared with.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_repo_definition() {
        let v: Vec<f64> = (1..=10).map(|x| x as f64 * 10.0).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.95), 100.0);
        assert_eq!(nearest_rank(&v, 0.1), 10.0);
        assert_eq!(nearest_rank(&v, 0.11), 20.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_selection_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(99), None);
        assert_eq!(highest_percentile(100), Some(0.90));
        assert_eq!(highest_percentile(199), Some(0.90));
        assert_eq!(highest_percentile(200), Some(0.95));
        assert_eq!(highest_percentile(999), Some(0.95));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(2_500), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        assert_eq!(highest_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
