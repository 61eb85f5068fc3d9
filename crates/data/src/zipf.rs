//! Key distributions for synthetic workloads.
//!
//! The paper's microbenchmark (§4.1) draws embedding keys from a uniform
//! distribution and from Zipfian distributions with parameters 0.9 and 0.99.
//! Two Zipfian samplers are provided:
//!
//! * [`ZipfAlias`] — a Vose alias table: O(n) to build, then one range draw
//!   plus two table reads per sample with *no* transcendental math. Batch
//!   generation is on the engine's critical path (the sample pipeline
//!   produces `n_gpus × batch` draws per step), so key spaces small enough
//!   to afford the 12-bytes-per-rank table use this one.
//! * [`Zipf`] — rejection-inversion (Hörmann & Derflinger, "Rejection-
//!   inversion to generate variates from monotone discrete distributions"),
//!   O(1) memory, several `ln`/`exp` per draw. Key spaces past
//!   [`ALIAS_TABLE_MAX`] (where the table would cost tens of MB) fall back
//!   to it, so the paper's 10-million-key space still works untabulated.
//!
//! Both are exact samplers of the same distribution; they differ in the
//! variates a given RNG stream produces, not in the law.

use rand::Rng;
use std::fmt;

/// Error building a distribution with invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// The key space must contain at least one key.
    EmptyKeySpace,
    /// The Zipf exponent must be finite and non-negative.
    BadExponent(f64),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::EmptyKeySpace => write!(f, "key space must be non-empty"),
            DistError::BadExponent(s) => write!(f, "invalid zipf exponent {s}"),
        }
    }
}

impl std::error::Error for DistError {}

/// Zipfian sampler over ranks `0..n` with exponent `theta`.
///
/// Rank 0 is the hottest key. `theta = 0` degenerates to uniform.
///
/// # Examples
///
/// ```
/// use frugal_data::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = Zipf::new(1_000_000, 0.99)?;
/// let mut rng = StdRng::seed_from_u64(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1_000_000);
/// # Ok::<(), frugal_data::DistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    // Precomputed rejection-inversion constants.
    h_integral_x1: f64,
    h_integral_num: f64,
    s: f64,
}

impl Zipf {
    /// Creates a Zipfian sampler over `n` ranks with exponent `theta`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::EmptyKeySpace`] if `n == 0`, and
    /// [`DistError::BadExponent`] if `theta` is negative or non-finite.
    pub fn new(n: u64, theta: f64) -> Result<Self, DistError> {
        if n == 0 {
            return Err(DistError::EmptyKeySpace);
        }
        if !theta.is_finite() || theta < 0.0 {
            return Err(DistError::BadExponent(theta));
        }
        let h_integral_x1 = Self::h_integral(1.5, theta) - 1.0;
        let h_integral_num = Self::h_integral(n as f64 + 0.5, theta);
        let s = 2.0
            - Self::h_integral_inverse(Self::h_integral(2.5, theta) - Self::h(2.0, theta), theta);
        Ok(Zipf {
            n,
            theta,
            h_integral_x1,
            h_integral_num,
            s,
        })
    }

    /// Number of ranks in the key space.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew exponent.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one rank in `0..n`; rank 0 is the most frequent.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Rejection-inversion over the 1-based rank k ∈ [1, n].
        loop {
            let u: f64 = self.h_integral_num
                + rng.random::<f64>() * (self.h_integral_x1 - self.h_integral_num);
            let x = Self::h_integral_inverse(u, self.theta);
            let mut k = (x + 0.5) as u64;
            k = k.clamp(1, self.n);
            let kf = k as f64;
            if x >= kf - 0.5 + self.s
                || u >= Self::h_integral(kf + 0.5, self.theta) - Self::h(kf, self.theta)
            {
                return k - 1;
            }
        }
    }

    /// The unnormalized frequency of rank `r` (0-based): `1 / (r+1)^theta`.
    pub fn weight(&self, rank: u64) -> f64 {
        ((rank + 1) as f64).powf(-self.theta)
    }

    /// H(x) = ∫ h, with h(x) = x^-theta.
    fn h_integral(x: f64, theta: f64) -> f64 {
        let log_x = x.ln();
        Self::helper2((1.0 - theta) * log_x) * log_x
    }

    fn h(x: f64, theta: f64) -> f64 {
        (-theta * x.ln()).exp()
    }

    fn h_integral_inverse(x: f64, theta: f64) -> f64 {
        let mut t = x * (1.0 - theta);
        if t < -1.0 {
            t = -1.0;
        }
        (Self::helper1(t) * x).exp()
    }

    /// (exp(x) - 1) / x, stable near 0.
    fn helper2(x: f64) -> f64 {
        if x.abs() > 1e-8 {
            x.exp_m1() / x
        } else {
            1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + x * 0.25))
        }
    }

    /// ln(1 + x) / x, stable near 0.
    fn helper1(x: f64) -> f64 {
        if x.abs() > 1e-8 {
            x.ln_1p() / x
        } else {
            1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25))
        }
    }
}

/// Largest key space for which [`KeyDistribution::sampler`] tabulates a
/// [`ZipfAlias`] (12 bytes per rank → ≤ 24 MiB). Larger spaces fall back to
/// the O(1)-memory rejection-inversion [`Zipf`].
pub const ALIAS_TABLE_MAX: u64 = 1 << 21;

/// Zipfian sampler over ranks `0..n` backed by a Vose alias table.
///
/// Construction walks the ranks once (deterministically — no RNG and no
/// per-process state, so the table and therefore the sampled streams are
/// identical across runs and platforms with IEEE f64). Each sample is one
/// uniform rank draw, one uniform f64 draw, and at most two table reads.
///
/// # Examples
///
/// ```
/// use frugal_data::ZipfAlias;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = ZipfAlias::new(100_000, 0.9)?;
/// let mut rng = StdRng::seed_from_u64(7);
/// assert!(zipf.sample(&mut rng) < 100_000);
/// # Ok::<(), frugal_data::DistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ZipfAlias {
    theta: f64,
    /// `prob[i]`: probability that a uniform draw landing on column `i`
    /// keeps rank `i` (vs. deferring to `alias[i]`), scaled to [0, 1].
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl ZipfAlias {
    /// Builds the alias table over `n` ranks with exponent `theta`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::EmptyKeySpace`] if `n == 0`, and
    /// [`DistError::BadExponent`] if `theta` is negative or non-finite.
    /// `n` must also fit the `u32` alias index (any table that large would
    /// be far past [`ALIAS_TABLE_MAX`] anyway).
    pub fn new(n: u64, theta: f64) -> Result<Self, DistError> {
        if n == 0 || n > u32::MAX as u64 {
            return Err(DistError::EmptyKeySpace);
        }
        if !theta.is_finite() || theta < 0.0 {
            return Err(DistError::BadExponent(theta));
        }
        let n_us = n as usize;
        // Each weight is a function of its rank alone, so every core may
        // compute some; the total stays one sum in rank order.
        let mut prob = vec![0.0; n_us];
        crate::par::fill_chunks(&mut prob, 1, |start, chunk| {
            for (r, w) in (start..).zip(chunk.iter_mut()) {
                *w = ((r + 1) as f64).powf(-theta);
            }
        });
        let total: f64 = prob.iter().sum();
        // Vose's algorithm with index stacks walked in ascending rank order
        // (the construction is deterministic, not just the distribution).
        let scale = n as f64 / total;
        prob.iter_mut().for_each(|w| *w *= scale);
        let mut alias = vec![0u32; n_us];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            // The large column donates the small column's deficit.
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Residual columns are full (1.0 up to rounding).
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        Ok(ZipfAlias { theta, prob, alias })
    }

    /// Number of ranks in the key space.
    pub fn n(&self) -> u64 {
        self.prob.len() as u64
    }

    /// The skew exponent.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one rank in `0..n`; rank 0 is the most frequent.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let i = rng.random_range(0..self.prob.len());
        if rng.random::<f64>() < self.prob[i] {
            i as u64
        } else {
            self.alias[i] as u64
        }
    }

    /// Fills `out` with the ranks successive [`ZipfAlias::sample`] calls
    /// would draw, leaving `rng` where they would.
    ///
    /// A table of a million ranks is 12 MB, so most draws miss the cache.
    /// One `sample` after another waits out each miss behind a branch on
    /// its outcome; here each chunk of 64 draws first takes all its
    /// (column, uniform) pairs from `rng` in `sample`'s order, then chooses
    /// column or alias with no branch, so the chunk's table reads are in
    /// flight together, each asked for as soon as its column is drawn.
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [u64]) {
        let mut cols = [0usize; FILL_CHUNK];
        let mut us = [0f64; FILL_CHUNK];
        for chunk in out.chunks_mut(FILL_CHUNK) {
            let (cols, us) = (&mut cols[..chunk.len()], &mut us[..chunk.len()]);
            for (c, u) in cols.iter_mut().zip(us.iter_mut()) {
                *c = rng.random_range(0..self.prob.len());
                *u = rng.random::<f64>();
                self.prefetch(*c);
            }
            for ((o, &c), &u) in chunk.iter_mut().zip(cols.iter()).zip(us.iter()) {
                let alias = self.alias[c] as u64;
                *o = if u < self.prob[c] { c as u64 } else { alias };
            }
        }
    }

    /// Asks the memory system for column `c`'s `prob` and `alias` entries
    /// ahead of their use: a hint with no architectural effect.
    #[inline(always)]
    fn prefetch(&self, c: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let (prob, alias) = (&self.prob[c] as *const f64, &self.alias[c] as *const u32);
            // SAFETY: both pointers come from in-bounds references, and a
            // prefetch does not dereference its address and cannot fault.
            // SSE is part of the x86-64 baseline.
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(prob.cast());
                _mm_prefetch::<_MM_HINT_T0>(alias.cast());
            }
        }
    }
}

/// Draws [`ZipfAlias::fill`] takes from the RNG before it reads the table.
const FILL_CHUNK: usize = 64;

/// A key distribution for synthetic traces: the three used by Exp #1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with the given exponent (the paper uses 0.9 and 0.99).
    Zipf(f64),
}

impl KeyDistribution {
    /// Short label used in experiment tables ("uniform", "zipf-0.9", ...).
    pub fn label(&self) -> String {
        match self {
            KeyDistribution::Uniform => "uniform".to_owned(),
            KeyDistribution::Zipf(t) => format!("zipf-{t}"),
        }
    }

    /// Builds a sampler over `n` keys. Zipfian spaces up to
    /// [`ALIAS_TABLE_MAX`] keys get the tabulated [`ZipfAlias`] (constant
    /// cost per draw, no transcendental math on the batch-generation path);
    /// larger spaces fall back to rejection-inversion.
    ///
    /// # Errors
    ///
    /// Propagates [`DistError`] for invalid parameters.
    pub fn sampler(&self, n: u64) -> Result<KeySampler, DistError> {
        match self {
            KeyDistribution::Uniform => {
                if n == 0 {
                    Err(DistError::EmptyKeySpace)
                } else {
                    Ok(KeySampler::Uniform { n })
                }
            }
            KeyDistribution::Zipf(theta) if n <= ALIAS_TABLE_MAX => {
                Ok(KeySampler::ZipfAlias(ZipfAlias::new(n, *theta)?))
            }
            KeyDistribution::Zipf(theta) => Ok(KeySampler::Zipf(Zipf::new(n, *theta)?)),
        }
    }
}

/// A ready-to-draw sampler built from a [`KeyDistribution`].
#[derive(Debug, Clone)]
pub enum KeySampler {
    /// Uniform over `0..n`.
    Uniform {
        /// Key space size.
        n: u64,
    },
    /// Zipfian sampler (rejection-inversion; key spaces past
    /// [`ALIAS_TABLE_MAX`]).
    Zipf(Zipf),
    /// Zipfian sampler (alias table; key spaces up to
    /// [`ALIAS_TABLE_MAX`]).
    ZipfAlias(ZipfAlias),
}

impl KeySampler {
    /// Draws one key.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self {
            KeySampler::Uniform { n } => rng.random_range(0..*n),
            KeySampler::Zipf(z) => z.sample(rng),
            KeySampler::ZipfAlias(z) => z.sample(rng),
        }
    }

    /// Fills `out` with the keys successive [`KeySampler::sample`] calls
    /// would draw, leaving `rng` where they would: the alias table in
    /// chunks ([`ZipfAlias::fill`]), the others one draw at a time.
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [u64]) {
        match self {
            KeySampler::ZipfAlias(z) => z.fill(rng, out),
            _ => out.iter_mut().for_each(|o| *o = self.sample(rng)),
        }
    }

    /// Key space size.
    pub fn n(&self) -> u64 {
        match self {
            KeySampler::Uniform { n } => *n,
            KeySampler::Zipf(z) => z.n(),
            KeySampler::ZipfAlias(z) => z.n(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fraction of `z`'s probability mass covered by its hottest `hot`
    /// ranks.
    fn hot_mass(z: &Zipf, hot: u64) -> f64 {
        let hot = hot.min(z.n);
        let total: f64 = harmonic(z.n, z.theta);
        if total == 0.0 {
            return 0.0;
        }
        harmonic(hot, z.theta) / total
    }

    fn harmonic(n: u64, theta: f64) -> f64 {
        // Exact for small n, integral approximation for large n.
        if n <= 10_000 {
            (1..=n).map(|k| (k as f64).powf(-theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|k| (k as f64).powf(-theta)).sum();
            head + Zipf::h_integral(n as f64 + 0.5, theta) - Zipf::h_integral(10_000.5, theta)
        }
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert_eq!(Zipf::new(0, 0.9).unwrap_err(), DistError::EmptyKeySpace);
        assert!(matches!(
            Zipf::new(10, -1.0).unwrap_err(),
            DistError::BadExponent(_)
        ));
        assert!(matches!(
            Zipf::new(10, f64::NAN).unwrap_err(),
            DistError::BadExponent(_)
        ));
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(1_000, 0.99).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1_000);
        }
    }

    #[test]
    fn zipf_rank0_is_hottest() {
        let z = Zipf::new(100, 0.99).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u64; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn zipf_empirical_frequencies_match_weights() {
        let z = Zipf::new(50, 0.9).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 400_000;
        let mut counts = [0u64; 50];
        for _ in 0..trials {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let total_w: f64 = (0..50).map(|r| z.weight(r)).sum();
        for r in [0u64, 1, 5, 20] {
            let expected = z.weight(r) / total_w;
            let observed = counts[r as usize] as f64 / trials as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {r}: expected {expected}, observed {observed}"
            );
        }
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.02, "frac {frac}");
        }
    }

    #[test]
    fn hot_mass_monotone_and_bounded() {
        let z = Zipf::new(10_000_000, 0.99).unwrap();
        let m1 = hot_mass(&z, 100_000); // 1% of keys
        let m5 = hot_mass(&z, 500_000); // 5% of keys
        assert!(m1 > 0.0 && m1 < m5 && m5 <= 1.0);
        // Skewed: the hottest 1% should cover well over 1% of accesses.
        assert!(m1 > 0.5, "1% of keys covers {m1} of mass");
    }

    #[test]
    fn uniform_sampler_covers_space() {
        let s = KeyDistribution::Uniform.sampler(8).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            seen.insert(s.sample(&mut rng));
        }
        assert_eq!(seen.len(), 8);
        assert_eq!(s.n(), 8);
    }

    #[test]
    fn distribution_labels() {
        assert_eq!(KeyDistribution::Uniform.label(), "uniform");
        assert_eq!(KeyDistribution::Zipf(0.9).label(), "zipf-0.9");
    }

    #[test]
    fn uniform_rejects_empty() {
        assert!(KeyDistribution::Uniform.sampler(0).is_err());
    }

    #[test]
    fn error_display() {
        assert!(DistError::EmptyKeySpace.to_string().contains("non-empty"));
        assert!(DistError::BadExponent(-1.0).to_string().contains("-1"));
    }

    #[test]
    fn alias_empirical_frequencies_match_weights() {
        let z = ZipfAlias::new(50, 0.9).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 400_000;
        let mut counts = [0u64; 50];
        for _ in 0..trials {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let total_w: f64 = (0..50).map(|r| ((r + 1) as f64).powf(-0.9)).sum();
        for r in [0usize, 1, 5, 20, 49] {
            let expected = ((r + 1) as f64).powf(-0.9) / total_w;
            let observed = counts[r] as f64 / trials as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {r}: expected {expected}, observed {observed}"
            );
        }
    }

    #[test]
    fn alias_rejects_bad_params() {
        assert_eq!(
            ZipfAlias::new(0, 0.9).unwrap_err(),
            DistError::EmptyKeySpace
        );
        assert!(matches!(
            ZipfAlias::new(10, f64::INFINITY).unwrap_err(),
            DistError::BadExponent(_)
        ));
    }

    #[test]
    fn alias_theta_zero_is_uniform() {
        let z = ZipfAlias::new(10, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.02, "frac {frac}");
        }
    }

    #[test]
    fn alias_construction_is_deterministic() {
        let a = ZipfAlias::new(10_000, 0.99).unwrap();
        let b = ZipfAlias::new(10_000, 0.99).unwrap();
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            assert_eq!(a.sample(&mut ra), b.sample(&mut rb));
        }
    }

    #[test]
    fn alias_table_is_the_serial_construction_bit_for_bit() {
        // The whole construction on one thread: one weight after another,
        // then the total and the Vose walk.
        fn serial(n: usize, theta: f64) -> (Vec<f64>, Vec<u32>) {
            let weights: Vec<f64> = (0..n).map(|r| ((r + 1) as f64).powf(-theta)).collect();
            let total: f64 = weights.iter().sum();
            let scale = n as f64 / total;
            let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
            let mut alias = vec![0u32; n];
            let (mut small, mut large) = (Vec::new(), Vec::new());
            for (i, &p) in prob.iter().enumerate() {
                if p < 1.0 {
                    small.push(i as u32);
                } else {
                    large.push(i as u32);
                }
            }
            while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
                small.pop();
                alias[s as usize] = l;
                prob[l as usize] -= 1.0 - prob[s as usize];
                if prob[l as usize] < 1.0 {
                    large.pop();
                    small.push(l);
                }
            }
            for &i in small.iter().chain(large.iter()) {
                prob[i as usize] = 1.0;
            }
            (prob, alias)
        }
        for n in [1usize, 2, 3, 4097, 1_000_003] {
            for theta in [0.0, 0.9, 1.2] {
                let table = ZipfAlias::new(n as u64, theta).unwrap();
                let (prob, alias) = serial(n, theta);
                let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(&table.prob) == bits(&prob),
                    "prob, n {n} theta {theta}"
                );
                assert!(table.alias == alias, "alias, n {n} theta {theta}");
            }
        }
    }

    #[test]
    fn sampler_picks_alias_under_threshold_and_inversion_above() {
        let small = KeyDistribution::Zipf(0.9).sampler(ALIAS_TABLE_MAX).unwrap();
        assert!(matches!(small, KeySampler::ZipfAlias(_)));
        assert_eq!(small.n(), ALIAS_TABLE_MAX);
        let big = KeyDistribution::Zipf(0.9)
            .sampler(ALIAS_TABLE_MAX + 1)
            .unwrap();
        assert!(matches!(big, KeySampler::Zipf(_)));
        assert_eq!(big.n(), ALIAS_TABLE_MAX + 1);
    }

    #[test]
    fn fill_draws_what_successive_samples_draw() {
        let samplers = [
            KeyDistribution::Uniform.sampler(1_000).unwrap(),
            KeySampler::Zipf(Zipf::new(1_000, 0.99).unwrap()),
            KeyDistribution::Zipf(0.9).sampler(1_000).unwrap(),
        ];
        assert!(matches!(samplers[2], KeySampler::ZipfAlias(_)));
        for sampler in &samplers {
            for seed in [0u64, 7, 0xDEAD_BEEF] {
                for len in [0usize, 1, 63, 64, 65, 1_024] {
                    let mut by_fill = StdRng::seed_from_u64(seed);
                    let mut by_sample = by_fill.clone();
                    let mut filled = vec![u64::MAX; len];
                    sampler.fill(&mut by_fill, &mut filled);
                    let sampled: Vec<u64> =
                        (0..len).map(|_| sampler.sample(&mut by_sample)).collect();
                    assert_eq!(filled, sampled, "{sampler:?} seed {seed} len {len}");
                    assert_eq!(
                        by_fill.random::<u64>(),
                        by_sample.random::<u64>(),
                        "the RNG must end where the samples leave it"
                    );
                }
            }
        }
    }

    #[test]
    fn big_keyspace_sampling_is_fast_and_valid() {
        let z = Zipf::new(10_000_000, 0.9).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut max = 0;
        for _ in 0..50_000 {
            max = max.max(z.sample(&mut rng));
        }
        assert!(max < 10_000_000);
        assert!(max > 1_000, "sampler collapsed to the head: max {max}");
    }
}
