//! Deterministic, replayable workload traces.
//!
//! Frugal's controller *prefetches the IDs of the next `L` steps* (paper
//! §3.2, the sample queue). That requires the training trace to be known
//! slightly ahead of time — exactly how production pipelines stage their
//! input. Every trace here is a pure function of `(seed, step, gpu)`, so the
//! controller can materialize any future step's keys without coordination,
//! and two engines fed the same trace train on byte-identical batches (the
//! basis of the serial-vs-Frugal equivalence tests).

use crate::datasets::{KgDatasetSpec, RecDatasetSpec};
use crate::hash::fmix64;
use crate::zipf::{DistError, KeyDistribution, KeySampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An embedding-table key (a row index).
pub type Key = u64;

/// Mixes `(seed, step, gpu, salt)` into an RNG seed (the counter hash).
fn mix(seed: u64, step: u64, gpu: u64, salt: u64) -> u64 {
    fmix64(
        seed.wrapping_add(step.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(gpu.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB)),
    )
}

fn rng_for(seed: u64, step: u64, gpu: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, step, gpu, salt))
}

/// A deterministic per-key latent weight in `[-0.5, 0.5]`, used to make the
/// synthetic CTR labels learnable.
pub fn latent_weight(key: Key) -> f32 {
    let h = mix(key, 0xDEAD_BEEF, 0, 7);
    ((h as f64 / u64::MAX as f64) as f32 - 0.5) * 1.0
}

/// The microbenchmark workload of §4.1: each sample accesses exactly one
/// embedding key drawn from a configurable distribution, with the DNN part
/// eliminated.
///
/// # Examples
///
/// ```
/// use frugal_data::{KeyDistribution, SyntheticTrace};
///
/// let trace = SyntheticTrace::new(
///     10_000_000,
///     KeyDistribution::Zipf(0.9),
///     1024, // batch per GPU
///     8,    // GPUs
///     42,   // seed
/// )?;
/// let step0 = trace.step_keys(0);
/// assert_eq!(step0.len(), 8);
/// assert_eq!(step0[0].len(), 1024);
/// assert_eq!(step0, trace.step_keys(0)); // replayable
/// # Ok::<(), frugal_data::DistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    sampler: KeySampler,
    batch_per_gpu: usize,
    n_gpus: usize,
    seed: u64,
}

impl SyntheticTrace {
    /// Creates a trace over `n_keys` keys with the given distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] if the distribution parameters are invalid.
    pub fn new(
        n_keys: u64,
        dist: KeyDistribution,
        batch_per_gpu: usize,
        n_gpus: usize,
        seed: u64,
    ) -> Result<Self, DistError> {
        Ok(SyntheticTrace {
            sampler: dist.sampler(n_keys)?,
            batch_per_gpu,
            n_gpus,
            seed,
        })
    }

    /// Key space size.
    pub fn n_keys(&self) -> u64 {
        self.sampler.n()
    }

    /// Per-GPU batch size.
    pub fn batch_per_gpu(&self) -> usize {
        self.batch_per_gpu
    }

    /// Number of GPUs the trace is partitioned over.
    pub fn n_gpus(&self) -> usize {
        self.n_gpus
    }

    /// Samples processed per step across all GPUs.
    pub fn samples_per_step(&self) -> u64 {
        (self.batch_per_gpu * self.n_gpus) as u64
    }

    /// The keys each GPU accesses at `step` (outer index: GPU).
    pub fn step_keys(&self, step: u64) -> Vec<Vec<Key>> {
        (0..self.n_gpus).map(|g| self.gpu_keys(step, g)).collect()
    }

    /// The keys one GPU accesses at `step`, in sample order. Each GPU's
    /// stream is seeded independently from `(seed, step, gpu)`, so a single
    /// batch can be generated without touching its siblings — per-trainer
    /// sampling loops should use this rather than [`step_keys`], which
    /// materializes every GPU's batch.
    ///
    /// The stream is a pure function of those three values: it does *not*
    /// depend on the trace's `n_gpus`, on which thread asks, or on what was
    /// sampled before. Elastic cohorts rely on this — when a surviving
    /// trainer adopts a departed peer's logical stream, it regenerates
    /// byte-identical batches from the stream id alone.
    ///
    /// [`step_keys`]: SyntheticTrace::step_keys
    pub fn gpu_keys(&self, step: u64, gpu: usize) -> Vec<Key> {
        let mut rng = rng_for(self.seed, step, gpu as u64, 1);
        let mut keys = vec![0; self.batch_per_gpu];
        self.sampler.fill(&mut rng, &mut keys);
        keys
    }
}

/// One per-GPU batch of a recommendation workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RecBatch {
    /// `keys[sample * n_features + field]` — the sparse feature IDs.
    pub keys: Vec<Key>,
    /// Binary click labels, one per sample.
    pub labels: Vec<f32>,
    /// Number of sparse feature fields per sample.
    pub n_features: usize,
}

impl RecBatch {
    /// Number of samples in the batch.
    pub fn n_samples(&self) -> usize {
        self.labels.len()
    }
}

/// A replayable recommendation (CTR) trace shaped like a [`RecDatasetSpec`].
///
/// Labels follow a logistic model over per-key latent weights, so a DLRM
/// trained on the trace genuinely reduces its loss (used by the convergence
/// tests).
#[derive(Debug, Clone)]
pub struct RecTrace {
    spec: RecDatasetSpec,
    sampler: KeySampler,
    batch_per_gpu: usize,
    n_gpus: usize,
    seed: u64,
}

impl RecTrace {
    /// Creates a trace for `spec`, splitting `batch_per_gpu` samples per GPU.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] if the spec's skew parameters are invalid.
    pub fn new(
        spec: RecDatasetSpec,
        batch_per_gpu: usize,
        n_gpus: usize,
        seed: u64,
    ) -> Result<Self, DistError> {
        let sampler = KeyDistribution::Zipf(spec.skew_theta).sampler(spec.n_ids)?;
        Ok(RecTrace {
            spec,
            sampler,
            batch_per_gpu,
            n_gpus,
            seed,
        })
    }

    /// The dataset description this trace follows.
    pub fn spec(&self) -> &RecDatasetSpec {
        &self.spec
    }

    /// Per-GPU batch size in samples.
    pub fn batch_per_gpu(&self) -> usize {
        self.batch_per_gpu
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.n_gpus
    }

    /// Samples per step across all GPUs.
    pub fn samples_per_step(&self) -> u64 {
        (self.batch_per_gpu * self.n_gpus) as u64
    }

    /// Generates the batch GPU `gpu` trains on at `step`.
    pub fn step_batch(&self, step: u64, gpu: usize) -> RecBatch {
        let nf = self.spec.n_features as usize;
        let mut rng = rng_for(self.seed, step, gpu as u64, 2);
        let mut keys = Vec::with_capacity(self.batch_per_gpu * nf);
        let mut labels = Vec::with_capacity(self.batch_per_gpu);
        for _ in 0..self.batch_per_gpu {
            let mut logit = 0.0f32;
            for _ in 0..nf {
                let k = self.sampler.sample(&mut rng);
                logit += latent_weight(k);
                keys.push(k);
            }
            let p = 1.0 / (1.0 + (-logit).exp());
            let label = if rng.random::<f32>() < p { 1.0 } else { 0.0 };
            labels.push(label);
        }
        RecBatch {
            keys,
            labels,
            n_features: nf,
        }
    }

    /// The keys each GPU accesses at `step` (outer index: GPU) — what the
    /// controller's sample queue prefetches.
    pub fn step_keys(&self, step: u64) -> Vec<Vec<Key>> {
        (0..self.n_gpus)
            .map(|g| self.step_batch(step, g).keys)
            .collect()
    }
}

/// One per-GPU batch of a knowledge-graph workload: positive triples plus
/// shared negative-sample entities (DGL-KE style negative batching).
#[derive(Debug, Clone, PartialEq)]
pub struct KgBatch {
    /// Head entity of each positive triple.
    pub heads: Vec<Key>,
    /// Relation ID of each positive triple.
    pub relations: Vec<Key>,
    /// Tail entity of each positive triple.
    pub tails: Vec<Key>,
    /// Negative-sample entities shared across the batch.
    pub negatives: Vec<Key>,
}

impl KgBatch {
    /// Number of positive triples.
    pub fn n_triples(&self) -> usize {
        self.heads.len()
    }

    /// All *entity* keys the batch touches (heads, tails, negatives).
    pub fn entity_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.heads
            .iter()
            .chain(self.tails.iter())
            .chain(self.negatives.iter())
            .copied()
    }
}

/// A replayable knowledge-graph trace shaped like a [`KgDatasetSpec`].
///
/// Entity popularity follows a Zipfian distribution (real graphs have
/// heavy-tailed degree distributions); negatives are sampled uniformly, as
/// in DGL-KE.
#[derive(Debug, Clone)]
pub struct KgTrace {
    spec: KgDatasetSpec,
    entity_sampler: KeySampler,
    relation_sampler: KeySampler,
    batch_per_gpu: usize,
    n_gpus: usize,
    seed: u64,
}

impl KgTrace {
    /// Creates a trace for `spec` with `batch_per_gpu` triples per GPU.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] if the spec describes an empty graph.
    pub fn new(
        spec: KgDatasetSpec,
        batch_per_gpu: usize,
        n_gpus: usize,
        seed: u64,
    ) -> Result<Self, DistError> {
        let entity_sampler = KeyDistribution::Zipf(0.9).sampler(spec.n_entities)?;
        let relation_sampler = KeyDistribution::Zipf(0.99).sampler(spec.n_relations)?;
        Ok(KgTrace {
            spec,
            entity_sampler,
            relation_sampler,
            batch_per_gpu,
            n_gpus,
            seed,
        })
    }

    /// The dataset description this trace follows.
    pub fn spec(&self) -> &KgDatasetSpec {
        &self.spec
    }

    /// Per-GPU batch size in triples.
    pub fn batch_per_gpu(&self) -> usize {
        self.batch_per_gpu
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.n_gpus
    }

    /// Triples per step across all GPUs (the KG throughput unit).
    pub fn samples_per_step(&self) -> u64 {
        (self.batch_per_gpu * self.n_gpus) as u64
    }

    /// Generates the batch GPU `gpu` trains on at `step`.
    pub fn step_batch(&self, step: u64, gpu: usize) -> KgBatch {
        let mut rng = rng_for(self.seed, step, gpu as u64, 3);
        let b = self.batch_per_gpu;
        let n_ent = self.spec.n_entities;
        let mut heads = Vec::with_capacity(b);
        let mut relations = Vec::with_capacity(b);
        let mut tails = Vec::with_capacity(b);
        for _ in 0..b {
            let h = self.entity_sampler.sample(&mut rng);
            let r = self.relation_sampler.sample(&mut rng);
            // Most tails follow a latent per-relation mapping so the graph
            // has structure a scorer can actually learn (real KGs are far
            // from random); the rest is noise.
            let t = if rng.random::<f32>() < 0.85 {
                (h + mix(r, 0x7A11, 0, 9) % n_ent) % n_ent
            } else {
                self.entity_sampler.sample(&mut rng)
            };
            heads.push(h);
            relations.push(r);
            tails.push(t);
        }
        let negatives = (0..self.spec.neg_sample_size as usize)
            .map(|_| rng.random_range(0..self.spec.n_entities))
            .collect();
        KgBatch {
            heads,
            relations,
            tails,
            negatives,
        }
    }

    /// The *entity* keys each GPU accesses at `step` (outer index: GPU);
    /// relation keys are tracked in a separate, small table.
    pub fn step_keys(&self, step: u64) -> Vec<Vec<Key>> {
        (0..self.n_gpus)
            .map(|g| self.step_batch(step, g).entity_keys().collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys of sample `i` of `b`.
    fn sample_keys(b: &RecBatch, i: usize) -> &[Key] {
        &b.keys[i * b.n_features..(i + 1) * b.n_features]
    }

    #[test]
    fn synthetic_trace_is_deterministic() {
        let t = SyntheticTrace::new(1_000, KeyDistribution::Zipf(0.99), 64, 4, 9).unwrap();
        assert_eq!(t.step_keys(5), t.step_keys(5));
        assert_ne!(t.step_keys(5), t.step_keys(6));
        assert_eq!(t.samples_per_step(), 256);
    }

    #[test]
    fn synthetic_trace_gpus_differ() {
        let t = SyntheticTrace::new(100_000, KeyDistribution::Uniform, 32, 2, 1).unwrap();
        let keys = t.step_keys(0);
        assert_ne!(keys[0], keys[1]);
    }

    #[test]
    fn gpu_keys_matches_step_keys_slice() {
        let t = SyntheticTrace::new(10_000, KeyDistribution::Zipf(0.9), 64, 4, 7).unwrap();
        for step in [0u64, 3, 17] {
            let all = t.step_keys(step);
            assert_eq!(all.len(), 4);
            for (g, keys) in all.iter().enumerate() {
                assert_eq!(&t.gpu_keys(step, g), keys, "step {step} gpu {g}");
            }
        }
    }

    #[test]
    fn gpu_streams_are_independent_of_cohort_width() {
        // Elastic membership: when the cohort shrinks from 8 to 3, the
        // survivors regenerate the departed trainers' logical streams.
        // Stream g's keys must be a pure function of (seed, step, g) —
        // identical whether the trace was built for 8 GPUs or 3, and
        // identical no matter the order streams are materialized in.
        let wide = SyntheticTrace::new(10_000, KeyDistribution::Zipf(0.9), 64, 8, 7).unwrap();
        let narrow = SyntheticTrace::new(10_000, KeyDistribution::Zipf(0.9), 64, 3, 7).unwrap();
        for step in [0u64, 5, 31] {
            for g in 0..3 {
                assert_eq!(
                    wide.gpu_keys(step, g),
                    narrow.gpu_keys(step, g),
                    "step {step} stream {g} must not depend on n_gpus"
                );
            }
            // Order independence: sampling stream 7 first must not
            // perturb stream 2 (each stream owns a private RNG).
            let late = wide.gpu_keys(step, 7);
            let early = wide.gpu_keys(step, 2);
            assert_eq!(late, wide.gpu_keys(step, 7), "stream 7 replay");
            assert_eq!(early, wide.gpu_keys(step, 2), "stream 2 replay");
        }
    }

    #[test]
    fn synthetic_trace_accessors() {
        let t = SyntheticTrace::new(500, KeyDistribution::Uniform, 16, 3, 0).unwrap();
        assert_eq!(t.n_keys(), 500);
        assert_eq!(t.batch_per_gpu(), 16);
        assert_eq!(t.n_gpus(), 3);
    }

    #[test]
    fn rec_batch_layout() {
        let spec = RecDatasetSpec::avazu().scaled_to_ids(10_000);
        let t = RecTrace::new(spec, 8, 2, 3).unwrap();
        let b = t.step_batch(0, 0);
        assert_eq!(b.n_samples(), 8);
        assert_eq!(b.keys.len(), 8 * 22);
        assert_eq!(sample_keys(&b, 3).len(), 22);
        for &k in &b.keys {
            assert!(k < 10_000);
        }
        for &l in &b.labels {
            assert!(l == 0.0 || l == 1.0);
        }
    }

    #[test]
    fn rec_trace_deterministic_and_distinct_per_gpu() {
        let spec = RecDatasetSpec::criteo().scaled_to_ids(5_000);
        let t = RecTrace::new(spec, 4, 2, 11).unwrap();
        assert_eq!(t.step_batch(2, 1), t.step_batch(2, 1));
        assert_ne!(t.step_batch(2, 0), t.step_batch(2, 1));
        assert_eq!(t.step_keys(2)[1], t.step_batch(2, 1).keys);
    }

    #[test]
    fn rec_labels_correlate_with_latent_weights() {
        // The synthetic labels must be learnable: samples whose keys have
        // positive total latent weight should be clicked more often.
        let spec = RecDatasetSpec::avazu().scaled_to_ids(1_000);
        let t = RecTrace::new(spec, 512, 1, 5).unwrap();
        let mut pos_clicks = 0.0;
        let mut pos_n = 0.0;
        let mut neg_clicks = 0.0;
        let mut neg_n = 0.0;
        for step in 0..4 {
            let b = t.step_batch(step, 0);
            for i in 0..b.n_samples() {
                let w: f32 = sample_keys(&b, i).iter().map(|&k| latent_weight(k)).sum();
                if w > 0.0 {
                    pos_clicks += b.labels[i];
                    pos_n += 1.0;
                } else {
                    neg_clicks += b.labels[i];
                    neg_n += 1.0;
                }
            }
        }
        assert!(pos_clicks / pos_n > neg_clicks / neg_n + 0.1);
    }

    #[test]
    fn kg_batch_shape() {
        let spec = KgDatasetSpec::fb15k();
        let t = KgTrace::new(spec, 16, 2, 4).unwrap();
        let b = t.step_batch(0, 1);
        assert_eq!(b.n_triples(), 16);
        assert_eq!(b.negatives.len(), 200);
        assert_eq!(b.entity_keys().count(), 16 * 2 + 200);
        for k in b.entity_keys() {
            assert!(k < 15_000);
        }
        for &r in &b.relations {
            assert!(r < 1_300);
        }
    }

    #[test]
    fn kg_trace_deterministic() {
        let t = KgTrace::new(KgDatasetSpec::fb15k(), 8, 2, 13).unwrap();
        assert_eq!(t.step_batch(7, 0), t.step_batch(7, 0));
        assert_ne!(t.step_batch(7, 0), t.step_batch(8, 0));
        assert_eq!(t.samples_per_step(), 16);
    }

    #[test]
    fn latent_weight_is_bounded_and_deterministic() {
        for k in [0u64, 1, 42, u64::MAX] {
            let w = latent_weight(k);
            assert!((-0.5..=0.5).contains(&w));
            assert_eq!(w, latent_weight(k));
        }
    }

    #[test]
    fn mix_varies_with_all_inputs() {
        let base = mix(1, 2, 3, 4);
        assert_ne!(base, mix(2, 2, 3, 4));
        assert_ne!(base, mix(1, 3, 3, 4));
        assert_ne!(base, mix(1, 2, 4, 4));
        assert_ne!(base, mix(1, 2, 3, 5));
    }
}
