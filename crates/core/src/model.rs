//! The model abstraction: everything above the embedding layer.
//!
//! Engines fetch embedding rows (through caches, host memory, or simulated
//! collectives — that is the part the paper optimizes) and hand them to an
//! [`EmbeddingModel`], which computes gradients. DLRM and the KG scorers in
//! `frugal-models` implement this trait; [`PullToTarget`] is the
//! embedding-only microbenchmark model of §4.1/§4.2 ("we only test the
//! embedding part … and eliminate the DNN computation part").

use frugal_data::hash::{counter_row, fmix64};
use frugal_data::Key;

/// Per-GPU result of one forward+backward pass over a micro-batch.
#[derive(Debug, Clone)]
pub struct BatchGrads {
    /// Gradient for each key instance, flattened `keys.len() × dim`,
    /// aligned with the `keys` slice passed to
    /// [`EmbeddingModel::forward_backward`].
    pub emb_grads: Vec<f32>,
    /// Mean loss over the micro-batch (reporting only).
    pub loss: f32,
}

/// A model over embedding rows.
///
/// Implementations may hold dense parameters (e.g. an MLP) behind interior
/// mutability; [`EmbeddingModel::end_step`] is called exactly once per step
/// by the engine's coordinator (single-threaded) to apply dense updates in
/// a deterministic GPU order.
pub trait EmbeddingModel: Send + Sync {
    /// Embedding dimension.
    fn dim(&self) -> usize;

    /// Forward + backward over GPU `gpu`'s micro-batch at `step`.
    ///
    /// `rows` holds the current embedding values for `keys`, flattened
    /// `keys.len() × dim` in key order.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `rows.len() != keys.len() * dim`.
    fn forward_backward(&self, gpu: usize, step: u64, keys: &[Key], rows: &[f32]) -> BatchGrads;

    /// Called once per step after all GPUs finished their backward pass;
    /// applies any dense-parameter updates (aggregated in GPU order).
    fn end_step(&self, _step: u64) {}

    /// FLOPs of the dense part per sample (for the hardware cost model);
    /// zero for embedding-only workloads.
    fn dense_flops_per_sample(&self) -> f64 {
        0.0
    }

    /// Number of dense layers (kernel-launch accounting); zero if none.
    fn dense_layers(&self) -> u32 {
        0
    }

    /// Bytes of dense parameters that must be synchronized across GPUs each
    /// step (gradient all-reduce); zero for embedding-only workloads. This
    /// is the residual collective communication even Frugal keeps (Fig 12
    /// shows comm reduced by 60-85 %, not 100 %).
    fn dense_param_bytes(&self) -> u64 {
        0
    }
}

/// The embedding-only microbenchmark model: pulls every accessed row toward
/// a deterministic per-key target with a squared-error loss.
///
/// Gradient: `∂L/∂row = row − target(key)`, so training visibly converges —
/// which the convergence and equivalence tests exploit — while costing no
/// DNN compute, matching the paper's synthetic workload.
#[derive(Debug, Clone)]
pub struct PullToTarget {
    dim: usize,
    seed: u64,
}

impl PullToTarget {
    /// Creates the model for `dim`-wide embeddings.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "dim must be positive");
        PullToTarget { dim, seed }
    }

    /// The target vector element `d` for `key` (uniform in `[-0.5, 0.5]`).
    pub fn target(&self, key: Key, d: usize) -> f32 {
        let z = fmix64(
            self.row_base(key)
                .wrapping_add((d as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)),
        );
        (z as f64 / u64::MAX as f64) as f32 - 0.5
    }

    /// The counter-hash base of `key`'s target row ([`counter_row`]).
    #[inline(always)]
    fn row_base(&self, key: Key) -> u64 {
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.seed.wrapping_mul(0x94D0_49BB_1331_11EB))
    }

    /// The batch loop, for each key in turn: its target row written into
    /// its gradient row, then, element by element, the difference from the
    /// embedding row, the loss term and the scaled gradient, in place.
    /// Returns the loss sum, one serial chain in element order. Compiled
    /// for the baseline instruction set and, inlined, into
    /// [`Self::batch_avx2`]; every step is IEEE arithmetic without
    /// reassociation, so both compute the same bits.
    #[inline(always)]
    fn batch(&self, keys: &[Key], rows: &[f32], grads: &mut [f32], scale: f32) -> f32 {
        let mut loss = 0.0f32;
        let per_key = rows
            .chunks_exact(self.dim)
            .zip(grads.chunks_exact_mut(self.dim));
        for (&key, (row, grad)) in keys.iter().zip(per_key) {
            counter_row(self.row_base(key), grad);
            for (g, &v) in grad.iter_mut().zip(row) {
                *g = v - *g;
            }
            for &diff in grad.iter() {
                loss += 0.5 * diff * diff;
            }
            for g in grad.iter_mut() {
                *g *= scale;
            }
        }
        loss
    }

    /// [`Self::batch`] with four 64-bit lanes a vector.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn batch_avx2(&self, keys: &[Key], rows: &[f32], grads: &mut [f32], scale: f32) -> f32 {
        self.batch(keys, rows, grads, scale)
    }

    /// [`Self::batch`] for the widest instruction set this CPU has.
    fn batch_dispatch(&self, keys: &[Key], rows: &[f32], grads: &mut [f32], scale: f32) -> f32 {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: `batch_avx2` needs AVX2 and nothing else, and the
            // check above found it on the running CPU.
            return unsafe { self.batch_avx2(keys, rows, grads, scale) };
        }
        self.batch(keys, rows, grads, scale)
    }
}

impl EmbeddingModel for PullToTarget {
    fn dim(&self) -> usize {
        self.dim
    }

    fn forward_backward(&self, _gpu: usize, _step: u64, keys: &[Key], rows: &[f32]) -> BatchGrads {
        assert_eq!(rows.len(), keys.len() * self.dim, "rows/keys mismatch");
        // Gradients of the *mean* loss over the micro-batch: scaling by the
        // batch size keeps hot keys stable under SGD even when they appear
        // many times per step (the sum of their per-occurrence gradients
        // then stays bounded by the full gradient).
        let scale = 1.0 / keys.len().max(1) as f32;
        let mut emb_grads = vec![0.0; rows.len()];
        let loss = self.batch_dispatch(keys, rows, &mut emb_grads, scale);
        let denom = (keys.len().max(1) * self.dim) as f32;
        BatchGrads {
            emb_grads,
            loss: loss / denom,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_points_at_target() {
        let m = PullToTarget::new(4, 1);
        let keys = [7u64];
        let rows: Vec<f32> = (0..4).map(|d| m.target(7, d) + 1.0).collect();
        let g = m.forward_backward(0, 0, &keys, &rows);
        for &v in &g.emb_grads {
            assert!((v - 1.0).abs() < 1e-6);
        }
        assert!((g.loss - 0.5).abs() < 1e-6);
    }

    #[test]
    fn zero_loss_at_target() {
        let m = PullToTarget::new(3, 2);
        let keys = [1u64, 2];
        let rows: Vec<f32> = keys
            .iter()
            .flat_map(|&k| (0..3).map(move |d| (k, d)))
            .map(|(k, d)| m.target(k, d))
            .collect();
        let g = m.forward_backward(0, 0, &keys, &rows);
        assert_eq!(g.loss, 0.0);
        assert!(g.emb_grads.iter().all(|&v| v == 0.0));
    }

    /// `forward_backward` as it was written before the row kernel: one
    /// target element at a time, pushed in key-major order.
    fn spec(m: &PullToTarget, keys: &[Key], rows: &[f32]) -> (Vec<f32>, f32) {
        let scale = 1.0 / keys.len().max(1) as f32;
        let (mut grads, mut loss) = (Vec::new(), 0.0f32);
        for (i, &key) in keys.iter().enumerate() {
            for d in 0..m.dim {
                let diff = rows[i * m.dim + d] - m.target(key, d);
                loss += 0.5 * diff * diff;
                grads.push(scale * diff);
            }
        }
        (grads, loss / (keys.len().max(1) * m.dim) as f32)
    }

    #[test]
    fn every_instantiation_computes_the_spec_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for dim in [1, 3, 8, 31, 32, 33, 64] {
            let m = PullToTarget::new(dim, 0x5EED ^ dim as u64);
            for batch in [1usize, 7, 1_024] {
                // Duplicates, extremes and a spread of keys; rows around the
                // targets' range, some far off it.
                let keys: Vec<Key> = (0..batch as u64)
                    .map(|i| match i % 5 {
                        0 => i / 2,
                        1 => u64::MAX - i,
                        _ => i.wrapping_mul(0x2545_F491_4F6C_DD1D),
                    })
                    .collect();
                let rows: Vec<f32> = (0..batch * dim)
                    .map(|j| ((j * 37 % 101) as f32 - 50.0) / [40.0, 3.0][j % 2])
                    .collect();
                let (want, want_loss) = spec(&m, &keys, &rows);
                let got = m.forward_backward(0, 0, &keys, &rows);
                assert_eq!(bits(&got.emb_grads), bits(&want), "dim {dim} batch {batch}");
                assert_eq!(
                    got.loss.to_bits(),
                    want_loss.to_bits(),
                    "dim {dim} batch {batch}"
                );
                let scale = 1.0 / batch as f32;
                let mut base = vec![f32::NAN; rows.len()];
                let loss = m.batch(&keys, &rows, &mut base, scale);
                assert_eq!(
                    bits(&base),
                    bits(&want),
                    "baseline, dim {dim} batch {batch}"
                );
                assert_eq!(
                    (loss / (batch * dim) as f32).to_bits(),
                    want_loss.to_bits(),
                    "baseline loss, dim {dim} batch {batch}"
                );
            }
        }
    }

    #[test]
    fn target_is_the_splitmix_formula() {
        let m = PullToTarget::new(4, 11);
        for key in [0u64, 1, 12_345, u64::MAX] {
            for d in [0usize, 1, 31, 1_000] {
                let mut z = key
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((d as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                    .wrapping_add(11u64.wrapping_mul(0x94D0_49BB_1331_11EB));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let old = (z as f64 / u64::MAX as f64) as f32 - 0.5;
                assert_eq!(m.target(key, d).to_bits(), old.to_bits());
            }
        }
    }

    #[test]
    fn targets_deterministic_and_bounded() {
        let m = PullToTarget::new(2, 3);
        for k in 0..100u64 {
            for d in 0..2 {
                let t = m.target(k, d);
                assert_eq!(t, m.target(k, d));
                assert!((-0.5..=0.5).contains(&t));
            }
        }
    }

    #[test]
    fn default_dense_hooks_are_zero() {
        let m = PullToTarget::new(2, 0);
        assert_eq!(m.dense_flops_per_sample(), 0.0);
        assert_eq!(m.dense_layers(), 0);
        m.end_step(0); // no-op must not panic
    }

    #[test]
    #[should_panic(expected = "rows/keys mismatch")]
    fn rejects_misaligned_rows() {
        let m = PullToTarget::new(4, 1);
        let _ = m.forward_backward(0, 0, &[1, 2], &[0.0; 4]);
    }
}
