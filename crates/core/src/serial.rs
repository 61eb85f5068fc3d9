//! The serial reference trainer.
//!
//! Synchronous-training semantics defined operationally: one thread, one
//! plain parameter array, steps executed in order, per-key gradients
//! aggregated in canonical order (sample order within a GPU, GPU index
//! order across GPUs) and applied with SGD.
//!
//! The paper proves P²F "adheres to synchronous training consistency"
//! (§3.3). This module turns that proof into an executable oracle: a Frugal
//! run must leave the host store **bit-identical** to this trainer.

use crate::config::OptimizerKind;
use crate::model::EmbeddingModel;
use crate::workload::Workload;
use frugal_embed::{GradAggregator, HostStore};

/// Result of a serial reference run.
#[derive(Debug)]
pub struct SerialRun {
    /// Final parameters (a plain [`HostStore`], never accessed
    /// concurrently).
    pub store: HostStore,
    /// Mean loss at the first step.
    pub first_loss: f32,
    /// Mean loss at the last step.
    pub final_loss: f32,
}

/// Trains `workload` with `model` for `steps` steps serially.
///
/// `seed` must match the engine's [`crate::FrugalConfig::seed`] for
/// parameter-equality comparisons.
///
/// # Panics
///
/// Panics if the model dimension is zero or the workload is empty.
pub fn train_serial(
    workload: &dyn Workload,
    model: &dyn EmbeddingModel,
    steps: u64,
    lr: f32,
    seed: u64,
) -> SerialRun {
    train_serial_with(workload, model, steps, lr, seed, OptimizerKind::Sgd)
}

/// Like [`train_serial`] but with an explicit sparse optimizer.
///
/// # Panics
///
/// Panics if the model dimension is zero or the workload is empty.
pub fn train_serial_with(
    workload: &dyn Workload,
    model: &dyn EmbeddingModel,
    steps: u64,
    lr: f32,
    seed: u64,
    optimizer: OptimizerKind,
) -> SerialRun {
    let mut opt = optimizer.build_local(lr);
    let dim = model.dim();
    let n = workload.n_gpus();
    let store = HostStore::new(workload.n_keys(), dim, seed);
    let mut first_loss = 0.0;
    let mut final_loss = 0.0;
    for s in 0..steps {
        let mut merged = GradAggregator::new(dim);
        let mut loss_sum = 0.0f32;
        for g in 0..n {
            let keys = workload.keys(s, g);
            let mut rows = vec![0.0f32; keys.len() * dim];
            for (i, &key) in keys.iter().enumerate() {
                store.read_row(key, &mut rows[i * dim..(i + 1) * dim]);
            }
            let grads = model.forward_backward(g, s, &keys, &rows);
            loss_sum += grads.loss;
            let mut agg = GradAggregator::new(dim);
            for (i, &key) in keys.iter().enumerate() {
                agg.add(key, &grads.emb_grads[i * dim..(i + 1) * dim]);
            }
            merged.merge(agg);
        }
        model.end_step(s);
        for (key, grad) in merged.into_arrival_order() {
            store.write_row(key, |row| {
                opt.update_row(key, row, &grad);
            });
        }
        let loss = loss_sum / n as f32;
        if s == 0 {
            first_loss = loss;
        }
        final_loss = loss;
    }
    SerialRun {
        store,
        first_loss,
        final_loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PullToTarget;
    use frugal_data::{KeyDistribution, SyntheticTrace};

    #[test]
    fn serial_training_converges() {
        let t = SyntheticTrace::new(200, KeyDistribution::Zipf(0.99), 32, 2, 5).unwrap();
        let model = PullToTarget::new(4, 1);
        let run = train_serial(&t, &model, 40, 3.0, 9);
        assert!(run.final_loss < run.first_loss * 0.5);
    }

    #[test]
    fn serial_is_deterministic() {
        let t = SyntheticTrace::new(100, KeyDistribution::Uniform, 16, 2, 1).unwrap();
        let model = PullToTarget::new(4, 7);
        let a = train_serial(&t, &model, 10, 0.1, 3);
        let b = train_serial(&t, &model, 10, 0.1, 3);
        for key in 0..100 {
            assert_eq!(a.store.row_vec(key), b.store.row_vec(key));
        }
    }
}
