//! A multi-layer perceptron with ReLU hidden activations.
//!
//! This is the "DNN part" of the embedding models (paper Fig 2a): DLRM runs
//! a fully connected 512-512-256-1 network over the aggregated embeddings.
//! The implementation provides exact forward/backward passes (verified by
//! finite differences in the tests).

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fully connected layer: `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Matrix, // in x out
    bias: Vec<f32>,
}

impl Linear {
    /// Xavier-uniform initialization with a deterministic seed.
    pub fn new(inputs: usize, outputs: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (inputs + outputs) as f32).sqrt();
        let data: Vec<f32> = (0..inputs * outputs)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Linear {
            weight: Matrix::from_vec(inputs, outputs, data),
            bias: vec![0.0; outputs],
        }
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.weight.rows()
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.weight.cols()
    }

    fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.weight);
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
        y
    }
}

/// Gradients of one layer produced by a backward pass.
#[derive(Debug, Clone)]
pub struct LinearGrad {
    /// Gradient of the weight matrix.
    pub weight: Matrix,
    /// Gradient of the bias vector.
    pub bias: Vec<f32>,
}

/// An MLP: linear layers with ReLU between them and a linear final output.
///
/// # Examples
///
/// ```
/// use frugal_tensor::{Matrix, Mlp};
///
/// // The paper's DLRM head: 32-dim pooled embeddings -> 512-512-256-1.
/// let mlp = Mlp::new(&[32, 512, 512, 256, 1], 7);
/// let x = Matrix::zeros(4, 32);
/// let y = mlp.forward(&x).output().clone();
/// assert_eq!((y.rows(), y.cols()), (4, 1));
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Cached activations from [`Mlp::forward`], consumed by [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct ForwardPass {
    /// `acts[0]` is the input; `acts[i]` the post-activation of layer `i-1`.
    acts: Vec<Matrix>,
}

impl ForwardPass {
    /// The network output (logits).
    pub fn output(&self) -> &Matrix {
        self.acts.last().expect("forward produces >= 1 activation")
    }
}

impl Mlp {
    /// Builds an MLP with the given layer widths (`dims[0]` is the input).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least input and output");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(w[0], w[1], seed.wrapping_add(i as u64 * 7919)))
            .collect();
        Mlp { layers }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer widths including the input.
    pub fn dims(&self) -> Vec<usize> {
        let mut d: Vec<usize> = self.layers.iter().map(|l| l.inputs()).collect();
        d.push(self.layers.last().expect("non-empty").outputs());
        d
    }

    /// Forward pass; returns the cached activations.
    pub fn forward(&self, x: &Matrix) -> ForwardPass {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = layer.forward(acts.last().expect("non-empty"));
            if i + 1 < self.layers.len() {
                y.map_inplace(|v| v.max(0.0)); // ReLU on hidden layers
            }
            acts.push(y);
        }
        ForwardPass { acts }
    }

    /// Backward pass from `d_out` (gradient w.r.t. the logits).
    ///
    /// Returns per-layer gradients and the gradient w.r.t. the input
    /// (needed to backpropagate into the embedding layer).
    ///
    /// # Panics
    ///
    /// Panics if `pass` was produced by a different-shaped network.
    pub fn backward(&self, pass: &ForwardPass, d_out: &Matrix) -> (Vec<LinearGrad>, Matrix) {
        assert_eq!(pass.acts.len(), self.layers.len() + 1, "pass mismatch");
        let mut grads: Vec<Option<LinearGrad>> = (0..self.layers.len()).map(|_| None).collect();
        let mut delta = d_out.clone();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let input = &pass.acts[i];
            // dW = inputᵀ delta ; db = column sums of delta.
            let weight = input.t_matmul(&delta);
            let mut bias = vec![0.0f32; layer.outputs()];
            for r in 0..delta.rows() {
                for (b, &d) in bias.iter_mut().zip(delta.row(r)) {
                    *b += d;
                }
            }
            grads[i] = Some(LinearGrad { weight, bias });
            // d_input = delta @ Wᵀ, masked by the ReLU derivative of the
            // previous layer's activation (hidden layers only).
            let mut d_in = delta.matmul_t(&layer.weight);
            if i > 0 {
                let act = &pass.acts[i];
                for r in 0..d_in.rows() {
                    let a = act.row(r).to_vec();
                    for (v, &av) in d_in.row_mut(r).iter_mut().zip(&a) {
                        if av <= 0.0 {
                            *v = 0.0;
                        }
                    }
                }
            }
            delta = d_in;
        }
        let grads = grads.into_iter().map(|g| g.expect("filled")).collect();
        (grads, delta)
    }

    /// Applies SGD with learning rate `lr` to all layers.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the layer count.
    pub fn apply_sgd(&mut self, grads: &[LinearGrad], lr: f32) {
        assert_eq!(grads.len(), self.layers.len(), "gradient count mismatch");
        for (layer, g) in self.layers.iter_mut().zip(grads) {
            layer.weight.axpy(-lr, &g.weight);
            for (b, &db) in layer.bias.iter_mut().zip(&g.bias) {
                *b -= lr * db;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FLOPs of one forward+backward pass per sample (the standard `6 m n`
    /// estimate: 2 for forward, 4 for backward per weight).
    fn flops_per_sample(mlp: &Mlp) -> f64 {
        mlp.layers
            .iter()
            .map(|l| 6.0 * (l.inputs() * l.outputs()) as f64)
            .sum()
    }

    fn loss_of(mlp: &Mlp, x: &Matrix, target: &[f32]) -> f32 {
        let out = mlp.forward(x);
        out.output()
            .as_slice()
            .iter()
            .zip(target)
            .map(|(&y, &t)| 0.5 * (y - t) * (y - t))
            .sum()
    }

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(&[8, 16, 4, 1], 1);
        let x = Matrix::zeros(5, 8);
        let p = mlp.forward(&x);
        assert_eq!((p.output().rows(), p.output().cols()), (5, 1));
        assert_eq!(mlp.n_layers(), 3);
        assert_eq!(mlp.dims(), vec![8, 16, 4, 1]);
    }

    #[test]
    fn flops_formula() {
        let mlp = Mlp::new(&[32, 512, 512, 256, 1], 0);
        let expect = 6.0 * (32. * 512. + 512. * 512. + 512. * 256. + 256. * 1.);
        assert_eq!(flops_per_sample(&mlp), expect);
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check of dL/dW on a small network.
        let mut mlp = Mlp::new(&[3, 4, 1], 42);
        let x = Matrix::from_rows(2, 3, &[0.5, -0.2, 0.8, 1.0, 0.3, -0.7]);
        let target = [1.0f32, 0.0];

        let pass = mlp.forward(&x);
        let d_out = Matrix::from_vec(
            2,
            1,
            pass.output()
                .as_slice()
                .iter()
                .zip(&target)
                .map(|(&y, &t)| y - t)
                .collect(),
        );
        let (grads, _) = mlp.backward(&pass, &d_out);

        let eps = 1e-3f32;
        for (li, g) in grads.iter().enumerate() {
            for wi in [0usize, 1, 2] {
                let analytic = g.weight.as_slice()[wi];
                let orig = mlp.layers[li].weight.as_mut_slice()[wi];
                mlp.layers[li].weight.as_mut_slice()[wi] = orig + eps;
                let lp = loss_of(&mlp, &x, &target);
                mlp.layers[li].weight.as_mut_slice()[wi] = orig - eps;
                let lm = loss_of(&mlp, &x, &target);
                mlp.layers[li].weight.as_mut_slice()[wi] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 2e-2,
                    "layer {li} w{wi}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn gradient_check_input() {
        // The input gradient feeds the embedding layer, so it must be exact.
        let mlp = Mlp::new(&[3, 5, 1], 11);
        let mut xdata = vec![0.3f32, -0.6, 0.9];
        let target = [0.5f32];
        let pass = mlp.forward(&Matrix::from_rows(1, 3, &xdata));
        let d_out = Matrix::from_vec(1, 1, vec![pass.output().as_slice()[0] - target[0]]);
        let (_, d_in) = mlp.backward(&pass, &d_out);

        let eps = 1e-3f32;
        for i in 0..3 {
            let orig = xdata[i];
            xdata[i] = orig + eps;
            let lp = loss_of(&mlp, &Matrix::from_rows(1, 3, &xdata), &target);
            xdata[i] = orig - eps;
            let lm = loss_of(&mlp, &Matrix::from_rows(1, 3, &xdata), &target);
            xdata[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = d_in.as_slice()[i];
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "input {i}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn sgd_reduces_regression_loss() {
        let mut mlp = Mlp::new(&[2, 8, 1], 3);
        let x = Matrix::from_rows(4, 2, &[0., 0., 0., 1., 1., 0., 1., 1.]);
        let target = [0.0f32, 1.0, 1.0, 0.0]; // XOR
        let initial = loss_of(&mlp, &x, &target);
        for _ in 0..500 {
            let pass = mlp.forward(&x);
            let d_out = Matrix::from_vec(
                4,
                1,
                pass.output()
                    .as_slice()
                    .iter()
                    .zip(&target)
                    .map(|(&y, &t)| y - t)
                    .collect(),
            );
            let (grads, _) = mlp.backward(&pass, &d_out);
            mlp.apply_sgd(&grads, 0.05);
        }
        let fin = loss_of(&mlp, &x, &target);
        assert!(fin < initial * 0.2, "loss {initial} -> {fin}");
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(&[4, 4, 1], 9);
        let b = Mlp::new(&[4, 4, 1], 9);
        let x = Matrix::from_rows(1, 4, &[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(
            a.forward(&x).output().as_slice(),
            b.forward(&x).output().as_slice()
        );
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_degenerate_dims() {
        let _ = Mlp::new(&[4], 0);
    }
}
