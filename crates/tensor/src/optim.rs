//! The Adam optimizer over a [`Graph`]'s trainable parameters.

use crate::scalar::Scalar;
use crate::{Graph, VarId};

/// Adam (Kingma & Ba) with bias correction — the optimizer used for all
/// deep-prior in-painting runs.
///
/// Like the graph, the optimizer is generic over the working precision:
/// hyperparameters are supplied as `f32` (lossless to widen) while the
/// moment buffers and update arithmetic run entirely in `S`.
///
/// # Example
///
/// ```
/// use dhf_tensor::{Graph, Tensor, optim::Adam};
/// let mut g: Graph = Graph::new();
/// let w = g.param(Tensor::scalar(5.0));
/// let t = g.input(Tensor::scalar(1.0));
/// let m = g.input(Tensor::scalar(1.0));
/// let loss = g.mse_masked(w, t, m);
/// let mut opt = Adam::new(0.1);
/// for _ in 0..300 {
///     g.forward();
///     g.backward(loss);
///     opt.step(&mut g);
/// }
/// assert!((g.value(w).data()[0] - 1.0).abs() < 1e-2);
/// ```
#[derive(Debug, Clone)]
pub struct Adam<S: Scalar = f32> {
    lr: S,
    beta1: S,
    beta2: S,
    eps: S,
    t: u64,
    state: Vec<MomentPair<S>>,
}

#[derive(Debug, Clone)]
struct MomentPair<S: Scalar> {
    id: VarId,
    m: Vec<S>,
    v: Vec<S>,
}

impl<S: Scalar> Adam<S> {
    /// Creates Adam with the given learning rate and the standard defaults
    /// `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr: S::from_f32(lr),
            beta1: S::from_f32(0.9),
            beta2: S::from_f32(0.999),
            eps: S::from_f32(1e-8),
            t: 0,
            state: Vec::new(),
        }
    }

    /// Applies one update using the gradients currently stored in `graph`.
    ///
    /// Moment buffers are allocated lazily on first use and keyed by
    /// parameter handle, so the same optimizer must be reused with the same
    /// graph.
    pub fn step(&mut self, graph: &mut Graph<S>) {
        if self.state.is_empty() {
            for &id in graph.params() {
                let n = graph.value(id).numel();
                self.state.push(MomentPair { id, m: vec![S::ZERO; n], v: vec![S::ZERO; n] });
            }
        }
        self.t += 1;
        let bc1 = S::ONE - self.beta1.powi(self.t as i32);
        let bc2 = S::ONE - self.beta2.powi(self.t as i32);
        for pair in &mut self.state {
            let (value, grad) = graph.param_value_and_grad(pair.id);
            let vd = value.data_mut();
            let gd = grad.data();
            for i in 0..vd.len() {
                let g = gd[i];
                pair.m[i] = self.beta1 * pair.m[i] + (S::ONE - self.beta1) * g;
                pair.v[i] = self.beta2 * pair.v[i] + (S::ONE - self.beta2) * g * g;
                let mhat = pair.m[i] / bc1;
                let vhat = pair.v[i] / bc2;
                vd[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    /// Loss (w - 3)² through the graph; Adam must drive w → 3.
    fn quadratic_graph() -> (Graph, VarId, VarId) {
        let mut g: Graph = Graph::new();
        let w = g.param(Tensor::scalar(0.0));
        let target = g.input(Tensor::scalar(3.0));
        let mask = g.input(Tensor::scalar(1.0));
        let loss = g.mse_masked(w, target, mask);
        (g, w, loss)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let (mut g, w, loss) = quadratic_graph();
        let mut opt = Adam::new(0.2);
        for _ in 0..200 {
            g.forward();
            g.backward(loss);
            opt.step(&mut g);
        }
        assert!((g.value(w).data()[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adam_converges_in_f64_too() {
        let mut g: Graph<f64> = Graph::new();
        let w = g.param(Tensor::scalar(0.0));
        let target = g.input(Tensor::scalar(3.0));
        let mask = g.input(Tensor::scalar(1.0));
        let loss = g.mse_masked(w, target, mask);
        let mut opt: Adam<f64> = Adam::new(0.2);
        for _ in 0..200 {
            g.forward();
            g.backward(loss);
            opt.step(&mut g);
        }
        assert!((g.value(w).data()[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adam_handles_multiple_parameters() {
        let mut g: Graph = Graph::new();
        let a = g.param(Tensor::from_vec(&[1, 1, 2], vec![0.0, 0.0]));
        let b = g.param(Tensor::from_vec(&[1, 1, 2], vec![5.0, 5.0]));
        let s = g.concat(a, b);
        let target = g.input(Tensor::from_vec(&[2, 1, 2], vec![1.0, 2.0, -1.0, 3.0]));
        let mask = g.input(Tensor::filled(&[2, 1, 2], 1.0));
        let loss = g.mse_masked(s, target, mask);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            g.forward();
            g.backward(loss);
            opt.step(&mut g);
        }
        g.forward();
        assert!(g.value(loss).data()[0] < 1e-3);
    }
}
