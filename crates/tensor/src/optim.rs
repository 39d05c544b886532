//! Optimizers and data-parallel gradient synchronization.

use crate::layers::Param;
use crate::matrix::Matrix;
use crate::model::GnnModel;

/// A first-order optimizer stepping a parameter list.
pub trait Optimizer {
    /// Applies one update step from the accumulated gradients, then zeroes
    /// them.
    fn step(&mut self, params: &mut [&mut Param]);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            for (v, &g) in p.value.data_mut().iter_mut().zip(p.grad.data()) {
                *v += g * -self.lr;
            }
            p.zero_grad();
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

/// A full snapshot of an [`Adam`] optimizer's mutable state, exposed so
/// checkpoints can persist and restore the step counter and both moment
/// accumulators bit-for-bit. Restoring a snapshot and continuing training
/// produces the exact same parameter trajectory as never having stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Bias-correction step counter.
    pub t: i32,
    /// First-moment accumulators, one per parameter.
    pub m: Vec<Matrix>,
    /// Second-moment accumulators, one per parameter.
    pub v: Vec<Matrix>,
}

impl Adam {
    /// Creates Adam with the usual defaults (β1=0.9, β2=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Snapshots the optimizer's complete state (hyperparameters, step
    /// counter, moment accumulators) for checkpointing.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Rebuilds an optimizer from a snapshot taken with
    /// [`Adam::export_state`].
    pub fn from_state(state: AdamState) -> Self {
        Adam {
            lr: state.lr,
            beta1: state.beta1,
            beta2: state.beta2,
            eps: state.eps,
            t: state.t,
            m: state.m,
            v: state.v,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.step_scaled(params.iter_mut().map(|p| &mut **p), 1.0);
    }
}

impl Adam {
    /// One update step `scale` times as long as [`Optimizer::step`]'s — the
    /// linear scaling rule for a gradient averaged over `scale` mini-batches
    /// (Adam's step length does not grow with the batch by itself). A scale
    /// of 1 is `step`, bit for bit. Takes the parameters as an iterator
    /// (`GnnModel::params_iter_mut`), so a step collects nothing.
    ///
    /// # Panics
    ///
    /// Panics if the parameter list is not as long as on the first step.
    pub fn step_scaled<'p>(&mut self, params: impl IntoIterator<Item = &'p mut Param>, scale: f32) {
        let lr = self.lr * scale;
        let first = self.m.is_empty();
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        let mut seen = 0;
        for (i, p) in params.into_iter().enumerate() {
            if first {
                self.m.push(Matrix::zeros(p.value.rows(), p.value.cols()));
                self.v.push(Matrix::zeros(p.value.rows(), p.value.cols()));
            }
            assert!(i < self.m.len(), "parameter list changed shape");
            seen = i + 1;
            let g = p.grad.data();
            let m = self.m[i].data_mut();
            let v = self.v[i].data_mut();
            let val = p.value.data_mut();
            for j in 0..g.len() {
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * g[j];
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * g[j] * g[j];
                let mhat = m[j] / bc1;
                let vhat = v[j] / bc2;
                val[j] -= lr * mhat / (vhat.sqrt() + self.eps);
            }
            p.zero_grad();
        }
        assert_eq!(seen, self.m.len(), "parameter list changed shape");
    }
}

/// Synchronous data-parallel gradient exchange: averages the gradients of
/// all replicas in place (every replica ends with the same averaged
/// gradients), mirroring the all-reduce the paper's Trainers perform
/// ("exchanging locally produced gradients to update GNN model
/// parameters", §5.2).
///
/// # Panics
///
/// Panics if replicas have different parameter shapes.
pub fn average_gradients(replicas: &mut [GnnModel]) {
    if replicas.len() < 2 {
        return;
    }
    let n = replicas.len();
    // Sum all replica grads into replica 0.
    let (first, rest) = replicas.split_at_mut(1);
    let mut first_params = first[0].params_mut();
    for other in rest.iter_mut() {
        let other_params = other.params_mut();
        assert_eq!(
            first_params.len(),
            other_params.len(),
            "replica parameter count mismatch"
        );
        for (a, b) in first_params.iter_mut().zip(other_params) {
            a.grad.add_assign(&b.grad);
        }
    }
    for p in first_params.iter_mut() {
        p.grad.scale(1.0 / n as f32);
    }
    let averaged: Vec<Matrix> = first_params.iter().map(|p| p.grad.clone()).collect();
    for other in rest.iter_mut() {
        for (p, avg) in other.params_mut().into_iter().zip(&averaged) {
            p.grad = avg.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, ModelKind};

    fn param(v: Vec<f32>, g: Vec<f32>) -> Param {
        let mut p = Param::new(Matrix::from_vec(1, v.len(), v));
        p.grad = Matrix::from_vec(1, g.len(), g);
        p
    }

    #[test]
    fn sgd_steps_against_gradient() {
        let mut p = param(vec![1.0, 2.0], vec![0.5, -0.5]);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [&mut p]);
        assert!((p.value.get(0, 0) - 0.95).abs() < 1e-6);
        assert!((p.value.get(0, 1) - 2.05).abs() < 1e-6);
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut p = param(vec![0.0], vec![3.0]);
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p]);
        // First Adam step magnitude ~= lr regardless of gradient scale.
        assert!(
            (p.value.get(0, 0) + 0.01).abs() < 1e-4,
            "{}",
            p.value.get(0, 0)
        );
    }

    #[test]
    fn adam_scaled_step_is_scale_times_as_long() {
        let (mut p1, mut p2) = (param(vec![0.0], vec![3.0]), param(vec![0.0], vec![3.0]));
        let (mut o1, mut o2) = (Adam::new(0.01), Adam::new(0.01));
        o1.step(&mut [&mut p1]);
        o2.step_scaled([&mut p2], 2.0);
        assert_eq!(p2.value.get(0, 0), 2.0 * p1.value.get(0, 0));
        // Only the step length differs: the moments and the step counter
        // advance alike.
        assert_eq!(o1.export_state(), o2.export_state());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(x) = (x - 3)^2 / 2; grad = x - 3.
        let mut p = param(vec![0.0], vec![0.0]);
        let mut opt = Adam::new(0.2);
        for _ in 0..200 {
            let x = p.value.get(0, 0);
            p.grad = Matrix::from_vec(1, 1, vec![x - 3.0]);
            opt.step(&mut [&mut p]);
        }
        assert!(
            (p.value.get(0, 0) - 3.0).abs() < 0.1,
            "{}",
            p.value.get(0, 0)
        );
    }

    #[test]
    fn adam_state_roundtrip_is_bit_identical() {
        // Step an optimizer a few times, snapshot, then step the original
        // and the restored copy identically: trajectories must match bit
        // for bit.
        let mut p = param(vec![0.0, 1.0], vec![0.0, 0.0]);
        let mut opt = Adam::new(0.05);
        for i in 0..5 {
            p.grad = Matrix::from_vec(1, 2, vec![0.3 + i as f32, -0.7]);
            opt.step(&mut [&mut p]);
        }
        let state = opt.export_state();
        let mut restored = Adam::from_state(state.clone());
        assert_eq!(restored.export_state(), state);
        let mut p2 = Param::new(p.value.clone());
        for i in 0..5 {
            let g = vec![1.1 - i as f32, 0.4];
            p.grad = Matrix::from_vec(1, 2, g.clone());
            p2.grad = Matrix::from_vec(1, 2, g);
            opt.step(&mut [&mut p]);
            restored.step(&mut [&mut p2]);
        }
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p.value), bits(&p2.value));
    }

    #[test]
    fn average_gradients_equalizes_replicas() {
        let cfg = ModelConfig {
            kind: ModelKind::Gcn,
            in_dim: 4,
            hidden_dim: 8,
            num_classes: 3,
            seed: 1,
        };
        let mut a = GnnModel::new(cfg);
        let mut b = GnnModel::new(cfg);
        // Fabricate distinct grads.
        for p in a.params_mut() {
            for g in p.grad.data_mut() {
                *g = 2.0;
            }
        }
        for p in b.params_mut() {
            for g in p.grad.data_mut() {
                *g = 4.0;
            }
        }
        let mut replicas = vec![a, b];
        average_gradients(&mut replicas);
        for r in &mut replicas {
            for p in r.params_mut() {
                assert!(p.grad.data().iter().all(|&g| (g - 3.0).abs() < 1e-6));
            }
        }
    }
}
