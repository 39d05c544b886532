//! Real data-parallel training to an accuracy target (Fig. 16).
//!
//! The convergence experiment cannot be simulated — it needs actual
//! numerics. This module trains a real model (from `gnnlab-tensor`) on a
//! planted-community graph, with `num_trainers` data-parallel replicas
//! emulated by gradient accumulation over `num_trainers` mini-batches per
//! update (mathematically identical to synchronous all-reduce across that
//! many Trainers). More trainers ⇒ fewer gradient updates per epoch ⇒
//! more epochs to a fixed accuracy — exactly the paper's Fig. 16b effect.

use gnnlab_graph::gen::SbmGraph;
use gnnlab_graph::VertexId;
use gnnlab_sampling::{Kernel, MinibatchIter, SamplingAlgorithm};
use gnnlab_tensor::loss::accuracy;
use gnnlab_tensor::{Adam, GnnModel, Matrix, ModelConfig, ModelKind, Optimizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of a convergence run.
#[derive(Debug, Clone)]
pub struct ConvergenceConfig {
    /// Stop once test accuracy reaches this.
    pub target_accuracy: f64,
    /// Hard epoch cap.
    pub max_epochs: usize,
    /// Data-parallel width (gradient updates per epoch shrink with this).
    pub num_trainers: usize,
    /// Mini-batch size per trainer.
    pub batch_size: usize,
    /// Hidden dimension.
    pub hidden_dim: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed (splits, shuffles, weights).
    pub seed: u64,
}

impl Default for ConvergenceConfig {
    fn default() -> Self {
        ConvergenceConfig {
            target_accuracy: 0.85,
            max_epochs: 60,
            num_trainers: 1,
            batch_size: 32,
            hidden_dim: 32,
            lr: 0.01,
            seed: 0,
        }
    }
}

/// Result of a convergence run.
#[derive(Debug, Clone)]
pub struct ConvergenceResult {
    /// Epochs needed (== max_epochs if the target was not reached).
    pub epochs: usize,
    /// Total gradient updates performed.
    pub gradient_updates: usize,
    /// Final test accuracy.
    pub final_accuracy: f64,
    /// Whether the target was reached.
    pub converged: bool,
    /// Per-epoch `(cumulative updates, test accuracy)`.
    pub history: Vec<(usize, f64)>,
}

/// The sampler each model uses — its default algorithm on the GNNLab
/// (Fisher–Yates) kernel — for callers that have no [`crate::Workload`]
/// (real-training paths working directly on an [`SbmGraph`]).
pub fn sampler_for(kind: ModelKind) -> Box<dyn SamplingAlgorithm> {
    crate::Workload::default_algorithm(kind).sampler(Kernel::FisherYates)
}

/// Gathers feature rows of `ids` into a dense matrix (host-side Extract).
pub fn gather_features(graph: &SbmGraph, ids: &[VertexId]) -> Matrix {
    let d = graph.feat_dim;
    let mut data = vec![0.0; ids.len() * d];
    gnnlab_par::gather_dense_into(ids, d, &mut data, &graph.features);
    Matrix::from_vec(ids.len(), d, data)
}

fn labels_of(graph: &SbmGraph, ids: &[VertexId]) -> Vec<u32> {
    ids.iter().map(|&v| graph.labels[v as usize]).collect()
}

/// Evaluates test accuracy by sampling + forwarding the test vertices.
pub fn evaluate(
    graph: &SbmGraph,
    model: &mut GnnModel,
    algo: &dyn SamplingAlgorithm,
    test_set: &[VertexId],
    batch_size: usize,
    seed: u64,
) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xE7A1);
    let mut correct_weighted = 0.0f64;
    let mut total = 0usize;
    for chunk in test_set.chunks(batch_size.max(1)) {
        let sample = algo.sample(&graph.csr, chunk, &mut rng);
        let feats = gather_features(graph, sample.input_nodes());
        let logits = model.forward(&sample, &feats);
        let labels = labels_of(graph, chunk);
        correct_weighted += accuracy(&logits, &labels) * chunk.len() as f64;
        total += chunk.len();
    }
    if total == 0 {
        0.0
    } else {
        correct_weighted / total as f64
    }
}

/// Trains `kind` on `graph` until `cfg.target_accuracy` (or the epoch cap).
pub fn train_to_accuracy(
    graph: &SbmGraph,
    kind: ModelKind,
    cfg: &ConvergenceConfig,
) -> ConvergenceResult {
    let n = graph.csr.num_vertices();
    // Deterministic 50/50 split.
    let all = gnnlab_graph::trainset::random_train_set(n, n / 2, cfg.seed ^ 0x5EED);
    let in_train: std::collections::HashSet<VertexId> = all.iter().copied().collect();
    let train_set = all;
    let test_set: Vec<VertexId> = (0..n as VertexId)
        .filter(|v| !in_train.contains(v))
        .collect();

    let algo = sampler_for(kind);
    let mut model = GnnModel::new(ModelConfig {
        kind,
        in_dim: graph.feat_dim,
        hidden_dim: cfg.hidden_dim,
        num_classes: graph.num_classes,
        seed: cfg.seed,
    });
    let mut opt = Adam::new(cfg.lr);

    let mut updates = 0usize;
    let mut history = Vec::new();
    let mut converged = false;
    let mut epochs = 0usize;
    for epoch in 0..cfg.max_epochs {
        epochs = epoch + 1;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ ((epoch as u64) << 32));
        let batches: Vec<Vec<VertexId>> =
            MinibatchIter::new(&train_set, cfg.batch_size.max(1), cfg.seed, epoch as u64).collect();
        // Each group of `num_trainers` batches is one synchronous update:
        // gradients accumulate (per-replica means), get averaged, and the
        // shared parameters step once.
        for group in batches.chunks(cfg.num_trainers.max(1)) {
            for seeds in group {
                let sample = algo.sample(&graph.csr, seeds, &mut rng);
                let feats = gather_features(graph, sample.input_nodes());
                let labels = labels_of(graph, seeds);
                let _ = model.train_batch(&sample, &feats, &labels);
            }
            let inv = 1.0 / group.len() as f32;
            let mut params = model.params_mut();
            for p in params.iter_mut() {
                p.grad.scale(inv);
            }
            opt.step(&mut params);
            updates += 1;
        }
        let acc = evaluate(
            graph,
            &mut model,
            algo.as_ref(),
            &test_set,
            cfg.batch_size,
            cfg.seed,
        );
        history.push((updates, acc));
        if acc >= cfg.target_accuracy {
            converged = true;
            break;
        }
    }
    let final_accuracy = history.last().map(|&(_, a)| a).unwrap_or(0.0);
    ConvergenceResult {
        epochs,
        gradient_updates: updates,
        final_accuracy,
        converged,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::gen::{sbm, SbmParams};

    fn graph() -> SbmGraph {
        sbm(&SbmParams {
            num_vertices: 800,
            num_classes: 4,
            avg_degree: 12.0,
            intra_prob: 0.9,
            feat_dim: 8,
            noise: 0.8,
            seed: 3,
        })
        .unwrap()
    }

    #[test]
    fn graphsage_converges_on_sbm() {
        let g = graph();
        let res = train_to_accuracy(
            &g,
            ModelKind::GraphSage,
            &ConvergenceConfig {
                target_accuracy: 0.80,
                max_epochs: 30,
                batch_size: 64,
                hidden_dim: 16,
                ..Default::default()
            },
        );
        assert!(
            res.converged,
            "did not converge: final acc {}",
            res.final_accuracy
        );
        assert!(res.epochs <= 30);
        assert!(res.gradient_updates > 0);
    }

    #[test]
    fn more_trainers_means_fewer_updates_per_epoch() {
        let g = graph();
        let base = ConvergenceConfig {
            target_accuracy: 2.0, // never reached: run exactly 2 epochs
            max_epochs: 2,
            batch_size: 50,
            hidden_dim: 8,
            ..Default::default()
        };
        let one = train_to_accuracy(&g, ModelKind::GraphSage, &base.clone());
        let four = train_to_accuracy(
            &g,
            ModelKind::GraphSage,
            &ConvergenceConfig {
                num_trainers: 4,
                ..base
            },
        );
        assert_eq!(one.epochs, 2);
        assert!(
            four.gradient_updates * 3 < one.gradient_updates,
            "1T {} updates vs 4T {}",
            one.gradient_updates,
            four.gradient_updates
        );
    }

    #[test]
    fn accuracy_improves_over_history() {
        let g = graph();
        let res = train_to_accuracy(
            &g,
            ModelKind::GraphSage,
            &ConvergenceConfig {
                target_accuracy: 2.0,
                max_epochs: 10,
                batch_size: 64,
                hidden_dim: 16,
                ..Default::default()
            },
        );
        let first = res.history.first().unwrap().1;
        let last = res.history.last().unwrap().1;
        assert!(last > first, "no improvement: {first} -> {last}");
    }
}
