//! The three GNN models of the evaluation (§7.1), stacked from layers.

use crate::layers::{GnnLayer, LayerKind, Param};
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::matrix::Matrix;
use gnnlab_sampling::Sample;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which GNN model to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// 3-layer GCN with 3-hop random sampling, fanouts [15, 10, 5].
    Gcn,
    /// 2-layer GraphSAGE with 2-hop random sampling, fanouts [25, 10].
    GraphSage,
    /// 3-layer PinSAGE with random-walk sampling (4 walks × length 3,
    /// keep 5).
    PinSage,
}

impl ModelKind {
    /// The three models of Table 4.
    pub const ALL: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::PinSage];

    /// Number of GNN layers.
    pub fn num_layers(&self) -> usize {
        match self {
            ModelKind::Gcn | ModelKind::PinSage => 3,
            ModelKind::GraphSage => 2,
        }
    }

    /// Layer arithmetic.
    pub fn layer_kind(&self) -> LayerKind {
        match self {
            ModelKind::Gcn => LayerKind::GraphConv,
            ModelKind::GraphSage => LayerKind::SageConv,
            ModelKind::PinSage => LayerKind::PinSageConv,
        }
    }

    /// Abbreviation used in the paper's tables (GCN / GSG / PSG).
    pub fn abbrev(&self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::GraphSage => "GSG",
            ModelKind::PinSage => "PSG",
        }
    }
}

/// Model hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Which architecture.
    pub kind: ModelKind,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Hidden dimension (256 in the paper; smaller at test scale).
    pub hidden_dim: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Weight-init seed.
    pub seed: u64,
}

/// A stacked GNN model with manual forward/backward over a [`Sample`].
#[derive(Debug, Clone)]
pub struct GnnModel {
    config: ModelConfig,
    layers: Vec<GnnLayer>,
    /// The hidden activations, one per layer below the last, and
    /// `backward`'s two gradient buffers (the one a layer reads and masks
    /// in place, the one it writes its input gradient to) — all kept
    /// across batches.
    hidden: Vec<Matrix>,
    grad: Matrix,
    dx: Matrix,
}

impl GnnModel {
    /// Builds the model with Xavier-initialized weights.
    pub fn new(config: ModelConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let l = config.kind.num_layers();
        let mut layers = Vec::with_capacity(l);
        for i in 0..l {
            let in_dim = if i == 0 {
                config.in_dim
            } else {
                config.hidden_dim
            };
            let out_dim = if i == l - 1 {
                config.num_classes
            } else {
                config.hidden_dim
            };
            layers.push(GnnLayer::new(
                config.kind.layer_kind(),
                in_dim,
                out_dim,
                i != l - 1,
                &mut rng,
            ));
        }
        // Nothing consumes the first layer's input gradient.
        layers[0].input_grad = false;
        GnnModel {
            config,
            layers,
            hidden: vec![Matrix::default(); l - 1],
            grad: Matrix::default(),
            dx: Matrix::default(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Forward pass over a sample's blocks. `in_feats` must have one row
    /// per [`Sample::input_nodes`] entry. Returns seed logits.
    ///
    /// # Panics
    ///
    /// Panics if the sample's layer count does not match the model's.
    pub fn forward(&mut self, sample: &Sample, in_feats: &Matrix) -> Matrix {
        assert_eq!(
            sample.blocks.len(),
            self.layers.len(),
            "sample layer count mismatch"
        );
        let (last, below) = self
            .layers
            .split_last_mut()
            .expect("a model has at least one layer");
        let mut h = in_feats;
        for ((layer, block), out) in below.iter_mut().zip(&sample.blocks).zip(&mut self.hidden) {
            layer.forward_into(block, h, out);
            h = out;
        }
        last.forward(&sample.blocks[below.len()], h)
    }

    /// Backward pass from the logits gradient; accumulates parameter
    /// gradients. The gradient w.r.t. `in_feats` has no consumer and is
    /// never computed (the first layer's `input_grad` is off).
    pub fn backward(&mut self, grad_logits: &Matrix) {
        self.grad.copy_from(grad_logits);
        for layer in self.layers.iter_mut().rev() {
            layer.backward_into(&mut self.grad, &mut self.dx);
            std::mem::swap(&mut self.grad, &mut self.dx);
        }
    }

    /// Forward + loss + backward for one mini-batch; returns `(loss,
    /// train accuracy)`.
    pub fn train_batch(
        &mut self,
        sample: &Sample,
        in_feats: &Matrix,
        labels: &[u32],
    ) -> (f32, f64) {
        let logits = self.forward(sample, in_feats);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        let acc = accuracy(&logits, labels);
        self.backward(&grad);
        (loss, acc)
    }

    /// Every trainable parameter (layer order, stable across calls),
    /// without collecting them anywhere: what the per-batch pull, push and
    /// optimizer step walk.
    pub fn params_iter_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        self.layers.iter_mut().flat_map(GnnLayer::params_iter_mut)
    }

    /// [`GnnModel::params_iter_mut`], collected.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.params_iter_mut().collect()
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_iter_mut() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::gen::chung_lu;
    use gnnlab_sampling::{KHop, Kernel, RandomWalk, SamplingAlgorithm, Selection};

    fn sample_for(kind: ModelKind) -> Sample {
        let g = chung_lu(200, 3000, 2.0, 1).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let algo: Box<dyn SamplingAlgorithm> = match kind {
            ModelKind::Gcn => Box::new(KHop::new(
                vec![5, 4, 3],
                Kernel::FisherYates,
                Selection::Uniform,
            )),
            ModelKind::GraphSage => Box::new(KHop::new(
                vec![5, 3],
                Kernel::FisherYates,
                Selection::Uniform,
            )),
            ModelKind::PinSage => Box::new(RandomWalk::new(3, 4, 3, 5)),
        };
        algo.sample(&g, &[1, 2, 3, 4, 5], &mut rng)
    }

    fn feats_for(sample: &Sample, dim: usize) -> Matrix {
        let n = sample.num_input_nodes();
        let data = (0..n * dim)
            .map(|i| ((i % 13) as f32 - 6.0) / 6.0)
            .collect();
        Matrix::from_vec(n, dim, data)
    }

    #[test]
    fn forward_shapes_for_all_models() {
        for kind in ModelKind::ALL {
            let sample = sample_for(kind);
            let mut model = GnnModel::new(ModelConfig {
                kind,
                in_dim: 8,
                hidden_dim: 16,
                num_classes: 4,
                seed: 7,
            });
            let feats = feats_for(&sample, 8);
            let logits = model.forward(&sample, &feats);
            assert_eq!(logits.rows(), 5, "{kind:?}");
            assert_eq!(logits.cols(), 4, "{kind:?}");
        }
    }

    #[test]
    fn train_batch_reduces_loss_over_steps() {
        for kind in ModelKind::ALL {
            let sample = sample_for(kind);
            let mut model = GnnModel::new(ModelConfig {
                kind,
                in_dim: 8,
                hidden_dim: 16,
                num_classes: 4,
                seed: 7,
            });
            let feats = feats_for(&sample, 8);
            let labels = [0u32, 1, 2, 3, 0];
            let (first_loss, _) = model.train_batch(&sample, &feats, &labels);
            // Plain SGD steps on the same batch must reduce the loss.
            for _ in 0..150 {
                for p in model.params_mut() {
                    let g = p.grad.clone();
                    let mut step = g;
                    step.scale(-0.3);
                    p.value.add_assign(&step);
                    p.zero_grad();
                }
                let _ = model.train_batch(&sample, &feats, &labels);
            }
            let logits = model.forward(&sample, &feats);
            let (final_loss, _) = softmax_cross_entropy(&logits, &labels);
            assert!(
                final_loss < first_loss * 0.8,
                "{kind:?}: {first_loss} -> {final_loss}"
            );
        }
    }

    #[test]
    fn param_counts_are_sane() {
        let mut gcn = GnnModel::new(ModelConfig {
            kind: ModelKind::Gcn,
            in_dim: 10,
            hidden_dim: 20,
            num_classes: 5,
            seed: 0,
        });
        // Layer dims: 10->20, 20->20, 20->5 plus biases.
        let expected = (10 * 20 + 20) + (20 * 20 + 20) + (20 * 5 + 5);
        let count: usize = gcn
            .params_iter_mut()
            .map(|p| p.value.rows() * p.value.cols())
            .sum();
        assert_eq!(count, expected);
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn wrong_block_count_panics() {
        let sample = sample_for(ModelKind::GraphSage); // 2 blocks
        let mut model = GnnModel::new(ModelConfig {
            kind: ModelKind::Gcn, // expects 3
            in_dim: 8,
            hidden_dim: 16,
            num_classes: 4,
            seed: 7,
        });
        let feats = feats_for(&sample, 8);
        let _ = model.forward(&sample, &feats);
    }
}
