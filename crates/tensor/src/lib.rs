//! A small dense tensor + GNN substrate — the Train stage.
//!
//! The paper delegates the Train stage to DGL/PyTorch; we build the
//! minimum real equivalent so that Trainers actually train:
//!
//! - [`matrix`]: row-major `f32` matrices with the needed ops.
//! - [`layers`]: `GraphConv` (GCN), `SageConv` (GraphSAGE) and
//!   `PinSageConv` (PinSAGE) over sampled message-flow blocks, with manual
//!   forward/backward.
//! - [`model`]: the three stacked models of §7.1 with hidden dim 256
//!   (configurable; scaled-down runs use smaller hiddens).
//! - [`optim`]: Adam behind the [`Optimizer`] trait.
//! - [`loss`]: softmax cross-entropy and classification accuracy.
//! - [`flops`]: per-model FLOP estimates from sample shapes — the Train
//!   input to the cost model.
//!
//! Everything is CPU-executed; the *simulated* time of the Train stage
//! comes from the cost model, while the numerics here establish
//! correctness (the Fig. 16 convergence experiment really trains).

pub mod flops;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod model;
pub mod optim;

pub use matrix::{kernel_lanes, Matrix};
pub use model::{GnnModel, ModelConfig, ModelKind};
pub use optim::{Adam, AdamState, Optimizer};
