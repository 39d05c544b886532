//! Graph sampling algorithms — the Sample stage of the SET model.
//!
//! Implements the paper's built-in algorithms (§7: "the built-in graph
//! sampling algorithms include k-hop random/weighted neighborhood sampling
//! and random walks"):
//!
//! - [`KHop`]: k-hop neighborhood sampling with two uniform-selection
//!   kernels — [`Kernel::FisherYates`] (the GPU-friendly variant GNNLab and
//!   T_SOTA use) and [`Kernel::Reservoir`] (what DGL uses; §7.3 explains
//!   why it is slower) — and weighted selection by binary search over
//!   per-vertex cumulative edge weights.
//! - [`RandomWalk`]: PinSAGE-style neighbor selection via repeated random
//!   walks, keeping the most-visited vertices.
//!
//! Every sampler produces a [`Sample`]: per-layer message-flow blocks with
//! deduplicated, consecutively remapped local ids (paper §2, Fig. 1), plus
//! exact work counters ([`SampleWork`]) that the cost model converts into
//! simulated GPU/CPU time.

pub mod alias;
pub mod footprint;
pub mod khop;
pub mod minibatch;
pub mod randomwalk;
pub mod sample;
pub mod subgraph;

pub use alias::AliasTable;
pub use footprint::{
    footprint_similarity, presample_epoch, presample_epochs, presample_rng, FootprintRecorder,
    PresampleOutput,
};
pub use khop::{KHop, Kernel, Selection};
pub use minibatch::MinibatchIter;
pub use randomwalk::RandomWalk;
pub use sample::{LayerBlock, ProbeSet, RemapTable, Sample, SampleBuffers, SampleWork};
pub use subgraph::{ClusterGcn, GraphSaintNode};

use gnnlab_graph::{Csr, VertexId};
use rand_chacha::ChaCha8Rng;

/// A sampling algorithm producing per-mini-batch [`Sample`]s.
///
/// Implementations must be deterministic given the RNG state and must not
/// retain references into the graph.
pub trait SamplingAlgorithm: Send + Sync {
    /// Samples the neighborhood of `seeds` into a caller-owned [`Sample`]
    /// (replacing its contents), with caller-owned scratch buffers. This
    /// is the one method a sampler implements: a loop that recycles both
    /// (PreSC pre-sampling, the held-out evaluation) reuses their
    /// capacity, and the allocating forms below cannot diverge from it.
    fn sample_into(
        &self,
        csr: &Csr,
        seeds: &[VertexId],
        rng: &mut ChaCha8Rng,
        bufs: &mut SampleBuffers,
        out: &mut Sample,
    );

    /// [`SamplingAlgorithm::sample_into`] a fresh [`Sample`].
    fn sample_with(
        &self,
        csr: &Csr,
        seeds: &[VertexId],
        rng: &mut ChaCha8Rng,
        bufs: &mut SampleBuffers,
    ) -> Sample {
        let mut out = Sample::default();
        self.sample_into(csr, seeds, rng, bufs, &mut out);
        out
    }

    /// [`SamplingAlgorithm::sample_with`] fresh scratch buffers.
    fn sample(&self, csr: &Csr, seeds: &[VertexId], rng: &mut ChaCha8Rng) -> Sample {
        self.sample_with(csr, seeds, rng, &mut SampleBuffers::new())
    }

    /// Number of GNN layers the produced samples feed (= number of blocks).
    fn num_layers(&self) -> usize;

    /// Short human-readable name.
    fn name(&self) -> &'static str;
}

/// The sampling configurations used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// 3-hop random neighborhood sampling, fanouts [15, 10, 5] (GCN).
    Khop3Random,
    /// 2-hop random neighborhood sampling, fanouts [25, 10] (GraphSAGE).
    Khop2Random,
    /// Random walks: 3 layers, 4 walks of length 3, keep top-5 (PinSAGE).
    RandomWalks,
    /// 3-hop weighted neighborhood sampling, fanouts [15, 10, 5] (§7.4).
    Khop3Weighted,
}

impl AlgorithmKind {
    /// The three algorithms of Table 2 / Fig. 10.
    pub const TABLE2: [AlgorithmKind; 3] = [
        AlgorithmKind::Khop3Random,
        AlgorithmKind::RandomWalks,
        AlgorithmKind::Khop3Weighted,
    ];

    /// Instantiates the algorithm with the paper's parameters and the
    /// GNNLab kernel (Fisher–Yates).
    pub fn build(&self) -> Box<dyn SamplingAlgorithm> {
        match self {
            AlgorithmKind::Khop3Random => Box::new(KHop::new(
                vec![15, 10, 5],
                Kernel::FisherYates,
                Selection::Uniform,
            )),
            AlgorithmKind::Khop2Random => Box::new(KHop::new(
                vec![25, 10],
                Kernel::FisherYates,
                Selection::Uniform,
            )),
            AlgorithmKind::RandomWalks => Box::new(RandomWalk::pinsage()),
            AlgorithmKind::Khop3Weighted => Box::new(KHop::new(
                vec![15, 10, 5],
                Kernel::FisherYates,
                Selection::Weighted,
            )),
        }
    }

    /// Whether this algorithm requires edge weights on the graph.
    pub fn needs_weights(&self) -> bool {
        matches!(self, AlgorithmKind::Khop3Weighted)
    }

    /// Display name matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::Khop3Random => "3-hop random",
            AlgorithmKind::Khop2Random => "2-hop random",
            AlgorithmKind::RandomWalks => "Random walks",
            AlgorithmKind::Khop3Weighted => "3-hop weighted",
        }
    }
}
