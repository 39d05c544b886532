//! Workload definitions: (model, dataset, sampling algorithm) triples.

use gnnlab_graph::{Dataset, DatasetKind, Scale};
use gnnlab_sampling::{AlgorithmKind, Kernel, SamplingAlgorithm};
use gnnlab_tensor::ModelKind;

/// One GNN training workload with the paper's hyper-parameters (§7.1):
/// mini-batch size 8000, hidden dim 256, model-specific fan-outs.
#[derive(Clone)]
pub struct Workload {
    /// The GNN model.
    pub model: ModelKind,
    /// The instantiated dataset.
    pub dataset: Dataset,
    /// The sampling algorithm (defaults to the model's; §7.4 swaps in
    /// weighted sampling).
    pub algorithm: AlgorithmKind,
    /// Hidden dimension for FLOP estimation (paper: 256).
    pub hidden_dim: usize,
    /// Output classes for FLOP estimation.
    pub num_classes: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Workload {
    /// The sampling algorithm each model uses in the paper.
    pub fn default_algorithm(model: ModelKind) -> AlgorithmKind {
        match model {
            ModelKind::Gcn => AlgorithmKind::Khop3Random,
            ModelKind::GraphSage => AlgorithmKind::Khop2Random,
            ModelKind::PinSage => AlgorithmKind::RandomWalks,
        }
    }

    /// Output classes of the real datasets (47 for OGB-Products, 172 for
    /// OGB-Papers) and 64 for the feature-less TW/UK graphs, matching the
    /// paper's random-label practice.
    pub fn default_classes(kind: DatasetKind) -> usize {
        match kind {
            DatasetKind::Products => 47,
            DatasetKind::Papers => 172,
            _ => 64,
        }
    }

    /// Builds the standard workload for `model` on `kind` at `scale`:
    /// the generated dataset, the model's default algorithm and
    /// [`Workload::default_classes`].
    pub fn new(model: ModelKind, kind: DatasetKind, scale: Scale, seed: u64) -> Self {
        let dataset = gnnlab_par::invariant!(
            Dataset::generate(kind, scale, seed),
            "enum-typed dataset parameters always generate"
        );
        Self::with_dataset(model, dataset, Self::default_classes(kind), seed)
    }

    /// Builds a workload over an already instantiated [`Dataset`] — a
    /// user-supplied one (see [`Dataset::custom`]) or a clone of a
    /// generated one that several workloads share — with explicit
    /// hyper-parameters.
    pub fn with_dataset(model: ModelKind, dataset: Dataset, num_classes: usize, seed: u64) -> Self {
        Workload {
            model,
            algorithm: Self::default_algorithm(model),
            dataset,
            hidden_dim: 256,
            num_classes,
            seed,
        }
    }

    /// Replaces the sampling algorithm — used by the §7.4 weighted-sampling
    /// runs. An algorithm that needs edge weights gets the recency weights
    /// of [`Dataset::generate_weighted`] attached to the topology this
    /// workload already holds (nothing is regenerated); a dataset that is
    /// already weighted is left alone.
    pub fn with_algorithm(mut self, algorithm: AlgorithmKind) -> Self {
        if algorithm.needs_weights() && !self.dataset.csr.is_weighted() {
            self.dataset = gnnlab_par::invariant!(
                self.dataset.with_recency_weights(self.seed),
                "recency weights are finite and one per edge"
            );
        }
        self.algorithm = algorithm;
        self
    }

    /// Instantiates the sampler with the given uniform-selection kernel
    /// (Fisher–Yates for GNNLab/T_SOTA, Reservoir for DGL; §7.3).
    pub fn sampler(&self, kernel: Kernel) -> Box<dyn SamplingAlgorithm> {
        self.algorithm.sampler(kernel)
    }

    /// Mini-batch size at this workload's scale.
    pub fn batch_size(&self) -> usize {
        self.dataset.batch_size()
    }

    /// Short label, e.g. `GCN/PA`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}",
            self.model.abbrev(),
            self.dataset.spec.kind.abbrev()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_algorithm_mapping() {
        assert_eq!(
            Workload::default_algorithm(ModelKind::Gcn),
            AlgorithmKind::Khop3Random
        );
        assert_eq!(
            Workload::default_algorithm(ModelKind::GraphSage),
            AlgorithmKind::Khop2Random
        );
        assert_eq!(
            Workload::default_algorithm(ModelKind::PinSage),
            AlgorithmKind::RandomWalks
        );
    }

    #[test]
    fn builds_with_paper_hyperparameters() {
        let w = Workload::new(ModelKind::Gcn, DatasetKind::Products, Scale::TEST, 1);
        assert_eq!(w.hidden_dim, 256);
        assert_eq!(w.num_classes, 47);
        assert_eq!(w.label(), "GCN/PR");
        assert!(!w.dataset.csr.is_weighted());
    }

    fn weight_bits(d: &Dataset) -> Vec<Option<Vec<u32>>> {
        (0..d.csr.num_vertices() as u32)
            .map(|v| {
                d.csr
                    .edge_weights(v)
                    .map(|ws| ws.iter().map(|w| w.to_bits()).collect())
            })
            .collect()
    }

    fn rows(d: &Dataset) -> Vec<&[u32]> {
        (0..d.csr.num_vertices() as u32)
            .map(|v| d.csr.neighbors(v))
            .collect()
    }

    #[test]
    fn weighted_algorithm_attaches_the_generated_weights() {
        let scale = Scale::new(8192);
        for kind in DatasetKind::ALL {
            let w = Workload::new(ModelKind::Gcn, kind, scale, 7)
                .with_algorithm(AlgorithmKind::Khop3Weighted);
            assert_eq!(w.algorithm, AlgorithmKind::Khop3Weighted);
            let want = Dataset::generate_weighted(kind, scale, 7).unwrap();
            assert!(w.dataset.csr.is_weighted());
            assert_eq!(rows(&w.dataset), rows(&want), "{kind:?}");
            assert_eq!(weight_bits(&w.dataset), weight_bits(&want), "{kind:?}");
            assert_eq!(w.dataset.train_set, want.train_set, "{kind:?}");
        }
    }

    #[test]
    fn weighted_algorithm_leaves_a_weighted_dataset_alone() {
        // Seed 1's topology under seed 99's weights: were they re-derived
        // from the workload's seed, they would change.
        let theirs = Dataset::generate(DatasetKind::Twitter, Scale::TEST, 1)
            .and_then(|d| d.with_recency_weights(99))
            .unwrap();
        let before = weight_bits(&theirs);
        let w = Workload::with_dataset(ModelKind::Gcn, theirs, 64, 1)
            .with_algorithm(AlgorithmKind::Khop3Weighted);
        assert_eq!(weight_bits(&w.dataset), before);
        let ours = Dataset::generate_weighted(DatasetKind::Twitter, Scale::TEST, 1).unwrap();
        assert_ne!(weight_bits(&ours), before);
    }

    #[test]
    fn unweighted_algorithm_attaches_nothing() {
        let w = Workload::new(ModelKind::Gcn, DatasetKind::Twitter, Scale::TEST, 1)
            .with_algorithm(AlgorithmKind::RandomWalks);
        assert!(!w.dataset.csr.is_weighted());
        assert_eq!(w.algorithm, AlgorithmKind::RandomWalks);
    }

    #[test]
    fn sampler_respects_kernel_choice() {
        let w = Workload::new(ModelKind::Gcn, DatasetKind::Products, Scale::TEST, 1);
        // Smoke: both kernels produce valid samplers.
        let fy = w.sampler(Kernel::FisherYates);
        let rs = w.sampler(Kernel::Reservoir);
        assert_eq!(fy.num_layers(), 3);
        assert_eq!(rs.num_layers(), 3);
    }
}
