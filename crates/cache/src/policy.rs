//! The caching policies evaluated in the paper.

use gnnlab_graph::{Csr, VertexId};
use gnnlab_par::ThreadPool;
use gnnlab_sampling::{
    presample_epoch, FootprintRecorder, MinibatchIter, SampleWork, SamplingAlgorithm,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Which hotness metric to use (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Random ranks — the floor baseline.
    Random,
    /// Vertex out-degree — PaGraph's policy.
    Degree,
    /// Pre-sampling over `k` epochs — GNNLab's PreSC#K.
    PreSC {
        /// Number of pre-sampling epochs (the paper finds K ≤ 2 suffices).
        k: u32,
    },
    /// Oracle: the measured visit counts of `epochs` actual epochs. Defines
    /// the upper bound on cache hit rate for a fixed ratio (§3 footnote 4).
    Optimal {
        /// Number of recorded epochs the oracle sees.
        epochs: u32,
    },
}

impl PolicyKind {
    /// Display name used in tables/figures.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Random => "Random".to_string(),
            PolicyKind::Degree => "Degree".to_string(),
            PolicyKind::PreSC { k } => format!("PreSC#{k}"),
            PolicyKind::Optimal { .. } => "Optimal".to_string(),
        }
    }
}

/// The hotness map a policy computed, plus its preprocessing cost.
#[derive(Debug, Clone)]
pub struct PolicyOutput {
    /// Per-vertex hotness values; feed to [`crate::load_cache`].
    pub hotness: Vec<f64>,
    /// Sampling work spent on pre-sampling (zero for Random/Degree);
    /// converted to time by the cost model for Table 6's P3 row.
    pub presample_work: SampleWork,
    /// Number of sampling epochs executed during preprocessing.
    pub presample_epochs: u32,
}

/// Computes hotness maps for the paper's policies.
///
/// `Random` and `Degree` need only the graph; `PreSC` and `Optimal` run
/// real sampling epochs over `train_set` with `algo` (batch shuffling is
/// deterministic in `seed` + epoch index, matching what the training run
/// itself would sample).
pub struct CachePolicy;

impl CachePolicy {
    /// Computes the hotness map for `kind`, pre-sampling on the host-wide
    /// [`gnnlab_par::host_pool`]. The threaded runtime pre-samples on a
    /// pool of its own instead (`sampling::presample_epoch`).
    pub fn hotness(
        kind: PolicyKind,
        csr: &Csr,
        train_set: &[VertexId],
        algo: &dyn SamplingAlgorithm,
        batch_size: usize,
        seed: u64,
    ) -> PolicyOutput {
        Self::hotness_with_pool(
            kind,
            csr,
            train_set,
            algo,
            batch_size,
            seed,
            gnnlab_par::host_pool(),
        )
    }

    /// [`CachePolicy::hotness`] with an explicit pre-sampling pool. The
    /// hotness map is bit-identical at every pool size: each pre-sampling
    /// batch draws from its own `(seed, epoch, batch)` ChaCha stream and
    /// per-vertex visit counts merge as integer sums.
    pub fn hotness_with_pool(
        kind: PolicyKind,
        csr: &Csr,
        train_set: &[VertexId],
        algo: &dyn SamplingAlgorithm,
        batch_size: usize,
        seed: u64,
        pool: &ThreadPool,
    ) -> PolicyOutput {
        match kind {
            PolicyKind::Random => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x52414e44);
                let hotness = (0..csr.num_vertices()).map(|_| rng.gen::<f64>()).collect();
                PolicyOutput {
                    hotness,
                    presample_work: SampleWork::default(),
                    presample_epochs: 0,
                }
            }
            PolicyKind::Degree => PolicyOutput {
                hotness: csr.out_degrees().iter().map(|&d| f64::from(d)).collect(),
                presample_work: SampleWork::default(),
                presample_epochs: 0,
            },
            // PreSC pre-samples the run's first `k` epochs. The oracle
            // sees the *actual* epochs of the measured run: training epochs
            // start at index 0 with the same seed and the same per-batch
            // RNG streams, so recording epochs 0..epochs reproduces the
            // run's footprint exactly.
            PolicyKind::PreSC { k: count } | PolicyKind::Optimal { epochs: count } => {
                let mut visits = FootprintRecorder::new(csr.num_vertices());
                let mut presample_work = SampleWork::default();
                let mut order = Vec::new();
                for epoch in 0..u64::from(count) {
                    MinibatchIter::shuffle_into(train_set, seed, epoch, &mut order);
                    let pass = presample_epoch(
                        csr,
                        &order,
                        algo,
                        batch_size,
                        seed,
                        epoch,
                        true,
                        pool,
                        |_, _| None::<()>,
                    );
                    visits.merge(&pass.recorder);
                    presample_work.add(&pass.work);
                }
                PolicyOutput {
                    hotness: visits.hotness(),
                    presample_work,
                    presample_epochs: count,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::load_cache;
    use gnnlab_graph::gen::{chung_lu, citation};
    use gnnlab_sampling::{presample_rng, KHop, Kernel, Selection};

    fn khop() -> KHop {
        KHop::new(vec![5, 5], Kernel::FisherYates, Selection::Uniform)
    }

    #[test]
    fn degree_hotness_matches_out_degrees() {
        let g = chung_lu(200, 2000, 2.0, 1).unwrap();
        let out = CachePolicy::hotness(PolicyKind::Degree, &g, &[], &khop(), 8, 0);
        assert_eq!(out.hotness.len(), 200);
        assert_eq!(out.presample_epochs, 0);
        for v in 0..200u32 {
            assert_eq!(out.hotness[v as usize], g.out_degree(v) as f64);
        }
    }

    #[test]
    fn random_hotness_is_deterministic_in_seed() {
        let g = chung_lu(100, 500, 2.0, 1).unwrap();
        let a = CachePolicy::hotness(PolicyKind::Random, &g, &[], &khop(), 8, 3);
        let b = CachePolicy::hotness(PolicyKind::Random, &g, &[], &khop(), 8, 3);
        let c = CachePolicy::hotness(PolicyKind::Random, &g, &[], &khop(), 8, 4);
        assert_eq!(a.hotness, b.hotness);
        assert_ne!(a.hotness, c.hotness);
    }

    #[test]
    fn presc_records_presampling_work() {
        let g = chung_lu(300, 6000, 2.0, 2).unwrap();
        let ts: Vec<VertexId> = (0..40).collect();
        let out = CachePolicy::hotness(PolicyKind::PreSC { k: 2 }, &g, &ts, &khop(), 8, 5);
        assert_eq!(out.presample_epochs, 2);
        assert!(out.presample_work.sampled_vertices > 0);
        // Hotness concentrates on vertices actually reachable from the
        // training set.
        assert!(out.hotness.iter().any(|&h| h > 0.0));
    }

    #[test]
    fn presc_beats_degree_on_citation_graph() {
        // The headline §6 claim, miniaturized: on a low-skew citation graph
        // with a small training set, PreSC's cache hits more than Degree's.
        let g = citation(2000, 40000, 9).unwrap();
        let ts: Vec<VertexId> = (1900..2000).collect();
        let algo = khop();
        let alpha = 0.1;

        let presc = CachePolicy::hotness(PolicyKind::PreSC { k: 1 }, &g, &ts, &algo, 10, 1);
        let degree = CachePolicy::hotness(PolicyKind::Degree, &g, &ts, &algo, 10, 1);
        let t_presc = load_cache(&presc.hotness, alpha, 2000);
        let t_degree = load_cache(&degree.hotness, alpha, 2000);

        // Measure hits over a later epoch (epoch 3, unseen by PreSC).
        let mut hits_presc = 0usize;
        let mut hits_degree = 0usize;
        let mut total = 0usize;
        for (bi, batch) in MinibatchIter::new(&ts, 10, 1, 3).enumerate() {
            // Same per-batch stream the training run itself would use for
            // epoch 3, so the measured hits match a real later epoch.
            let mut rng = presample_rng(1, 3, bi as u64);
            let s = algo.sample(&g, &batch, &mut rng);
            for &v in s.input_nodes() {
                total += 1;
                if t_presc.contains(v) {
                    hits_presc += 1;
                }
                if t_degree.contains(v) {
                    hits_degree += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            hits_presc as f64 > 1.2 * hits_degree as f64,
            "presc {hits_presc} vs degree {hits_degree} of {total}"
        );
    }

    #[test]
    fn optimal_is_at_least_presc_on_same_epochs() {
        let g = citation(1000, 20000, 3).unwrap();
        let ts: Vec<VertexId> = (900..1000).collect();
        let algo = khop();
        let opt = CachePolicy::hotness(PolicyKind::Optimal { epochs: 3 }, &g, &ts, &algo, 10, 2);
        assert_eq!(opt.presample_epochs, 3);
        assert!(opt.hotness.iter().sum::<f64>() > 0.0);
    }
}
