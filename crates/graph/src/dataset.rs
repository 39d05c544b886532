//! Registry of the paper's datasets (Table 3) with scaled instantiation.

use crate::csr::{Csr, VertexId};
use crate::feature::FeatureStore;
use crate::gen;
use crate::scale::Scale;
use crate::trainset;
use crate::Result;

/// The four datasets of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// OGB-Products (PR): co-purchase network, moderate skew, small.
    Products,
    /// Twitter (TW): social graph, highly skewed power-law.
    Twitter,
    /// OGB-Papers (PA): citation network, low out-degree skew, tiny
    /// training-set fraction.
    Papers,
    /// UK-2006 (UK): web graph, skewed, the largest dataset.
    Uk,
    /// A user-supplied dataset (see [`Dataset::custom`]); not part of the
    /// paper's Table 3 and excluded from [`DatasetKind::ALL`].
    Custom,
}

impl DatasetKind {
    /// All four datasets in the paper's table order.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Products,
        DatasetKind::Twitter,
        DatasetKind::Papers,
        DatasetKind::Uk,
    ];

    /// The paper's two-letter abbreviation.
    pub fn abbrev(&self) -> &'static str {
        match self {
            DatasetKind::Products => "PR",
            DatasetKind::Twitter => "TW",
            DatasetKind::Papers => "PA",
            DatasetKind::Uk => "UK",
            DatasetKind::Custom => "CU",
        }
    }

    /// The paper-scale specification of this dataset.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            DatasetKind::Products => DatasetSpec {
                kind: *self,
                name: "OGB-Products",
                vertices: 2_400_000,
                edges: 124_000_000,
                feat_dim: 100,
                train_set: 197_000,
            },
            DatasetKind::Twitter => DatasetSpec {
                kind: *self,
                name: "Twitter",
                vertices: 41_700_000,
                edges: 1_500_000_000,
                feat_dim: 256,
                train_set: 417_000,
            },
            DatasetKind::Papers => DatasetSpec {
                kind: *self,
                name: "OGB-Papers",
                vertices: 111_000_000,
                edges: 1_600_000_000,
                feat_dim: 128,
                train_set: 1_200_000,
            },
            DatasetKind::Uk => DatasetSpec {
                kind: *self,
                name: "UK-2006",
                vertices: 77_700_000,
                edges: 3_000_000_000,
                feat_dim: 256,
                train_set: 1_000_000,
            },
            // Placeholder; `Dataset::custom` fills the spec from the
            // actual data instead.
            DatasetKind::Custom => DatasetSpec {
                kind: *self,
                name: "custom",
                vertices: 0,
                edges: 0,
                feat_dim: 0,
                train_set: 0,
            },
        }
    }
}

/// Paper-scale dataset statistics (Table 3).
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Which dataset this is.
    pub kind: DatasetKind,
    /// Human-readable name.
    pub name: &'static str,
    /// Paper-scale vertex count.
    pub vertices: u64,
    /// Paper-scale edge count.
    pub edges: u64,
    /// Feature dimension (not scaled).
    pub feat_dim: usize,
    /// Paper-scale training-set size.
    pub train_set: u64,
}

/// A dataset instantiated at some [`Scale`].
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Paper-scale specification.
    pub spec: DatasetSpec,
    /// The scale it was instantiated at.
    pub scale: Scale,
    /// Scaled topology.
    pub csr: Csr,
    /// Scaled features (virtual by default).
    pub features: FeatureStore,
    /// Scaled training set.
    pub train_set: Vec<VertexId>,
}

impl Dataset {
    /// Instantiates `kind` at `scale` with deterministic content.
    ///
    /// Topology generators per kind are chosen to reproduce the degree
    /// distribution *shape* the paper's results depend on (see
    /// [`crate::gen`]). Features are virtual (byte accounting only).
    pub fn generate(kind: DatasetKind, scale: Scale, seed: u64) -> Result<Dataset> {
        let spec = kind.spec();
        let n = scale.count(spec.vertices, 64);
        let m = scale.count(spec.edges, 256);
        let ts_size = scale.count(spec.train_set, 8);
        let csr = match kind {
            DatasetKind::Products => gen::chung_lu(n, m, 1.95, seed)?,
            DatasetKind::Twitter => gen::chung_lu(n, m, 1.75, seed ^ 0x5454)?,
            DatasetKind::Papers => gen::citation(n, m, seed ^ 0x5041)?,
            DatasetKind::Uk => gen::chung_lu(n, m, 1.85, seed ^ 0x554b)?,
            DatasetKind::Custom => {
                return Err(crate::GraphError::InvalidParameter(
                    "custom datasets are built with Dataset::custom, not generate",
                ))
            }
        };
        let train_set = match kind {
            // OGB official splits: Papers trains on the newest papers,
            // Products on the top-sales-rank products (the hubs); TW/UK
            // use a random fraction, as in the paper.
            DatasetKind::Papers => trainset::recent_train_set(n, ts_size),
            DatasetKind::Products => trainset::top_train_set(n, ts_size),
            _ => trainset::random_train_set(n, ts_size, seed ^ 0x7453),
        };
        let features = FeatureStore::virtual_store(n, spec.feat_dim);
        Ok(Dataset {
            spec,
            scale,
            csr,
            features,
            train_set,
        })
    }

    /// Wraps a user-supplied graph as a full-scale dataset, so the whole
    /// system (sampling, caching, simulation, training) runs on real data
    /// instead of the synthetic stand-ins. See `examples/custom_graph.rs`.
    pub fn custom(csr: Csr, features: FeatureStore, train_set: Vec<VertexId>) -> Dataset {
        assert_eq!(
            csr.num_vertices(),
            features.num_vertices(),
            "feature rows must match vertex count"
        );
        assert!(
            train_set.iter().all(|&v| (v as usize) < csr.num_vertices()),
            "training vertices out of range"
        );
        let spec = DatasetSpec {
            kind: DatasetKind::Custom,
            name: "custom",
            vertices: csr.num_vertices() as u64,
            edges: csr.num_edges() as u64,
            feat_dim: features.dim(),
            train_set: train_set.len() as u64,
        };
        Dataset {
            spec,
            scale: Scale::FULL,
            csr,
            features,
            train_set,
        }
    }

    /// Instantiates with recency edge weights attached (for weighted
    /// sampling experiments, §3 / §7.4).
    pub fn generate_weighted(kind: DatasetKind, scale: Scale, seed: u64) -> Result<Dataset> {
        Dataset::generate(kind, scale, seed)?.with_recency_weights(seed)
    }

    /// Attaches the recency edge weights [`Dataset::generate_weighted`]
    /// gives a dataset generated from `seed`, keeping the topology: the
    /// weights are a function of the CSR and the seed alone.
    pub fn with_recency_weights(mut self, seed: u64) -> Result<Dataset> {
        self.csr = gen::recency_weights(self.csr, seed ^ 0x5745)?;
        Ok(self)
    }

    /// Paper-scale topology bytes, modeling the GPU-resident CSR the paper
    /// uses (32-bit offsets + 32-bit neighbor ids). Table 3 of the paper
    /// computes `Vol_G` the same way.
    ///
    /// Weighted graphs add only a per-*vertex* year array: our edge
    /// weights are a function of the target vertex's registration year
    /// (§3), so a GPU sampler stores `4n` bytes of years and samples by
    /// rejection — per-edge weight/CDF tables would not fit 16 GB for
    /// UK-2006 at all.
    pub fn topo_bytes_paper(&self) -> u64 {
        let n = self.scale.up(self.csr.num_vertices() as f64);
        let m = self.scale.up(self.csr.num_edges() as f64);
        let per_vertex = if self.csr.is_weighted() { 8.0 } else { 4.0 };
        (per_vertex * n + 4.0 * m) as u64
    }

    /// Paper-scale feature bytes (`n * dim * 4`, scaled back up).
    pub fn feature_bytes_paper(&self) -> u64 {
        (self
            .scale
            .up(self.features.num_vertices() as f64 * self.features.row_bytes() as f64))
            as u64
    }

    /// Bytes of one feature row (unscaled; rows are real-size).
    pub fn row_bytes(&self) -> u64 {
        self.features.row_bytes()
    }

    /// Overrides the feature store with a new dimension (virtual), used by
    /// the feature-dimension sweeps (Fig. 4b / Fig. 11c).
    pub fn with_feat_dim(mut self, dim: usize) -> Dataset {
        self.features = FeatureStore::virtual_store(self.csr.num_vertices(), dim);
        self
    }

    /// The paper's mini-batch size (8000) at this dataset's scale, with a
    /// floor of 32 seeds.
    ///
    /// The floor matters for fidelity: in-batch feature deduplication (the
    /// quantity behind every Extract-stage result) requires multiple seeds
    /// sharing hub vertices. A one-seed batch would destroy the dedup the
    /// paper's 8000-seed batches get. Batch *counts* therefore shrink at
    /// extreme scales; the trace layer compensates per-batch kernel-launch
    /// accounting with [`Dataset::paper_batches`].
    pub fn batch_size(&self) -> usize {
        let scaled = self.scale.count(8000, 1);
        // Floor for dedup fidelity, but never fewer than ~24 batches per
        // epoch (trainer parallelism needs batch-count granularity).
        let floor = 8.min(self.train_set.len() / 24).max(1);
        scaled.max(floor)
    }

    /// The paper-scale number of mini-batches per epoch
    /// (`ceil(train_set / 8000)`).
    pub fn paper_batches(&self) -> usize {
        (self.spec.train_set as usize).div_ceil(8000)
    }

    /// Number of mini-batches per epoch at this scale.
    pub fn batches_per_epoch(&self) -> usize {
        self.train_set.len().div_ceil(self.batch_size().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table3() {
        let pa = DatasetKind::Papers.spec();
        assert_eq!(pa.vertices, 111_000_000);
        assert_eq!(pa.feat_dim, 128);
        assert!((pa.train_set as f64 / pa.vertices as f64 - 0.0108).abs() < 0.001);
        // Paper: PA features = 53 GB; ours computes 56.8 GB (f32 x 128).
        let gb = (pa.vertices * pa.feat_dim as u64 * 4) as f64 / 1e9;
        assert!(gb > 50.0 && gb < 60.0);
    }

    #[test]
    fn generate_scales_down() {
        let d = Dataset::generate(DatasetKind::Products, Scale::new(1000), 1).unwrap();
        assert_eq!(d.csr.num_vertices(), 2400);
        assert!(d.train_set.len() >= 190 && d.train_set.len() <= 200);
        assert_eq!(d.features.dim(), 100);
        assert_eq!(d.batch_size(), 8);
    }

    #[test]
    fn batch_count_preserved_at_moderate_scale() {
        let a = Dataset::generate(DatasetKind::Products, Scale::new(100), 1).unwrap();
        // Paper-scale: 197k / 8000 = 25 batches; batch 80 > the 32 floor.
        assert_eq!(a.paper_batches(), 25);
        assert_eq!(a.batches_per_epoch(), 25);
        // At extreme scale the 8-seed floor kicks in and batch count drops
        // below the paper's (Papers: 150 paper batches).
        let b = Dataset::generate(DatasetKind::Papers, Scale::new(4000), 1).unwrap();
        assert_eq!(b.batch_size(), 8);
        assert_eq!(b.paper_batches(), 150);
        assert!(b.batches_per_epoch() < b.paper_batches());
    }

    #[test]
    fn twitter_is_more_skewed_than_papers() {
        let s = Scale::new(4096);
        let tw = Dataset::generate(DatasetKind::Twitter, s, 1).unwrap();
        let pa = Dataset::generate(DatasetKind::Papers, s, 1).unwrap();
        let (tw_mean, _, tw_max) = tw.csr.degree_summary();
        let (pa_mean, _, pa_max) = pa.csr.degree_summary();
        let tw_skew = tw_max as f64 / tw_mean;
        let pa_skew = pa_max as f64 / pa_mean;
        assert!(
            tw_skew > 5.0 * pa_skew,
            "tw skew {tw_skew:.1} vs pa skew {pa_skew:.1}"
        );
    }

    #[test]
    fn weighted_variant_has_weights() {
        let d = Dataset::generate_weighted(DatasetKind::Twitter, Scale::new(4096), 1).unwrap();
        assert!(d.csr.is_weighted());
    }

    #[test]
    fn paper_scale_bytes_are_close_to_table3() {
        let d = Dataset::generate(DatasetKind::Papers, Scale::new(2048), 1).unwrap();
        let topo_gb = d.topo_bytes_paper() as f64 / 1e9;
        // Paper: 6.4 GB (4-byte ids + 4-byte offsets).
        assert!(topo_gb > 5.0 && topo_gb < 8.0, "topo {topo_gb:.1} GB");
        let feat_gb = d.feature_bytes_paper() as f64 / 1e9;
        assert!(feat_gb > 48.0 && feat_gb < 62.0, "feat {feat_gb:.1} GB");
    }
}
