//! Subgraph-based sampling (§8 "Other sampling algorithms").
//!
//! The paper notes that subgraph samplers (ClusterGCN, GraphSAINT) are
//! lighter-weight than neighborhood sampling — making dynamic switching
//! *more* useful — but may not exhibit the epoch-to-epoch footprint
//! similarity PreSC relies on (ClusterGCN "samples all training vertices
//! uniformly once in each epoch"). ClusterGCN is implemented here so the
//! ablation harness can regenerate that discussion.
//!
//! A subgraph sample trains all `L` layers on the *same* induced
//! subgraph, so every [`LayerBlock`] shares one vertex set (dst == src).

use crate::sample::{LayerBlock, Sample, SampleBuffers, SampleWork};
use crate::SamplingAlgorithm;
use gnnlab_graph::{Csr, VertexId};
use rand_chacha::ChaCha8Rng;

/// Builds the `layers` identical blocks of an induced-subgraph sample.
fn induced_sample(csr: &Csr, seeds: &[VertexId], extra: Vec<VertexId>, layers: usize) -> Sample {
    let mut work = SampleWork::default();
    // Seeds come first (they are the supervised outputs and every block's
    // dst prefix must be the seeds); then the other subgraph members.
    let seed_set: std::collections::HashSet<VertexId> = seeds.iter().copied().collect();
    let mut nodes: Vec<VertexId> = seeds.to_vec();
    nodes.extend(extra.into_iter().filter(|v| !seed_set.contains(v)));
    // Local ids follow `nodes` order; the induced edge set keeps every
    // graph edge between member vertices, plus self-connections.
    let mut local: std::collections::HashMap<VertexId, u32> =
        std::collections::HashMap::with_capacity(nodes.len());
    for (i, &v) in nodes.iter().enumerate() {
        local.insert(v, i as u32);
    }
    let mut edges: Vec<(u32, u32)> = (0..nodes.len() as u32).map(|i| (i, i)).collect();
    for (dst_local, &v) in nodes.iter().enumerate() {
        work.edges_scanned += csr.out_degree(v) as u64;
        for &nbr in csr.neighbors(v) {
            if let Some(&src_local) = local.get(&nbr) {
                edges.push((src_local, dst_local as u32));
            }
        }
    }
    work.sampled_vertices += nodes.len() as u64;
    work.kernel_launches += 1;
    let block = LayerBlock {
        dst_count: nodes.len(),
        src_globals: nodes.clone(),
        edges,
    };
    Sample {
        seeds: seeds.to_vec(),
        blocks: vec![block; layers],
        visit_list: nodes,
        work,
        cache_mask: None,
    }
}

/// ClusterGCN-style sampling: the graph is pre-partitioned into clusters
/// by contiguous vertex-id ranges (a locality-preserving stand-in for
/// METIS); each mini-batch trains on the induced subgraph of the cluster
/// containing the first seed.
///
/// Every training vertex is visited exactly once per epoch, so the
/// footprint has *no* skew for PreSC to exploit — the §8 caveat.
#[derive(Debug, Clone)]
pub struct ClusterGcn {
    num_clusters: usize,
    layers: usize,
}

impl ClusterGcn {
    /// Creates a ClusterGCN sampler with `num_clusters` id-range clusters
    /// feeding `layers` GNN layers.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(num_clusters: usize, layers: usize) -> Self {
        assert!(
            num_clusters > 0 && layers > 0,
            "parameters must be positive"
        );
        ClusterGcn {
            num_clusters,
            layers,
        }
    }

    /// The members of vertex `v`'s cluster (an id range) in a graph of `n`
    /// vertices.
    fn cluster(&self, v: VertexId, n: usize) -> Vec<VertexId> {
        let width = n.div_ceil(self.num_clusters);
        let lo = (v as usize) / width * width;
        (lo as VertexId..(lo + width).min(n) as VertexId).collect()
    }
}

impl SamplingAlgorithm for ClusterGcn {
    fn sample_into(
        &self,
        csr: &Csr,
        seeds: &[VertexId],
        _rng: &mut ChaCha8Rng,
        _bufs: &mut SampleBuffers,
        out: &mut Sample,
    ) {
        let first = *seeds.first().expect("non-empty batch");
        let cluster = self.cluster(first, csr.num_vertices());
        *out = induced_sample(csr, seeds, cluster, self.layers);
    }

    fn num_layers(&self) -> usize {
        self.layers
    }

    fn name(&self) -> &'static str {
        "cluster-gcn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::FootprintRecorder;
    use crate::minibatch::MinibatchIter;
    use gnnlab_graph::gen::chung_lu;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(3)
    }

    #[test]
    fn cluster_sample_contains_whole_cluster() {
        let g = chung_lu(100, 1000, 2.0, 1).unwrap();
        let algo = ClusterGcn::new(4, 2);
        let s = algo.sample(&g, &[30], &mut rng());
        s.validate().unwrap();
        // Vertex 30 lives in cluster [25, 50); the seed is listed first.
        assert_eq!(s.num_input_nodes(), 25);
        assert_eq!(s.input_nodes()[0], 30);
        assert!(s.input_nodes().iter().all(|&v| (25..50).contains(&v)));
        assert_eq!(s.blocks.len(), 2);
    }

    #[test]
    fn induced_edges_are_real_graph_edges() {
        let g = chung_lu(80, 800, 2.0, 2).unwrap();
        let algo = ClusterGcn::new(3, 2);
        let s = algo.sample(&g, &[1, 2, 3], &mut rng());
        s.validate().unwrap();
        let b = &s.blocks[0];
        for &(src, dst) in &b.edges {
            if src == dst {
                continue;
            }
            let s_g = b.src_globals[src as usize];
            let d_g = b.src_globals[dst as usize];
            assert!(g.neighbors(d_g).contains(&s_g), "{s_g}->{d_g}");
        }
    }

    #[test]
    fn cluster_footprint_is_uniform_across_epoch() {
        // The §8 caveat: ClusterGCN visits every vertex the same number of
        // times per epoch — no hotness for PreSC to find.
        let g = chung_lu(120, 1200, 2.0, 5).unwrap();
        let algo = ClusterGcn::new(6, 2);
        let ts: Vec<VertexId> = (0..120).collect();
        let mut rec = FootprintRecorder::new(120);
        let mut r = rng();
        // One seed per cluster per batch: iterate cluster representatives.
        for batch in MinibatchIter::new(&ts, 20, 0, 0) {
            let s = algo.sample(&g, &batch, &mut r);
            rec.record_sample(&s);
        }
        // Every vertex visited at least once; spread is bounded (a vertex
        // is visited once per batch whose cluster contains it).
        // Whichever clusters were touched, their members were visited a
        // uniform-ish number of times — no hotness for PreSC to exploit.
        let visited: Vec<u64> = rec.counts().iter().copied().filter(|&c| c > 0).collect();
        assert!(
            visited.len() >= 40,
            "too little coverage: {}",
            visited.len()
        );
        let max = *visited.iter().max().unwrap();
        let min = *visited.iter().min().unwrap();
        assert!(max <= min * 8, "cluster footprint too skewed: {min}..{max}");
    }

    #[test]
    fn subgraph_sampling_is_lightweight() {
        // §8: subgraph algorithms are "more lightweight" than 3-hop
        // neighborhood sampling — fewer RNG draws for a similar batch.
        let g = chung_lu(500, 10_000, 2.0, 6).unwrap();
        let khop = crate::KHop::new(
            vec![15, 10, 5],
            crate::Kernel::FisherYates,
            crate::Selection::Uniform,
        );
        let cluster = ClusterGcn::new(8, 3);
        let seeds: Vec<VertexId> = (0..16).collect();
        let k = khop.sample(&g, &seeds, &mut rng());
        let s = cluster.sample(&g, &seeds, &mut rng());
        assert!(
            s.work.rng_draws * 10 < k.work.rng_draws.max(1) * 10 + k.work.rng_draws,
            "cluster draws {} vs khop draws {}",
            s.work.rng_draws,
            k.work.rng_draws
        );
        assert!(s.work.rng_draws < k.work.rng_draws);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clusters_panic() {
        let _ = ClusterGcn::new(0, 2);
    }
}
