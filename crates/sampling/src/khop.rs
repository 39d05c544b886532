//! K-hop neighborhood sampling with Fisher–Yates and Reservoir kernels.

use crate::sample::{ProbeSet, Sample, SampleBuffers, SampleWork};
use crate::SamplingAlgorithm;
use gnnlab_graph::{Csr, VertexId};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Largest fan-out for which the Fisher–Yates duplicate probe stays a
/// linear scan. Below this a `Vec` scan beats hashing (tiny, cache-hot);
/// above it the O(k²) scan loses to the O(k) hashed [`ProbeSet`]. The
/// draw sequence is identical either way: exactly one `gen_range` per
/// selected index, regardless of the probe structure.
const FLOYD_LINEAR_MAX: usize = 16;

/// Uniform neighbor-selection kernel variant (§7.3).
///
/// Both kernels produce a uniform sample of `k` distinct neighbors, but at
/// different device cost: Reservoir (DGL) draws one random number per
/// *neighbor*, while Fisher–Yates (GNNLab/T_SOTA) draws one per *selected*
/// neighbor — a balanced workload, which is why the paper's Sample stage is
/// up to 2× faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Partial Fisher–Yates shuffle: `O(k)` draws.
    FisherYates,
    /// Vitter's reservoir sampling: `O(degree)` draws.
    Reservoir,
}

/// Neighbor-selection probability model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Uniform over neighbors, without replacement.
    Uniform,
    /// Proportional to edge weight, with replacement (binary search over
    /// the per-vertex cumulative weight table, as a GPU kernel would).
    /// Falls back to uniform if the graph has no weights or a vertex's
    /// total weight is zero.
    Weighted,
}

/// K-hop neighborhood sampling.
///
/// Starting from the mini-batch seeds, hop `i` selects `fanouts[i]`
/// neighbors for every frontier vertex; the union (deduplicated, remapped)
/// becomes the next frontier. Produces one [`LayerBlock`] per hop with
/// explicit self-loop edges so every dst aggregates at least itself.
///
/// # Examples
///
/// ```
/// use gnnlab_graph::gen::chung_lu;
/// use gnnlab_sampling::{KHop, Kernel, SamplingAlgorithm, Selection};
/// use rand::SeedableRng;
///
/// let g = chung_lu(100, 1000, 2.0, 1).unwrap();
/// let khop = KHop::new(vec![5, 3], Kernel::FisherYates, Selection::Uniform);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let s = khop.sample(&g, &[1, 2, 3], &mut rng);
/// assert_eq!(s.blocks.len(), 2);
/// s.validate().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct KHop {
    fanouts: Vec<usize>,
    kernel: Kernel,
    selection: Selection,
}

impl KHop {
    /// Creates a k-hop sampler; `fanouts[i]` is the per-vertex fan-out at
    /// hop `i` (outward from the seeds).
    ///
    /// # Panics
    ///
    /// Panics if `fanouts` is empty or contains a zero.
    pub fn new(fanouts: Vec<usize>, kernel: Kernel, selection: Selection) -> Self {
        assert!(!fanouts.is_empty(), "need at least one hop");
        assert!(fanouts.iter().all(|&f| f > 0), "fanouts must be positive");
        KHop {
            fanouts,
            kernel,
            selection,
        }
    }

    /// The configured fan-outs.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// Selects up to `fanout` neighbors of `v`, appending to `out`.
    #[expect(clippy::too_many_arguments)]
    fn select(
        &self,
        csr: &Csr,
        v: VertexId,
        fanout: usize,
        rng: &mut ChaCha8Rng,
        work: &mut SampleWork,
        out: &mut Vec<VertexId>,
        floyd: &mut Vec<u32>,
        probe: &mut ProbeSet,
    ) {
        let nbrs = csr.neighbors(v);
        let deg = nbrs.len();
        if deg == 0 {
            return;
        }
        match self.selection {
            Selection::Weighted => {
                if let Some(cum) = csr.cumulative_weights(v) {
                    let total = *cum.last().expect("deg > 0");
                    if total > 0.0 {
                        // k draws with replacement; each is a binary search
                        // over the CDF.
                        let log_deg = usize::BITS - (deg.max(1) as u32).leading_zeros();
                        for _ in 0..fanout {
                            let x: f32 = rng.gen::<f32>() * total;
                            let idx = cum.partition_point(|&c| c <= x).min(deg - 1);
                            out.push(nbrs[idx]);
                        }
                        work.rng_draws += fanout as u64;
                        work.edges_scanned += (fanout as u64) * u64::from(log_deg.max(1));
                        work.sampled_vertices += fanout as u64;
                        return;
                    }
                }
                // No weights / zero total: uniform fallback.
                self.select_uniform(nbrs, fanout, rng, work, out, floyd, probe);
            }
            Selection::Uniform => self.select_uniform(nbrs, fanout, rng, work, out, floyd, probe),
        }
    }

    #[expect(clippy::too_many_arguments)]
    fn select_uniform(
        &self,
        nbrs: &[VertexId],
        fanout: usize,
        rng: &mut ChaCha8Rng,
        work: &mut SampleWork,
        out: &mut Vec<VertexId>,
        floyd: &mut Vec<u32>,
        probe: &mut ProbeSet,
    ) {
        let deg = nbrs.len();
        if deg <= fanout {
            out.extend_from_slice(nbrs);
            work.edges_scanned += deg as u64;
            work.sampled_vertices += deg as u64;
            return;
        }
        match self.kernel {
            Kernel::FisherYates => {
                // Floyd's algorithm: k distinct indices in O(k) expected
                // work, independent of the vertex degree. This is what
                // makes the kernel "GPU-friendly ... more balanced for
                // each vertex" (§7.3): a hub with millions of neighbors
                // costs the same as a leaf.
                if fanout <= FLOYD_LINEAR_MAX {
                    floyd.clear();
                    for j in (deg - fanout)..deg {
                        let t = rng.gen_range(0..=j) as u32;
                        if floyd.contains(&t) {
                            floyd.push(j as u32);
                            out.push(nbrs[j]);
                        } else {
                            floyd.push(t);
                            out.push(nbrs[t as usize]);
                        }
                    }
                } else {
                    // Same draw sequence, O(1) duplicate probe. `j` can
                    // never already be a member (every prior member is
                    // ≤ the previous j < j), matching the linear path.
                    probe.reset(fanout);
                    for j in (deg - fanout)..deg {
                        let t = rng.gen_range(0..=j) as u32;
                        if probe.insert(t) {
                            out.push(nbrs[t as usize]);
                        } else {
                            probe.insert(j as u32);
                            out.push(nbrs[j]);
                        }
                    }
                }
                work.rng_draws += fanout as u64;
                work.edges_scanned += fanout as u64;
            }
            Kernel::Reservoir => {
                // Vitter's Algorithm R: one draw per neighbor past the
                // first k. We execute it faithfully; the *work counters*
                // model DGL's edge-parallel GPU kernel, where ~8 lanes
                // cooperate per vertex but a high-degree vertex still
                // serializes its thread (the per-vertex imbalance §7.3
                // blames): cost = clamp(deg/8, k, 64k) lane-steps.
                let base = out.len();
                out.extend_from_slice(&nbrs[..fanout]);
                for (i, &nbr) in nbrs.iter().enumerate().skip(fanout) {
                    let j = rng.gen_range(0..=i);
                    if j < fanout {
                        out[base + j] = nbr;
                    }
                }
                let lane_steps = (deg as u64 / 8).clamp(fanout as u64, 64 * fanout as u64);
                work.rng_draws += lane_steps;
                work.edges_scanned += lane_steps;
            }
        }
        work.sampled_vertices += fanout as u64;
    }
}

impl SamplingAlgorithm for KHop {
    fn sample_into(
        &self,
        csr: &Csr,
        seeds: &[VertexId],
        rng: &mut ChaCha8Rng,
        bufs: &mut SampleBuffers,
        out: &mut Sample,
    ) {
        let hops = self.fanouts.len();
        bufs.begin(seeds, hops, out);
        for (hop, &fanout) in self.fanouts.iter().enumerate() {
            for i in 0..bufs.frontier.len() {
                let v = bufs.frontier[i];
                let start = bufs.selected.len();
                self.select(
                    csr,
                    v,
                    fanout,
                    rng,
                    &mut out.work,
                    &mut bufs.selected,
                    &mut bufs.floyd,
                    &mut bufs.probe,
                );
                bufs.ranges.push((start, bufs.selected.len()));
            }
            out.work.kernel_launches += 1;
            // Hop `h` outward is block `hops - 1 - h`: blocks are stored
            // innermost first.
            bufs.finish_hop(&mut out.blocks[hops - 1 - hop], &mut out.visit_list);
        }
    }

    fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    fn name(&self) -> &'static str {
        match self.selection {
            Selection::Uniform => "k-hop random",
            Selection::Weighted => "k-hop weighted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::gen::{chung_lu, recency_weights};
    use gnnlab_graph::GraphBuilder;
    use rand::SeedableRng;

    fn star(center_deg: usize) -> Csr {
        // Vertex 0 points at 1..=center_deg.
        let mut b = GraphBuilder::new(center_deg + 1);
        for d in 1..=center_deg {
            b.add_edge(0, d as VertexId);
        }
        b.build().unwrap()
    }

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn takes_all_neighbors_when_degree_small() {
        let g = star(3);
        let k = KHop::new(vec![5], Kernel::FisherYates, Selection::Uniform);
        let s = k.sample(&g, &[0], &mut rng());
        s.validate().unwrap();
        let mut inputs = s.input_nodes().to_vec();
        inputs.sort_unstable();
        assert_eq!(inputs, vec![0, 1, 2, 3]);
        // No draws needed when taking all.
        assert_eq!(s.work.rng_draws, 0);
        assert_eq!(s.work.edges_scanned, 3);
    }

    #[test]
    fn fisher_yates_selects_distinct_neighbors() {
        let g = star(100);
        let k = KHop::new(vec![10], Kernel::FisherYates, Selection::Uniform);
        let s = k.sample(&g, &[0], &mut rng());
        let block = &s.blocks[0];
        // 10 selected + 1 seed dst.
        assert_eq!(block.src_count(), 11);
        let mut sel: Vec<_> = block.src_globals[1..].to_vec();
        sel.sort_unstable();
        sel.dedup();
        assert_eq!(sel.len(), 10, "selections must be distinct");
        // Floyd's algorithm: O(k) draws and reads, independent of degree.
        assert_eq!(s.work.rng_draws, 10);
        assert_eq!(s.work.edges_scanned, 10);
    }

    #[test]
    fn reservoir_draw_count_scales_with_degree() {
        let g = star(100);
        let k = KHop::new(vec![10], Kernel::Reservoir, Selection::Uniform);
        let s = k.sample(&g, &[0], &mut rng());
        // Modeled edge-parallel cost: clamp(100/8, 10, 640) = 12 lane
        // steps — more than Fisher-Yates' 10, and growing with degree.
        assert_eq!(s.work.rng_draws, 12);
        let fy = KHop::new(vec![10], Kernel::FisherYates, Selection::Uniform);
        let s_fy = fy.sample(&g, &[0], &mut rng());
        assert!(s.work.rng_draws > s_fy.work.rng_draws);
        let block = &s.blocks[0];
        let mut sel: Vec<_> = block.src_globals[1..].to_vec();
        sel.sort_unstable();
        sel.dedup();
        assert_eq!(sel.len(), 10);
    }

    #[test]
    fn both_kernels_are_roughly_uniform() {
        // Select 1 of 4 neighbors many times; each should appear ~25 %.
        let g = star(4);
        for kernel in [Kernel::FisherYates, Kernel::Reservoir] {
            let k = KHop::new(vec![1], kernel, Selection::Uniform);
            let mut counts = [0usize; 5];
            let mut r = rng();
            for _ in 0..4000 {
                let s = k.sample(&g, &[0], &mut r);
                let picked = s.blocks[0].src_globals[1];
                counts[picked as usize] += 1;
            }
            for &c in &counts[1..] {
                assert!(
                    (700..1300).contains(&c),
                    "{kernel:?} count {c} not ~1000: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn weighted_prefers_heavy_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 9.0);
        b.add_weighted_edge(0, 2, 1.0);
        let g = b.build().unwrap();
        let k = KHop::new(vec![1], Kernel::FisherYates, Selection::Weighted);
        let mut r = rng();
        let mut heavy = 0usize;
        for _ in 0..2000 {
            let s = k.sample(&g, &[0], &mut r);
            if s.blocks[0].src_globals.get(1) == Some(&1) {
                heavy += 1;
            }
        }
        let frac = heavy as f64 / 2000.0;
        assert!((0.85..0.95).contains(&frac), "heavy fraction {frac}");
    }

    #[test]
    fn weighted_falls_back_to_uniform_without_weights() {
        let g = star(10);
        let k = KHop::new(vec![3], Kernel::FisherYates, Selection::Weighted);
        let s = k.sample(&g, &[0], &mut rng());
        s.validate().unwrap();
        assert_eq!(s.blocks[0].src_count(), 4);
    }

    #[test]
    fn multi_hop_blocks_chain() {
        let g = chung_lu(200, 3000, 2.0, 3).unwrap();
        let k = KHop::new(vec![15, 10, 5], Kernel::FisherYates, Selection::Uniform);
        let s = k.sample(&g, &[1, 2, 3, 4], &mut rng());
        assert_eq!(s.blocks.len(), 3);
        s.validate().unwrap();
        // Frontier grows outward: innermost block has the largest src set.
        assert!(s.blocks[0].src_count() >= s.blocks[1].src_count());
        assert!(s.blocks[1].src_count() >= s.blocks[2].src_count());
        assert_eq!(s.blocks[2].dst_count, 4);
    }

    #[test]
    fn deterministic_given_rng() {
        let g = chung_lu(200, 3000, 2.0, 3).unwrap();
        let k = KHop::new(vec![5, 5], Kernel::FisherYates, Selection::Uniform);
        let a = k.sample(&g, &[7, 9], &mut rng());
        let b = k.sample(&g, &[7, 9], &mut rng());
        assert_eq!(a.input_nodes(), b.input_nodes());
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn weighted_on_recency_graph_validates() {
        let g = recency_weights(chung_lu(300, 6000, 2.0, 5).unwrap(), 1).unwrap();
        let k = KHop::new(vec![10, 5], Kernel::FisherYates, Selection::Weighted);
        let s = k.sample(&g, &[1, 2, 3], &mut rng());
        s.validate().unwrap();
        assert!(s.work.sampled_vertices > 0);
    }

    #[test]
    fn visit_list_contains_seeds_and_selections() {
        let g = star(8);
        let k = KHop::new(vec![4], Kernel::FisherYates, Selection::Uniform);
        let s = k.sample(&g, &[0], &mut rng());
        assert_eq!(s.visit_list.len(), 1 + 4);
        assert_eq!(s.visit_list[0], 0);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_fanouts_panic() {
        let _ = KHop::new(vec![], Kernel::FisherYates, Selection::Uniform);
    }

    fn assert_samples_equal(a: &Sample, b: &Sample) {
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.visit_list, b.visit_list);
        assert_eq!(a.work, b.work);
        assert_eq!(a.cache_mask, b.cache_mask);
        assert_eq!(a.blocks.len(), b.blocks.len());
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.src_globals, y.src_globals);
            assert_eq!(x.dst_count, y.dst_count);
            assert_eq!(x.edges, y.edges);
        }
    }

    #[test]
    fn buffer_reuse_is_byte_identical_across_batches() {
        let g = chung_lu(300, 6000, 2.0, 3).unwrap();
        let k = KHop::new(vec![15, 10, 5], Kernel::FisherYates, Selection::Uniform);
        let mut bufs = SampleBuffers::new();
        let mut reused = Sample::default();
        let mut rng_fresh = rng();
        let mut rng_reuse = rng();
        for seeds in [vec![1, 2, 3], vec![7], vec![50, 60, 70, 80], vec![2, 9]] {
            let fresh = k.sample(&g, &seeds, &mut rng_fresh);
            k.sample_into(&g, &seeds, &mut rng_reuse, &mut bufs, &mut reused);
            assert_samples_equal(&fresh, &reused);
            reused.validate().unwrap();
        }
    }

    #[test]
    fn hashed_probe_matches_linear_scan_reference() {
        // fanout 25 > FLOYD_LINEAR_MAX takes the hashed-probe branch;
        // replay the draw loop with the original linear scan and the same
        // stream — selections must agree index for index.
        let deg = 500usize;
        let fanout = 25usize;
        assert!(fanout > FLOYD_LINEAR_MAX);
        let g = star(deg);
        let k = KHop::new(vec![fanout], Kernel::FisherYates, Selection::Uniform);
        let s = k.sample(&g, &[0], &mut rng());

        let nbrs = g.neighbors(0);
        let mut r = rng();
        let mut scratch: Vec<u32> = Vec::new();
        let mut expect: Vec<VertexId> = Vec::new();
        for j in (deg - fanout)..deg {
            let t = r.gen_range(0..=j) as u32;
            if scratch.contains(&t) {
                scratch.push(j as u32);
                expect.push(nbrs[j]);
            } else {
                scratch.push(t);
                expect.push(nbrs[t as usize]);
            }
        }
        // src_globals = [seed 0] ++ deduped selections in selection order.
        let mut dedup: Vec<VertexId> = Vec::new();
        for &v in &expect {
            if v != 0 && !dedup.contains(&v) {
                dedup.push(v);
            }
        }
        assert_eq!(&s.blocks[0].src_globals[1..], &dedup[..]);
        assert_eq!(s.work.rng_draws, fanout as u64);
    }
}
