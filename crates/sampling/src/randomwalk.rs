//! PinSAGE-style random-walk neighbor selection.

use crate::sample::{Sample, SampleBuffers, SampleWork};
use crate::SamplingAlgorithm;
use gnnlab_graph::{Csr, VertexId};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Random-walk based neighborhood sampling (PinSAGE, §7.1).
///
/// For each frontier vertex, runs `num_walks` uniform random walks of
/// `walk_len` steps and keeps the `neighbors_per_layer` most-visited
/// vertices as that vertex's neighbors; repeated for `layers` layers.
/// The paper's PinSAGE configuration is 3 layers, "5 neighbors from 4
/// paths of length 3".
#[derive(Debug, Clone)]
pub struct RandomWalk {
    layers: usize,
    num_walks: usize,
    walk_len: usize,
    neighbors_per_layer: usize,
}

impl RandomWalk {
    /// Creates a random-walk sampler.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(
        layers: usize,
        num_walks: usize,
        walk_len: usize,
        neighbors_per_layer: usize,
    ) -> Self {
        assert!(
            layers > 0 && num_walks > 0 && walk_len > 0 && neighbors_per_layer > 0,
            "random-walk parameters must be positive"
        );
        RandomWalk {
            layers,
            num_walks,
            walk_len,
            neighbors_per_layer,
        }
    }

    /// The paper's PinSAGE configuration: 3 layers, 4 walks of length 3,
    /// keep the top 5 visited.
    pub fn pinsage() -> Self {
        RandomWalk::new(3, 4, 3, 5)
    }

    /// Walks from `v`, appending the top visited vertices (excluding `v`)
    /// to `bufs.selected`. `bufs.ranked` collects `(vertex, visit count)`
    /// in first-visit order; `bufs.visits` maps a vertex to its index
    /// there.
    fn select(
        &self,
        csr: &Csr,
        v: VertexId,
        rng: &mut ChaCha8Rng,
        work: &mut SampleWork,
        bufs: &mut SampleBuffers,
    ) {
        let SampleBuffers {
            visits,
            ranked,
            selected,
            ..
        } = bufs;
        visits.reset(self.num_walks * self.walk_len);
        ranked.clear();
        for _ in 0..self.num_walks {
            let mut cur = v;
            for _ in 0..self.walk_len {
                let nbrs = csr.neighbors(cur);
                if nbrs.is_empty() {
                    break;
                }
                // One draw per step; the step reads one neighbor-list entry
                // (plus the degree), like a GPU walk kernel.
                let next = nbrs[rng.gen_range(0..nbrs.len())];
                work.rng_draws += 1;
                work.edges_scanned += 1;
                if next != v {
                    match visits.insert_if_absent(next, ranked.len() as u32) {
                        Some(at) => ranked[at as usize].1 += 1,
                        None => ranked.push((next, 1)),
                    }
                }
                cur = next;
            }
        }
        // Deterministic order: by count desc, then id asc.
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(self.neighbors_per_layer);
        work.sampled_vertices += ranked.len() as u64;
        selected.extend(ranked.iter().map(|&(k, _)| k));
    }
}

impl SamplingAlgorithm for RandomWalk {
    fn sample_into(
        &self,
        csr: &Csr,
        seeds: &[VertexId],
        rng: &mut ChaCha8Rng,
        bufs: &mut SampleBuffers,
        out: &mut Sample,
    ) {
        bufs.begin(seeds, self.layers, out);
        for layer in 0..self.layers {
            for i in 0..bufs.frontier.len() {
                let v = bufs.frontier[i];
                let start = bufs.selected.len();
                self.select(csr, v, rng, &mut out.work, bufs);
                bufs.ranges.push((start, bufs.selected.len()));
            }
            // A walk layer launches one kernel per walk step plus the
            // top-k reduction — PinSAGE's "more complex access pattern"
            // that amplifies per-launch overheads (§7.3).
            out.work.kernel_launches += self.walk_len as u64 + 1;
            // Blocks are stored innermost first.
            let block = &mut out.blocks[self.layers - 1 - layer];
            bufs.finish_hop(block, &mut out.visit_list);
        }
    }

    fn num_layers(&self) -> usize {
        self.layers
    }

    fn name(&self) -> &'static str {
        "random walks"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::gen::chung_lu;
    use gnnlab_graph::GraphBuilder;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    #[test]
    fn pinsage_shape() {
        let g = chung_lu(300, 6000, 2.0, 1).unwrap();
        let rw = RandomWalk::pinsage();
        let s = rw.sample(&g, &[1, 2, 3], &mut rng());
        assert_eq!(s.blocks.len(), 3);
        s.validate().unwrap();
        // Each vertex gets at most 5 neighbors.
        let b = s.blocks.last().unwrap();
        assert!(b.edges.len() <= 3 * (5 + 1));
    }

    #[test]
    fn walks_stay_in_reachable_set() {
        // 0 -> 1 -> 2, nothing else: walks from 0 can only visit 1, 2.
        let mut builder = GraphBuilder::new(4);
        builder.add_edge(0, 1);
        builder.add_edge(1, 2);
        let g = builder.build().unwrap();
        let rw = RandomWalk::new(1, 8, 3, 5);
        let s = rw.sample(&g, &[0], &mut rng());
        let mut inputs = s.input_nodes().to_vec();
        inputs.sort_unstable();
        assert!(inputs.iter().all(|&v| v <= 2));
        assert!(!inputs.contains(&3));
    }

    #[test]
    fn dead_end_vertex_selects_nothing() {
        let mut builder = GraphBuilder::new(2);
        builder.add_edge(1, 0);
        let g = builder.build().unwrap();
        let rw = RandomWalk::new(1, 4, 3, 5);
        // Vertex 0 has no out-edges: the walk ends immediately.
        let s = rw.sample(&g, &[0], &mut rng());
        s.validate().unwrap();
        assert_eq!(s.num_input_nodes(), 1);
        // Self-loop edge still present so training aggregates self.
        assert_eq!(s.blocks[0].edges, vec![(0, 0)]);
    }

    #[test]
    fn top_k_prefers_frequently_visited() {
        // Star out of 0 with a funnel: 0 -> {1,2}, 1 -> 3, 2 -> 3.
        // Vertex 3 is visited by nearly every walk of length >= 2.
        let mut builder = GraphBuilder::new(4);
        builder.add_edge(0, 1);
        builder.add_edge(0, 2);
        builder.add_edge(1, 3);
        builder.add_edge(2, 3);
        let g = builder.build().unwrap();
        let rw = RandomWalk::new(1, 16, 2, 1);
        let s = rw.sample(&g, &[0], &mut rng());
        // Keep-1 must pick the funnel vertex 3.
        assert_eq!(s.blocks[0].src_globals[1], 3);
    }

    #[test]
    fn work_counters_accumulate() {
        let g = chung_lu(300, 6000, 2.0, 1).unwrap();
        let rw = RandomWalk::pinsage();
        let s = rw.sample(&g, &[5], &mut rng());
        assert!(s.work.rng_draws > 0);
        assert!(s.work.kernel_launches >= 3 * 4);
        assert_eq!(s.work.rng_draws, s.work.edges_scanned);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_walks_panic() {
        let _ = RandomWalk::new(1, 0, 3, 5);
    }
}
