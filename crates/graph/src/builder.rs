//! Checked edge-list accumulation and CSR finalization.

use crate::csr::{Csr, VertexId};
use crate::{GraphError, Result};

/// Accumulates edges (optionally weighted) and finalizes them into a [`Csr`].
///
/// [`GraphBuilder::build`] is a counting sort: one pass counts the edges of
/// every source, a prefix sum turns the counts into `indptr`, a second pass
/// drops every destination (and weight) into its row at a per-row cursor,
/// and each row is then sorted by destination. Rows therefore come out
/// ordered by `(src, dst)`, and **parallel edges keep the order they were
/// added in** — which only shows on a weighted graph, where it decides the
/// order of their weights. Parallel edges are kept unless
/// [`GraphBuilder::dedup`] is enabled. Self-loops are kept (sampling
/// algorithms treat them like any other edge, matching DGL semantics).
///
/// Weights are stored only once a weighted edge has been added: an
/// unweighted graph never materialises a weight array, and the first
/// [`GraphBuilder::add_weighted_edge`] back-fills `1.0` for the edges
/// before it.
///
/// # Examples
///
/// ```
/// use gnnlab_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_weighted_edge(2, 0, 1.5);
/// b.add_weighted_edge(0, 1, 2.0);
/// let g = b.build().unwrap();
/// assert_eq!(g.neighbors(2), &[0]);
/// assert_eq!(g.edge_weights(0), Some(&[2.0][..]));
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    /// Empty until the first weighted edge, then one weight per edge.
    weights: Vec<f32>,
    dedup: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            weights: Vec::new(),
            dedup: false,
        }
    }

    /// Creates a builder with pre-reserved capacity for `num_edges`.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        let mut b = Self::new(num_vertices);
        b.edges.reserve(num_edges);
        b
    }

    /// Enables deduplication of parallel `(src, dst)` edges at build time.
    /// On a weighted graph the survivor is the edge that was added first.
    pub fn dedup(&mut self) -> &mut Self {
        self.dedup = true;
        self
    }

    /// Raises the vertex count to at least `num_vertices` (an edge list
    /// read without a declared size learns it from the largest id).
    pub(crate) fn grow_to(&mut self, num_vertices: usize) {
        self.num_vertices = self.num_vertices.max(num_vertices);
    }

    /// Adds an unweighted edge `src -> dst` (weight `1.0` if the graph
    /// turns out to be weighted).
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        if !self.weights.is_empty() {
            self.weights.push(1.0);
        }
        self.edges.push((src, dst));
    }

    /// Adds a weighted edge `src -> dst`.
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, weight: f32) {
        if self.weights.is_empty() {
            self.weights.resize(self.edges.len(), 1.0);
        }
        self.weights.push(weight);
        self.edges.push((src, dst));
    }

    /// Number of edges accumulated so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalizes into a [`Csr`], validating vertex ranges and weights.
    pub fn build(self) -> Result<Csr> {
        let mut indptr = self.row_offsets()?;
        if self.weights.is_empty() {
            // Equal bare destinations cannot be told apart, so the row
            // sort need not be stable.
            let mut indices = self.place(&indptr, |i| self.edges[i].1);
            finish_rows(
                &mut indptr,
                &mut indices,
                self.dedup,
                |dst| dst,
                <[_]>::sort_unstable,
            );
            Csr::from_parts(indptr, indices)
        } else {
            let mut pairs = self.place(&indptr, |i| (self.edges[i].1, self.weights[i]));
            let by_dst = |row: &mut [(VertexId, f32)]| row.sort_by_key(|&(dst, _)| dst);
            finish_rows(&mut indptr, &mut pairs, self.dedup, |(dst, _)| dst, by_dst);
            let (indices, weights) = pairs.into_iter().unzip();
            Csr::from_parts(indptr, indices)?.with_weights(weights)
        }
    }

    /// Checks every endpoint and returns `indptr`: the per-source edge
    /// counts, prefix-summed.
    fn row_offsets(&self) -> Result<Vec<u64>> {
        let n = self.num_vertices as u64;
        let mut indptr = vec![0u64; self.num_vertices + 1];
        for &(s, d) in &self.edges {
            for vertex in [u64::from(s), u64::from(d)] {
                if vertex >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex,
                        num_vertices: n,
                    });
                }
            }
            indptr[s as usize + 1] += 1;
        }
        for v in 0..self.num_vertices {
            indptr[v + 1] += indptr[v];
        }
        Ok(indptr)
    }

    /// Scatters `item(i)` of every edge `i` into its source's row, each row
    /// in insertion order.
    fn place<T: Copy + Default>(&self, indptr: &[u64], item: impl Fn(usize) -> T) -> Vec<T> {
        let mut cursor = indptr.to_vec();
        let mut items = vec![T::default(); self.edges.len()];
        for (i, &(s, _)) in self.edges.iter().enumerate() {
            let at = &mut cursor[s as usize];
            items[*at as usize] = item(i);
            *at += 1;
        }
        items
    }
}

/// Sorts every row by destination (`dst` reads an entry's) with `sort` —
/// which must be stable where entries with one destination differ, so
/// parallel edges keep their insertion order — and, with `dedup`, keeps
/// the first entry of each run of equal destinations, compacting `items`
/// and `indptr` in place.
fn finish_rows<T: Copy>(
    indptr: &mut [u64],
    items: &mut Vec<T>,
    dedup: bool,
    dst: impl Fn(T) -> VertexId,
    sort: impl Fn(&mut [T]),
) {
    let mut kept = 0usize;
    for v in 0..indptr.len() - 1 {
        let (lo, hi) = (indptr[v] as usize, indptr[v + 1] as usize);
        sort(&mut items[lo..hi]);
        if !dedup {
            continue;
        }
        indptr[v] = kept as u64;
        for i in lo..hi {
            if i == lo || dst(items[i]) != dst(items[i - 1]) {
                items[kept] = items[i];
                kept += 1;
            }
        }
    }
    if dedup {
        items.truncate(kept);
        *indptr.last_mut().expect("indptr holds n + 1 offsets") = kept as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The build this crate shipped before the counting sort, kept as the
    /// oracle: sort edge numbers by `(src, dst)`, then three more passes.
    /// The sort is stable, which is the order `build` now promises for
    /// parallel edges (the old one promised none).
    fn sort_based_build(b: &GraphBuilder) -> Result<Csr> {
        let n = b.num_vertices as u64;
        for &(s, d) in &b.edges {
            for vertex in [u64::from(s), u64::from(d)] {
                if vertex >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex,
                        num_vertices: n,
                    });
                }
            }
        }
        let mut order: Vec<usize> = (0..b.edges.len()).collect();
        order.sort_by_key(|&i| b.edges[i]);

        let mut sorted_edges = Vec::new();
        let mut sorted_weights = Vec::new();
        let mut prev = None;
        for &i in &order {
            let e = b.edges[i];
            if b.dedup && prev == Some(e) {
                continue;
            }
            prev = Some(e);
            sorted_edges.push(e);
            sorted_weights.push(b.weights.get(i).copied().unwrap_or(1.0));
        }

        let mut indptr = vec![0u64; b.num_vertices + 1];
        for &(s, _) in &sorted_edges {
            indptr[s as usize + 1] += 1;
        }
        for i in 0..b.num_vertices {
            indptr[i + 1] += indptr[i];
        }
        let indices: Vec<VertexId> = sorted_edges.iter().map(|&(_, d)| d).collect();
        let csr = Csr::from_parts(indptr, indices)?;
        if b.weights.is_empty() {
            Ok(csr)
        } else {
            csr.with_weights(sorted_weights)
        }
    }

    fn assert_same_csr(got: &Csr, want: &Csr) {
        assert_eq!(got.num_vertices(), want.num_vertices());
        assert_eq!(got.num_edges(), want.num_edges());
        assert_eq!(got.is_weighted(), want.is_weighted());
        for v in 0..got.num_vertices() as VertexId {
            assert_eq!(got.neighbors(v), want.neighbors(v), "row {v}");
            let bits = |g: &Csr| -> Option<Vec<u32>> {
                g.edge_weights(v)
                    .map(|ws| ws.iter().map(|w| w.to_bits()).collect())
            };
            assert_eq!(bits(got), bits(want), "weights of row {v}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Self-loops, parallel edges, isolated vertices above every id,
        /// weights that start on a later edge, with and without `dedup`,
        /// the empty graph: the counting sort builds what the sort did.
        #[test]
        fn counting_sort_matches_the_sort_based_build(
            max_id in 1u32..40,
            spare_vertices in 0usize..5,
            edges in prop::collection::vec((0u32..40, 0u32..40, 0u32..8), 0..300),
            first_weighted in 0usize..400,
            dedup in any::<bool>(),
        ) {
            let mut b = GraphBuilder::new(max_id as usize + spare_vertices);
            if dedup {
                b.dedup();
            }
            for (i, &(s, d, w)) in edges.iter().enumerate() {
                // Few distinct ids and weights, so parallel edges with
                // different weights are common.
                let (s, d) = (s % max_id, d % max_id);
                if i >= first_weighted && w != 0 {
                    b.add_weighted_edge(s, d, w as f32 * 0.5);
                } else {
                    b.add_edge(s, d);
                }
            }
            let want = sort_based_build(&b).expect("ids in range");
            let got = b.build().expect("ids in range");
            assert_same_csr(&got, &want);
        }

        /// The first offending endpoint in edge order is the one reported.
        #[test]
        fn out_of_range_ids_fail_like_the_sort_based_build(
            edges in prop::collection::vec((0u32..12, 0u32..12), 1..40),
        ) {
            let mut b = GraphBuilder::new(10);
            for &(s, d) in &edges {
                b.add_edge(s, d);
            }
            let want = sort_based_build(&b).map(|g| g.num_edges());
            prop_assert_eq!(b.build().map(|g| g.num_edges()), want);
        }
    }

    #[test]
    fn parallel_weighted_edges_keep_insertion_order() {
        let mut b = GraphBuilder::new(2);
        // More than any small-sort cutoff, so an unstable sort would show.
        let weights: Vec<f32> = (0..200).map(|i| ((i * 37) % 200) as f32).collect();
        for &w in &weights {
            b.add_weighted_edge(0, 1, w);
            b.add_weighted_edge(0, 0, w + 0.5);
        }
        let g = b.build().unwrap();
        let (loops, parallel) = g.edge_weights(0).unwrap().split_at(200);
        assert_eq!(parallel, &weights[..]);
        assert!(loops.iter().zip(&weights).all(|(l, w)| *l == w + 0.5));
    }

    #[test]
    fn dedup_keeps_the_first_weight_added() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(1, 2, 5.0);
        b.add_weighted_edge(1, 0, 4.0);
        b.add_weighted_edge(1, 2, 6.0);
        b.add_weighted_edge(0, 1, 7.0);
        b.add_weighted_edge(1, 0, 3.0);
        b.dedup();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.edge_weights(1), Some(&[4.0, 5.0][..]));
        assert_eq!(g.edge_weights(0), Some(&[7.0][..]));
    }

    #[test]
    fn a_late_first_weight_back_fills_ones() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 1);
        b.add_edge(0, 1);
        b.add_weighted_edge(0, 2, 0.25);
        b.add_edge(2, 0);
        let g = b.build().unwrap();
        assert_eq!(g.edge_weights(0), Some(&[1.0, 0.25][..]));
        assert_eq!(g.edge_weights(2), Some(&[1.0, 1.0][..]));
    }

    #[test]
    fn builds_sorted_csr() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 1);
        b.add_edge(0, 2);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[VertexId]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
        assert!(matches!(
            b.build(),
            Err(GraphError::VertexOutOfRange { vertex: 2, .. })
        ));
    }

    #[test]
    fn dedup_removes_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.dedup();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn keeps_parallel_edges_without_dedup() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn weights_follow_edges_through_sorting() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(1, 0, 7.0);
        b.add_weighted_edge(0, 2, 3.0);
        b.add_weighted_edge(0, 1, 2.0);
        let g = b.build().unwrap();
        assert_eq!(g.edge_weights(0).unwrap(), &[2.0, 3.0]);
        assert_eq!(g.edge_weights(1).unwrap(), &[7.0]);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = GraphBuilder::new(5).build().unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_out_degree(), 0);
    }

    #[test]
    fn self_loops_are_kept() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
        let g = b.build().unwrap();
        assert_eq!(g.neighbors(1), &[1]);
    }
}
