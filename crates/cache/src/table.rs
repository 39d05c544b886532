//! The cache lookup table built by `load_cache`, and its prefixes.
//!
//! A table's slots follow one ranking, hottest first, so a smaller cache
//! over the same hotness map is the top of that ranking:
//! [`CacheTable::prefix`] cuts it without reading hotness again. A run
//! that needs caches of several sizes ranks once and cuts each.

use gnnlab_graph::VertexId;

/// Sentinel meaning "not cached" in the location map.
const NOT_CACHED: u32 = u32::MAX;

/// A static GPU feature cache: which vertices are resident and where.
///
/// Mirrors the paper's `load_cache(hotness_map, α)` built-in (§6.1): the
/// top-ranked `α|V|` vertices by hotness are selected, and a location map
/// ("hash table" in the paper; a dense array here, as GNNLab's CUDA
/// implementation also uses) answers membership in O(1). The cache is
/// static — no tracking or swapping at runtime.
#[derive(Debug, Clone)]
pub struct CacheTable {
    /// `location[v]` = slot of `v`'s feature row in the GPU cache, or
    /// `NOT_CACHED`.
    location: Vec<u32>,
    /// Cached vertex ids in slot order.
    cached: Vec<VertexId>,
}

impl CacheTable {
    /// An empty cache (alpha = 0); every lookup misses.
    pub fn empty(num_vertices: usize) -> Self {
        Self::ranked(num_vertices, Vec::new())
    }

    /// The table caching `cached`, `cached[i]` in slot `i`.
    fn ranked(num_vertices: usize, cached: Vec<VertexId>) -> Self {
        let mut location = vec![NOT_CACHED; num_vertices];
        for (slot, &v) in cached.iter().enumerate() {
            location[v as usize] = slot as u32;
        }
        CacheTable { location, cached }
    }

    /// The table of this table's first `rows` vertices, in the same
    /// slots: the cache a smaller budget would have loaded from the same
    /// hotness map, since [`load_cache_topk`]'s order is total.
    ///
    /// # Panics
    ///
    /// Panics if `rows > self.len()`.
    pub fn prefix(&self, rows: usize) -> CacheTable {
        assert!(rows <= self.len(), "a prefix cannot exceed its table");
        Self::ranked(self.location.len(), self.cached[..rows].to_vec())
    }

    /// Whether `v`'s feature is resident in GPU memory.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.location[v as usize] != NOT_CACHED
    }

    /// Where `v`'s feature row lives, answered without a branch:
    /// `(true, slot)` when it is cached, `(false, v)` — its host row —
    /// when it is not. The Extract gather reads one of its two tiers by
    /// the flag.
    #[inline]
    pub fn locate(&self, v: VertexId) -> (bool, u32) {
        let s = self.location[v as usize];
        let cached = s != NOT_CACHED;
        (cached, if cached { s } else { v })
    }

    /// Number of cached vertices.
    pub fn len(&self) -> usize {
        self.cached.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.cached.is_empty()
    }

    /// The cache ratio `α`: cached rows over vertices (0 on an empty
    /// graph).
    pub fn alpha(&self) -> f64 {
        match self.location.len() {
            0 => 0.0,
            n => self.cached.len() as f64 / n as f64,
        }
    }

    /// Cached vertex ids in slot order.
    pub fn cached_vertices(&self) -> &[VertexId] {
        &self.cached
    }

    /// GPU memory the cached feature rows occupy.
    pub fn bytes(&self, row_bytes: u64) -> u64 {
        self.cached.len() as u64 * row_bytes
    }

    /// Marks each of `ids` with cache membership — the paper's `M` step
    /// (§5.2: "each sampled vertex can be marked in the Sample stage
    /// whether its feature is cached in GPU memory or not"). The threaded
    /// Sampler does not run it: an Extract gather's [`CacheTable::locate`]
    /// is the same one load per vertex.
    pub fn mark(&self, ids: &[VertexId]) -> Vec<bool> {
        ids.iter().map(|&v| self.contains(v)).collect()
    }
}

/// The rows a cache ratio buys on `num_vertices` vertices:
/// `ceil(alpha * n)`, at most `n`.
pub fn cache_rows(alpha: f64, num_vertices: usize) -> usize {
    ((alpha * num_vertices as f64).ceil() as usize).min(num_vertices)
}

/// Builds a [`CacheTable`] caching the top-[`cache_rows`] vertices by
/// hotness (ties broken by lower vertex id, so results are deterministic).
///
/// This is the paper's general caching scheme: any policy is "a hotness
/// map plus a ratio".
///
/// # Panics
///
/// Panics if `hotness.len() != num_vertices` or `alpha` is outside `[0, 1]`
/// or non-finite.
pub fn load_cache(hotness: &[f64], alpha: f64, num_vertices: usize) -> CacheTable {
    assert!(
        alpha.is_finite() && (0.0..=1.0).contains(&alpha),
        "alpha must be in [0, 1]"
    );
    load_cache_topk(hotness, cache_rows(alpha, num_vertices), num_vertices)
}

/// [`load_cache`] with an exact row budget instead of a ratio: caches the
/// top-`k` vertices by hotness. Memory planners that derive the budget
/// from a byte ledger use this so the table never exceeds the ledger by a
/// rounding row; its α is `k / num_vertices`. The ranking is by hotness
/// descending, then id ascending — a total order, so a smaller budget's
/// table is a [`CacheTable::prefix`] of a larger one's.
///
/// # Panics
///
/// Panics if `hotness.len() != num_vertices` or `k > num_vertices`.
pub fn load_cache_topk(hotness: &[f64], k: usize, num_vertices: usize) -> CacheTable {
    assert_eq!(hotness.len(), num_vertices, "hotness map size mismatch");
    assert!(k <= num_vertices, "cache rows exceed the vertex count");
    if k == 0 {
        return CacheTable::empty(num_vertices);
    }
    let by_hotness = |&a: &u32, &b: &u32| {
        gnnlab_par::invariant!(
            hotness[b as usize].partial_cmp(&hotness[a as usize]),
            "hotness scores are finite counts, never NaN"
        )
        .then(a.cmp(&b))
    };
    let mut order: Vec<u32> = (0..num_vertices as u32).collect();
    // Partial selection of the top-k, then sort those for determinism.
    order.select_nth_unstable_by(k - 1, by_hotness);
    let mut top: Vec<u32> = order[..k].to_vec();
    top.sort_unstable_by(by_hotness);
    CacheTable::ranked(num_vertices, top)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_top_alpha_by_hotness() {
        let hot = vec![0.5, 9.0, 1.0, 7.0, 0.0];
        let t = load_cache(&hot, 0.4, 5);
        assert_eq!(t.len(), 2);
        assert!(t.contains(1));
        assert!(t.contains(3));
        assert!(!t.contains(0));
        assert_eq!(t.cached_vertices(), &[1, 3]);
        assert_eq!(t.locate(1), (true, 0));
        assert_eq!(t.locate(3), (true, 1));
        assert_eq!(t.locate(0), (false, 0));
        assert_eq!(t.locate(4), (false, 4));
    }

    #[test]
    fn alpha_zero_and_one() {
        let hot = vec![1.0, 2.0, 3.0];
        assert!(load_cache(&hot, 0.0, 3).is_empty());
        let full = load_cache(&hot, 1.0, 3);
        assert_eq!(full.len(), 3);
        assert!((0..3).all(|v| full.contains(v)));
    }

    #[test]
    fn ties_break_by_vertex_id() {
        let hot = vec![1.0; 10];
        let t = load_cache(&hot, 0.3, 10);
        assert_eq!(t.cached_vertices(), &[0, 1, 2]);
    }

    #[test]
    fn mark_flags_cached_vertices() {
        let hot = vec![0.0, 5.0, 0.0, 5.0];
        let t = load_cache(&hot, 0.5, 4);
        let ids = vec![0, 1, 2, 3, 1];
        assert_eq!(t.mark(&ids), vec![false, true, false, true, true]);
    }

    #[test]
    fn topk_budget_is_exact() {
        let hot = vec![0.5, 9.0, 1.0, 7.0, 0.0];
        let t = load_cache_topk(&hot, 3, 5);
        assert_eq!(t.len(), 3);
        assert_eq!(t.cached_vertices(), &[1, 3, 2]);
        assert!((t.alpha() - 0.6).abs() < 1e-12);
        assert!(load_cache_topk(&hot, 0, 5).is_empty());
    }

    #[test]
    fn a_smaller_budget_is_a_prefix_of_the_ranking() {
        // Seven hotness levels over 240 vertices: every cut falls inside a
        // run of ties, and the slices are long enough that the unstable
        // selection and sort reorder ties unless the id breaks them.
        let n = 240;
        let hot: Vec<f64> = (0..n).map(|v| ((v * 37) % 7) as f64).collect();
        let same = |a: &CacheTable, b: &CacheTable, at: &str| {
            assert_eq!(a.cached_vertices(), b.cached_vertices(), "{at}");
            for v in 0..n as VertexId {
                assert_eq!(a.locate(v), b.locate(v), "{at}, v = {v}");
            }
            assert_eq!(a.alpha().to_bits(), b.alpha().to_bits(), "{at}");
        };
        let big = 180;
        let full = load_cache_topk(&hot, big, n);
        for k in 0..=big {
            let cut = full.prefix(k);
            same(&cut, &load_cache_topk(&hot, k, n), &format!("k = {k}"));
            for j in [0, k / 3, k] {
                let at = format!("k = {k}, j = {j}");
                same(&cut.prefix(j), &full.prefix(j), &at);
            }
        }
    }

    #[test]
    #[should_panic(expected = "prefix cannot exceed")]
    fn prefix_rejects_more_rows_than_the_table() {
        let _ = load_cache_topk(&[1.0, 2.0, 3.0], 2, 3).prefix(3);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn topk_rejects_overbudget() {
        let _ = load_cache_topk(&[1.0, 2.0], 3, 2);
    }

    #[test]
    fn bytes_accounts_rows() {
        let t = load_cache(&[1.0, 2.0], 1.0, 2);
        assert_eq!(t.bytes(512), 1024);
    }

    #[test]
    fn empty_table_misses_everything() {
        let t = CacheTable::empty(3);
        assert!(!t.contains(2));
        assert_eq!(t.alpha(), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let _ = load_cache(&[1.0], 1.5, 1);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn rejects_size_mismatch() {
        let _ = load_cache(&[1.0], 0.5, 2);
    }
}
