//! The cache lookup table built by `load_cache`.

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
    /// The cache ratio this table was built with.
    alpha: f64,
}

impl CacheTable {
    /// An empty cache (alpha = 0); every lookup misses.
    pub fn empty(num_vertices: usize) -> Self {
        CacheTable {
            location: vec![NOT_CACHED; num_vertices],
            cached: Vec::new(),
            alpha: 0.0,
        }
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

    /// The cache ratio `α` this table was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
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

/// Builds a [`CacheTable`] caching the top-`ceil(alpha * n)` vertices by
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
    let k = ((alpha * num_vertices as f64).ceil() as usize).min(num_vertices);
    load_cache_topk(hotness, k, num_vertices)
}

/// [`load_cache`] with an exact row budget instead of a ratio: caches the
/// top-`k` vertices by hotness. Memory planners that derive the budget
/// from a byte ledger use this so the table never exceeds the ledger by a
/// rounding row; the recorded α is `k / num_vertices`.
///
/// # Panics
///
/// Panics if `hotness.len() != num_vertices` or `k > num_vertices`.
pub fn load_cache_topk(hotness: &[f64], k: usize, num_vertices: usize) -> CacheTable {
    assert_eq!(hotness.len(), num_vertices, "hotness map size mismatch");
    assert!(k <= num_vertices, "cache rows exceed the vertex count");
    let alpha = if num_vertices == 0 {
        0.0
    } else {
        k as f64 / num_vertices as f64
    };
    let mut table = CacheTable {
        location: vec![NOT_CACHED; num_vertices],
        cached: Vec::with_capacity(k),
        alpha,
    };
    if k == 0 {
        return table;
    }
    let mut order: Vec<u32> = (0..num_vertices as u32).collect();
    // Partial selection of the top-k, then sort those for determinism.
    order.select_nth_unstable_by(k - 1, |&a, &b| {
        gnnlab_par::invariant!(
            hotness[b as usize].partial_cmp(&hotness[a as usize]),
            "hotness scores are finite counts, never NaN"
        )
        .then(a.cmp(&b))
    });
    let mut top: Vec<u32> = order[..k].to_vec();
    top.sort_unstable_by(|&a, &b| {
        gnnlab_par::invariant!(
            hotness[b as usize].partial_cmp(&hotness[a as usize]),
            "hotness scores are finite counts, never NaN"
        )
        .then(a.cmp(&b))
    });
    for (slot, &v) in top.iter().enumerate() {
        table.location[v as usize] = slot as u32;
        table.cached.push(v);
    }
    table
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
