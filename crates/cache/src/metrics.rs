//! Cache effectiveness counters: lookups, hits, and the bytes each tier
//! served, from which hit rates and transferred bytes follow.

use crate::table::CacheTable;
use gnnlab_graph::VertexId;

/// Accumulated cache statistics over one or more mini-batches.
///
/// `hit_rate` and `transferred (miss) bytes` are the quantities plotted in
/// Figs. 4, 5, 10, 11 and reported as `H%` in Table 5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Feature-row lookups (one per distinct input vertex per batch).
    pub lookups: u64,
    /// Lookups answered from the GPU cache.
    pub hits: u64,
    /// Bytes gathered from host memory and moved over PCIe (misses).
    pub miss_bytes: u64,
    /// Bytes gathered from the GPU-resident cache (hits).
    pub hit_bytes: u64,
}

impl CacheStats {
    /// Records the lookups of one batch given the distinct input vertices.
    pub fn record(&mut self, table: &CacheTable, input_nodes: &[VertexId], row_bytes: u64) {
        for &v in input_nodes {
            self.lookups += 1;
            if table.contains(v) {
                self.hits += 1;
                self.hit_bytes += row_bytes;
            } else {
                self.miss_bytes += row_bytes;
            }
        }
    }

    /// Fraction of lookups served by the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups as f64
    }

    /// Bytes that crossed PCIe (the paper's "transferred data").
    pub fn transferred_bytes(&self) -> u64 {
        self.miss_bytes
    }

    /// Merges another accumulator into this one.
    pub fn add(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.miss_bytes += other.miss_bytes;
        self.hit_bytes += other.hit_bytes;
    }

    /// Publishes the accumulated totals into a metrics registry under the
    /// standard `cache.*` names.
    pub fn publish(&self, metrics: &gnnlab_obs::MetricsRegistry) {
        use gnnlab_obs::names;
        metrics.counter_add(names::CACHE_LOOKUPS, self.lookups as f64);
        metrics.counter_add(names::CACHE_HITS, self.hits as f64);
        metrics.counter_add(names::CACHE_MISSES, (self.lookups - self.hits) as f64);
        metrics.counter_add(names::CACHE_HIT_BYTES, self.hit_bytes as f64);
        metrics.counter_add(names::CACHE_MISS_BYTES, self.miss_bytes as f64);
        metrics.gauge_set(names::CACHE_HIT_RATE, self.hit_rate());
    }
}

/// A lock-free [`CacheStats`] accumulator for concurrent extract paths.
///
/// Each counter is an independent `AtomicU64` bumped with relaxed ordering:
/// the counters are statistics, not synchronization — readers only need
/// eventually-consistent totals, and a [`AtomicCacheStats::snapshot`] taken
/// while extracts are in flight may observe a partially applied batch (it
/// still never loses or invents counts).
#[derive(Debug, Default)]
pub struct AtomicCacheStats {
    lookups: gnnlab_par::sync::AtomicU64,
    hits: gnnlab_par::sync::AtomicU64,
    miss_bytes: gnnlab_par::sync::AtomicU64,
    hit_bytes: gnnlab_par::sync::AtomicU64,
}

impl AtomicCacheStats {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        AtomicCacheStats::default()
    }

    /// Adds a batch of locally accumulated stats.
    pub fn add(&self, batch: &CacheStats) {
        use gnnlab_par::sync::Ordering::Relaxed;
        self.lookups.fetch_add(batch.lookups, Relaxed);
        self.hits.fetch_add(batch.hits, Relaxed);
        self.miss_bytes.fetch_add(batch.miss_bytes, Relaxed);
        self.hit_bytes.fetch_add(batch.hit_bytes, Relaxed);
    }

    /// Current totals as a plain [`CacheStats`].
    pub fn snapshot(&self) -> CacheStats {
        use gnnlab_par::sync::Ordering::Relaxed;
        CacheStats {
            lookups: self.lookups.load(Relaxed),
            hits: self.hits.load(Relaxed),
            miss_bytes: self.miss_bytes.load(Relaxed),
            hit_bytes: self.hit_bytes.load(Relaxed),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        use gnnlab_par::sync::Ordering::Relaxed;
        self.lookups.store(0, Relaxed);
        self.hits.store(0, Relaxed);
        self.miss_bytes.store(0, Relaxed);
        self.hit_bytes.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::load_cache;

    fn table() -> CacheTable {
        // Cache vertices 0 and 1 of 4.
        load_cache(&[9.0, 8.0, 1.0, 0.0], 0.5, 4)
    }

    #[test]
    fn record_counts_hits_and_bytes() {
        let t = table();
        let mut s = CacheStats::default();
        s.record(&t, &[0, 1, 2, 3], 100);
        assert_eq!(s.lookups, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.hit_bytes, 200);
        assert_eq!(s.miss_bytes, 200);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(s.transferred_bytes(), 200);
    }

    #[test]
    fn empty_stats_hit_rate_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn add_accumulates() {
        let t = table();
        let mut a = CacheStats::default();
        a.record(&t, &[0], 10);
        let mut b = CacheStats::default();
        b.record(&t, &[3], 10);
        a.add(&b);
        assert_eq!(a.lookups, 2);
        assert_eq!(a.hits, 1);
    }

    #[test]
    fn publish_exports_totals_to_registry() {
        let t = table();
        let mut s = CacheStats::default();
        s.record(&t, &[0, 1, 2, 3], 100);
        let reg = gnnlab_obs::MetricsRegistry::new();
        s.publish(&reg);
        assert_eq!(reg.counter("cache.lookups"), 4.0);
        assert_eq!(reg.counter("cache.hits"), 2.0);
        assert_eq!(reg.counter("cache.misses"), 2.0);
        assert_eq!(reg.counter("cache.miss_bytes"), 200.0);
        assert_eq!(reg.gauge("cache.hit_rate").unwrap().last, 0.5);
    }

    #[test]
    fn atomic_stats_accumulate_and_reset() {
        let t = table();
        let acc = AtomicCacheStats::new();
        let mut a = CacheStats::default();
        a.record(&t, &[0, 2], 16);
        let mut b = CacheStats::default();
        b.record(&t, &[1, 3], 16);
        acc.add(&a);
        acc.add(&b);
        let mut expect = a;
        expect.add(&b);
        assert_eq!(acc.snapshot(), expect);
        acc.reset();
        assert_eq!(acc.snapshot(), CacheStats::default());
    }
}
