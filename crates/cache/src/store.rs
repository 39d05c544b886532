//! A real two-tier feature store: GPU-cache rows + host rows.
//!
//! The performance experiments only account bytes; this store actually
//! *executes* the Trainer's Extract stage: cached rows are served from a
//! dense device-resident buffer (slot-indexed), misses fall back to the
//! host store, and every call records [`CacheStats`]. Used by the threaded
//! runtime and available to downstream users who want real extraction.
//!
//! Extraction is data-parallel: the output buffer is split into disjoint
//! row chunks fanned across a [`ThreadPool`], each worker gathering its
//! rows through `gnnlab_par::gather_rows_into` and adding one
//! [`CacheStats`], derived from the chunk's hit count, to a lock-free
//! [`AtomicCacheStats`]. Because each output row is
//! written by exactly one worker via a pure copy, the extracted buffer is
//! byte-identical at every thread count.

use crate::metrics::{AtomicCacheStats, CacheStats};
use crate::table::CacheTable;
use gnnlab_graph::{FeatureStore, VertexId};
use gnnlab_par::{gather_dense_into, gather_rows_into, ThreadPool};
use std::sync::Arc;

/// What one cache fill (build or refresh) actually moved: the quantities
/// a span-instrumented cache-refresh stage reports alongside its elapsed
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheFill {
    /// Feature rows copied into the device tier.
    pub rows: usize,
    /// Bytes those rows occupy.
    pub bytes: u64,
    /// Disjoint chunks the fill fanned out as (1 on a single-thread pool).
    pub chunks: usize,
}

/// A feature store split between a static device cache and host memory.
pub struct CachedFeatureStore {
    /// The host tier is shared: per-executor stores on one node differ
    /// only in their device-resident cache, never in the DRAM features.
    host: Arc<FeatureStore>,
    table: CacheTable,
    /// Dense row-major buffer of the cached rows, in slot order — the
    /// "GPU memory" tier.
    device_rows: Vec<f32>,
    dim: usize,
    stats: AtomicCacheStats,
    pool: Arc<ThreadPool>,
}

impl CachedFeatureStore {
    /// Builds the store by copying the cached vertices' rows out of
    /// `host` (the cache-fill step of preprocessing, Table 6 P2); fill
    /// and extraction fan out across `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is virtual (no real rows to serve) or the table
    /// covers a different vertex count.
    pub fn with_pool(host: FeatureStore, table: CacheTable, pool: Arc<ThreadPool>) -> Self {
        Self::shared_with_pool(Arc::new(host), table, pool).0
    }

    /// Builds a store over a *shared* host tier — several executors on one
    /// node each own a device cache (their own table + rows + stats) while
    /// the DRAM features stay single-copy. Returns the store plus a
    /// [`CacheFill`] report so callers can account the refresh cost.
    ///
    /// The fill is chunked across `pool` exactly like extraction: disjoint
    /// row ranges of the device buffer, each worker copying its rows, so a
    /// standby Trainer's cache refresh parallelizes and the result is
    /// byte-identical at every thread count.
    ///
    /// # Panics
    ///
    /// See [`CachedFeatureStore::with_pool`].
    pub fn shared_with_pool(
        host: Arc<FeatureStore>,
        table: CacheTable,
        pool: Arc<ThreadPool>,
    ) -> (Self, CacheFill) {
        let dim = host.dim();
        let rows = table.len();
        let host_rows = host_rows(&host);
        // SAFETY: par_chunks_mut covers the buffer with disjoint row
        // chunks and gather_dense_into copies `dim` floats into every row,
        // so each element is written exactly once before first read.
        let mut device_rows = unsafe { gnnlab_par::uninit_f32_vec(rows * dim) };
        let cached = table.cached_vertices();
        pool.par_chunks_mut(&mut device_rows, dim, |_, range, chunk| {
            gather_dense_into(&cached[range], dim, chunk, host_rows);
        });
        let fill = CacheFill {
            rows,
            bytes: rows as u64 * (dim * std::mem::size_of::<f32>()) as u64,
            chunks: pool.partitions(rows),
        };
        let store = CachedFeatureStore {
            host,
            table,
            device_rows,
            dim,
            stats: AtomicCacheStats::new(),
            pool,
        };
        (store, fill)
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying cache table.
    pub fn table(&self) -> &CacheTable {
        &self.table
    }

    /// Extracts rows for `ids` into a dense row-major buffer, serving hits
    /// from the device tier and misses from the host tier, recording
    /// stats.
    pub fn extract(&self, ids: &[VertexId]) -> Vec<f32> {
        // SAFETY: every element of `out` is written exactly once below —
        // par_chunks_mut covers the full buffer with disjoint row chunks
        // and gather_rows_into copies `dim` floats into every row.
        let mut out = unsafe { gnnlab_par::uninit_f32_vec(ids.len() * self.dim) };
        self.extract_into(ids, &mut out);
        out
    }

    /// [`CachedFeatureStore::extract`] into a caller-owned buffer of
    /// exactly `ids.len() * dim` floats.
    pub fn extract_into(&self, ids: &[VertexId], out: &mut [f32]) {
        let row_bytes = (self.dim * std::mem::size_of::<f32>()) as u64;
        let host_rows = host_rows(&self.host);
        self.pool.par_chunks_mut(out, self.dim, |_, rows, chunk| {
            let ids = &ids[rows];
            let hits = gather_rows_into(ids, self.dim, chunk, &self.device_rows, host_rows, |v| {
                self.table.locate(v)
            }) as u64;
            let misses = ids.len() as u64 - hits;
            self.stats.add(&CacheStats {
                lookups: ids.len() as u64,
                hits,
                miss_bytes: misses * row_bytes,
                hit_bytes: hits * row_bytes,
            });
        });
    }

    /// [`CachedFeatureStore::extract_into`] through a reusable `Vec`: the
    /// buffer is resized to `ids.len() * dim` (reusing its capacity — no
    /// allocation once it has grown to the steady-state batch size) and
    /// filled. The threaded consumer gathers every batch into one
    /// recycled buffer through it.
    pub fn extract_to_buffer(&self, ids: &[VertexId], buf: &mut Vec<f32>) {
        // The previous batch's contents stay: `extract_into` overwrites
        // every row, so only a grown tail is ever filled — clearing first
        // would memset the whole buffer per batch, which `extract` avoids.
        buf.resize(ids.len() * self.dim, 0.0);
        self.extract_into(ids, buf);
    }

    /// Cumulative extraction statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Resets the statistics (e.g. between epochs).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }
}

/// The host tier's row-major rows.
fn host_rows(host: &FeatureStore) -> &[f32] {
    gnnlab_par::invariant!(
        host.data(),
        "a CachedFeatureStore requires materialized host features"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::load_cache;

    fn store(alpha: f64) -> CachedFeatureStore {
        // 6 vertices, dim 2, row v = [v, 10v]; hotness = id (cache highest).
        let data: Vec<f32> = (0..6).flat_map(|v| [v as f32, 10.0 * v as f32]).collect();
        let host = FeatureStore::materialized(6, 2, data);
        let hotness: Vec<f64> = (0..6).map(|v| v as f64).collect();
        let table = load_cache(&hotness, alpha, 6);
        CachedFeatureStore::with_pool(host, table, Arc::new(ThreadPool::new(1)))
    }

    #[test]
    fn extract_returns_correct_rows_from_both_tiers() {
        let s = store(0.34); // caches vertices 5, 4
        assert!(s.table().contains(5));
        assert!(!s.table().contains(0));
        let out = s.extract(&[5, 0, 4]);
        assert_eq!(out, vec![5.0, 50.0, 0.0, 0.0, 4.0, 40.0]);
        let stats = s.stats();
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.miss_bytes, 8);
    }

    #[test]
    fn full_cache_never_misses() {
        let s = store(1.0);
        let _ = s.extract(&[0, 1, 2, 3, 4, 5]);
        assert!((s.stats().hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cache_always_misses_but_serves_data() {
        let s = store(0.0);
        let out = s.extract(&[3]);
        assert_eq!(out, vec![3.0, 30.0]);
        assert_eq!(s.stats().hits, 0);
    }

    #[test]
    fn reset_clears_stats() {
        let s = store(0.5);
        let _ = s.extract(&[0, 5]);
        assert!(s.stats().lookups > 0);
        s.reset_stats();
        assert_eq!(s.stats().lookups, 0);
    }

    #[test]
    fn extract_into_matches_extract() {
        let s = store(0.5);
        let ids = vec![0, 5, 2, 4, 4, 1];
        let owned = s.extract(&ids);
        let mut buf = vec![0.0f32; ids.len() * s.dim()];
        s.extract_into(&ids, &mut buf);
        assert_eq!(owned, buf);
    }

    #[test]
    fn extract_to_buffer_resizes_and_reuses_capacity() {
        let s = store(0.5);
        let ids = vec![0, 5, 2, 4];
        let owned = s.extract(&ids);
        let mut buf: Vec<f32> = Vec::new();
        s.extract_to_buffer(&ids, &mut buf);
        assert_eq!(owned, buf);
        // A second extract of the same batch size reuses the allocation.
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        s.extract_to_buffer(&ids, &mut buf);
        assert_eq!(owned, buf);
        assert_eq!((buf.capacity(), buf.as_ptr()), (cap, ptr), "reallocated");
        // A smaller batch shrinks the length, not the capacity.
        s.extract_to_buffer(&ids[..2], &mut buf);
        assert_eq!(buf.len(), 2 * s.dim());
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn extract_to_buffer_overwrites_stale_contents_of_any_length() {
        let s = store(0.5);
        let ids = vec![3, 0, 5, 1];
        let owned = s.extract(&ids);
        for stale_len in [ids.len() * s.dim() + 6, 3] {
            let mut buf = vec![f32::NAN; stale_len];
            s.extract_to_buffer(&ids, &mut buf);
            assert_eq!(owned, buf, "stale length {stale_len}");
        }
    }

    #[test]
    fn parallel_extract_is_identical_to_sequential() {
        let data: Vec<f32> = (0..64).flat_map(|v| [v as f32, -(v as f32)]).collect();
        let hotness: Vec<f64> = (0..64).map(|v| v as f64).collect();
        let ids: Vec<VertexId> = (0..64).chain((0..64).rev()).collect();
        let build = |threads: usize| {
            CachedFeatureStore::with_pool(
                FeatureStore::materialized(64, 2, data.clone()),
                load_cache(&hotness, 0.25, 64),
                Arc::new(ThreadPool::new(threads)),
            )
        };
        let seq = build(1);
        let base = seq.extract(&ids);
        for threads in [2, 4, 8] {
            let par = build(threads);
            assert_eq!(par.extract(&ids), base, "{threads} threads");
            assert_eq!(par.stats(), seq.stats(), "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "materialized")]
    fn virtual_host_is_rejected() {
        let host = FeatureStore::virtual_store(4, 2);
        let table = load_cache(&[1.0, 2.0, 3.0, 4.0], 0.5, 4);
        let _ = CachedFeatureStore::with_pool(host, table, Arc::new(ThreadPool::new(1)));
    }
}
