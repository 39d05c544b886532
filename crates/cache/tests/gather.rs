//! The two-tier gather against a per-row scalar reference.
//!
//! `CachedFeatureStore::extract` picks its row width once per call,
//! selects the tier per row without a branch and counts hits per chunk.
//! None of that may move a bit: every output row must equal the host row
//! of its id, copied one float at a time, and the store's `CacheStats`
//! must equal `CacheStats::record` over the same ids — at every width
//! (each fixed-width arm and the generic one), every cache ratio and
//! every pool width.

use gnnlab_cache::{load_cache, CacheStats, CacheTable, CachedFeatureStore};
use gnnlab_graph::{FeatureStore, VertexId};
use gnnlab_par::ThreadPool;
use proptest::prelude::*;
use std::sync::Arc;

const VERTICES: usize = 48;
const RATIOS: [f64; 3] = [0.0, 0.2, 1.0];
const POOL_WIDTHS: [usize; 3] = [1, 2, 4];

/// Arbitrary bit patterns (NaN payloads included), so a copy that went
/// through a float operation would show.
fn host_data(dim: usize, salt: u32) -> Vec<f32> {
    (0..VERTICES * dim)
        .map(|i| f32::from_bits((i as u32 ^ salt).wrapping_mul(0x9E37_79B9).rotate_left(7)))
        .collect()
}

fn table(alpha: f64, salt: u32) -> CacheTable {
    let hotness: Vec<f64> = (0..VERTICES)
        .map(|v| ((v as u32).wrapping_mul(salt | 1) % 97) as f64)
        .collect();
    load_cache(&hotness, alpha, VERTICES)
}

/// What a gather must produce: each id's host row, float by float.
fn scalar_reference(data: &[f32], dim: usize, ids: &[VertexId]) -> Vec<u32> {
    let mut out = Vec::with_capacity(ids.len() * dim);
    for &v in ids {
        for j in 0..dim {
            out.push(data[v as usize * dim + j].to_bits());
        }
    }
    out
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Checks every width 1–70 × ratio × pool width on one id list.
fn check_ids(ids: &[VertexId], salt: u32, pools: &[Arc<ThreadPool>]) {
    for dim in 1..=70 {
        let data = host_data(dim, salt);
        let want = scalar_reference(&data, dim, ids);
        let host = Arc::new(FeatureStore::materialized(VERTICES, dim, data));
        for alpha in RATIOS {
            let table = table(alpha, salt);
            let mut want_stats = CacheStats::default();
            want_stats.record(&table, ids, (dim * 4) as u64);
            for pool in pools {
                let (store, _) = CachedFeatureStore::shared_with_pool(
                    Arc::clone(&host),
                    table.clone(),
                    Arc::clone(pool),
                );
                let at = format!("dim {dim}, alpha {alpha}, {} threads", pool.threads());
                assert_eq!(bits(&store.extract(ids)), want, "{at}");
                // Into a stale buffer of another length, as the consumers do.
                let mut buf = vec![f32::NAN; ids.len() * dim + 3];
                store.extract_to_buffer(ids, &mut buf);
                assert_eq!(bits(&buf), want, "{at}, recycled buffer");
                let mut twice = want_stats;
                twice.add(&want_stats);
                assert_eq!(store.stats(), twice, "{at}");
            }
        }
    }
}

fn pools() -> Vec<Arc<ThreadPool>> {
    POOL_WIDTHS
        .iter()
        .map(|&t| Arc::new(ThreadPool::new(t)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random id lists over a small vertex set, so most repeat ids.
    #[test]
    fn gather_equals_the_scalar_reference_bit_for_bit(
        ids in prop::collection::vec(0u32..VERTICES as u32, 1..40),
        salt in 0u32..10_000,
    ) {
        check_ids(&ids, salt, &pools());
    }
}

#[test]
fn empty_and_duplicate_ids_equal_the_scalar_reference() {
    let pools = pools();
    check_ids(&[], 3, &pools);
    check_ids(&[7; 9], 5, &pools);
    // Every vertex, then every vertex again in reverse: each row is both
    // a hit and a miss at α = 0.2, twice.
    let all: Vec<VertexId> = (0..VERTICES as u32)
        .chain((0..VERTICES as u32).rev())
        .collect();
    check_ids(&all, 11, &pools);
}
