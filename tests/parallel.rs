//! Bit-identity properties of the data-parallel hot paths.
//!
//! The pool parallelizes by tiling *outputs* into disjoint chunks, so
//! every float is produced by the same sequence of operations regardless
//! of thread count. These tests pin that contract: any divergence between
//! a 1-thread and a k-thread run — in extract output, cache stats,
//! hotness maps, sampling or trace recording — is a bug, not noise.

use gnnlab::cache::{load_cache, CachePolicy, CacheTable, CachedFeatureStore, PolicyKind};
use gnnlab::core::trace::EpochTrace;
use gnnlab::core::workload::Workload;
use gnnlab::graph::gen::{chung_lu, recency_weights};
use gnnlab::graph::{Dataset, FeatureStore, VertexId};
use gnnlab::par::ThreadPool;
use gnnlab::sampling::{
    AlgorithmKind, KHop, Kernel, MinibatchIter, RandomWalk, Sample, SampleBuffers,
    SamplingAlgorithm, Selection,
};
use gnnlab::tensor::ModelKind;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn feature_host(n: usize, dim: usize, salt: u32) -> FeatureStore {
    let data: Vec<f32> = (0..n * dim)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761 ^ salt) % 1009) as f32 * 0.25)
        .collect();
    FeatureStore::materialized(n, dim, data)
}

fn skewed_table(n: usize, alpha: f64) -> CacheTable {
    let hotness: Vec<f64> = (0..n).map(|v| ((v * 48_271) % n) as f64).collect();
    load_cache(&hotness, alpha, n)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel extract returns the same bytes and the same stats as a
    /// 1-thread pool, for any dim, cache ratio and id multiset.
    #[test]
    fn parallel_extract_matches_sequential(
        dim in 1usize..24,
        alpha in 0.05f64..0.9,
        nids in 0usize..300,
        salt in 0u32..1000,
    ) {
        let n = 500usize;
        let ids: Vec<VertexId> = (0..nids as u32)
            .map(|i| i.wrapping_mul(salt.wrapping_mul(2) + 13) % n as u32)
            .collect();
        let seq = CachedFeatureStore::with_pool(
            feature_host(n, dim, salt),
            skewed_table(n, alpha),
            Arc::new(ThreadPool::new(1)),
        );
        let want = seq.extract(&ids);
        for t in THREAD_COUNTS {
            let par = CachedFeatureStore::with_pool(
                feature_host(n, dim, salt),
                skewed_table(n, alpha),
                Arc::new(ThreadPool::new(t)),
            );
            let got = par.extract(&ids);
            prop_assert_eq!(
                want.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "extract diverged at {} threads", t
            );
            prop_assert_eq!(seq.stats(), par.stats(), "stats diverged at {} threads", t);
        }
    }

    /// PreSC pre-sampling produces a bitwise-identical hotness map and
    /// exact work counters at every thread count: each batch owns its own
    /// ChaCha stream, and merges are integer adds in batch order.
    #[test]
    fn parallel_presampling_matches_sequential(
        k in 1u32..3,
        batch_size in 8usize..40,
        seed in 0u64..1000,
    ) {
        let g = chung_lu(300, 4000, 2.0, 9).expect("valid parameters");
        let train: Vec<VertexId> = (0..100).collect();
        let algo = KHop::new(vec![10, 5], Kernel::FisherYates, Selection::Uniform);
        let kind = PolicyKind::PreSC { k };
        let want = CachePolicy::hotness_with_pool(
            kind, &g, &train, &algo, batch_size, seed, &ThreadPool::new(1));
        for t in THREAD_COUNTS {
            let got = CachePolicy::hotness_with_pool(
                kind, &g, &train, &algo, batch_size, seed, &ThreadPool::new(t));
            prop_assert_eq!(
                want.hotness.iter().map(|h| h.to_bits()).collect::<Vec<_>>(),
                got.hotness.iter().map(|h| h.to_bits()).collect::<Vec<_>>(),
                "hotness diverged at {} threads", t
            );
            prop_assert_eq!(want.presample_work, got.presample_work);
            prop_assert_eq!(want.presample_epochs, got.presample_epochs);
        }
    }

    /// A recorded epoch is the same at every pool width, field for field,
    /// for every sampler the co-sim records: uniform k-hop under both
    /// kernels, weighted k-hop and random walks. Each batch draws from its
    /// own `(seed, epoch, batch)` stream and the chunks concatenate in
    /// order. The training set has 101 vertices, a prime, so every epoch
    /// ends on a short batch.
    #[test]
    fn parallel_trace_recording_matches_sequential(
        batch_size in 8usize..40,
        seed in 0u64..1000,
        epoch in 0u64..4,
    ) {
        let csr = recency_weights(chung_lu(300, 4000, 2.0, 9).expect("valid parameters"), 1)
            .expect("valid weights");
        let train: Vec<VertexId> = (0..101).map(|i| (i * 7 + 3) % 300).collect();
        let dataset = Dataset::custom(csr, FeatureStore::virtual_store(300, 16), train);
        let recorders = [
            (ModelKind::Gcn, AlgorithmKind::Khop3Random, Kernel::FisherYates),
            (ModelKind::Gcn, AlgorithmKind::Khop3Random, Kernel::Reservoir),
            (ModelKind::Gcn, AlgorithmKind::Khop3Weighted, Kernel::FisherYates),
            (ModelKind::PinSage, AlgorithmKind::RandomWalks, Kernel::FisherYates),
        ];
        let pools = THREAD_COUNTS.map(ThreadPool::new);
        for (model, algorithm, kernel) in recorders {
            let w = Workload::with_dataset(model, dataset.clone(), 8, seed)
                .with_algorithm(algorithm);
            let record =
                |pool: &ThreadPool| EpochTrace::record_with_pool(&w, kernel, epoch, batch_size, pool);
            let want = record(&ThreadPool::new(1));
            prop_assert_eq!(want.num_batches(), 101usize.div_ceil(batch_size));
            for pool in &pools {
                let got = record(pool);
                let t = pool.threads();
                prop_assert_eq!(got.factor.to_bits(), want.factor.to_bits());
                prop_assert_eq!(got.launch_scale.to_bits(), want.launch_scale.to_bits());
                prop_assert_eq!(got.num_batches(), want.num_batches());
                for (b, (x, y)) in got.batches.iter().zip(&want.batches).enumerate() {
                    prop_assert_eq!(x.work, y.work, "{:?} batch {} at {} threads", algorithm, b, t);
                    prop_assert_eq!(&x.input_nodes, &y.input_nodes, "batch {} at {} threads", b, t);
                    prop_assert_eq!(x.flops.to_bits(), y.flops.to_bits(), "batch {} at {} threads", b, t);
                    prop_assert_eq!(x.queue_bytes, y.queue_bytes, "batch {} at {} threads", b, t);
                }
            }
        }
    }

    /// Reusing `SampleBuffers` + an output `Sample` across mini-batches —
    /// as the threaded Sampler refills a trained task's sample — yields
    /// exactly what a fresh `sample_with` yields (same draws, same blocks,
    /// same work counters), for every sampler the runtime uses: uniform
    /// k-hop under both kernels, weighted k-hop and random walks. The
    /// recycled sample last held a batch of another size (every epoch here
    /// ends on a short batch, and the next one is full again) and carries
    /// the stale cache mask a trained task comes back with; the fill must
    /// clear it.
    #[test]
    fn buffer_reuse_matches_fresh_sampling(
        seed in 0u64..1000,
        fanouts in prop::collection::vec(1usize..8, 1..4),
        batch_size in 3usize..12,
    ) {
        let g = recency_weights(chung_lu(200, 2000, 2.0, 5).expect("valid parameters"), 1)
            .expect("valid weights");
        let samplers: [Box<dyn SamplingAlgorithm>; 4] = [
            Box::new(KHop::new(fanouts.clone(), Kernel::FisherYates, Selection::Uniform)),
            Box::new(KHop::new(fanouts.clone(), Kernel::Reservoir, Selection::Uniform)),
            Box::new(KHop::new(fanouts.clone(), Kernel::FisherYates, Selection::Weighted)),
            Box::new(RandomWalk::new(fanouts.len(), 3, 3, fanouts[0])),
        ];
        // 37 is prime, so no batch size here divides it.
        let train: Vec<VertexId> = (0..37).map(|i| (i * 13 + 7) % 200).collect();
        for algo in &samplers {
            let mut fresh_rng = ChaCha8Rng::seed_from_u64(seed);
            let mut reuse_rng = ChaCha8Rng::seed_from_u64(seed);
            let mut bufs = SampleBuffers::new();
            let mut out = Sample::default();
            for epoch in 0..2 {
                for seeds in MinibatchIter::new(&train, batch_size, seed, epoch) {
                    let fresh =
                        algo.sample_with(&g, &seeds, &mut fresh_rng, &mut SampleBuffers::new());
                    out.cache_mask = Some(vec![true; out.num_input_nodes() + 1]);
                    algo.sample_into(&g, &seeds, &mut reuse_rng, &mut bufs, &mut out);
                    assert_eq!(out.cache_mask, None, "{}: a refill kept its stale mask", algo.name());
                    assert_samples_equal(&fresh, &out);
                }
            }
        }
    }
}
