//! Property-based tests (proptest) on the core data structures and
//! invariants.

use gnnlab::cache::{load_cache, CacheStats};
use gnnlab::graph::gen::{chung_lu, uniform};
use gnnlab::graph::{GraphBuilder, VertexId};
use gnnlab::sampling::{
    footprint_similarity, KHop, Kernel, RandomWalk, SamplingAlgorithm, Selection,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any edge list with in-range endpoints builds a CSR that preserves
    /// exactly the multiset of edges.
    #[test]
    fn csr_roundtrips_edge_multiset(
        n in 2usize..50,
        edges in prop::collection::vec((0u32..50, 0u32..50), 0..200),
    ) {
        let edges: Vec<(VertexId, VertexId)> = edges
            .into_iter()
            .map(|(s, d)| (s % n as u32, d % n as u32))
            .collect();
        let mut b = GraphBuilder::new(n);
        for &(s, d) in &edges {
            b.add_edge(s, d);
        }
        let g = b.build().expect("in-range edges build");
        prop_assert_eq!(g.num_edges(), edges.len());
        let mut expect = edges.clone();
        expect.sort_unstable();
        let mut got: Vec<(VertexId, VertexId)> = Vec::new();
        for v in 0..n as VertexId {
            for &d in g.neighbors(v) {
                got.push((v, d));
            }
        }
        prop_assert_eq!(got, expect);
    }

    /// K-hop samples always validate: block chaining, local-id ranges,
    /// seeds as outputs — for arbitrary fanouts, kernels and seed sets.
    #[test]
    fn khop_samples_always_validate(
        seed in 0u64..1000,
        fanouts in prop::collection::vec(1usize..8, 1..4),
        reservoir in any::<bool>(),
        nseeds in 1usize..12,
    ) {
        let g = chung_lu(200, 2000, 2.0, 5).expect("valid");
        let kernel = if reservoir { Kernel::Reservoir } else { Kernel::FisherYates };
        let algo = KHop::new(fanouts, kernel, Selection::Uniform);
        let seeds: Vec<VertexId> = (0..nseeds as u32).map(|i| (i * 17) % 200).collect();
        // Seeds must be distinct for a mini-batch.
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = algo.sample(&g, &distinct, &mut rng);
        prop_assert!(s.validate().is_ok(), "{:?}", s.validate());
        // Input nodes contain every seed.
        for sd in &distinct {
            prop_assert!(s.input_nodes().contains(sd));
        }
        // No duplicate input nodes.
        let mut inputs = s.input_nodes().to_vec();
        inputs.sort_unstable();
        let len = inputs.len();
        inputs.dedup();
        prop_assert_eq!(inputs.len(), len);
    }

    /// Random-walk samples validate too.
    #[test]
    fn walk_samples_always_validate(
        seed in 0u64..1000,
        layers in 1usize..4,
        walks in 1usize..6,
        len in 1usize..5,
        keep in 1usize..8,
    ) {
        let g = chung_lu(150, 1500, 2.0, 6).expect("valid");
        let algo = RandomWalk::new(layers, walks, len, keep);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = algo.sample(&g, &[1, 5, 9], &mut rng);
        prop_assert!(s.validate().is_ok());
        prop_assert_eq!(s.blocks.len(), layers);
    }

    /// `load_cache` caches exactly ceil(alpha*n) vertices, they are the
    /// top-ranked ones, and the location map is a bijection onto slots.
    #[test]
    fn load_cache_invariants(
        n in 1usize..500,
        alpha in 0.0f64..1.0,
        seed in 0u64..100,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let hotness: Vec<f64> = (0..n).map(|_| rand::Rng::gen::<f64>(&mut rng)).collect();
        let t = load_cache(&hotness, alpha, n);
        let expect = ((alpha * n as f64).ceil() as usize).min(n);
        prop_assert_eq!(t.len(), expect);
        // Every cached vertex is at least as hot as every uncached one.
        let min_cached = t
            .cached_vertices()
            .iter()
            .map(|&v| hotness[v as usize])
            .fold(f64::INFINITY, f64::min);
        for v in 0..n as VertexId {
            if !t.contains(v) {
                prop_assert!(hotness[v as usize] <= min_cached + 1e-12);
            }
        }
        // Slots are consecutive and consistent.
        for (slot, &v) in t.cached_vertices().iter().enumerate() {
            prop_assert_eq!(t.slot(v), Some(slot as u32));
        }
    }

    /// Hit rate is always in [0,1] and equals hits/lookups.
    #[test]
    fn cache_stats_are_consistent(
        n in 10usize..200,
        alpha in 0.0f64..1.0,
        ids in prop::collection::vec(0u32..200, 1..100),
    ) {
        let hotness: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = load_cache(&hotness, alpha, n);
        let ids: Vec<VertexId> = ids.into_iter().map(|v| v % n as u32).collect();
        let mut stats = CacheStats::default();
        stats.record(&t, &ids, 16);
        prop_assert!(stats.hit_rate() >= 0.0 && stats.hit_rate() <= 1.0);
        prop_assert_eq!(stats.lookups, ids.len() as u64);
        prop_assert_eq!(stats.hit_bytes + stats.miss_bytes, ids.len() as u64 * 16);
    }

    /// Footprint similarity is within [0,1], symmetric in support, and 1
    /// for identical non-empty footprints.
    #[test]
    fn similarity_bounds(
        f in prop::collection::vec(0u64..20, 10..100),
        g in prop::collection::vec(0u64..20, 10..100),
        frac in 0.01f64..1.0,
    ) {
        let n = f.len().min(g.len());
        let (f, g) = (&f[..n], &g[..n]);
        let s = footprint_similarity(f, g, frac);
        prop_assert!((0.0..=1.0).contains(&s), "similarity {s}");
        // Self-similarity is exactly 1 whenever the top-fraction set is
        // non-empty (k = floor(n * frac) >= 1 and some vertex was visited).
        if f.iter().any(|&x| x > 0) && (n as f64 * frac) >= 1.0 {
            let self_sim = footprint_similarity(f, f, frac);
            prop_assert!((self_sim - 1.0).abs() < 1e-9);
        }
    }

    /// The GPU allocation rule always yields 1..=N_g-1 samplers on a
    /// multi-GPU machine and is monotone in the train/sample ratio.
    #[test]
    fn allocation_rule_bounds(
        gpus in 2usize..16,
        ts in 0.001f64..10.0,
        tt in 0.001f64..10.0,
    ) {
        let ns = gnnlab::core::schedule::num_samplers(gpus, ts, tt);
        prop_assert!(ns >= 1 && ns < gpus, "ns = {ns} of {gpus}");
        // More expensive training => no more samplers.
        let ns_heavier = gnnlab::core::schedule::num_samplers(gpus, ts, tt * 2.0);
        prop_assert!(ns_heavier <= ns);
    }

    /// Uniform graphs never lose or invent edges during sampling: every
    /// sampled (src, dst) pair is a real edge.
    #[test]
    fn sampled_edges_exist_in_graph(seed in 0u64..200) {
        let g = uniform(100, 1500, 9).expect("valid");
        let algo = KHop::new(vec![4, 3], Kernel::FisherYates, Selection::Uniform);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = algo.sample(&g, &[3, 7], &mut rng);
        for block in &s.blocks {
            for &(src_local, dst_local) in &block.edges {
                let src = block.src_globals[src_local as usize];
                let dst = block.src_globals[dst_local as usize];
                if src == dst {
                    continue; // self-connection added by the sampler
                }
                // The block edge points src -> dst in aggregation
                // direction, i.e. dst sampled src as its neighbor.
                prop_assert!(
                    g.neighbors(dst).contains(&src),
                    "edge {src}->{dst} not in graph"
                );
            }
        }
    }

    /// Per-executor cache tables fit the device budget their rows were
    /// planned against at any (dataset scale, model, α) draw: a dedicated
    /// Trainer caches exactly `ceil(α · n)` rows; a standby caches as many
    /// whole rows as those bytes hold beside topology and the sampling
    /// workspace, never more than the Trainer; and the table actually
    /// built at either row count occupies exactly those rows' bytes.
    #[test]
    fn planned_cache_tables_fit_their_ledger(
        n in 1usize..3000,
        edges_per_vertex in 0usize..30,
        feat_dim in 1usize..128,
        batch in 1usize..256,
        alpha in 0.0f64..1.01,
        model in 0usize..3,
    ) {
        use gnnlab::core::memory::{live_sample_workspace_bytes, plan_live_run, LiveGraphBytes};
        use gnnlab::tensor::ModelKind;

        let kind = [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::PinSage][model];
        let live = LiveGraphBytes::new(n, n * edges_per_vertex, feat_dim);
        let sample_ws = live_sample_workspace_bytes(kind, batch, n);
        let plan = plan_live_run(alpha, &live, sample_ws);
        let row_bytes = live.row_bytes;

        let want = ((alpha.clamp(0.0, 1.0) * n as f64).ceil() as usize).min(n);
        prop_assert_eq!(plan.trainer_rows, want);
        prop_assert!(plan.standby_rows <= plan.trainer_rows);
        // The standby's rows plus what else its device keeps fit the
        // Trainer's cache bytes, and one more row would not.
        let budget = plan.trainer_rows as u64 * row_bytes;
        let standby = |rows: usize| rows as u64 * row_bytes + live.topology + sample_ws;
        prop_assert!(plan.standby_rows == 0 || standby(plan.standby_rows) <= budget);
        prop_assert!(standby(plan.standby_rows + 1) > budget);
        for rows in [plan.trainer_rows, plan.standby_rows] {
            // The table actually built at that row count occupies exactly
            // the planned bytes — the planner's promise to the runtime.
            let hotness: Vec<f64> = (0..n)
                .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64)
                .collect();
            let table = gnnlab::cache::load_cache_topk(&hotness, rows, n);
            prop_assert_eq!(table.bytes(row_bytes), rows as u64 * row_bytes);
        }
    }
}
