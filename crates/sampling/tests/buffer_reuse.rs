//! One `SampleBuffers` carried across graphs of different sizes — small,
//! then large, then small again — must sample exactly what fresh buffers
//! do: the remap table grows for the large graph, and its stamps from the
//! large graph must not leak into the small one that follows.

use gnnlab_graph::gen::{chung_lu, recency_weights};
use gnnlab_graph::{Csr, VertexId};
use gnnlab_sampling::{
    KHop, Kernel, RandomWalk, Sample, SampleBuffers, SamplingAlgorithm, Selection,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn assert_samples_equal(fresh: &Sample, reused: &Sample, what: &str) {
    assert_eq!(fresh.seeds, reused.seeds, "{what}: seeds");
    assert_eq!(fresh.visit_list, reused.visit_list, "{what}: visit list");
    assert_eq!(fresh.work, reused.work, "{what}: work");
    assert_eq!(fresh.blocks.len(), reused.blocks.len(), "{what}: blocks");
    for (i, (a, b)) in fresh.blocks.iter().zip(&reused.blocks).enumerate() {
        assert_eq!(a.src_globals, b.src_globals, "{what}: block {i} src");
        assert_eq!(a.dst_count, b.dst_count, "{what}: block {i} dst count");
        assert_eq!(a.edges, b.edges, "{what}: block {i} edges");
    }
}

#[test]
fn buffers_carried_across_graph_sizes_match_fresh_ones() {
    // Weighted, so the weighted k-hop draws from the CDF instead of
    // falling back to uniform; the other samplers ignore the weights.
    let small = recency_weights(chung_lu(80, 1_200, 2.0, 5).unwrap(), 1).unwrap();
    let large = recency_weights(chung_lu(5_000, 120_000, 2.0, 6).unwrap(), 2).unwrap();
    let algos: [(&str, Box<dyn SamplingAlgorithm>); 4] = [
        (
            "fisher-yates",
            Box::new(KHop::new(
                vec![15, 10, 5],
                Kernel::FisherYates,
                Selection::Uniform,
            )),
        ),
        (
            "reservoir",
            Box::new(KHop::new(
                vec![15, 10, 5],
                Kernel::Reservoir,
                Selection::Uniform,
            )),
        ),
        (
            "weighted",
            Box::new(KHop::new(
                vec![15, 10, 5],
                Kernel::FisherYates,
                Selection::Weighted,
            )),
        ),
        ("pinsage", Box::new(RandomWalk::pinsage())),
    ];
    let rounds: [(&str, &Csr, Vec<VertexId>); 3] = [
        ("small", &small, (0..12).collect()),
        ("large", &large, (4_900..4_964).collect()),
        ("small again", &small, (60..80).collect()),
    ];
    for (name, algo) in &algos {
        let mut bufs = SampleBuffers::new();
        let mut reused = Sample::default();
        for (round, graph, seeds) in &rounds {
            let what = format!("{name} on the {round} graph");
            let mut rng_fresh = ChaCha8Rng::seed_from_u64(31);
            let mut rng_reused = ChaCha8Rng::seed_from_u64(31);
            let fresh = algo.sample(graph, seeds, &mut rng_fresh);
            algo.sample_into(graph, seeds, &mut rng_reused, &mut bufs, &mut reused);
            reused.validate().unwrap();
            assert_samples_equal(&fresh, &reused, &what);
            // Touch vertices past the small graph's last id, so a later
            // small round reads slots the large round stamped.
            if *round == "large" {
                assert!(reused.input_nodes().iter().any(|&v| v >= 80), "{what}");
            }
        }
    }
}
