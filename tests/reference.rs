//! The threaded runtime held to a sequential reference: one Sampler, one
//! Trainer and no switching must train exactly what a plain loop trains —
//! no queue, no cache, no threads, one model and one Adam step per batch —
//! bit for bit in the per-batch history, the final parameters and the
//! held-out accuracy.
//!
//! The reference re-derives the run's random streams from the seed (the
//! vertex split, the per-epoch shuffle, the master's initialization and
//! the held-out evaluation's per-chunk streams, each SplitMix64-tagged as
//! the runtime tags them), samples batch `b` of epoch `e` from
//! `presample_rng(seed, e, b)` with the model's sampler, and gathers the
//! host feature rows. Whatever the runtime adds — pre-sampled epoch 0,
//! the two-tier cache, the Extract fan-out, leases, the parameter
//! server, recycled tasks and buffers — must be invisible here.
//!
//! The extract-parallel width sweeps 1, 2 and 4; CI's `reference-identity`
//! matrix pins it with `GNNLAB_PIPE_THREADS`.

use gnnlab::core::threaded::{run_threaded, ThreadedConfig, ThreadedResult};
use gnnlab::core::train_real::sampler_for;
use gnnlab::core::FaultPlan;
use gnnlab::graph::gen::{sbm, SbmGraph, SbmParams};
use gnnlab::graph::trainset::random_train_set;
use gnnlab::graph::VertexId;
use gnnlab::sampling::{presample_rng, MinibatchIter};
use gnnlab::tensor::loss::correct_predictions;
use gnnlab::tensor::{Adam, GnnModel, Matrix, ModelConfig, ModelKind};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;
use std::time::Duration;

/// The `handoff_bound` shape, shrunk: eight features, degree 6, and (in
/// [`narrow_cfg`]) batches of eight through a four-deep queue, so the
/// gather is a few microseconds and the handoff dominates.
fn narrow_graph() -> &'static SbmGraph {
    static GRAPH: OnceLock<SbmGraph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        sbm(&SbmParams {
            num_vertices: 400,
            num_classes: 4,
            avg_degree: 6.0,
            intra_prob: 0.9,
            feat_dim: 8,
            noise: 0.6,
            seed: 17,
        })
        .expect("valid SBM parameters")
    })
}

/// A graph whose gather dominates: several hundred input rows of 256
/// features per batch, and sparse, so the train step (which pays per
/// edge) stays affordable unoptimised.
fn wide_graph() -> &'static SbmGraph {
    static GRAPH: OnceLock<SbmGraph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        sbm(&SbmParams {
            num_vertices: 960,
            num_classes: 3,
            avg_degree: 3.0,
            intra_prob: 0.9,
            feat_dim: 256,
            noise: 0.6,
            seed: 13,
        })
        .expect("valid SBM parameters")
    })
}

/// One Sampler, one Trainer, no switching: the only configuration whose
/// training order is a function of the config alone.
fn base_cfg(seed: u64, alpha: f64, threads: usize) -> ThreadedConfig {
    ThreadedConfig {
        num_samplers: 1,
        num_trainers: 1,
        dynamic_switching: false,
        queue_capacity: 4,
        cache_alpha: alpha,
        threads,
        seed,
        ..Default::default()
    }
}

/// [`narrow_graph`]'s run: two epochs of 25 batches of eight.
fn narrow_cfg(seed: u64, alpha: f64, threads: usize) -> ThreadedConfig {
    ThreadedConfig {
        epochs: 2,
        batch_size: 8,
        hidden_dim: 4,
        ..base_cfg(seed, alpha, threads)
    }
}

/// [`wide_graph`]'s run: one epoch of eight batches, two hidden units to
/// keep the debug-profile train step cheap under 256 features.
fn wide_cfg(seed: u64, alpha: f64, threads: usize) -> ThreadedConfig {
    ThreadedConfig {
        epochs: 1,
        batch_size: 60,
        hidden_dim: 2,
        ..base_cfg(seed, alpha, threads)
    }
}

/// The extract widths to sweep: the one `GNNLAB_PIPE_THREADS` pins, or
/// all three.
fn widths() -> Vec<usize> {
    match std::env::var("GNNLAB_PIPE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(w) => vec![w],
        None => vec![1, 2, 4],
    }
}

/// SplitMix64's finalizer, as the runtime derives its streams.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of the run's stream for `(role, index)`. The roles the
/// reference needs: 1 the master's initialization, 5 the held-out
/// evaluation, 6 the vertex split, 7 the per-epoch shuffle.
fn stream(seed: u64, role: u64, index: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ role) ^ index)
}

/// The host feature rows of `ids`.
fn gather(g: &SbmGraph, ids: &[VertexId]) -> Matrix {
    let d = g.feat_dim;
    let data = ids
        .iter()
        .flat_map(|&v| &g.features[v as usize * d..(v as usize + 1) * d])
        .copied()
        .collect();
    Matrix::from_vec(ids.len(), d, data)
}

fn labels(g: &SbmGraph, ids: &[VertexId]) -> Vec<u32> {
    ids.iter().map(|&v| g.labels[v as usize]).collect()
}

/// What training produced, bit for bit: `(id, loss, accuracy)` per batch,
/// the final parameters, and the held-out accuracy.
#[derive(Debug, PartialEq)]
struct Trained {
    history: Vec<(u64, u32, u64)>,
    params: Vec<u32>,
    accuracy: u64,
}

fn trained(res: &ThreadedResult) -> Trained {
    Trained {
        history: res
            .history
            .iter()
            .map(|r| (r.id, r.loss.to_bits(), r.acc.to_bits()))
            .collect(),
        params: res.final_params.iter().map(|p| p.to_bits()).collect(),
        accuracy: res.final_accuracy.to_bits(),
    }
}

/// The sequential reference: every batch of every epoch in order, each
/// sampled, gathered, trained and stepped on before the next begins;
/// then the held-out half evaluated chunk by chunk.
fn reference(g: &SbmGraph, kind: ModelKind, cfg: &ThreadedConfig) -> Trained {
    let n = g.csr.num_vertices();
    let train_set = random_train_set(n, n / 2, stream(cfg.seed, 6, 0));
    let mut in_train = vec![false; n];
    for &v in &train_set {
        in_train[v as usize] = true;
    }
    let test_set: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| !in_train[v as usize])
        .collect();
    let algo = sampler_for(kind);
    let mut model = GnnModel::new(ModelConfig {
        kind,
        in_dim: g.feat_dim,
        hidden_dim: cfg.hidden_dim,
        num_classes: g.num_classes,
        seed: stream(cfg.seed, 1, 0),
    });
    let mut opt = Adam::new(cfg.lr);
    let batches_per_epoch = train_set.len().div_ceil(cfg.batch_size);
    let mut history = Vec::new();
    let mut order = Vec::new();
    for epoch in 0..cfg.epochs as u64 {
        MinibatchIter::shuffle_into(&train_set, stream(cfg.seed, 7, 0), epoch, &mut order);
        for (b, seeds) in order.chunks(cfg.batch_size).enumerate() {
            let mut rng = presample_rng(cfg.seed, epoch, b as u64);
            let sample = algo.sample(&g.csr, seeds, &mut rng);
            let feats = gather(g, sample.input_nodes());
            let (loss, acc) = model.train_batch(&sample, &feats, &labels(g, seeds));
            opt.step_scaled(model.params_iter_mut(), 1.0);
            let id = epoch * batches_per_epoch as u64 + b as u64;
            history.push((id, loss.to_bits(), acc.to_bits()));
        }
    }
    let mut params = Vec::new();
    for p in model.params_iter_mut() {
        params.extend(p.value.data().iter().map(|x| x.to_bits()));
    }
    let mut correct = 0;
    for (i, chunk) in test_set.chunks(cfg.batch_size).enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(stream(cfg.seed, 5, i as u64));
        let sample = algo.sample(&g.csr, chunk, &mut rng);
        let logits = model.forward(&sample, &gather(g, sample.input_nodes()));
        correct += correct_predictions(&logits, &labels(g, chunk));
    }
    Trained {
        history,
        params,
        accuracy: (correct as f64 / test_set.len() as f64).to_bits(),
    }
}

proptest! {
    // Each case trains one reference and up to nine threaded runs.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On the narrow graph, for a GraphSAGE's two hops or a GCN's three,
    /// at every cache ratio (α = 0 skips pre-sampling and the cache; 1.0
    /// caches every row) and every extract width, the threaded run equals
    /// the reference.
    #[test]
    fn narrow_run_equals_the_sequential_reference(seed in 0u64..1_000, gcn in any::<bool>()) {
        let kind = if gcn { ModelKind::Gcn } else { ModelKind::GraphSage };
        let want = reference(narrow_graph(), kind, &narrow_cfg(seed, 0.0, 1));
        prop_assert_eq!(want.history.len(), 50);
        for alpha in [0.0, 0.3, 1.0] {
            for threads in widths() {
                let cfg = narrow_cfg(seed, alpha, threads);
                let res = run_threaded(narrow_graph(), kind, &cfg).expect("healthy run");
                prop_assert_eq!(&trained(&res), &want, "alpha {} threads {}", alpha, threads);
            }
        }
    }
}

/// On the wide graph the gather is most of a batch; the runtime still
/// equals the reference at every extract width.
#[test]
fn wide_run_equals_the_sequential_reference() {
    for seed in [3, 8] {
        let want = reference(wide_graph(), ModelKind::GraphSage, &wide_cfg(seed, 0.3, 1));
        for threads in widths() {
            let cfg = wide_cfg(seed, 0.3, threads);
            let res = run_threaded(wide_graph(), ModelKind::GraphSage, &cfg).expect("healthy run");
            assert_eq!(trained(&res), want, "seed {seed} threads {threads}");
        }
    }
}

/// A Trainer that dies holding its one lease: the supervisor reclaims the
/// batch to the front of the queue, a replacement trains it next, and the
/// run still equals the reference. A slow Trainer keeps the queue full
/// when the crash fires, so a replay that did not go to the front would
/// train out of order.
#[test]
fn a_crashed_trainer_replays_its_one_batch_and_equals_the_reference() {
    let seed = 7;
    let want = reference(
        narrow_graph(),
        ModelKind::GraphSage,
        &narrow_cfg(seed, 0.3, 1),
    );
    for threads in widths() {
        let cfg = ThreadedConfig {
            faults: FaultPlan::crash_trainer(0, 5).with_seed(seed),
            trainer_delay: Some(Duration::from_millis(1)),
            ..narrow_cfg(seed, 0.3, threads)
        };
        let res =
            run_threaded(narrow_graph(), ModelKind::GraphSage, &cfg).expect("crash within budget");
        assert_eq!(res.recovery.faults_injected, 1);
        assert_eq!(
            res.recovery.replayed_batches, 1,
            "one consumer holds one lease"
        );
        assert_eq!(res.recovery.respawns, 1);
        assert_eq!(trained(&res), want, "threads {threads}");
    }
}
