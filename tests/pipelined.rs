//! Intra-trainer SET pipelining acceptance: the depth-1 pipelined
//! consumer (double-buffered extract prefetch + burst queue handoff) is
//! bit-identical to the depth-0 serial reference — also when its profit
//! gate opens half-way through a run — a crash with two in-flight leases
//! replays both exactly once, the pipeline metrics report real overlap
//! where the gather outweighs the hop, and no batch crosses to the
//! prefetch worker where it does not.
//!
//! The extract-parallel width defaults to a proptest draw; CI's
//! pipeline-identity matrix pins it via `GNNLAB_PIPE_THREADS` so the
//! identity holds at every width it sweeps.

use gnnlab::core::threaded::{run_threaded, run_threaded_obs, ThreadedConfig, ThreadedResult};
use gnnlab::core::FaultPlan;
use gnnlab::graph::gen::{sbm, SbmGraph, SbmParams};
use gnnlab::obs::{names, Obs, Stage};
use gnnlab::tensor::ModelKind;
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn graph() -> &'static SbmGraph {
    static GRAPH: OnceLock<SbmGraph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        sbm(&SbmParams {
            num_vertices: 240,
            num_classes: 3,
            avg_degree: 8.0,
            intra_prob: 0.9,
            feat_dim: 6,
            noise: 0.6,
            seed: 11,
        })
        .expect("valid SBM parameters")
    })
}

/// A graph whose gather is worth a cross-thread hop under either
/// profile: several hundred input rows of 512 features per batch of
/// [`WIDE_BATCH`] — 200 us and up against a hop of 10–60 us as measured
/// on a loaded 2-core host — and sparse, so the train step (which pays
/// per edge) stays affordable unoptimised. At depth 1 the gate opens on
/// the third batch (two are gathered inline to be timed) and stays open.
fn wide_graph() -> &'static SbmGraph {
    static GRAPH: OnceLock<SbmGraph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        sbm(&SbmParams {
            num_vertices: 960,
            num_classes: 3,
            avg_degree: 3.0,
            intra_prob: 0.9,
            feat_dim: 512,
            noise: 0.6,
            seed: 13,
        })
        .expect("valid SBM parameters")
    })
}

const WIDE_BATCH: usize = 60;

/// [`cfg`] for [`wide_graph`]: one epoch of eight batches, and two hidden
/// units to keep the debug-profile train step cheap under 512 features.
fn wide_cfg(seed: u64, depth: usize, threads: usize) -> ThreadedConfig {
    ThreadedConfig {
        batch_size: WIDE_BATCH,
        hidden_dim: 2,
        epochs: 1,
        ..cfg(seed, depth, threads, 0.3)
    }
}

/// How many gathers ran inline on the consumer's thread and how many on
/// its prefetch worker.
fn gathers(obs: &Obs) -> (usize, usize) {
    let spans = obs.spans();
    let count = |stage| spans.iter().filter(|s| s.stage == stage).count();
    (count(Stage::Extract), count(Stage::Prefetch))
}

/// Held by every test here for its whole length. The profit gate compares
/// measured times, and three sibling tests training on the same two cores
/// stretch a 5 us gather past a 20 us hop often enough to matter; one test
/// at a time, the verdicts depend on the code.
fn alone() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    // A sibling's failed assertion poisons the lock, not this test.
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn env_threads() -> Option<usize> {
    std::env::var("GNNLAB_PIPE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
}

/// One Sampler, one Trainer, no switching: training is fully serialized,
/// so the per-batch history is a deterministic function of the config and
/// any depth-dependent divergence is the pipeline's fault.
fn cfg(seed: u64, depth: usize, threads: usize, alpha: f64) -> ThreadedConfig {
    ThreadedConfig {
        num_samplers: 1,
        num_trainers: 1,
        epochs: 2,
        batch_size: 20,
        queue_capacity: 4,
        dynamic_switching: false,
        cache_alpha: alpha,
        seed,
        threads,
        pipeline_depth: depth,
        ..Default::default()
    }
}

fn expected_batches_on(g: &SbmGraph, c: &ThreadedConfig) -> usize {
    // SBM train set is half the vertices.
    (g.csr.num_vertices() / 2).div_ceil(c.batch_size) * c.epochs
}

fn expected_batches(c: &ThreadedConfig) -> usize {
    expected_batches_on(graph(), c)
}

/// Bit-level fingerprint of everything training produced: the per-batch
/// loss/accuracy history, the master model's final parameters, and the
/// exactly-once batch count.
#[allow(clippy::type_complexity)]
fn fingerprint(res: &ThreadedResult) -> (Vec<(u64, u32, u64)>, Vec<u32>, usize) {
    (
        res.history
            .iter()
            .map(|b| (b.id, b.loss.to_bits(), b.acc.to_bits()))
            .collect(),
        res.final_params.iter().map(|p| p.to_bits()).collect(),
        res.batches_trained,
    )
}

proptest! {
    // Each case trains four real models (two depths, and the crash case
    // elsewhere), so keep the case count low; the draws still sweep
    // seeds, extract widths and cache shapes.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole identity: pipelined (depth 1, burst enqueue, prefetch
    /// worker) and serial (depth 0) runs agree bit for bit on the
    /// per-batch loss/accuracy history and the final parameters, at every
    /// extract-parallel width and cache ratio. Extraction is pure with
    /// respect to model state, so overlapping batch N+1's gather with
    /// batch N's train must not change a single bit.
    #[test]
    fn pipelined_is_bit_identical_to_serial(
        seed in 0u64..1_000,
        tidx in 0usize..3,
        aidx in 0usize..3,
    ) {
        let _alone = alone();
        let threads = env_threads().unwrap_or([1, 2, 4][tidx]);
        let alpha = [0.0, 0.3, 1.0][aidx];
        let serial = run_threaded(graph(), ModelKind::GraphSage, &cfg(seed, 0, threads, alpha))
            .expect("serial reference run");
        let piped = run_threaded(graph(), ModelKind::GraphSage, &cfg(seed, 1, threads, alpha))
            .expect("pipelined run");
        prop_assert_eq!(expected_batches(&cfg(seed, 0, threads, alpha)), serial.batches_trained);
        prop_assert_eq!(fingerprint(&serial), fingerprint(&piped));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same identity across a flip of the profit gate. On the wide
    /// graph a depth-1 consumer gathers its first batches inline (no
    /// estimate yet, then one it does not trust), finds the gather far
    /// above the hop and prefetches from then on: one run takes both
    /// paths, and must still equal the forced-serial reference bit for
    /// bit.
    #[test]
    fn gate_flip_mid_run_is_bit_identical_to_serial(seed in 0u64..1_000, tidx in 0usize..2) {
        let _alone = alone();
        let threads = env_threads().unwrap_or([1, 2][tidx]);
        let serial = run_threaded(wide_graph(), ModelKind::GraphSage, &wide_cfg(seed, 0, threads))
            .expect("serial reference run");
        let obs = Arc::new(Obs::wall());
        let piped =
            run_threaded_obs(wide_graph(), ModelKind::GraphSage, &wide_cfg(seed, 1, threads), &obs)
                .expect("pipelined run");
        let (inline, prefetched) = gathers(&obs);
        prop_assert!(inline >= 2, "the first gathers are timed inline");
        prop_assert!(prefetched >= 1, "the gate never opened on a wide gather");
        prop_assert_eq!(inline + prefetched, piped.batches_trained);
        prop_assert_eq!(fingerprint(&serial), fingerprint(&piped));
    }
}

/// A pipelined consumer dies holding *two* leases: its in-hand batch and
/// the prefetched one. The supervisor must reclaim and replay both — in
/// their original enqueue order — so the interrupted run stays
/// bit-identical to an uninterrupted pipelined run and to the serial
/// reference.
#[test]
fn crash_with_two_leases_replays_both_exactly_once() {
    let _alone = alone();
    let seed = 7;
    let threads = env_threads().unwrap_or(2);
    // A slow trainer and a fast sampler keep the queue full, and the wide
    // gather keeps the profit gate open, so the prefetch slot is occupied
    // when the crash fires.
    let slow = |depth: usize, faults: FaultPlan| {
        let mut c = wide_cfg(seed, depth, threads);
        c.trainer_delay = Some(Duration::from_millis(2));
        c.faults = faults;
        c
    };
    let obs = Arc::new(Obs::wall());
    let crashed = run_threaded_obs(
        wide_graph(),
        ModelKind::GraphSage,
        &slow(1, FaultPlan::crash_trainer(0, 2).with_seed(seed)),
        &obs,
    )
    .expect("crash within budget must recover");
    // The replay count below says something only if this run prefetched.
    assert!(
        obs.metrics.counter(names::PIPELINE_PREFETCH_HIT) >= 1.0,
        "the gate stayed shut: nothing was ever leased ahead of need"
    );
    assert_eq!(
        crashed.batches_trained,
        expected_batches_on(wide_graph(), &slow(1, FaultPlan::none()))
    );
    assert_eq!(crashed.recovery.faults_injected, 1);
    assert_eq!(
        crashed.recovery.replayed_batches, 2,
        "pipelined consumer must die holding its in-hand lease plus the prefetched one"
    );
    // ...and the interruption is invisible in the training output.
    let piped = run_threaded(
        wide_graph(),
        ModelKind::GraphSage,
        &slow(1, FaultPlan::none()),
    )
    .expect("uninterrupted pipelined run");
    let serial = run_threaded(
        wide_graph(),
        ModelKind::GraphSage,
        &slow(0, FaultPlan::none()),
    )
    .expect("serial reference run");
    assert_eq!(fingerprint(&crashed), fingerprint(&piped));
    assert_eq!(fingerprint(&piped), fingerprint(&serial));
}

/// The pipeline metrics tell the truth: with a gather worth the hop and
/// a train long enough to hide it behind, depth 1 records real overlap
/// and prefetch hits, while depth 0 records none of either.
#[test]
fn pipeline_metrics_report_real_overlap() {
    let _alone = alone();
    let run = |depth: usize| {
        let obs = Arc::new(Obs::wall());
        let mut c = wide_cfg(11, depth, 1);
        c.trainer_delay = Some(Duration::from_millis(2));
        let res =
            run_threaded_obs(wide_graph(), ModelKind::GraphSage, &c, &obs).expect("healthy run");
        (res, obs)
    };
    // Overlap is a wall-clock fact: on a single-core host the scheduler
    // occasionally runs every tiny extract to completion in the gap
    // before the train starts, recording zero intersection. Each run is
    // an independent draw, so a handful of attempts makes a genuinely
    // broken pipeline (which *never* overlaps) unmistakable.
    let (res, obs) = (0..5)
        .map(|_| run(1))
        .find(|(_, obs)| obs.metrics.counter(names::PIPELINE_OVERLAP_NS) > 0.0)
        .expect("no prefetch ever overlapped a train in 5 runs");
    assert_eq!(res.batches_trained, res.samples_produced);
    // Nothing below means anything unless batches really crossed over.
    let hits = obs.metrics.counter(names::PIPELINE_PREFETCH_HIT);
    assert!(hits >= 1.0, "no extract was ever fully hidden");
    assert!(
        hits as usize <= res.batches_trained,
        "more prefetch hits than batches"
    );
    // Every join records its (possibly zero) stall, so the counter exists
    // and stays finite.
    assert!(obs.metrics.counter(names::PIPELINE_STALL_NS).is_finite());

    // The serial reference path touches none of the pipeline counters.
    let (_, obs0) = run(0);
    assert_eq!(obs0.metrics.counter(names::PIPELINE_OVERLAP_NS), 0.0);
    assert_eq!(obs0.metrics.counter(names::PIPELINE_PREFETCH_HIT), 0.0);
    assert_eq!(obs0.metrics.counter(names::PIPELINE_STALL_NS), 0.0);
}

/// The mirror image: where a batch's gather is a few microseconds — the
/// `handoff_bound` shape (8 features, 4 hidden units, queue 4), with
/// one-seed batches so that the debug profile's gather stays as short — a
/// depth-1 consumer never sends one across. Every batch takes the
/// depth-0 path: no prefetch hit, no lease taken ahead of need, no
/// `pipeline.*` counter touched, one dequeue per batch.
#[test]
fn narrow_gather_never_crosses_to_the_prefetch_worker() {
    let _alone = alone();
    let g = sbm(&SbmParams {
        num_vertices: 400,
        num_classes: 4,
        avg_degree: 3.0,
        intra_prob: 0.9,
        feat_dim: 8,
        noise: 0.6,
        seed: 17,
    })
    .expect("valid SBM parameters");
    let c = ThreadedConfig {
        batch_size: 1,
        hidden_dim: 4,
        epochs: 1,
        ..cfg(5, 1, 1, 0.2)
    };
    let obs = Arc::new(Obs::wall());
    let res = run_threaded_obs(&g, ModelKind::GraphSage, &c, &obs).expect("healthy run");
    assert_eq!(res.batches_trained, expected_batches_on(&g, &c));
    assert_eq!(gathers(&obs), (res.batches_trained, 0));
    assert_eq!(obs.metrics.counter(names::PIPELINE_PREFETCH_HIT), 0.0);
    assert_eq!(obs.metrics.counter(names::PIPELINE_STALL_NS), 0.0);
    assert_eq!(
        obs.metrics.counter(names::QUEUE_DEQUEUED) as usize,
        res.batches_trained
    );
}
