//! Fault-tolerance acceptance tests: the ISSUE's recovery scenarios end
//! to end on the real threaded runtime, plus the co-simulator's device
//! failures.
//!
//! The seed is taken from `GNNLAB_FAULT_SEED` when set (the CI
//! fault-matrix job sweeps it across several values), so the suite
//! exercises different deterministic fault timings without changing code.

use gnnlab::core::runtime::{run_factored_epoch_opts, FactoredOptions, SimContext};
use gnnlab::core::threaded::{run_threaded, run_threaded_obs, ThreadedConfig};
use gnnlab::core::trace::EpochTrace;
use gnnlab::core::{ExecutorRole, FaultPlan, SystemKind, Workload};
use gnnlab::graph::gen::{sbm, SbmGraph, SbmParams};
use gnnlab::graph::Scale;
use gnnlab::obs::{names, Obs};
use gnnlab::tensor::ModelKind;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn fault_seed() -> u64 {
    std::env::var("GNNLAB_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

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

/// The headline acceptance scenario: a Trainer crash mid-epoch with
/// respawn budget available. The epoch completes, every batch trains
/// exactly once, and the RecoveryReport + metrics surface agree on what
/// happened.
#[test]
fn trainer_crash_mid_epoch_recovers_and_reports() {
    let seed = fault_seed();
    let obs = Arc::new(Obs::wall());
    let cfg = ThreadedConfig {
        num_samplers: 1,
        num_trainers: 2,
        epochs: 2,
        batch_size: 20,
        queue_capacity: 4,
        faults: FaultPlan::crash_trainer(0, 2)
            .with_straggler(ExecutorRole::Trainer, 0, 20.0)
            .with_straggler(ExecutorRole::Trainer, 1, 20.0)
            .with_seed(seed),
        seed,
        ..Default::default()
    };
    let res = run_threaded_obs(graph(), ModelKind::GraphSage, &cfg, &obs)
        .expect("crash within budget must recover");

    // Exactly-once despite the crash replaying the in-flight lease.
    let expected = (120usize).div_ceil(20) * 2;
    assert_eq!(res.samples_produced, expected);
    assert_eq!(res.batches_trained, expected);

    // The RecoveryReport tells the story...
    let rec = &res.recovery;
    assert_eq!(rec.faults_injected, 1);
    assert!(rec.replayed_batches >= 1, "crashed lease was not replayed");
    assert!(
        rec.respawns + rec.reassignments >= 1,
        "supervisor neither respawned nor reassigned"
    );
    assert!(rec.downtime_ns > 0);

    // ...and the shared metrics surface agrees with it.
    assert_eq!(
        obs.metrics.counter(names::FAULTS_INJECTED) as usize,
        rec.faults_injected
    );
    assert!(obs.metrics.counter(names::RECOVERY_REPLAYED_BATCHES) >= 1.0);
    assert_eq!(
        obs.metrics.counter(names::RECOVERY_RESPAWNS) as usize,
        rec.respawns
    );
    assert_eq!(
        obs.metrics.counter(names::RECOVERY_REASSIGNMENTS) as usize,
        rec.reassignments
    );
    assert!(obs.metrics.counter(names::RECOVERY_DOWNTIME_NS) > 0.0);
}

/// The same crash with `max_respawns = 0` must fail fast through queue
/// poisoning rather than hang blocked executors. The second input has two
/// Samplers and one epoch of six batches, and Trainer 0 dies at its first
/// lease: one Sampler is then blocked on the full sample queue holding
/// ids, and the other is parked on the empty id queue waiting for them.
#[test]
fn trainer_crash_without_budget_fails_fast() {
    let seed = fault_seed();
    for (samplers, epochs, crash_after) in [(1, 2, 2), (2, 1, 0)] {
        let cfg = ThreadedConfig {
            num_samplers: samplers,
            num_trainers: 2,
            epochs,
            batch_size: 20,
            queue_capacity: 4,
            faults: FaultPlan::crash_trainer(0, crash_after)
                .with_seed(seed)
                .with_max_respawns(0),
            seed,
            ..Default::default()
        };
        let started = std::time::Instant::now();
        let err = run_threaded(graph(), ModelKind::GraphSage, &cfg).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "poison tear-down with {samplers} Samplers took {:?}",
            started.elapsed()
        );
        assert_eq!(err.executor, "Trainer 0");
        assert!(err.message.contains("injected fault"), "{err}");
    }
}

/// A Sampler crash hands its leased burst back to the id queue, where a
/// survivor or a respawn re-samples it: exactly-once holds and the report
/// shows the recovery.
#[test]
fn sampler_crash_mid_epoch_recovers() {
    let seed = fault_seed();
    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 1,
        epochs: 2,
        batch_size: 20,
        queue_capacity: 4,
        faults: FaultPlan::crash_sampler(1, 1).with_seed(seed),
        seed,
        ..Default::default()
    };
    let res = run_threaded(graph(), ModelKind::GraphSage, &cfg)
        .expect("sampler crash within budget must recover");
    let expected = (120usize).div_ceil(20) * 2;
    assert_eq!(res.samples_produced, expected);
    assert_eq!(res.batches_trained, expected);
    assert_eq!(res.recovery.faults_injected, 1);
    assert!(res.recovery.replayed_batches >= 1);
    assert!(res.recovery.respawns + res.recovery.reassignments >= 1);
}

/// Transient faults retry in place with backoff; nothing is respawned and
/// every batch still trains exactly once.
#[test]
fn transient_faults_retry_with_backoff() {
    let seed = fault_seed();
    let obs = Arc::new(Obs::wall());
    let cfg = ThreadedConfig {
        num_samplers: 1,
        num_trainers: 1,
        epochs: 1,
        batch_size: 15,
        queue_capacity: 4,
        faults: FaultPlan::none().with_seed(seed).with_transients(0.9, 2),
        seed,
        ..Default::default()
    };
    let res = run_threaded_obs(graph(), ModelKind::GraphSage, &cfg, &obs)
        .expect("recoverable transients must not fail the run");
    assert_eq!(res.batches_trained, (120usize).div_ceil(15));
    assert!(res.recovery.retries >= 1, "0.9 probability never fired");
    assert_eq!(res.recovery.respawns + res.recovery.reassignments, 0);
    assert!(obs.metrics.counter(names::RETRY_ATTEMPTS) >= 1.0);
    assert!(obs.metrics.counter(names::RETRY_BACKOFF_NS) > 0.0);
}

proptest! {
    // Each threaded run trains a real model, so keep the case count low;
    // the draws still cover producer/consumer crashes at varied timings.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every crash the supervisor absorbs replays exactly the batches the
    /// dead executor held: a consumer dies with its one lease, a producer
    /// with up to its whole claimed burst of four. Over arbitrary crash
    /// draws the replay count stays inside those bounds, and exactly-once
    /// training holds.
    #[test]
    fn replayed_batches_track_injected_crashes(
        seed in 0u64..1_000,
        crashes in prop::collection::vec(
            (any::<bool>(), 0usize..2, 1usize..8),
            1..3,
        ),
    ) {
        let mut faults = FaultPlan::none()
            .with_seed(seed)
            .with_max_respawns(crashes.len());
        for &(trainer, slot, after) in &crashes {
            let role = if trainer { ExecutorRole::Trainer } else { ExecutorRole::Sampler };
            faults = faults.with_crash(role, slot, after);
        }
        let cfg = ThreadedConfig {
            num_samplers: 2,
            num_trainers: 2,
            epochs: 2,
            batch_size: 20,
            queue_capacity: 4,
            faults,
            seed,
            ..Default::default()
        };
        let res = run_threaded(graph(), ModelKind::GraphSage, &cfg)
            .expect("crashes within budget must recover");
        let expected = (120usize).div_ceil(20) * 2;
        prop_assert_eq!(res.batches_trained, expected);
        prop_assert_eq!(res.samples_produced, expected);
        // Crashes scheduled past the run's end never fire.
        prop_assert!(res.recovery.faults_injected <= crashes.len());
        // Every fired crash replays at least the batch in hand, at most a
        // full sampler burst (4).
        prop_assert!(res.recovery.replayed_batches >= res.recovery.faults_injected);
        prop_assert!(res.recovery.replayed_batches <= res.recovery.faults_injected * 4);
        prop_assert!(
            res.recovery.respawns + res.recovery.reassignments >= res.recovery.faults_injected
        );
    }
}

/// The co-simulator's device failures: killing a Trainer GPU mid-epoch
/// re-dispatches its in-flight batch and finishes no faster than the
/// healthy baseline.
#[test]
fn cosim_device_failure_replays_and_finishes() {
    let w = Workload::new(
        ModelKind::GraphSage,
        gnnlab::graph::DatasetKind::Products,
        Scale::new(1024),
        42,
    );
    let ctx = SimContext::new(&w, SystemKind::GnnLab).with_gpus(4);
    let trace = EpochTrace::record(&w, SystemKind::GnnLab.kernel(), ctx.epoch);
    let healthy =
        run_factored_epoch_opts(&ctx, &trace, &FactoredOptions::new(1, 3)).expect("healthy run");

    // Kill Trainer device 2 (devices 0..ns are Samplers) halfway through
    // the healthy epoch.
    let fail_at = (healthy.epoch_time * 0.5 * 1e9) as u64;
    let mut opts = FactoredOptions::new(1, 3);
    opts.faults = FaultPlan::none()
        .with_seed(fault_seed())
        .with_device_failure(fail_at, 2);
    let r = run_factored_epoch_opts(&ctx, &trace, &opts).expect("degraded run still completes");

    assert_eq!(r.failed_devices, 1);
    assert!(r.replayed_batches >= 1, "mid-flight batch was not replayed");
    assert!(
        r.epoch_time >= healthy.epoch_time,
        "losing a device cannot speed the epoch up: {} < {}",
        r.epoch_time,
        healthy.epoch_time
    );
}
