//! Integration tests of the real threaded runtime: the bounded blocking
//! global queue, live dynamic switching (§5.3), and crash safety.

use gnnlab::core::threaded::{run_threaded, run_threaded_obs, ThreadedConfig};
use gnnlab::core::FaultPlan;
use gnnlab::graph::gen::{sbm, SbmGraph, SbmParams};
use gnnlab::obs::Obs;
use gnnlab::tensor::ModelKind;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One small shared graph for every case (generation dominates otherwise).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline safety property of the bounded queue + dynamic
    /// switching: whatever the executor counts, capacity, delays and
    /// switching mode, every produced batch is trained exactly once and
    /// the queue never exceeds its capacity.
    #[test]
    fn bounded_switching_runs_train_every_batch_exactly_once(
        num_samplers in 1usize..4,
        num_trainers in 1usize..4,
        epochs in 1usize..4,
        batch_size in 10usize..40,
        queue_capacity in 1usize..12,
        delay_ms in 0u64..3,
        dynamic_switching in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let g = graph();
        let cfg = ThreadedConfig {
            num_samplers,
            num_trainers,
            epochs,
            batch_size,
            queue_capacity,
            dynamic_switching,
            trainer_delay: (delay_ms > 0).then(|| Duration::from_millis(delay_ms)),
            seed,
            ..Default::default()
        };
        let res = run_threaded(g, ModelKind::GraphSage, &cfg).expect("no faults injected");
        let batches_per_epoch = (120usize).div_ceil(batch_size);
        prop_assert_eq!(res.samples_produced, batches_per_epoch * epochs);
        prop_assert_eq!(res.batches_trained, res.samples_produced);
        prop_assert!(
            res.peak_queue_depth <= queue_capacity,
            "depth {} above capacity {}", res.peak_queue_depth, queue_capacity
        );
        if !dynamic_switching {
            prop_assert_eq!(res.switches, 0);
        }
    }

    /// Exactly-once survives *any* seeded fault plan the runtime can
    /// recover from: crashes within the respawn budget are replayed, and
    /// transient faults retry in place. The RecoveryReport accounts for
    /// every injected fault.
    #[test]
    fn fault_plans_within_budget_still_train_every_batch_exactly_once(
        num_samplers in 1usize..3,
        num_trainers in 1usize..3,
        epochs in 1usize..3,
        batch_size in 15usize..40,
        queue_capacity in 2usize..8,
        crash_trainer in any::<bool>(),
        crash_sampler in any::<bool>(),
        after in 0usize..3,
        transient_prob in 0.0f64..0.25,
        seed in 0u64..1000,
    ) {
        let g = graph();
        let mut plan = FaultPlan::none().with_seed(seed).with_max_respawns(4);
        if crash_trainer {
            plan = plan.with_crash(gnnlab::core::ExecutorRole::Trainer, 0, after);
        }
        if crash_sampler {
            plan = plan.with_crash(gnnlab::core::ExecutorRole::Sampler, num_samplers - 1, after);
        }
        if transient_prob > 0.01 {
            // max_consecutive 2 < RetryPolicy::max_attempts, so every
            // transient burst is recoverable by retrying in place.
            plan = plan.with_transients(transient_prob, 2);
        }
        let cfg = ThreadedConfig {
            num_samplers,
            num_trainers,
            epochs,
            batch_size,
            queue_capacity,
            dynamic_switching: true,
            faults: plan,
            seed,
            ..Default::default()
        };
        let res = run_threaded(g, ModelKind::GraphSage, &cfg)
            .expect("recoverable fault plan must not fail the run");
        let batches_per_epoch = (120usize).div_ceil(batch_size);
        prop_assert_eq!(res.samples_produced, batches_per_epoch * epochs);
        prop_assert_eq!(res.batches_trained, res.samples_produced);
        // Reclaimed leases from a dead consumer re-enter the queue even
        // when it is full — blocking recovery on producer backpressure
        // could deadlock the supervisor — so a trainer crash may
        // transiently overshoot capacity by the dead executor's one lease.
        let reclaim_overhang = if crash_trainer { 1 } else { 0 };
        prop_assert!(res.peak_queue_depth <= queue_capacity + reclaim_overhang);
        // Every injected fault is either a crash (recovered by respawn or
        // reassignment, replaying the in-flight batch) or a transient
        // (recovered by an in-place retry).
        let rec = &res.recovery;
        prop_assert_eq!(rec.faults_injected >= rec.retries, true);
        let crashes_fired = rec.faults_injected - rec.retries;
        prop_assert!(rec.recovered() >= crashes_fired.min(1));
        if crashes_fired > 0 {
            prop_assert!(rec.replayed_batches >= 1);
        }
    }
}

/// The ISSUE's acceptance scenario end to end, on the shared obs surface:
/// slowed Trainers make Samplers block at the configured capacity, the
/// backlog triggers a standby switch, and the metrics tell the story.
#[test]
fn acceptance_backpressure_switching_and_metrics() {
    let obs = Arc::new(Obs::wall());
    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 1,
        epochs: 3,
        batch_size: 20,
        queue_capacity: 3,
        trainer_delay: Some(Duration::from_millis(3)),
        dynamic_switching: true,
        ..Default::default()
    };
    let res = run_threaded_obs(graph(), ModelKind::GraphSage, &cfg, &obs).expect("healthy run");

    // Samplers hit the bound: depth max == capacity, real blocked time.
    assert_eq!(res.peak_queue_depth, cfg.queue_capacity);
    assert_eq!(
        obs.metrics.gauge("queue.depth").unwrap().max,
        cfg.queue_capacity as f64
    );
    assert_eq!(
        obs.metrics.gauge("queue.capacity").unwrap().last,
        cfg.queue_capacity as f64
    );
    assert!(obs.metrics.counter("queue.blocked_ns") > 0.0);

    // The backlog at sampling-finish woke at least one standby Trainer.
    assert!(res.switches >= 1, "no switch despite slowed Trainer");
    assert_eq!(
        obs.metrics.counter("scheduler.switches") as usize,
        res.switches
    );
    assert!(obs.metrics.series_len("scheduler.ewma_t_sample") > 0);
    assert!(obs.metrics.series_len("scheduler.ewma_t_train") > 0);
    assert!(obs.metrics.series_len("scheduler.ewma_t_standby") > 0);

    // Exactly-once despite backpressure + switching.
    assert_eq!(res.batches_trained, res.samples_produced);
    assert_eq!(res.samples_produced, (120usize).div_ceil(20) * 3);
}

/// A Trainer crash poisons the queue: the run fails fast instead of
/// hanging Samplers in blocked enqueues forever.
#[test]
fn trainer_panic_surfaces_as_an_error() {
    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 1,
        epochs: 3,
        batch_size: 20,
        queue_capacity: 2,
        faults: FaultPlan::crash_trainer(0, 2).with_max_respawns(0),
        ..Default::default()
    };
    let started = std::time::Instant::now();
    let err = run_threaded(graph(), ModelKind::GraphSage, &cfg).unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "tear-down took {:?}",
        started.elapsed()
    );
    assert_eq!(err.executor, "Trainer 0");
    assert!(err.message.contains("injected fault"), "{err}");
}
