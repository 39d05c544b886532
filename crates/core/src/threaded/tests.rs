//! End-to-end unit tests of the threaded runtime (moved verbatim from the
//! old single-file `threaded.rs`).

use super::server::untrained_ids;
use super::shared::{stream_seed, Shared, StreamRole};
use super::*;
use crate::checkpoint::{self, ChaosPlan, CheckpointPolicy};
use crate::faults::{ExecutorRole, FaultPlan};
use gnnlab_cache::load_cache_topk;
use gnnlab_graph::gen::{sbm, SbmParams};
use gnnlab_obs::{names, Telemetry, TelemetryConfig};
use gnnlab_sampling::{presample_epoch, presample_rng, MinibatchIter, SampleWork};
use std::time::{Duration, Instant};

fn graph() -> SbmGraph {
    sbm(&SbmParams {
        num_vertices: 600,
        num_classes: 4,
        avg_degree: 10.0,
        intra_prob: 0.9,
        feat_dim: 8,
        noise: 0.6,
        seed: 3,
    })
    .unwrap()
}

/// [`run_threaded_obs`] inside a telemetry watcher, stopped before the
/// caller reads `obs`'s series.
fn watched_run(
    g: &SbmGraph,
    cfg: &ThreadedConfig,
    obs: &Arc<Obs>,
) -> Result<ThreadedResult, ThreadedError> {
    let telemetry = Telemetry::start(Arc::clone(obs), TelemetryConfig::default());
    let res = run_threaded_obs(g, ModelKind::GraphSage, cfg, obs);
    telemetry.stop();
    res
}

#[test]
fn threaded_run_trains_every_batch_exactly_once() {
    let g = graph();
    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 3,
        epochs: 4,
        batch_size: 25,
        ..Default::default()
    };
    let res = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap();
    let batches_per_epoch = (300usize).div_ceil(25);
    assert_eq!(res.samples_produced, batches_per_epoch * 4);
    assert_eq!(res.batches_trained, res.samples_produced);
    assert_eq!(res.recovery, RecoveryReport::default());
}

#[test]
fn threaded_training_learns() {
    let g = graph();
    let res = run_threaded(
        &g,
        ModelKind::GraphSage,
        &ThreadedConfig {
            epochs: 12,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        res.final_accuracy > 0.7,
        "threaded accuracy {:.3}",
        res.final_accuracy
    );
}

#[test]
fn two_tier_extraction_serves_hits() {
    let g = graph();
    let res = run_threaded(
        &g,
        ModelKind::GraphSage,
        &ThreadedConfig {
            epochs: 2,
            cache_alpha: 0.5,
            ..Default::default()
        },
    )
    .unwrap();
    // The Trainers' own stores, the 50 % ones: a standby's cache and the
    // host eval store are planned apart and would dilute the rate.
    let mut trainers = CacheStats::default();
    for c in res.caches.iter().filter(|c| c.role == Executor::Trainer) {
        trainers.add(&c.stats);
    }
    assert!(
        trainers.hit_rate() > 0.3,
        "Trainer hit rate {:.3} too low for a 50% cache",
        trainers.hit_rate()
    );
    let uncached = run_threaded(
        &g,
        ModelKind::GraphSage,
        &ThreadedConfig {
            epochs: 2,
            cache_alpha: 0.0,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(uncached.cache_hit_rate, 0.0);
}

#[test]
fn threaded_run_populates_observability() {
    let g = graph();
    let obs = Arc::new(Obs::wall());
    let cfg = ThreadedConfig {
        epochs: 2,
        cache_alpha: 0.5,
        ..Default::default()
    };
    let res = watched_run(&g, &cfg, &obs).unwrap();

    // The telemetry thread sampled the depth gauge into a series (at
    // least the final stop-time tick), and the capacity gauge
    // reflects the bound.
    assert!(
        obs.metrics.series_len("queue.depth") > 0,
        "no depth samples"
    );
    assert!(obs.metrics.gauge("queue.depth").is_some());
    assert_eq!(
        obs.metrics.gauge("queue.capacity").unwrap().last,
        cfg.queue_capacity as f64
    );
    // The metrics say which tensor kernels produced them.
    assert_eq!(
        obs.metrics.gauge(names::TENSOR_KERNEL_LANES).unwrap().last,
        gnnlab_tensor::kernel_lanes() as f64
    );
    assert_eq!(
        obs.metrics.counter("queue.enqueued") as usize,
        res.samples_produced
    );
    assert_eq!(
        obs.metrics.counter("queue.dequeued") as usize,
        res.batches_trained
    );
    // Live stage-time estimates were published.
    assert!(obs.metrics.series_len("scheduler.ewma_t_sample") > 0);
    assert!(obs.metrics.series_len("scheduler.ewma_t_train") > 0);
    // Per-executor batch-time EWMAs (straggler-alert inputs): one
    // gauge per sampler and trainer slot.
    for s in 0..cfg.num_samplers {
        assert!(
            obs.metrics
                .gauge(&names::executor_ewma("sampler", s))
                .is_some(),
            "missing sampler {s} EWMA gauge"
        );
    }
    for t in 0..cfg.num_trainers {
        assert!(
            obs.metrics
                .gauge(&names::executor_ewma("trainer", t))
                .is_some(),
            "missing trainer {t} EWMA gauge"
        );
    }
    // Span recording fed the per-stage latency histograms, with live
    // quantiles.
    let train_ns = obs.metrics.histogram("stage.train.ns").unwrap();
    assert!(train_ns.count > 0);
    assert!(train_ns.p99().unwrap() >= train_ns.p50().unwrap());
    // The respawn budget is visible to the alert engine even on a
    // healthy run.
    assert!(obs.metrics.gauge(names::FAULTS_RESPAWN_BUDGET).is_some());
    // Cache hit/miss totals were published by the executors' stores.
    assert!(obs.metrics.counter("cache.lookups") > 0.0);
    assert!(obs.metrics.counter("cache.hits") > 0.0);
    assert!(obs.metrics.counter("cache.misses") > 0.0);
    // Each Trainer streamed its own per-executor cache family, and the
    // aggregate equals the sum of the per-executor counters.
    let mut lookup_sum = 0.0;
    for t in 0..cfg.num_trainers {
        let lk = obs
            .metrics
            .counter(&names::executor_cache("trainer", t, "lookups"));
        assert!(lk > 0.0, "trainer {t} published no cache lookups");
        assert!(
            obs.metrics
                .gauge(&names::executor_cache("trainer", t, "hit_rate"))
                .is_some(),
            "trainer {t} missing hit-rate gauge"
        );
        lookup_sum += lk;
    }
    // The aggregate rolls up every per-executor store (standby
    // families join the trainer ones when a switch happened).
    assert!(lookup_sum <= obs.metrics.counter("cache.lookups"));
    assert_eq!(
        res.caches.iter().map(|c| c.stats.lookups).sum::<u64>() as f64,
        obs.metrics.counter("cache.lookups")
    );
    // Every Trainer's cache fill was measured into the refresh
    // histogram, and the plan gauges carry the per-role ratios.
    let refresh = obs.metrics.histogram(names::CACHE_REFRESH_NS).unwrap();
    assert!(refresh.count >= cfg.num_trainers as u64);
    assert!(refresh.sum > 0.0);
    assert_eq!(
        obs.metrics.gauge(names::CACHE_TRAINER_ALPHA).unwrap().last,
        0.5
    );
    // One report per dedicated Trainer (no switch happened here or it
    // adds standby entries after the trainers).
    assert!(res.caches.len() >= cfg.num_trainers);
    for (t, c) in res.caches.iter().take(cfg.num_trainers).enumerate() {
        assert_eq!(c.role, Executor::Trainer);
        assert_eq!(c.slot, t);
        assert!(c.refresh_ns > 0);
    }
    // Every executor recorded wall-clock spans; none overlap on a lane.
    // The Sampler runs G and C only: the gather locates its own rows, so
    // no M span is recorded.
    let spans = obs.spans();
    assert!(obs.span_count() > 0);
    assert!(gnnlab_obs::find_overlap(&spans).is_none());
    assert!(spans.iter().all(|s| s.stage != gnnlab_obs::Stage::SampleM));
}

/// The run keeps levels in gauges and records no series of its own but
/// the switch-profit events; a watcher's ticks turn the gauges, the
/// scheduler's EWMAs among them, into series.
#[test]
fn series_come_from_a_watcher_not_from_the_run() {
    let g = graph();
    let cfg = ThreadedConfig {
        epochs: 2,
        ..Default::default()
    };
    let unwatched = Arc::new(Obs::wall());
    run_threaded_obs(&g, ModelKind::GraphSage, &cfg, &unwatched).unwrap();
    for (name, points) in unwatched.metrics.snapshot().series {
        assert!(
            name == names::SCHEDULER_SWITCH_PROFIT || points.is_empty(),
            "unwatched run recorded {} points on {name}",
            points.len()
        );
    }
    assert!(unwatched.metrics.alerts().is_empty());
    for gauge in [
        names::SCHEDULER_EWMA_T_SAMPLE,
        names::SCHEDULER_EWMA_T_TRAIN,
    ] {
        assert!(unwatched.metrics.gauge(gauge).is_some(), "no {gauge} gauge");
    }

    let watched = Arc::new(Obs::wall());
    watched_run(&g, &cfg, &watched).unwrap();
    for series in [
        names::QUEUE_DEPTH,
        names::SCHEDULER_EWMA_T_SAMPLE,
        names::SCHEDULER_EWMA_T_TRAIN,
    ] {
        assert!(
            watched.metrics.series_len(series) >= 1,
            "watched run has no {series} series"
        );
    }
}

#[test]
fn single_executor_degenerate_case_works() {
    let g = graph();
    let res = run_threaded(
        &g,
        ModelKind::GraphSage,
        &ThreadedConfig {
            num_samplers: 1,
            num_trainers: 1,
            epochs: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(res.batches_trained > 0);
}

#[test]
fn stream_seeds_are_pairwise_distinct() {
    // Regression: `seed ^ (0 << 17) == seed` made Sampler 0 share its
    // stream with the model init and the shuffle. Every (role, index)
    // stream must be unique, and none may equal the raw seed.
    for seed in [0u64, 1, 42, u64::MAX] {
        let mut seen = std::collections::HashSet::new();
        seen.insert(seed);
        for role in [
            StreamRole::Model,
            StreamRole::Eval,
            StreamRole::Split,
            StreamRole::Shuffle,
        ] {
            for index in 0..8u64 {
                assert!(
                    seen.insert(stream_seed(seed, role, index)),
                    "stream collision at seed={seed} role={role:?} index={index}"
                );
            }
        }
        // Per-batch sampling streams live in their own domain: none
        // may collide with any executor stream or the raw seed.
        for epoch in 0..4u64 {
            for batch in 0..4u64 {
                let mut rng = presample_rng(seed, epoch, batch);
                let draw: u64 = rand::Rng::r#gen(&mut rng);
                assert!(
                    seen.insert(draw),
                    "sampling stream collision at seed={seed} epoch={epoch} batch={batch}"
                );
            }
        }
    }
}

#[test]
fn slow_trainers_block_samplers_at_queue_capacity() {
    let g = graph();
    let obs = Arc::new(Obs::wall());
    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 1,
        epochs: 2,
        batch_size: 25,
        queue_capacity: 4,
        faults: FaultPlan::none().with_straggler(ExecutorRole::Trainer, 0, 20.0),
        ..Default::default()
    };
    let res = run_threaded_obs(&g, ModelKind::GraphSage, &cfg, &obs).unwrap();
    assert_eq!(res.batches_trained, res.samples_produced);
    // Backpressure: the queue filled to exactly its capacity and the
    // Samplers spent real time blocked.
    assert_eq!(res.peak_queue_depth, 4, "queue never hit its bound");
    // The gauge's max catches the peak exactly (the sampled series
    // may miss the instant the queue was full).
    assert_eq!(obs.metrics.gauge("queue.depth").unwrap().max, 4.0);
    assert!(res.queue_blocked_ns > 0, "no blocked time recorded");
    assert!(obs.metrics.counter("queue.blocked_ns") > 0.0);
}

#[test]
fn backlog_at_sampler_finish_triggers_standby_switch() {
    let g = graph();
    let obs = Arc::new(Obs::wall());
    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 1,
        epochs: 3,
        batch_size: 25,
        queue_capacity: 128,
        faults: FaultPlan::none().with_straggler(ExecutorRole::Trainer, 0, 20.0),
        dynamic_switching: true,
        ..Default::default()
    };
    let res = run_threaded_obs(&g, ModelKind::GraphSage, &cfg, &obs).unwrap();
    // Slow Trainers leave a backlog when sampling ends, so the profit
    // metric wakes at least one standby Trainer — and every batch is
    // still trained exactly once.
    assert!(res.switches >= 1, "no standby switch despite backlog");
    assert_eq!(
        obs.metrics.counter("scheduler.switches") as usize,
        res.switches
    );
    assert_eq!(res.batches_trained, res.samples_produced);
    let batches_per_epoch = (300usize).div_ceil(25);
    assert_eq!(res.samples_produced, batches_per_epoch * 3);
    // The standby recorded spans under its own executor role.
    assert!(obs.spans().iter().any(|s| s.executor == Executor::Standby));
}

/// Satellite: under skewed hotness a switched standby's *measured*
/// hit rate sits strictly below a dedicated Trainer's — its memory
/// plan keeps topology and the sampling workspace, so it affords
/// fewer cache rows — and every switch measured a cache refresh.
#[test]
fn standby_cache_is_smaller_and_hits_less_than_a_trainers() {
    let g = graph();
    let obs = Arc::new(Obs::wall());
    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 1,
        epochs: 3,
        batch_size: 25,
        cache_alpha: 0.5,
        queue_capacity: 128,
        faults: FaultPlan::none().with_straggler(ExecutorRole::Trainer, 0, 20.0),
        ..Default::default()
    };
    let res = run_threaded_obs(&g, ModelKind::GraphSage, &cfg, &obs).unwrap();
    assert!(res.switches >= 1, "no standby switch despite backlog");
    let trainer = res
        .caches
        .iter()
        .find(|c| c.role == Executor::Trainer)
        .expect("a dedicated Trainer report");
    let standby = res
        .caches
        .iter()
        .find(|c| c.role == Executor::Standby && c.stats.lookups > 0)
        .expect("a switched standby that trained batches");
    assert!(
        standby.rows < trainer.rows,
        "standby rows {} not below trainer rows {}",
        standby.rows,
        trainer.rows
    );
    assert!(standby.alpha < trainer.alpha);
    assert!(
        standby.stats.hit_rate() < trainer.stats.hit_rate(),
        "standby hit rate {:.3} not strictly below trainer {:.3}",
        standby.stats.hit_rate(),
        trainer.stats.hit_rate()
    );
    // Every switched standby's refresh was measured (trainer fills +
    // one per standby store built).
    let refresh = obs.metrics.histogram(names::CACHE_REFRESH_NS).unwrap();
    assert!(refresh.count >= (cfg.num_trainers + res.switches) as u64);
    for c in &res.caches {
        assert!(c.refresh_ns > 0, "{:?} has unmeasured refresh", c.role);
    }
    // Exactly-once training still holds through the switch.
    assert_eq!(res.batches_trained, res.samples_produced);
}

#[test]
fn switching_disabled_never_switches() {
    let g = graph();
    let res = run_threaded(
        &g,
        ModelKind::GraphSage,
        &ThreadedConfig {
            num_samplers: 2,
            num_trainers: 1,
            epochs: 2,
            faults: FaultPlan::none().with_straggler(ExecutorRole::Trainer, 0, 20.0),
            dynamic_switching: false,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(res.switches, 0);
    assert_eq!(res.batches_trained, res.samples_produced);
}

// --- Fault injection and recovery -------------------------------------

#[test]
fn trainer_crash_without_budget_fails_the_run_in_bounded_time() {
    let g = graph();
    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 1,
        epochs: 4,
        batch_size: 25,
        // A tiny queue so Samplers are deep in blocked enqueues when
        // the only Trainer dies — the old unbounded/spinning runtime
        // would hang here.
        queue_capacity: 2,
        faults: FaultPlan::crash_trainer(0, 3).with_max_respawns(0),
        ..Default::default()
    };
    let started = Instant::now();
    let err = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "tear-down took {:?}",
        started.elapsed()
    );
    assert_eq!(err.executor, "Trainer 0");
    assert!(err.message.contains("injected fault"), "{err}");
}

#[test]
fn sampler_crash_without_budget_fails_the_run() {
    let g = graph();
    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 2,
        epochs: 2,
        faults: FaultPlan::crash_sampler(1, 2).with_max_respawns(0),
        ..Default::default()
    };
    let err = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap_err();
    assert_eq!(err.executor, "Sampler 1");
    assert!(err.message.contains("injected fault"), "{err}");
}

#[test]
fn trainer_crash_within_budget_recovers_and_trains_every_batch() {
    let g = graph();
    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 2,
        epochs: 3,
        batch_size: 25,
        faults: FaultPlan::crash_trainer(0, 2),
        ..Default::default()
    };
    let res = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap();
    let batches_per_epoch = (300usize).div_ceil(25);
    assert_eq!(res.samples_produced, batches_per_epoch * 3);
    assert_eq!(
        res.batches_trained, res.samples_produced,
        "exactly-once violated"
    );
    assert_eq!(res.recovery.faults_injected, 1);
    assert!(
        res.recovery.replayed_batches >= 1,
        "the crash fired while a lease was held: {:?}",
        res.recovery
    );
    assert!(res.recovery.recovered() >= 1, "{:?}", res.recovery);
    assert!(res.recovery.downtime_ns > 0);
}

#[test]
fn sole_trainer_crash_forces_a_respawn() {
    let g = graph();
    let cfg = ThreadedConfig {
        num_samplers: 1,
        num_trainers: 1,
        epochs: 2,
        batch_size: 25,
        dynamic_switching: false,
        faults: FaultPlan::crash_trainer(0, 1),
        ..Default::default()
    };
    let res = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap();
    assert_eq!(res.batches_trained, res.samples_produced);
    // With zero surviving consumers the supervisor must respawn, or
    // the producers would block forever.
    assert_eq!(res.recovery.respawns, 1, "{:?}", res.recovery);
    assert!(res.recovery.replayed_batches >= 1);
}

#[test]
fn sampler_crash_within_budget_recovers_every_batch() {
    let g = graph();
    for samplers in [1usize, 2] {
        let cfg = ThreadedConfig {
            num_samplers: samplers,
            num_trainers: 2,
            epochs: 2,
            batch_size: 25,
            faults: FaultPlan::crash_sampler(0, 2),
            ..Default::default()
        };
        let res = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap();
        let batches_per_epoch = (300usize).div_ceil(25);
        assert_eq!(
            res.samples_produced,
            batches_per_epoch * 2,
            "lost batches with {samplers} samplers: {:?}",
            res.recovery
        );
        assert_eq!(res.batches_trained, res.samples_produced);
        assert!(res.recovery.recovered() >= 1);
        // The sole-sampler case must respawn; the two-sampler case may
        // reassign to the survivor.
        if samplers == 1 {
            assert_eq!(res.recovery.respawns, 1, "{:?}", res.recovery);
        }
    }
}

/// `N_t` is the live consumer set: a Trainer crash the supervisor absorbs
/// by reassignment leaves one Trainer, and the Sampler's switch decision
/// divides the backlog by that one, not by the two the run started with.
/// Trainer 0 dies at its first lease, before any `T_t` exists, so the
/// allocation rule reads `K = 1` and reassigns; the slow Sampler finishes
/// well after that, and the slower Trainer 1 keeps a backlog queued until
/// the decision.
#[test]
fn switch_decision_after_a_reassigned_trainer_crash_reads_one_trainer() {
    let g = graph();
    let obs = Arc::new(Obs::wall());
    let cfg = ThreadedConfig {
        num_samplers: 1,
        num_trainers: 2,
        epochs: 2,
        batch_size: 25,
        faults: FaultPlan::crash_trainer(0, 0)
            .with_straggler(ExecutorRole::Sampler, 0, 20.0)
            .with_straggler(ExecutorRole::Trainer, 1, 50.0),
        ..Default::default()
    };
    let res = run_threaded_obs(&g, ModelKind::GraphSage, &cfg, &obs).unwrap();
    assert_eq!(res.recovery.reassignments, 1, "{:?}", res.recovery);
    assert_eq!(res.batches_trained, res.samples_produced);
    let n_t = obs.metrics.gauge(names::SCHEDULER_SWITCH_TRAINERS).unwrap();
    assert_eq!((n_t.last, n_t.max), (1.0, 1.0));
}

#[test]
fn transient_faults_retry_in_place_and_still_train_everything() {
    let g = graph();
    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 2,
        epochs: 2,
        batch_size: 25,
        // max_consecutive (2) ≤ max_attempts (4): always recoverable.
        faults: FaultPlan::none().with_transients(0.5, 2).with_seed(11),
        ..Default::default()
    };
    let res = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap();
    assert_eq!(res.batches_trained, res.samples_produced);
    assert!(res.recovery.retries > 0, "p=0.5 must trigger retries");
    assert_eq!(res.recovery.faults_injected, res.recovery.retries);
    assert_eq!(res.recovery.recovered(), 0, "retries are not crashes");
}

#[test]
fn unrecoverable_transient_fault_fails_fast() {
    let g = graph();
    let mut faults = FaultPlan::none().with_transients(1.0, 10).with_seed(5);
    faults.retry.max_attempts = 2;
    let cfg = ThreadedConfig {
        num_samplers: 1,
        num_trainers: 1,
        epochs: 1,
        batch_size: 50,
        faults,
        ..Default::default()
    };
    let err = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap_err();
    assert!(
        err.message.contains("unrecoverable transient fault"),
        "{err}"
    );
}

#[test]
fn stragglers_stretch_the_observed_stage_times() {
    let g = graph();
    let obs = Arc::new(Obs::wall());
    let cfg = ThreadedConfig {
        num_samplers: 1,
        num_trainers: 1,
        epochs: 1,
        batch_size: 25,
        dynamic_switching: false,
        faults: FaultPlan::none().with_straggler(ExecutorRole::Trainer, 0, 20.0),
        ..Default::default()
    };
    let res = run_threaded_obs(&g, ModelKind::GraphSage, &cfg, &obs).unwrap();
    assert_eq!(res.batches_trained, res.samples_produced);
    // The straggling Trainer's EWMA saw the stretched times.
    let t_t = obs
        .metrics
        .gauge(names::SCHEDULER_EWMA_T_TRAIN)
        .unwrap()
        .max;
    let t_s = obs
        .metrics
        .gauge(names::SCHEDULER_EWMA_T_SAMPLE)
        .unwrap()
        .max;
    assert!(
        t_t > t_s * 2.0,
        "straggler not visible: T_t={t_t:.6} vs T_s={t_s:.6}"
    );
}

#[test]
fn evaluation_is_identical_at_every_width() {
    let g = graph();
    let (train, test) = split(g.csr.num_vertices(), 4);
    let obs = Arc::new(Obs::wall());
    // 12, 5 and 2 chunks: even and uneven shares of the chunk cursor, and
    // fewer chunks than workers.
    for (kind, batch_size) in [
        (ModelKind::Gcn, 25),
        (ModelKind::PinSage, 25),
        (ModelKind::Gcn, 70),
        (ModelKind::Gcn, 200),
    ] {
        let cfg = ThreadedConfig {
            batch_size,
            cache_alpha: 0.3,
            seed: 4,
            ..Default::default()
        };
        let shared = Shared::new(&g, kind, &cfg, &obs, &train);
        let master = shared.server().finish().0;
        // Every chunk exactly once, in order, on one thread, through a
        // dense host gather.
        let algo = crate::train_real::sampler_for(kind);
        let mut model = master.clone();
        let (mut want, mut want_stats) = (0, CacheStats::default());
        for (i, chunk) in test.chunks(batch_size).enumerate() {
            let seed = stream_seed(cfg.seed, StreamRole::Eval, i as u64);
            let sample = algo.sample(&g.csr, chunk, &mut ChaCha8Rng::seed_from_u64(seed));
            let feats = crate::train_real::gather_features(&g, sample.input_nodes());
            let labels: Vec<u32> = chunk.iter().map(|&v| g.labels[v as usize]).collect();
            want += correct_predictions(&model.forward(&sample, &feats), &labels);
            let row_bytes = (4 * g.feat_dim) as u64;
            want_stats.record(&shared.trainer_table, sample.input_nodes(), row_bytes);
        }
        let at = format!("{kind:?}, batch {batch_size}");
        assert!(want > 0 && want < test.len() && want_stats.hits > 0, "{at}");
        for width in [1, 2, 3, 5, 3, 2] {
            let (correct, report) = evaluate(&shared, &master, &test, &ThreadPool::new(width));
            assert_eq!(report.rows, shared.trainer_table.len(), "{at}");
            assert_eq!(
                (correct, report.stats),
                (want, want_stats),
                "{at} at width {width}"
            );
        }
    }
}

/// Every field sampling writes, as comparable values.
type SampleFields = (
    Vec<VertexId>,
    Vec<(Vec<VertexId>, usize, Vec<(u32, u32)>)>,
    Vec<VertexId>,
    SampleWork,
    Option<Vec<bool>>,
);

fn sample_fields(s: &Sample) -> SampleFields {
    let blocks = s.blocks.iter();
    (
        s.seeds.clone(),
        blocks
            .map(|b| (b.src_globals.clone(), b.dst_count, b.edges.clone()))
            .collect(),
        s.visit_list.clone(),
        s.work,
        s.cache_mask.clone(),
    )
}

fn kept_fields(shared: &Shared<'_>) -> Vec<Option<SampleFields>> {
    let slots = shared.ledger().kept();
    slots
        .iter()
        .map(|s| s.as_ref().map(sample_fields))
        .collect()
}

#[test]
fn presampling_is_identical_at_every_fleet_width() {
    let g = graph();
    let (train, _) = split(g.csr.num_vertices(), 4);
    let obs = Arc::new(Obs::wall());
    let build = |num_samplers: usize, num_trainers: usize, cache_alpha: f64| {
        let cfg = ThreadedConfig {
            num_samplers,
            num_trainers,
            batch_size: 25,
            cache_alpha,
            seed: 4,
            ..Default::default()
        };
        let shared = Shared::new(&g, ModelKind::Gcn, &cfg, &obs, &train);
        assert_eq!(shared.bookends.threads(), num_samplers + num_trainers);
        // The ranking, and the standby's share of the hotness mass, which
        // `planned_miss_ratio` sums along it.
        let table = shared.trainer_table.cached_vertices().to_vec();
        let miss_ratio = shared.sched().standby_miss_ratio().to_bits();
        (table, miss_ratio, kept_fields(&shared))
    };
    let narrow = build(1, 1, 0.3);
    assert!(!narrow.0.is_empty());
    assert!(f64::from_bits(narrow.1) > 1.0);
    assert_eq!(narrow.2.len(), 12);
    assert_eq!(build(2, 1, 0.3), narrow);
    assert_eq!(build(2, 4, 0.3), narrow);
    // No cache row to rank for: the pass is skipped at any width.
    assert_eq!(build(2, 4, 0.0), (Vec::new(), 1f64.to_bits(), Vec::new()));
}

/// Every store's table is a cut of the run's one ranking: a Trainer's
/// and a standby's equal, slot for slot, what a fresh `load_cache_topk`
/// at their row budgets makes of the hotness `Shared::new` ranked.
#[test]
fn every_store_table_is_a_fresh_top_of_the_same_hotness() {
    // Wide rows, so a standby affords cache rows beside the topology.
    let g = sbm(&SbmParams {
        num_vertices: 600,
        num_classes: 4,
        avg_degree: 10.0,
        intra_prob: 0.9,
        feat_dim: 256,
        noise: 0.6,
        seed: 3,
    })
    .unwrap();
    let (n, kind) = (g.csr.num_vertices(), ModelKind::Gcn);
    let (train, _) = split(n, 4);
    let cfg = ThreadedConfig {
        batch_size: 25,
        cache_alpha: 0.3,
        seed: 4,
        ..Default::default()
    };
    let shared = Shared::new(&g, kind, &cfg, &Arc::new(Obs::wall()), &train);
    let plan = shared.plan;
    assert!(
        0 < plan.standby_rows && plan.standby_rows < plan.trainer_rows,
        "{plan:?}"
    );
    // The run's epoch 0, as pre-sampling draws it.
    let mut order = Vec::new();
    MinibatchIter::shuffle_into(&train, shared.shuffle_seed, 0, &mut order);
    let algo = crate::train_real::sampler_for(kind);
    let pool = ThreadPool::new(1);
    let pass = presample_epoch(
        &g.csr,
        &order,
        algo.as_ref(),
        25,
        cfg.seed,
        0,
        true,
        &pool,
        |_, _| None::<()>,
    );
    let hotness = pass.recorder.hotness();
    for (table, rows) in [
        (shared.trainer_table.clone(), plan.trainer_rows),
        (shared.standby_table(), plan.standby_rows),
    ] {
        let fresh = load_cache_topk(&hotness, rows, n);
        assert_eq!(
            table.cached_vertices(),
            fresh.cached_vertices(),
            "{rows} rows"
        );
        assert!((0..n as VertexId).all(|v| table.locate(v) == fresh.locate(v)));
        assert_eq!(
            table.alpha().to_bits(),
            fresh.alpha().to_bits(),
            "{rows} rows"
        );
    }
}

/// Pre-sampling draws the run's own epoch 0: each kept sample is, field
/// for field, what a Sampler's `sample_into` makes of the batch, and no
/// more are kept than the queue holds. The pass also seeds `T_s`.
#[test]
fn presampling_keeps_the_runs_own_first_batches() {
    let g = graph();
    let (train, _) = split(g.csr.num_vertices(), 4);
    let obs = Arc::new(Obs::wall());
    let algo = crate::train_real::sampler_for(ModelKind::Gcn);
    for (queue_capacity, kept) in [(5, 5), (64, 12)] {
        let cfg = ThreadedConfig {
            batch_size: 25,
            cache_alpha: 0.3,
            seed: 4,
            queue_capacity,
            ..Default::default()
        };
        let shared = Shared::new(&g, ModelKind::Gcn, &cfg, &obs, &train);
        assert_eq!(shared.batches_per_epoch, 12);
        let mut order = Vec::new();
        MinibatchIter::shuffle_into(&train, shared.shuffle_seed, 0, &mut order);
        let (mut bufs, mut fresh) = (SampleBuffers::new(), Sample::default());
        let slots = kept_fields(&shared);
        assert_eq!(slots.len(), kept);
        for (b, slot) in slots.into_iter().enumerate() {
            let batch = &order[b * 25..(b + 1) * 25];
            let mut rng = presample_rng(cfg.seed, 0, b as u64);
            algo.sample_into(&g.csr, batch, &mut rng, &mut bufs, &mut fresh);
            assert_eq!(slot, Some(sample_fields(&fresh)), "batch {b}");
        }
        assert!(shared.sched().snapshot().t_sample.is_some_and(|t| t > 0.0));
    }
    let cfg = ThreadedConfig {
        cache_alpha: 0.0,
        ..Default::default()
    };
    let shared = Shared::new(&g, ModelKind::Gcn, &cfg, &obs, &train);
    assert!(shared.ledger().kept().is_empty());
    assert_eq!(shared.sched().snapshot().t_sample, None);
}

/// What training produced, bit for bit: the history and the parameters.
fn trained_bits(res: &ThreadedResult) -> (Vec<(u64, u32, u64)>, Vec<u32>) {
    let history = res.history.iter();
    (
        history
            .map(|r| (r.id, r.loss.to_bits(), r.acc.to_bits()))
            .collect(),
        res.final_params.iter().map(|p| p.to_bits()).collect(),
    )
}

/// Keeping pre-sampling's samples changes what the Samplers do, not what
/// trains: one Sampler and one Trainer without switching train the same
/// history to the same parameters whether epoch 0 comes from pre-sampling
/// (α = 0.3) or from the Sampler (α = 0 skips the pass).
#[test]
fn a_kept_epoch_0_trains_bit_identically_to_a_sampled_one() {
    let g = graph();
    let run = |cache_alpha: f64| {
        let cfg = ThreadedConfig {
            num_samplers: 1,
            num_trainers: 1,
            epochs: 2,
            batch_size: 25,
            dynamic_switching: false,
            cache_alpha,
            seed: 9,
            ..Default::default()
        };
        trained_bits(&run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap())
    };
    let sampled = run(0.0);
    assert_eq!(sampled.0.len(), 24);
    assert_eq!(run(0.3), sampled);
}

/// A resume whose cursor falls inside the kept prefix drops the kept
/// samples of the batches that trained before it and enqueues the rest —
/// and trains what a resume with nothing kept trains (a one-deep queue
/// keeps only batch 0, which the cursor has passed).
#[test]
fn a_resume_inside_the_kept_prefix_drops_what_trained() {
    let g = graph();
    let root = std::env::temp_dir().join(format!("gnnlab-kept-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = |dir: &std::path::Path, resume: bool, queue_capacity: usize| ThreadedConfig {
        num_samplers: 1,
        num_trainers: 1,
        epochs: 2,
        batch_size: 25,
        dynamic_switching: false,
        cache_alpha: 0.3,
        queue_capacity,
        seed: 5,
        checkpoint: CheckpointPolicy {
            every_batches: Some(5),
            resume,
            ..CheckpointPolicy::at(dir)
        },
        ..Default::default()
    };
    // A real generation, rewound to cursor 3: inside the 8 kept batches,
    // where the every-5 cadence never writes one.
    let written = root.join("written");
    run_threaded(&g, ModelKind::GraphSage, &cfg(&written, false, 8)).unwrap();
    let (_, mut state) = checkpoint::load_latest(&written)
        .loaded
        .expect("the run wrote a generation");
    state.cursor = 3;
    state.history.truncate(3);
    (state.rng.next_epoch, state.rng.next_batch) = (0, 3);
    let resume_from = |name: &str| {
        let dir = root.join(name);
        checkpoint::write_generation(&dir, 0, &state, 0, &ChaosPlan::default()).unwrap();
        dir
    };

    let dir = resume_from("slots");
    let resumed_cfg = cfg(&dir, true, 8);
    let (train, _) = split(g.csr.num_vertices(), resumed_cfg.seed);
    let obs = Arc::new(Obs::wall());
    let shared = Shared::new(&g, ModelKind::GraphSage, &resumed_cfg, &obs, &train);
    assert_eq!(shared.resume_latest().unwrap(), Some(0));
    let kept: Vec<bool> = shared.ledger().kept().iter().map(Option::is_some).collect();
    assert_eq!(kept, [false, false, false, true, true, true, true, true]);

    let kept_run = run_threaded(
        &g,
        ModelKind::GraphSage,
        &cfg(&resume_from("kept"), true, 8),
    );
    let fresh_run = run_threaded(
        &g,
        ModelKind::GraphSage,
        &cfg(&resume_from("fresh"), true, 1),
    );
    let (kept_run, fresh_run) = (kept_run.unwrap(), fresh_run.unwrap());
    assert_eq!(kept_run.resumed_from, Some(0));
    assert_eq!(kept_run.history.len(), 24);
    assert_eq!(trained_bits(&kept_run), trained_bits(&fresh_run));
    std::fs::remove_dir_all(&root).ok();
}

/// A generation whose trained set has a hole — what a snapshot taken
/// while a peer's batch was still leased leaves — resumes by training the
/// hole and everything past the highest trained id: every batch exactly
/// once.
#[test]
fn a_resume_from_a_trained_set_with_a_hole_trains_every_batch_once() {
    let g = graph();
    let root = std::env::temp_dir().join(format!("gnnlab-hole-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = |dir: &std::path::Path, resume: bool| ThreadedConfig {
        num_samplers: 2,
        num_trainers: 2,
        epochs: 2,
        batch_size: 25,
        cache_alpha: 0.3,
        queue_capacity: 8,
        seed: 6,
        checkpoint: CheckpointPolicy {
            every_batches: Some(5),
            resume,
            ..CheckpointPolicy::at(dir)
        },
        ..Default::default()
    };
    let written = root.join("written");
    run_threaded(&g, ModelKind::GraphSage, &cfg(&written, false)).unwrap();
    let (_, mut state) = checkpoint::load_latest(&written)
        .loaded
        .expect("the run wrote a generation");
    // Whatever the generation holds — a prefix, or a set with holes of
    // its own if a peer's batch was still in flight — one more hole.
    state.history.remove(state.history.len() / 2);
    state.cursor = state.history.len() as u64;
    (state.rng.next_epoch, state.rng.next_batch) = (state.cursor / 12, state.cursor % 12);
    let holed = root.join("holed");
    checkpoint::write_generation(&holed, 0, &state, 0, &ChaosPlan::default()).unwrap();

    let res = run_threaded(&g, ModelKind::GraphSage, &cfg(&holed, true)).unwrap();
    assert_eq!(res.resumed_from, Some(0));
    let ids: Vec<u64> = res.history.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..24).collect::<Vec<u64>>());
    assert_eq!(res.batches_trained, 24);
    assert_eq!(res.samples_produced, 24);
    std::fs::remove_dir_all(&root).ok();
}

/// A trained set with holes, as a multi-consumer run leaves it: the ids
/// the Samplers lease come out ascending, holes first, then everything
/// past the highest trained id; nothing trained is all of them, and a
/// fully trained set leaves none.
#[test]
fn resume_with_holes_resamples_them_first_in_ascending_order() {
    assert_eq!(untrained_ids(7, [4, 0, 2, 5]), vec![1, 3, 6]);
    // The highest id is the last one: the holes alone remain.
    assert_eq!(untrained_ids(4, [0, 3]), vec![1, 2]);
    assert_eq!(untrained_ids(3, []), vec![0, 1, 2]);
    assert_eq!(untrained_ids(3, [2, 1, 0]), Vec::<u64>::new());
}
