//! A real multi-threaded factored runtime.
//!
//! The co-simulations in [`crate::runtime`] model the paper's *timing* on
//! simulated GPUs; this module is the paper's *architecture* as an actual
//! concurrent program: Sampler threads pull mini-batches from a dynamic
//! global scheduler (a queue of the run's batch ids, §5.2), sample for
//! real, and enqueue whole samples into the bounded host-memory
//! [`GlobalQueue`](crate::queue::GlobalQueue); Trainer threads block on
//! the queue (no busy-spinning) and train real model replicas, publishing
//! gradients to a shared parameter server with bounded staleness ("GNNLab
//! updates model gradients with bounded staleness … which effectively
//! mitigates the convergence problem", §5.2).
//!
//! Dynamic executor switching (§5.3) runs live: every executor feeds EWMA
//! estimates of `T_s`, `T_t` and `T_t'` from its recorded batch times, and
//! a Sampler that finishes its share of the epoch flips into a standby
//! Trainer whenever the profit metric `P = M_r·T_t/N_t − T_t'` is
//! positive, training until the queue drains. The switch buys time and
//! must not cost accuracy: while a standby consumes, the parameter server
//! takes updates in rounds — one optimizer step per set of overlapping
//! consumers, on their mean gradient — so no gradient is applied to
//! parameters it was not computed on (`server::ParamServer` has the why).
//!
//! # Fault tolerance
//!
//! Failure behavior is driven by the run's fault plan
//! ([`ThreadedConfig::faults`], a [`crate::faults::FaultPlan`]):
//!
//! * **Leases** — both halves use one protocol: Samplers lease batch ids
//!   and confirm them once the samples are queued, consumers lease
//!   samples and confirm each after training; when an executor dies the
//!   supervisor reclaims its leases to the front of their queue, in
//!   order, and survivors replay them, so a crash loses no work and
//!   every batch still trains exactly once (injected crashes fire while
//!   the lease is held, *before* the batch is queued or trained).
//! * **Supervision** — a crashed executor's panic handler runs the
//!   recovery protocol: replay in-flight work, then either *respawn* a
//!   replacement on the same slot or *reassign* the role to survivors,
//!   decided by re-running the §5.2 allocation rule on the live EWMA
//!   stage times. Each absorbed crash consumes one unit of
//!   [`FaultPlan::max_respawns`](crate::faults::FaultPlan); past the
//!   budget the queue is poisoned and [`run_threaded`] fails fast — with
//!   the default empty plan (budget 0) any organic panic still unblocks
//!   every thread and surfaces as a [`ThreadedError`] in bounded time
//!   instead of deadlocking.
//! * **Retries** — seeded transient Extract/Train errors retry in place
//!   with capped exponential backoff plus deterministic jitter; a batch
//!   that exceeds [`crate::faults::RetryPolicy::max_attempts`] is
//!   unrecoverable and fails the run through the poison path (it does
//!   not consume respawn budget).
//! * **Stragglers** — per-slot slowdown factors stretch an executor's
//!   batch times; the EWMAs observe the stretched times, so the
//!   allocation rule and the switching metric see the straggler.
//!
//! Everything recovery does is counted in the run's
//! [`RecoveryReport`] and published under the `faults.*`, `recovery.*`
//! and `retry.*` metric names.
//!
//! # File map
//!
//! * `config` — [`ThreadedConfig`], [`ThreadedError`] and its exit codes,
//!   the result and report structs.
//! * `shared` — [`Shared`](shared::Shared), what every executor borrows:
//!   the run's immutable plan (config, graph, seeds, memory plan, the one
//!   cache ranking, pools, sampler), the stores filled from the ranking's
//!   prefixes, and the four parts below, each behind its own methods.
//! * `server` — `ParamServer`: pull, push, rounds while a standby
//!   consumes, the trained ids, checkpoint snapshot and restore, the
//!   end-of-run master and history.
//! * `sched` — `Scheduler`: the `T_s`/`T_t`/`T_t'` EWMAs and per-executor
//!   clocks, the `N_t` set, §5.2's allocation rule (`ideal_trainers`) and
//!   §5.3's switch decision (offer, then confirm after the standby's
//!   init).
//! * `ledger` — `Ledgers`: the id and sample queues, returned tasks,
//!   kept pre-samples, the executor and batch counts, the first-lease
//!   barrier.
//! * `fault` — `Faults`: fired crashes, the respawn budget, the first
//!   error, and one method per recovery event that moves its
//!   [`RecoveryReport`] field and its metric together.
//! * `snapshot` — checkpoints: the consumer whose batch makes a generation
//!   due snapshots the parameter server and writes it; resume splices a
//!   loaded generation back in.
//! * `supervisor` — spawning under `catch_unwind` and the two crash
//!   handlers (replay, then respawn or reassign).
//! * `sampler` — the Sampler executor's lease → refill → G → C →
//!   complete loop (no M step: DESIGN §1).
//! * `consumer` — the one lease → Extract → Train → return loop Trainers
//!   and standbys share, and the §5.3 switching decision.
//! * this file — [`run_threaded`] / [`run_threaded_obs`]: plan memory,
//!   build the shared state, resume, run the scope, evaluate.

mod config;
mod consumer;
mod fault;
mod ledger;
mod sampler;
mod sched;
mod server;
mod shared;
mod snapshot;
mod supervisor;

pub use config::{
    ExecutorCacheReport, RecoveryReport, ThreadedConfig, ThreadedError, ThreadedErrorKind,
    ThreadedResult,
};

use crate::sync::{AtomicUsize, Ordering};
use gnnlab_cache::CacheStats;
use gnnlab_graph::gen::SbmGraph;
use gnnlab_graph::VertexId;
use gnnlab_obs::{names, Executor, Obs};
use gnnlab_par::ThreadPool;
use gnnlab_sampling::{Sample, SampleBuffers};
use gnnlab_tensor::loss::correct_predictions;
use gnnlab_tensor::{GnnModel, Matrix, ModelKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use shared::{stream_seed, Shared, StreamRole};
use snapshot::CkptRuntime;
use std::sync::Arc;
use supervisor::Supervisor;

/// Runs the factored architecture with real threads on real data.
///
/// Training vertices are the first half of the graph (deterministic
/// split); accuracy is evaluated on the second half after all epochs.
/// Records into a private wall-clock [`Obs`]; use [`run_threaded_obs`] to
/// keep the spans and metrics.
///
/// # Errors
///
/// Returns a [`ThreadedError`] if an executor panic exceeds the fault
/// plan's respawn budget, or a transient fault exhausts its retries: the
/// poisoned queue unblocks every thread, so the error surfaces in bounded
/// time instead of hanging the run. Crashes within the budget are
/// recovered (replay + respawn/reassignment) and reported in
/// [`ThreadedResult::recovery`] instead.
pub fn run_threaded(
    graph: &SbmGraph,
    kind: ModelKind,
    cfg: &ThreadedConfig,
) -> Result<ThreadedResult, ThreadedError> {
    run_threaded_obs(graph, kind, cfg, &Arc::new(Obs::wall()))
}

/// [`run_threaded`] with a caller-supplied observability hub: every
/// Sampler/Trainer records wall-clock spans (feeding the `stage.*.ns`
/// latency histograms), the global queue keeps a `queue.depth` gauge
/// plus blocked time, the live EWMA stage-time estimates publish as
/// `scheduler.ewma_*` and per-executor `executor.ewma.*` gauges, the
/// Trainers' cache statistics are published under `cache.*`, and fault
/// handling under `faults.*` / `recovery.*` / `retry.*`. The run itself
/// records no series but `scheduler.switch_profit` and evaluates no
/// alert rule: a caller that reads series or alerts runs `gnnlab_obs`'s
/// telemetry watcher on `obs` around the run and stops it before reading.
///
/// # Errors
///
/// See [`run_threaded`].
pub fn run_threaded_obs(
    graph: &SbmGraph,
    kind: ModelKind,
    cfg: &ThreadedConfig,
    obs: &Arc<Obs>,
) -> Result<ThreadedResult, ThreadedError> {
    assert!(
        cfg.num_samplers >= 1 && cfg.num_trainers >= 1,
        "need executors"
    );
    let (train_set, test_set) = split(graph.csr.num_vertices(), cfg.seed);
    let lanes = gnnlab_tensor::kernel_lanes() as f64;
    obs.metrics.gauge_set(names::TENSOR_KERNEL_LANES, lanes);

    let shared = Shared::new(graph, kind, cfg, obs, &train_set);
    let resumed_from = shared.resume_latest()?;
    // Every batch id the master has not stepped on — all of them on a
    // fresh run — for the Samplers.
    let total = shared.batches_per_epoch * cfg.epochs;
    shared.ledger().post_ids(shared.server().untrained(total));

    std::thread::scope(|scope| {
        let (sup, s) = (Supervisor { scope, sh: &shared }, cfg.num_samplers);
        // Executor ids: the Samplers', then the Trainers'. Every Trainer
        // is a registered consumer before any thread runs, so a Sampler
        // that finishes first still counts it in `N_t`.
        let (trainers, sched) = (s..s + cfg.num_trainers, shared.sched());
        trainers.clone().for_each(|exec| sched.enlist(exec));
        (0..s).for_each(|slot| sup.spawn_sampler(slot, slot));
        trainers.for_each(|exec| sup.spawn_trainer(exec - s, exec));
    });

    if let Some(err) = shared.faults().take_error() {
        return Err(err);
    }

    // The lock is held only for the copy; evaluation runs on it.
    let (mut master, history) = shared.server().finish();
    let (correct, eval_report) = evaluate(&shared, &master, &test_set, &shared.bookends);
    shared.cache_reports.lock().push(eval_report);

    // Per-executor stores already streamed `cache.<role>.<slot>.*`; here
    // their end states roll up into the aggregate `cache.*` totals.
    let mut caches = std::mem::take(&mut *shared.cache_reports.lock());
    // Trainers, then standbys, then the end-of-run eval store (and
    // anything else host-side) last: `Executor`'s own order.
    caches.sort_by_key(|c| (c.role, c.slot));
    let mut cache_stats = CacheStats::default();
    caches.iter().for_each(|c| cache_stats.add(&c.stats));
    cache_stats.publish(&obs.metrics);
    // The master's flattened parameters, in stable layer order — the
    // chaos harness compares these bit-for-bit across kill–resume runs.
    let final_params: Vec<f32> = master
        .params_iter_mut()
        .flat_map(|p| p.value.data().iter().copied())
        .collect();
    let ledger = shared.ledger();
    Ok(ThreadedResult {
        batches_trained: ledger.trained(),
        samples_produced: ledger.produced(),
        // An empty test set has no correct prediction: 0.
        final_accuracy: correct as f64 / test_set.len().max(1) as f64,
        peak_queue_depth: ledger.samples().peak_depth(),
        cache_hit_rate: cache_stats.hit_rate(),
        caches,
        switches: shared.sched().switches(),
        queue_blocked_ns: ledger.samples().blocked_ns(),
        recovery: shared.faults().report(),
        history,
        final_params,
        checkpoints_written: shared.ckpt.as_ref().map_or(0, CkptRuntime::writes),
        resumed_from,
    })
}

/// The run's deterministic vertex split: a random training half drawn from
/// the seed's `Split` stream, and the held-out rest in id order.
fn split(n: usize, seed: u64) -> (Vec<VertexId>, Vec<VertexId>) {
    let train_set =
        gnnlab_graph::trainset::random_train_set(n, n / 2, stream_seed(seed, StreamRole::Split, 0));
    let mut in_train = vec![false; n];
    for &v in &train_set {
        in_train[v as usize] = true;
    }
    let test_set = (0..n as VertexId)
        .filter(|&v| !in_train[v as usize])
        .collect();
    (train_set, test_set)
}

/// Evaluates `master` on the held-out `test_set`, fanning its
/// `batch_size` chunks out over `pool`; returns the number of correct
/// predictions and the eval store's [`Executor::Host`] cache report.
///
/// Each worker takes the next chunk from one atomic cursor until none is
/// left, so a worker that finishes early takes more chunks instead of
/// idling behind a static split. The result is the same at every pool
/// width and under any interleaving: chunk `i` samples from its own
/// `(seed, Eval, i)` stream whichever worker runs it, correct predictions
/// are counted as integers, and the one store all workers read through
/// keeps its statistics in integer atomics. Each worker owns a
/// forward-only clone of the model and recycles one set of sample,
/// feature and label buffers across its chunks, as the consumers recycle
/// theirs.
///
/// Feature gathers route through a two-tier store shaped like a dedicated
/// Trainer's ([`Shared::trainer_table`], the same host tier), so held-out
/// traffic is counted in the `cache.*` stats instead of bypassing the
/// cache via a raw host gather — the served bytes are identical either
/// way, so accuracy is unchanged.
fn evaluate(
    shared: &Shared<'_>,
    master: &GnnModel,
    test_set: &[VertexId],
    pool: &ThreadPool,
) -> (usize, ExecutorCacheReport) {
    let (graph, cfg, algo) = (shared.graph, shared.cfg, &shared.sampler);
    let (store, refresh_ns) = shared.fill_store(shared.trainer_table.clone());
    let chunks: Vec<&[VertexId]> = test_set.chunks(cfg.batch_size.max(1)).collect();
    let cursor = AtomicUsize::new(0);
    let correct: usize = pool
        .map_ranges(pool.partitions(chunks.len()), |_, _| {
            let (mut model, mut bufs) = (master.clone(), SampleBuffers::new());
            let (mut sample, mut feat_buf, mut labels) =
                (Sample::default(), Vec::new(), Vec::new());
            let mut correct = 0;
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&chunk) = chunks.get(i) else { break };
                let seed = stream_seed(cfg.seed, StreamRole::Eval, i as u64);
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                algo.sample_into(&graph.csr, chunk, &mut rng, &mut bufs, &mut sample);
                store.extract_to_buffer(sample.input_nodes(), &mut feat_buf);
                let feats = Matrix::from_vec(sample.num_input_nodes(), graph.feat_dim, feat_buf);
                let logits = model.forward(&sample, &feats);
                labels.clear();
                labels.extend(chunk.iter().map(|&v| graph.labels[v as usize]));
                correct += correct_predictions(&logits, &labels);
                feat_buf = feats.into_vec();
            }
            correct
        })
        .into_iter()
        .sum();
    let report = ExecutorCacheReport {
        role: Executor::Host,
        slot: 0,
        alpha: store.table().alpha(),
        rows: store.table().len(),
        refresh_ns,
        stats: store.stats(),
    };
    (correct, report)
}

#[cfg(test)]
mod tests;
