//! State every executor and the supervisor share for one run — the
//! parameter server, the live stage-time EWMAs, per-executor RNG stream
//! seeds, the fault/recovery counters, the run's one cache ranking — and
//! the helpers built on it. The ranking is made once, in [`Shared::new`];
//! every executor-owned store's table is a prefix of it, so filling a
//! store reads no hotness.

use super::config::{
    ExecutorCacheReport, RecoveryReport, ThreadedConfig, ThreadedError, ThreadedErrorKind,
};
use super::snapshot::CkptRuntime;
use crate::checkpoint::BatchRecord;
use crate::faults::splitmix64;
use crate::memory::{live_sample_workspace_bytes, plan_live_run, LiveCachePlan, LiveGraphBytes};
use crate::queue::GlobalQueue;
use crate::schedule::num_samplers;
use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering};
use crate::train_real::sampler_for;
use gnnlab_cache::{load_cache_topk, CacheTable, CachedFeatureStore};
use gnnlab_graph::gen::SbmGraph;
use gnnlab_graph::{FeatureStore, VertexId};
use gnnlab_obs::{names, Executor, Obs, Stage};
use gnnlab_par::ThreadPool;
use gnnlab_sampling::{presample_epoch, MinibatchIter, Sample};
use gnnlab_tensor::{Adam, GnnModel, Matrix, ModelConfig, ModelKind};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One task flowing through the global queue — and, once trained, back to
/// a Sampler through [`Shared::returned`] to be refilled in place.
#[derive(Default)]
pub(super) struct TrainTask {
    /// Global schedule index (the span `batch` id).
    pub id: u64,
    pub sample: Sample,
    pub labels: Vec<u32>,
}

/// Every batch id in `0..total` that `trained` does not name, ascending:
/// a resume re-samples the holes a multi-consumer run left first, then
/// goes on past the highest trained id. A loaded history's ids are below
/// `total`: the decoder checks them against the stored meta, and resume
/// refuses a meta that is not the live run's.
pub(super) fn untrained_ids(total: usize, trained: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut done = vec![false; total];
    for i in trained {
        done[i as usize] = true;
    }
    (0..total as u64).filter(|&i| !done[i as usize]).collect()
}

/// How often a consumer waiting for its round's step re-checks it — the
/// queue's guard against a lost wakeup, here too.
const ROUND_WAIT: Duration = Duration::from_millis(50);

/// The shared parameter server: master weights plus the optimizer state,
/// the book of who holds a copy of the parameters, and the history of the
/// batches the master has stepped on.
///
/// Dedicated Trainers update asynchronously: each push steps the
/// optimizer at once, so a gradient is at most as many versions stale as
/// there are peers in flight (§5.2's bounded staleness). A switched
/// standby may only buy time, not change what the run converges to, and
/// a stale gradient does: fed back through Adam's first moment, one
/// version of delay cuts the step length the loop tolerates about
/// forty-fold, and a learning rate a serial run is comfortable with
/// oscillates (DESIGN §4c has the measurements). So while a standby
/// consumes, updates go in **rounds**: a push only adds its gradient to
/// the master's, the pusher waits, and when the last consumer in flight
/// has pushed, the optimizer takes one step on the round's mean gradient
/// — as many times as long as the round has gradients, the linear scaling
/// rule, so a batch moves the model as far as it did alone — and everyone
/// pulls the new parameters. No gradient is applied to parameters it was
/// not computed on.
///
/// A push hands over its batch's [`BatchRecord`], and the record joins
/// `history` at the step that applies its gradient, so one locked read of
/// the server is a consistent checkpoint: the history names exactly the
/// batches the values and the Adam state have stepped on.
pub(super) struct ParamServer {
    pub master: GnnModel,
    pub opt: Adam,
    /// Switched standbys consuming right now; rounds are on while any is.
    pub standbys: usize,
    /// Consumers between their pull and their push.
    in_flight: usize,
    /// Records of the gradients summed into the master's since the last
    /// step.
    pending: Vec<BatchRecord>,
    /// Every batch the master has stepped on, in step order (preloaded
    /// with the checkpointed trained set on resume).
    pub history: Vec<BatchRecord>,
    /// Steps taken; a pusher waiting for its round's step watches it move.
    round: u64,
}

impl ParamServer {
    pub(super) fn new(master: GnnModel, opt: Adam) -> Self {
        ParamServer {
            master,
            opt,
            standbys: 0,
            in_flight: 0,
            pending: Vec::new(),
            history: Vec::new(),
            round: 0,
        }
    }

    /// A copy of every master parameter value, in `params_mut()` order —
    /// what a checkpoint persists.
    pub(super) fn values(&mut self) -> Vec<Matrix> {
        self.master
            .params_iter_mut()
            .map(|p| p.value.clone())
            .collect()
    }

    /// Steps the optimizer on the mean of the `pending` gradients summed
    /// into the master's, `pending` times as long, and moves their records
    /// into `history`. One pending gradient — every step outside a round —
    /// is the plain step, bit for bit.
    fn step(&mut self) {
        let n = self.pending.len();
        self.history.append(&mut self.pending);
        if n > 1 {
            for p in self.master.params_iter_mut() {
                p.grad.scale(1.0 / n as f32);
            }
        }
        self.opt
            .step_scaled(self.master.params_iter_mut(), n as f32);
        self.round += 1;
    }
}

// ---------------------------------------------------------------------------
// Per-executor RNG streams.
// ---------------------------------------------------------------------------

/// The independent RNG consumers of a threaded run. Each `(role, index)`
/// pair gets its own stream; the seed's raw value is never used directly
/// (the old `seed ^ (index << 17)` scheme made Sampler 0, the model init
/// and the shuffle all share `cfg.seed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum StreamRole {
    /// Master model initialization.
    Model = 1,
    // 2 was a Sampler's per-*executor* stream. Batch sampling now draws
    // from per-*batch* domain-tagged streams (`sampling::presample_rng`
    // over `(seed, epoch, batch)`), so the sampling RNG "position" is a
    // pure function of the batch cursor: checkpoints persist the cursor
    // and resume replays the exact same draws, no matter which executor
    // samples which batch before or after the restart. PreSC's
    // pre-sampling pass draws epoch 0 from the same streams over the
    // `Shuffle` order, so its samples are the ones the run trains on
    // (`Shared::presampled`). 3 and 4 initialized Trainer and standby
    // replicas, whose every value `pull_params` overwrites before their
    // first batch: replicas are built from the `Model` stream.
    /// Held-out evaluation sampling.
    Eval = 5,
    /// The train/test vertex split.
    Split = 6,
    /// The per-epoch mini-batch shuffle (shared by all Samplers).
    Shuffle = 7,
}

/// Derives the RNG stream for `(seed, role, index)`.
pub(super) fn stream_seed(seed: u64, role: StreamRole, index: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ role as u64) ^ index)
}

// ---------------------------------------------------------------------------
// Live stage-time estimates (EWMA over recorded batch times).
// ---------------------------------------------------------------------------

/// EWMA smoothing factor for the live stage-time estimates.
const EWMA_ALPHA: f64 = 0.2;

/// A lock-free EWMA cell (f64 bits in an atomic; NaN = no samples yet).
#[derive(Debug)]
pub(super) struct AtomicEwma(AtomicU64);

impl AtomicEwma {
    pub(super) fn new() -> Self {
        AtomicEwma(AtomicU64::new(f64::NAN.to_bits()))
    }

    /// Overwrites the cell with a checkpointed estimate (`None` = the
    /// cell had never been updated).
    pub(super) fn set(&self, value: Option<f64>) {
        self.0
            .store(value.unwrap_or(f64::NAN).to_bits(), Ordering::Relaxed);
    }

    /// Folds one observation in and returns the new estimate.
    pub(super) fn update(&self, x: f64) -> f64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let new = if old.is_nan() {
                x
            } else {
                old + EWMA_ALPHA * (x - old)
            };
            match self.0.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return new,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(super) fn get(&self) -> Option<f64> {
        let v = f64::from_bits(self.0.load(Ordering::Relaxed));
        (!v.is_nan()).then_some(v)
    }
}

/// One executor's feed into the live estimates: where its per-batch work
/// times go.
pub(super) struct BatchClock<'a> {
    /// The scheduler EWMA this executor's role feeds, and its obs series.
    cell: &'a AtomicEwma,
    series: &'static str,
    /// The slot's straggler factor (1.0 = healthy).
    slowdown: f64,
    /// This executor's own batch-time EWMA, published as a gauge so the
    /// straggler alert can compare it against its fleet's median.
    own: Option<f64>,
    gauge: String,
}

impl<'a> BatchClock<'a> {
    pub(super) fn new(
        cell: &'a AtomicEwma,
        series: &'static str,
        gauge: String,
        slowdown: f64,
    ) -> Self {
        BatchClock {
            cell,
            series,
            slowdown,
            own: None,
            gauge,
        }
    }

    /// Starts this executor's own estimate at its role's current one and
    /// publishes it as the slot's gauge and a point of the role's series,
    /// so the slot shows up before it records a batch — which a Sampler
    /// whose claims all come pre-sampled, or a Trainer on a run with fewer
    /// batches than consumers, never does. While the role has no estimate,
    /// `fallback` (the value the scheduler reads in its place) is
    /// published instead, and the first recorded batch replaces it.
    /// Without either there is nothing to publish yet.
    pub(super) fn starting_at_role(mut self, fallback: Option<f64>, obs: &Obs) -> Self {
        self.own = self.cell.get();
        if let Some(start) = self.own.or(fallback) {
            obs.metrics.gauge_set(&self.gauge, start);
            obs.metrics.sample(self.series, obs.now_ns(), start);
        }
        self
    }

    /// Records one batch that took `secs` of work. A straggling device
    /// first stretches the batch to `slowdown` times its natural duration
    /// (a real sleep); the stretched time is what both EWMAs observe, so
    /// the allocation rule and the switching metric see the straggler.
    pub(super) fn record(&mut self, mut secs: f64, obs: &Obs) {
        if self.slowdown > 1.0 {
            std::thread::sleep(Duration::from_secs_f64(secs * (self.slowdown - 1.0)));
            secs *= self.slowdown;
        }
        let est = self.cell.update(secs);
        obs.metrics.sample(self.series, obs.now_ns(), est);
        let own = self
            .own
            .map_or(secs, |prev| prev + EWMA_ALPHA * (secs - prev));
        self.own = Some(own);
        obs.metrics.gauge_set(&self.gauge, own);
    }
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

/// How much more extraction traffic the standby's planned cache misses
/// relative to a dedicated Trainer's, estimated from the hotness mass
/// each planned cache captures: `(1 + miss_s) / (1 + miss_t)` where
/// `miss_r` is role r's expected miss fraction (hotness is proportional
/// to expected visits, so captured mass approximates the hit rate). The
/// masses are summed along `trainer_table`, the run's ranking of
/// `hotness`, whose first `standby_rows` vertices are the standby's cache.
/// Always ≥ 1; exactly 1 with no hotness mass or equal shapes. Seeds the
/// standby `T_t'` estimate before any standby has run.
pub(super) fn planned_miss_ratio(
    hotness: &[f64],
    trainer_table: &CacheTable,
    standby_rows: usize,
) -> f64 {
    let total: f64 = hotness.iter().sum();
    if total <= 0.0 {
        return 1.0;
    }
    let ranked = trainer_table.cached_vertices();
    let mass = |rows: usize| {
        ranked[..rows]
            .iter()
            .map(|&v| hotness[v as usize])
            .sum::<f64>()
            / total
    };
    let miss_t = 1.0 - mass(ranked.len());
    let miss_s = 1.0 - mass(standby_rows);
    ((1.0 + miss_s) / (1.0 + miss_t)).max(1.0)
}

/// A consumer between its pull and its push: the server counts it in
/// flight, and a round waits for it. Dropped without a push — the
/// consumer panicked mid-train — it leaves the round all the same, so
/// its peers are not left waiting for a gradient that will never come.
pub(super) struct Pulled<'s, 'a> {
    sh: &'s Shared<'a>,
    pushed: bool,
}

impl<'a> Shared<'a> {
    /// Copies master parameter values into a replica (the consumer's
    /// pull), straight into the replica's existing buffers under the lock.
    pub(super) fn pull_params(&self, replica: &mut GnnModel) -> Pulled<'_, 'a> {
        let mut guard = self.server.lock();
        for (p, m) in replica
            .params_iter_mut()
            .zip(guard.master.params_iter_mut())
        {
            p.value.data_mut().copy_from_slice(m.value.data());
        }
        guard.in_flight += 1;
        Pulled {
            sh: self,
            pushed: false,
        }
    }
}

impl Pulled<'_, '_> {
    /// Pushes a replica's gradients into the master: added from the
    /// replica's own buffers and zeroed there once the lock is released.
    /// Outside a round the optimizer steps at once; in one (see
    /// [`ParamServer`]) it steps when the last consumer in flight has
    /// pushed, and this call returns after that step. Either way `record`
    /// joins the history at that step.
    pub(super) fn push_grads(mut self, replica: &mut GnnModel, record: BatchRecord) {
        self.pushed = true;
        let sh = self.sh;
        {
            let mut guard = sh.server.lock();
            for (p, r) in guard
                .master
                .params_iter_mut()
                .zip(replica.params_iter_mut())
            {
                p.grad.add_assign(&r.grad);
            }
            guard.pending.push(record);
            guard.in_flight -= 1;
            if guard.standbys == 0 || guard.in_flight == 0 {
                guard.step();
                sh.round_stepped.notify_all();
            } else {
                let round = guard.round;
                while guard.round == round {
                    sh.round_stepped.wait_for(&mut guard, ROUND_WAIT);
                }
            }
        }
        replica.zero_grad();
    }
}

impl Drop for Pulled<'_, '_> {
    fn drop(&mut self) {
        if self.pushed {
            return;
        }
        let mut guard = self.sh.server.lock();
        guard.in_flight -= 1;
        if guard.in_flight == 0 && !guard.pending.is_empty() {
            guard.step();
            self.sh.round_stepped.notify_all();
        }
    }
}

/// Builds a model of the run's shape initialized from the `(Model, 0)`
/// stream: the master, and every consumer's replica (which `pull_params`
/// overwrites before its first batch).
pub(super) fn new_model(graph: &SbmGraph, kind: ModelKind, cfg: &ThreadedConfig) -> GnnModel {
    GnnModel::new(ModelConfig {
        kind,
        in_dim: graph.feat_dim,
        hidden_dim: cfg.hidden_dim,
        num_classes: graph.num_classes,
        seed: stream_seed(cfg.seed, StreamRole::Model, 0),
    })
}

/// Renders a caught panic payload as text.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Shared run state.
// ---------------------------------------------------------------------------

/// Everything the executors and the supervisor share for one run. Lives on
/// the caller's stack outside the thread scope so respawned threads can
/// borrow it (`&'env Shared`).
pub(super) struct Shared<'a> {
    pub cfg: &'a ThreadedConfig,
    pub kind: ModelKind,
    pub graph: &'a SbmGraph,
    pub train_set: &'a [VertexId],
    pub shuffle_seed: u64,
    pub batches_per_epoch: usize,
    pub queue: GlobalQueue<TrainTask>,
    /// Trained tasks on their way back to the Samplers, which refill them
    /// in place (DESIGN §4c, "A batch's life"). Only a task's sole owner
    /// can put it here — `Arc::try_unwrap` after the lease completes — and
    /// the queue holds a reference to every task it has queued or leased,
    /// so no task here can still be replayed, and none is here twice. A
    /// Sampler makes a new task only when this list runs dry, so it never
    /// holds more than were ever in flight at once.
    pub returned: Mutex<Vec<TrainTask>>,
    /// Pre-sampling's samples of epoch-0 batches `0..min(batches_per_epoch,
    /// queue_capacity)`, slot `b` for batch `b`. The Sampler that claims
    /// batch `b` takes its slot instead of sampling it again (DESIGN §4c,
    /// "A batch's life"); a slot lost with a crashed burst stays empty and
    /// is sampled afresh, to the same bits. Empty when α = 0 skips the pass.
    pub presampled: Mutex<Vec<Option<Sample>>>,
    pub obs: Arc<Obs>,
    /// The shared host feature tier every executor-owned store reads on a
    /// miss; materialized once per run.
    pub host_store: Arc<FeatureStore>,
    /// The per-role cache rows (§3 capacity accounting): a Trainer's
    /// `cache_alpha` share; a standby's, less topology and the sampling
    /// workspace.
    pub plan: LiveCachePlan,
    /// The run's one ranking of the PreSC hotness map, cut at a dedicated
    /// Trainer's `trainer_rows`: every Trainer's store is built at this
    /// table, a standby's at its prefix ([`Shared::standby_table`]).
    /// Held-out evaluation fills its store from it, so its traffic is
    /// counted as a Trainer's would be. Empty when α = 0 skips the pass.
    pub trainer_table: CacheTable,
    /// The data-parallel pool behind Extract and cache fills,
    /// [`ThreadedConfig::threads`] wide.
    pub pool: Arc<ThreadPool>,
    /// The pool behind the run's two bookends — PreSC pre-sampling (epoch
    /// 0's G step) before the executor scope opens, held-out evaluation
    /// after it joins — as wide as the fleet (`num_samplers +
    /// num_trainers`), whose devices have nothing else to do in either
    /// phase. Both results are identical at every width.
    pub bookends: ThreadPool,
    /// Planned standby/trainer extraction-traffic ratio (≥ 1), the
    /// `T_t'` seed before any standby has run.
    pub standby_miss_ratio: f64,
    /// EWMA of measured cache-refresh seconds, amortized into the `T_t'`
    /// seed.
    pub refresh_secs: AtomicEwma,
    /// One report per executor-owned store, pushed when its consume loop
    /// exits.
    pub cache_reports: Mutex<Vec<ExecutorCacheReport>>,
    pub server: Mutex<ParamServer>,
    /// Signalled after every optimizer step; consumers waiting for their
    /// round's step sleep on it.
    pub round_stepped: Condvar,
    /// Dedicated Trainers of the starting fleet that have not leased a
    /// batch yet; a consumer's second dequeue waits until none is
    /// ([`Shared::await_first_leases`]).
    pub unleased: Mutex<usize>,
    /// Signalled when `unleased` reaches zero.
    pub all_leased: Condvar,
    /// Live `T_s`/`T_t`/`T_t'` estimates, shared by every executor of the
    /// run.
    pub t_sample: AtomicEwma,
    pub t_train: AtomicEwma,
    pub t_standby: AtomicEwma,
    /// The Samplers' batch ids (§5.2's dynamic global scheduler): every
    /// untrained id, ascending, queued and closed before any Sampler runs
    /// ([`Shared::post_untrained_ids`]). A Sampler leases a burst and
    /// completes it once its samples are in `queue`; a crash reclaims it
    /// to the front. On a private hub, so `queue.*` stays the sample
    /// queue's.
    pub ids: GlobalQueue<u64>,
    /// Samplers in their sampling phase: counted at spawn, uncounted when
    /// the phase ends or unwinds.
    pub samplers: AtomicUsize,
    /// Executor ids currently consuming (Trainers + switched standbys):
    /// the `N_t` every switch decision divides the backlog by. A consumer
    /// leaves it on exit and on a crash, so it never counts a dead one;
    /// the supervisor respawns a Trainer when a crash empties it with work
    /// still queued.
    pub consuming: Mutex<HashSet<usize>>,
    /// Unique executor ids (also the lease owner ids and respawn RNG
    /// stream indices).
    pub next_exec: AtomicUsize,
    /// One fired flag per [`FaultPlan::crashes`](crate::faults::FaultPlan)
    /// entry, so each injected crash fires exactly once across respawns.
    pub crash_fired: Vec<AtomicBool>,
    pub first_error: Mutex<Option<ThreadedError>>,
    pub produced: AtomicUsize,
    pub trained: AtomicUsize,
    pub switches: AtomicUsize,
    /// Checkpoint runtime; `None` when the policy is disabled. Only the
    /// consumer whose batch makes a generation due reads it, to snapshot
    /// the parameter server.
    pub ckpt: Option<CkptRuntime>,
    /// Units of [`FaultPlan::max_respawns`](crate::faults::FaultPlan) spent so far.
    pub respawns_used: AtomicUsize,
    /// The cumulative recovery report (also the end-of-run report).
    /// Recovery events are rare — a crash, a retry — so one leaf lock
    /// keeps the report a single value that checkpoints copy out and
    /// resume copies back whole.
    pub recovery: Mutex<RecoveryReport>,
}

impl<'a> Shared<'a> {
    /// Plans memory, ranks the cache once, and builds the run's shared state
    /// around `train_set` — everything short of spawning an executor.
    pub(super) fn new(
        graph: &'a SbmGraph,
        kind: ModelKind,
        cfg: &'a ThreadedConfig,
        obs: &Arc<Obs>,
        train_set: &'a [VertexId],
    ) -> Self {
        let n = graph.csr.num_vertices();
        let batches_per_epoch = train_set.len().div_ceil(cfg.batch_size);
        // The data-parallel pool behind Extract; shared by every Trainer
        // through the feature store.
        let pool = Arc::new(ThreadPool::new(cfg.threads));
        let bookends = ThreadPool::new(cfg.num_samplers + cfg.num_trainers);
        obs.metrics
            .gauge_set(names::EXTRACT_PAR_THREADS, pool.threads() as f64);
        obs.metrics
            .gauge_set(names::FAULTS_RESPAWN_BUDGET, cfg.faults.max_respawns as f64);
        // The §3 memory plan: dedicated Trainers land exactly on
        // `cache_alpha`; a standby's device additionally keeps topology and
        // the sampling workspace, so its cache is strictly smaller.
        let live = LiveGraphBytes::new(n, graph.csr.num_edges(), graph.feat_dim);
        let sample_ws = live_sample_workspace_bytes(kind, cfg.batch_size, n);
        let plan = plan_live_run(cfg.cache_alpha, &live, sample_ws);
        let alpha = |rows: usize| rows as f64 / n.max(1) as f64;
        obs.metrics
            .gauge_set(names::CACHE_TRAINER_ALPHA, alpha(plan.trainer_rows));
        obs.metrics
            .gauge_set(names::CACHE_STANDBY_ALPHA, alpha(plan.standby_rows));
        // The hotness map every per-executor cache is cut from: PreSC#1,
        // the paper's policy, over the run's own epoch 0 — its shuffle, its
        // per-batch streams — so pre-sampling is that epoch's G step. It
        // fans out over `bookends` (the paper's Samplers amortise it, Table
        // 6 row P3); visit counts are integer sums, so the map is the same
        // at any width. The first batches' samples are kept for the
        // Samplers to enqueue, as many as a full queue holds. Skipped when
        // a Trainer affords no cache row — nor does a standby then, which
        // never gets more rows than a Trainer (`plan_live_run`): the α = 0
        // path used to pay a full pre-sampling epoch for a cache nothing
        // would ever populate.
        let shuffle_seed = stream_seed(cfg.seed, StreamRole::Shuffle, 0);
        let presampled = (plan.trainer_rows > 0).then(|| {
            let mut order = Vec::new();
            MinibatchIter::shuffle_into(train_set, shuffle_seed, 0, &mut order);
            let keep = batches_per_epoch.min(cfg.queue_capacity);
            presample_epoch(
                &graph.csr,
                &order,
                sampler_for(kind).as_ref(),
                cfg.batch_size,
                cfg.seed,
                0,
                true,
                &bookends,
                |b, sample| (b < keep).then(|| std::mem::take(sample)),
            )
        });
        // The pass's mean batch time is the first `T_s` reading: a Sampler
        // that enqueues kept samples records none of its own, and without
        // one a switch decision would read `T_t ≈ T_s` as zero.
        let t_sample = AtomicEwma::new();
        let ((trainer_table, standby_miss_ratio), presampled) = match presampled {
            Some(p) => {
                let secs = p.sample_ns as f64 / 1e9 / batches_per_epoch.max(1) as f64;
                let est = t_sample.update(secs);
                obs.metrics
                    .sample(names::SCHEDULER_EWMA_T_SAMPLE, obs.now_ns(), est);
                // The run's one ranking (`load_cache`, §6.1): every store's
                // table is a prefix of it.
                let hotness = p.recorder.hotness();
                let table = load_cache_topk(&hotness, plan.trainer_rows, n);
                let miss_ratio = planned_miss_ratio(&hotness, &table, plan.standby_rows);
                ((table, miss_ratio), p.kept.into_iter().map(Some).collect())
            }
            None => ((CacheTable::empty(n), 1.0), Vec::new()),
        };
        Shared {
            cfg,
            kind,
            graph,
            train_set,
            shuffle_seed,
            batches_per_epoch,
            queue: GlobalQueue::bounded_with_obs(cfg.queue_capacity, Arc::clone(obs)),
            returned: Mutex::new(Vec::new()),
            presampled: Mutex::new(presampled),
            obs: Arc::clone(obs),
            host_store: Arc::new(FeatureStore::materialized(
                n,
                graph.feat_dim,
                graph.features.clone(),
            )),
            standby_miss_ratio,
            trainer_table,
            plan,
            pool,
            bookends,
            refresh_secs: AtomicEwma::new(),
            cache_reports: Mutex::new(Vec::new()),
            server: Mutex::new(ParamServer::new(
                new_model(graph, kind, cfg),
                Adam::new(cfg.lr),
            )),
            round_stepped: Condvar::new(),
            unleased: Mutex::new(cfg.num_trainers),
            all_leased: Condvar::new(),
            t_sample,
            t_train: AtomicEwma::new(),
            t_standby: AtomicEwma::new(),
            ids: GlobalQueue::bounded((batches_per_epoch * cfg.epochs).max(1)),
            samplers: AtomicUsize::new(0),
            consuming: Mutex::new(HashSet::new()),
            // The starting fleet takes ids `0..num_samplers + num_trainers`
            // (`run_threaded_obs`); respawns take the ones after.
            next_exec: AtomicUsize::new(cfg.num_samplers + cfg.num_trainers),
            crash_fired: cfg
                .faults
                .crashes
                .iter()
                .map(|_| AtomicBool::new(false))
                .collect(),
            first_error: Mutex::new(None),
            produced: AtomicUsize::new(0),
            trained: AtomicUsize::new(0),
            switches: AtomicUsize::new(0),
            ckpt: cfg
                .checkpoint
                .enabled()
                .then(|| CkptRuntime::new(cfg.checkpoint.clone(), batches_per_epoch)),
            respawns_used: AtomicUsize::new(0),
            recovery: Mutex::new(RecoveryReport::default()),
        }
    }
}

impl Shared<'_> {
    /// Records `err` (first crash wins) and poisons both queues so every
    /// blocked executor unwinds promptly — a Sampler waiting on a peer's
    /// ids included.
    pub(super) fn fail_fatal(&self, err: ThreadedError) {
        let mut slot = self.first_error.lock();
        if slot.is_none() {
            *slot = Some(err.clone());
        }
        drop(slot);
        let reason = err.to_string();
        self.queue.poison(&reason);
        self.ids.poison(&reason);
    }

    /// Queues every batch id the master has not stepped on — all of them
    /// on a fresh run — for the Samplers, then closes the id queue. Runs
    /// after any resume, before any Sampler.
    pub(super) fn post_untrained_ids(&self) {
        let total = self.batches_per_epoch * self.cfg.epochs;
        let ids = untrained_ids(total, self.server.lock().history.iter().map(|r| r.id));
        gnnlab_par::invariant!(
            self.ids.enqueue_many(ids),
            "a fresh id queue holds every id and is neither closed nor poisoned"
        );
        self.ids.close();
    }

    /// [`Shared::fail_fatal`] from a caught panic payload. A panic is
    /// fatal either because the run has no respawn budget at all, or
    /// because the budget ran out — the kinds (and exit codes) differ.
    pub(super) fn fail(&self, who: String, payload: Box<dyn std::any::Any + Send>) {
        let kind = if self.cfg.faults.max_respawns > 0 {
            ThreadedErrorKind::RespawnBudgetExhausted
        } else {
            ThreadedErrorKind::ExecutorPanic
        };
        self.fail_fatal(ThreadedError::new(kind, who, panic_text(payload)));
    }

    /// The injected-crash point: panics — at most once per
    /// [`FaultPlan::crashes`](crate::faults::FaultPlan) entry, across
    /// respawns — once `who` has finished the entry's batch count.
    pub(super) fn crash_point(&self, crash: Option<(usize, usize)>, done: usize, who: &str) {
        if let Some((ci, after)) = crash {
            if done >= after && !self.crash_fired[ci].swap(true, Ordering::AcqRel) {
                self.note_fault();
                panic!("injected fault: {who} after {after} batches");
            }
        }
    }

    /// Counts one injected fault.
    pub(super) fn note_fault(&self) {
        self.recovery.lock().faults_injected += 1;
        self.obs.metrics.counter_inc(names::FAULTS_INJECTED);
    }

    /// Tries to consume one unit of the respawn budget; `false` means the
    /// budget is exhausted and the crash must fail the run.
    pub(super) fn try_consume_budget(&self) -> bool {
        self.respawns_used
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
                (used < self.cfg.faults.max_respawns).then_some(used + 1)
            })
            .is_ok()
    }

    /// Books `elapsed` as supervisor downtime for one absorbed crash.
    pub(super) fn note_downtime(&self, elapsed: Duration) {
        // Recovery is fast enough that a coarse clock can read 0; floor at
        // 1ns so "downtime was accounted" stays observable.
        let ns = (elapsed.as_nanos() as u64).max(1);
        self.recovery.lock().downtime_ns += ns;
        self.obs
            .metrics
            .counter_add(names::RECOVERY_DOWNTIME_NS, ns as f64);
    }

    /// Takes pre-sampling's sample of global batch `i`, if it is kept and
    /// no one took it before. Only epoch 0's first batches are kept, and
    /// their global ids are their indices in the epoch.
    pub(super) fn take_presampled(&self, i: usize) -> Option<Sample> {
        self.presampled.lock().get_mut(i).and_then(Option::take)
    }

    /// Fills a fresh two-tier store over the shared host tier with
    /// `table`'s feature rows; returns it with the fill's measured wall
    /// nanoseconds.
    pub(super) fn fill_store(&self, table: CacheTable) -> (CachedFeatureStore, u64) {
        let started = Instant::now();
        let (store, _) = CachedFeatureStore::shared_with_pool(
            Arc::clone(&self.host_store),
            table,
            Arc::clone(&self.pool),
        );
        // Tiny fills can round to 0 on a coarse clock; floor at 1ns so
        // "the refresh was measured" stays observable per store.
        (store, (started.elapsed().as_nanos() as u64).max(1))
    }

    /// A standby's table: the top `standby_rows` of the run's ranking.
    pub(super) fn standby_table(&self) -> CacheTable {
        self.trainer_table.prefix(self.plan.standby_rows)
    }

    /// The span-instrumented cache-refresh stage: fills a fresh
    /// executor-owned store with `table`'s feature rows, measuring the
    /// fill alone into the `cache.refresh_ns` histogram and the refresh
    /// EWMA that amortizes into the `T_t'` seed. Returns the store and its
    /// measured refresh nanoseconds.
    pub(super) fn build_store(
        &self,
        table: CacheTable,
        device: u32,
        role: Executor,
    ) -> (CachedFeatureStore, u64) {
        let (store, ns) = {
            let _g = self
                .obs
                .start_span(device, role, Stage::LoadCache, u64::MAX);
            self.fill_store(table)
        };
        self.obs.metrics.observe(names::CACHE_REFRESH_NS, ns as f64);
        self.refresh_secs.update(ns as f64 / 1e9);
        (store, ns)
    }

    /// Blocks until every dedicated Trainer has leased a batch. On a short
    /// run the consumers that are up first — a peer that loaded its cache
    /// sooner, a standby — would otherwise drain the queue while a Trainer
    /// is still loading or waiting for a core, and that Trainer's `T_t`,
    /// batch-time gauge and cache counters would never be measured.
    pub(super) fn await_first_leases(&self) {
        let mut left = self.unleased.lock();
        while *left > 0 {
            self.all_leased.wait(&mut left);
        }
    }

    /// The §5.2 allocation rule on live estimates: with `n_g` devices,
    /// how many should currently train.
    pub(super) fn ideal_trainers(&self, n_g: usize) -> usize {
        let t_s = self.t_sample.get().unwrap_or(1e-3).max(1e-9);
        let t_t = self.t_train.get().unwrap_or(t_s).max(1e-9);
        n_g - num_samplers(n_g, t_s, t_t)
    }
}
