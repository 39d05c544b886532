//! The run's immutable plan — config, graph, train set, seeds, the memory
//! plan, the one cache ranking, the pools, the sampler — and the four
//! parts every executor and the supervisor share: the parameter server,
//! the scheduler, the lease ledgers and the fault part. The ranking is
//! made once, in [`Shared::new`]; every executor-owned store's table is a
//! prefix of it, so filling a store reads no hotness.

use super::config::{ExecutorCacheReport, ThreadedConfig, ThreadedError};
use super::fault::Faults;
use super::ledger::Ledgers;
use super::sched::Scheduler;
use super::server::ParamServer;
use super::snapshot::CkptRuntime;
use crate::memory::{live_sample_workspace_bytes, plan_live_run, LiveCachePlan, LiveGraphBytes};
use crate::sync::Mutex;
use gnnlab_cache::{load_cache_topk, CacheTable, CachedFeatureStore};
use gnnlab_graph::gen::SbmGraph;
use gnnlab_graph::{FeatureStore, VertexId};
use gnnlab_obs::{names, Executor, Obs, Stage};
use gnnlab_par::{splitmix64, ThreadPool};
use gnnlab_sampling::{presample_epoch, Kernel, MinibatchIter, Sample, SamplingAlgorithm};
use gnnlab_tensor::{Adam, GnnModel, ModelConfig, ModelKind};
use std::sync::Arc;
use std::time::Instant;

/// One task flowing through the sample queue — and, once trained, back to
/// a Sampler through [`Ledgers::give_back`] to be refilled in place.
#[derive(Default)]
pub(super) struct TrainTask {
    /// Global schedule index (the span `batch` id).
    pub id: u64,
    pub sample: Sample,
    pub labels: Vec<u32>,
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
    // (`Ledgers::take_presampled`). 3 and 4 initialized Trainer and
    // standby replicas, whose every value `ParamServer::pull` overwrites
    // before their first batch: replicas are built from the `Model`
    // stream.
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
fn planned_miss_ratio(hotness: &[f64], trainer_table: &CacheTable, standby_rows: usize) -> f64 {
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

/// Builds a model of the run's shape initialized from the `(Model, 0)`
/// stream: the master, and every consumer's replica (which
/// `ParamServer::pull` overwrites before its first batch).
pub(super) fn new_model(graph: &SbmGraph, kind: ModelKind, cfg: &ThreadedConfig) -> GnnModel {
    GnnModel::new(ModelConfig {
        kind,
        in_dim: graph.feat_dim,
        hidden_dim: cfg.hidden_dim,
        num_classes: graph.num_classes,
        seed: stream_seed(cfg.seed, StreamRole::Model, 0),
    })
}

/// A freshly filled executor-owned store and its fill's wall nanoseconds.
pub(super) type Filled = (CachedFeatureStore, u64);

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
    /// The paper's sampling algorithm for `kind`, on the Fisher–Yates
    /// kernel: pre-sampling, every Sampler and evaluation draw with it.
    pub sampler: Box<dyn SamplingAlgorithm>,
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
    /// Checkpoint runtime; `None` when the policy is disabled. Only the
    /// consumer whose batch makes a generation due reads it, to snapshot
    /// the parameter server.
    pub ckpt: Option<CkptRuntime>,
    /// One report per executor-owned store, pushed when its consume loop
    /// exits.
    pub cache_reports: Mutex<Vec<ExecutorCacheReport>>,
    server: ParamServer,
    sched: Scheduler,
    ledger: Ledgers,
    faults: Faults,
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
        let sampler = crate::Workload::default_algorithm(kind).sampler(Kernel::FisherYates);
        // The data-parallel pool behind Extract; shared by every Trainer
        // through the feature store.
        let pool = Arc::new(ThreadPool::new(cfg.threads));
        let bookends = ThreadPool::new(cfg.num_samplers + cfg.num_trainers);
        let m = &obs.metrics;
        m.gauge_set(names::EXTRACT_PAR_THREADS, pool.threads() as f64);
        m.gauge_set(names::FAULTS_RESPAWN_BUDGET, cfg.faults.max_respawns as f64);
        // The §3 memory plan: dedicated Trainers land exactly on
        // `cache_alpha`; a standby's device additionally keeps topology and
        // the sampling workspace, so its cache is strictly smaller.
        let live = LiveGraphBytes::new(n, graph.csr.num_edges(), graph.feat_dim);
        let sample_ws = live_sample_workspace_bytes(kind, cfg.batch_size, n);
        let plan = plan_live_run(cfg.cache_alpha, &live, sample_ws);
        let alpha = |rows: usize| rows as f64 / n.max(1) as f64;
        m.gauge_set(names::CACHE_TRAINER_ALPHA, alpha(plan.trainer_rows));
        m.gauge_set(names::CACHE_STANDBY_ALPHA, alpha(plan.standby_rows));
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
                sampler.as_ref(),
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
        let (trainer_table, standby_miss_ratio, t_sample, presampled) = match presampled {
            Some(p) => {
                let secs = p.sample_ns as f64 / 1e9 / batches_per_epoch.max(1) as f64;
                m.gauge_set(names::SCHEDULER_EWMA_T_SAMPLE, secs);
                // The run's one ranking (`load_cache`, §6.1): every store's
                // table is a prefix of it.
                let hotness = p.recorder.hotness();
                let table = load_cache_topk(&hotness, plan.trainer_rows, n);
                let miss_ratio = planned_miss_ratio(&hotness, &table, plan.standby_rows);
                let kept = p.kept.into_iter().map(Some).collect();
                (table, miss_ratio, Some(secs), kept)
            }
            None => (CacheTable::empty(n), 1.0, None, Vec::new()),
        };
        let host = FeatureStore::materialized(n, graph.feat_dim, graph.features.clone());
        let ckpt = || CkptRuntime::new(cfg.checkpoint.clone(), batches_per_epoch);
        Shared {
            cfg,
            kind,
            graph,
            train_set,
            shuffle_seed,
            batches_per_epoch,
            obs: Arc::clone(obs),
            host_store: Arc::new(host),
            trainer_table,
            plan,
            pool,
            bookends,
            ckpt: cfg.checkpoint.enabled().then(ckpt),
            cache_reports: Mutex::new(Vec::new()),
            server: ParamServer::new(new_model(graph, kind, cfg), Adam::new(cfg.lr)),
            sched: Scheduler::new(Arc::clone(obs), standby_miss_ratio, t_sample),
            ledger: Ledgers::new(cfg, batches_per_epoch, Arc::clone(obs), presampled),
            faults: Faults::new(Arc::clone(obs), &cfg.faults),
            sampler,
        }
    }

    /// The parameter server part.
    pub(super) fn server(&self) -> &ParamServer {
        &self.server
    }

    /// The scheduler part.
    pub(super) fn sched(&self) -> &Scheduler {
        &self.sched
    }

    /// The lease ledgers.
    pub(super) fn ledger(&self) -> &Ledgers {
        &self.ledger
    }

    /// The fault part.
    pub(super) fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Records `err` (first crash wins) and poisons both queues so every
    /// blocked executor unwinds promptly.
    pub(super) fn fail_fatal(&self, err: ThreadedError) {
        self.faults.record_error(&err);
        self.ledger.poison(&err.to_string());
    }

    /// Fills a fresh two-tier store over the shared host tier with
    /// `table`'s feature rows; returns it with the fill's measured wall
    /// nanoseconds.
    pub(super) fn fill_store(&self, table: CacheTable) -> Filled {
        let started = Instant::now();
        let (host, pool) = (Arc::clone(&self.host_store), Arc::clone(&self.pool));
        let (store, _) = CachedFeatureStore::shared_with_pool(host, table, pool);
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
    pub(super) fn build_store(&self, table: CacheTable, device: u32, role: Executor) -> Filled {
        let obs = &self.obs;
        let (store, ns) = {
            let _g = obs.start_span(device, role, Stage::LoadCache, u64::MAX);
            self.fill_store(table)
        };
        obs.metrics.observe(names::CACHE_REFRESH_NS, ns as f64);
        self.sched.record_refresh(ns);
        (store, ns)
    }
}
