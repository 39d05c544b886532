//! The consumer side: the one Extract → Train loop every Trainer and
//! every switched standby runs (§5.2), and the §5.3 switching decision
//! that turns a finished Sampler into a standby.

use super::config::{ExecutorCacheReport, ThreadedError, ThreadedErrorKind};
use super::shared::{new_model, BatchClock, Shared, StreamRole, TrainTask};
use crate::checkpoint::BatchRecord;
use crate::faults::ExecutorRole;
use crate::schedule::{seed_standby_estimate, switch_profit};
use crate::sync::Ordering;
use gnnlab_cache::{CacheStats, CachedFeatureStore};
use gnnlab_obs::{names, Executor, Stage};
use gnnlab_tensor::{GnnModel, Matrix};
use std::sync::Arc;
use std::time::Instant;

/// A Trainer's whole life: build its own memory-planned cache and
/// replica, then consume until the queue drains.
pub(super) fn trainer_phase(
    sh: &Shared<'_>,
    slot: usize,
    exec: usize,
) -> Result<(), ThreadedError> {
    Consumer::new(sh, exec, slot, false).run()
}

/// The §5.3 switching decision a Sampler takes once its sampling work is
/// done: evaluate the live profit metric and, if positive, pay the
/// replica-init and cache-refresh cost, re-check, and train as a standby
/// Trainer until the queue drains. For as long as it trains, the
/// parameter server takes updates in rounds (see
/// [`ParamServer`](super::shared::ParamServer)): the switch may only buy
/// time, not move what the run converges to.
pub(super) fn standby_phase(
    sh: &Shared<'_>,
    slot: usize,
    exec: usize,
) -> Result<(), ThreadedError> {
    let obs = &*sh.obs;
    let remaining = sh.queue.remaining();
    // Until estimates exist, fall back T_t ≈ T_s (same order of work per
    // batch here).
    let t_train = sh
        .t_train
        .get()
        .or_else(|| sh.t_sample.get())
        .unwrap_or(0.0);
    // T_t' is the measured standby EWMA once one exists; before that it
    // is *seeded* from the standby's planned cache shape and the measured
    // refresh cost (§5.3: the standby keeps topology, so its cache is
    // smaller and T_t' > T_t) — no hard-coded prior.
    let refresh = sh.refresh_secs.get().unwrap_or(0.0);
    let t_standby = sh.t_standby.get().unwrap_or_else(|| {
        seed_standby_estimate(t_train, sh.standby_miss_ratio, refresh, remaining)
    });
    let n_t = sh.active_trainers.load(Ordering::Relaxed);
    let profit = switch_profit(remaining, t_train, n_t, t_standby);
    obs.metrics
        .sample(names::SCHEDULER_SWITCH_PROFIT, obs.now_ns(), profit);
    obs.metrics.observe(names::SCHEDULER_SWITCH_PROFIT, profit);
    if profit <= 0.0 {
        obs.metrics.counter_inc(names::SCHEDULER_SWITCH_DENIED);
        return Ok(());
    }
    // Tentatively switch: register as a consumer, pay the replica init
    // and the cache refresh, then re-check the profit on a fresh queue
    // read — committing on the stale pre-init read both wasted the init
    // cost on a drained queue and overcounted `scheduler.switches`.
    sh.active_trainers.fetch_add(1, Ordering::Relaxed);
    sh.consuming.lock().insert(exec);
    let consumer = Consumer::new(sh, exec, slot, true);
    let remaining_now = sh.queue.remaining();
    let peers = sh.active_trainers.load(Ordering::Relaxed).saturating_sub(1);
    let t_standby_now = sh.t_standby.get().unwrap_or(t_standby);
    let profit_now = switch_profit(
        remaining_now,
        sh.t_train.get().unwrap_or(t_train),
        peers,
        t_standby_now,
    );
    if profit_now <= 0.0 {
        // The queue drained (or peers multiplied) while this standby was
        // initializing: a futile wake, not a switch.
        obs.metrics.counter_inc(names::SCHEDULER_SWITCH_FUTILE);
        sh.active_trainers.fetch_sub(1, Ordering::Relaxed);
        return Ok(());
    }
    obs.metrics.counter_inc(names::SCHEDULER_SWITCHES);
    sh.switches.fetch_add(1, Ordering::Relaxed);
    // Rounds stay on if this standby unwinds instead of returning: the
    // safe side, and what is left of the run is its tail.
    sh.server.lock().standbys += 1;
    let res = consumer.run();
    sh.server.lock().standbys -= 1;
    sh.active_trainers.fetch_sub(1, Ordering::Relaxed);
    res
}

/// One consuming executor — a dedicated Trainer or a switched standby —
/// and everything it owns for the length of its [`Consumer::run`] loop.
struct Consumer<'a> {
    sh: &'a Shared<'a>,
    /// Unique executor id: the queue-lease owner and the replica's init
    /// stream index.
    exec: usize,
    slot: usize,
    /// `"Trainer 2"` / `"Standby 0"`, for errors and injected-crash text.
    who: String,
    replica: GnnModel,
    /// The executor-owned two-tier cache store.
    store: CachedFeatureStore,
    /// The device and role this consumer's spans are recorded under.
    device: u32,
    role: Executor,
    refresh_ns: u64,
    /// This slot's injected crash: (index into `crash_fired`, batches to
    /// train first).
    crash: Option<(usize, usize)>,
    /// Feeds the role's scheduler EWMA (`T_t` or `T_t'`) and this
    /// executor's own straggler-alert gauge.
    clock: BatchClock<'a>,
    /// `cache.<role>.<slot>.{lookups,hits,misses,hit_rate}`.
    cache_names: [String; 4],
    /// Last published cache snapshot, so the per-executor counters stream
    /// deltas instead of re-adding the running totals.
    last_cache: CacheStats,
    /// The recycled feature buffer. `Vec::new()` never allocates, so it
    /// materializes on the first batch and is reused forever after.
    free_buf: Vec<f32>,
}

impl<'a> Consumer<'a> {
    /// Pays the executor's start-up cost: replica init on its own RNG
    /// stream and the span-instrumented cache fill at its role's planned
    /// row budget.
    fn new(sh: &'a Shared<'a>, exec: usize, slot: usize, standby: bool) -> Self {
        let cfg = sh.cfg;
        // A standby runs on its Sampler's device and inherits that
        // device's straggler factor; only dedicated Trainers take
        // injected Trainer crashes.
        let (role, name, title, stream, device, rows, fault_role, cell, series) = if standby {
            (
                Executor::Standby,
                "standby",
                "Standby",
                StreamRole::Standby,
                slot,
                sh.plan.standby_rows,
                ExecutorRole::Sampler,
                &sh.t_standby,
                names::SCHEDULER_EWMA_T_STANDBY,
            )
        } else {
            (
                Executor::Trainer,
                "trainer",
                "Trainer",
                StreamRole::Trainer,
                cfg.num_samplers + slot,
                sh.plan.trainer_rows,
                ExecutorRole::Trainer,
                &sh.t_train,
                names::SCHEDULER_EWMA_T_TRAIN,
            )
        };
        let device = device as u32;
        let replica = new_model(sh.graph, sh.kind, cfg, stream, exec as u64);
        let (store, refresh_ns) = sh.build_store(rows, device, role);
        Consumer {
            sh,
            exec,
            slot,
            who: format!("{title} {slot}"),
            replica,
            store,
            device,
            role,
            refresh_ns,
            crash: if standby {
                None
            } else {
                cfg.faults.crash_for(ExecutorRole::Trainer, slot)
            },
            clock: BatchClock::new(
                cell,
                series,
                names::executor_ewma(name, slot),
                cfg.faults.slowdown(fault_role, slot),
            ),
            cache_names: ["lookups", "hits", "misses", "hit_rate"]
                .map(|leaf| names::executor_cache(name, slot, leaf)),
            last_cache: CacheStats::default(),
            free_buf: Vec::new(),
        }
    }

    /// Consumes until the queue drains, then files this executor's
    /// [`ExecutorCacheReport`] — whether the loop exited cleanly or with
    /// an unrecoverable error.
    fn run(mut self) -> Result<(), ThreadedError> {
        let outcome = self.consume();
        self.sh.cache_reports.lock().push(ExecutorCacheReport {
            role: self.role,
            slot: self.slot,
            alpha: self.store.table().alpha(),
            rows: self.store.table().len(),
            refresh_ns: self.refresh_ns,
            stats: self.store.stats(),
        });
        outcome
    }

    /// The loop (§5.2): lease one batch, pass the injected-crash point and
    /// the transient-retry loop, gather its features, train it, publish,
    /// confirm the lease, hand the task back for a Sampler to refill, and
    /// run the checkpoint hook, which writes a generation when this batch
    /// makes one due. The blocking dequeue wakes on enqueue, reclaim,
    /// close or poison, so an idle consumer costs no CPU; an error means
    /// drained, or poisoned by a peer that crashed beyond recovery — its
    /// thread records the error, so just unwind quietly.
    fn consume(&mut self) -> Result<(), ThreadedError> {
        let sh = self.sh;
        let mut done = 0usize;
        while let Ok(lease) = sh.queue.dequeue_leased(self.exec as u32) {
            // Injected crash (at most once): fires while the lease is held
            // and before the batch trains, so the supervisor reclaims it
            // and a survivor trains it exactly once.
            sh.crash_point(self.crash, done, &self.who);
            let task = &*lease.task;
            self.retry_transients(task.id)?;
            // The per-batch time the EWMAs track: the gather plus the train.
            let started = Instant::now();
            let feats = self.extract(task);
            self.train(task, feats);
            self.publish(started.elapsed().as_secs_f64());
            sh.queue.complete(lease.id);
            // The unwrap succeeds only for the sole owner, so a task the
            // queue still holds — one a reclaim could replay — is never
            // reused.
            if let Ok(task) = Arc::try_unwrap(lease.task) {
                sh.returned.lock().push(task);
            }
            done += 1;
            if let Some(k) = sh.ckpt_after_batch() {
                return Err(ThreadedError::new(
                    ThreadedErrorKind::Killed,
                    self.who.clone(),
                    format!("simulated process kill after {k} trained batches"),
                ));
            }
        }
        Ok(())
    }

    /// Seeded transient Extract/Train errors: the batch fails `failures`
    /// consecutive times before succeeding; each retry backs off (capped
    /// exponential + jitter). Exceeding the retry budget is unrecoverable
    /// and fails the run through the poison path (no respawn would help
    /// a deterministic fault).
    fn retry_transients(&self, batch: u64) -> Result<(), ThreadedError> {
        let (sh, faults) = (self.sh, &self.sh.cfg.faults);
        for attempt in 0..faults.transient_failures(batch) {
            if attempt >= faults.retry.max_attempts {
                return Err(ThreadedError::new(
                    ThreadedErrorKind::UnrecoverableFault,
                    self.who.clone(),
                    format!(
                        "unrecoverable transient fault on batch {batch} after {attempt} retries"
                    ),
                ));
            }
            sh.note_fault();
            sh.recovery.lock().retries += 1;
            sh.obs.metrics.counter_inc(names::RETRY_ATTEMPTS);
            let backoff = faults.backoff(attempt, batch);
            sh.obs
                .metrics
                .counter_add(names::RETRY_BACKOFF_NS, backoff.as_nanos() as f64);
            std::thread::sleep(backoff);
        }
        Ok(())
    }

    /// The batch's real two-tier Extract — device cache + host, guided by
    /// the Sampler's marks — into the recycled buffer, under a
    /// [`Stage::Extract`] span. It reads no model state, so it cannot
    /// change a bit of the training history.
    fn extract(&mut self, task: &TrainTask) -> Matrix {
        let obs = &*self.sh.obs;
        let rows = task.sample.num_input_nodes();
        debug_assert_eq!(
            task.sample.cache_mask.as_deref().map(<[bool]>::len),
            Some(rows),
            "Sampler must mark every input vertex"
        );
        let mut buf = std::mem::take(&mut self.free_buf);
        {
            let _g = obs.start_span(self.device, self.role, Stage::Extract, task.id);
            self.store
                .extract_to_buffer(task.sample.input_nodes(), &mut buf);
        }
        obs.metrics
            .counter_add(names::EXTRACT_PAR_ROWS, rows as f64);
        obs.metrics.counter_add(
            names::EXTRACT_PAR_CHUNKS,
            self.store.pool().partitions(rows) as f64,
        );
        Matrix::from_vec(rows, self.sh.graph.feat_dim, buf)
    }

    /// Pulls parameters, trains on the gathered features and pushes the
    /// gradients with the batch's record; the feature buffer goes back to
    /// `free_buf`, so the steady state allocates none.
    fn train(&mut self, task: &TrainTask, feats: Matrix) {
        let sh = self.sh;
        let pulled = sh.pull_params(&mut self.replica);
        {
            let _g = sh
                .obs
                .start_span(self.device, self.role, Stage::Train, task.id);
            if let Some(d) = sh.cfg.trainer_delay {
                std::thread::sleep(d);
            }
            let (loss, acc) = self.replica.train_batch(&task.sample, &feats, &task.labels);
            let record = BatchRecord {
                id: task.id,
                loss,
                acc,
            };
            // The record joins the history at the step that applies this
            // batch's gradient, so a checkpoint never names a batch whose
            // gradient the values do not hold.
            pulled.push_grads(&mut self.replica, record);
        }
        sh.trained.fetch_add(1, Ordering::Relaxed);
        self.free_buf = feats.into_vec();
    }

    /// Records one batch time on the executor's clock, and streams this
    /// executor's own hit/miss deltas so the low-hit-rate alert sees each
    /// store, not the fleet average.
    fn publish(&mut self, secs: f64) {
        let m = &self.sh.obs.metrics;
        self.clock.record(secs, &self.sh.obs);
        let snap = self.store.stats();
        let d_lookups = snap.lookups - self.last_cache.lookups;
        let d_hits = snap.hits - self.last_cache.hits;
        let [lookups, hits, misses, hit_rate] = &self.cache_names;
        m.counter_add(lookups, d_lookups as f64);
        m.counter_add(hits, d_hits as f64);
        m.counter_add(misses, (d_lookups - d_hits) as f64);
        m.gauge_set(hit_rate, snap.hit_rate());
        self.last_cache = snap;
    }
}
