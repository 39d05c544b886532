//! The consumer side: the one Extract → Train loop every Trainer and
//! every switched standby runs (§5.2), and the §5.3 switching decision
//! that turns a finished Sampler into a standby.

use super::config::{ExecutorCacheReport, ThreadedError, ThreadedErrorKind};
use super::ledger::FirstLease;
use super::sched::BatchClock;
use super::shared::{new_model, Shared, TrainTask};
use crate::checkpoint::BatchRecord;
use crate::faults::ExecutorRole;
use gnnlab_cache::{CacheStats, CachedFeatureStore};
use gnnlab_obs::{names, Executor, Stage};
use gnnlab_tensor::{GnnModel, Matrix};
use std::time::Instant;

/// A consumer's whole life on `slot` as executor `exec`. A Trainer's:
/// build its own memory-planned cache and replica, then consume until the
/// queue drains. A finished Sampler's (`standby`) is first the §5.3
/// switching decision: evaluate the live profit metric and, if positive,
/// pay the replica-init and cache-refresh cost, re-check, and train as a
/// standby Trainer until the queue drains. For as long as it trains, the
/// parameter server takes updates in rounds (see
/// [`ParamServer`](super::server::ParamServer)): the switch may only buy
/// time, not move what the run converges to.
pub(super) fn consumer_phase(sh: &Shared<'_>, slot: usize, exec: usize, standby: bool) -> Outcome {
    if !standby {
        return Consumer::new(sh, exec, slot, false).run();
    }
    let (sched, samples) = (sh.sched(), sh.ledger().samples());
    let Some(first_read) = sched.offer_switch(exec, samples.remaining()) else {
        return Ok(());
    };
    let consumer = Consumer::new(sh, exec, slot, true);
    if !sched.confirm_switch(first_read, samples.remaining()) {
        return Ok(());
    }
    sh.server().in_rounds(|| consumer.run())
}

/// How a consumer's life ended: drained, or with an unrecoverable error.
type Outcome = Result<(), ThreadedError>;

/// One consuming executor — a dedicated Trainer or a switched standby —
/// and everything it owns for the length of its [`Consumer::run`] loop.
struct Consumer<'a> {
    sh: &'a Shared<'a>,
    /// Unique executor id: the queue-lease owner.
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
    /// A dedicated Trainer's place in the first-lease barrier.
    first_lease: FirstLease<'a>,
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
    /// Pays the executor's start-up cost: replica init and the
    /// span-instrumented fill of its role's cut of the run's cache ranking.
    fn new(sh: &'a Shared<'a>, exec: usize, slot: usize, standby: bool) -> Self {
        // First, so a panic while loading releases it.
        let first_lease = sh.ledger().first_lease(!standby);
        let cfg = sh.cfg;
        // A standby runs on its Sampler's device and inherits that
        // device's straggler factor; only dedicated Trainers take
        // injected Trainer crashes.
        let trainer_crash = cfg.faults.crash_for(ExecutorRole::Trainer, slot);
        let (role, fault_role, crash) = match standby {
            true => (Executor::Standby, ExecutorRole::Sampler, None),
            false => (Executor::Trainer, ExecutorRole::Trainer, trainer_crash),
        };
        let (device, table) = match standby {
            true => (slot, sh.standby_table()),
            false => (cfg.num_samplers + slot, sh.trainer_table.clone()),
        };
        let (device, slowdown) = (device as u32, cfg.faults.slowdown(fault_role, slot));
        let replica = new_model(sh.graph, sh.kind, cfg);
        let (store, refresh_ns) = sh.build_store(table, device, role);
        Consumer {
            sh,
            exec,
            slot,
            who: format!("{role:?} {slot}"),
            replica,
            store,
            device,
            role,
            refresh_ns,
            crash,
            // Published before the first batch, so the slot shows up even
            // if it trains none.
            clock: sh.sched().clock(role, slot, slowdown),
            first_lease,
            cache_names: ["lookups", "hits", "misses", "hit_rate"]
                .map(|leaf| names::executor_cache(role.metric_role(), slot, leaf)),
            last_cache: CacheStats::default(),
            free_buf: Vec::new(),
        }
    }

    /// Consumes until the queue drains, then files this executor's
    /// [`ExecutorCacheReport`] — whether the loop exited cleanly or with
    /// an unrecoverable error.
    fn run(mut self) -> Outcome {
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
    fn consume(&mut self) -> Outcome {
        let (sh, ledger) = (self.sh, self.sh.ledger());
        let mut done = 0usize;
        loop {
            // One batch each before any consumer takes a second.
            if done == 1 {
                ledger.await_first_leases();
            }
            let Ok(lease) = ledger.samples().dequeue_leased(self.exec as u32) else {
                break;
            };
            self.first_lease.release();
            // Injected crash (at most once): fires while the lease is held
            // and before the batch trains, so the supervisor reclaims it
            // and a survivor trains it exactly once.
            sh.faults().crash_point(self.crash, done, &self.who);
            let task = &*lease.task;
            self.retry_transients(task.id)?;
            // The per-batch time the EWMAs track: the gather plus the train.
            let started = Instant::now();
            let feats = self.extract(task);
            self.train(task, feats);
            self.publish(started.elapsed().as_secs_f64());
            ledger.give_back(lease);
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
    fn retry_transients(&self, batch: u64) -> Outcome {
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
            let backoff = faults.backoff(attempt, batch);
            sh.faults().retried(backoff);
            std::thread::sleep(backoff);
        }
        Ok(())
    }

    /// The batch's real two-tier Extract — device cache + host, each
    /// vertex located in this consumer's own table — into the recycled
    /// buffer, under a [`Stage::Extract`] span. It reads no model state,
    /// so it cannot change a bit of the training history.
    fn extract(&mut self, task: &TrainTask) -> Matrix {
        let obs = &*self.sh.obs;
        let rows = task.sample.num_input_nodes();
        let mut buf = std::mem::take(&mut self.free_buf);
        let _g = obs.start_span(self.device, self.role, Stage::Extract, task.id);
        self.store
            .extract_to_buffer(task.sample.input_nodes(), &mut buf);
        Matrix::from_vec(rows, self.sh.graph.feat_dim, buf)
    }

    /// Pulls parameters, trains on the gathered features and pushes the
    /// gradients with the batch's record; the feature buffer goes back to
    /// `free_buf`, so the steady state allocates none.
    fn train(&mut self, task: &TrainTask, feats: Matrix) {
        let (sh, obs) = (self.sh, &self.sh.obs);
        let pulled = sh.server().pull(&mut self.replica);
        {
            let _g = obs.start_span(self.device, self.role, Stage::Train, task.id);
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
        sh.ledger().trained_one();
        self.free_buf = feats.into_vec();
    }

    /// Records one batch time on the executor's clock, and streams this
    /// executor's own hit/miss deltas so the low-hit-rate alert sees each
    /// store, not the fleet average.
    fn publish(&mut self, secs: f64) {
        let m = &self.sh.obs.metrics;
        self.clock.record(secs);
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
