//! The consumer side: the one Extract → Train loop every Trainer and
//! every switched standby runs (§5.2), and the §5.3 switching decision
//! that turns a finished Sampler into a standby.

use super::config::{ExecutorCacheReport, ThreadedError, ThreadedErrorKind};
use super::shared::{new_model, BatchClock, Shared, StreamRole, TrainTask, EWMA_ALPHA};
use crate::checkpoint::BatchRecord;
use crate::faults::ExecutorRole;
use crate::queue::Lease;
use crate::schedule::{prefetch_pays, seed_standby_estimate, switch_profit};
use crate::sync::Ordering;
use gnnlab_cache::{CacheStats, CachedFeatureStore};
use gnnlab_obs::{names, Executor, Obs, Stage};
use gnnlab_par::{JobHandle, Worker};
use gnnlab_tensor::{GnnModel, Matrix};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A leased batch on its way to training. Its lease stays outstanding
/// until the batch trains and confirms, so a consumer that dies holding
/// both a current and a prefetched batch has *two* live leases — the
/// supervisor reclaims and replays both, in original enqueue order.
struct InFlight {
    /// The leased task (shared with the extract job) and the lease id to
    /// confirm with `GlobalQueue::complete` after training.
    lease: Lease<TrainTask>,
    /// The extract running (or queued) on the prefetch worker; `None`
    /// where the gather runs inline when the batch's turn comes — always
    /// at depth 0, and at depth 1 whenever the hop would not pay.
    extract: Option<Prefetch>,
}

/// An extract handed to the prefetch worker.
struct Prefetch {
    job: JobHandle<PrefetchOut>,
    /// What `Worker::submit` cost the consumer's own thread.
    submit: Duration,
}

/// What the prefetch worker hands back: the filled feature buffer plus
/// the obs-clock interval of the extract, for overlap accounting.
struct PrefetchOut {
    buf: Vec<f32>,
    start_ns: u64,
    end_ns: u64,
}

/// One consuming executor — a dedicated Trainer or a switched standby —
/// and everything it owns for the length of its [`Consumer::run`] loop.
///
/// The loop forks in exactly two places, both on [`Consumer::prefetching`]:
/// whether the one-deep slot is topped up, and whether a leased batch's
/// extract is submitted to the worker and *joined* instead of run inline.
/// `ThreadedConfig::pipeline_depth` decides whether [`Consumer::new`]
/// creates a worker at all; with one, a batch crosses to it only while
/// the gather it would hide is measured to outweigh the hop
/// ([`prefetch_pays`] on `extract_secs` and `hop_secs`). A batch the gate
/// turns down takes depth 0's path to the letter, so depth 0 stays the
/// reference the bit-identity tests compare depth 1 against: same
/// leases, same retries, same train step, no overlap.
struct Consumer<'a> {
    sh: &'a Shared<'a>,
    /// Unique executor id: the queue-lease owner and the replica's init
    /// stream index.
    exec: usize,
    slot: usize,
    /// `"Trainer 2"` / `"Standby 0"`, for errors and injected-crash text.
    who: String,
    replica: GnnModel,
    /// The executor-owned cache store and its span identity; Arc so the
    /// prefetch worker's jobs can share it.
    ext: Arc<Extractor>,
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
    /// EWMA of this consumer's own gather time in seconds, wherever the
    /// gather ran; `None` until its first batch.
    extract_secs: Option<f64>,
    /// What one trip through `worker` costs this thread, in seconds: the
    /// fastest of three empty submit → join round trips when it was
    /// created, then an EWMA over every prefetch hit's submit + join (a
    /// hit waits for none of the gather, so that is hop and nothing
    /// else). Infinite without a worker.
    hop_secs: f64,
    /// The one-deep prefetch slot: batch N+1, leased and extracting while
    /// batch N trains. Empty whenever the gate is shut. (Declared before
    /// `worker` so an unwinding consumer drops the job handle before
    /// joining the worker thread.)
    pending: Option<InFlight>,
    /// The two recycled feature buffers: one rides the in-flight extract,
    /// the freed one waits here for the next. `Vec::new()` never
    /// allocates, so the pair materializes lazily over the first two
    /// batches and is recycled forever after.
    free_buf: Vec<f32>,
    /// Obs-clock interval of the previous batch's pull + train, for the
    /// overlap intersection.
    last_train: Option<(u64, u64)>,
    /// The dedicated extract worker: one FIFO thread per consumer, so a
    /// prefetch never steals the consumer's own CPU mid-train (the
    /// extract's data-parallel fan-out still goes through the shared
    /// pool inside `extract_into`). `None` at depth 0.
    worker: Option<Worker>,
}

impl<'a> Consumer<'a> {
    /// Pays the executor's start-up cost: replica init on its own RNG
    /// stream, the span-instrumented cache fill at its role's planned
    /// row budget, and — at depth ≥ 1 — the prefetch worker thread.
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
        let worker =
            (cfg.pipeline_depth > 0).then(|| Worker::new(&format!("gnnlab-pf-{name}-{slot}")));
        Consumer {
            sh,
            exec,
            slot,
            who: format!("{title} {slot}"),
            replica,
            ext: Arc::new(Extractor {
                obs: Arc::clone(&sh.obs),
                store,
                device,
                role,
            }),
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
            extract_secs: None,
            hop_secs: worker.as_ref().map_or(f64::INFINITY, measure_hop),
            pending: None,
            free_buf: Vec::new(),
            last_train: None,
            worker,
        }
    }

    /// The profit gate: whether the next leased batch's extract should
    /// cross to the prefetch worker. Never before this consumer has timed
    /// a gather of its own, and never at depth 0.
    fn prefetching(&self) -> bool {
        prefetch_pays(self.extract_secs, self.hop_secs)
    }

    /// Folds one gather time into `extract_secs`. Contention only ever
    /// lengthens a gather, so a shorter reading is believed at once and a
    /// longer one a capped fifth at a time ([`fold_capped`]): the estimate
    /// hugs what the gather costs, not what a busy host made it take. The
    /// first reading — cold, and nothing to cap it against — counts for at
    /// most the hop, so it cannot open the gate alone; a batch shape that
    /// is worth prefetching does so one batch later.
    fn note_extract(&mut self, secs: f64) {
        self.extract_secs = Some(match self.extract_secs {
            None => secs.min(self.hop_secs),
            Some(prev) => fold_capped(prev, secs).min(secs),
        });
    }

    /// Consumes until the queue drains, then files this executor's
    /// [`ExecutorCacheReport`] — whether the loop exited cleanly or with
    /// an unrecoverable error.
    fn run(mut self) -> Result<(), ThreadedError> {
        let outcome = self.consume();
        let store = &self.ext.store;
        self.sh.cache_reports.lock().push(ExecutorCacheReport {
            role: self.ext.role,
            slot: self.slot,
            alpha: store.table().alpha(),
            rows: store.table().len(),
            refresh_ns: self.refresh_ns,
            stats: store.stats(),
        });
        outcome
    }

    /// The loop. Each iteration (a) takes the prefetched batch N or
    /// block-leases one, (b) while the gate is open tops up the prefetch
    /// slot with batch N+1, then — holding every lease it is going to
    /// hold — passes the injected-crash point and the transient-retry
    /// loop, (c) finishes batch N's extract, (d) trains it, publishes,
    /// confirms the lease and runs the checkpoint hook, which writes a
    /// generation when this batch makes one due.
    fn consume(&mut self) -> Result<(), ThreadedError> {
        let sh = self.sh;
        let mut done = 0usize;
        loop {
            // (a) The current batch: the slot's in-flight prefetch, or a
            // fresh blocking lease started on the spot (paying the full
            // extract as stall — the cold path of the first batch and of
            // any burst the prefetch couldn't get ahead of). The blocking
            // dequeue wakes on enqueue, reclaim, close or poison, so an
            // idle consumer costs no CPU; an error means drained, or
            // poisoned by a peer that crashed beyond recovery — its
            // thread records the error, so just unwind quietly.
            let (cur, prefetched) = match self.pending.take() {
                Some(p) => (p, true),
                None => match sh.queue.dequeue_leased(self.exec as u32) {
                    Ok(lease) => (self.begin(lease), false),
                    Err(_) => return Ok(()),
                },
            };
            // (b) Top up the one-deep prefetch slot: lease batch N+1 now
            // so its extract overlaps batch N's train. Skipped while the
            // gather is too short to be worth the hop.
            if self.prefetching() {
                let owner = self.exec as u32;
                if let Ok(Some(lease)) = sh.queue.dequeue_leased_timeout(owner, Duration::ZERO) {
                    self.pending = Some(self.begin(lease));
                }
            }
            // Injected crash (at most once): fires while every in-flight
            // batch holds its lease and none has trained, so the
            // supervisor reclaims them all and survivors train each
            // exactly once — both of a pipelined consumer's, replayed in
            // original enqueue order, for the history to stay
            // bit-identical.
            sh.crash_point(self.crash, done, &self.who);
            let task = &*cur.lease.task;
            self.retry_transients(task.id)?;
            // (c) + (d). The consumer's per-batch critical path is the
            // wait for the features plus the train (the hidden part of a
            // prefetched extract is exactly what the pipeline bought), so
            // that is what the EWMAs track.
            let (buf, waited) = self.finish_extract(cur.extract, task, prefetched);
            let secs = waited.as_secs_f64() + self.train(task, buf);
            self.publish(secs);
            sh.queue.complete(cur.lease.id);
            // The batch trained: hand its task back for a Sampler to
            // refill. The unwrap succeeds only for the sole owner, so a
            // task the queue still holds — one a reclaim could replay —
            // is never reused.
            if let Ok(task) = Arc::try_unwrap(cur.lease.task) {
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
    }

    /// Starts a freshly leased batch. While the gate is open its extract
    /// is submitted to the worker at once, riding one of the two recycled
    /// buffers; otherwise the lease simply waits for
    /// [`Consumer::finish_extract`].
    fn begin(&mut self, lease: Lease<TrainTask>) -> InFlight {
        let pays = self.prefetching();
        let extract = self.worker.as_ref().filter(|_| pays).map(|worker| {
            let task = Arc::clone(&lease.task);
            let ext = Arc::clone(&self.ext);
            let mut buf = std::mem::take(&mut self.free_buf);
            let submit_started = Instant::now();
            let job = worker.submit(move || {
                let start_ns = ext.obs.now_ns();
                ext.extract(&task, Stage::Prefetch, &mut buf);
                // Let go of the task before the buffer goes back: by the
                // time the consumer joins this job, it must again hold
                // the only reference the queue does not.
                drop(task);
                PrefetchOut {
                    buf,
                    start_ns,
                    end_ns: ext.obs.now_ns(),
                }
            });
            Prefetch {
                job,
                submit: submit_started.elapsed(),
            }
        });
        InFlight { lease, extract }
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

    /// (c) Produces batch N's features and how long the consumer waited
    /// for them — the fork's second half.
    ///
    /// No job was submitted: the gather runs inline, here, under a
    /// [`Stage::Extract`] span, and touches no `pipeline.*` counter.
    /// Otherwise join the worker's [`Stage::Prefetch`] job — already-done
    /// means the gather was fully hidden behind the previous train
    /// (`pipeline.prefetch_hit`, only for a batch leased ahead of need);
    /// the residual wait is
    /// `pipeline.stall_ns`; and `pipeline.overlap_ns` is the interval the
    /// extract shared with batch N−1's train. Both paths feed the gate's
    /// gather estimate; a hit also bounds what the hop costs this thread.
    ///
    /// Either way the features are gathered *before* the parameter pull in
    /// [`Consumer::train`]. Extraction never reads or writes model state,
    /// so where the gather sits relative to the pull — or to the previous
    /// batch's train — cannot change a single bit of the training history.
    fn finish_extract(
        &mut self,
        extract: Option<Prefetch>,
        task: &TrainTask,
        prefetched: bool,
    ) -> (Vec<f32>, Duration) {
        let obs = &*self.sh.obs;
        let Some(Prefetch { job, submit }) = extract else {
            let started = Instant::now();
            let mut buf = std::mem::take(&mut self.free_buf);
            self.ext.extract(task, Stage::Extract, &mut buf);
            let waited = started.elapsed();
            self.note_extract(waited.as_secs_f64());
            return (buf, waited);
        };
        let hit = prefetched && job.is_done();
        let wait_started = Instant::now();
        let out = job.join();
        let stall = wait_started.elapsed();
        self.note_extract(out.end_ns.saturating_sub(out.start_ns) as f64 / 1e9);
        if hit {
            obs.metrics.counter_inc(names::PIPELINE_PREFETCH_HIT);
            let paid = (submit + stall).as_secs_f64();
            self.hop_secs = fold_capped(self.hop_secs, paid);
        }
        obs.metrics
            .counter_add(names::PIPELINE_STALL_NS, stall.as_nanos() as f64);
        if let Some((t0, t1)) = self.last_train {
            // Interval intersection of this extract with the previous
            // train: the serialized time the pipeline actually hid.
            let overlap = t1.min(out.end_ns).saturating_sub(t0.max(out.start_ns));
            if overlap > 0 {
                obs.metrics
                    .counter_add(names::PIPELINE_OVERLAP_NS, overlap as f64);
            }
        }
        (out.buf, stall)
    }

    /// (d) Pulls parameters, trains on the gathered features and pushes
    /// the gradients with the batch's record; the feature buffer goes back
    /// to `free_buf`, so the steady state allocates none. Returns the wall
    /// seconds of the pull + train work.
    fn train(&mut self, task: &TrainTask, buf: Vec<f32>) -> f64 {
        let sh = self.sh;
        let rows = task.sample.num_input_nodes();
        debug_assert_eq!(
            task.sample.cache_mask.as_deref().map(<[bool]>::len),
            Some(rows),
            "Sampler must mark every input vertex"
        );
        let feats = Matrix::from_vec(rows, sh.graph.feat_dim, buf);
        let train_start = sh.obs.now_ns();
        let started = Instant::now();
        let pulled = sh.pull_params(&mut self.replica);
        {
            let (device, role) = (self.ext.device, self.ext.role);
            let _g = sh.obs.start_span(device, role, Stage::Train, task.id);
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
        let secs = started.elapsed().as_secs_f64();
        self.last_train = Some((train_start, sh.obs.now_ns()));
        self.free_buf = feats.into_vec();
        secs
    }

    /// Records one batch time on the executor's clock, and streams this
    /// executor's own hit/miss deltas so the low-hit-rate alert sees each
    /// store, not the fleet average.
    fn publish(&mut self, secs: f64) {
        let m = &self.sh.obs.metrics;
        self.clock.record(secs, &self.sh.obs);
        let snap = self.ext.store.stats();
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

/// One EWMA step of a gate input from `prev` towards the reading `x`,
/// which counts for at most twice `prev`: an estimate rises by at most a
/// fifth per batch, so it takes a run of long readings to move the gate,
/// not one the OS descheduled half-way.
fn fold_capped(prev: f64, x: f64) -> f64 {
    prev + EWMA_ALPHA * (x.min(2.0 * prev) - prev)
}

/// How long [`measure_hop`] lets the worker sit before each probe: well
/// past the few microseconds a channel receiver spins before it parks.
const HOP_PROBE_IDLE: Duration = Duration::from_micros(50);

/// What one trip through `worker` costs the thread that takes it: the
/// fastest of three empty submit → join round trips, each sent after the
/// worker has gone idle — parked, as a train step leaves it between two
/// batches. Probes sent back to back would find it still spinning on its
/// channel and time a hand-off no batch ever gets.
fn measure_hop(worker: &Worker) -> f64 {
    (0..3)
        .map(|_| {
            std::thread::sleep(HOP_PROBE_IDLE);
            let started = Instant::now();
            worker.submit(|| ()).join();
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// What a batch's Extract runs against: the executor-owned two-tier store
/// and the lane its spans are recorded on.
struct Extractor {
    obs: Arc<Obs>,
    store: CachedFeatureStore,
    device: u32,
    role: Executor,
}

impl Extractor {
    /// One batch's real two-tier Extract — device cache + host, guided by
    /// the Sampler's marks — into a recycled buffer, under a `stage` span
    /// ([`Stage::Extract`] inline, [`Stage::Prefetch`] on a worker).
    fn extract(&self, task: &TrainTask, stage: Stage, buf: &mut Vec<f32>) {
        let rows = task.sample.num_input_nodes();
        {
            let _g = self.obs.start_span(self.device, self.role, stage, task.id);
            self.store.extract_to_buffer(task.sample.input_nodes(), buf);
        }
        let m = &self.obs.metrics;
        m.counter_add(names::EXTRACT_PAR_ROWS, rows as f64);
        m.counter_add(
            names::EXTRACT_PAR_CHUNKS,
            self.store.pool().partitions(rows) as f64,
        );
    }
}
