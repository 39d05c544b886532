//! The checkpoint quiesce gate: executors park at it, the last one in
//! validates that the pipeline is drained and writes the generation;
//! plus assembling a [`CheckpointState`] from the live run and splicing
//! one back in on resume.

use super::config::{ThreadedError, ThreadedErrorKind};
use super::shared::{ParamServer, Shared};
use crate::checkpoint::{
    self, CheckpointError, CheckpointMeta, CheckpointPolicy, CheckpointState, RngCursor,
    SchedSnapshot,
};
use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering};
use gnnlab_obs::names;
use gnnlab_tensor::Adam;
use std::path::Path;
use std::time::{Duration, Instant};

/// How often gate-aware executors poll between quiesce checks.
pub(super) const CKPT_POLL: Duration = Duration::from_millis(10);

/// The quiesce gate's mutable core. `participants` counts live executor
/// threads (registered at spawn, deregistered when the thread's closure
/// ends — including the crash-handler path); `parked` counts how many are
/// waiting inside [`Shared::ckpt_park`]. The round number lets parked
/// threads detect that a round ended (written or aborted) without a
/// separate flag per thread.
#[derive(Default)]
struct GateState {
    participants: usize,
    parked: usize,
    round: u64,
    /// True while one parked thread (the round's closer) is writing with
    /// the gate lock released; blocks a second thread from also closing.
    closing: bool,
}

/// Live checkpointing state for a run whose policy is enabled.
pub(super) struct CkptRuntime {
    policy: CheckpointPolicy,
    gate: Mutex<GateState>,
    cv: Condvar,
    /// Fast-path mirror of "a quiesce round is pending" (set by the
    /// cadence check, cleared by the round's closer under the gate lock).
    requested: AtomicBool,
    /// Batch-count trigger: a round is requested once `trained` reaches
    /// this. Advanced only on a successful write, so aborted rounds retry
    /// at the next opportunity.
    next_due: AtomicUsize,
    /// Next generation number to write (resume continues past the loaded
    /// generation).
    generation: AtomicU64,
    /// Successful writes this run.
    writes: AtomicUsize,
    /// Wall clock of the last successful write (drives `every_secs`).
    last_write: Mutex<Instant>,
    /// The chaos kill-point fires at most once.
    kill_fired: AtomicBool,
}

impl CkptRuntime {
    pub(super) fn new(policy: CheckpointPolicy, batches_per_epoch: usize) -> Self {
        let next_due = policy
            .batch_cadence(batches_per_epoch)
            .unwrap_or(usize::MAX);
        CkptRuntime {
            policy,
            gate: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            requested: AtomicBool::new(false),
            next_due: AtomicUsize::new(next_due),
            generation: AtomicU64::new(0),
            writes: AtomicUsize::new(0),
            last_write: Mutex::new(Instant::now()),
            kill_fired: AtomicBool::new(false),
        }
    }

    /// Generations successfully written this run.
    pub(super) fn writes(&self) -> usize {
        self.writes.load(Ordering::Relaxed)
    }

    /// The directory generations are written to and resumed from.
    fn dir(&self) -> &Path {
        gnnlab_par::invariant!(
            self.policy.dir.as_deref(),
            "CheckpointPolicy::validate requires a dir when enabled"
        )
    }
}

impl Shared<'_> {
    /// Registers the calling executor thread with the quiesce gate.
    pub(super) fn ckpt_enter(&self) {
        if let Some(c) = &self.ckpt {
            c.gate.lock().participants += 1;
        }
    }

    /// Deregisters an executor thread (normal exit and crash paths both).
    /// Wakes parked peers so a pending round can close without the
    /// departed participant.
    pub(super) fn ckpt_exit(&self) {
        if let Some(c) = &self.ckpt {
            c.gate.lock().participants -= 1;
            c.cv.notify_all();
        }
    }

    /// Whether a quiesce round is pending (always `false` with
    /// checkpointing off).
    pub(super) fn ckpt_requested(&self) -> bool {
        self.ckpt
            .as_ref()
            .is_some_and(|c| c.requested.load(Ordering::Relaxed))
    }

    /// Called by consumers after completing a batch. First the cadence
    /// check: requests a quiesce round once enough batches trained or
    /// enough wall-clock passed since the last successful write. Then the
    /// chaos kill-point: after `k` batches trained this run, one consumer
    /// dies abruptly — from the outside this is SIGKILL; the run fails
    /// and only durable checkpoints survive. Returns `Some(k)` to the one
    /// caller that must die.
    pub(super) fn ckpt_after_batch(&self) -> Option<usize> {
        let c = self.ckpt.as_ref()?;
        let trained = self.trained.load(Ordering::Relaxed);
        if !c.requested.load(Ordering::Relaxed) {
            let due_batches = trained >= c.next_due.load(Ordering::Relaxed);
            let due_secs = c
                .policy
                .every_secs
                .is_some_and(|t| c.last_write.lock().elapsed().as_secs_f64() >= t);
            if due_batches || due_secs {
                c.requested.store(true, Ordering::Relaxed);
            }
        }
        c.policy
            .chaos
            .kill_after_batches
            .filter(|&k| trained >= k && !c.kill_fired.swap(true, Ordering::AcqRel))
    }

    /// Parks the calling executor for a requested quiesce round. The last
    /// participant to park validates that the pipeline is fully drained
    /// (queue empty, zero leases, no open sampler claims or orphans) and
    /// writes the checkpoint; if something is still in flight the round
    /// aborts and retries at the next park opportunity. Returns promptly
    /// when no round is pending.
    pub(super) fn ckpt_park(&self, producer: bool) {
        let Some(c) = &self.ckpt else { return };
        let mut g = c.gate.lock();
        if !c.requested.load(Ordering::Relaxed) {
            return;
        }
        g.parked += 1;
        let my_round = g.round;
        loop {
            if g.round != my_round
                || !c.requested.load(Ordering::Relaxed)
                || self.queue.poison_reason().is_some()
            {
                break;
            }
            if !producer && self.queue.remaining() > 0 {
                // A producer slipped a sample in before reaching its own
                // park check — it may even be blocked on a full queue,
                // unable to ever park. Leave the gate and drain; the
                // round stays pending and this consumer re-parks once
                // the queue is empty again. Producers stay parked for
                // the whole round, so this converges.
                break;
            }
            if g.parked == g.participants && !g.closing {
                let queue_busy = !self.queue.is_idle();
                let book_busy = self.book.lock().has_open_claims();
                if !queue_busy && !book_busy {
                    // This thread closes the round: write with the gate
                    // lock released (peers stay parked — the round hasn't
                    // ended and `closing` blocks a second writer).
                    g.closing = true;
                    drop(g);
                    self.write_checkpoint_now(c);
                    g = c.gate.lock();
                    g.closing = false;
                    c.requested.store(false, Ordering::Relaxed);
                    g.round = g.round.wrapping_add(1);
                    break;
                }
                if book_busy {
                    // Un-drainable while everyone is parked: an open claim
                    // or orphan needs a live peer to re-sample it. Abort
                    // the round; the cadence re-requests one once recovery
                    // has made progress.
                    c.requested.store(false, Ordering::Relaxed);
                    g.round = g.round.wrapping_add(1);
                    break;
                }
                // Only the queue is busy: a producer slipped its in-hand
                // sample in just before parking. A parked consumer's
                // drain-escape above will wake within the poll interval,
                // drain it, and re-park on an empty queue — keep the
                // round pending rather than aborting, otherwise a fast
                // consumer that always out-drains the producer would
                // abort every round and never write a checkpoint.
            }
            c.cv.wait_for(&mut g, CKPT_POLL);
        }
        g.parked -= 1;
        drop(g);
        c.cv.notify_all();
    }

    /// Assembles and durably writes the next checkpoint generation. Called
    /// only from the quiesce round's closer, with every participant
    /// parked, so the locks it takes see a consistent frozen pipeline.
    fn write_checkpoint_now(&self, c: &CkptRuntime) {
        let started = Instant::now();
        let state = self.assemble_checkpoint();
        let cursor = state.cursor as usize;
        let generation = c.generation.load(Ordering::Relaxed);
        match checkpoint::write_generation(
            c.dir(),
            generation,
            &state,
            c.policy.effective_keep(),
            &c.policy.chaos,
        ) {
            Ok(bytes) => {
                let ns = started.elapsed().as_nanos() as f64;
                let m = &self.obs.metrics;
                m.observe(names::CKPT_WRITE_NS, ns);
                m.gauge_set(names::CKPT_LAST_WRITE_NS, ns);
                m.counter_add(names::CKPT_BYTES, bytes as f64);
                m.gauge_set(names::CKPT_GENERATION, generation as f64);
                c.generation.fetch_add(1, Ordering::Relaxed);
                c.writes.fetch_add(1, Ordering::Relaxed);
                *c.last_write.lock() = Instant::now();
                if let Some(n) = c.policy.batch_cadence(self.batches_per_epoch) {
                    c.next_due.store(cursor + n, Ordering::Relaxed);
                }
            }
            Err(e) => {
                let (kind, message) = match e {
                    CheckpointError::KilledMidWrite => (
                        ThreadedErrorKind::Killed,
                        format!("simulated process kill during write of generation {generation}"),
                    ),
                    e => (ThreadedErrorKind::Checkpoint, e.to_string()),
                };
                self.fail_fatal(ThreadedError::new(kind, "Checkpointer", message));
            }
        }
    }

    /// Snapshots every piece of live run state the checkpoint format
    /// persists. Only sound at a quiesce point (queue drained, no leases,
    /// no open claims): then the book's cursor is exactly the count of
    /// batches trained and the history holds one record per trained batch.
    fn assemble_checkpoint(&self) -> CheckpointState {
        let cursor = self.book.lock().cursor() as u64;
        let (params, opt) = {
            let mut guard = self.server.lock();
            (guard.values(), guard.opt.export_state())
        };
        let mut history = self.history.lock().clone();
        history.sort_by_key(|r| r.id);
        let bpe = self.batches_per_epoch.max(1) as u64;
        CheckpointState {
            meta: self.checkpoint_meta(),
            params,
            opt,
            sched: SchedSnapshot {
                t_sample: self.t_sample.get(),
                t_train: self.t_train.get(),
                t_standby: self.t_standby.get(),
                refresh_secs: self.refresh_secs.get(),
                switches: self.switches.load(Ordering::Relaxed) as u64,
            },
            rng: RngCursor {
                seed: self.cfg.seed,
                next_epoch: cursor / bpe,
                next_batch: cursor % bpe,
            },
            cursor,
            recovery: *self.recovery.lock(),
            history,
        }
    }

    /// The live run's identity card, compared against a checkpoint's
    /// stored meta before resuming (mismatch = refuse, not reinterpret).
    fn checkpoint_meta(&self) -> CheckpointMeta {
        CheckpointMeta {
            seed: self.cfg.seed,
            epochs: self.cfg.epochs as u64,
            batch_size: self.cfg.batch_size as u64,
            hidden_dim: self.cfg.hidden_dim as u64,
            lr_bits: self.cfg.lr.to_bits(),
            model_kind: self.kind,
            num_vertices: self.graph.csr.num_vertices() as u64,
            num_edges: self.graph.csr.num_edges() as u64,
            feat_dim: self.graph.feat_dim as u64,
            num_classes: self.graph.num_classes as u64,
            batches_per_epoch: self.batches_per_epoch as u64,
            total_batches: (self.batches_per_epoch * self.cfg.epochs) as u64,
            num_samplers: self.cfg.num_samplers as u64,
            num_trainers: self.cfg.num_trainers as u64,
            dynamic_switching: self.cfg.dynamic_switching,
            trainer_rows: self.plan.trainer_rows as u64,
            standby_rows: self.plan.standby_rows as u64,
        }
    }

    /// Resume, before any executor exists: when the policy asks for it,
    /// pick the latest valid generation (torn or corrupted files are
    /// skipped with fallback to the previous one) and splice its state
    /// into the freshly-built run. Returns the generation resumed from.
    pub(super) fn resume_latest(&self) -> Result<Option<u64>, ThreadedError> {
        let Some(c) = self.ckpt.as_ref().filter(|c| c.policy.resume) else {
            return Ok(None);
        };
        let started = Instant::now();
        let outcome = checkpoint::load_latest(c.dir());
        let m = &self.obs.metrics;
        if outcome.torn_detected > 0 {
            m.counter_add(names::CKPT_TORN_DETECTED, outcome.torn_detected as f64);
        }
        let Some((generation, state)) = outcome.loaded else {
            return Ok(None);
        };
        let cursor = state.cursor as usize;
        self.apply_resume(generation, state)?;
        c.generation.store(generation + 1, Ordering::Relaxed);
        if let Some(n) = c.policy.batch_cadence(self.batches_per_epoch) {
            c.next_due.store(cursor + n, Ordering::Relaxed);
        }
        m.gauge_set(names::CKPT_GENERATION, generation as f64);
        m.observe(names::CKPT_RESUME_NS, started.elapsed().as_nanos() as f64);
        Ok(Some(generation))
    }

    /// Restores a loaded checkpoint's state into the freshly-built shared
    /// state, before any executor spawns. Refuses (typed error) when the
    /// stored meta doesn't match the live run.
    fn apply_resume(&self, generation: u64, state: CheckpointState) -> Result<(), ThreadedError> {
        let refuse = |why: String| {
            Err(ThreadedError::new(
                ThreadedErrorKind::Checkpoint,
                "resume",
                why,
            ))
        };
        let expect = self.checkpoint_meta();
        if state.meta != expect {
            return refuse(format!(
                "checkpoint generation {generation} belongs to a different run \
                 configuration (seed/model/graph/topology mismatch)"
            ));
        }
        {
            let mut guard = self.server.lock();
            let ParamServer { master, opt, .. } = &mut *guard;
            let mut params = master.params_mut();
            if params.len() != state.params.len() {
                return refuse(format!(
                    "checkpoint generation {generation} holds {} parameter \
                     tensors, the live model has {}",
                    state.params.len(),
                    params.len()
                ));
            }
            for (p, saved) in params.iter_mut().zip(&state.params) {
                if (p.value.rows(), p.value.cols()) != (saved.rows(), saved.cols()) {
                    return refuse(format!(
                        "checkpoint generation {generation} has a parameter \
                         shape mismatch"
                    ));
                }
                p.value = saved.clone();
            }
            drop(params);
            *opt = Adam::from_state(state.opt);
        }
        let cursor = state.cursor as usize;
        self.book.lock().resume_at(cursor);
        // The batches below the cursor trained before the kill: their kept
        // samples would never be claimed.
        for slot in self.presampled.lock().iter_mut().take(cursor) {
            *slot = None;
        }
        self.trained.store(cursor, Ordering::Relaxed);
        self.produced.store(cursor, Ordering::Relaxed);
        self.switches
            .store(state.sched.switches as usize, Ordering::Relaxed);
        self.t_sample.set(state.sched.t_sample);
        self.t_train.set(state.sched.t_train);
        self.t_standby.set(state.sched.t_standby);
        self.refresh_secs.set(state.sched.refresh_secs);
        *self.recovery.lock() = state.recovery;
        *self.history.lock() = state.history;
        Ok(())
    }
}
