//! Checkpoints of the live run: one locked read of the parameter server
//! is a consistent [`CheckpointState`], taken and written by the consumer
//! whose batch makes a generation due while every other executor keeps
//! running; plus splicing a loaded one back in on resume.

use super::config::{ThreadedError, ThreadedErrorKind};
use super::shared::{ParamServer, Shared};
use crate::checkpoint::{
    self, CheckpointError, CheckpointMeta, CheckpointPolicy, CheckpointState, RngCursor,
    SchedSnapshot,
};
use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use gnnlab_obs::names;
use gnnlab_tensor::Adam;
use std::path::Path;
use std::time::Instant;

/// Live checkpointing state for a run whose policy is enabled.
pub(super) struct CkptRuntime {
    policy: CheckpointPolicy,
    /// Set while one consumer writes a generation. A peer that finds one
    /// due meanwhile skips it, and the cadence counts on from the written
    /// snapshot: a slow disk can skip generations, never overlap two.
    writing: AtomicBool,
    /// Batch-count trigger: a generation is due once `trained` reaches
    /// this. Advanced only on a successful write.
    next_due: AtomicUsize,
    /// Next generation number to write (resume continues past the loaded
    /// generation).
    generation: AtomicU64,
    /// Successful writes this run.
    writes: AtomicUsize,
    /// The chaos kill-point fires at most once.
    kill_fired: AtomicBool,
}

impl CkptRuntime {
    pub(super) fn new(policy: CheckpointPolicy, batches_per_epoch: usize) -> Self {
        let next_due = policy.batch_cadence(batches_per_epoch);
        CkptRuntime {
            policy,
            writing: AtomicBool::new(false),
            next_due: AtomicUsize::new(next_due),
            generation: AtomicU64::new(0),
            writes: AtomicUsize::new(0),
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
            "a CkptRuntime is built only when enabled(), which means dir is Some"
        )
    }

    /// Whether a generation is due after `trained` batches.
    fn due(&self, trained: usize) -> bool {
        trained >= self.next_due.load(Ordering::Relaxed)
    }
}

impl Shared<'_> {
    /// Called by consumers after completing a batch. First the cadence:
    /// when this batch makes a generation due, the caller snapshots the
    /// parameter server and writes it, unless a peer is writing already.
    /// Then the chaos kill-point: after `k` batches trained this run, one
    /// consumer dies abruptly — from the outside this is SIGKILL; the run
    /// fails and only durable checkpoints survive. Returns `Some(k)` to
    /// the one caller that must die.
    pub(super) fn ckpt_after_batch(&self) -> Option<usize> {
        let c = self.ckpt.as_ref()?;
        let trained = self.trained.load(Ordering::Relaxed);
        if c.due(trained)
            && self.queue.poison_reason().is_none()
            && !c.writing.swap(true, Ordering::Acquire)
        {
            // A peer may have written this generation between the check
            // and the flag.
            if c.due(trained) {
                self.write_checkpoint_now(c);
            }
            c.writing.store(false, Ordering::Release);
        }
        c.policy
            .chaos
            .kill_after_batches
            .filter(|&k| trained >= k && !c.kill_fired.swap(true, Ordering::AcqRel))
    }

    /// Assembles and durably writes the next checkpoint generation.
    fn write_checkpoint_now(&self, c: &CkptRuntime) {
        let started = Instant::now();
        let state = self.assemble_checkpoint();
        let generation = c.generation.load(Ordering::Relaxed);
        match checkpoint::write_generation(
            c.dir(),
            generation,
            &state,
            checkpoint::DEFAULT_KEEP,
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
                let next = state.cursor as usize + c.policy.batch_cadence(self.batches_per_epoch);
                c.next_due.store(next, Ordering::Relaxed);
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
    /// persists. Values, Adam state and history are read under the one
    /// `server` lock, so they agree: the history names exactly the batches
    /// the values have stepped on. Whatever is queued, leased, claimed or
    /// pending in a round is not in it, and a resume trains it again.
    fn assemble_checkpoint(&self) -> CheckpointState {
        let (params, opt, mut history) = {
            let mut guard = self.server.lock();
            let history = guard.history.clone();
            (guard.values(), guard.opt.export_state(), history)
        };
        history.sort_by_key(|r| r.id);
        let cursor = history.len() as u64;
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
        let next = cursor + c.policy.batch_cadence(self.batches_per_epoch);
        c.next_due.store(next, Ordering::Relaxed);
        m.gauge_set(names::CKPT_GENERATION, generation as f64);
        m.observe(names::CKPT_RESUME_NS, started.elapsed().as_nanos() as f64);
        Ok(Some(generation))
    }

    /// Restores a loaded checkpoint's state into the freshly-built shared
    /// state, before any executor spawns. Refuses (typed error) when the
    /// stored meta doesn't match the live run. The history's ids are the
    /// trained set; the claim book hands out every other id.
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
        let trained: Vec<usize> = state.history.iter().map(|r| r.id as usize).collect();
        {
            let mut guard = self.server.lock();
            let ParamServer {
                master,
                opt,
                history,
                ..
            } = &mut *guard;
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
            *history = state.history;
        }
        self.book.lock().resume(&trained);
        // The trained batches' kept samples would never be claimed.
        let mut kept = self.presampled.lock();
        for &i in &trained {
            if let Some(slot) = kept.get_mut(i) {
                *slot = None;
            }
        }
        drop(kept);
        self.trained.store(trained.len(), Ordering::Relaxed);
        self.produced.store(trained.len(), Ordering::Relaxed);
        self.switches
            .store(state.sched.switches as usize, Ordering::Relaxed);
        self.t_sample.set(state.sched.t_sample);
        self.t_train.set(state.sched.t_train);
        self.t_standby.set(state.sched.t_standby);
        self.refresh_secs.set(state.sched.refresh_secs);
        *self.recovery.lock() = state.recovery;
        Ok(())
    }
}
