//! What a threaded run takes and returns: [`ThreadedConfig`], the typed
//! [`ThreadedError`] with its CLI exit codes, and the result/report
//! structs.

use crate::checkpoint::{BatchRecord, CheckpointPolicy};
use crate::faults::FaultPlan;
use crate::queue::DEFAULT_CAPACITY;
use gnnlab_cache::CacheStats;
use gnnlab_obs::{Executor, TelemetryConfig};
use std::time::Duration;

/// Configuration of a threaded training run.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Number of Sampler threads (the paper's Sampler executors).
    pub num_samplers: usize,
    /// Number of Trainer threads.
    pub num_trainers: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Hidden dimension.
    pub hidden_dim: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed; per-executor streams derive from it via SplitMix64 so no
    /// two consumers (Samplers, model inits, evaluation, shuffling) ever
    /// share a stream.
    pub seed: u64,
    /// Target feature-cache ratio for the dedicated Trainers' two-tier
    /// extraction; 0 disables caching (and skips the hotness pass
    /// entirely). The per-device memory budget the role planners
    /// allocate out of is derived from it, so dedicated Trainers land
    /// exactly on this ratio; standby Trainers get a strictly smaller
    /// cache per the §3 memory ledger: their device still holds topology
    /// and the sampling workspace. Every cache ranks vertices by PreSC#1,
    /// the paper's policy.
    pub cache_alpha: f64,
    /// Capacity of the bounded global queue: Samplers block once this many
    /// samples wait unconsumed (host-memory backpressure, §5.2).
    pub queue_capacity: usize,
    /// Whether finished Samplers may flip into standby Trainers when the
    /// profit metric is positive (§5.3).
    pub dynamic_switching: bool,
    /// Artificial per-batch Trainer delay, for tests and experiments that
    /// need slow Trainers (backpressure, switching).
    pub trainer_delay: Option<Duration>,
    /// The fault plan: injected crashes, stragglers, transient errors, and
    /// the supervisor's recovery budget. [`FaultPlan::none`] (the default)
    /// injects nothing and fails fast on any organic panic.
    pub faults: FaultPlan,
    /// Data-parallel width of the Extract path: feature gathering and
    /// cache fills fan out over a pool of this many threads. 1 (the
    /// default) runs fully inline. Results are bit-identical at every
    /// width. (PreSC pre-sampling and the held-out evaluation do not use
    /// this pool: they run `num_samplers + num_trainers` wide, on the
    /// fleet that is idle before and after the executor scope.)
    pub threads: usize,
    /// Live-telemetry configuration: the wall-clock gauge-sampling
    /// interval and the alert-rule thresholds. Every run gets a telemetry
    /// thread; this only tunes it.
    pub telemetry: TelemetryConfig,
    /// Durable checkpoint/resume policy: where and how often to snapshot,
    /// whether to resume from the latest valid generation, and any chaos
    /// injection. The default is fully disabled.
    pub checkpoint: CheckpointPolicy,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            num_samplers: 2,
            num_trainers: 4,
            epochs: 10,
            batch_size: 32,
            hidden_dim: 16,
            lr: 0.01,
            seed: 0,
            cache_alpha: 0.2,
            queue_capacity: DEFAULT_CAPACITY,
            dynamic_switching: true,
            trainer_delay: None,
            faults: FaultPlan::none(),
            threads: 1,
            telemetry: TelemetryConfig::default(),
            checkpoint: CheckpointPolicy::default(),
        }
    }
}

/// Failure classes of a threaded run, each mapped to its own documented
/// CLI exit code so wrappers and CI can react without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadedErrorKind {
    /// An executor panicked with no respawn budget left to absorb it (the
    /// queue is poisoned, so this also covers every thread that died on
    /// the poisoned-queue path).
    ExecutorPanic = 10,
    /// An executor panicked after the fault plan's respawn budget had
    /// already been spent.
    RespawnBudgetExhausted = 11,
    /// A deterministic transient fault exceeded its retry budget.
    UnrecoverableFault = 12,
    /// A checkpoint could not be written or a resume could not be applied.
    Checkpoint = 13,
    /// A chaos kill-point terminated the run (simulated process kill).
    Killed = 14,
}

impl ThreadedErrorKind {
    /// The documented `gnnlab threaded` exit code for this failure class:
    /// its discriminant. (1 = generic failure, 2 = usage, 3 = metrics
    /// endpoint.)
    pub fn exit_code(self) -> u8 {
        self as u8
    }
}

/// An executor crash surfaced by [`super::run_threaded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadedError {
    /// Which failure class this is (drives the CLI exit code).
    pub kind: ThreadedErrorKind,
    /// Which executor crashed (e.g. `"Trainer 2"`).
    pub executor: String,
    /// The panic payload rendered as text.
    pub message: String,
}

impl ThreadedError {
    pub(super) fn new(
        kind: ThreadedErrorKind,
        executor: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        ThreadedError {
            kind,
            executor: executor.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ThreadedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ThreadedErrorKind::Checkpoint => {
                write!(f, "{} checkpoint failure: {}", self.executor, self.message)
            }
            ThreadedErrorKind::Killed => {
                write!(f, "{} killed: {}", self.executor, self.message)
            }
            _ => write!(f, "{} panicked: {}", self.executor, self.message),
        }
    }
}

impl std::error::Error for ThreadedError {}

/// What the supervisor did about faults during a run. All zeros when the
/// fault plan is empty and nothing crashed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Faults actually injected (crash firings, transient errors).
    pub faults_injected: usize,
    /// Batches replayed after their executor died: reclaimed consumer
    /// leases plus re-sampled producer claims.
    pub replayed_batches: usize,
    /// Replacement executors spawned on a dead executor's slot.
    pub respawns: usize,
    /// Crashes absorbed by survivors without a replacement.
    pub reassignments: usize,
    /// Transient-error retries performed.
    pub retries: usize,
    /// Nanoseconds between crash detection and recovery completion,
    /// summed over all absorbed crashes.
    pub downtime_ns: u64,
}

impl RecoveryReport {
    /// Crashes the supervisor absorbed (respawns plus reassignments).
    pub fn recovered(&self) -> usize {
        self.respawns + self.reassignments
    }
}

/// End-of-run accounting for one executor-owned feature cache: every
/// dedicated Trainer and every switched standby contributes one report,
/// plus one [`Executor::Host`] report for the end-of-run eval store.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorCacheReport {
    /// Role that owned the store: [`Executor::Trainer`],
    /// [`Executor::Standby`], or [`Executor::Host`] for the held-out
    /// evaluation pass (which routes through the same two-tier extraction
    /// so eval traffic shows up in the cache statistics).
    pub role: Executor,
    /// Executor slot within its role.
    pub slot: usize,
    /// Cache ratio α its memory plan afforded.
    pub alpha: f64,
    /// Cached feature rows.
    pub rows: usize,
    /// Measured wall nanoseconds of its cache fill (the refresh stage).
    pub refresh_ns: u64,
    /// Extraction statistics over the executor's lifetime.
    pub stats: CacheStats,
}

/// Outcome of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedResult {
    /// Mini-batches trained (across all trainers, standbys and epochs).
    pub batches_trained: usize,
    /// Samples produced by Samplers.
    pub samples_produced: usize,
    /// Final test accuracy of the shared model.
    pub final_accuracy: f64,
    /// Largest queue backlog observed; capped by the queue capacity.
    pub peak_queue_depth: usize,
    /// Aggregate cache hit rate across every executor-owned store.
    pub cache_hit_rate: f64,
    /// Per-executor cache reports, sorted Trainers first, then standbys,
    /// then the host-side eval store, each by slot.
    pub caches: Vec<ExecutorCacheReport>,
    /// Standby-Trainer switches performed by finished Samplers (§5.3).
    pub switches: usize,
    /// Total nanoseconds executors spent blocked on the global queue
    /// (producer backpressure + consumer waits).
    pub queue_blocked_ns: u64,
    /// What the supervisor did about faults.
    pub recovery: RecoveryReport,
    /// Per-batch training history (loss and accuracy per global batch
    /// index), sorted by id. With exactly-once training this has one
    /// record per batch; the kill–resume chaos harness holds it to
    /// bit-identity across restarts.
    pub history: Vec<BatchRecord>,
    /// The master model's final parameter values, flattened in
    /// `params_mut()` order — the second bit-identity anchor.
    pub final_params: Vec<f32>,
    /// Checkpoint generations successfully written during this run.
    pub checkpoints_written: usize,
    /// The generation this run resumed from, if any.
    pub resumed_from: Option<u64>,
}
