//! Canonical metric names shared by the runtimes.
//!
//! Every executor publishes under these dotted names so exporters,
//! dashboards and tests never disagree on spelling. The constants cover
//! the queue and scheduler surfaces introduced with the bounded global
//! queue; older call sites still use string literals with the same
//! values (`queue.depth`, `cache.hits`, …).

/// Gauge: queue occupancy, updated on every enqueue/dequeue, tracking
/// the exact peak. Its series is filled by a [`crate::Telemetry`]
/// watcher a reader starts around a threaded run, or by explicit
/// virtual-time samples (co-simulations).
pub const QUEUE_DEPTH: &str = "queue.depth";
/// Counter: tasks ever enqueued.
pub const QUEUE_ENQUEUED: &str = "queue.enqueued";
/// Counter: tasks ever dequeued.
pub const QUEUE_DEQUEUED: &str = "queue.dequeued";
/// Gauge: the configured capacity of the bounded queue.
pub const QUEUE_CAPACITY: &str = "queue.capacity";
/// Counter: total nanoseconds any producer or consumer spent blocked on
/// the queue (full-side backpressure plus empty-side waits).
pub const QUEUE_BLOCKED_NS: &str = "queue.blocked_ns";
/// Histogram: one observation per consumer blocking episode (empty-side).
pub const QUEUE_WAIT_NS: &str = "queue.wait_ns";
/// Histogram: one observation per producer blocking episode (full-side).
pub const QUEUE_ENQUEUE_BLOCK_NS: &str = "queue.enqueue_block_ns";

/// Gauge: configured data-parallel width of the extract pool.
pub const EXTRACT_PAR_THREADS: &str = "extract.par_threads";

/// Counter: standby Trainers woken by the profit metric (§5.3).
pub const SCHEDULER_SWITCHES: &str = "scheduler.switches";
/// Counter: switching decisions where the profit metric said no.
pub const SCHEDULER_SWITCH_DENIED: &str = "scheduler.switch_denied";
/// Counter: standby wakes that passed the initial profit check, paid
/// replica init + cache refresh, and then found the queue drained on the
/// post-init re-check — counted here instead of `scheduler.switches`.
pub const SCHEDULER_SWITCH_FUTILE: &str = "scheduler.switch_futile";
/// Series + histogram: the profit value `P` per switching decision.
pub const SCHEDULER_SWITCH_PROFIT: &str = "scheduler.switch_profit";
/// Gauge: the consumer count `N_t` a switching decision divided the
/// backlog by.
pub const SCHEDULER_SWITCH_TRAINERS: &str = "scheduler.switch_trainers";
/// Gauge: live EWMA estimate of the Sampler per-batch time `T_s` (secs);
/// a [`crate::Telemetry`] watcher's ticks make it a series.
pub const SCHEDULER_EWMA_T_SAMPLE: &str = "scheduler.ewma_t_sample";
/// Gauge: live EWMA estimate of the Trainer per-batch time `T_t` (secs);
/// a [`crate::Telemetry`] watcher's ticks make it a series.
pub const SCHEDULER_EWMA_T_TRAIN: &str = "scheduler.ewma_t_train";
/// Gauge: live EWMA estimate of the standby time `T_t'` (secs); a
/// [`crate::Telemetry`] watcher's ticks make it a series.
pub const SCHEDULER_EWMA_T_STANDBY: &str = "scheduler.ewma_t_standby";

/// Counter: faults actually injected by a fault plan (crash firings,
/// transient errors, simulated device failures).
pub const FAULTS_INJECTED: &str = "faults.injected";
/// Counter: leased batches re-enqueued after their executor died.
pub const RECOVERY_REPLAYED_BATCHES: &str = "recovery.replayed_batches";
/// Counter: replacement executors spawned by the supervisor.
pub const RECOVERY_RESPAWNS: &str = "recovery.respawns";
/// Counter: crashes absorbed by re-planning roles on survivors instead of
/// spawning a replacement.
pub const RECOVERY_REASSIGNMENTS: &str = "recovery.reassignments";
/// Counter: total nanoseconds between fault detection and the supervisor
/// completing recovery (respawn or reassignment).
pub const RECOVERY_DOWNTIME_NS: &str = "recovery.downtime_ns";
/// Counter: transient-error retries attempted.
pub const RETRY_ATTEMPTS: &str = "retry.attempts";
/// Counter: total nanoseconds spent in retry backoff sleeps.
pub const RETRY_BACKOFF_NS: &str = "retry.backoff_ns";

/// Counter: feature-cache lookups (hits + misses), aggregated across all
/// executor stores. Per-executor counters live under [`executor_cache`].
pub const CACHE_LOOKUPS: &str = "cache.lookups";
/// Counter: feature-cache hits (aggregate; see [`executor_cache`]).
pub const CACHE_HITS: &str = "cache.hits";
/// Histogram: wall nanoseconds of one executor's cache fill/refresh (the
/// span-instrumented LoadCache stage of a Trainer start or a standby
/// switch). The measured values seed and update the `T_t'` estimate.
pub const CACHE_REFRESH_NS: &str = "cache.refresh_ns";
/// Gauge: the cache ratio α the memory plan afforded a dedicated Trainer
/// (budget minus train workspace).
pub const CACHE_TRAINER_ALPHA: &str = "cache.trainer_alpha";
/// Gauge: the cache ratio α' the memory plan afforded a switched standby
/// (budget minus topology, sampling and train workspaces) — strictly
/// smaller than the Trainer's when topology takes space.
pub const CACHE_STANDBY_ALPHA: &str = "cache.standby_alpha";

/// Counter: feature-cache misses (aggregate; see [`executor_cache`]).
pub const CACHE_MISSES: &str = "cache.misses";
/// Counter: bytes served from the GPU-resident cache (hits).
pub const CACHE_HIT_BYTES: &str = "cache.hit_bytes";
/// Counter: bytes gathered from host memory over PCIe (misses).
pub const CACHE_MISS_BYTES: &str = "cache.miss_bytes";
/// Gauge: aggregate hit rate over everything a run recorded.
pub const CACHE_HIT_RATE: &str = "cache.hit_rate";
/// Series: per-batch cache hit rate as each batch's extract completes.
pub const CACHE_BATCH_HIT_RATE: &str = "cache.batch_hit_rate";

/// Series: wall seconds of each preprocessing phase, one point per phase.
pub const PREPROCESS_PHASE_SECS: &str = "preprocess.phase_secs";
/// Gauge: total wall seconds of the preprocessing pipeline.
pub const PREPROCESS_TOTAL_SECS: &str = "preprocess.total_secs";

/// Counter: samples produced by the threaded runtime's Sampler loops.
pub const THREADED_SAMPLES_PRODUCED: &str = "threaded.samples_produced";

/// Prefix of the per-executor cache metrics published by the threaded
/// runtime: `cache.<role>.<slot>.<field>` counters (`lookups`, `hits`,
/// `misses`) plus a `hit_rate` gauge — one family per executor-owned
/// feature store. Build names with [`executor_cache`]; the cache-collapse
/// alert keys on these per-executor families, falling back to the
/// aggregate `cache.lookups`/`cache.hits` when none exist.
pub const EXECUTOR_CACHE_PREFIX: &str = "cache.";

/// The per-executor cache metric name for `role` (`trainer` / `standby`),
/// executor slot index, and `field` (`lookups` / `hits` / `misses` /
/// `hit_rate`).
pub fn executor_cache(role: &str, slot: usize, field: &str) -> String {
    format!("{EXECUTOR_CACHE_PREFIX}{role}.{slot}.{field}")
}

/// [`executor_cache`] for callers that already hold the slot as a string
/// segment (e.g. the alert engine re-assembling names it parsed).
pub fn executor_cache_field(role: &str, slot: &str, field: &str) -> String {
    format!("{EXECUTOR_CACHE_PREFIX}{role}.{slot}.{field}")
}

/// The `cache.<role>.<slot>` family label (no field segment) used when an
/// alert names one executor's store as a whole.
pub fn executor_cache_family(role: &str, slot: &str) -> String {
    format!("{EXECUTOR_CACHE_PREFIX}{role}.{slot}")
}

/// Gauge: the fault supervisor's configured respawn budget
/// (`FaultPlan::max_respawns`); the respawn-burn alert compares recovery
/// actions against it.
pub const FAULTS_RESPAWN_BUDGET: &str = "faults.respawn_budget";

/// Prefix of the per-executor batch-time EWMA gauges published by the
/// threaded runtime: `executor.ewma.<role>.<slot>` (seconds per batch,
/// alpha 0.2). The straggler alert compares each gauge against the
/// median of its role's fleet. Build names with [`executor_ewma`].
pub const EXECUTOR_EWMA_PREFIX: &str = "executor.ewma.";

/// The per-executor EWMA gauge name for `role` (`sampler` / `trainer` /
/// `standby`) and executor slot index.
pub fn executor_ewma(role: &str, slot: usize) -> String {
    format!("{EXECUTOR_EWMA_PREFIX}{role}.{slot}")
}

/// Histogram: wall nanoseconds of one durable checkpoint write (assemble
/// + encode + temp-write + fsync + rename + directory fsync + prune).
pub const CKPT_WRITE_NS: &str = "ckpt.write_ns";
/// Gauge: nanoseconds the most recent successful checkpoint write took;
/// the `checkpoint_stall` alert fires when this exceeds its threshold
/// (e.g. under an injected slow-disk fault).
pub const CKPT_LAST_WRITE_NS: &str = "ckpt.last_write_ns";
/// Counter: bytes durably written across all checkpoint generations.
pub const CKPT_BYTES: &str = "ckpt.bytes";
/// Histogram: wall nanoseconds spent loading + applying a resume.
pub const CKPT_RESUME_NS: &str = "ckpt.resume_ns";
/// Counter: torn or corrupted checkpoint files detected (and skipped)
/// while selecting the latest valid generation.
pub const CKPT_TORN_DETECTED: &str = "ckpt.torn_detected";
/// Gauge: the last checkpoint generation successfully written (or the
/// generation a resume loaded, until the first write of the new run).
pub const CKPT_GENERATION: &str = "ckpt.generation";

// Per-stage latency histograms, `stage.<stage>.ns`: one observation per
// completed span (`Stage::histogram_name`).

/// Histogram: GPU-sampling (sample_g) span durations.
pub const STAGE_SAMPLE_G_NS: &str = "stage.sample_g.ns";
/// Histogram: CPU+GPU hybrid sampling (sample_m) span durations.
pub const STAGE_SAMPLE_M_NS: &str = "stage.sample_m.ns";
/// Histogram: CPU-sampling (sample_c) span durations.
pub const STAGE_SAMPLE_C_NS: &str = "stage.sample_c.ns";
/// Histogram: feature-extract span durations.
pub const STAGE_EXTRACT_NS: &str = "stage.extract.ns";
/// Histogram: train-step span durations.
pub const STAGE_TRAIN_NS: &str = "stage.train.ns";
/// Histogram: disk→DRAM load span durations.
pub const STAGE_DISK_TO_DRAM_NS: &str = "stage.disk_to_dram.ns";
/// Histogram: topology-load span durations.
pub const STAGE_LOAD_TOPOLOGY_NS: &str = "stage.load_topology.ns";
/// Histogram: cache fill/refresh span durations.
pub const STAGE_LOAD_CACHE_NS: &str = "stage.load_cache.ns";
/// Histogram: presample span durations.
pub const STAGE_PRESAMPLE_NS: &str = "stage.presample.ns";

/// Gauge: `f32` lanes per vector register of the matmul instantiation
/// the tensor kernels picked on this CPU (16 = AVX-512, 8 = AVX2,
/// 4 = portable) — says which code path produced a run's `tensor.*`
/// numbers.
pub const TENSOR_KERNEL_LANES: &str = "tensor.kernel_lanes";

/// Counter family: alerts raised per rule (`alerts.straggler`,
/// `alerts.queue_saturation`, `alerts.cache_collapse`,
/// `alerts.respawn_burn`); structured events live in the snapshot's
/// `alerts` list.
pub const ALERTS_PREFIX: &str = "alerts.";

/// Alert rule name: one executor's batch-time EWMA far above its fleet.
pub const RULE_STRAGGLER: &str = "straggler";
/// Alert rule name: executors pinned blocked on the bounded queue.
pub const RULE_QUEUE_SATURATION: &str = "queue_saturation";
/// Alert rule name: feature-cache hit rate collapsed.
pub const RULE_CACHE_COLLAPSE: &str = "cache_collapse";
/// Alert rule name: fault-recovery respawn budget nearly exhausted.
pub const RULE_RESPAWN_BURN: &str = "respawn_burn";
/// Alert rule name: the latest durable checkpoint write took longer than
/// the configured stall threshold (slow or failing disk).
pub const RULE_CHECKPOINT_STALL: &str = "checkpoint_stall";
