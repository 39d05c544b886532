//! GNNLab's core: the factored runtime, load balancing, and baselines.
//!
//! This crate is the paper's primary contribution, rebuilt on the
//! substrates of the sibling crates:
//!
//! - [`workload`]: a (model, dataset, algorithm) triple with the paper's
//!   hyper-parameters.
//! - [`trace`]: real sampling epochs recorded as per-batch traces (exact
//!   work counters + input-vertex sets) that every system simulation
//!   consumes.
//! - [`memory`]: per-system GPU memory planning — who holds topology, who
//!   holds cache, what cache ratio remains; OOM surfaces here.
//! - [`queue`]: the host-memory global queue bridging Samplers and
//!   Trainers (a real MPMC queue for threaded runs; the co-simulation
//!   models its cost), with batch leases so a crashed consumer's
//!   in-flight work can be replayed.
//! - [`faults`]: deterministic, seeded fault plans (crashes, stragglers,
//!   transient errors, device failures) consumed by both the threaded
//!   runtime and the co-simulations.
//! - [`schedule`]: the GPU allocation rule `N_s = ceil(N_g/(K+1))` and the
//!   dynamic-switching profit metric `P = M_r·T_t/N_t − T_t'` (§5.3).
//! - [`runtime`]: epoch co-simulations — the factored GNNLab runtime,
//!   time-sharing baselines (PyG-like, DGL-like, T_SOTA), the single-GPU
//!   alternating mode (§7.9), the AGL batch-mode alternative (§3), and
//!   preprocessing (Table 6).
//! - [`train_real`]: actual data-parallel training to an accuracy target
//!   (the Fig. 16 convergence experiment).
//! - [`report`]: stage breakdowns and epoch reports matching the paper's
//!   table columns.

//! - [`checkpoint`]: durable crash-safe checkpoint/resume — versioned,
//!   CRC-checked, atomically-written generations, and the newest-first
//!   directory scan for the latest valid one that the kill–resume chaos
//!   harness exercises.

pub mod checkpoint;
pub mod driver;
pub mod faults;
pub mod memory;
pub mod queue;
pub mod report;
pub mod runtime;
pub mod schedule;
pub mod sync;
pub mod systems;
pub mod threaded;
pub mod trace;
pub mod train_real;
pub mod workload;

pub use checkpoint::{ChaosPlan, CheckpointError, CheckpointPolicy};
pub use faults::{ExecutorRole, FaultPlan, RetryPolicy};
pub use report::{EpochReport, RunError, StageBreakdown};
pub use systems::SystemKind;
pub use workload::Workload;
