//! Epoch co-simulations for every system design.
//!
//! All of them consume the same inputs: a recorded
//! [`EpochTrace`](crate::trace::EpochTrace) (real
//! sampling, exact quantities), memory plans (capacity accounting) and
//! the calibrated [`CostModel`](gnnlab_sim::CostModel). They differ only
//! in *structure* — which device does what, in what order, sharing what —
//! which is exactly the paper's claim about where performance comes from.
//! So there is one engine ([`run_epoch`]) and one table of
//! [`Placement`]s; the `run_*_epoch` functions below are its rows.
//!
//! Every entry point plans before it samples: it takes an [`Epoch`] —
//! a recorded trace, or a [`LazyEpoch`] of an [`EpochStore`] that
//! samples on first use — and asks it for the trace only once the
//! placement's GPUs are planned, so a cell that prints `OOM` records
//! nothing.
//!
//! [`run_system`] is the front door: over an epoch of the context's
//! store, [`run_system_on`] plans, profiles, allocates GPUs (for GNNLab),
//! and picks the placement. A caller that runs several cells over one
//! workload keeps an [`EpochStore`] and asks it for each cell.

mod context;
mod engine;
mod placement;
mod preprocess;
mod store;

pub use context::SimContext;
pub use engine::{run_epoch, run_epoch_with_cache, StageTimes};
pub use placement::{Assign, FactoredOptions, Link, Phase, Placement};
pub use preprocess::{preprocess_report, PreprocessReport};
pub use store::{cache_stats_on_trace, EpochStore, LazyEpoch};

use crate::report::{EpochReport, RunError};
use crate::schedule::num_samplers;
use crate::systems::SystemKind;
use crate::trace::Epoch;
use engine::Sim;
use gnnlab_tensor::ModelKind;

/// Simulates one time-sharing epoch (PyG-like, DGL-like, T_SOTA) over
/// `ctx.testbed.num_gpus` GPUs.
pub fn run_timeshare_epoch(
    ctx: &SimContext<'_>,
    epoch: &dyn Epoch,
) -> Result<EpochReport, RunError> {
    let p = Placement::timeshare(ctx.system, ctx.testbed.num_gpus)?;
    run_epoch(ctx, epoch, &p)
}

/// Simulates one factored epoch with `ns` Samplers and `nt` Trainers.
pub fn run_factored_epoch(
    ctx: &SimContext<'_>,
    epoch: &dyn Epoch,
    ns: usize,
    nt: usize,
    enable_switching: bool,
) -> Result<EpochReport, RunError> {
    let mut opts = FactoredOptions::new(ns, nt);
    opts.enable_switching = enable_switching;
    run_factored_epoch_opts(ctx, epoch, &opts)
}

/// Simulates one factored epoch with full [`FactoredOptions`] control.
pub fn run_factored_epoch_opts(
    ctx: &SimContext<'_>,
    epoch: &dyn Epoch,
    opts: &FactoredOptions,
) -> Result<EpochReport, RunError> {
    run_epoch(ctx, epoch, &Placement::factored(opts))
}

/// Simulates one GNNLab epoch on a single GPU (§7.9).
pub fn run_single_gpu_epoch(
    ctx: &SimContext<'_>,
    epoch: &dyn Epoch,
) -> Result<EpochReport, RunError> {
    run_epoch(ctx, epoch, &Placement::single_gpu())
}

/// Simulates one AGL batch-mode epoch over all GPUs (§3 Discussion).
pub fn run_agl_epoch(ctx: &SimContext<'_>, epoch: &dyn Epoch) -> Result<EpochReport, RunError> {
    run_epoch(ctx, epoch, &Placement::agl(ctx.testbed.num_gpus))
}

/// Profiles `T_s`, `T_t`, `T_t'` of the factored design from a recorded
/// epoch (§5.3).
pub fn profile_stage_times(
    ctx: &SimContext<'_>,
    epoch: &dyn Epoch,
) -> Result<StageTimes, RunError> {
    let p = Placement::factored(&FactoredOptions::new(1, 1));
    Ok(Sim::plan(ctx, &p)?.profile(epoch.trace()))
}

/// Runs one epoch of `system` on the context's workload and GPU count:
/// [`run_system_on`] over the epoch its sampling kernel draws, held in
/// the context's store and recorded only if the system fits.
///
/// Returns the Table 4 entry: an [`EpochReport`] or the `OOM`/`×` error.
pub fn run_system(ctx: &SimContext<'_>) -> Result<EpochReport, RunError> {
    run_system_on(ctx, &ctx.store().epoch(ctx.system.kernel(), ctx.epoch))
}

/// [`run_system`] over a given epoch. This is the one place a system and
/// a GPU count become a placement: the baselines time-share, GNNLab
/// alternates on one GPU and otherwise profiles, allocates Samplers by
/// the rule of §5.3 and runs factored.
pub fn run_system_on(ctx: &SimContext<'_>, epoch: &dyn Epoch) -> Result<EpochReport, RunError> {
    if ctx.system == SystemKind::PygLike && ctx.workload.model == ModelKind::PinSage {
        return Err(RunError::Unsupported(
            "PyG does not support PinSAGE".to_string(),
        ));
    }
    let gpus = ctx.testbed.num_gpus;
    if ctx.system != SystemKind::GnnLab {
        return run_timeshare_epoch(ctx, epoch);
    }
    if gpus == 1 {
        return run_single_gpu_epoch(ctx, epoch);
    }
    // The plans and cache tables depend on the roles, not on the split:
    // prepare them once for profiling and for the epoch itself.
    let split = |ns| Placement::factored(&FactoredOptions::new(ns, gpus - ns));
    let probe = split(1);
    let sim = Sim::plan(ctx, &probe)?;
    let trace = epoch.trace();
    let times = sim.profile(trace);
    let chosen = split(num_samplers(gpus, times.t_sample, times.t_trainer));
    sim.with(&chosen).run(trace)
}

#[cfg(test)]
mod tests;
