//! One module per table/figure of the paper.
//!
//! | Module | Regenerates |
//! |---|---|
//! | [`table1`] | Table 1 — runtime breakdown of key optimizations (GCN on PA, 1 GPU) |
//! | [`fig3`] | Fig. 3 — per-stage GPU memory budgets |
//! | [`fig4`] | Fig. 4 — cache ratio / feature-dimension sweeps (motivation) |
//! | [`fig5`] | Fig. 5 — Degree vs Optimal transferred data |
//! | [`table2`] | Table 2 — epoch-to-epoch footprint similarity |
//! | [`fig10`] | Fig. 10 — hit rate of 4 policies × 3 algorithms × 4 datasets |
//! | [`fig11`] | Fig. 11 — PreSC#K sweep, α sweep, dimension sweep |
//! | [`table4`] | Table 4 — end-to-end epoch times, all systems × workloads |
//! | [`table5`] | Table 5 — stage breakdown on 2 GPUs |
//! | [`fig12`] / [`fig13`] | Figs. 12/13 — caching-policy impact on Extract / end-to-end |
//! | [`fig14`] / [`fig15`] | Figs. 14/15 — scalability and mS+nT breakdown |
//! | [`table6`] | Table 6 — preprocessing cost |
//! | [`fig16`] | Fig. 16 — convergence (real training) |
//! | [`fig17`] | Fig. 17 — dynamic switching and single-GPU performance |
//! | [`partition`] | §8 — self-reliant partition redundancy ablation |
//! | [`ablations`] | design-choice ablations: pipelining, multi-tenant stragglers, batch/training-set size, partitioned sampling, subgraph sampling vs PreSC |
//! | [`fault_recovery`] | degraded-mode recovery: device killed mid-epoch, replay + re-balance cost |
//! | [`switch_cache`] | memory-planned per-executor caches: per-role hit rates, refresh cost and profit trajectory under dynamic switching |
//! | [`kill_resume`] | kill–resume chaos: durable checkpoints, torn-write fallback, bit-identical resumed training |
//!
//! # How a cell is built
//!
//! Every co-simulated cell of every table goes through one door:
//!
//! 1. `datasets` / `dataset` instantiate each graph a table uses once;
//!    `workload_on` builds the table's workloads over clones.
//! 2. A `Recorded` owns its workload's epoch traces, one per distinct
//!    (kernel, epoch), recorded on first use. `Recorded::cell` hands out
//!    the `SimContext` for a system and GPU count together with the trace
//!    that system's kernel draws.
//! 3. The pair goes to `gnnlab_core::runtime`: `run_system_on` when the
//!    engine is to pick the placement (time-sharing baselines, GNNLab's
//!    allocation rule, the solo GPU; `Recorded::run_system` is that call), `run_factored_epoch` / `run_epoch`
//!    when the table pins one, `run_epoch_with_cache` when it forces a
//!    cache ratio. Nothing here costs a stage or plans a GPU itself.
//! 4. `table::cell` turns the `Result<EpochReport, RunError>` into text:
//!    the table's reading of the report, or `OOM` / `x` / `LOST`.
//!
//! The experiments that never run an epoch (hit-rate and footprint sweeps)
//! take their traces from `Recorded::trace`; Table 2 and the subgraph
//! ablation sample directly because they need visit counts, not traces.

pub mod ablations;
pub mod fault_recovery;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod kill_resume;
pub mod partition;
pub mod switch_cache;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod table6;

use crate::ExpConfig;
use gnnlab_cache::{CacheStats, CacheTable};
use gnnlab_core::report::{EpochReport, RunError};
use gnnlab_core::runtime::{run_system_on, SimContext};
use gnnlab_core::trace::EpochTrace;
use gnnlab_core::{SystemKind, Workload};
use gnnlab_graph::{Dataset, DatasetKind};
use gnnlab_sampling::Kernel;
use gnnlab_tensor::ModelKind;

/// One dataset of Table 3 at the configured scale and seed.
pub(crate) fn dataset(kind: DatasetKind, cfg: &ExpConfig) -> Dataset {
    Dataset::generate(kind, cfg.scale, cfg.seed)
        .expect("enum-typed dataset parameters always generate")
}

/// The four datasets of Table 3, in table order. A table that sweeps models
/// or algorithms instantiates them once and builds each workload over a
/// clone: cloning a CSR is a `memcpy`, generating one draws and sorts every
/// edge again.
pub(crate) fn datasets(cfg: &ExpConfig) -> [Dataset; 4] {
    DatasetKind::ALL.map(|kind| dataset(kind, cfg))
}

/// What [`Workload::new`] builds, over an already instantiated dataset.
pub(crate) fn workload_on(model: ModelKind, dataset: Dataset, cfg: &ExpConfig) -> Workload {
    let classes = Workload::default_classes(dataset.spec.kind);
    Workload::with_dataset(model, dataset, classes, cfg.seed)
}

/// A workload and the epoch traces recorded for it so far: one per distinct
/// (kernel, epoch), recorded the first time a cell needs it. T_SOTA, GNNLab
/// and PyG all draw with Fisher–Yates, so a row of systems, a GPU sweep or
/// a policy sweep over one workload records twice at most.
pub(crate) struct Recorded {
    pub workload: Workload,
    traces: Vec<(Kernel, u64, EpochTrace)>,
}

impl Recorded {
    pub fn new(workload: Workload) -> Self {
        Recorded {
            workload,
            traces: Vec::new(),
        }
    }

    /// The standard workload of `model` on a freshly instantiated `kind`,
    /// for a table that uses that dataset for nothing else.
    pub fn generate(model: ModelKind, kind: DatasetKind, cfg: &ExpConfig) -> Self {
        Self::new(Workload::new(model, kind, cfg.scale, cfg.seed))
    }

    /// The workload's epoch `epoch` as `kernel` draws it.
    pub fn trace(&mut self, kernel: Kernel, epoch: u64) -> (&Workload, &EpochTrace) {
        let Recorded { workload, traces } = self;
        let held = traces.iter().position(|t| (t.0, t.1) == (kernel, epoch));
        let at = held.unwrap_or_else(|| {
            traces.push((kernel, epoch, EpochTrace::record(workload, kernel, epoch)));
            traces.len() - 1
        });
        (workload, &traces[at].2)
    }

    /// What one cell runs on: the standard context of `system` on `gpus`
    /// GPUs (its default policy, epoch 2, no hub) and the trace that
    /// system's kernel draws for that epoch.
    pub fn cell(&mut self, system: SystemKind, gpus: usize) -> (SimContext<'_>, &EpochTrace) {
        let epoch = SimContext::new(&self.workload, system).epoch;
        let (workload, trace) = self.trace(system.kernel(), epoch);
        (SimContext::new(workload, system).with_gpus(gpus), trace)
    }

    /// One epoch of `system` on `gpus` GPUs under the engine's own
    /// system → placement rule.
    pub fn run_system(&mut self, system: SystemKind, gpus: usize) -> Result<EpochReport, RunError> {
        let (ctx, trace) = self.cell(system, gpus);
        run_system_on(&ctx, trace)
    }
}

/// Accumulates cache statistics of `table` over a recorded epoch trace.
pub fn cache_stats_on_trace(
    workload: &Workload,
    trace: &EpochTrace,
    table: &CacheTable,
) -> CacheStats {
    let row_bytes = workload.dataset.row_bytes();
    let mut stats = CacheStats::default();
    for b in &trace.batches {
        stats.record(table, &b.input_nodes, row_bytes);
    }
    stats
}

/// Paper-scale transferred bytes of an epoch trace against a cache.
pub fn transferred_bytes_paper(workload: &Workload, trace: &EpochTrace, table: &CacheTable) -> f64 {
    cache_stats_on_trace(workload, trace, table).transferred_bytes() as f64 * trace.factor
}
