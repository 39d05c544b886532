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
use gnnlab_core::runtime::SimContext;
use gnnlab_core::trace::EpochTrace;
use gnnlab_core::Workload;
use gnnlab_graph::{Dataset, DatasetKind};
use gnnlab_sampling::Kernel;
use gnnlab_tensor::ModelKind;

/// The four datasets of Table 3 at the configured scale and seed, in table
/// order. A table that sweeps models or algorithms instantiates them once
/// and builds each workload over a clone: cloning a CSR is a `memcpy`,
/// generating one draws and sorts every edge again.
pub(crate) fn datasets(cfg: &ExpConfig) -> [Dataset; 4] {
    DatasetKind::ALL.map(|kind| {
        Dataset::generate(kind, cfg.scale, cfg.seed)
            .expect("enum-typed dataset parameters always generate")
    })
}

/// What [`Workload::new`] builds, over an already instantiated dataset.
pub(crate) fn workload_on(model: ModelKind, dataset: Dataset, cfg: &ExpConfig) -> Workload {
    let classes = Workload::default_classes(dataset.spec.kind);
    Workload::with_dataset(model, dataset, classes, cfg.seed)
}

/// An epoch trace and what it was recorded with.
pub(crate) struct Recorded {
    kernel: Kernel,
    epoch: u64,
    trace: EpochTrace,
}

/// The trace a run of `ctx` consumes: the one in `last` if it was recorded
/// with the same kernel at the same epoch (T_SOTA and GNNLab both draw with
/// Fisher–Yates, so consecutive runs of one workload share it), otherwise a
/// fresh recording, which replaces it.
pub(crate) fn trace_for<'a>(last: &'a mut Option<Recorded>, ctx: &SimContext) -> &'a EpochTrace {
    let (kernel, epoch) = (ctx.system.kernel(), ctx.epoch);
    if !matches!(last, Some(r) if r.kernel == kernel && r.epoch == epoch) {
        *last = None;
    }
    let recorded = last.get_or_insert_with(|| Recorded {
        kernel,
        epoch,
        trace: EpochTrace::record(ctx.workload, kernel, epoch),
    });
    &recorded.trace
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
