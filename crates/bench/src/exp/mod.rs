//! One module per table/figure of the paper, and [`EXPERIMENTS`]: the one
//! list of what `experiments` runs — every entry's names, its group and
//! its runner, in the order `experiments all` prints them. The binary and
//! the table fingerprints read it; [`select`] maps command-line names and
//! groups onto it.
//!
//! # How a cell is built
//!
//! Every co-simulated cell of every table goes through one door:
//!
//! 1. `datasets` / `dataset` instantiate each graph a table uses once
//!    (`datasets` generates the four concurrently); `workload_on` builds
//!    the table's workloads over clones, `generate` one workload on a
//!    graph of its own.
//! 2. Each workload sits in a `gnnlab_core::runtime::EpochStore`: its
//!    sampled epochs (one pass per kernel and epoch, the Fisher–Yates
//!    pass also counting visits) and its cache rankings, cut from those
//!    counts. `EpochStore::cell` hands out the `SimContext` for a system
//!    and GPU count, planning its caches from the store, together with a
//!    `LazyEpoch` over the epoch that system's kernel draws. Nothing is
//!    sampled yet.
//! 3. The pair goes to `gnnlab_core::runtime`: `run_system_on` when the
//!    engine is to pick the placement (time-sharing baselines, GNNLab's
//!    allocation rule, the solo GPU; `EpochStore::run_system` is that
//!    call), `run_factored_epoch` / `run_epoch` when the table pins one,
//!    `run_epoch_with_cache` when it forces a cache ratio. The runtime
//!    plans the placement first and asks for the epoch only if every
//!    GPU fits, so an `OOM` or `x` cell samples nothing. Nothing here
//!    costs a stage or plans a GPU itself.
//! 4. `table::cell` turns the `Result<EpochReport, RunError>` into text:
//!    the table's reading of the report, or `OOM` / `x` / `LOST`.
//!
//! The hit-rate and footprint sweeps that run no epoch take their traces
//! (`EpochStore::trace`) and caches (`EpochStore::cache`) from the same
//! store. Table 2 and the subgraph ablation sample their own streams.

pub mod ablations;
pub mod fault_recovery;
pub mod fig10;
pub mod fig11;
pub mod fig12;
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

use crate::{ExpConfig, Table};
use gnnlab_cache::CacheTable;
use gnnlab_core::runtime::{cache_stats_on_trace, EpochStore};
use gnnlab_core::trace::EpochTrace;
use gnnlab_core::Workload;
use gnnlab_graph::{Dataset, DatasetKind};
use gnnlab_par::sync::{AtomicUsize, Ordering};
use gnnlab_tensor::ModelKind;
use std::sync::OnceLock;

/// One entry of [`EXPERIMENTS`].
pub struct Experiment {
    /// The names that select the entry: one, or one per table when its
    /// tables are readings of one sweep.
    pub names: &'static [&'static str],
    /// The group that also selects it, if any.
    pub group: Option<&'static str>,
    /// Regenerates its tables, in print order.
    pub run: fn(&ExpConfig) -> Vec<Table>,
}

const fn entry(
    names: &'static [&'static str],
    group: Option<&'static str>,
    run: fn(&ExpConfig) -> Vec<Table>,
) -> Experiment {
    Experiment { names, group, run }
}

/// Every experiment, in the order `experiments all` runs them.
pub static EXPERIMENTS: [Experiment; 20] = [
    // Table 1: runtime breakdown of key optimizations (GCN on PA, 1 GPU).
    entry(&["table1"], Some("motivation"), |c| vec![table1::run(c)]),
    // Fig. 3: per-stage GPU memory budgets.
    entry(&["fig3"], Some("motivation"), |c| vec![fig3::run(c)]),
    // Fig. 4: cache ratio and feature-dimension sweeps.
    entry(&["fig4"], Some("motivation"), fig4::run),
    // Fig. 5: Degree vs Optimal transferred data.
    entry(&["fig5"], Some("motivation"), fig5::run),
    // Table 2: epoch-to-epoch footprint similarity.
    entry(&["table2"], Some("caching"), |c| vec![table2::run(c)]),
    // Fig. 10: hit rate of 4 policies x 3 algorithms x 4 datasets.
    entry(&["fig10"], Some("caching"), |c| vec![fig10::run(c)]),
    // Fig. 11: PreSC#K, alpha and dimension sweeps.
    entry(&["fig11"], Some("caching"), fig11::run),
    // Table 4: end-to-end epoch times, all systems x workloads.
    entry(&["table4"], Some("performance"), |c| vec![table4::run(c)]),
    // Table 5: stage breakdown on 2 GPUs.
    entry(&["table5"], Some("performance"), |c| vec![table5::run(c)]),
    // Figs. 12/13: one caching-policy sweep, read as Extract / epoch time.
    entry(&["fig12", "fig13"], Some("caching"), fig12::tables),
    // Figs. 14/15: scalability and the mS+nT breakdown.
    entry(&["fig14"], Some("performance"), fig14::run),
    entry(&["fig15"], Some("performance"), |c| vec![fig15::run(c)]),
    // Table 6: preprocessing cost.
    entry(&["table6"], Some("performance"), |c| vec![table6::run(c)]),
    // Fig. 16: convergence (real training) and its GPU scalability.
    entry(&["fig16"], Some("performance"), fig16::run),
    // Fig. 17: dynamic switching and single-GPU performance.
    entry(&["fig17"], Some("performance"), fig17::run),
    // Section 8: self-reliant partition redundancy.
    entry(&["partition"], None, |c| vec![partition::run(c)]),
    // Design-choice ablations: pipelining, multi-tenant stragglers,
    // batch/training-set size, partitioned sampling, subgraph sampling.
    entry(&["ablations"], None, ablations::run),
    // Device killed mid-epoch: replay and re-balance cost.
    entry(&["fault_recovery"], None, |c| vec![fault_recovery::run(c)]),
    // Per-executor caches under dynamic switching.
    entry(&["switch_cache"], None, |c| vec![switch_cache::run(c)]),
    // Kill-resume chaos: checkpoints, torn writes, bit-identical resume.
    entry(&["kill_resume"], None, |c| vec![kill_resume::run(c)]),
];

/// What `experiments ARGS` runs, in order: the index of each selected
/// entry of [`EXPERIMENTS`], with `Some(i)` when a name picks its table `i`
/// alone. Empty `args` and `all` select every entry, a group its members;
/// a group selects an entry once, whatever its number of names.
pub fn select(args: &[impl AsRef<str>]) -> Result<Vec<(usize, Option<usize>)>, String> {
    let mut picked = Vec::new();
    let all = args.is_empty().then_some("all");
    for arg in args.iter().map(AsRef::as_ref).chain(all) {
        let before = picked.len();
        for (at, e) in EXPERIMENTS.iter().enumerate() {
            if arg == "all" || e.group == Some(arg) {
                picked.push((at, None));
            } else if let Some(i) = e.names.iter().position(|n| *n == arg) {
                picked.push((at, (e.names.len() > 1).then_some(i)));
            }
        }
        if picked.len() == before {
            let known: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.names).copied().collect();
            let known = known.join(" ");
            return Err(format!(
                "unknown experiment '{arg}'; known: {known} plus groups all/motivation/caching/performance"
            ));
        }
    }
    Ok(picked)
}

/// One dataset of Table 3 at the configured scale and seed.
pub(crate) fn dataset(kind: DatasetKind, cfg: &ExpConfig) -> Dataset {
    Dataset::generate(kind, cfg.scale, cfg.seed)
        .expect("enum-typed dataset parameters always generate")
}

/// The four datasets of Table 3, in table order. A table that sweeps models
/// or algorithms instantiates them once and builds each workload over a
/// clone: cloning a CSR is a `memcpy`, generating one draws and sorts every
/// edge again. They generate concurrently on [`gnnlab_par::host_pool`],
/// each worker taking the next kind left from the back of Table 3 (it
/// lists them by growing edge count, so the slowest starts first).
/// Generation uses no pool itself and is a pure function of
/// `(kind, scale, seed)`, so each graph is the one [`dataset`] makes.
pub(crate) fn datasets(cfg: &ExpConfig) -> [Dataset; 4] {
    let kinds = DatasetKind::ALL;
    let slots = kinds.map(|_| OnceLock::new());
    let taken = AtomicUsize::new(0);
    let pool = gnnlab_par::host_pool();
    pool.run_ranges(pool.partitions(kinds.len()), |_, _| {
        while let Some(i) = kinds
            .len()
            .checked_sub(1 + taken.fetch_add(1, Ordering::Relaxed))
        {
            slots[i].get_or_init(|| dataset(kinds[i], cfg));
        }
    });
    slots.map(|s| gnnlab_par::invariant!(s.into_inner(), "every kind generates once"))
}

/// What [`Workload::new`] builds, over an already instantiated dataset.
pub(crate) fn workload_on(model: ModelKind, dataset: Dataset, cfg: &ExpConfig) -> Workload {
    let classes = Workload::default_classes(dataset.spec.kind);
    Workload::with_dataset(model, dataset, classes, cfg.seed)
}

/// The standard workload of `model` on a freshly instantiated `kind`, in
/// a store of its own, for a table that uses that dataset for nothing
/// else.
pub(crate) fn generate(
    model: ModelKind,
    kind: DatasetKind,
    cfg: &ExpConfig,
) -> EpochStore<'static> {
    EpochStore::new(Workload::new(model, kind, cfg.scale, cfg.seed))
}

/// Paper-scale transferred bytes of an epoch trace against a cache.
pub fn transferred_bytes_paper(workload: &Workload, trace: &EpochTrace, table: &CacheTable) -> f64 {
    cache_stats_on_trace(workload, trace, table).transferred_bytes() as f64 * trace.factor
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `experiments all`, in `results/experiments_scale1024.txt` order.
    const ALL: [&str; 21] = [
        "table1",
        "fig3",
        "fig4",
        "fig5",
        "table2",
        "fig10",
        "fig11",
        "table4",
        "table5",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "table6",
        "fig16",
        "fig17",
        "partition",
        "ablations",
        "fault_recovery",
        "switch_cache",
        "kill_resume",
    ];

    /// The names a selection prints, one per table it picks or per name
    /// of a whole entry.
    fn printed(args: &[&str]) -> Vec<&'static str> {
        let picked = select(args).expect("known names");
        let name = |(at, pick): (usize, Option<usize>)| match pick {
            Some(i) => vec![EXPERIMENTS[at].names[i]],
            None => EXPERIMENTS[at].names.to_vec(),
        };
        picked.into_iter().flat_map(name).collect()
    }

    #[test]
    fn empty_args_and_all_select_every_entry_in_order() {
        let every: Vec<_> = (0..EXPERIMENTS.len()).map(|at| (at, None)).collect();
        assert_eq!(select(&[] as &[&str]).unwrap(), every);
        assert_eq!(select(&["all"]).unwrap(), every);
        assert_eq!(printed(&[]), ALL);
    }

    #[test]
    fn groups_select_their_members_in_order() {
        assert_eq!(printed(&["motivation"]), ["table1", "fig3", "fig4", "fig5"]);
        assert_eq!(
            printed(&["caching"]),
            ["table2", "fig10", "fig11", "fig12", "fig13"]
        );
        assert_eq!(
            printed(&["performance"]),
            ["table4", "table5", "fig14", "fig15", "table6", "fig16", "fig17"]
        );
    }

    #[test]
    fn the_policy_sweep_is_one_entry_a_group_selects_once() {
        let sweep = EXPERIMENTS
            .iter()
            .position(|e| e.names == ["fig12", "fig13"])
            .expect("one entry for Figs. 12/13");
        let picks = select(&["caching"]).unwrap();
        assert_eq!(picks.iter().filter(|p| p.0 == sweep).count(), 1);
        assert_eq!(select(&["fig13"]).unwrap(), [(sweep, Some(1))]);
        assert_eq!(
            select(&["fig13", "fig12"]).unwrap(),
            [(sweep, Some(1)), (sweep, Some(0))]
        );
    }

    #[test]
    fn an_unknown_name_is_an_error() {
        let err = select(&["table1", "fig99"]).unwrap_err();
        assert!(err.contains("'fig99'"), "{err}");
    }
}
