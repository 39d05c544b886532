//! Fig. 4: the motivation sweeps on OGB-Papers.
//!
//! (a) Cache hit rate and Extract-stage time vs cache ratio — the two
//!     vertical lines of the paper are the 21 % (no topology) and ~7 %
//!     (topology resident) ratios from Table 1.
//! (b) Cache hit rate and transferred data vs feature dimension with a
//!     fixed 5 GB cache.

use crate::exp::{dataset, transferred_bytes_paper, workload_on};
use crate::table::{bytes, pct, secs};
use crate::{ExpConfig, Table};
use gnnlab_cache::PolicyKind;
use gnnlab_core::runtime::{cache_stats_on_trace, run_epoch_with_cache, EpochStore, Placement};
use gnnlab_core::SystemKind;
use gnnlab_graph::{Dataset, DatasetKind};
use gnnlab_sampling::Kernel;
use gnnlab_tensor::ModelKind;

const GB: f64 = 1e9;

/// Fig. 4a: hit rate + Extract time vs cache ratio (degree policy, the
/// §3 motivation setting).
fn run_a(cfg: &ExpConfig, papers: &Dataset) -> Table {
    let w = EpochStore::new(workload_on(ModelKind::Gcn, papers.clone(), cfg));
    let (ctx, epoch) = w.cell(SystemKind::TSota, 1);
    let gpu = Placement::timeshare(SystemKind::TSota, 1).expect("T_SOTA time-shares");
    let mut table = Table::new(
        "Fig. 4a: cache ratio sweep, GCN on OGB-Papers (Degree policy)",
        &["Cache ratio", "Hit rate", "Extract time (s/epoch)"],
    );
    for alpha in [0.0, 0.02, 0.05, 0.07, 0.10, 0.14, 0.21, 0.30] {
        let cache = w.cache(PolicyKind::Degree, alpha);
        let rep = run_epoch_with_cache(&ctx, &epoch, &gpu, cache).expect("nothing is planned");
        table.row(vec![
            pct(alpha),
            pct(rep.hit_rate),
            secs(rep.stages.extract),
        ]);
    }
    table
}

/// Fig. 4b: hit rate + transferred data vs feature dimension, 5 GB cache.
fn run_b(cfg: &ExpConfig, papers: &Dataset) -> Table {
    let mut table = Table::new(
        "Fig. 4b: feature-dimension sweep, OGB-Papers, 5 GB cache (Degree policy)",
        &[
            "Feature dim",
            "Cache ratio",
            "Hit rate",
            "Transferred/epoch",
        ],
    );
    for dim in [128usize, 256, 384, 512, 640, 768] {
        let w = workload_on(ModelKind::Gcn, papers.clone().with_feat_dim(dim), cfg);
        let store = EpochStore::new(w);
        let (w, trace) = (store.workload(), store.trace(Kernel::FisherYates, 2));
        let feat = w.dataset.feature_bytes_paper() as f64;
        let alpha = (5.0 * GB / feat).min(1.0);
        let cache = store.cache(PolicyKind::Degree, alpha);
        let stats = cache_stats_on_trace(w, trace, &cache);
        let moved = transferred_bytes_paper(w, trace, &cache);
        table.row(vec![
            dim.to_string(),
            pct(alpha),
            pct(stats.hit_rate()),
            bytes(moved),
        ]);
    }
    table
}

/// Both panels.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let papers = dataset(DatasetKind::Papers, cfg);
    vec![run_a(cfg, &papers), run_b(cfg, &papers)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    fn config() -> ExpConfig {
        ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        }
    }

    #[test]
    fn hit_rate_rises_and_extract_falls_with_alpha() {
        let t = &run(&config())[0];
        let hit = |r: usize| -> f64 { t.rows[r][1].trim_end_matches('%').parse().unwrap() };
        let ext = |r: usize| -> f64 { t.rows[r][2].parse().unwrap() };
        let last = t.rows.len() - 1;
        assert!(hit(last) > hit(0));
        assert!(ext(last) < ext(0));
        // Hit rate is monotonically non-decreasing in alpha.
        for r in 1..t.rows.len() {
            assert!(hit(r) >= hit(r - 1) - 1.0, "row {r}");
        }
    }

    #[test]
    fn bigger_dims_shrink_ratio_and_hit_rate() {
        let t = &run(&config())[1];
        let ratio = |r: usize| -> f64 { t.rows[r][1].trim_end_matches('%').parse().unwrap() };
        let hit = |r: usize| -> f64 { t.rows[r][2].trim_end_matches('%').parse().unwrap() };
        let last = t.rows.len() - 1;
        assert!(ratio(last) < ratio(0));
        assert!(hit(last) < hit(0) + 1.0);
    }
}
