//! Fig. 11: PreSC in depth — (a) how many pre-sampling epochs K are
//! needed, (b) hit rate vs cache ratio on OGB-Papers, (c) transferred data
//! vs feature dimension with a fixed 5 GB cache.

use crate::exp::{dataset, transferred_bytes_paper, workload_on};
use crate::table::{bytes, pct};
use crate::{ExpConfig, Table};
use gnnlab_cache::PolicyKind;
use gnnlab_core::runtime::{cache_stats_on_trace, EpochStore};
use gnnlab_core::Workload;
use gnnlab_graph::{Dataset, DatasetKind};
use gnnlab_sampling::{AlgorithmKind, Kernel};
use gnnlab_tensor::ModelKind;

const GB: f64 = 1e9;

/// Fig. 11a: PreSC#K vs K on Twitter with weighted sampling (hit rate at
/// several cache ratios).
fn run_a(cfg: &ExpConfig) -> Table {
    let w = Workload::new(ModelKind::Gcn, DatasetKind::Twitter, cfg.scale, cfg.seed)
        .with_algorithm(AlgorithmKind::Khop3Weighted);
    let store = EpochStore::new(w);
    // Measurement epoch 5: outside every pre-sampling window (K <= 3).
    let (w, trace) = (store.workload(), store.trace(Kernel::FisherYates, 5));
    let mut table = Table::new(
        "Fig. 11a: PreSC#K on Twitter (weighted sampling): hit rate vs cache ratio",
        &[
            "Cache ratio",
            "Degree",
            "PreSC#1",
            "PreSC#2",
            "PreSC#3",
            "Optimal",
        ],
    );
    let policies = [
        PolicyKind::Degree,
        PolicyKind::PreSC { k: 1 },
        PolicyKind::PreSC { k: 2 },
        PolicyKind::PreSC { k: 3 },
        PolicyKind::Optimal { epochs: 6 },
    ];
    for alpha in [0.05, 0.10, 0.20] {
        let mut row = vec![pct(alpha)];
        for policy in policies {
            let cache = store.cache(policy, alpha);
            row.push(pct(cache_stats_on_trace(w, trace, &cache).hit_rate()));
        }
        table.row(row);
    }
    table
}

/// Fig. 11b: hit rate vs cache ratio on OGB-Papers (uniform 3-hop).
fn run_b(cfg: &ExpConfig, papers: &Dataset) -> Table {
    let store = EpochStore::new(workload_on(ModelKind::Gcn, papers.clone(), cfg));
    let (w, trace) = (store.workload(), store.trace(Kernel::FisherYates, 2));
    let mut table = Table::new(
        "Fig. 11b: hit rate vs cache ratio, OGB-Papers, 3-hop uniform",
        &["Cache ratio", "Random", "Degree", "PreSC#1", "Optimal"],
    );
    for alpha in [0.01, 0.03, 0.05, 0.10, 0.15, 0.20, 0.30] {
        let mut row = vec![pct(alpha)];
        for policy in super::fig10::POLICIES {
            let cache = store.cache(policy, alpha);
            row.push(pct(cache_stats_on_trace(w, trace, &cache).hit_rate()));
        }
        table.row(row);
    }
    table
}

/// Fig. 11c: transferred data vs feature dimension, 5 GB cache.
fn run_c(cfg: &ExpConfig, papers: &Dataset) -> Table {
    let mut table = Table::new(
        "Fig. 11c: transferred data per epoch vs feature dim, OGB-Papers, 5 GB cache",
        &["Feature dim", "Random", "Degree", "PreSC#1"],
    );
    for dim in [100usize, 300, 500, 700, 900] {
        let w = workload_on(ModelKind::Gcn, papers.clone().with_feat_dim(dim), cfg);
        let store = EpochStore::new(w);
        let (w, trace) = (store.workload(), store.trace(Kernel::FisherYates, 2));
        let alpha = (5.0 * GB / w.dataset.feature_bytes_paper() as f64).min(1.0);
        let mut row = vec![dim.to_string()];
        for policy in [
            PolicyKind::Random,
            PolicyKind::Degree,
            PolicyKind::PreSC { k: 1 },
        ] {
            let cache = store.cache(policy, alpha);
            row.push(bytes(transferred_bytes_paper(w, trace, &cache)));
        }
        table.row(row);
    }
    table
}

/// All three panels.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let papers = dataset(DatasetKind::Papers, cfg);
    vec![run_a(cfg), run_b(cfg, &papers), run_c(cfg, &papers)]
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

    fn v(cell: &str) -> f64 {
        cell.trim_end_matches('%').parse().unwrap()
    }

    #[test]
    fn one_presampling_epoch_is_nearly_enough() {
        let t = run_a(&config());
        for row in &t.rows {
            let k1 = v(&row[2]);
            let k3 = v(&row[4]);
            // Paper: K <= 2 already suffices; K=3 adds little over K=1.
            assert!(k3 - k1 < 12.0, "K sweep unstable: {row:?}");
            // All PreSC variants beat Degree under weighted sampling.
            let degree = v(&row[1]);
            assert!(k1 > degree, "PreSC#1 {k1} <= Degree {degree}");
        }
    }

    #[test]
    fn presc_hit_rate_grows_fast_with_alpha() {
        let t = &run(&config())[1];
        let first = &t.rows[0];
        let last = t.rows.last().unwrap();
        assert!(v(&last[3]) > v(&first[3]));
        // At every ratio PreSC >= Degree on PA.
        for row in &t.rows {
            assert!(v(&row[3]) + 2.0 >= v(&row[2]), "{row:?}");
        }
    }

    #[test]
    fn presc_transfers_least_across_dims() {
        let t = &run(&config())[2];
        for row in &t.rows {
            let parse = |s: &str| -> f64 {
                let s = s.trim_end_matches("GB").trim_end_matches("MB");
                s.parse().unwrap()
            };
            let as_bytes = |s: &str| -> f64 {
                if s.ends_with("GB") {
                    parse(s) * 1e9
                } else {
                    parse(s) * 1e6
                }
            };
            let random = as_bytes(&row[1]);
            let presc = as_bytes(&row[3]);
            assert!(presc <= random, "{row:?}");
        }
    }
}
