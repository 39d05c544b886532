//! Fig. 10: cache hit rate of the four policies at a fixed 10 % cache
//! ratio, for 3 sampling algorithms × 4 datasets (12 panels).
//!
//! The headline PreSC result: near-Optimal everywhere; Degree collapses on
//! the low-skew citation graph and under weighted sampling.

use crate::exp::{datasets, workload_on};
use crate::table::pct;
use crate::{ExpConfig, Table};
use gnnlab_cache::PolicyKind;
use gnnlab_core::runtime::{cache_stats_on_trace, EpochStore};
use gnnlab_sampling::{AlgorithmKind, Kernel};
use gnnlab_tensor::ModelKind;

/// The four policies in the paper's legend order.
pub const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Random,
    PolicyKind::Degree,
    PolicyKind::PreSC { k: 1 },
    PolicyKind::Optimal { epochs: 3 },
];

/// Regenerates Fig. 10 (hit rates at α = 10 %, measured on epoch 2).
pub fn run(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Fig. 10: cache hit rate at cache ratio 10%",
        &["Workload", "Random", "Degree", "PreSC#1", "Optimal"],
    );
    let datasets = datasets(cfg);
    for algo in AlgorithmKind::TABLE2 {
        for dataset in &datasets {
            let w = workload_on(ModelKind::Gcn, dataset.clone(), cfg).with_algorithm(algo);
            let w = EpochStore::new(w);
            // PreSC#1 and Optimal share the pre-sampled epoch 0, and
            // Optimal's epoch 2 is the measured one.
            let caches = POLICIES.map(|policy| w.cache(policy, 0.10));
            let (w, trace) = (w.workload(), w.trace(Kernel::FisherYates, 2));
            let ds = dataset.spec.kind;
            let mut row = vec![format!("{} / {}", algo.label(), ds.abbrev())];
            for cache in &caches {
                let hr = cache_stats_on_trace(w, trace, cache).hit_rate();
                row.push(pct(hr));
            }
            table.row(row);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    #[test]
    fn presc_is_near_optimal_and_beats_degree_where_it_matters() {
        let t = run(&ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        });
        assert_eq!(t.rows.len(), 12);
        let val = |row: &Vec<String>, col: usize| -> f64 {
            row[col].trim_end_matches('%').parse().unwrap()
        };
        let mut presc_vs_opt = Vec::new();
        for row in &t.rows {
            let random = val(row, 1);
            let presc = val(row, 3);
            let optimal = val(row, 4);
            // PreSC within striking distance of Optimal (paper: 90-99 %).
            assert!(presc >= 0.75 * optimal, "PreSC far from optimal: {row:?}");
            // And never worse than Random.
            assert!(presc + 2.0 >= random, "PreSC below random: {row:?}");
            presc_vs_opt.push(presc / optimal.max(1e-9));
        }
        // Degree collapses on PA workloads; PreSC does not.
        for row in t.rows.iter().filter(|r| r[0].contains("PA")) {
            let degree = val(row, 2);
            let presc = val(row, 3);
            assert!(
                presc > degree + 10.0,
                "PreSC should dominate Degree on PA: {row:?}"
            );
        }
    }
}
