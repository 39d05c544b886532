//! Fig. 5: transferred data of Degree vs Optimal caching with increasing
//! cache ratio — (a) OGB-Papers with uniform 3-hop sampling, (b) Twitter
//! with weighted 3-hop sampling.
//!
//! The §3 efficiency gap: Degree is far from Optimal on a low-skew graph
//! (a) and under weighted sampling even on a power-law graph (b).

use crate::exp::transferred_bytes_paper;
use crate::table::{bytes, pct};
use crate::{ExpConfig, Table};
use gnnlab_cache::PolicyKind;
use gnnlab_core::runtime::EpochStore;
use gnnlab_core::Workload;
use gnnlab_graph::DatasetKind;
use gnnlab_sampling::{AlgorithmKind, Kernel};
use gnnlab_tensor::ModelKind;

fn sweep(w: Workload, title: &str) -> Table {
    let store = EpochStore::new(w);
    let (w, trace) = (store.workload(), store.trace(Kernel::FisherYates, 2));
    let mut table = Table::new(
        title,
        &["Cache ratio", "Degree", "Optimal", "Degree/Optimal"],
    );
    for alpha in [0.01, 0.03, 0.05, 0.07, 0.10, 0.15, 0.20, 0.30] {
        let deg = store.cache(PolicyKind::Degree, alpha);
        let opt = store.cache(PolicyKind::Optimal { epochs: 3 }, alpha);
        let deg_bytes = transferred_bytes_paper(w, trace, &deg);
        let opt_bytes = transferred_bytes_paper(w, trace, &opt);
        let ratio = if opt_bytes > 0.0 {
            format!("{:.1}x", deg_bytes / opt_bytes)
        } else {
            "inf".to_string()
        };
        table.row(vec![pct(alpha), bytes(deg_bytes), bytes(opt_bytes), ratio]);
    }
    table
}

/// Fig. 5a: OGB-Papers with uniform 3-hop sampling.
pub fn run_a(cfg: &ExpConfig) -> Table {
    let w = Workload::new(ModelKind::Gcn, DatasetKind::Papers, cfg.scale, cfg.seed);
    sweep(
        w,
        "Fig. 5a: transferred data per epoch, OGB-Papers, 3-hop uniform",
    )
}

/// Fig. 5b: Twitter with weighted 3-hop sampling.
pub fn run_b(cfg: &ExpConfig) -> Table {
    let w = Workload::new(ModelKind::Gcn, DatasetKind::Twitter, cfg.scale, cfg.seed)
        .with_algorithm(AlgorithmKind::Khop3Weighted);
    sweep(
        w,
        "Fig. 5b: transferred data per epoch, Twitter, 3-hop weighted",
    )
}

/// Both panels.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    vec![run_a(cfg), run_b(cfg)]
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

    fn gap(t: &Table, row: usize) -> f64 {
        t.rows[row][3].trim_end_matches('x').parse().unwrap_or(99.0)
    }

    #[test]
    fn degree_is_far_from_optimal_on_papers() {
        let t = run_a(&config());
        // At a small cache ratio, Degree moves much more data than Optimal.
        assert!(gap(&t, 2) > 1.5, "gap at 5%: {}", gap(&t, 2));
    }

    #[test]
    fn weighted_sampling_breaks_degree_even_on_twitter() {
        let t = run_b(&config());
        assert!(gap(&t, 2) > 1.3, "gap at 5%: {}", gap(&t, 2));
    }
}
