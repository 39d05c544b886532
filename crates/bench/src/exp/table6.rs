//! Table 6: preprocessing time for training GCN in GNNLab.

use crate::exp::generate;
use crate::table::secs;
use crate::{ExpConfig, Table};
use gnnlab_core::runtime::{preprocess_report, SimContext};
use gnnlab_core::SystemKind;
use gnnlab_graph::DatasetKind;
use gnnlab_sampling::Kernel;
use gnnlab_tensor::ModelKind;

/// Regenerates Table 6.
pub fn run(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Table 6: preprocessing time (s) for training GCN in GNNLab",
        &["Phase", "PR", "TW", "PA", "UK"],
    );
    let mut rows: Vec<Vec<String>> = vec![
        vec!["Disk to DRAM (G & F)".to_string()],
        vec!["DRAM to GPU-mem (G & $)".to_string()],
        vec!["  Load graph topological data".to_string()],
        vec!["  Load feature cache".to_string()],
        vec!["Pre-sampling for PreSC#1".to_string()],
    ];
    for ds in DatasetKind::ALL {
        let w = generate(ModelKind::Gcn, ds, cfg);
        cfg.begin_run(&format!("table6 {}", ds.abbrev()));
        // Pre-sampling sees epoch 0, the first shuffle of the run.
        let (w, trace) = (w.workload(), w.trace(Kernel::FisherYates, 0));
        let ctx = SimContext::new(w, SystemKind::GnnLab).with_obs(cfg.obs());
        let rep = preprocess_report(&ctx, trace).expect("GNNLab plans fit all datasets");
        rows[0].push(secs(rep.disk_to_dram));
        rows[1].push(secs(rep.dram_to_gpu()));
        rows[2].push(secs(rep.load_topology));
        rows[3].push(secs(rep.load_cache));
        rows[4].push(secs(rep.presampling));
    }
    for r in rows {
        table.row(r);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    #[test]
    fn table6_orderings_hold() {
        let t = run(&ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        });
        let v = |r: usize, c: usize| -> f64 { t.rows[r][c].parse().unwrap() };
        for c in 1..=4 {
            // P1 dominates, pre-sampling is smallest of the phases
            // (the §7.6 takeaway that PreSC's cost is amortizable).
            assert!(v(0, c) > v(1, c), "col {c}: P1 should dominate P2");
            assert!(v(4, c) < v(1, c), "col {c}: P3 should be small");
            // P2 = topo + cache.
            assert!((v(1, c) - (v(2, c) + v(3, c))).abs() < 0.15 * v(1, c) + 0.2);
        }
        // Bigger datasets preprocess longer: UK > PR for P1.
        assert!(v(0, 4) > v(0, 1));
    }
}
