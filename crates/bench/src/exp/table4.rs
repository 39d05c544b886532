//! Table 4: end-to-end epoch time of every system on every workload
//! (3 models × 4 datasets, 8 GPUs).

use crate::exp::{datasets, workload_on, Recorded};
use crate::table::{cell, secs};
use crate::{ExpConfig, Table};
use gnnlab_core::SystemKind;
use gnnlab_tensor::ModelKind;

/// Regenerates Table 4 on 8 GPUs: epoch seconds (GNNLab with the Sampler
/// count its rule picked), `OOM`, or `x` (unsupported).
pub fn run(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Table 4: runtime (s) of one epoch, 8 GPUs",
        &["Model", "Dataset", "PyG", "DGL", "T_SOTA", "GNNLab"],
    );
    let datasets = datasets(cfg);
    for model in ModelKind::ALL {
        for dataset in &datasets {
            let ds = dataset.spec.kind;
            let mut w = Recorded::new(workload_on(model, dataset.clone(), cfg));
            let mut row = vec![model.abbrev().to_string(), ds.abbrev().to_string()];
            for system in SystemKind::ALL {
                row.push(cell(&w.run_system(system, 8), |rep| match system {
                    SystemKind::GnnLab => {
                        format!("{} ({}S)", secs(rep.epoch_time), rep.num_samplers)
                    }
                    _ => secs(rep.epoch_time),
                }));
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

    fn config() -> ExpConfig {
        ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        }
    }

    fn parse_secs(cell: &str) -> Option<f64> {
        cell.split(' ').next()?.parse().ok()
    }

    #[test]
    fn table4_headline_claims() {
        let t = run(&config());
        assert_eq!(t.rows.len(), 12);
        let mut dgl_speedups = Vec::new();
        let mut pyg_speedups = Vec::new();
        for row in &t.rows {
            let (model, ds) = (&row[0], &row[1]);
            let pyg = &row[2];
            let dgl = &row[3];
            let gnnlab = parse_secs(&row[5]).unwrap_or_else(|| panic!("GNNLab failed: {row:?}"));
            assert!(gnnlab > 0.0);

            // PyG supports no PinSAGE.
            if model == "PSG" {
                assert_eq!(pyg, "x", "{row:?}");
            }
            // UK OOMs on DGL (paper: all three models).
            if ds == "UK" {
                assert_eq!(dgl, "OOM", "{row:?}");
            }
            if let Some(d) = parse_secs(dgl) {
                dgl_speedups.push(d / gnnlab);
            }
            if let Some(p) = parse_secs(pyg) {
                pyg_speedups.push(p / gnnlab);
            }
        }
        // Headline: GNNLab beats DGL on every workload that runs, and by a
        // large factor somewhere (paper: 2.4-9.1x).
        assert!(dgl_speedups.iter().all(|&s| s > 1.0), "{dgl_speedups:?}");
        assert!(
            dgl_speedups.iter().cloned().fold(0.0, f64::max) > 3.0,
            "{dgl_speedups:?}"
        );
        // And PyG by much more (paper: 10.2-74.3x).
        assert!(
            pyg_speedups.iter().cloned().fold(0.0, f64::max) > 8.0,
            "{pyg_speedups:?}"
        );
    }

    #[test]
    fn tsota_wins_only_on_products() {
        let t = run(&config());
        for row in &t.rows {
            let ds = &row[1];
            let (Some(tsota), Some(gnnlab)) = (parse_secs(&row[4]), parse_secs(&row[5])) else {
                continue;
            };
            if ds != "PR" {
                assert!(gnnlab < tsota * 1.05, "GNNLab should win off-PR: {row:?}");
            }
        }
    }
}
