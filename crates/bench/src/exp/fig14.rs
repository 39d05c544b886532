//! Fig. 14: scalability of DGL, T_SOTA and GNNLab with the number of GPUs
//! (GCN on PA and TW). GNNLab is shown with fixed Sampler counts 1S/2S/3S.

use crate::exp::Recorded;
use crate::table::{cell, secs};
use crate::{ExpConfig, Table};
use gnnlab_core::report::EpochReport;
use gnnlab_core::runtime::run_factored_epoch;
use gnnlab_core::SystemKind;
use gnnlab_graph::DatasetKind;
use gnnlab_tensor::ModelKind;

fn sweep(ds: DatasetKind, title: &str, cfg: &ExpConfig) -> Table {
    let mut w = Recorded::generate(ModelKind::Gcn, ds, cfg);
    let mut table = Table::new(
        title,
        &[
            "#GPUs",
            "DGL",
            "T_SOTA",
            "GNNLab/1S",
            "GNNLab/2S",
            "GNNLab/3S",
        ],
    );
    let epoch = |r: &EpochReport| secs(r.epoch_time);
    for gpus in 2..=8usize {
        let mut row = vec![gpus.to_string()];
        for system in [SystemKind::DglLike, SystemKind::TSota] {
            row.push(cell(&w.run_system(system, gpus), epoch));
        }
        let (ctx, trace) = w.cell(SystemKind::GnnLab, gpus);
        for ns in 1..=3usize {
            row.push(if ns >= gpus {
                "-".to_string()
            } else {
                cell(&run_factored_epoch(&ctx, trace, ns, gpus - ns, true), epoch)
            });
        }
        table.row(row);
    }
    table
}

/// Regenerates Fig. 14 (both panels).
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let (pa, tw) = (DatasetKind::Papers, DatasetKind::Twitter);
    vec![
        sweep(pa, "Fig. 14a: GCN on PA, epoch time (s) vs #GPUs", cfg),
        sweep(tw, "Fig. 14b: GCN on TW, epoch time (s) vs #GPUs", cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    #[test]
    fn gnnlab_scales_better_than_timeshare() {
        let cfg = ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        };
        let tables = run(&cfg);
        let pa = &tables[0];
        let v = |r: usize, c: usize| -> f64 { pa.rows[r][c].parse().unwrap() };
        // 8 GPUs (row 6) vs 2 GPUs (row 0).
        let dgl_speedup = v(0, 1) / v(6, 1);
        // GNNLab/1S is defined for every GPU count in the sweep.
        let gnnlab_speedup = v(0, 3) / v(6, 3);
        assert!(
            gnnlab_speedup > dgl_speedup,
            "gnnlab {gnnlab_speedup:.2}x vs dgl {dgl_speedup:.2}x"
        );
        // GNNLab/2S at 8 GPUs beats both baselines at 8 GPUs.
        assert!(v(6, 4) < v(6, 1));
        assert!(v(6, 4) < v(6, 2));
        // Adding trainers monotonically (weakly) improves GNNLab/1S early:
        // 3 GPUs (1S2T) -> 6 GPUs (1S5T).
        assert!(v(4, 3) <= v(1, 3) * 1.05);
    }
}
