//! Fig. 17: (a) dynamic switching on a skewed workload; (b) all systems on
//! a single GPU.

use crate::exp::{datasets, workload_on};
use crate::table::{cell, secs};
use crate::{ExpConfig, Table};
use gnnlab_core::runtime::{run_factored_epoch, run_system_on, EpochStore};
use gnnlab_core::SystemKind;
use gnnlab_graph::{Dataset, DatasetKind};
use gnnlab_tensor::ModelKind;

/// Fig. 17a: PinSAGE on PA, 1 Sampler, n Trainers, switching on/off.
fn run_a(cfg: &ExpConfig, papers: &Dataset) -> Table {
    let w = EpochStore::new(workload_on(ModelKind::PinSage, papers.clone(), cfg));
    let (ctx, epoch) = w.cell(SystemKind::GnnLab, 8);
    let ctx = ctx.with_obs(cfg.obs());
    let mut table = Table::new(
        "Fig. 17a: PinSAGE on PA, 1 Sampler: dynamic switching on/off",
        &["#Trainers", "w/o DS", "w/ DS", "Switched batches"],
    );
    for n in 1..=6usize {
        cfg.begin_run(&format!("fig17a 1S{n}T w/o DS"));
        let without = run_factored_epoch(&ctx, &epoch, 1, n, false).expect("PA fits");
        cfg.begin_run(&format!("fig17a 1S{n}T w/ DS"));
        let with = run_factored_epoch(&ctx, &epoch, 1, n, true).expect("PA fits");
        table.row(vec![
            n.to_string(),
            secs(without.epoch_time),
            secs(with.epoch_time),
            with.switched_batches.to_string(),
        ]);
    }
    table
}

/// Fig. 17b: one GPU, GCN on all datasets: DGL vs T_SOTA vs GNNLab.
fn run_b(cfg: &ExpConfig, datasets: [Dataset; 4]) -> Table {
    let mut table = Table::new(
        "Fig. 17b: epoch time (s) on a single GPU, GCN",
        &["Dataset", "DGL", "T_SOTA", "GNNLab"],
    );
    for dataset in datasets {
        let ds = dataset.spec.kind;
        let w = EpochStore::new(workload_on(ModelKind::Gcn, dataset, cfg));
        let mut row = vec![ds.abbrev().to_string()];
        for system in [SystemKind::DglLike, SystemKind::TSota, SystemKind::GnnLab] {
            cfg.begin_run(&format!("fig17b {} {}", ds.abbrev(), system.label()));
            let (ctx, epoch) = w.cell(system, 1);
            let report = run_system_on(&ctx.with_obs(cfg.obs()), &epoch);
            row.push(cell(&report, |r| secs(r.epoch_time)));
        }
        table.row(row);
    }
    table
}

/// Both panels, over one instance of each dataset.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let datasets = datasets(cfg);
    let papers = datasets.iter().find(|d| d.spec.kind == DatasetKind::Papers);
    let a = run_a(cfg, gnnlab_par::invariant!(papers, "Table 3 lists PA"));
    vec![a, run_b(cfg, datasets)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::dataset;
    use gnnlab_graph::Scale;

    fn config() -> ExpConfig {
        ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        }
    }

    #[test]
    fn switching_gain_shrinks_as_trainers_grow() {
        let cfg = config();
        let t = run_a(&cfg, &dataset(DatasetKind::Papers, &cfg));
        let gain = |r: usize| -> f64 {
            let without: f64 = t.rows[r][1].parse().unwrap();
            let with: f64 = t.rows[r][2].parse().unwrap();
            without / with
        };
        // Large gain with 1 trainer, limited gain with 6 (paper §7.8).
        assert!(gain(0) > 1.2, "1T gain {:.2}", gain(0));
        assert!(gain(5) < gain(0), "6T gain should be smaller");
        // Switching never hurts.
        for r in 0..t.rows.len() {
            assert!(gain(r) > 0.95, "row {r}: {:?}", t.rows[r]);
        }
    }

    #[test]
    fn single_gpu_gnnlab_wins_off_products() {
        let cfg = config();
        let t = run_b(&cfg, datasets(&cfg));
        for row in &t.rows {
            let ds = &row[0];
            let gnnlab: f64 = row[3].parse().unwrap();
            if let Ok(dgl) = row[1].parse::<f64>() {
                assert!(gnnlab < dgl, "{ds}: gnnlab {gnnlab} dgl {dgl}");
            }
            if ds != "PR" {
                if let Ok(tsota) = row[2].parse::<f64>() {
                    assert!(gnnlab < tsota * 1.05, "{ds}: gnnlab {gnnlab} tsota {tsota}");
                }
            }
        }
    }
}
