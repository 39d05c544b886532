//! Fig. 3: per-stage GPU memory budgets (OGB-Papers on 16 GB GPUs).
//!
//! The narrative figure behind the factored design: time-sharing must fit
//! topology + sampling workspace + training workspace + cache on every
//! GPU; space-sharing dedicates GPUs so topology and cache never coexist.

use crate::table::bytes;
use crate::{ExpConfig, Table};
use gnnlab_core::memory::{plan_gpu, sample_workspace_bytes, train_workspace_bytes, Residency};
use gnnlab_core::{SystemKind, Workload};
use gnnlab_graph::DatasetKind;
use gnnlab_sim::Testbed;
use gnnlab_tensor::ModelKind;

/// Regenerates the Fig. 3 memory budget comparison.
pub fn run(cfg: &ExpConfig) -> Table {
    let w = Workload::new(ModelKind::Gcn, DatasetKind::Papers, cfg.scale, cfg.seed);
    let testbed = Testbed::paper();
    let mut table = Table::new(
        "Fig. 3: GPU memory budgets for GCN on OGB-Papers (16 GB per GPU)",
        &[
            "GPU role",
            "Topology",
            "Sample WS",
            "Train WS",
            "Feature cache",
            "Cache R%",
        ],
    );
    let topo = w.dataset.topo_bytes_paper() as f64;
    let sws = sample_workspace_bytes(SystemKind::GnnLab, w.algorithm) as f64;
    let tws = train_workspace_bytes(w.model) as f64;
    let feat = w.dataset.feature_bytes_paper() as f64;

    let plan = |system, resident| plan_gpu(&testbed, &w, system, resident).expect("PA fits");
    let ts = plan(SystemKind::TSota, Residency::TIMESHARE_CACHED);
    table.row(vec![
        "Time-sharing (T_SOTA)".into(),
        bytes(topo),
        bytes(sws),
        bytes(tws),
        bytes(ts.cache_alpha * feat),
        format!("{:.0}%", ts.cache_alpha * 100.0),
    ]);
    plan(SystemKind::GnnLab, Residency::SAMPLER);
    table.row(vec![
        "GNNLab Sampler".into(),
        bytes(topo),
        bytes(sws),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    let trainer = plan(SystemKind::GnnLab, Residency::TRAINER);
    table.row(vec![
        "GNNLab Trainer".into(),
        "-".into(),
        "-".into(),
        bytes(tws),
        bytes(trainer.cache_alpha * feat),
        format!("{:.0}%", trainer.cache_alpha * 100.0),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    #[test]
    fn trainer_cache_dominates_timeshare_cache() {
        let t = run(&ExpConfig {
            scale: Scale::new(4096),
            seed: 1,
            obs: None,
        });
        assert_eq!(t.rows.len(), 3);
        let ts_pct: f64 = t.rows[0][5].trim_end_matches('%').parse().unwrap();
        let tr_pct: f64 = t.rows[2][5].trim_end_matches('%').parse().unwrap();
        assert!(
            tr_pct > 1.8 * ts_pct,
            "trainer {tr_pct}% vs timeshare {ts_pct}%"
        );
    }
}
