//! Table 5: stage-level runtime breakdown on two GPUs (DGL, T_SOTA
//! time-sharing; GNNLab as 1 Sampler + 1 Trainer).

use crate::exp::{datasets, workload_on};
use crate::table::{error_cell, pct, secs};
use crate::{ExpConfig, Table};
use gnnlab_core::report::{EpochReport, RunError};
use gnnlab_core::runtime::{run_factored_epoch, run_timeshare_epoch, EpochStore};
use gnnlab_core::SystemKind;
use gnnlab_obs::Obs;
use gnnlab_tensor::ModelKind;

fn breakdown_cells(rep: &Result<EpochReport, RunError>) -> Vec<String> {
    match rep {
        Ok(r) => vec![
            secs(r.stages.sample_total()),
            secs(r.stages.sample_g),
            secs(r.stages.sample_m),
            secs(r.stages.sample_c),
            secs(r.stages.extract),
            pct(r.cache_ratio),
            pct(r.hit_rate),
            secs(r.stages.train),
        ],
        Err(e) => vec![error_cell(e).to_string(); 8],
    }
}

/// Runs one system's 2-GPU breakdown for a workload, recording spans and
/// metrics into `obs` when given. GNNLab is pinned to 1 Sampler + 1 Trainer
/// without switching, so each column is one role's time — the one
/// system → placement choice this crate makes itself.
fn breakdown(
    w: &EpochStore<'_>,
    system: SystemKind,
    obs: Option<&Obs>,
) -> Result<EpochReport, RunError> {
    let (ctx, epoch) = w.cell(system, 2);
    let ctx = ctx.with_obs(obs);
    match system {
        SystemKind::GnnLab => run_factored_epoch(&ctx, &epoch, 1, 1, false),
        _ => run_timeshare_epoch(&ctx, &epoch),
    }
}

/// Regenerates Table 5.
pub fn run(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Table 5: stage breakdown (s) of one epoch on 2 GPUs (GNNLab = 1S1T)",
        &[
            "Workload", "System", "S", "G", "M", "C", "E", "R%", "H%", "T",
        ],
    );
    let datasets = datasets(cfg);
    for model in ModelKind::ALL {
        for dataset in &datasets {
            let w = EpochStore::new(workload_on(model, dataset.clone(), cfg));
            let label = w.workload().label();
            for system in [SystemKind::DglLike, SystemKind::TSota, SystemKind::GnnLab] {
                cfg.begin_run(&format!("table5 {label} {}", system.label()));
                let rep = breakdown(&w, system, cfg.obs());
                let mut row = vec![label.clone(), system.label().to_string()];
                row.extend(breakdown_cells(&rep));
                table.row(row);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::generate;
    use gnnlab_graph::{DatasetKind, Scale};

    fn workload(model: ModelKind, ds: DatasetKind) -> EpochStore<'static> {
        generate(model, ds, &config())
    }

    fn config() -> ExpConfig {
        ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        }
    }

    #[test]
    fn gnnlab_extract_beats_tsota_on_papers() {
        let w = workload(ModelKind::Gcn, DatasetKind::Papers);
        let tsota = breakdown(&w, SystemKind::TSota, None).unwrap();
        let gnnlab = breakdown(&w, SystemKind::GnnLab, None).unwrap();
        // Paper: 4.2x average Extract advantage (except PR).
        assert!(
            gnnlab.stages.extract < tsota.stages.extract / 2.0,
            "gnnlab {} tsota {}",
            gnnlab.stages.extract,
            tsota.stages.extract
        );
        // Cache ratio and hit rate both higher.
        assert!(gnnlab.cache_ratio > tsota.cache_ratio);
        assert!(gnnlab.hit_rate > tsota.hit_rate);
        // GNNLab pays the queue copy (C > 0), T_SOTA does not.
        assert!(gnnlab.stages.sample_c > 0.0);
        assert_eq!(tsota.stages.sample_c, 0.0);
    }

    #[test]
    fn dgl_sample_is_slower_than_fisher_yates_systems() {
        let w = workload(ModelKind::PinSage, DatasetKind::Papers);
        let dgl = breakdown(&w, SystemKind::DglLike, None).unwrap();
        let tsota = breakdown(&w, SystemKind::TSota, None).unwrap();
        // §7.3: the gap is largest on PinSAGE (Python launch overheads).
        assert!(
            dgl.stages.sample_g > 1.5 * tsota.stages.sample_g,
            "dgl {} tsota {}",
            dgl.stages.sample_g,
            tsota.stages.sample_g
        );
    }

    #[test]
    fn recorded_spans_reproduce_stage_breakdown() {
        use gnnlab_obs::{stage_secs, Obs, Stage};
        let w = workload(ModelKind::Gcn, DatasetKind::Papers);
        for system in [SystemKind::DglLike, SystemKind::TSota, SystemKind::GnnLab] {
            let obs = Obs::virtual_time();
            let rep = breakdown(&w, system, Some(&obs)).unwrap();
            let sums = stage_secs(&obs.spans());
            let sum = |st: Stage| sums.get(&st).copied().unwrap_or(0.0);
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 + 1e-6 * b.abs();
            assert!(
                close(sum(Stage::SampleG), rep.stages.sample_g),
                "{system:?} G"
            );
            assert!(
                close(sum(Stage::SampleM), rep.stages.sample_m),
                "{system:?} M"
            );
            assert!(
                close(sum(Stage::SampleC), rep.stages.sample_c),
                "{system:?} C"
            );
            assert!(
                close(sum(Stage::Extract), rep.stages.extract),
                "{system:?} E"
            );
            assert!(close(sum(Stage::Train), rep.stages.train), "{system:?} T");
            // The spans form a consistent schedule and a valid trace doc.
            assert!(
                gnnlab_obs::find_overlap(&obs.spans()).is_none(),
                "{system:?}"
            );
            let text = serde_json::to_string(&obs.chrome_trace()).unwrap();
            serde_json::from_str(&text).expect("chrome trace is valid JSON");
        }
    }

    #[test]
    fn train_times_agree_across_systems() {
        let w = workload(ModelKind::GraphSage, DatasetKind::Twitter);
        let dgl = breakdown(&w, SystemKind::DglLike, None).unwrap();
        let gnnlab = breakdown(&w, SystemKind::GnnLab, None).unwrap();
        let ratio = dgl.stages.train / gnnlab.stages.train;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }
}
