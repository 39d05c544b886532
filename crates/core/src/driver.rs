//! End-to-end multi-epoch run driver.
//!
//! A training job is preprocessing (Table 6) plus hundreds of epochs
//! (Table 4). This driver composes the two so the amortization argument
//! of §7.6 — "GNNLab only needs to perform (P2) and (P3) once for one GNN
//! training task that usually takes hundreds of epochs" — is a number,
//! not a sentence.

use crate::report::{EpochReport, RunError};
use crate::runtime::{preprocess_report, run_system_on, EpochStore, PreprocessReport, SimContext};

/// Summary of a full training job (preprocessing + `epochs` epochs).
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Preprocessing phases (P1–P3).
    pub preprocess: PreprocessReport,
    /// The steady-state epoch report (epochs are statistically identical;
    /// the simulator reports one representative epoch).
    pub epoch: EpochReport,
    /// Number of epochs in the job.
    pub epochs: usize,
    /// Total simulated job time: P1 + P2 + P3 + epochs × epoch time.
    pub total_time: f64,
    /// Fraction of the job spent in preprocessing.
    pub preprocess_fraction: f64,
}

/// Runs a full job of `epochs` epochs for the context's system.
///
/// Preprocessing is charged once: P1 (disk→DRAM) applies to every system;
/// P2 (topology + cache load) and P3 (pre-sampling) follow the GNNLab
/// pipeline. The returned fractions quantify the §7.6 amortization.
pub fn run_job(ctx: &SimContext<'_>, epochs: usize) -> Result<RunSummary, RunError> {
    assert!(epochs > 0, "a job needs at least one epoch");
    // One epoch serves both the pre-sampling charge and the run, recorded
    // once the Trainer GPU is planned.
    let store = EpochStore::over(ctx.workload);
    let trace = store.epoch(ctx.system.kernel(), ctx.epoch);
    let preprocess = preprocess_report(ctx, &trace)?;
    let epoch = run_system_on(ctx, &trace)?;
    let total_time = preprocess.total() + epoch.epoch_time * epochs as f64;
    Ok(RunSummary {
        preprocess_fraction: preprocess.total() / total_time,
        preprocess,
        epochs,
        total_time,
        epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::SystemKind;
    use crate::workload::Workload;
    use gnnlab_graph::{DatasetKind, Scale};
    use gnnlab_tensor::ModelKind;

    fn ctx_workload() -> Workload {
        Workload::new(
            ModelKind::GraphSage,
            DatasetKind::Papers,
            Scale::new(4096),
            1,
        )
    }

    #[test]
    fn preprocessing_amortizes_over_long_jobs() {
        let w = ctx_workload();
        let ctx = SimContext::new(&w, SystemKind::GnnLab);
        let short = run_job(&ctx, 1).unwrap();
        let long = run_job(&ctx, 300).unwrap();
        assert!(short.preprocess_fraction > long.preprocess_fraction);
        // §7.6: over a realistic job, preprocessing is a modest share.
        assert!(
            long.preprocess_fraction < 0.5,
            "preprocess fraction {:.2}",
            long.preprocess_fraction
        );
        assert!(
            (long.total_time - (long.preprocess.total() + 300.0 * long.epoch.epoch_time)).abs()
                < 1e-9
        );
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_epoch_job_panics() {
        let w = ctx_workload();
        let ctx = SimContext::new(&w, SystemKind::GnnLab);
        let _ = run_job(&ctx, 0);
    }
}
