//! Fault-recovery experiment: epoch cost of losing a device mid-epoch.
//!
//! Runs the factored co-simulation healthy, then replays it with a
//! Trainer (and separately a Sampler) device killed at 25/50/75% of the
//! healthy epoch time. The surviving executors absorb the dead device's
//! in-flight batch and the remaining work, so the epoch always completes
//! — the table quantifies the degraded-mode slowdown the recovery
//! machinery buys.

use crate::exp::Recorded;
use crate::table::{error_cell, secs};
use crate::{ExpConfig, Table};
use gnnlab_core::runtime::{run_factored_epoch_opts, FactoredOptions, SimContext};
use gnnlab_core::trace::EpochTrace;
use gnnlab_core::{FaultPlan, SystemKind};
use gnnlab_graph::DatasetKind;
use gnnlab_tensor::ModelKind;

const NS: usize = 1;
const NT: usize = 3;

fn run_with_failure(
    ctx: &SimContext<'_>,
    trace: &EpochTrace,
    seed: u64,
    fail: Option<(u64, usize)>,
) -> Result<gnnlab_core::EpochReport, gnnlab_core::RunError> {
    let mut opts = FactoredOptions::new(NS, NT);
    opts.faults = match fail {
        Some((at_ns, device)) => FaultPlan::none()
            .with_seed(seed)
            .with_device_failure(at_ns, device),
        None => FaultPlan::none().with_seed(seed),
    };
    run_factored_epoch_opts(ctx, trace, &opts)
}

/// GraphSAGE on PR, 1 Sampler + 3 Trainers: kill one device at three
/// points of the epoch and report the recovery cost.
pub fn run(cfg: &ExpConfig) -> Table {
    let mut w = Recorded::generate(ModelKind::GraphSage, DatasetKind::Products, cfg);
    let (ctx, trace) = w.cell(SystemKind::GnnLab, NS + NT);
    let ctx = ctx.with_obs(cfg.obs());

    cfg.begin_run("fault_recovery healthy");
    let healthy = run_with_failure(&ctx, trace, cfg.seed, None).expect("healthy baseline runs");

    let mut table = Table::new(
        format!(
            "Fault recovery: GraphSAGE on PR, {NS}S{NT}T, one device killed mid-epoch \
             (healthy epoch {})",
            secs(healthy.epoch_time)
        ),
        &[
            "Killed",
            "Fail at",
            "Epoch (s)",
            "Slowdown",
            "Replayed",
            "Lost devices",
        ],
    );

    for (label, device) in [("Trainer", NS), ("Sampler", 0)] {
        // A 1-Sampler run cannot survive losing its only Sampler unless
        // sampling already finished; late failures are the survivable ones.
        let fractions: &[f64] = if device < NS {
            &[0.75]
        } else {
            &[0.25, 0.50, 0.75]
        };
        for &frac in fractions {
            let at_ns = (healthy.epoch_time * frac * 1e9) as u64;
            cfg.begin_run(&format!("fault_recovery {label} @{:.0}%", frac * 100.0));
            match run_with_failure(&ctx, trace, cfg.seed, Some((at_ns, device))) {
                Ok(r) => table.row(vec![
                    label.to_string(),
                    format!("{:.0}%", frac * 100.0),
                    secs(r.epoch_time),
                    format!("{:.2}x", r.epoch_time / healthy.epoch_time),
                    r.replayed_batches.to_string(),
                    r.failed_devices.to_string(),
                ]),
                Err(e) => table.row(vec![
                    label.to_string(),
                    format!("{:.0}%", frac * 100.0),
                    error_cell(&e).to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    e.to_string(),
                ]),
            };
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    #[test]
    fn trainer_failures_recover_with_bounded_slowdown() {
        let cfg = ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        };
        let t = run(&cfg);
        let trainer_rows: Vec<_> = t.rows.iter().filter(|r| r[0] == "Trainer").collect();
        assert_eq!(trainer_rows.len(), 3);
        for row in trainer_rows {
            // Every Trainer-kill run completes and replays at least the
            // batch that died in flight.
            let slowdown: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(slowdown >= 1.0, "{row:?}");
            // 1 of 3 Trainers lost: the epoch cannot degrade worse than
            // the work-conservation bound with generous slack.
            assert!(slowdown < 2.5, "{row:?}");
            assert_eq!(row[5], "1");
        }
    }
}
