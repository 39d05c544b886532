//! `switch_cache`: memory-planned per-executor caches under dynamic
//! switching (§3 capacity accounting + §5.3 profit metric).
//!
//! Runs the threaded runtime on a planted-community graph with a
//! straggler Trainer (20× its natural batch time), so finished Samplers
//! face a backlog and flip into standby Trainers. Each consumer builds
//! its own cache from its device's memory ledger: dedicated Trainers
//! spend (budget − train workspace) on cache rows, a switched standby
//! additionally keeps topology and the sampling workspace — so its cache
//! is smaller and its *measured* hit rate lands below a Trainer's. The
//! table sweeps the target cache ratio α and reports per-role planned
//! ratios, measured hit rates, the measured cache-refresh cost that seeds
//! the `T_t'` estimate, and the profit trajectory the switch decisions
//! saw.

use crate::{ExpConfig, Table};
use gnnlab_core::threaded::{run_threaded_obs, ThreadedConfig};
use gnnlab_core::{ExecutorRole, FaultPlan};
use gnnlab_graph::gen::{sbm, SbmParams};
use gnnlab_obs::{names, Executor, Obs};
use gnnlab_tensor::ModelKind;
use std::sync::Arc;

/// Aggregated hit rate over one role's cache reports (only executors that
/// actually extracted count).
fn role_hit_rate(
    caches: &[gnnlab_core::threaded::ExecutorCacheReport],
    role: Executor,
) -> Option<f64> {
    let (lookups, hits) = caches
        .iter()
        .filter(|c| c.role == role)
        .fold((0u64, 0u64), |(l, h), c| {
            (l + c.stats.lookups, h + c.stats.hits)
        });
    (lookups > 0).then(|| hits as f64 / lookups as f64)
}

/// Regenerates the switch-cache table: α sweep of per-role cache plans,
/// measured hit rates and refresh cost under skewed PreSC hotness.
pub fn run(cfg: &ExpConfig) -> Table {
    let graph = sbm(&SbmParams {
        num_vertices: 1200,
        num_classes: 5,
        avg_degree: 10.0,
        intra_prob: 0.88,
        feat_dim: 32,
        noise: 0.8,
        seed: cfg.seed,
    })
    .expect("valid SBM parameters");

    let mut table = Table::new(
        "Dynamic switching with memory-planned per-executor caches \
         (GraphSAGE, 2S+1T, slow Trainers force standby switches)"
            .to_string(),
        &[
            "α target",
            "Trainer α",
            "Standby α'",
            "Trainer hit%",
            "Standby hit%",
            "Refresh (ms)",
            "Profit max (s)",
            "Switches",
            "Futile",
        ],
    );

    for &alpha in &[0.1, 0.3, 0.6] {
        cfg.begin_run(&format!("switch_cache α={alpha}"));
        // A private hub per α so counters and the profit series do not
        // accumulate across sweep points.
        let obs = Arc::new(Obs::wall());
        let tcfg = ThreadedConfig {
            num_samplers: 2,
            num_trainers: 1,
            epochs: 3,
            batch_size: 32,
            cache_alpha: alpha,
            queue_capacity: 256,
            faults: FaultPlan::none().with_straggler(ExecutorRole::Trainer, 0, 20.0),
            seed: cfg.seed,
            ..Default::default()
        };
        let res = run_threaded_obs(&graph, ModelKind::GraphSage, &tcfg, &obs)
            .expect("threaded run completes");

        let trainer_alpha = obs
            .metrics
            .gauge(names::CACHE_TRAINER_ALPHA)
            .map_or(0.0, |g| g.last);
        let standby_alpha = obs
            .metrics
            .gauge(names::CACHE_STANDBY_ALPHA)
            .map_or(0.0, |g| g.last);
        let refresh_ms = obs
            .metrics
            .histogram(names::CACHE_REFRESH_NS)
            .map_or(0.0, |h| h.sum / h.count.max(1) as f64 / 1e6);
        let profit_max = obs
            .metrics
            .series_max(names::SCHEDULER_SWITCH_PROFIT)
            .unwrap_or(0.0);
        let futile = obs.metrics.counter(names::SCHEDULER_SWITCH_FUTILE) as usize;
        let pct = |r: Option<f64>| r.map_or("-".to_string(), |v| format!("{:.1}", v * 100.0));
        table.row(vec![
            format!("{alpha:.1}"),
            format!("{trainer_alpha:.3}"),
            format!("{standby_alpha:.3}"),
            pct(role_hit_rate(&res.caches, Executor::Trainer)),
            pct(role_hit_rate(&res.caches, Executor::Standby)),
            format!("{refresh_ms:.3}"),
            format!("{profit_max:.4}"),
            res.switches.to_string(),
            futile.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    #[test]
    fn switch_cache_sweeps_and_standby_trails_the_trainer() {
        let cfg = ExpConfig {
            scale: Scale::new(4096),
            seed: 7,
            obs: None,
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
        // At least one sweep point produced a standby switch, and every
        // row carries a planned standby ratio no larger than the
        // Trainer's.
        let switches: usize = t.rows.iter().map(|r| r[7].parse::<usize>().unwrap()).sum();
        assert!(
            switches >= 1,
            "no switches across the sweep:\n{}",
            t.render()
        );
        for row in &t.rows {
            let trainer: f64 = row[1].parse().unwrap();
            let standby: f64 = row[2].parse().unwrap();
            assert!(standby <= trainer, "standby α' above trainer α: {row:?}");
        }
    }
}
