//! Fig. 16: convergence of GraphSAGE — end-to-end time and gradient
//! updates to a fixed accuracy, DGL vs T_SOTA vs GNNLab.
//!
//! Real training (see `gnnlab_core::train_real`) on a planted-community
//! graph supplies epochs-to-accuracy and update counts; the epoch *time*
//! of each system comes from the same simulators as Table 4. DGL and
//! T_SOTA train on all 8 GPUs; GNNLab gives 2 to Samplers, so it does more
//! gradient updates per epoch and needs fewer epochs — the paper's Fig. 16b
//! effect — while also having the fastest epochs.

use crate::exp::generate;
use crate::table::{error_cell, secs};
use crate::{ExpConfig, Table};
use gnnlab_core::train_real::{train_to_accuracy, ConvergenceConfig};
use gnnlab_core::SystemKind;
use gnnlab_graph::gen::{sbm, SbmParams};
use gnnlab_graph::DatasetKind;
use gnnlab_tensor::ModelKind;

/// Regenerates Fig. 16, then §7.5's convergence-scalability claim: with
/// more GPUs the epoch time drops, epochs-to-target (weakly) grow because
/// each epoch performs fewer gradient updates, and total convergence time
/// still falls — "slightly slower than the epoch time".
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let graph = sbm(&SbmParams {
        num_vertices: 1500,
        num_classes: 6,
        avg_degree: 12.0,
        intra_prob: 0.88,
        feat_dim: 12,
        noise: 1.0,
        seed: cfg.seed,
    })
    .expect("valid SBM parameters");

    // Epoch times from the performance simulators (GSG on PA; 8 GPUs
    // here, 2, 4 and 8 in the scalability table).
    let w = generate(ModelKind::GraphSage, DatasetKind::Papers, cfg);
    let gnnlab_rep = w.run_system(SystemKind::GnnLab, 8).expect("PA fits");

    let systems = [
        (SystemKind::DglLike, 8usize),
        (SystemKind::TSota, 8),
        (SystemKind::GnnLab, gnnlab_rep.num_trainers),
    ];
    let target = 0.80;
    let mut table = Table::new(
        "Fig. 16: GraphSAGE convergence to 80% accuracy",
        &[
            "System",
            "Trainers",
            "Epochs",
            "Grad updates",
            "Final acc",
            "Epoch (s)",
            "Total (s)",
        ],
    );
    for (system, trainers) in systems {
        let res = train_to_accuracy(
            &graph,
            ModelKind::GraphSage,
            &ConvergenceConfig {
                target_accuracy: target,
                max_epochs: 80,
                num_trainers: trainers,
                batch_size: 24,
                hidden_dim: 24,
                lr: 0.01,
                seed: cfg.seed,
            },
        );
        let et = if system == SystemKind::GnnLab {
            gnnlab_rep.epoch_time
        } else {
            w.run_system(system, 8).map_or(f64::NAN, |r| r.epoch_time)
        };
        table.row(vec![
            system.label().to_string(),
            trainers.to_string(),
            res.epochs.to_string(),
            res.gradient_updates.to_string(),
            format!("{:.1}%", res.final_accuracy * 100.0),
            secs(et),
            secs(et * res.epochs as f64),
        ]);
    }

    // A noisier task than Fig. 16's, so convergence needs several epochs
    // and the updates-per-epoch effect is visible.
    let graph = sbm(&SbmParams {
        num_vertices: 1500,
        num_classes: 6,
        avg_degree: 10.0,
        intra_prob: 0.82,
        feat_dim: 12,
        noise: 1.6,
        seed: cfg.seed,
    })
    .expect("valid SBM parameters");
    let mut scalability = Table::new(
        "Convergence scalability (GraphSAGE, accuracy target 80%)",
        &["#GPUs", "Trainers", "Epoch (s)", "Epochs", "Total (s)"],
    );
    for gpus in [2usize, 4, 8] {
        let rep = match w.run_system(SystemKind::GnnLab, gpus) {
            Ok(rep) => rep,
            Err(e) => {
                let dash = || "-".to_string();
                let failed = error_cell(&e).to_string();
                scalability.row(vec![gpus.to_string(), failed, dash(), dash(), dash()]);
                continue;
            }
        };
        let res = train_to_accuracy(
            &graph,
            ModelKind::GraphSage,
            &ConvergenceConfig {
                target_accuracy: 0.80,
                max_epochs: 120,
                num_trainers: rep.num_trainers,
                batch_size: 24,
                hidden_dim: 24,
                // Square-root learning-rate scaling with the effective
                // batch (standard large-batch practice).
                lr: 0.005 * (rep.num_trainers as f32).sqrt(),
                seed: cfg.seed,
            },
        );
        scalability.row(vec![
            gpus.to_string(),
            rep.num_trainers.to_string(),
            secs(rep.epoch_time),
            res.epochs.to_string(),
            secs(rep.epoch_time * res.epochs as f64),
        ]);
    }
    vec![table, scalability]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    #[test]
    fn convergence_scales_sublinearly_with_gpus() {
        // §7.5: epoch-time speedup (2 -> 8 GPUs) exceeds total-time
        // speedup, but total time still falls.
        let t = &run(&ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        })[1];
        let epoch = |r: usize| -> f64 { t.rows[r][2].parse().unwrap() };
        let total = |r: usize| -> f64 { t.rows[r][4].parse().unwrap() };
        let last = t.rows.len() - 1;
        let epoch_speedup = epoch(0) / epoch(last);
        let total_speedup = total(0) / total(last);
        assert!(
            total_speedup > 1.0,
            "total time must still drop: {total_speedup}"
        );
        assert!(
            epoch_speedup >= total_speedup * 0.99,
            "epoch {epoch_speedup:.2}x vs total {total_speedup:.2}x"
        );
    }

    #[test]
    fn all_systems_converge_and_gnnlab_is_fastest() {
        let t = &run(&ExpConfig {
            scale: Scale::new(8192),
            seed: 1,
            obs: None,
        })[0];
        assert_eq!(t.rows.len(), 3);
        let acc = |r: usize| -> f64 { t.rows[r][4].trim_end_matches('%').parse().unwrap() };
        let total = |r: usize| -> f64 { t.rows[r][6].parse().unwrap() };
        let epochs = |r: usize| -> usize { t.rows[r][2].parse().unwrap() };
        // All three converge to the target (same-accuracy claim).
        for r in 0..3 {
            assert!(acc(r) >= 80.0, "row {r} did not converge: {:?}", t.rows[r]);
        }
        // GNNLab (row 2) reaches the target fastest end-to-end.
        assert!(total(2) < total(0), "vs DGL");
        assert!(total(2) < total(1), "vs T_SOTA");
        // Fewer trainers => at most as many epochs as the 8-trainer runs.
        assert!(epochs(2) <= epochs(0));
    }
}
