//! `kill_resume`: durable checkpoint/resume under simulated process
//! kills (the chaos harness as an experiment).
//!
//! Runs a deterministic 1S+1T configuration (dynamic switching off, so
//! the schedule is a pure FIFO replay) three ways per scenario: an
//! uninterrupted baseline *without* checkpointing, a chaos run that is
//! killed — either between batches or midway through a checkpoint write,
//! leaving a torn temp file — and a resume run over the surviving
//! checkpoint directory. The table reports where the kill landed, which
//! generation the resume loaded, how many torn artifacts it skipped, how
//! many generations the resumed run wrote, and whether its per-batch
//! history and final parameters are **bit-identical** to the baseline's —
//! the paper-level claim that checkpointing is transparent to training.
//! With one consumer, the one that trains batch `5k` writes generation
//! `k − 1` on the spot, so every column is a function of the seed.

use crate::{ExpConfig, Table};
use gnnlab_core::checkpoint::ChaosPlan;
use gnnlab_core::threaded::{run_threaded_obs, ThreadedConfig, ThreadedResult};
use gnnlab_core::CheckpointPolicy;
use gnnlab_graph::gen::{sbm, SbmGraph, SbmParams};
use gnnlab_obs::{names, Obs};
use gnnlab_tensor::ModelKind;
use std::path::PathBuf;
use std::sync::Arc;

/// Checkpoint cadence (batches) for the chaos runs.
const EVERY: usize = 5;

fn graph_for(seed: u64) -> SbmGraph {
    sbm(&SbmParams {
        num_vertices: 600,
        num_classes: 4,
        avg_degree: 8.0,
        intra_prob: 0.9,
        feat_dim: 16,
        noise: 0.6,
        seed,
    })
    .expect("valid SBM parameters")
}

fn threaded_cfg(seed: u64, checkpoint: CheckpointPolicy) -> ThreadedConfig {
    ThreadedConfig {
        num_samplers: 1,
        num_trainers: 1,
        epochs: 3,
        batch_size: 25,
        dynamic_switching: false,
        queue_capacity: 8,
        seed,
        checkpoint,
        ..Default::default()
    }
}

/// A scratch checkpoint directory unique to this process + scenario.
fn scratch_dir(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gnnlab-kill-resume-{}-{tag}-{seed}",
        std::process::id()
    ))
}

/// Bit-level equality of the two runs' training outcomes: every history
/// record (id, loss bits, accuracy bits) and every final parameter bit.
fn bit_identical(a: &ThreadedResult, b: &ThreadedResult) -> bool {
    a.history.len() == b.history.len()
        && a.history.iter().zip(&b.history).all(|(x, y)| {
            x.id == y.id
                && x.loss.to_bits() == y.loss.to_bits()
                && x.acc.to_bits() == y.acc.to_bits()
        })
        && a.final_params.len() == b.final_params.len()
        && a.final_params
            .iter()
            .zip(&b.final_params)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs one kill → resume scenario and returns a table row.
fn scenario(
    cfg: &ExpConfig,
    graph: &SbmGraph,
    label: &str,
    seed: u64,
    chaos: ChaosPlan,
    kill_desc: &str,
) -> Vec<String> {
    let dir = scratch_dir(label, seed);
    let _ = std::fs::remove_dir_all(&dir);

    cfg.begin_run(&format!("kill_resume {label} baseline seed={seed}"));
    let baseline_obs = Arc::new(Obs::wall());
    let baseline = run_threaded_obs(
        graph,
        ModelKind::GraphSage,
        &threaded_cfg(seed, CheckpointPolicy::default()),
        &baseline_obs,
    )
    .expect("uninterrupted baseline completes");

    // The chaos run: checkpoints land every `EVERY` batches until the
    // injected kill aborts the process image. Only `dir` survives.
    cfg.begin_run(&format!("kill_resume {label} chaos seed={seed}"));
    let mut policy = CheckpointPolicy::at(&dir);
    policy.every_batches = Some(EVERY);
    policy.chaos = chaos;
    let chaos_obs = Arc::new(Obs::wall());
    let killed = run_threaded_obs(
        graph,
        ModelKind::GraphSage,
        &threaded_cfg(seed, policy),
        &chaos_obs,
    );
    let killed_kind = match &killed {
        Err(e) => format!("{:?}", e.kind),
        Ok(_) => "survived".to_string(),
    };

    cfg.begin_run(&format!("kill_resume {label} resume seed={seed}"));
    let mut resume_policy = CheckpointPolicy::at(&dir);
    resume_policy.every_batches = Some(EVERY);
    resume_policy.resume = true;
    let resume_obs = Arc::new(Obs::wall());
    let resumed = run_threaded_obs(
        graph,
        ModelKind::GraphSage,
        &threaded_cfg(seed, resume_policy),
        &resume_obs,
    )
    .expect("resume run completes");
    let torn = resume_obs.metrics.counter(names::CKPT_TORN_DETECTED) as u64;

    let row = vec![
        label.to_string(),
        seed.to_string(),
        kill_desc.to_string(),
        killed_kind,
        resumed
            .resumed_from
            .map_or("-".to_string(), |g| g.to_string()),
        torn.to_string(),
        resumed.checkpoints_written.to_string(),
        if bit_identical(&baseline, &resumed) {
            "yes".to_string()
        } else {
            "NO".to_string()
        },
    ];
    let _ = std::fs::remove_dir_all(&dir);
    row
}

/// Regenerates the kill–resume table: baseline vs killed-and-resumed
/// training, holding history and parameters to bit-identity.
pub fn run(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "Kill–resume chaos: durable checkpoints, torn-write fallback and \
         bit-identical resumed training (GraphSAGE, 1S+1T, switching off)"
            .to_string(),
        &[
            "Scenario",
            "Seed",
            "Kill",
            "Killed run",
            "Resume gen",
            "Torn",
            "Ckpts after",
            "Bit-identical",
        ],
    );

    for offset in [0u64, 1] {
        let seed = cfg.seed + offset;
        let graph = graph_for(seed);
        table.row(scenario(
            cfg,
            &graph,
            "mid-epoch",
            seed,
            ChaosPlan {
                kill_after_batches: Some(17),
                ..ChaosPlan::default()
            },
            "after 17 batches",
        ));
    }
    {
        let seed = cfg.seed;
        let graph = graph_for(seed);
        table.row(scenario(
            cfg,
            &graph,
            "mid-write",
            seed,
            ChaosPlan {
                kill_mid_write: Some(1),
                ..ChaosPlan::default()
            },
            "during gen-1 write",
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::Scale;

    #[test]
    fn every_scenario_resumes_bit_identically() {
        let cfg = ExpConfig {
            scale: Scale::new(4096),
            seed: 3,
            obs: None,
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert_eq!(row[7], "yes", "not bit-identical: {row:?}\n{}", t.render());
            assert_ne!(row[4], "-", "resume found no checkpoint: {row:?}");
        }
        // The mid-write kill leaves a torn artifact the resume skips, and
        // its killed run reports the `Killed` class.
        let mid_write = t.rows.iter().find(|r| r[0] == "mid-write").unwrap();
        assert_eq!(mid_write[3], "Killed");
        assert!(mid_write[5].parse::<u64>().unwrap() >= 1, "{mid_write:?}");
        assert_eq!(mid_write[4], "0", "fell back to the last good gen");
        assert_eq!(mid_write[6], "6", "batches 10, 15, …, 35 write");
        // Generations 0, 1 and 2 land at batches 5, 10 and 15, before
        // the kill after 17; the resumed run writes at 20, 25, 30, 35.
        for row in t.rows.iter().filter(|r| r[0] == "mid-epoch") {
            assert_eq!(row[3], "Killed");
            assert_eq!((row[4].as_str(), row[6].as_str()), ("2", "4"), "{row:?}");
        }
    }
}
