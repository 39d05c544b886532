//! Kill–resume chaos harness: the durable-checkpoint acceptance tests.
//!
//! Every scenario runs the real threaded runtime on a deterministic
//! 1S+1T configuration (dynamic switching off, so the batch schedule is
//! a pure FIFO replay) and holds resumed training to **bit-identity**
//! against an uninterrupted baseline that never checkpointed at all:
//! same per-batch loss/accuracy bits, same final parameter bits. The
//! kills cover both between-batch aborts and a kill midway through a
//! checkpoint write (leaving a torn `.tmp` the resume must skip), plus a
//! deliberate one-byte corruption of the newest generation.
//!
//! The CI `chaos-matrix` job sweeps `GNNLAB_CHAOS_SEED` ×
//! `GNNLAB_CHAOS_MODE` (`mid-epoch` / `mid-write`) through
//! [`ci_matrix_scenario`]; its checkpoint directories live under
//! `target/chaos/` and are kept on failure so the job can upload them
//! as an artifact.

use gnnlab::core::checkpoint::ChaosPlan;
use gnnlab::core::threaded::{run_threaded_obs, ThreadedConfig, ThreadedErrorKind, ThreadedResult};
use gnnlab::core::CheckpointPolicy;
use gnnlab::graph::gen::{sbm, SbmGraph, SbmParams};
use gnnlab::obs::{names, AlertRules, MetricsServer, Obs, Telemetry, TelemetryConfig};
use gnnlab::tensor::ModelKind;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Batches per epoch with `num_vertices: 600` and `batch_size: 25` (the
/// train split is half the vertices).
const BPE: usize = 12;
/// Checkpoint cadence (batches) used by every scenario.
const EVERY: usize = 5;
/// Epochs per run: 36 total batches.
const EPOCHS: usize = 3;

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

fn cfg_with(seed: u64, checkpoint: CheckpointPolicy) -> ThreadedConfig {
    ThreadedConfig {
        num_samplers: 1,
        num_trainers: 1,
        epochs: EPOCHS,
        batch_size: 25,
        dynamic_switching: false,
        queue_capacity: 8,
        seed,
        checkpoint,
        ..Default::default()
    }
}

/// A checkpoint directory under `target/chaos/` — kept on test failure
/// (panics skip the cleanup) so CI can upload the directory.
fn chaos_dir(name: &str) -> PathBuf {
    let dir = Path::new("target")
        .join("chaos")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(graph: &SbmGraph, cfg: &ThreadedConfig, obs: &Arc<Obs>) -> ThreadedResult {
    run_threaded_obs(graph, ModelKind::GraphSage, cfg, obs).expect("run completes")
}

fn baseline(graph: &SbmGraph, seed: u64) -> ThreadedResult {
    let obs = Arc::new(Obs::wall());
    run(graph, &cfg_with(seed, CheckpointPolicy::default()), &obs)
}

fn policy_at(dir: &Path) -> CheckpointPolicy {
    let mut p = CheckpointPolicy::at(dir);
    p.every_batches = Some(EVERY);
    p
}

/// Asserts the resumed run reproduced the baseline bit for bit: every
/// history record and every final parameter.
fn assert_bit_identical(base: &ThreadedResult, resumed: &ThreadedResult, what: &str) {
    assert_eq!(
        base.history.len(),
        resumed.history.len(),
        "{what}: history length diverged"
    );
    for (b, r) in base.history.iter().zip(&resumed.history) {
        assert_eq!(b.id, r.id, "{what}: history ids diverged");
        assert_eq!(
            b.loss.to_bits(),
            r.loss.to_bits(),
            "{what}: loss bits diverged at batch {}",
            b.id
        );
        assert_eq!(
            b.acc.to_bits(),
            r.acc.to_bits(),
            "{what}: accuracy bits diverged at batch {}",
            b.id
        );
    }
    assert_eq!(
        base.final_params.len(),
        resumed.final_params.len(),
        "{what}: parameter count diverged"
    );
    for (i, (b, r)) in base
        .final_params
        .iter()
        .zip(&resumed.final_params)
        .enumerate()
    {
        assert_eq!(
            b.to_bits(),
            r.to_bits(),
            "{what}: final parameter {i} bits diverged"
        );
    }
}

/// Kills the run with `chaos`, resumes over the surviving directory, and
/// returns (killed error kind, resume obs, resumed result).
fn kill_then_resume(
    graph: &SbmGraph,
    seed: u64,
    dir: &Path,
    chaos: ChaosPlan,
) -> (ThreadedErrorKind, Arc<Obs>, ThreadedResult) {
    let mut policy = policy_at(dir);
    policy.chaos = chaos;
    let killed = run_threaded_obs(
        graph,
        ModelKind::GraphSage,
        &cfg_with(seed, policy),
        &Arc::new(Obs::wall()),
    )
    .expect_err("chaos kill must abort the run");

    let mut resume_policy = policy_at(dir);
    resume_policy.resume = true;
    let resume_obs = Arc::new(Obs::wall());
    let resumed = run(graph, &cfg_with(seed, resume_policy), &resume_obs);
    (killed.kind, resume_obs, resumed)
}

/// Mid-epoch kills at two seeds: the checkpointed-and-killed run resumes
/// to the exact bits of a run that was never interrupted (and never even
/// checkpointed).
#[test]
fn kill_resume_is_bit_identical_across_seeds() {
    for seed in [3u64, 11] {
        let graph = graph_for(seed);
        let base = baseline(&graph, seed);
        assert_eq!(base.history.len(), BPE * EPOCHS);

        let dir = chaos_dir(&format!("mid-epoch-{seed}"));
        let (kind, _, resumed) = kill_then_resume(
            &graph,
            seed,
            &dir,
            ChaosPlan {
                kill_after_batches: Some(17),
                ..ChaosPlan::default()
            },
        );
        assert_eq!(kind, ThreadedErrorKind::Killed);
        assert_eq!(kind.exit_code(), 14);
        // The consumer that trains batches 5, 10 and 15 writes
        // generations 0, 1 and 2 on the spot; the kill after 17 leaves
        // generation 2 the newest.
        assert_eq!(resumed.resumed_from, Some(2), "seed {seed}");
        assert_bit_identical(&base, &resumed, &format!("seed {seed}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A kill DURING a checkpoint write leaves a torn `.tmp`; the resume
/// skips it, counts it, falls back to the last durable generation, and
/// still reproduces the baseline bits.
#[test]
fn kill_during_checkpoint_write_falls_back_bit_identically() {
    let seed = 5u64;
    let graph = graph_for(seed);
    let base = baseline(&graph, seed);

    let dir = chaos_dir("mid-write");
    let (kind, resume_obs, resumed) = kill_then_resume(
        &graph,
        seed,
        &dir,
        ChaosPlan {
            kill_mid_write: Some(1),
            ..ChaosPlan::default()
        },
    );
    assert_eq!(kind, ThreadedErrorKind::Killed);
    // Generation 1 tore mid-write: the resume lands on generation 0.
    assert_eq!(resumed.resumed_from, Some(0));
    assert!(
        resume_obs.metrics.counter(names::CKPT_TORN_DETECTED) >= 1.0,
        "torn artifact was not counted"
    );
    assert_bit_identical(&base, &resumed, "mid-write kill");
    std::fs::remove_dir_all(&dir).ok();
}

/// Flipping one byte of the newest generation must reject that file
/// (CRC), fall back to the previous generation, and resume to the exact
/// baseline bits.
#[test]
fn one_byte_flip_is_rejected_with_fallback() {
    let seed = 9u64;
    let graph = graph_for(seed);
    // A tight queue + frequent cadence so several generations land
    // before the late kill; meta checks require the killed and resumed
    // runs to share a config, so the baseline uses it too.
    let cfg_for = |checkpoint: CheckpointPolicy| {
        let mut c = cfg_with(seed, checkpoint);
        c.queue_capacity = 2;
        c
    };
    let base = run(
        &graph,
        &cfg_for(CheckpointPolicy::default()),
        &Arc::new(Obs::wall()),
    );

    let dir = chaos_dir("byte-flip");
    let mut policy = policy_at(&dir);
    policy.every_batches = Some(4);
    policy.chaos.kill_after_batches = Some(30);
    run_threaded_obs(
        &graph,
        ModelKind::GraphSage,
        &cfg_for(policy),
        &Arc::new(Obs::wall()),
    )
    .expect_err("chaos kill must abort the run");

    // Corrupt one byte in the middle of the newest surviving generation.
    let mut gens: Vec<u64> = std::fs::read_dir(&dir)
        .expect("checkpoint dir exists")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_prefix("ckpt-")?
                .strip_suffix(".bin")?
                .parse()
                .ok()
        })
        .collect();
    gens.sort_unstable();
    assert!(
        gens.len() >= 2,
        "need >=2 generations to fall back: {gens:?}"
    );
    let newest_gen = *gens.last().unwrap();
    let newest = dir.join(format!("ckpt-{newest_gen:08}.bin"));
    let mut bytes = std::fs::read(&newest).expect("newest generation exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).expect("rewrite corrupted file");

    let mut resume_policy = policy_at(&dir);
    resume_policy.every_batches = Some(4);
    resume_policy.resume = true;
    let resume_obs = Arc::new(Obs::wall());
    let resumed = run(&graph, &cfg_for(resume_policy), &resume_obs);
    assert_eq!(
        resumed.resumed_from,
        Some(newest_gen - 1),
        "corrupted generation was not skipped"
    );
    assert!(resume_obs.metrics.counter(names::CKPT_TORN_DETECTED) >= 1.0);
    assert_bit_identical(&base, &resumed, "one-byte flip");
    std::fs::remove_dir_all(&dir).ok();
}

/// One `GET path` against the metrics server; returns the response body.
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read response");
    body
}

/// The `ckpt.*` family lands in the Prometheus exposition: write latency,
/// bytes, generation after a checkpointing run; resume latency and the
/// torn counter after a kill–resume.
#[test]
fn ckpt_metrics_appear_in_prometheus_scrape() {
    let seed = 21u64;
    let graph = graph_for(seed);
    let dir = chaos_dir("scrape");
    let (_, resume_obs, resumed) = kill_then_resume(
        &graph,
        seed,
        &dir,
        ChaosPlan {
            kill_mid_write: Some(1),
            ..ChaosPlan::default()
        },
    );
    assert!(resumed.checkpoints_written >= 1);

    let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&resume_obs)).expect("bind");
    let body = scrape(server.local_addr(), "/metrics");
    for family in [
        "ckpt_write_ns",
        "ckpt_last_write_ns",
        "ckpt_bytes_total",
        "ckpt_resume_ns",
        "ckpt_torn_detected_total",
        "ckpt_generation",
    ] {
        assert!(
            body.contains(family),
            "{family} missing from scrape:\n{body}"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// An injected slow disk pushes checkpoint writes past the stall
/// threshold: the `checkpoint_stall` alert fires through a live
/// telemetry thread watching the run.
#[test]
fn checkpoint_stall_alert_fires_under_slow_disk() {
    let seed = 31u64;
    let graph = graph_for(seed);
    let dir = chaos_dir("slow-disk");
    let mut policy = policy_at(&dir);
    policy.chaos.slow_disk = Some(Duration::from_millis(30));
    let obs = Arc::new(Obs::wall());
    let cfg = cfg_with(seed, policy);
    let telemetry = Telemetry::start(
        Arc::clone(&obs),
        TelemetryConfig {
            interval: Duration::from_millis(2),
            rules: AlertRules {
                ckpt_stall_secs: 0.005,
                ..AlertRules::default()
            },
        },
    );
    let res = run(&graph, &cfg, &obs);
    telemetry.stop();
    assert!(res.checkpoints_written >= 1);
    let fired = obs.metrics.counter(&format!(
        "{}{}",
        names::ALERTS_PREFIX,
        names::RULE_CHECKPOINT_STALL
    ));
    assert!(
        fired >= 1.0,
        "checkpoint_stall never fired despite a {:?} slow disk",
        Duration::from_millis(30)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpointing on a multi-executor run (2S+2T, switching enabled) must
/// not break exactly-once training: a snapshot reads the parameter server
/// while peers keep training, and the history ends up with one record per
/// batch.
#[test]
fn multi_executor_exactly_once_with_checkpointing() {
    let seed = 17u64;
    let graph = graph_for(seed);
    let dir = chaos_dir("multi");
    let obs = Arc::new(Obs::wall());
    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 2,
        epochs: EPOCHS,
        batch_size: 25,
        queue_capacity: 8,
        seed,
        checkpoint: policy_at(&dir),
        ..Default::default()
    };
    let res = run(&graph, &cfg, &obs);
    let total = BPE * EPOCHS;
    assert_eq!(res.batches_trained, total);
    assert_eq!(res.samples_produced, total);
    assert!(res.checkpoints_written >= 1);
    assert_eq!(res.history.len(), total, "history is not exactly-once");
    for (i, rec) in res.history.iter().enumerate() {
        assert_eq!(rec.id, i as u64, "batch {i} trained zero or twice");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The CI chaos-matrix entry point: one kill→resume scenario selected by
/// `GNNLAB_CHAOS_SEED` (default 3) and `GNNLAB_CHAOS_MODE`
/// (`mid-epoch`, the default, or `mid-write`). Kept cheap so the matrix
/// can sweep seeds × modes; the checkpoint directory survives a failure
/// for artifact upload.
#[test]
fn ci_matrix_scenario() {
    let seed: u64 = std::env::var("GNNLAB_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let mode = std::env::var("GNNLAB_CHAOS_MODE").unwrap_or_else(|_| "mid-epoch".to_string());
    let chaos = match mode.as_str() {
        "mid-write" => ChaosPlan {
            kill_mid_write: Some(1),
            ..ChaosPlan::default()
        },
        _ => ChaosPlan {
            kill_after_batches: Some(17),
            ..ChaosPlan::default()
        },
    };
    let graph = graph_for(seed);
    let base = baseline(&graph, seed);
    let dir = chaos_dir(&format!("ci-{mode}-{seed}"));
    let (kind, _, resumed) = kill_then_resume(&graph, seed, &dir, chaos);
    assert_eq!(kind, ThreadedErrorKind::Killed);
    assert!(resumed.resumed_from.is_some(), "resume found no checkpoint");
    assert_bit_identical(&base, &resumed, &format!("ci {mode} seed {seed}"));
    std::fs::remove_dir_all(&dir).ok();
}
