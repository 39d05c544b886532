//! `gnnlab` — the command-line front door to the library.
//!
//! ```text
//! gnnlab generate <PR|TW|PA|UK> <scale> <out.bin>     synthesize a dataset's graph to disk
//! gnnlab inspect  <graph.bin|edges.txt>               print graph statistics
//! gnnlab policies <PR|TW|PA|UK> [scale]               cache-policy hit-rate table
//! gnnlab simulate <PR|TW|PA|UK> <GCN|GSG|PSG> [gpus]  one epoch on every system
//! gnnlab job      <PR|TW|PA|UK> <GCN|GSG|PSG> [epochs] full-job summary incl. preprocessing
//! gnnlab threaded [options]                           real threaded run w/ fault injection
//! ```
//!
//! `gnnlab threaded` options:
//!
//! ```text
//! --samplers N --trainers N --epochs N --batch-size N --capacity N --seed S
//! --threads N                 width of the run's Extract pool (pre-sampling and
//!                             evaluation run samplers + trainers wide)
//! --crash-trainer IDX@BATCH   kill Trainer IDX after BATCH batches
//! --crash-sampler IDX@BATCH   kill Sampler IDX after BATCH batches
//! --straggler ROLE:IDX:FACTOR slow one executor (role `sampler`/`trainer`)
//! --transient P               per-batch transient-fault probability
//! --max-respawns N            supervisor respawn budget (0 = fail fast)
//! --metrics-out PATH          write the final metrics JSON (incl. alerts)
//! --checkpoint-dir PATH       durable checkpoint directory (enables checkpointing)
//! --checkpoint-every N        checkpoint every N trained batches
//!                             (default: every epoch boundary)
//! --resume                    resume from the latest valid generation in
//!                             --checkpoint-dir (torn files are skipped)
//! ```
//!
//! The command runs a telemetry thread around the run: it samples gauges
//! (queue depth, the scheduler's and each executor's EWMAs) into bounded
//! series and evaluates alert rules (straggler, queue saturation, cache
//! collapse, respawn-budget burn, checkpoint stall); fired alerts print
//! after the recovery report and land in `--metrics-out`.
//!
//! `gnnlab threaded` exit codes:
//!
//! ```text
//!  0  success
//!  1  generic failure (graph generation, metrics-out write)
//!  2  usage error
//! 10  executor panic with no respawn budget
//! 11  respawn budget exhausted
//! 12  unrecoverable transient fault
//! 13  checkpoint write/resume failure
//! 14  chaos kill-point terminated the run
//! ```

use gnnlab::cache::PolicyKind;
use gnnlab::core::driver::run_job;
use gnnlab::core::report::RunError;
use gnnlab::core::runtime::{cache_stats_on_trace, run_system, EpochStore, SimContext};
use gnnlab::core::threaded::{run_threaded_obs, ThreadedConfig};
use gnnlab::core::{ExecutorRole, FaultPlan, SystemKind, Workload};
use gnnlab::graph::gen::{sbm, SbmParams};
use gnnlab::graph::{io, Dataset, DatasetKind, Scale};
use gnnlab::obs::{Obs, Telemetry, TelemetryConfig};
use gnnlab::sampling::Kernel;
use gnnlab::tensor::ModelKind;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

fn dataset_kind(s: &str) -> Option<DatasetKind> {
    match s.to_ascii_uppercase().as_str() {
        "PR" => Some(DatasetKind::Products),
        "TW" => Some(DatasetKind::Twitter),
        "PA" => Some(DatasetKind::Papers),
        "UK" => Some(DatasetKind::Uk),
        _ => None,
    }
}

fn model_kind(s: &str) -> Option<ModelKind> {
    match s.to_ascii_uppercase().as_str() {
        "GCN" => Some(ModelKind::Gcn),
        "GSG" | "GRAPHSAGE" => Some(ModelKind::GraphSage),
        "PSG" | "PINSAGE" => Some(ModelKind::PinSage),
        _ => None,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  gnnlab generate <PR|TW|PA|UK> <scale> <out.bin>\n  \
         gnnlab inspect <graph.bin|edges.txt>\n  \
         gnnlab policies <PR|TW|PA|UK> [scale]\n  \
         gnnlab simulate <PR|TW|PA|UK> <GCN|GSG|PSG> [gpus]\n  \
         gnnlab job <PR|TW|PA|UK> <GCN|GSG|PSG> [epochs]\n  \
         gnnlab threaded [--samplers N] [--trainers N] [--epochs N] [--batch-size N]\n           \
         [--capacity N] [--seed S] [--threads N] [--crash-trainer IDX@BATCH]\n           \
         [--crash-sampler IDX@BATCH] [--straggler ROLE:IDX:FACTOR] [--transient P]\n           \
         [--max-respawns N] [--metrics-out PATH] [--checkpoint-dir PATH]\n           \
         [--checkpoint-every N] [--resume]"
    );
    ExitCode::from(2)
}

fn cmd_generate(args: &[String]) -> ExitCode {
    let (Some(kind), Some(scale), Some(out)) = (
        args.first().and_then(|s| dataset_kind(s)),
        args.get(1).and_then(|s| s.parse::<u64>().ok()),
        args.get(2),
    ) else {
        return usage();
    };
    let d = Dataset::generate(kind, Scale::new(scale.max(1)), 42).expect("valid parameters");
    if let Err(e) = io::write_binary(&d.csr, Path::new(out)) {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{}: {} vertices, {} edges at scale 1/{} -> {out}",
        d.spec.name,
        d.csr.num_vertices(),
        d.csr.num_edges(),
        scale
    );
    ExitCode::SUCCESS
}

fn cmd_inspect(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let p = Path::new(path);
    let graph = if path.ends_with(".bin") {
        io::read_binary(p)
    } else {
        io::read_edge_list(p, None)
    };
    match graph {
        Ok(g) => {
            let (mean, p99, max) = g.degree_summary();
            println!("vertices:    {}", g.num_vertices());
            println!("edges:       {}", g.num_edges());
            println!("weighted:    {}", g.is_weighted());
            println!("out-degree:  mean {mean:.1}, p99 {p99}, max {max}");
            println!(
                "topology:    {:.1} MB in memory",
                g.topology_bytes() as f64 / 1e6
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("read failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_policies(args: &[String]) -> ExitCode {
    let Some(kind) = args.first().and_then(|s| dataset_kind(s)) else {
        return usage();
    };
    let scale = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1024);
    let store = EpochStore::new(Workload::new(ModelKind::Gcn, kind, Scale::new(scale), 42));
    let (w, trace) = (store.workload(), store.trace(Kernel::FisherYates, 5));
    println!(
        "{}: 3-hop uniform sampling, hit rates by cache ratio\n",
        w.dataset.spec.name
    );
    print!("{:<8}", "ratio");
    let policies = [
        PolicyKind::Random,
        PolicyKind::Degree,
        PolicyKind::PreSC { k: 1 },
        PolicyKind::Optimal { epochs: 6 },
    ];
    for p in policies {
        print!("{:>10}", p.label());
    }
    println!();
    for alpha in [0.02, 0.05, 0.10, 0.20] {
        print!("{:<8}", format!("{:.0}%", alpha * 100.0));
        for p in policies {
            let stats = cache_stats_on_trace(w, trace, &store.cache(p, alpha));
            print!("{:>10}", format!("{:.0}%", stats.hit_rate() * 100.0));
        }
        println!();
    }
    ExitCode::SUCCESS
}

fn cmd_simulate(args: &[String]) -> ExitCode {
    let (Some(kind), Some(model)) = (
        args.first().and_then(|s| dataset_kind(s)),
        args.get(1).and_then(|s| model_kind(s)),
    ) else {
        return usage();
    };
    let gpus = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let w = Workload::new(model, kind, Scale::new(1024), 42);
    println!(
        "{} on {} GPUs (scale 1/1024; simulated paper-scale seconds)\n",
        w.label(),
        gpus
    );
    for system in SystemKind::ALL {
        let ctx = SimContext::new(&w, system).with_gpus(gpus);
        match run_system(&ctx) {
            Ok(r) => {
                let detail = if system == SystemKind::GnnLab {
                    format!(
                        " ({}S{}T, cache {:.0}%, hit {:.0}%)",
                        r.num_samplers,
                        r.num_trainers,
                        r.cache_ratio * 100.0,
                        r.hit_rate * 100.0
                    )
                } else {
                    String::new()
                };
                println!("{:<8} {:>8.2} s{}", system.label(), r.epoch_time, detail);
            }
            Err(RunError::Oom { detail, .. }) => {
                println!("{:<8}      OOM ({detail})", system.label())
            }
            Err(RunError::Unsupported(m)) => println!("{:<8}        x ({m})", system.label()),
            Err(RunError::ExecutorsLost { detail }) => {
                println!("{:<8}     LOST ({detail})", system.label())
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_job(args: &[String]) -> ExitCode {
    let (Some(kind), Some(model)) = (
        args.first().and_then(|s| dataset_kind(s)),
        args.get(1).and_then(|s| model_kind(s)),
    ) else {
        return usage();
    };
    let epochs = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100);
    let w = Workload::new(model, kind, Scale::new(1024), 42);
    let ctx = SimContext::new(&w, SystemKind::GnnLab);
    match run_job(&ctx, epochs) {
        Ok(s) => {
            println!("{} on GNNLab, {} epochs:", w.label(), epochs);
            println!("  P1 disk->DRAM:    {:>8.2} s", s.preprocess.disk_to_dram);
            println!("  P2 DRAM->GPU:     {:>8.2} s", s.preprocess.dram_to_gpu());
            println!("  P3 pre-sampling:  {:>8.2} s", s.preprocess.presampling);
            println!(
                "  epoch time:       {:>8.2} s x {}",
                s.epoch.epoch_time, s.epochs
            );
            println!("  total job:        {:>8.2} s", s.total_time);
            println!(
                "  preprocessing is {:.1}% of the job",
                s.preprocess_fraction * 100.0
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("job failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `IDX@BATCH` (e.g. `0@3`).
fn parse_crash(s: &str) -> Option<(usize, usize)> {
    let (idx, after) = s.split_once('@')?;
    Some((idx.parse().ok()?, after.parse().ok()?))
}

/// Parses `ROLE:IDX:FACTOR` (e.g. `trainer:1:8`).
fn parse_straggler(s: &str) -> Option<(ExecutorRole, usize, f64)> {
    let mut parts = s.split(':');
    let role = match parts.next()?.to_ascii_lowercase().as_str() {
        "sampler" | "s" => ExecutorRole::Sampler,
        "trainer" | "t" => ExecutorRole::Trainer,
        _ => return None,
    };
    let idx = parts.next()?.parse().ok()?;
    let factor = parts.next()?.parse().ok()?;
    (parts.next().is_none() && factor >= 1.0).then_some((role, idx, factor))
}

fn cmd_threaded(args: &[String]) -> ExitCode {
    let mut cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 2,
        epochs: 3,
        batch_size: 20,
        queue_capacity: 4,
        ..Default::default()
    };
    let mut plan = FaultPlan::none();
    let mut metrics_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        // Boolean flags take no value.
        if flag == "--resume" {
            cfg.checkpoint.resume = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("{flag} requires a value");
            return usage();
        };
        let mut ok = true;
        match flag {
            "--samplers" => ok = value.parse().map(|v| cfg.num_samplers = v).is_ok(),
            "--trainers" => ok = value.parse().map(|v| cfg.num_trainers = v).is_ok(),
            "--epochs" => ok = value.parse().map(|v| cfg.epochs = v).is_ok(),
            "--batch-size" => ok = value.parse().map(|v| cfg.batch_size = v).is_ok(),
            "--capacity" => ok = value.parse().map(|v| cfg.queue_capacity = v).is_ok(),
            "--seed" => ok = value.parse().map(|v| cfg.seed = v).is_ok(),
            "--threads" => ok = value.parse().map(|v: usize| cfg.threads = v.max(1)).is_ok(),
            "--max-respawns" => {
                ok = value
                    .parse()
                    .map(|v| plan = plan.clone().with_max_respawns(v))
                    .is_ok()
            }
            "--crash-trainer" => match parse_crash(value) {
                Some((idx, after)) => {
                    plan = plan.clone().with_crash(ExecutorRole::Trainer, idx, after)
                }
                None => ok = false,
            },
            "--crash-sampler" => match parse_crash(value) {
                Some((idx, after)) => {
                    plan = plan.clone().with_crash(ExecutorRole::Sampler, idx, after)
                }
                None => ok = false,
            },
            "--straggler" => match parse_straggler(value) {
                Some((role, idx, f)) => plan = plan.clone().with_straggler(role, idx, f),
                None => ok = false,
            },
            "--transient" => match value.parse::<f64>() {
                Ok(p) if (0.0..=1.0).contains(&p) => {
                    plan = plan.clone().with_transients(p, 2);
                }
                _ => ok = false,
            },
            "--metrics-out" => metrics_out = Some(value.clone()),
            "--checkpoint-dir" => {
                cfg.checkpoint.dir = Some(std::path::PathBuf::from(value));
            }
            "--checkpoint-every" => {
                ok = value
                    .parse()
                    .map(|v: usize| cfg.checkpoint.every_batches = Some(v.max(1)))
                    .is_ok()
            }
            _ => {
                eprintln!("unknown flag {flag}");
                return usage();
            }
        }
        if !ok {
            eprintln!("bad value for {flag}: {value}");
            return usage();
        }
        i += 2;
    }
    cfg.faults = plan.with_seed(cfg.seed);
    if (cfg.checkpoint.resume || cfg.checkpoint.every_batches.is_some())
        && cfg.checkpoint.dir.is_none()
    {
        eprintln!("checkpoint flags require --checkpoint-dir");
        return usage();
    }

    let g = match sbm(&SbmParams {
        num_vertices: 600,
        num_classes: 4,
        avg_degree: 10.0,
        intra_prob: 0.9,
        feat_dim: 8,
        noise: 0.5,
        seed: cfg.seed,
    }) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("graph generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "threaded run: {}S + {}T, {} epochs, batch {}, queue capacity {}",
        cfg.num_samplers, cfg.num_trainers, cfg.epochs, cfg.batch_size, cfg.queue_capacity
    );
    let obs = Arc::new(Obs::wall());
    // The watcher this command prints alerts and writes series from:
    // stopped before either, so its final tick sees the run's end state.
    let telemetry = Telemetry::start(Arc::clone(&obs), TelemetryConfig::default());
    let outcome = run_threaded_obs(&g, ModelKind::GraphSage, &cfg, &obs);
    telemetry.stop();
    let code = match outcome {
        Ok(res) => {
            println!("  produced:      {:>8} batches", res.samples_produced);
            println!("  trained:       {:>8} batches", res.batches_trained);
            println!("  accuracy:      {:>8.3}", res.final_accuracy);
            println!("  peak depth:    {:>8}", res.peak_queue_depth);
            println!("  switches:      {:>8}", res.switches);
            if cfg.checkpoint.enabled() {
                println!("  checkpoints:   {:>8} written", res.checkpoints_written);
                match res.resumed_from {
                    Some(generation) => {
                        println!("  resumed from:  {:>8}", format!("gen {generation}"))
                    }
                    None => println!("  resumed from:  {:>8}", "fresh"),
                }
            }
            let r = &res.recovery;
            println!("recovery report:");
            println!("  faults:        {:>8}", r.faults_injected);
            println!("  replayed:      {:>8} batches", r.replayed_batches);
            println!("  respawns:      {:>8}", r.respawns);
            println!("  reassignments: {:>8}", r.reassignments);
            println!("  retries:       {:>8}", r.retries);
            println!("  downtime:      {:>8.3} ms", r.downtime_ns as f64 / 1e6);
            let alerts = obs.metrics.alerts();
            if alerts.is_empty() {
                println!("alerts:          none");
            } else {
                println!("alerts:");
                for a in &alerts {
                    println!(
                        "  {:<16} {:<12} {} (value {:.3}, threshold {:.3})",
                        a.rule, a.subject, a.message, a.value, a.threshold
                    );
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            // Each failure class has its own documented exit code (see
            // the module docs), so wrappers and CI can react precisely.
            ExitCode::from(e.kind.exit_code())
        }
    };
    if let Some(path) = &metrics_out {
        match obs.write_metrics_json(Path::new(path)) {
            Ok(()) => eprintln!("[wrote metrics to {path}]"),
            Err(e) => {
                eprintln!("failed to write metrics to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    code
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("policies") => cmd_policies(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("job") => cmd_job(&args[1..]),
        Some("threaded") => cmd_threaded(&args[1..]),
        _ => usage(),
    }
}
