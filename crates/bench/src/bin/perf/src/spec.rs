//! What the benchmark runs and what it reports: the workload table and
//! the metric declarations. `BENCHMARK.json` at the repository root must
//! agree with this file; a unit test holds the two together.

use gnnlab_core::threaded::ThreadedConfig;
use gnnlab_core::{CheckpointPolicy, ExecutorRole, FaultPlan};
use gnnlab_graph::gen::SbmParams;
use gnnlab_tensor::ModelKind;
use std::path::Path;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these. An *op* is the unit the
/// workload's `attempted` counts: a trained mini-batch on the threaded
/// workloads, a rendered table line on `cosim_tables`; `final_accuracy`
/// is the trained model's test accuracy there and the share of table
/// lines reproduced byte for byte here.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "final_accuracy",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "cpu_s_per_run",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer (layer = module). `moves` names the end-to-end
/// metric and workload a change to this number should move; everywhere
/// else the prediction is no change.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    pub moves: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

const THREADED_WL: &str = "run_wall_s on the threaded workloads";
const HANDOFF: &str = "ops_per_s on handoff_bound";
const COSIM: &str = "run_wall_s on cosim_tables";
const DURABLE: &str = "run_wall_s of a run that checkpoints; no timed workload does";

/// The traced pass reports every one of these on every workload.
#[rustfmt::skip]
pub const PER_LAYER: [LayerMetric; 64] = [
    lm("graph.sbm_gen_ms", "ms", Lower, "graph", "setup_s on the threaded workloads"),
    lm("sampling.khop_fy_us_per_batch", "us", Lower, "sampling", "ops_per_s on sample_bound"),
    lm("sampling.khop_reservoir_us_per_batch", "us", Lower, "sampling", COSIM),
    lm("sampling.khop_weighted_us_per_batch", "us", Lower, "sampling", COSIM),
    lm("sampling.randomwalk_us_per_batch", "us", Lower, "sampling", COSIM),
    lm("sampling.edges_per_batch", "count", Lower, "sampling", "work done; explains the per-batch times"),
    lm("sampling.input_nodes_per_batch", "count", Lower, "sampling", "work done; explains the per-batch times"),
    lm("cache.presc_hotness_ms", "ms", Lower, "cache", THREADED_WL),
    lm("cache.load_topk_ms", "ms", Lower, "cache", THREADED_WL),
    lm("cache.fill_ms", "ms", Lower, "cache", THREADED_WL),
    lm("cache.extract_reuse_us_per_batch", "us", Lower, "cache", HANDOFF),
    lm("cache.extract_alloc_us_per_batch", "us", Lower, "cache", HANDOFF),
    lm("cache.extract_bytes_per_batch", "count", Lower, "cache", "bytes moved; explains cache.extract_*"),
    lm("cache.hit_rate", "ratio", Higher, "cache", "cache.extract_* in the staged replay"),
    lm("cache.hit_rate_run", "ratio", Higher, "cache", "cache.extract_* in the threaded run"),
    lm("queue.roundtrip_us_per_batch", "us", Lower, "core::queue", HANDOFF),
    lm("queue.xthread_us_per_batch", "us", Lower, "core::queue", HANDOFF),
    lm("queue.blocked_ms_per_run", "ms", Lower, "core::queue", "waiting: producer on train_bound, consumer on sample_bound"),
    lm("queue.peak_depth", "count", Lower, "core::queue", "backlog; bounded by the queue capacity"),
    lm("tensor.forward_us_per_batch", "us", Lower, "tensor", "ops_per_s on train_bound"),
    lm("tensor.backward_us_per_batch", "us", Lower, "tensor", "ops_per_s on train_bound"),
    lm("tensor.adam_step_us", "us", Lower, "tensor", "ops_per_s on train_bound"),
    lm("tensor.matmul_gflops", "gflop/s", Higher, "tensor", "tensor.forward_* and tensor.backward_*"),
    lm("tensor.flops_per_batch", "count", Lower, "tensor", "work done; explains tensor.*"),
    lm("tensor.param_copy_us", "us", Lower, "tensor", HANDOFF),
    lm("threaded.wall_us_per_batch", "us", Lower, "core::threaded", "ops_per_s on the threaded workloads"),
    lm("threaded.replay_serial_us_per_batch", "us", Lower, "core::threaded", "the sum the wall is compared with"),
    lm("threaded.overlap_factor", "ratio", Higher, "core::threaded", "ops_per_s on the threaded workloads"),
    lm("threaded.unattributed_us_per_batch", "us", Lower, "core::threaded", HANDOFF),
    lm("threaded.allocs_per_batch", "count", Lower, "core::threaded", HANDOFF),
    lm("threaded.alloc_bytes_per_batch", "count", Lower, "core::threaded", HANDOFF),
    lm("threaded.switches", "count", Higher, "core::threaded", "standby switching on train_bound"),
    lm("replay.span_coverage", "ratio", Higher, "core::threaded", "must stay at or above 0.95"),
    lm("checkpoint.encode_ms", "ms", Lower, "core::checkpoint", DURABLE),
    lm("checkpoint.write_gen_ms", "ms", Lower, "core::checkpoint", DURABLE),
    lm("checkpoint.load_latest_ms", "ms", Lower, "core::checkpoint", "resume time; no timed workload resumes"),
    lm("checkpoint.bytes", "count", Lower, "core::checkpoint", "checkpoint.encode_ms and checkpoint.write_gen_ms"),
    lm("checkpoint.generations_per_run", "count", Higher, "core::checkpoint", DURABLE),
    lm("checkpoint.run_wall_ratio", "ratio", Lower, "core::checkpoint", DURABLE),
    lm("recovery.downtime_us_per_crash", "us", Lower, "core::faults", DURABLE),
    lm("recovery.replayed_batches", "count", Lower, "core::faults", DURABLE),
    lm("cosim.table5_s", "s", Lower, "core::runtime", COSIM),
    lm("cosim.fig17_s", "s", Lower, "core::runtime", COSIM),
    lm("cosim.fig10_s", "s", Lower, "core::runtime", COSIM),
    lm("cosim.golden_mismatch_lines", "count", Lower, "sim", "must stay 0: simulated statistics identical"),
    lm("trace.record_fy_ms", "ms", Lower, "core::trace", COSIM),
    lm("trace.record_reservoir_ms", "ms", Lower, "core::trace", COSIM),
    lm("runtime.factored_epoch_ms", "ms", Lower, "core::runtime", COSIM),
    lm("runtime.timeshare_epoch_ms", "ms", Lower, "core::runtime", COSIM),
    lm("runtime.single_gpu_epoch_ms", "ms", Lower, "core::runtime", COSIM),
    lm("runtime.agl_epoch_ms", "ms", Lower, "core::runtime", "no timed workload runs AGL"),
    lm("runtime.preprocess_ms", "ms", Lower, "core::runtime", "no timed workload runs Table 6"),
    lm("par.worker_roundtrip_us", "us", Lower, "par", HANDOFF),
    lm("par.pool_dispatch_us", "us", Lower, "par", "none at threads: 1; the extract fan-out otherwise"),
    lm("obs.record_span_ns", "ns", Lower, "obs", "none expected; budget for in-program spans"),
    lm("bench.trace_overhead_share", "ratio", Lower, "bench", "none; what the benchmark's own spans cost"),
    lm("span.sampling_self_us_per_batch", "us", Lower, "sampling", "ops_per_s on sample_bound"),
    lm("span.queue_self_us_per_batch", "us", Lower, "core::queue", HANDOFF),
    lm("span.cache_self_us_per_batch", "us", Lower, "cache", HANDOFF),
    lm("span.tensor_self_us_per_batch", "us", Lower, "tensor", "ops_per_s on train_bound"),
    lm("span.checkpoint_self_us_per_batch", "us", Lower, "core::checkpoint", DURABLE),
    lm("span.batch_self_us_per_batch", "us", Lower, "bench", "replay glue no layer span covers"),
    lm("host.reference_ms", "ms", Lower, "host", "none: the host-speed reference during this pass; the per-layer times are as measured, not corrected by it"),
    lm("process.peak_rss_mb", "MiB", Lower, "process", "memory of one run; reported, not bounded (allocator retention makes it swing 10-25 %)"),
];

/// Checkpointing and fault injection of a threaded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Durable {
    /// Checkpoint cadence in trained batches.
    pub every_batches: usize,
    /// Trainer 0 crashes after this many batches, if at all.
    pub trainer_crash_after: Option<usize>,
    /// Sampler 0 crashes after this many batches, if at all.
    pub sampler_crash_after: Option<usize>,
}

impl Durable {
    pub fn crashes(&self) -> usize {
        usize::from(self.trainer_crash_after.is_some())
            + usize::from(self.sampler_crash_after.is_some())
    }
}

/// One threaded run's inputs: the planted-community graph and the
/// `ThreadedConfig` that trains on it. 1 Sampler + 1 Trainer + the
/// Trainer's depth-1 extract worker, `threads: 1`: a closed loop whose
/// backpressure is the bounded queue, never more busy threads than the
/// two cores of the reference host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadedSpec {
    pub vertices: usize,
    pub classes: usize,
    pub avg_degree: f64,
    pub feat_dim: usize,
    pub noise: f32,
    pub model: ModelKind,
    pub hidden: usize,
    pub lr: f32,
    pub batch: usize,
    pub cache_alpha: f64,
    pub queue: usize,
    pub switching: bool,
    pub epochs: usize,
    pub durable: Option<Durable>,
    pub min_accuracy: f64,
}

impl ThreadedSpec {
    pub fn sbm_params(&self, seed: u64) -> SbmParams {
        SbmParams {
            num_vertices: self.vertices,
            num_classes: self.classes,
            avg_degree: self.avg_degree,
            intra_prob: 0.85,
            feat_dim: self.feat_dim,
            noise: self.noise,
            seed,
        }
    }

    /// `run_threaded` trains on half the vertices.
    pub fn batches_per_epoch(&self) -> usize {
        (self.vertices / 2).div_ceil(self.batch)
    }

    pub fn batches_per_run(&self) -> usize {
        self.epochs * self.batches_per_epoch()
    }

    /// The configuration handed to `run_threaded`; `ckpt_dir` is where a
    /// durable spec writes its generations.
    pub fn config(&self, seed: u64, ckpt_dir: &Path) -> ThreadedConfig {
        let (faults, checkpoint) = match self.durable {
            None => (FaultPlan::none(), CheckpointPolicy::default()),
            Some(d) => {
                let mut faults = FaultPlan::none();
                if let Some(after) = d.trainer_crash_after {
                    faults = faults.with_crash(ExecutorRole::Trainer, 0, after);
                }
                if let Some(after) = d.sampler_crash_after {
                    faults = faults.with_crash(ExecutorRole::Sampler, 0, after);
                }
                (
                    faults.with_max_respawns(4).with_seed(seed),
                    CheckpointPolicy {
                        dir: Some(ckpt_dir.to_path_buf()),
                        every_batches: Some(d.every_batches),
                        ..CheckpointPolicy::default()
                    },
                )
            }
        };
        ThreadedConfig {
            num_samplers: 1,
            num_trainers: 1,
            epochs: self.epochs,
            batch_size: self.batch,
            hidden_dim: self.hidden,
            lr: self.lr,
            seed,
            cache_alpha: self.cache_alpha,
            queue_capacity: self.queue,
            dynamic_switching: self.switching,
            faults,
            threads: 1,
            checkpoint,
            ..ThreadedConfig::default()
        }
    }

    /// This spec with an epoch-boundary checkpoint and one Trainer crash
    /// at the midpoint: how the traced pass reads the checkpoint and
    /// recovery layers, which no timed workload exercises. Switching is
    /// off: with a standby Trainer taking batches, whether Trainer 0
    /// reaches its crash and the order of updates depend on timing.
    pub fn durable_variant(&self) -> ThreadedSpec {
        ThreadedSpec {
            switching: false,
            durable: Some(Durable {
                every_batches: self.batches_per_epoch(),
                trainer_crash_after: Some(self.batches_per_run() / 2),
                sampler_crash_after: None,
            }),
            ..*self
        }
    }

    /// This spec without checkpoints and faults.
    pub fn stripped(&self) -> ThreadedSpec {
        ThreadedSpec {
            durable: None,
            ..*self
        }
    }
}

/// Which face of the program a workload's timed repetitions exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Face {
    /// `core::threaded::run_threaded`, the real Sampler/Trainer threads.
    Threaded,
    /// `exp::{table5, fig17, fig10}::run`, the co-simulations.
    Cosim,
}

/// One workload. Each carries inputs for both faces: its own face runs
/// the timed repetitions, and the traced pass reads the layers of the
/// other face on the small inputs given here, so every per-layer metric
/// is a measurement on every workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub face: Face,
    pub threaded: ThreadedSpec,
    /// Divisor of the paper's dataset sizes for the co-simulations.
    pub cosim_scale: u64,
    /// Share of a timed repetition's wall during which a second thread is
    /// busy (CPU seconds ÷ wall seconds − 1, as first measured): how much
    /// of the host-speed reference runs on two threads (`reference`).
    pub overlap: f64,
}

/// The seed and scale the committed golden tables were rendered at.
pub const GOLDEN_SEED: u64 = 42;
pub const GOLDEN_SCALE: u64 = 8192;

/// Scale of the co-simulation probes on the threaded workloads.
const SMALL_COSIM_SCALE: u64 = 32_768;

const SMALL_THREADED: ThreadedSpec = ThreadedSpec {
    vertices: 2_000,
    classes: 4,
    avg_degree: 8.0,
    feat_dim: 16,
    noise: 0.6,
    model: ModelKind::GraphSage,
    hidden: 16,
    lr: 0.01,
    batch: 32,
    cache_alpha: 0.2,
    queue: 16,
    switching: true,
    epochs: 8,
    durable: None,
    min_accuracy: 0.90,
};

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train_bound",
        why: "GraphSAGE, batch 256, feat 64: tensor fwd/bwd/Adam do most of the work, Sampler idles and flips to standby; sampling or queue gains must show no change",
        face: Face::Threaded,
        threaded: ThreadedSpec {
            vertices: 20_000,
            classes: 8,
            avg_degree: 15.0,
            feat_dim: 64,
            noise: 0.6,
            model: ModelKind::GraphSage,
            hidden: 32,
            lr: 0.01,
            batch: 256,
            cache_alpha: 0.2,
            queue: 64,
            switching: true,
            epochs: 1,
            durable: None,
            min_accuracy: 0.95,
        },
        cosim_scale: SMALL_COSIM_SCALE,
        overlap: 0.5,
    },
    Workload {
        name: "sample_bound",
        why: "GCN 3-hop [15,10,5] on degree 30, feat 8, hidden 8: k-hop sampling outweighs Train and the Trainer starves on the queue; tensor gains must show no change",
        face: Face::Threaded,
        threaded: ThreadedSpec {
            vertices: 20_000,
            classes: 8,
            avg_degree: 30.0,
            feat_dim: 8,
            noise: 0.6,
            model: ModelKind::Gcn,
            hidden: 8,
            lr: 0.05,
            batch: 256,
            cache_alpha: 0.2,
            queue: 64,
            switching: true,
            epochs: 2,
            durable: None,
            min_accuracy: 0.95,
        },
        cosim_scale: SMALL_COSIM_SCALE,
        overlap: 0.3,
    },
    Workload {
        name: "handoff_bound",
        why: "batch 8, hidden 4, queue 4: layer work is tens of us per batch, so queue handoff, leases, param pull/push, the prefetch hop and per-batch allocation dominate",
        face: Face::Threaded,
        threaded: ThreadedSpec {
            vertices: 20_000,
            classes: 4,
            avg_degree: 6.0,
            feat_dim: 8,
            noise: 0.6,
            model: ModelKind::GraphSage,
            hidden: 4,
            lr: 0.01,
            batch: 8,
            cache_alpha: 0.2,
            queue: 4,
            switching: true,
            epochs: 15,
            durable: None,
            min_accuracy: 0.95,
        },
        cosim_scale: SMALL_COSIM_SCALE,
        overlap: 0.4,
    },
    Workload {
        name: "cosim_tables",
        why: "the simulator face: table5, fig17, fig10 run the factored, time-share and single-GPU co-simulations, trace recording with both k-hop kernels, random walks, four cache policies; no threaded runtime",
        face: Face::Cosim,
        threaded: SMALL_THREADED,
        cosim_scale: GOLDEN_SCALE,
        overlap: 0.0,
    },
];

/// Tiny inputs for `--smoke`: every workload keeps its shape (model, face)
/// and loses its size.
fn smoke(w: &Workload) -> Workload {
    let t = w.threaded;
    Workload {
        threaded: ThreadedSpec {
            vertices: 600,
            avg_degree: t.avg_degree.min(8.0),
            feat_dim: t.feat_dim.min(16),
            hidden: t.hidden.min(8),
            batch: t.batch.min(32),
            epochs: 3,
            // Thirty batches only have to beat chance.
            min_accuracy: 1.5 / t.classes as f64,
            ..t
        },
        cosim_scale: 65_536,
        ..*w
    }
}

/// The four workloads, at full or smoke size.
pub fn workloads(smoke_sizes: bool) -> Vec<Workload> {
    WORKLOADS
        .iter()
        .map(|w| if smoke_sizes { smoke(w) } else { *w })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for w in workloads(false) {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(!m.layer.is_empty() && !m.moves.is_empty(), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn smoke_sizes_keep_every_workload_and_its_shape() {
        let (full, small) = (workloads(false), workloads(true));
        assert_eq!(full.len(), 4);
        for (f, s) in full.iter().zip(&small) {
            assert_eq!((f.name, f.face), (s.name, s.face));
            assert_eq!(f.threaded.model, s.threaded.model);
            assert!(f.threaded.durable.is_none() && s.threaded.durable.is_none());
            assert!(s.threaded.batches_per_run() <= 240);
        }
    }

    #[test]
    fn durable_variant_adds_one_crash_and_stripped_removes_all() {
        let w = workloads(false);
        let plain = w[0].threaded;
        let v = plain.durable_variant();
        let d = v.durable.unwrap();
        assert_eq!(d.crashes(), 1);
        assert_eq!(d.every_batches, plain.batches_per_epoch());
        assert!(!v.switching);
        assert_eq!(
            v.stripped(),
            ThreadedSpec {
                switching: false,
                ..plain
            }
        );
        let cfg = v.config(7, Path::new("x"));
        assert_eq!(cfg.faults.max_respawns, 4);
        assert_eq!(cfg.checkpoint.every_batches, Some(d.every_batches));
        assert_eq!((cfg.num_samplers, cfg.num_trainers, cfg.threads), (1, 1, 1));
        let cfg = plain.config(7, Path::new("x"));
        assert_eq!(cfg.checkpoint.every_batches, None);
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// binary reports. They must not drift apart.
    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Value::as_array).unwrap().to_vec();
        let text_of =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let declared: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = workloads(false)
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(declared, ours);

        let paths = list("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("crates/bench/src/bin/perf"));
    }
}
