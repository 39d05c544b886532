//! The traced pass: per-layer metrics.
//!
//! Nothing here instruments the program. A single-threaded *staged
//! replay* pushes the workload's own batches through the public functions
//! of each layer in the order the Sampler and Trainer threads call them,
//! with a span around every call; a battery of micro-probes times the
//! calls the replay cannot isolate (queue handoff across threads, the
//! prefetch worker hop, checkpoint encode/write/load, the co-simulation
//! runtimes); and a few untraced `run_threaded` calls supply what only the
//! real runtime knows (wall per batch, queue waiting, switches, recovery).
//!
//! Every workload runs the whole battery, so every per-layer metric is a
//! measurement on every workload: the threaded probes take the workload's
//! threaded inputs and the co-simulation probes its co-simulation scale
//! (see `spec::Workload`).

use crate::alloc;
use crate::reference::{self, Reference};
use crate::report::{obj, Metric, RunReport, Verdict};
use crate::runs::{
    check_checkpoint_identity, check_cosim, check_threaded, cosim_once, cosim_reference, generate,
    threaded_once, ThreadedRun,
};
use crate::spans::{self, Tracer};
use crate::spec::{Face, ThreadedSpec, Workload, PER_LAYER};
use crate::stats::{mean, median, Reading};
use gnnlab_cache::{load_cache_topk, CachePolicy, CachedFeatureStore, PolicyKind};
use gnnlab_core::checkpoint::{
    self, BatchRecord, ChaosPlan, CheckpointMeta, CheckpointState, RngCursor, SchedSnapshot,
};
use gnnlab_core::queue::GlobalQueue;
use gnnlab_core::runtime::{
    preprocess_report, run_agl_epoch, run_factored_epoch, run_single_gpu_epoch,
    run_timeshare_epoch, SimContext,
};
use gnnlab_core::threaded::{RecoveryReport, ThreadedResult};
use gnnlab_core::trace::EpochTrace;
use gnnlab_core::{SystemKind, Workload as SimWorkload};
use gnnlab_graph::gen::{recency_weights, sbm, SbmGraph};
use gnnlab_graph::trainset::random_train_set;
use gnnlab_graph::{DatasetKind, FeatureStore, Scale, VertexId};
use gnnlab_obs::{Executor, Obs, Stage};
use gnnlab_par::{ThreadPool, Worker};
use gnnlab_sampling::{
    presample_rng, KHop, Kernel, MinibatchIter, RandomWalk, Sample, SampleBuffers,
    SamplingAlgorithm, Selection,
};
use gnnlab_tensor::flops::train_flops;
use gnnlab_tensor::loss::softmax_cross_entropy;
use gnnlab_tensor::{Adam, GnnModel, Matrix, ModelConfig, ModelKind, Optimizer};
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The replay covers one run's batches, at most this many.
const REPLAY_BATCHES: usize = 2000;

/// The per-layer readings gathered so far, and the checks that failed.
#[derive(Default)]
struct Probe {
    readings: BTreeMap<&'static str, Reading>,
    verdict: Verdict,
}

impl Probe {
    fn set(&mut self, name: &'static str, reading: Reading) {
        self.readings.insert(name, reading);
    }

    fn exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Reading::exact(value));
    }
}

/// Calls `f(i)` for `i` in `0..max_iters` until `budget_s` is spent (but
/// at least `min_iters` times) and returns each call's microseconds.
fn time_each(
    max_iters: usize,
    min_iters: usize,
    budget_s: f64,
    mut f: impl FnMut(usize),
) -> Vec<f64> {
    let started = Instant::now();
    let mut us = Vec::new();
    for i in 0..max_iters {
        if i >= min_iters && started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        let t = Instant::now();
        f(i);
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    us
}

/// Microseconds per iteration of `f` run `iters` times back to back, for
/// calls too short to time one by one.
fn per_iter_us(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / 1e3 / iters as f64
}

/// A reading in milliseconds from samples in microseconds.
fn ms(us: &[f64]) -> Reading {
    Reading::of(&us.iter().map(|us| us / 1e3).collect::<Vec<_>>())
}

/// One number per successful run, or a single 0 when every run failed
/// (the verdict already says so).
fn column(runs: &[ThreadedRun], f: impl Fn(&ThreadedResult) -> f64) -> Vec<f64> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(f)
        .collect();
    if values.is_empty() {
        vec![0.0]
    } else {
        values
    }
}

/// The k-hop fan-outs `run_threaded` samples with for each model
/// (`core::train_real::sampler_for`).
fn fanouts(kind: ModelKind) -> Vec<usize> {
    match kind {
        ModelKind::Gcn => vec![15, 10, 5],
        ModelKind::GraphSage | ModelKind::PinSage => vec![25, 10],
    }
}

/// One task as it crosses the queue in the replay (the runtime's own task
/// type is private).
struct ReplayTask {
    id: u64,
    sample: Sample,
    labels: Vec<u32>,
}

/// Inputs shared by the replay and the micro-probes that follow it.
struct Staged {
    graph: SbmGraph,
    store: CachedFeatureStore,
    /// The replayed batches, in replay order.
    batches: Vec<ReplayBatch>,
}

/// One mini-batch of the replay: its place in the schedule (which seeds
/// its sampler RNG) and its seed vertices.
struct ReplayBatch {
    epoch: u64,
    index: u64,
    seeds: Vec<VertexId>,
}

/// Set-up of the staged replay, each step under its own root span (the
/// `cache.*_ms` metrics are those spans): generate the graph, rank
/// vertices (PreSC#1), pick the cache rows, fill the cache — what
/// `run_threaded` does before its first batch.
fn stage(spec: &ThreadedSpec, seed: u64, tracer: &mut Tracer, probe: &mut Probe) -> Staged {
    let params = spec.sbm_params(seed);
    let gen_us = time_each(3, 3, 0.0, |_| {
        black_box(sbm(&params).expect("valid SBM parameters"));
    });
    probe.set("graph.sbm_gen_ms", ms(&gen_us));
    let graph = tracer.time("graph.sbm_gen", None, None, || generate(spec, seed));
    let n = graph.csr.num_vertices();
    let train_set = random_train_set(n, n / 2, seed);
    let pool = Arc::new(ThreadPool::new(1));
    let algo = KHop::new(fanouts(spec.model), Kernel::FisherYates, Selection::Uniform);

    let hotness = tracer.time("cache.presc_hotness", None, None, || {
        CachePolicy::hotness_with_pool(
            PolicyKind::PreSC { k: 1 },
            &graph.csr,
            &train_set,
            &algo,
            spec.batch,
            seed,
            &pool,
        )
        .hotness
    });
    let rows = (spec.cache_alpha * n as f64) as usize;
    let table = tracer.time("cache.load_topk", None, None, || {
        load_cache_topk(&hotness, rows, n)
    });

    let host = Arc::new(FeatureStore::materialized(
        n,
        graph.feat_dim,
        graph.features.clone(),
    ));
    let store = tracer.time("cache.fill", None, None, || {
        CachedFeatureStore::shared_with_pool(host, table, pool).0
    });

    let batches = (0..spec.epochs as u64)
        .flat_map(|epoch| {
            MinibatchIter::new(&train_set, spec.batch, seed, epoch)
                .enumerate()
                .map(move |(i, seeds)| ReplayBatch {
                    epoch,
                    index: i as u64,
                    seeds,
                })
        })
        .take(REPLAY_BATCHES)
        .collect();
    Staged {
        graph,
        store,
        batches,
    }
}

/// What one replay leaves behind for the probes after it.
struct Replayed {
    wall_s: f64,
    edges: Vec<f64>,
    input_nodes: Vec<f64>,
    flops: Vec<f64>,
    /// Input vertices of the first few batches, for the extract probes.
    input_ids: Vec<Vec<VertexId>>,
    state: CheckpointState,
}

/// Assembles what a checkpoint persists from the replay's live state, as
/// the runtime does at its quiesce point.
fn assemble(
    spec: &ThreadedSpec,
    graph: &SbmGraph,
    seed: u64,
    master: &mut GnnModel,
    opt: &Adam,
    history: &[BatchRecord],
) -> CheckpointState {
    let per_epoch = spec.batches_per_epoch() as u64;
    let cursor = history.len() as u64;
    CheckpointState {
        meta: CheckpointMeta {
            seed,
            epochs: spec.epochs as u64,
            batch_size: spec.batch as u64,
            hidden_dim: spec.hidden as u64,
            lr_bits: spec.lr.to_bits(),
            model_kind: spec.model,
            num_vertices: graph.csr.num_vertices() as u64,
            num_edges: graph.csr.num_edges() as u64,
            feat_dim: graph.feat_dim as u64,
            num_classes: graph.num_classes as u64,
            batches_per_epoch: per_epoch,
            total_batches: spec.batches_per_run() as u64,
            num_samplers: 1,
            num_trainers: 1,
            dynamic_switching: spec.switching,
            trainer_rows: 0,
            standby_rows: 0,
        },
        params: master
            .params_mut()
            .iter()
            .map(|p| p.value.clone())
            .collect(),
        opt: opt.export_state(),
        sched: SchedSnapshot::default(),
        rng: RngCursor {
            seed,
            next_epoch: cursor / per_epoch,
            next_batch: cursor % per_epoch,
        },
        cursor,
        recovery: RecoveryReport::default(),
        history: history.to_vec(),
    }
}

/// The staged replay: every batch goes sample → mark → enqueue → dequeue
/// → extract → pull → forward → backward → push → complete on one
/// thread, each step a child span of the batch's span. A checkpoint is
/// written between batches at the cadence of the spec's durable variant,
/// under a root span of its own (the runtime also writes at a quiesce
/// point between batches).
fn replay(
    spec: &ThreadedSpec,
    seed: u64,
    staged: &Staged,
    ckpt_dir: &Path,
    tracer: &mut Tracer,
) -> Replayed {
    let graph = &staged.graph;
    let store = &staged.store;
    let algo = KHop::new(fanouts(spec.model), Kernel::FisherYates, Selection::Uniform);
    let config = ModelConfig {
        kind: spec.model,
        in_dim: graph.feat_dim,
        hidden_dim: spec.hidden,
        num_classes: graph.num_classes,
        seed,
    };
    let mut master = GnnModel::new(config);
    let mut replica = GnnModel::new(config);
    let mut opt = Adam::new(spec.lr);
    let queue: GlobalQueue<ReplayTask> = GlobalQueue::bounded(spec.queue);
    let mut bufs = SampleBuffers::new();
    let mut feat_buf: Vec<f32> = Vec::new();
    let mut history: Vec<BatchRecord> = Vec::new();
    let cadence = spec
        .durable_variant()
        .durable
        .map_or(usize::MAX, |d| d.every_batches);
    let _ = std::fs::remove_dir_all(ckpt_dir);

    let (mut edges, mut input_nodes, mut flops) = (Vec::new(), Vec::new(), Vec::new());
    let mut input_ids: Vec<Vec<VertexId>> = Vec::new();
    let started = Instant::now();
    for (i, batch) in staged.batches.iter().enumerate() {
        let id = i as u64;
        let b = tracer.begin("batch", None, Some(id));
        let mut sample = tracer.time("sampling.sample", b, Some(id), || {
            let mut rng = presample_rng(seed, batch.epoch, batch.index);
            algo.sample_with(&graph.csr, &batch.seeds, &mut rng, &mut bufs)
        });
        tracer.time("cache.mark", b, Some(id), || {
            sample.cache_mask = Some(store.table().mark(sample.input_nodes()));
        });
        edges.push(sample.total_block_edges() as f64);
        input_nodes.push(sample.num_input_nodes() as f64);
        flops.push(train_flops(
            spec.model,
            &sample,
            graph.feat_dim,
            spec.hidden,
            graph.num_classes,
        ));
        if input_ids.len() < 200 {
            input_ids.push(sample.input_nodes().to_vec());
        }
        let labels = batch
            .seeds
            .iter()
            .map(|&v| graph.labels[v as usize])
            .collect();
        let task = ReplayTask { id, sample, labels };
        tracer.time("queue.enqueue", b, Some(id), || {
            queue.enqueue(task).expect("the replay's queue stays open");
        });
        let lease = tracer.time("queue.dequeue", b, Some(id), || {
            queue.dequeue_leased(0).expect("one task was just enqueued")
        });
        let task = &*lease.task;
        let feats = tracer.time("cache.extract", b, Some(id), || {
            store.extract_to_buffer(task.sample.input_nodes(), &mut feat_buf);
            Matrix::from_vec(
                task.sample.num_input_nodes(),
                graph.feat_dim,
                std::mem::take(&mut feat_buf),
            )
        });
        // The outside stand-in for the runtime's private `pull_params`:
        // every master value cloned into the replica.
        tracer.time("tensor.param_copy", b, Some(id), || {
            let values: Vec<Matrix> = master
                .params_mut()
                .iter()
                .map(|p| p.value.clone())
                .collect();
            for (p, v) in replica.params_mut().into_iter().zip(values) {
                p.value = v;
            }
        });
        let (loss, grad, acc) = tracer.time("tensor.forward", b, Some(id), || {
            let logits = replica.forward(&task.sample, &feats);
            let (loss, grad) = softmax_cross_entropy(&logits, &task.labels);
            let acc = gnnlab_tensor::loss::accuracy(&logits, &task.labels);
            (loss, grad, acc)
        });
        tracer.time("tensor.backward", b, Some(id), || replica.backward(&grad));
        // The stand-in for `push_grads`: gradients cloned out of the
        // replica, accumulated into the master, one Adam step.
        tracer.time("tensor.optim", b, Some(id), || {
            let grads: Vec<Matrix> = replica
                .params_mut()
                .iter()
                .map(|p| p.grad.clone())
                .collect();
            replica.zero_grad();
            let mut params = master.params_mut();
            for (p, g) in params.iter_mut().zip(grads) {
                p.grad.add_assign(&g);
            }
            opt.step(&mut params);
        });
        history.push(BatchRecord {
            id: task.id,
            loss,
            acc,
        });
        tracer.time("queue.complete", b, Some(id), || queue.complete(lease.id));
        feat_buf = feats.into_vec();
        tracer.end(b);
        if (i + 1) % cadence == 0 {
            let generation = ((i + 1) / cadence) as u64;
            tracer.time("checkpoint.write", None, Some(id), || {
                let state = assemble(spec, graph, seed, &mut master, &opt, &history);
                checkpoint::write_generation(
                    ckpt_dir,
                    generation,
                    &state,
                    checkpoint::DEFAULT_KEEP,
                    &ChaosPlan::default(),
                )
                .expect("the replay's checkpoint directory is writable");
            });
        }
    }
    Replayed {
        wall_s: started.elapsed().as_secs_f64(),
        edges,
        input_nodes,
        flops,
        input_ids,
        state: assemble(spec, graph, seed, &mut master, &opt, &history),
    }
}

/// The four samplers on the same batches with the same per-batch seeds,
/// buffers and output sample reused.
fn sampling_probes(spec: &ThreadedSpec, seed: u64, staged: &Staged, probe: &mut Probe) {
    let weighted_csr = recency_weights(staged.graph.csr.clone(), seed)
        .expect("one weight per edge of the same graph");
    let f = fanouts(spec.model);
    let variants: [(&'static str, Box<dyn SamplingAlgorithm>, bool); 4] = [
        (
            "sampling.khop_fy_us_per_batch",
            Box::new(KHop::new(
                f.clone(),
                Kernel::FisherYates,
                Selection::Uniform,
            )),
            false,
        ),
        (
            "sampling.khop_reservoir_us_per_batch",
            Box::new(KHop::new(f.clone(), Kernel::Reservoir, Selection::Uniform)),
            false,
        ),
        (
            "sampling.khop_weighted_us_per_batch",
            Box::new(KHop::new(f, Kernel::FisherYates, Selection::Weighted)),
            true,
        ),
        (
            "sampling.randomwalk_us_per_batch",
            Box::new(RandomWalk::pinsage()),
            false,
        ),
    ];
    for (name, algo, weighted) in variants {
        let csr = if weighted {
            &weighted_csr
        } else {
            &staged.graph.csr
        };
        let mut bufs = SampleBuffers::new();
        let mut out = Sample::default();
        let us = time_each(staged.batches.len().min(200), 5, 0.4, |i| {
            let batch = &staged.batches[i];
            let mut rng = presample_rng(seed, batch.epoch, batch.index);
            algo.sample_into(csr, &batch.seeds, &mut rng, &mut bufs, &mut out);
            black_box(&out);
        });
        probe.set(name, Reading::of(&us));
    }
}

/// `extract_to_buffer` into one recycled buffer against `extract` into a
/// fresh `Vec`, on the same vertex lists, alternating.
fn extract_probes(staged: &Staged, ids: &[Vec<VertexId>], probe: &mut Probe) {
    let store = &staged.store;
    let mut buf: Vec<f32> = Vec::new();
    let (mut reuse, mut fresh) = (Vec::new(), Vec::new());
    for round in 0..5 {
        for list in ids {
            let t = Instant::now();
            store.extract_to_buffer(list, &mut buf);
            black_box(&buf);
            let a = t.elapsed().as_nanos() as f64 / 1e3;
            let t = Instant::now();
            black_box(store.extract(list));
            let b = t.elapsed().as_nanos() as f64 / 1e3;
            if round > 0 {
                reuse.push(a);
                fresh.push(b);
            }
        }
    }
    probe.set("cache.extract_reuse_us_per_batch", Reading::of(&reuse));
    probe.set("cache.extract_alloc_us_per_batch", Reading::of(&fresh));
}

/// `Matrix::matmul` on the first layer's shape: the batch's input rows
/// times the input-to-hidden weight.
fn matmul_probe(spec: &ThreadedSpec, rows: usize, feat_dim: usize, probe: &mut Probe) {
    let (m, k, n) = (rows.max(1), feat_dim, spec.hidden);
    let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i % 113) as f32 * 0.01).collect());
    let b = Matrix::from_vec(k, n, (0..k * n).map(|i| (i % 89) as f32 * 0.02).collect());
    let us = time_each(200, 5, 0.2, |_| {
        black_box(a.matmul(&b));
    });
    let flops = 2.0 * (m * k * n) as f64;
    probe.set(
        "tensor.matmul_gflops",
        Reading::of(&us.iter().map(|us| flops / us / 1e3).collect::<Vec<_>>()),
    );
}

/// Queue handoff on one thread and across two, the prefetch worker hop,
/// a two-chunk pool dispatch, and what one recorded `obs` span costs.
fn handoff_probes(probe: &mut Probe) {
    const ROUNDS: usize = 20_000;
    let q: GlobalQueue<u64> = GlobalQueue::bounded(4);
    let us = per_iter_us(ROUNDS, |i| {
        q.enqueue_many((0..4).map(|j| (i * 4 + j) as u64))
            .expect("open queue");
        for lease in q.dequeue_leased_many(0, 4).expect("four tasks wait") {
            q.complete(lease.id);
        }
    });
    probe.exact("queue.roundtrip_us_per_batch", us / 4.0);

    const ITEMS: u64 = 100_000;
    let q: GlobalQueue<u64> = GlobalQueue::bounded(4);
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..ITEMS {
                q.enqueue(i).expect("the consumer never poisons the queue");
            }
            q.close();
        });
        while let Ok(lease) = q.dequeue_leased(1) {
            q.complete(lease.id);
        }
    });
    probe.exact(
        "queue.xthread_us_per_batch",
        t.elapsed().as_nanos() as f64 / 1e3 / ITEMS as f64,
    );

    let worker = Worker::new("perf-probe");
    let us = per_iter_us(ROUNDS, |i| {
        black_box(worker.submit(move || i).join());
    });
    probe.exact("par.worker_roundtrip_us", us);

    let pool = ThreadPool::new(2);
    let us = per_iter_us(ROUNDS, |_| {
        pool.run_ranges(2, |_, range| {
            black_box(range);
        });
    });
    probe.exact("par.pool_dispatch_us", us);

    const SPANS: usize = 100_000;
    let obs = Obs::wall();
    let us = per_iter_us(SPANS, |i| {
        let t = i as u64;
        obs.record_span(0, Executor::Trainer, Stage::Train, t, t, t + 1);
    });
    probe.exact("obs.record_span_ns", us * 1e3);
}

/// `encode`, `write_generation` (temp file, fsync, rename) and
/// `load_latest` on the state the replay ended with.
fn checkpoint_probes(state: &CheckpointState, dir: &Path, probe: &mut Probe) {
    let _ = std::fs::remove_dir_all(dir);
    let mut bytes = 0usize;
    let us = time_each(20, 20, 0.0, |i| {
        bytes = black_box(checkpoint::encode(state, i as u64)).len();
    });
    probe.set("checkpoint.encode_ms", ms(&us));
    probe.exact("checkpoint.bytes", bytes as f64);
    let us = time_each(10, 10, 0.0, |i| {
        checkpoint::write_generation(
            dir,
            i as u64,
            state,
            checkpoint::DEFAULT_KEEP,
            &ChaosPlan::default(),
        )
        .expect("the probe's checkpoint directory is writable");
    });
    probe.set("checkpoint.write_gen_ms", ms(&us));
    let mut decoded = true;
    let us = time_each(10, 10, 0.0, |_| {
        decoded &= checkpoint::load_latest(dir).loaded.is_some();
    });
    probe.set("checkpoint.load_latest_ms", ms(&us));
    if !decoded {
        probe
            .verdict
            .problem("load_latest found no decodable generation");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Untraced `run_threaded` calls: the workload's own spec for what only
/// the real runtime knows, one call with the allocator counting, and the
/// spec's durable variant against its stripped variant for the
/// checkpoint and recovery layers.
fn threaded_probes(
    spec: &ThreadedSpec,
    seed: u64,
    seconds: f64,
    graph: &SbmGraph,
    ckpt_dir: &Path,
    probe: &mut Probe,
) -> Vec<f64> {
    let mut reference = None;
    let mut checked = |s: &ThreadedSpec, run: &ThreadedRun, probe: &mut Probe| {
        let v = check_threaded(s, run, ckpt_dir, &mut reference);
        probe.verdict.merge(v);
    };
    // One discarded warm-up, as in the untraced pass.
    let warm = threaded_once(graph, spec, seed, ckpt_dir);
    let warmup_s = vec![warm.wall_s];
    let mut own: Vec<ThreadedRun> = Vec::new();
    let region = Instant::now();
    while own.len() < 2 || region.elapsed().as_secs_f64() < seconds * 0.3 {
        let run = threaded_once(graph, spec, seed, ckpt_dir);
        checked(spec, &run, probe);
        own.push(run);
    }
    let batches = spec.batches_per_run() as f64;
    let walls: Vec<f64> = own.iter().map(|r| r.wall_s).collect();
    probe.set(
        "threaded.wall_us_per_batch",
        Reading::of(&walls.iter().map(|w| w * 1e6 / batches).collect::<Vec<_>>()),
    );
    probe.set(
        "queue.blocked_ms_per_run",
        Reading::of(&column(&own, |r| r.queue_blocked_ns as f64 / 1e6)),
    );
    probe.exact(
        "queue.peak_depth",
        column(&own, |r| r.peak_queue_depth as f64)
            .into_iter()
            .fold(0.0, f64::max),
    );
    probe.set(
        "cache.hit_rate_run",
        Reading::of(&column(&own, |r| r.cache_hit_rate)),
    );
    let rss: Vec<f64> = own.iter().map(|r| r.peak_rss_mb).collect();
    probe.set("process.peak_rss_mb", Reading::of(&rss));
    probe.set(
        "threaded.switches",
        Reading::of(&column(&own, |r| r.switches as f64)),
    );

    let (run, allocs, bytes) = alloc::count(|| threaded_once(graph, spec, seed, ckpt_dir));
    checked(spec, &run, probe);
    probe.exact("threaded.allocs_per_batch", allocs as f64 / batches);
    probe.exact("threaded.alloc_bytes_per_batch", bytes as f64 / batches);

    // One run of the durable variant against one of the same spec
    // without its checkpoints and crash, and the check that
    // checkpointing alone changes nothing.
    let durable_spec = spec.durable_variant();
    let durable = threaded_once(graph, &durable_spec, seed, ckpt_dir);
    checked(&durable_spec, &durable, probe);
    let stripped_spec = durable_spec.stripped();
    let stripped = threaded_once(graph, &stripped_spec, seed, ckpt_dir);
    checked(&stripped_spec, &stripped, probe);
    probe.verdict.merge(check_checkpoint_identity(
        graph,
        &durable_spec,
        seed,
        ckpt_dir,
    ));
    probe.exact(
        "checkpoint.run_wall_ratio",
        durable.wall_s / stripped.wall_s,
    );
    let crashes = durable_spec.durable.map_or(1, |d| d.crashes()).max(1) as f64;
    let of_durable = |f: &dyn Fn(&ThreadedResult) -> f64| durable.result.as_ref().map_or(0.0, f);
    probe.exact(
        "checkpoint.generations_per_run",
        of_durable(&|r| r.checkpoints_written as f64),
    );
    probe.exact(
        "recovery.downtime_us_per_crash",
        of_durable(&|r| r.recovery.downtime_ns as f64 / 1e3 / crashes),
    );
    probe.exact(
        "recovery.replayed_batches",
        of_durable(&|r| r.recovery.replayed_batches as f64),
    );
    warmup_s
}

/// The co-simulation layers at the workload's co-simulation scale: the
/// three tables (twice, compared), trace recording with both kernels,
/// and each epoch runtime on GCN over the Papers-like dataset.
fn cosim_probes(scale: u64, seed: u64, own_face: bool, probe: &mut Probe) {
    let first = cosim_once(scale, seed);
    let second = cosim_once(scale, seed);
    if own_face {
        // The workload's own runs are these passes, not the threaded ones.
        probe.set(
            "process.peak_rss_mb",
            Reading::of(&[first.peak_rss_mb, second.peak_rss_mb]),
        );
    }
    let reference = cosim_reference(scale, seed, &first.rendered);
    let mut mismatches = 0;
    for pass in [&first, &second] {
        let v = check_cosim(&pass.rendered, reference);
        mismatches += v.failed;
        probe.verdict.merge(v);
    }
    probe.exact("cosim.golden_mismatch_lines", mismatches as f64);
    for (i, name) in ["cosim.table5_s", "cosim.fig17_s", "cosim.fig10_s"]
        .into_iter()
        .enumerate()
    {
        probe.set(name, Reading::of(&[first.table_s[i], second.table_s[i]]));
    }

    let w = SimWorkload::new(ModelKind::Gcn, DatasetKind::Papers, Scale::new(scale), seed);
    let mut trace = None;
    let us = time_each(3, 3, 0.0, |_| {
        trace = Some(EpochTrace::record(&w, Kernel::FisherYates, 2));
    });
    probe.set("trace.record_fy_ms", ms(&us));
    let us = time_each(3, 3, 0.0, |_| {
        black_box(EpochTrace::record(&w, Kernel::Reservoir, 2));
    });
    probe.set("trace.record_reservoir_ms", ms(&us));
    let trace = trace.expect("recorded three times");

    let gnnlab = |gpus: Option<usize>| {
        let ctx = SimContext::new(&w, SystemKind::GnnLab);
        match gpus {
            Some(n) => ctx.with_gpus(n),
            None => ctx,
        }
    };
    let mut failed: Vec<&'static str> = Vec::new();
    let mut epoch = |name: &'static str, f: &dyn Fn() -> bool, probe: &mut Probe| {
        let mut all_ok = true;
        let us = time_each(5, 5, 0.0, |_| all_ok &= f());
        if !all_ok {
            failed.push(name);
        }
        probe.set(name, ms(&us));
    };
    let two = gnnlab(Some(2));
    epoch(
        "runtime.factored_epoch_ms",
        &|| run_factored_epoch(&two, &trace, 1, 1, false).is_ok(),
        probe,
    );
    let tsota = SimContext::new(&w, SystemKind::TSota).with_gpus(2);
    epoch(
        "runtime.timeshare_epoch_ms",
        &|| run_timeshare_epoch(&tsota, &trace).is_ok(),
        probe,
    );
    let one = gnnlab(Some(1));
    epoch(
        "runtime.single_gpu_epoch_ms",
        &|| run_single_gpu_epoch(&one, &trace).is_ok(),
        probe,
    );
    let eight = gnnlab(None);
    epoch(
        "runtime.agl_epoch_ms",
        &|| run_agl_epoch(&eight, &trace).is_ok(),
        probe,
    );
    epoch(
        "runtime.preprocess_ms",
        &|| preprocess_report(&eight, &trace).is_ok(),
        probe,
    );
    for name in failed {
        probe
            .verdict
            .problem(format!("{name}: the simulated epoch returned an error"));
    }
}

/// Runs the traced pass of `w` and returns the per-layer report.
pub fn run(w: &Workload, seed: u64, seconds: f64, out_dir: &Path) -> RunReport {
    let spec = &w.threaded;
    let ckpt_dir = out_dir.join("ckpt");
    let mut probe = Probe::default();
    // The host's state at both ends of the pass.
    let mut host = Reference::default();
    let mut reference_s: Vec<f64> = (0..10).map(|_| host.read(w.overlap)).collect();

    // Staged replay: once to warm up (discarded), once without spans,
    // once with; the difference of the last two is what the benchmark's
    // own spans cost.
    let mut tracer = Tracer::new(true);
    let staged = stage(spec, seed, &mut tracer, &mut probe);
    replay(spec, seed, &staged, &ckpt_dir, &mut Tracer::new(false));
    let untraced = replay(spec, seed, &staged, &ckpt_dir, &mut Tracer::new(false));
    staged.store.reset_stats();
    let traced = replay(spec, seed, &staged, &ckpt_dir, &mut tracer);
    let replayed = staged.batches.len() as f64;
    probe.exact("cache.hit_rate", staged.store.stats().hit_rate());
    probe.exact(
        "bench.trace_overhead_share",
        (traced.wall_s - untraced.wall_s) / untraced.wall_s,
    );
    probe.exact("sampling.edges_per_batch", mean(&traced.edges));
    probe.exact("sampling.input_nodes_per_batch", mean(&traced.input_nodes));
    probe.exact(
        "cache.extract_bytes_per_batch",
        mean(&traced.input_nodes) * staged.graph.feat_dim as f64 * 4.0,
    );
    probe.exact("tensor.flops_per_batch", mean(&traced.flops));

    let all = tracer.spans();
    let by_name = spans::durations_us(all);
    let span = |name: &str| {
        by_name
            .get(name)
            .map_or_else(|| Reading::exact(0.0), |d| Reading::of(d))
    };
    for (name, set_up) in [
        ("cache.presc_hotness_ms", "cache.presc_hotness"),
        ("cache.load_topk_ms", "cache.load_topk"),
        ("cache.fill_ms", "cache.fill"),
    ] {
        probe.exact(name, span(set_up).value / 1e3);
    }
    probe.set("tensor.forward_us_per_batch", span("tensor.forward"));
    probe.set("tensor.backward_us_per_batch", span("tensor.backward"));
    probe.set("tensor.adam_step_us", span("tensor.optim"));
    probe.set("tensor.param_copy_us", span("tensor.param_copy"));
    probe.set("threaded.replay_serial_us_per_batch", span("batch"));
    let coverage = spans::coverage(all, "batch");
    probe.exact("replay.span_coverage", coverage);
    if coverage < 0.95 {
        probe.verdict.problem(format!(
            "replay.span_coverage {coverage:.3} below 0.95: the layer spans do not account for the batch wall"
        ));
    }
    // Self time per layer and batch, over the spans that belong to a
    // batch (the set-up spans above carry no batch id).
    let self_us = spans::self_time_us_by_name(all);
    let mut layer_self: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, own) in all.iter().zip(spans::self_times_ns(all)) {
        if s.batch.is_some() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layer_self.entry(layer).or_default() += own as f64 / 1e3;
        }
    }
    for (name, layer) in [
        ("span.sampling_self_us_per_batch", "sampling"),
        ("span.queue_self_us_per_batch", "queue"),
        ("span.cache_self_us_per_batch", "cache"),
        ("span.tensor_self_us_per_batch", "tensor"),
        ("span.checkpoint_self_us_per_batch", "checkpoint"),
        ("span.batch_self_us_per_batch", "batch"),
    ] {
        probe.exact(
            name,
            layer_self.get(layer).copied().unwrap_or(0.0) / replayed,
        );
    }

    sampling_probes(spec, seed, &staged, &mut probe);
    extract_probes(&staged, &traced.input_ids, &mut probe);
    matmul_probe(
        spec,
        mean(&traced.input_nodes) as usize,
        staged.graph.feat_dim,
        &mut probe,
    );
    handoff_probes(&mut probe);
    checkpoint_probes(&traced.state, &ckpt_dir, &mut probe);
    let warmup_s = threaded_probes(spec, seed, seconds, &staged.graph, &ckpt_dir, &mut probe);
    cosim_probes(w.cosim_scale, seed, w.face == Face::Cosim, &mut probe);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    reference_s.extend((0..10).map(|_| host.read(w.overlap)));
    probe.exact("host.reference_ms", reference::reading(&reference_s) * 1e3);

    // What the runtime's wall per batch leaves unexplained: the wall
    // minus the busier of the two sides of the queue, each side the sum
    // of its replayed steps (checkpoint writes amortized over batches).
    let med = |name: &str| by_name.get(name).map_or(0.0, |d| median(d));
    let producer = med("sampling.sample") + med("cache.mark") + med("queue.enqueue");
    let consumer = med("queue.dequeue")
        + med("cache.extract")
        + med("tensor.param_copy")
        + med("tensor.forward")
        + med("tensor.backward")
        + med("tensor.optim")
        + med("queue.complete")
        + probe.readings["span.checkpoint_self_us_per_batch"].value;
    let wall = probe.readings["threaded.wall_us_per_batch"].value;
    let serial = probe.readings["threaded.replay_serial_us_per_batch"].value;
    probe.exact("threaded.overlap_factor", serial / wall);
    probe.exact(
        "threaded.unattributed_us_per_batch",
        wall - producer.max(consumer),
    );

    let trace_path = out_dir.join("trace.json");
    let text = serde_json::to_string(&spans::chrome_trace(all)).expect("a Value always renders");
    if let Err(e) = std::fs::write(&trace_path, text) {
        probe
            .verdict
            .problem(format!("cannot write {}: {e}", trace_path.display()));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|decl| Metric {
            name: decl.name,
            unit: decl.unit,
            reading: probe
                .readings
                .remove(decl.name)
                .unwrap_or_else(|| unreachable!("per-layer metric {} has no source", decl.name)),
        })
        .collect();
    let self_table = obj(self_us
        .iter()
        .map(|(name, us)| (*name, Value::F64(*us)))
        .collect());
    RunReport {
        workload: w.name,
        seed,
        seconds,
        traced: true,
        verdict: probe.verdict,
        metrics,
        reps: replayed as usize,
        warmup_s,
        extra: vec![
            ("trace_file", Value::Str(trace_path.display().to_string())),
            ("replayed_batches", Value::U64(replayed as u64)),
            ("self_time_us", self_table),
        ],
    }
}
