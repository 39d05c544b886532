//! A steady-state batch of the threaded runtime allocates (almost)
//! nothing: trained tasks go back to the Sampler and are refilled in
//! place, and the parameter pull, push and optimizer step collect nothing.
//!
//! Each of the perf harness's three threaded workload shapes runs twice,
//! at two lengths, under a counting global allocator. Everything a run
//! pays once — pre-sampling, cache fills, thread spawns, evaluation, the
//! first tasks while the queue fills — is paid by both runs alike, so
//! the difference in allocations over the difference in batches is what
//! one more batch costs. The longer run trains at least ten queue
//! capacities more batches, so even the tasks made while the queue first
//! fills are a small share of the difference. The verdict counts
//! allocations and reads no clock. The two batch-256 shapes run under
//! `--release` only (CI runs this file so); the unoptimised build takes
//! minutes over their ~900 batches.

use gnnlab::core::threaded::{run_threaded, ThreadedConfig};
use gnnlab::graph::gen::{sbm, SbmGraph, SbmParams};
use gnnlab::tensor::ModelKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Counts every allocation and reallocation of the process.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; both are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A threaded harness workload's shape, at a tenth of its vertices.
struct Shape {
    name: &'static str,
    vertices: usize,
    classes: usize,
    avg_degree: f64,
    feat_dim: usize,
    model: ModelKind,
    hidden: usize,
    lr: f32,
    batch: usize,
    queue: usize,
}

/// Holds a count's window shut to the other tests of this file: the
/// counter sees every thread of the process.
static ALONE: Mutex<()> = Mutex::new(());

/// Allocations of one `run_threaded` of `shape` over `epochs`, and the
/// batches it trained.
fn count_run(shape: &Shape, graph: &SbmGraph, epochs: usize) -> (u64, u64) {
    let cfg = ThreadedConfig {
        num_samplers: 1,
        num_trainers: 1,
        epochs,
        batch_size: shape.batch,
        hidden_dim: shape.hidden,
        lr: shape.lr,
        seed: 42,
        cache_alpha: 0.2,
        queue_capacity: shape.queue,
        dynamic_switching: true,
        threads: 1,
        ..ThreadedConfig::default()
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let res = run_threaded(graph, shape.model, &cfg).expect("no faults injected");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (allocs, res.batches_trained as u64)
}

/// Counts a short and a long run of `shape` and holds the difference per
/// extra batch under ten allocations.
fn assert_steady_state(shape: &Shape) {
    let graph = sbm(&SbmParams {
        num_vertices: shape.vertices,
        num_classes: shape.classes,
        avg_degree: shape.avg_degree,
        intra_prob: 0.85,
        feat_dim: shape.feat_dim,
        noise: 0.6,
        seed: 42,
    })
    .expect("valid SBM parameters");
    let per_epoch = (shape.vertices / 2).div_ceil(shape.batch);
    // The short run already fills the queue. The long one trains ten queue
    // capacities more, and at least 500 batches more, so that what only
    // one of the runs may pay once — a standby's start-up when its Sampler
    // switches — is a small share of the difference too.
    let short = (2 * shape.queue).div_ceil(per_epoch);
    let long = short + (10 * shape.queue).max(500).div_ceil(per_epoch);
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let (a_short, b_short) = count_run(shape, &graph, short);
    let (a_long, b_long) = count_run(shape, &graph, long);
    assert!(b_long - b_short >= 10 * shape.queue as u64);
    let per_batch = (a_long as f64 - a_short as f64) / (b_long - b_short) as f64;
    println!(
        "{}: {a_short} allocations over {b_short} batches, {a_long} over {b_long}: \
         {per_batch:.2} per extra batch",
        shape.name
    );
    assert!(
        per_batch < 10.0,
        "{}: an extra batch cost {per_batch:.2} allocations",
        shape.name
    );
}

/// `handoff_bound`: batch 8, hidden 4, queue 4.
#[test]
fn handoff_shape_allocates_almost_nothing_per_batch() {
    assert_steady_state(&Shape {
        name: "handoff",
        vertices: 2_000,
        classes: 4,
        avg_degree: 6.0,
        feat_dim: 8,
        model: ModelKind::GraphSage,
        hidden: 4,
        lr: 0.01,
        batch: 8,
        queue: 4,
    });
}

/// `train_bound`: GraphSAGE, batch 256, feat 64, queue 64.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "~900 batches of 256 seeds take minutes unoptimised; run with --release"
)]
fn train_shape_allocates_almost_nothing_per_batch() {
    assert_steady_state(&Shape {
        name: "train",
        vertices: 2_048,
        classes: 8,
        avg_degree: 15.0,
        feat_dim: 64,
        model: ModelKind::GraphSage,
        hidden: 32,
        lr: 0.01,
        batch: 256,
        queue: 64,
    });
}

/// `sample_bound`: GCN 3-hop on degree 30, batch 256, queue 64.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "~900 batches of 256 seeds take minutes unoptimised; run with --release"
)]
fn sample_shape_allocates_almost_nothing_per_batch() {
    assert_steady_state(&Shape {
        name: "sample",
        vertices: 2_048,
        classes: 8,
        avg_degree: 30.0,
        feat_dim: 8,
        model: ModelKind::Gcn,
        hidden: 8,
        lr: 0.05,
        batch: 256,
        queue: 64,
    });
}
