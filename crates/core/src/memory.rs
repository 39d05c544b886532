//! Per-system GPU memory planning.
//!
//! The paper's first challenge (§3) is pure capacity accounting: graph
//! topology, runtime workspaces and the feature cache compete for 16 GB.
//! This module plans each system's allocations on a [`GpuMemory`] ledger
//! (all sizes paper-scale) and derives the resulting cache ratio α; plans
//! that do not fit surface as the `OOM` entries of Tables 4/5.

use crate::report::RunError;
use crate::systems::SystemKind;
use crate::workload::Workload;
use gnnlab_sampling::AlgorithmKind;
use gnnlab_sim::{GpuMemory, Testbed};
use gnnlab_tensor::ModelKind;

const GB: f64 = 1_073_741_824.0;

/// Sampling runtime workspace (frontier buffers, RNG state, temp arrays)
/// at paper scale, by algorithm. The DGL baseline's reservoir sampler
/// keeps larger temporaries (per-vertex buffers plus Python-side tensors);
/// the paper measured "about 1.3 GB" for DGL's 3-hop GCN sampling.
pub fn sample_workspace_bytes(system: SystemKind, algo: AlgorithmKind) -> u64 {
    let native = match algo {
        AlgorithmKind::Khop3Random | AlgorithmKind::Khop3Weighted => 1.3 * GB,
        AlgorithmKind::Khop2Random => 0.6 * GB,
        AlgorithmKind::RandomWalks => 1.5 * GB,
    };
    // DGL adds PyTorch's caching-allocator slack and Python-side tensor
    // copies on top of the kernel workspace.
    let v = if system == SystemKind::DglLike {
        native + 1.5 * GB
    } else {
        native
    };
    v as u64
}

/// Model-training runtime workspace (activations, gradients, optimizer
/// state for a batch of 8000) at paper scale. The paper measured "about
/// 3.6 GB" for the 3-layer GCN.
pub fn train_workspace_bytes(model: ModelKind) -> u64 {
    let v = match model {
        ModelKind::Gcn => 3.6 * GB,
        ModelKind::GraphSage => 2.5 * GB,
        ModelKind::PinSage => 4.5 * GB,
    };
    v as u64
}

/// The memory plan of one GPU role.
#[derive(Debug, Clone)]
pub struct GpuPlan {
    /// Ledger after planning (inspectable allocations).
    pub memory: GpuMemory,
    /// Cache ratio α this role can afford (0 if it holds no cache).
    pub cache_alpha: f64,
}

/// What a GPU keeps resident while it plays a role: a set drawn from
/// {topology, sampling workspace, training workspace, feature cache}.
/// The named sets are the rows of the co-sim placement table (DESIGN §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Residency(u8);

impl Residency {
    /// Nothing on the GPU (a role that runs on the host).
    pub const NONE: Residency = Residency(0);
    /// Graph topology.
    pub const TOPOLOGY: Residency = Residency(1);
    /// Sampling runtime workspace.
    pub const SAMPLE_WS: Residency = Residency(2);
    /// Training runtime workspace.
    pub const TRAIN_WS: Residency = Residency(4);
    /// Feature cache, sized to whatever the rest leaves free.
    pub const CACHE: Residency = Residency(8);
    /// A GNNLab Sampler: topology + sampling workspace.
    pub const SAMPLER: Residency = Self::TOPOLOGY.with(Self::SAMPLE_WS);
    /// A GNNLab Trainer: training workspace + cache. No topology — that
    /// is the factored design's capacity win.
    pub const TRAINER: Residency = Self::TRAIN_WS.with(Self::CACHE);
    /// A time-sharing GPU without a cache (DGL): topology + both
    /// workspaces.
    pub const TIMESHARE: Residency = Self::SAMPLER.with(Self::TRAIN_WS);
    /// A time-sharing GPU with a cache (T_SOTA, and a GNNLab standby
    /// Trainer beside its Sampler): everything at once.
    pub const TIMESHARE_CACHED: Residency = Self::TIMESHARE.with(Self::CACHE);
    /// GNNLab's solo GPU in its Trainer half (§7.9): the sampling
    /// workspace is released, topology stays.
    pub const SOLO_TRAINER: Residency = Self::TOPOLOGY.with(Self::TRAINER);

    /// The union of two sets.
    pub const fn with(self, other: Residency) -> Residency {
        Residency(self.0 | other.0)
    }

    /// Whether every item of `other` is resident.
    pub const fn holds(self, other: Residency) -> bool {
        self.0 & other.0 == other.0
    }
}

/// Plans one GPU of `system` holding `resident`: the mandatory items are
/// allocated first, the cache takes the remainder. A PyG-like GPU holds
/// [`Residency::TRAIN_WS`] only (it samples and gathers on the CPU).
pub fn plan_gpu(
    testbed: &Testbed,
    workload: &Workload,
    system: SystemKind,
    resident: Residency,
) -> Result<GpuPlan, RunError> {
    let mut memory = testbed.gpu_memory();
    let oom = |e: gnnlab_sim::DeviceError| RunError::Oom {
        system,
        detail: e.to_string(),
    };
    let topology = workload.dataset.topo_bytes_paper();
    let sample_ws = sample_workspace_bytes(system, workload.algorithm);
    let train_ws = train_workspace_bytes(workload.model);
    for (label, item, bytes) in [
        ("topology", Residency::TOPOLOGY, topology),
        ("sample_workspace", Residency::SAMPLE_WS, sample_ws),
        ("train_workspace", Residency::TRAIN_WS, train_ws),
    ] {
        if resident.holds(item) {
            memory.alloc(label, bytes).map_err(oom)?;
        }
    }
    let mut cache_alpha = 0.0;
    if resident.holds(Residency::CACHE) {
        let feat = workload.dataset.feature_bytes_paper() as f64;
        cache_alpha = (memory.available() as f64 / feat).min(1.0);
        memory
            .alloc("feature_cache", (cache_alpha * feat) as u64)
            .map_err(oom)?;
    }
    Ok(GpuPlan {
        memory,
        cache_alpha,
    })
}

// ---------------------------------------------------------------------------
// Live-graph planning (the threaded runtime's per-executor caches).
// ---------------------------------------------------------------------------

/// Byte footprint of an in-process graph, measured from its actual CSR
/// and feature shapes — the live analogue of the paper-scale dataset
/// tables above. The threaded runtime plans per-executor caches on these
/// numbers.
#[derive(Debug, Clone, Copy)]
pub struct LiveGraphBytes {
    /// Vertices in the graph.
    pub num_vertices: usize,
    /// CSR topology bytes: `(n + 1)` u64 offsets plus one u32 per edge.
    pub topology: u64,
    /// Full feature-matrix bytes (`n × dim` f32).
    pub features: u64,
    /// Bytes of one feature row.
    pub row_bytes: u64,
}

impl LiveGraphBytes {
    /// Accounts a live graph's shapes.
    pub fn new(num_vertices: usize, num_edges: usize, feat_dim: usize) -> Self {
        let row_bytes = (feat_dim * std::mem::size_of::<f32>()) as u64;
        LiveGraphBytes {
            num_vertices,
            topology: (num_vertices as u64 + 1) * 8 + num_edges as u64 * 4,
            features: num_vertices as u64 * row_bytes,
            row_bytes,
        }
    }
}

/// Coarse per-seed neighborhood expansion of one mini-batch, by model
/// (GCN's 3-hop [15, 10, 5] fanout, GraphSage's 2-hop [25, 10], PinSage's
/// walk-based frontier). Deliberately an upper-bound-ish constant: live
/// workspace planning needs a deterministic estimate, not a measurement.
fn fanout_expansion(kind: ModelKind) -> u64 {
    match kind {
        ModelKind::Gcn => 750,
        ModelKind::GraphSage => 250,
        ModelKind::PinSage => 400,
    }
}

/// Sampling workspace (frontier buffers, RNG state, temporaries) for one
/// live mini-batch: the sampled frontier capped by the vertex count, at
/// 16 bytes per frontier entry (id + dedup/temp overhead).
pub fn live_sample_workspace_bytes(kind: ModelKind, batch_size: usize, num_vertices: usize) -> u64 {
    let frontier = (batch_size as u64 * fanout_expansion(kind)).min(num_vertices as u64);
    frontier.max(1) * 16
}

/// The cache rows of one threaded run's two consumer shapes: a dedicated
/// Trainer and a standby Trainer (a Sampler that switched, whose device
/// still holds topology and the sampling workspace — exactly why
/// `T_t' > T_t` in §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveCachePlan {
    /// Cache rows a dedicated Trainer holds: `ceil(target_alpha · n)`.
    pub trainer_rows: usize,
    /// Cache rows a standby Trainer holds (≤ `trainer_rows`).
    pub standby_rows: usize,
}

/// Plans both consumer shapes of a threaded run. The per-device budget
/// is derived so a dedicated Trainer caches exactly
/// `ceil(target_alpha · n)` rows beside its train workspace. A standby's
/// device has the same budget and the same train workspace, and also
/// keeps topology and the sampling workspace, so its cache is the
/// Trainer's bytes less those two, in whole rows — strictly fewer on any
/// graph with nonzero topology. A standby with nothing left caches no
/// rows rather than failing the run.
pub fn plan_live_run(target_alpha: f64, g: &LiveGraphBytes, sample_ws: u64) -> LiveCachePlan {
    let n = g.num_vertices;
    let target_rows = ((target_alpha.clamp(0.0, 1.0) * n as f64).ceil() as usize).min(n);
    let rows_in = |bytes: u64| ((bytes / g.row_bytes.max(1)) as usize).min(n);
    let trainer_cache = target_rows as u64 * g.row_bytes;
    LiveCachePlan {
        trainer_rows: rows_in(trainer_cache),
        standby_rows: rows_in(
            trainer_cache
                .saturating_sub(g.topology)
                .saturating_sub(sample_ws),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::{DatasetKind, Scale};

    fn testbed() -> Testbed {
        Testbed::paper()
    }

    fn wl(model: ModelKind, ds: DatasetKind) -> Workload {
        Workload::new(model, ds, Scale::new(4096), 1)
    }

    #[test]
    fn gnnlab_trainer_has_bigger_cache_than_timeshare() {
        // The §4 capacity win: on PA, the GNNLab trainer caches ~2-3x more
        // than a time-sharing GPU that also holds topology.
        let w = wl(ModelKind::Gcn, DatasetKind::Papers);
        let trainer = plan_gpu(&testbed(), &w, SystemKind::GnnLab, Residency::TRAINER).unwrap();
        let tsota = plan_gpu(
            &testbed(),
            &w,
            SystemKind::TSota,
            Residency::TIMESHARE_CACHED,
        )
        .unwrap();
        assert!(
            trainer.cache_alpha > 1.8 * tsota.cache_alpha,
            "trainer α {} vs tsota α {}",
            trainer.cache_alpha,
            tsota.cache_alpha
        );
        // Paper Table 5: GNNLab 21 %, T_SOTA 7 % for GCN on PA.
        assert!(
            trainer.cache_alpha > 0.15 && trainer.cache_alpha < 0.30,
            "α {}",
            trainer.cache_alpha
        );
    }

    #[test]
    fn uk_ooms_for_gcn_on_timeshare_but_fits_gnnlab() {
        // Table 4: UK is OOM on DGL and T_SOTA for GCN, fine on GNNLab.
        let w = wl(ModelKind::Gcn, DatasetKind::Uk);
        assert!(plan_gpu(
            &testbed(),
            &w,
            SystemKind::TSota,
            Residency::TIMESHARE_CACHED
        )
        .is_err());
        assert!(plan_gpu(&testbed(), &w, SystemKind::DglLike, Residency::TIMESHARE).is_err());
        assert!(plan_gpu(&testbed(), &w, SystemKind::GnnLab, Residency::SAMPLER).is_ok());
        assert!(plan_gpu(&testbed(), &w, SystemKind::GnnLab, Residency::TRAINER).is_ok());
    }

    #[test]
    fn uk_graphsage_fits_tsota_with_tiny_cache() {
        // Table 5: T_SOTA runs GSG on UK with R% = 0.
        let w = wl(ModelKind::GraphSage, DatasetKind::Uk);
        let plan = plan_gpu(
            &testbed(),
            &w,
            SystemKind::TSota,
            Residency::TIMESHARE_CACHED,
        )
        .unwrap();
        assert!(plan.cache_alpha < 0.06, "α {}", plan.cache_alpha);
    }

    #[test]
    fn products_fits_entirely() {
        // PR: all topology + features fit one GPU (α = 1).
        let w = wl(ModelKind::Gcn, DatasetKind::Products);
        let plan = plan_gpu(
            &testbed(),
            &w,
            SystemKind::TSota,
            Residency::TIMESHARE_CACHED,
        )
        .unwrap();
        assert!((plan.cache_alpha - 1.0).abs() < 1e-9);
        let trainer = plan_gpu(&testbed(), &w, SystemKind::GnnLab, Residency::TRAINER).unwrap();
        assert!((trainer.cache_alpha - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pyg_plan_never_holds_topology() {
        let w = wl(ModelKind::Gcn, DatasetKind::Uk);
        let plan = plan_gpu(&testbed(), &w, SystemKind::PygLike, Residency::TRAIN_WS).unwrap();
        assert!(plan.memory.allocation("topology").is_none());
        assert_eq!(plan.cache_alpha, 0.0);
    }

    #[test]
    fn live_plan_derived_budget_hits_the_target_alpha() {
        let g = LiveGraphBytes::new(600, 6000, 256);
        let sample_ws = live_sample_workspace_bytes(ModelKind::GraphSage, 32, 600);
        let plan = plan_live_run(0.5, &g, sample_ws);
        assert_eq!(plan.trainer_rows, 300);
        // The standby also holds topology + sampling workspace, so its
        // cache is strictly smaller: the Trainer's bytes less those two.
        let left = 300 * g.row_bytes - g.topology - sample_ws;
        assert_eq!(plan.standby_rows as u64, left / g.row_bytes);
        assert!((1..300).contains(&plan.standby_rows));
        // On a narrow graph topology alone outweighs the Trainer's cache,
        // and the standby caches nothing rather than failing.
        let narrow = LiveGraphBytes::new(600, 6000, 8);
        assert_eq!(plan_live_run(0.5, &narrow, sample_ws).standby_rows, 0);
    }

    #[test]
    fn live_plan_alpha_zero_plans_no_cache_rows() {
        let g = LiveGraphBytes::new(600, 6000, 8);
        let plan = plan_live_run(0.0, &g, 1024);
        assert_eq!(plan.trainer_rows, 0);
        assert_eq!(plan.standby_rows, 0);
    }

    #[test]
    fn dgl_workspace_is_larger_than_native() {
        assert!(
            sample_workspace_bytes(SystemKind::DglLike, AlgorithmKind::Khop3Random)
                > sample_workspace_bytes(SystemKind::TSota, AlgorithmKind::Khop3Random)
        );
    }
}
