//! One workload's sampled epochs: its traces, visit counts and cache
//! rankings, each sampled or ranked once, and the co-sim cells over them.

use super::{run_system_on, SimContext};
use crate::report::{EpochReport, RunError};
use crate::systems::SystemKind;
use crate::trace::{Epoch, EpochTrace};
use crate::workload::Workload;
use gnnlab_cache::{cache_rows, load_cache_topk, CachePolicy, CacheStats, CacheTable, PolicyKind};
use gnnlab_par::host_pool;
use gnnlab_sampling::{FootprintRecorder, Kernel};
use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};

/// A workload, the epochs sampled for it so far and its cache rankings —
/// what a training run samples and ranks once, shared by every co-sim
/// cell over the workload.
///
/// An epoch is kept in a slot keyed by the sampling kernel — none for a
/// sampler that takes no kernel (random walks draw the same for every
/// system) — and the epoch index, and is sampled by one pass
/// ([`EpochTrace::record_with_pool`]) the first time a trace or a ranking
/// asks for it. The Fisher–Yates or kernel-free slot of epoch `e` yields
/// both its trace and its visit counts; a Reservoir slot, its trace
/// alone. PreSC#K and Optimal#E rank by the mean visit count over slots
/// `0..K` (`0..E`): a trace and a ranking over one epoch sample it once,
/// and PreSC#1 with Optimal#3 sample three epochs, not four. The counts
/// merge as integer sums before the one division, so every hotness bit
/// is the one [`CachePolicy::hotness`] computes.
///
/// A policy's hotness is computed the first time a table needs it, and
/// ranked as deep as the largest table asked for so far: a smaller table
/// is a prefix of that ranking, a larger one ranks deeper (a table of `k`
/// rows sorts `k` vertices, not all of them).
pub struct EpochStore<'w> {
    workload: Cow<'w, Workload>,
    /// The first slot. Each slot links the next and none is ever removed,
    /// so a handle on one stays valid while later ones are added.
    slots: OnceCell<Box<Slot>>,
    /// Per policy: its hotness map and its deepest ranking so far.
    ranked: RefCell<Vec<(PolicyKind, Vec<f64>, CacheTable)>>,
}

/// One epoch of the store, sampled on first use.
struct Slot {
    kernel: Option<Kernel>,
    epoch: u64,
    sampled: OnceCell<(EpochTrace, FootprintRecorder)>,
    next: OnceCell<Box<Slot>>,
}

impl Slot {
    /// The epoch's trace and its visit counts (of no vertex in a
    /// Reservoir slot), sampled now if nothing has asked for them yet.
    fn sampled(&self, workload: &Workload) -> &(EpochTrace, FootprintRecorder) {
        self.sampled.get_or_init(|| {
            let kernel = self.kernel.unwrap_or(Kernel::FisherYates);
            let count = kernel == Kernel::FisherYates;
            let size = workload.batch_size();
            EpochTrace::record_with_pool(workload, kernel, self.epoch, size, count, host_pool())
        })
    }
}

impl EpochStore<'static> {
    /// A store that owns `workload`.
    pub fn new(workload: Workload) -> Self {
        Self::with(Cow::Owned(workload))
    }
}

impl<'w> EpochStore<'w> {
    /// A one-off store over a borrowed workload.
    pub(crate) fn over(workload: &'w Workload) -> Self {
        Self::with(Cow::Borrowed(workload))
    }

    fn with(workload: Cow<'w, Workload>) -> Self {
        EpochStore {
            workload,
            slots: OnceCell::new(),
            ranked: RefCell::new(Vec::new()),
        }
    }

    /// The workload whose epochs the store keeps.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The slot of epoch `epoch` as `kernel` draws it, added if new.
    fn slot(&self, kernel: Kernel, epoch: u64) -> &Slot {
        let kernel = self.workload.algorithm.uses_kernel().then_some(kernel);
        let mut link = &self.slots;
        while let Some(slot) = link.get() {
            if (slot.kernel, slot.epoch) == (kernel, epoch) {
                return slot;
            }
            link = &slot.next;
        }
        link.get_or_init(|| {
            Box::new(Slot {
                kernel,
                epoch,
                sampled: OnceCell::new(),
                next: OnceCell::new(),
            })
        })
    }

    /// Epoch `epoch` as `kernel` draws it, sampled when first asked for.
    pub(crate) fn epoch(&self, kernel: Kernel, epoch: u64) -> LazyEpoch<'_> {
        LazyEpoch {
            workload: &self.workload,
            slot: self.slot(kernel, epoch),
        }
    }

    /// Epoch `epoch` as `kernel` draws it, sampled now if nothing has
    /// asked for it yet.
    pub fn trace(&self, kernel: Kernel, epoch: u64) -> &EpochTrace {
        self.epoch(kernel, epoch).get()
    }

    /// The cache `policy` loads at ratio `alpha`, cut from its ranking.
    /// At `alpha <= 0` the table is empty and nothing is ranked.
    pub fn cache(&self, policy: PolicyKind, alpha: f64) -> CacheTable {
        let n = self.workload.dataset.csr.num_vertices();
        if alpha <= 0.0 {
            return CacheTable::empty(n);
        }
        let rows = cache_rows(alpha, n);
        let mut ranked = self.ranked.borrow_mut();
        let at = ranked
            .iter()
            .position(|r| r.0 == policy)
            .unwrap_or_else(|| {
                ranked.push((policy, self.hotness(policy), CacheTable::empty(n)));
                ranked.len() - 1
            });
        let (_, hotness, top) = &mut ranked[at];
        if top.len() < rows {
            *top = load_cache_topk(hotness, rows, n);
        }
        top.prefix(rows)
    }

    /// The hotness map `policy` gives the workload's vertices: the mean
    /// visit count over the held epochs where it pre-samples.
    fn hotness(&self, policy: PolicyKind) -> Vec<f64> {
        let w = self.workload();
        let ds = &w.dataset;
        match policy {
            PolicyKind::PreSC { k: count } | PolicyKind::Optimal { epochs: count } => {
                let mut visits = FootprintRecorder::new(ds.csr.num_vertices());
                for epoch in 0..u64::from(count) {
                    visits.merge(&self.slot(Kernel::FisherYates, epoch).sampled(w).1);
                }
                visits.hotness()
            }
            _ => {
                let algo = w.sampler(Kernel::FisherYates);
                let (size, seed) = (w.batch_size(), w.seed);
                CachePolicy::hotness(policy, &ds.csr, &ds.train_set, algo.as_ref(), size, seed)
                    .hotness
            }
        }
    }

    /// What one cell runs on: the standard context of `system` on `gpus`
    /// GPUs (its default policy, epoch 2, no hub), planning its caches
    /// from this store's rankings, and the epoch that system's kernel
    /// draws, sampled only when a planned placement asks for it.
    pub fn cell(&self, system: SystemKind, gpus: usize) -> (SimContext<'_>, LazyEpoch<'_>) {
        let mut ctx = SimContext::new(&self.workload, system).with_gpus(gpus);
        ctx.store = Some(self);
        let epoch = self.epoch(system.kernel(), ctx.epoch);
        (ctx, epoch)
    }

    /// One epoch of `system` on `gpus` GPUs under the engine's own
    /// system → placement rule.
    pub fn run_system(&self, system: SystemKind, gpus: usize) -> Result<EpochReport, RunError> {
        let (ctx, epoch) = self.cell(system, gpus);
        run_system_on(&ctx, &epoch)
    }
}

/// One epoch of an [`EpochStore`], sampled into its slot the first time
/// [`Epoch::trace`] is called. The slot outlives the handle, so one pass
/// serves every later handle and ranking over it.
#[derive(Clone, Copy)]
pub struct LazyEpoch<'a> {
    workload: &'a Workload,
    slot: &'a Slot,
}

impl<'a> LazyEpoch<'a> {
    /// The epoch, sampled now if nothing has asked for it yet.
    fn get(self) -> &'a EpochTrace {
        &self.slot.sampled(self.workload).0
    }
}

impl Epoch for LazyEpoch<'_> {
    fn trace(&self) -> &EpochTrace {
        self.get()
    }
}

/// Accumulates cache statistics of `table` over a recorded epoch of
/// `workload`.
pub fn cache_stats_on_trace(
    workload: &Workload,
    trace: &EpochTrace,
    table: &CacheTable,
) -> CacheStats {
    let row_bytes = workload.dataset.row_bytes();
    let mut stats = CacheStats::default();
    for b in &trace.batches {
        stats.record(table, &b.input_nodes, row_bytes);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_agl_epoch, run_factored_epoch, run_single_gpu_epoch};
    use gnnlab_cache::load_cache;
    use gnnlab_graph::{DatasetKind, Scale};
    use gnnlab_tensor::ModelKind;

    fn workload() -> Workload {
        Workload::new(
            ModelKind::GraphSage,
            DatasetKind::Products,
            Scale::new(4096),
            1,
        )
    }

    /// Every slot of `store` in the order it was added: its key and
    /// whether it has been sampled.
    fn slots(store: &EpochStore<'_>) -> Vec<(Option<Kernel>, u64, bool)> {
        let mut out = Vec::new();
        let mut link = &store.slots;
        while let Some(slot) = link.get() {
            out.push((slot.kernel, slot.epoch, slot.sampled.get().is_some()));
            link = &slot.next;
        }
        out
    }

    /// How many of the cells' epochs (epoch 2) `kernel` draws have been
    /// sampled (`None`: of those keyed by epoch alone).
    fn recorded(store: &EpochStore<'_>, kernel: Option<Kernel>) -> usize {
        let drawn = |s: &&(_, _, _)| *s == &(kernel, 2, true);
        slots(store).iter().filter(drawn).count()
    }

    #[test]
    fn cache_table_sizes_with_alpha() {
        let store = EpochStore::new(workload());
        let n = store.workload().dataset.csr.num_vertices();
        let t = store.cache(PolicyKind::Degree, 0.25);
        assert_eq!(t.len(), (n as f64 * 0.25).ceil() as usize);
        assert!(store.cache(PolicyKind::Degree, 0.0).is_empty());
    }

    #[test]
    fn rankings_presample_each_epoch_once_and_keep_every_hotness_bit() {
        let w = workload();
        let store = EpochStore::over(&w);
        let ds = &w.dataset;
        let algo = w.sampler(Kernel::FisherYates);
        let fresh = |policy| {
            let size = w.batch_size();
            CachePolicy::hotness(policy, &ds.csr, &ds.train_set, algo.as_ref(), size, w.seed)
                .hotness
        };
        let n = ds.csr.num_vertices();
        let policies = [
            PolicyKind::PreSC { k: 1 },
            PolicyKind::Optimal { epochs: 3 },
            PolicyKind::PreSC { k: 2 },
            PolicyKind::Degree,
            PolicyKind::Random,
        ];
        for policy in policies {
            // Ranked to 30 %, cut to 5 %, ranked again to all vertices.
            for alpha in [0.3, 0.05, 1.0] {
                let cut = store.cache(policy, alpha);
                let want = load_cache(&fresh(policy), alpha, n);
                assert_eq!(cut.cached_vertices(), want.cached_vertices(), "{policy:?}");
            }
        }
        let fy = Some(Kernel::FisherYates);
        let epochs = [(fy, 0, true), (fy, 1, true), (fy, 2, true)];
        assert_eq!(slots(&store), epochs, "epochs 0, 1, 2 once each");
        for count in [0, 1, 3] {
            let bits = |h: Vec<f64>| h.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let policy = PolicyKind::PreSC { k: count };
            assert_eq!(
                bits(store.hotness(policy)),
                bits(fresh(policy)),
                "PreSC#{count}"
            );
        }
    }

    /// Fig. 10's order: PreSC#1, Optimal#3, then the measured trace of
    /// epoch 2 — three epochs, each sampled by one pass, and the trace
    /// is the one `EpochTrace::record` makes.
    #[test]
    fn a_trace_and_rankings_over_one_epoch_sample_it_once() {
        let store = EpochStore::new(workload());
        store.cache(PolicyKind::PreSC { k: 1 }, 0.1);
        store.cache(PolicyKind::Optimal { epochs: 3 }, 0.1);
        let trace = store.trace(Kernel::FisherYates, 2);
        let fy = Some(Kernel::FisherYates);
        assert_eq!(slots(&store), [(fy, 0, true), (fy, 1, true), (fy, 2, true)]);
        let want = EpochTrace::record(store.workload(), Kernel::FisherYates, 2);
        assert_eq!(trace.factor.to_bits(), want.factor.to_bits());
        assert_eq!(trace.launch_scale.to_bits(), want.launch_scale.to_bits());
        assert_eq!(trace.num_batches(), want.num_batches());
        for (x, y) in trace.batches.iter().zip(&want.batches) {
            assert_eq!(x.work, y.work);
            assert_eq!(x.input_nodes, y.input_nodes);
            assert_eq!(x.flops.to_bits(), y.flops.to_bits());
            assert_eq!(x.queue_bytes, y.queue_bytes);
        }
    }

    /// A context from `SimContext::new` keeps one store across the runs
    /// planned over it: PreSC#1 pre-samples epoch 0 once, not per run.
    #[test]
    fn runs_planned_over_one_context_presample_once() {
        let w = workload();
        let ctx = SimContext::new(&w, SystemKind::GnnLab);
        let trace = EpochTrace::record(&w, Kernel::FisherYates, 2);
        run_factored_epoch(&ctx, &trace, 1, 7, true).expect("factored fits");
        run_single_gpu_epoch(&ctx, &trace).expect("single GPU fits");
        run_agl_epoch(&ctx, &trace).expect("AGL fits");
        let fy = Some(Kernel::FisherYates);
        assert_eq!(slots(ctx.store()), [(fy, 0, true)]);
    }

    fn scale_8192(model: ModelKind, kind: DatasetKind) -> EpochStore<'static> {
        EpochStore::new(Workload::new(model, kind, Scale::new(8192), 42))
    }

    #[test]
    fn a_cell_that_cannot_fit_records_no_trace() {
        let w = scale_8192(ModelKind::Gcn, DatasetKind::Uk);
        let dgl = w.run_system(SystemKind::DglLike, 2);
        assert!(matches!(dgl, Err(RunError::Oom { .. })), "{dgl:?}");
        assert_eq!(recorded(&w, Some(Kernel::Reservoir)), 0);
        w.run_system(SystemKind::GnnLab, 2).expect("GNNLab fits UK");
        assert_eq!(recorded(&w, Some(Kernel::FisherYates)), 1);
        assert_eq!(recorded(&w, Some(Kernel::Reservoir)), 0);
    }

    #[test]
    fn a_sampler_that_takes_no_kernel_records_one_trace_for_every_system() {
        let w = scale_8192(ModelKind::PinSage, DatasetKind::Products);
        assert!(!w.workload().algorithm.uses_kernel());
        for system in [SystemKind::DglLike, SystemKind::TSota, SystemKind::GnnLab] {
            let rep = w.run_system(system, 2);
            assert!(rep.is_ok(), "{system:?} on PinSAGE/PA: {rep:?}");
        }
        let cells = slots(&w).into_iter().filter(|s| s.1 == 2).count();
        assert_eq!(cells, 1);
        assert_eq!(recorded(&w, None), 1);
    }
}
