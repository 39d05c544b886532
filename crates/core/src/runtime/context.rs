//! Shared simulation context and helpers: a batch's cost inputs, and
//! the cache tables a placement plans: [`build_cache_table`] ranks the
//! workload's vertices for one table, [`Rankings`] keeps one ranking per
//! policy so every table of a workload is a prefix of it, and each
//! pre-sampled epoch's visit counts so PreSC#K and Optimal#E share them.

use crate::systems::SystemKind;
use crate::trace::BatchTrace;
use crate::workload::Workload;
use gnnlab_cache::{cache_rows, load_cache, load_cache_topk, CachePolicy, CacheTable, PolicyKind};
use gnnlab_obs::Obs;
use gnnlab_sampling::{presample_epoch, FootprintRecorder, Kernel, MinibatchIter};
use gnnlab_sim::{CostModel, SampleCost, Testbed};
use std::cell::RefCell;

/// Everything an epoch simulation needs besides the trace.
pub struct SimContext<'a> {
    /// The workload under test.
    pub workload: &'a Workload,
    /// Which system design to simulate.
    pub system: SystemKind,
    /// The machine model.
    pub testbed: Testbed,
    /// The calibrated cost model.
    pub cost: CostModel,
    /// Caching policy for systems that cache (T_SOTA defaults to Degree,
    /// GNNLab to PreSC#1; Figs. 12/13 swap these).
    pub policy: PolicyKind,
    /// Epoch index to simulate (selects the deterministic shuffle).
    pub epoch: u64,
    /// Optional observability hub: when set, the runtimes record
    /// per-stage spans (in virtual time) and metrics into it.
    pub obs: Option<&'a Obs>,
    /// Rankings of this workload's vertices kept across contexts: when
    /// set, a planned cache is a prefix of the policy's ranking there,
    /// otherwise it is ranked afresh ([`build_cache_table`]).
    pub rankings: Option<&'a Rankings>,
}

impl<'a> SimContext<'a> {
    /// Standard context for `system` on `workload`: the paper's 8-GPU
    /// testbed, default cost model, and each system's default policy
    /// (Degree for T_SOTA, PreSC#1 for GNNLab).
    pub fn new(workload: &'a Workload, system: SystemKind) -> Self {
        let policy = match system {
            SystemKind::GnnLab => PolicyKind::PreSC { k: 1 },
            _ => PolicyKind::Degree,
        };
        SimContext {
            workload,
            system,
            testbed: Testbed::paper(),
            cost: CostModel::default(),
            policy,
            epoch: 2,
            obs: None,
            rankings: None,
        }
    }

    /// Overrides the GPU count.
    pub fn with_gpus(mut self, n: usize) -> Self {
        self.testbed = self.testbed.with_gpus(n);
        self
    }

    /// Attaches an observability hub; the runtimes record spans and
    /// metrics into it. `None` detaches (the default).
    pub fn with_obs(mut self, obs: Option<&'a Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// Overrides the caching policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Cuts planned caches from `rankings`, which must rank this
    /// context's workload.
    pub fn with_rankings(mut self, rankings: &'a Rankings) -> Self {
        self.rankings = Some(rankings);
        self
    }

    /// The cache of the context's policy at ratio `alpha`.
    pub(super) fn cache_table(&self, alpha: f64) -> CacheTable {
        match self.rankings {
            Some(r) => r.table(self.workload, self.policy, alpha),
            None => build_cache_table(self.workload, self.policy, alpha),
        }
    }

    /// Paper-scale sampling cost inputs for one batch of `trace`.
    pub fn sample_cost(&self, b: &BatchTrace, trace: &crate::trace::EpochTrace) -> SampleCost {
        SampleCost {
            edges_scanned: b.work.edges_scanned as f64 * trace.factor,
            rng_draws: b.work.rng_draws as f64 * trace.factor,
            // Kernel launches are per-batch; when the 32-seed floor shrank
            // the batch count, launch_scale restores the paper's per-epoch
            // launch total.
            kernel_launches: b.work.kernel_launches as f64 * trace.launch_scale,
        }
    }

    /// Paper-scale (miss, hit) extract bytes for one batch against an
    /// optional cache.
    pub fn extract_bytes(
        &self,
        b: &BatchTrace,
        cache: Option<&CacheTable>,
        factor: f64,
    ) -> (f64, f64) {
        let row = self.workload.dataset.row_bytes() as f64;
        match cache {
            None => (b.input_nodes.len() as f64 * row * factor, 0.0),
            Some(t) => {
                let hits = b.input_nodes.iter().filter(|&&v| t.contains(v)).count() as f64;
                let misses = b.input_nodes.len() as f64 - hits;
                (misses * row * factor, hits * row * factor)
            }
        }
    }
}

/// Builds the cache table for `policy` at cache ratio `alpha` on the
/// workload's graph, running pre-sampling epochs if the policy requires
/// them (PreSC uses epochs `0..K` — the same shuffles the training run
/// itself sees first). At `alpha <= 0` the table is empty and nothing is
/// sampled. A smaller cache over the same policy is this table's
/// [`CacheTable::prefix`], so a run needing several ranks once.
pub fn build_cache_table(workload: &Workload, policy: PolicyKind, alpha: f64) -> CacheTable {
    let n = workload.dataset.csr.num_vertices();
    if alpha <= 0.0 {
        return CacheTable::empty(n);
    }
    load_cache(&hotness(workload, policy), alpha, n)
}

/// The hotness map `policy` gives the workload's vertices.
fn hotness(workload: &Workload, policy: PolicyKind) -> Vec<f64> {
    let algo = workload.sampler(Kernel::FisherYates);
    CachePolicy::hotness(
        policy,
        &workload.dataset.csr,
        &workload.dataset.train_set,
        algo.as_ref(),
        workload.batch_size(),
        workload.seed,
    )
    .hotness
}

/// One workload's vertices ranked under each policy asked for so far,
/// hottest first — what the paper's preprocessing computes once per run
/// (Table 6, P3). A policy's hotness is computed the first time a table
/// needs it, and ranked as deep as the largest table asked for so far:
/// a smaller table is a prefix of that ranking, a larger one ranks deeper
/// (a table of `k` rows sorts `k` vertices, not all of them). Every table
/// is the one [`build_cache_table`] would build. PreSC#K and Optimal#E
/// rank by the mean visit count over epochs `0..K` (`0..E`): each epoch
/// is pre-sampled once and its counts kept, so PreSC#1 and Optimal#3
/// pre-sample three epochs between them, not four. The counts merge as
/// integer sums before the one division, so every hotness bit is the one
/// [`CachePolicy::hotness`] computes.
#[derive(Default)]
pub struct Rankings {
    /// Per policy: its hotness map and its deepest ranking so far.
    ranked: RefCell<Vec<(PolicyKind, Vec<f64>, CacheTable)>>,
    /// Epoch `e`'s visit counts at index `e`.
    epochs: RefCell<Vec<FootprintRecorder>>,
}

impl Rankings {
    /// The cache `policy` loads at ratio `alpha` on `workload`, cut from
    /// its ranking. At `alpha <= 0` nothing is ranked.
    pub fn table(&self, workload: &Workload, policy: PolicyKind, alpha: f64) -> CacheTable {
        let n = workload.dataset.csr.num_vertices();
        if alpha <= 0.0 {
            return CacheTable::empty(n);
        }
        let rows = cache_rows(alpha, n);
        let mut ranked = self.ranked.borrow_mut();
        let at = ranked
            .iter()
            .position(|r| r.0 == policy)
            .unwrap_or_else(|| {
                let hotness = self.hotness(workload, policy);
                ranked.push((policy, hotness, CacheTable::empty(n)));
                ranked.len() - 1
            });
        let (_, hotness, top) = &mut ranked[at];
        if top.len() < rows {
            *top = load_cache_topk(hotness, rows, n);
        }
        top.prefix(rows)
    }

    /// The hotness map `policy` gives the workload's vertices, from the
    /// held epochs where it pre-samples.
    fn hotness(&self, workload: &Workload, policy: PolicyKind) -> Vec<f64> {
        match policy {
            PolicyKind::PreSC { k: count } | PolicyKind::Optimal { epochs: count } => {
                self.mean_visits(workload, count as usize)
            }
            _ => hotness(workload, policy),
        }
    }

    /// The mean visit count of each vertex over epochs `0..count`,
    /// pre-sampling on the host pool those not yet held — the epochs
    /// `CachePolicy::hotness` would pre-sample, batch for batch.
    fn mean_visits(&self, workload: &Workload, count: usize) -> Vec<f64> {
        let mut epochs = self.epochs.borrow_mut();
        let algo = workload.sampler(Kernel::FisherYates);
        let ds = &workload.dataset;
        let mut order = Vec::new();
        for epoch in epochs.len() as u64..count as u64 {
            MinibatchIter::shuffle_into(&ds.train_set, workload.seed, epoch, &mut order);
            let out = presample_epoch(
                &ds.csr,
                &order,
                algo.as_ref(),
                workload.batch_size(),
                workload.seed,
                epoch,
                0,
                gnnlab_par::host_pool(),
            );
            epochs.push(out.recorder);
        }
        let mut visits = FootprintRecorder::new(ds.csr.num_vertices());
        for epoch in &epochs[..count] {
            visits.merge(epoch);
        }
        visits.hotness()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn default_policies_per_system() {
        let w = workload();
        assert_eq!(
            SimContext::new(&w, SystemKind::TSota).policy,
            PolicyKind::Degree
        );
        assert_eq!(
            SimContext::new(&w, SystemKind::GnnLab).policy,
            PolicyKind::PreSC { k: 1 }
        );
    }

    #[test]
    fn cache_table_sizes_with_alpha() {
        let w = workload();
        let n = w.dataset.csr.num_vertices();
        let t = build_cache_table(&w, PolicyKind::Degree, 0.25);
        assert_eq!(t.len(), (n as f64 * 0.25).ceil() as usize);
        assert!(build_cache_table(&w, PolicyKind::Degree, 0.0).is_empty());
    }

    #[test]
    fn rankings_presample_each_epoch_once_and_keep_every_hotness_bit() {
        let w = workload();
        let rankings = Rankings::default();
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
                let cut = rankings.table(&w, policy, alpha);
                let fresh = build_cache_table(&w, policy, alpha);
                assert_eq!(cut.cached_vertices(), fresh.cached_vertices(), "{policy:?}");
            }
        }
        assert_eq!(
            rankings.epochs.borrow().len(),
            3,
            "epochs 0, 1, 2 once each"
        );
        for count in [0, 1, 3] {
            let bits = |h: Vec<f64>| h.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let shared = rankings.mean_visits(&w, count as usize);
            let fresh = hotness(&w, PolicyKind::PreSC { k: count });
            assert_eq!(bits(shared), bits(fresh), "PreSC#{count}");
        }
    }

    #[test]
    fn extract_bytes_split_miss_hit() {
        let w = workload();
        let ctx = SimContext::new(&w, SystemKind::GnnLab);
        let trace = crate::trace::EpochTrace::record(&w, Kernel::FisherYates, 0);
        let b = &trace.batches[0];
        let full_cache = build_cache_table(&w, PolicyKind::Degree, 1.0);
        let (miss, hit) = ctx.extract_bytes(b, Some(&full_cache), 1.0);
        assert_eq!(miss, 0.0);
        assert!(hit > 0.0);
        let (miss2, hit2) = ctx.extract_bytes(b, None, 1.0);
        assert_eq!(hit2, 0.0);
        assert!((miss2 - hit).abs() < 1e-9);
    }
}
