//! Shared simulation context and helpers: a batch's cost inputs, and
//! the [`EpochStore`] a placement's cache tables are cut from.

use super::EpochStore;
use crate::systems::SystemKind;
use crate::trace::BatchTrace;
use crate::workload::Workload;
use gnnlab_cache::{CacheTable, PolicyKind};
use gnnlab_obs::Obs;
use gnnlab_sim::{CostModel, SampleCost, Testbed};
use std::cell::OnceCell;

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
    /// The store that made this context ([`EpochStore::cell`]), over
    /// this context's workload: a planned cache is cut from its
    /// rankings. Without one, the context's own store below is.
    pub(super) store: Option<&'a EpochStore<'a>>,
    /// The context's own store over its workload, built on first use, so
    /// every run planned over the context ranks (and pre-samples) once.
    own: OnceCell<EpochStore<'a>>,
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
            store: None,
            own: OnceCell::new(),
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

    /// The store the context's epochs and cache rankings come from.
    pub(super) fn store(&self) -> &EpochStore<'a> {
        match self.store {
            Some(store) => store,
            None => self.own.get_or_init(|| EpochStore::over(self.workload)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::{DatasetKind, Scale};
    use gnnlab_sampling::Kernel;
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
    fn extract_bytes_split_miss_hit() {
        let w = workload();
        let ctx = SimContext::new(&w, SystemKind::GnnLab);
        let trace = crate::trace::EpochTrace::record(&w, Kernel::FisherYates, 0);
        let b = &trace.batches[0];
        let full_cache = EpochStore::over(&w).cache(PolicyKind::Degree, 1.0);
        let (miss, hit) = ctx.extract_bytes(b, Some(&full_cache), 1.0);
        assert_eq!(miss, 0.0);
        assert!(hit > 0.0);
        let (miss2, hit2) = ctx.extract_bytes(b, None, 1.0);
        assert_eq!(hit2, 0.0);
        assert!((miss2 - hit).abs() < 1e-9);
    }
}
