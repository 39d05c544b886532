//! Preprocessing cost accounting (Table 6).

use super::context::SimContext;
use crate::memory::{plan_gpu, Residency};
use crate::report::RunError;
use crate::systems::SystemKind;
use crate::trace::Epoch;
use gnnlab_obs::{names, Executor, Stage, HOST_DEVICE};
use gnnlab_sim::{ns_to_secs, SampleDevice};

/// The three preprocessing phases of Table 6 (seconds).
#[derive(Debug, Clone, Copy)]
pub struct PreprocessReport {
    /// P1: loading topology + features from disk to DRAM.
    pub disk_to_dram: f64,
    /// P2a: loading graph topology from DRAM to GPU memory.
    pub load_topology: f64,
    /// P2b: filling the feature cache (gathered rows) in GPU memory.
    pub load_cache: f64,
    /// P3: pre-sampling for PreSC#1 (one sampling-only epoch + hotness-map
    /// construction; the paper measures ~1.4× of one epoch's sampling).
    pub presampling: f64,
}

impl PreprocessReport {
    /// P2 total (DRAM → GPU).
    pub fn dram_to_gpu(&self) -> f64 {
        self.load_topology + self.load_cache
    }

    /// Grand total.
    pub fn total(&self) -> f64 {
        self.disk_to_dram + self.dram_to_gpu() + self.presampling
    }
}

/// Computes the Table 6 row for the context's workload: preprocessing for
/// a GNNLab run with a PreSC#1 cache on the trainer GPUs. `epoch` is
/// asked for its trace only if the Trainer GPU fits.
pub fn preprocess_report(
    ctx: &SimContext<'_>,
    epoch: &dyn Epoch,
) -> Result<PreprocessReport, RunError> {
    let topo = ctx.workload.dataset.topo_bytes_paper() as f64;
    let feat = ctx.workload.dataset.feature_bytes_paper() as f64;
    let gnnlab = SystemKind::GnnLab;
    let plan = plan_gpu(&ctx.testbed, ctx.workload, gnnlab, Residency::TRAINER)?;
    let cache_bytes = plan.cache_alpha * feat;
    let trace = epoch.trace();

    // P3: one epoch of GPU sampling plus hotness-map construction,
    // modeled as the paper's measured 1.4x of one sampling epoch.
    let sample_epoch_ns: u64 = trace
        .batches
        .iter()
        .map(|b| {
            ctx.cost
                .sample_time(&ctx.sample_cost(b, trace), SampleDevice::Gpu)
        })
        .sum();
    let disk_ns = ctx.cost.disk_load_time(topo + feat);
    let topo_ns = ctx.cost.topo_load_time(topo);
    let cache_ns = ctx.cost.cache_load_time(cache_bytes);
    let presample_ns = (sample_epoch_ns as f64 * 1.4).round() as u64;
    if let Some(obs) = ctx.obs {
        // The phases run back-to-back on one host timeline (Table 6 order).
        let mut t = 0u64;
        for (stage, dur) in [
            (Stage::DiskToDram, disk_ns),
            (Stage::LoadTopology, topo_ns),
            (Stage::LoadCache, cache_ns),
            (Stage::Presample, presample_ns),
        ] {
            obs.record_span(HOST_DEVICE, Executor::Host, stage, 0, t, t + dur);
            obs.metrics
                .observe(names::PREPROCESS_PHASE_SECS, ns_to_secs(dur));
            t += dur;
        }
        obs.metrics
            .gauge_set(names::PREPROCESS_TOTAL_SECS, ns_to_secs(t));
    }
    Ok(PreprocessReport {
        disk_to_dram: ns_to_secs(disk_ns),
        load_topology: ns_to_secs(topo_ns),
        load_cache: ns_to_secs(cache_ns),
        presampling: ns_to_secs(sample_epoch_ns) * 1.4,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EpochTrace;
    use crate::workload::Workload;
    use gnnlab_graph::{DatasetKind, Scale};
    use gnnlab_sampling::Kernel;
    use gnnlab_tensor::ModelKind;

    #[test]
    fn table6_shape_for_papers() {
        let w = Workload::new(ModelKind::Gcn, DatasetKind::Papers, Scale::new(4096), 1);
        let ctx = SimContext::new(&w, SystemKind::GnnLab);
        let t = EpochTrace::record(&w, Kernel::FisherYates, 0);
        let rep = preprocess_report(&ctx, &t).unwrap();
        // Paper Table 6 for PA: P1 = 48.6 s, load G = 3.2 s, load $ =
        // 10.7 s, pre-sampling = 1.8 s. Allow generous bands.
        assert!(
            rep.disk_to_dram > 30.0 && rep.disk_to_dram < 80.0,
            "{rep:?}"
        );
        assert!(
            rep.load_topology > 1.5 && rep.load_topology < 8.0,
            "{rep:?}"
        );
        assert!(rep.load_cache > 5.0 && rep.load_cache < 20.0, "{rep:?}");
        assert!(rep.presampling > 0.3 && rep.presampling < 5.0, "{rep:?}");
        // P1 dominates; pre-sampling is trivial (the §7.6 takeaway).
        assert!(rep.disk_to_dram > rep.dram_to_gpu());
        assert!(rep.presampling < rep.dram_to_gpu());
        assert!(
            (rep.total() - (rep.disk_to_dram + rep.dram_to_gpu() + rep.presampling)).abs() < 1e-9
        );
    }
}
