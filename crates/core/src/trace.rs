//! Recorded sampling epochs: the measured quantities every simulation
//! consumes.
//!
//! Recording samples real mini-batches. Batch `b` of epoch `e` draws from
//! its own `presample_rng(seed, e, b)` stream, so no batch depends on
//! another, and [`EpochTrace::record_with_batch`] fans the batches out
//! over [`gnnlab_par::host_pool`] the way `presample_epoch` does. Every
//! field of a trace is the same at every pool width.

use crate::workload::Workload;
use gnnlab_graph::VertexId;
use gnnlab_par::{host_pool, ThreadPool};
use gnnlab_sampling::{presample_rng, Kernel, MinibatchIter, Sample, SampleBuffers, SampleWork};
use gnnlab_tensor::flops::train_flops;

/// Measured quantities of one mini-batch's sampling.
#[derive(Debug, Clone)]
pub struct BatchTrace {
    /// Exact sampling work counters.
    pub work: SampleWork,
    /// Distinct input vertices whose features the batch needs.
    pub input_nodes: Vec<VertexId>,
    /// Estimated training FLOPs for this batch (at run scale).
    pub flops: f64,
    /// Serialized sample size for queue-cost accounting (at run scale).
    pub queue_bytes: u64,
}

/// One recorded epoch of sampling for a workload.
#[derive(Debug, Clone)]
pub struct EpochTrace {
    /// Per-batch records, in epoch order.
    pub batches: Vec<BatchTrace>,
    /// Scale factor to multiply measured quantities back to paper scale.
    pub factor: f64,
    /// Ratio of paper-scale batch count to this trace's batch count.
    /// Kernel launches (a per-batch quantity) are multiplied by this when
    /// the 32-seed batch floor shrank the batch count (see
    /// `Dataset::batch_size`).
    pub launch_scale: f64,
}

impl EpochTrace {
    /// Records one epoch of real sampling for `workload` with the given
    /// kernel. `epoch` selects the deterministic batch shuffle; pass the
    /// actual epoch index so traces line up with PreSC's pre-sampled
    /// epochs.
    pub fn record(workload: &Workload, kernel: Kernel, epoch: u64) -> EpochTrace {
        Self::record_with_batch(workload, kernel, epoch, workload.batch_size())
    }

    /// Records one epoch with an explicit mini-batch size (the §8
    /// mini-batch-size ablation), fanned out over the host pool.
    pub fn record_with_batch(
        workload: &Workload,
        kernel: Kernel,
        epoch: u64,
        batch_size: usize,
    ) -> EpochTrace {
        Self::record_with_pool(workload, kernel, epoch, batch_size, host_pool())
    }

    /// [`EpochTrace::record_with_batch`] on an explicit pool. The trace is
    /// the same at every pool width: batch `b` is the shuffled training
    /// set's `b`-th chunk, sampled from `presample_rng(seed, epoch, b)` —
    /// the derivation PreSC's pre-sampling uses, so a recorded epoch and a
    /// pre-sampled epoch see identical draws batch for batch — and the
    /// chunks' batches concatenate in chunk order.
    pub fn record_with_pool(
        workload: &Workload,
        kernel: Kernel,
        epoch: u64,
        batch_size: usize,
        pool: &ThreadPool,
    ) -> EpochTrace {
        let algo = workload.sampler(kernel);
        let csr = &workload.dataset.csr;
        let size = batch_size.max(1);
        let mut order = Vec::new();
        MinibatchIter::shuffle_into(
            &workload.dataset.train_set,
            workload.seed,
            epoch,
            &mut order,
        );
        let chunks = pool.map_ranges(order.len().div_ceil(size), |_, range| {
            // One scratch set per worker: recording reuses sampling buffers
            // batch to batch just like the executed runtime (buffer reuse
            // preserves the exact RNG sequence).
            let mut bufs = SampleBuffers::new();
            let mut s = Sample::default();
            range
                .map(|b| {
                    let seeds = &order[b * size..((b + 1) * size).min(order.len())];
                    let mut rng = presample_rng(workload.seed, epoch, b as u64);
                    algo.sample_into(csr, seeds, &mut rng, &mut bufs, &mut s);
                    BatchTrace {
                        work: s.work,
                        queue_bytes: s.queue_bytes(),
                        flops: train_flops(
                            workload.model,
                            &s,
                            workload.dataset.features.dim(),
                            workload.hidden_dim,
                            workload.num_classes,
                        ),
                        input_nodes: s
                            .blocks
                            .first()
                            .map(|b| b.src_globals.clone())
                            .unwrap_or_default(),
                    }
                })
                .collect::<Vec<_>>()
        });
        let batches: Vec<BatchTrace> = chunks.into_iter().flatten().collect();
        // Intended paper-scale batch count: the default path targets the
        // paper's 8000-seed batches (compensating the small-scale batch
        // floor); a custom batch size targets its own scaled-up size.
        let factor = workload.dataset.scale.factor();
        let intended = if batch_size == workload.batch_size() {
            workload.dataset.paper_batches() as u64
        } else {
            workload
                .dataset
                .spec
                .train_set
                .div_ceil((batch_size as u64).saturating_mul(factor).max(1))
        };
        let launch_scale = intended as f64 / batches.len().max(1) as f64;
        EpochTrace {
            batches,
            factor: factor as f64,
            launch_scale,
        }
    }

    /// Number of batches.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Total distinct-per-batch input vertices over the epoch.
    pub fn total_input_nodes(&self) -> u64 {
        self.batches
            .iter()
            .map(|b| b.input_nodes.len() as u64)
            .sum()
    }

    /// Total feature bytes needed per epoch at paper scale (no cache).
    pub fn total_feature_bytes_paper(&self, row_bytes: u64) -> f64 {
        self.total_input_nodes() as f64 * row_bytes as f64 * self.factor
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
    fn records_expected_batch_count() {
        let w = workload();
        let t = EpochTrace::record(&w, Kernel::FisherYates, 0);
        assert_eq!(t.num_batches(), w.dataset.batches_per_epoch());
        assert!(t.batches.iter().all(|b| !b.input_nodes.is_empty()));
        assert!(t.batches.iter().all(|b| b.flops > 0.0));
    }

    #[test]
    fn reservoir_trace_draws_more_rng() {
        let w = workload();
        let fy = EpochTrace::record(&w, Kernel::FisherYates, 0);
        let rs = EpochTrace::record(&w, Kernel::Reservoir, 0);
        let fy_draws: u64 = fy.batches.iter().map(|b| b.work.rng_draws).sum();
        let rs_draws: u64 = rs.batches.iter().map(|b| b.work.rng_draws).sum();
        assert!(
            rs_draws > fy_draws,
            "reservoir {rs_draws} <= fisher-yates {fy_draws}"
        );
    }

    #[test]
    fn traces_are_deterministic() {
        let w = workload();
        let a = EpochTrace::record(&w, Kernel::FisherYates, 2);
        let b = EpochTrace::record(&w, Kernel::FisherYates, 2);
        assert_eq!(a.total_input_nodes(), b.total_input_nodes());
        // Different epochs shuffle differently.
        let c = EpochTrace::record(&w, Kernel::FisherYates, 3);
        let a_first: Vec<_> = a.batches[0].input_nodes.clone();
        let c_first: Vec<_> = c.batches[0].input_nodes.clone();
        assert_ne!(a_first, c_first);
    }

    #[test]
    fn paper_scale_bytes_blow_up_by_factor() {
        let w = workload();
        let t = EpochTrace::record(&w, Kernel::FisherYates, 0);
        let measured = t.total_input_nodes() as f64 * 400.0;
        assert!((t.total_feature_bytes_paper(400) - measured * 4096.0).abs() < 1.0);
    }
}
