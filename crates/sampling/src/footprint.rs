//! Access-footprint recording: the substrate of PreSC and Table 2.

use crate::sample::{Sample, SampleBuffers, SampleWork};
use crate::SamplingAlgorithm;
use gnnlab_graph::{Csr, VertexId};
use gnnlab_par::{splitmix64, ThreadPool};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Records how often each vertex is sampled across one or more epochs.
///
/// This is the data structure behind:
/// - the **PreSC** caching policy (hotness = average visit count over K
///   pre-sampling epochs, §6.3),
/// - the **Optimal** oracle policy (visit counts over the whole run), and
/// - the **Table 2** epoch-to-epoch similarity measurement.
#[derive(Debug, Clone)]
pub struct FootprintRecorder {
    counts: Vec<u64>,
    epochs: u64,
}

impl FootprintRecorder {
    /// Creates a recorder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        FootprintRecorder {
            counts: vec![0; num_vertices],
            epochs: 0,
        }
    }

    /// Records every visit in `sample` (with multiplicity).
    pub fn record_sample(&mut self, sample: &Sample) {
        for &v in &sample.visit_list {
            self.counts[v as usize] += 1;
        }
    }

    /// Marks the end of an epoch (used to average over epochs).
    pub fn end_epoch(&mut self) {
        self.epochs += 1;
    }

    /// Number of completed epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Raw visit counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Average visit count per epoch as an f64 hotness map (the PreSC
    /// hotness metric `h_v`). If no epoch was completed, returns raw counts.
    pub fn hotness(&self) -> Vec<f64> {
        let div = self.epochs.max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / div).collect()
    }

    /// Merges another recorder (same vertex count) into this one.
    ///
    /// # Panics
    ///
    /// Panics if vertex counts differ.
    pub fn merge(&mut self, other: &FootprintRecorder) {
        assert_eq!(self.counts.len(), other.counts.len(), "size mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.epochs += other.epochs;
    }
}

/// Domain tag separating pre-sampling RNG streams from every other
/// SplitMix64-derived stream in the workspace.
const PRESAMPLE_TAG: u64 = 0x5052_4553_414D_504C; // "PRESAMPL"

/// The ChaCha stream for one pre-sampling batch, derived purely from the
/// batch's identity `(seed, epoch, batch_index)`.
///
/// Because the stream is a function of *which* batch is sampled — not of
/// which worker samples it or what ran before it — pre-sampling epochs
/// can fan batches out across any number of threads and still produce
/// bit-identical footprints. The epoch trace recorder uses the same
/// derivation so PreSC's measured pre-sampling work stays exactly equal
/// to one recorded epoch's work.
pub fn presample_rng(seed: u64, epoch: u64, batch: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(splitmix64(splitmix64(seed ^ PRESAMPLE_TAG) ^ epoch) ^ batch)
}

/// What a sampling pass produced: the merged footprint, the exact
/// sampling work it cost (Table 6's P3 row), the time the sampling took,
/// and what the pass kept of each batch.
#[derive(Debug, Clone)]
pub struct PresampleOutput<T> {
    /// Merged visit counts over all sampled epochs (no vertices when the
    /// pass counted none).
    pub recorder: FootprintRecorder,
    /// Total sampling work across every batch.
    pub work: SampleWork,
    /// Wall nanoseconds spent sampling, summed over every batch (each
    /// worker times its own batches).
    pub sample_ns: u64,
    /// What [`presample_epoch`] kept of its batches, in batch order.
    pub kept: Vec<T>,
}

impl<T> PresampleOutput<T> {
    fn empty(num_vertices: usize) -> Self {
        PresampleOutput {
            recorder: FootprintRecorder::new(num_vertices),
            work: SampleWork::default(),
            sample_ns: 0,
            kept: Vec::new(),
        }
    }

    /// Adds `other`'s counts, epochs, work and time to this output, and
    /// appends what it kept after this one's.
    fn absorb(&mut self, other: PresampleOutput<T>) {
        self.recorder.merge(&other.recorder);
        self.work.add(&other.work);
        self.sample_ns += other.sample_ns;
        self.kept.extend(other.kept);
    }
}

/// The one sampling pass over an epoch whose shuffled training set is
/// `order`: batch `b` is `order`'s `b`-th `batch_size` chunk, drawn from
/// [`presample_rng`]`(seed, epoch, b)` — the very sample a training run
/// with that shuffle and seed draws for the batch. PreSC's pre-sampling,
/// the co-sim's trace recorder and the threaded runtime's first batches
/// all sample through it.
///
/// Batches fan out across `pool`'s workers. Each worker samples into one
/// reusable [`Sample`] with reusable [`SampleBuffers`] and, if `count`,
/// records visits into a private [`FootprintRecorder`]; the partials merge
/// in chunk-index order. `keep(b, sample)` returns what the pass keeps of
/// batch `b` (taking the sample leaves the next batch a fresh scratch).
/// Per-vertex counts and work counters are `u64` sums and the kept values
/// concatenate in batch order, so the result is bit-identical at every
/// thread count.
#[expect(clippy::too_many_arguments)]
pub fn presample_epoch<T: Send>(
    csr: &Csr,
    order: &[VertexId],
    algo: &dyn SamplingAlgorithm,
    batch_size: usize,
    seed: u64,
    epoch: u64,
    count: bool,
    pool: &ThreadPool,
    keep: impl Fn(usize, &mut Sample) -> Option<T> + Sync,
) -> PresampleOutput<T> {
    let counted = if count { csr.num_vertices() } else { 0 };
    let batch_size = batch_size.max(1);
    let partials = pool.map_ranges(order.len().div_ceil(batch_size), |_, range| {
        let mut part = PresampleOutput::empty(counted);
        let mut bufs = SampleBuffers::new();
        let mut sample = Sample::default();
        for b in range {
            let seeds = &order[b * batch_size..((b + 1) * batch_size).min(order.len())];
            let mut rng = presample_rng(seed, epoch, b as u64);
            let started = Instant::now();
            algo.sample_into(csr, seeds, &mut rng, &mut bufs, &mut sample);
            part.sample_ns += started.elapsed().as_nanos() as u64;
            part.work.add(&sample.work);
            if count {
                part.recorder.record_sample(&sample);
            }
            part.kept.extend(keep(b, &mut sample));
        }
        part
    });
    let mut out = PresampleOutput::empty(counted);
    for part in partials {
        out.absorb(part); // partials carry zero epochs
    }
    out.recorder.end_epoch();
    out
}

/// The Table 2 similarity of epoch `i`'s footprint to epoch `j`'s:
///
/// `sum_{v in Ti ∩ Tj} min(fi(v), fj(v)) / sum_{v in Tj} fj(v)`
///
/// where `Ti`/`Tj` are the top-`top_fraction` most-visited vertex sets and
/// `fi`/`fj` the visit counts. Returns a value in `[0, 1]`.
pub fn footprint_similarity(fi: &[u64], fj: &[u64], top_fraction: f64) -> f64 {
    assert_eq!(fi.len(), fj.len(), "footprints must cover the same graph");
    assert!((0.0..=1.0).contains(&top_fraction), "fraction in [0,1]");
    let top = |f: &[u64]| -> Vec<u32> {
        let mut idx: Vec<u32> = (0..f.len() as u32).filter(|&v| f[v as usize] > 0).collect();
        idx.sort_unstable_by(|&a, &b| f[b as usize].cmp(&f[a as usize]).then(a.cmp(&b)));
        let k = ((f.len() as f64 * top_fraction) as usize).min(idx.len());
        idx.truncate(k);
        idx
    };
    let ti = top(fi);
    let tj = top(fj);
    let denom: u64 = tj.iter().map(|&v| fj[v as usize]).sum();
    if denom == 0 {
        return 0.0;
    }
    let ti_set: std::collections::HashSet<u32> = ti.into_iter().collect();
    let numer: u64 = tj
        .iter()
        .filter(|v| ti_set.contains(v))
        .map(|&v| fi[v as usize].min(fj[v as usize]))
        .sum();
    numer as f64 / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SampleWork;
    use gnnlab_graph::VertexId;

    fn sample_with_visits(visits: Vec<VertexId>) -> Sample {
        Sample {
            seeds: vec![],
            blocks: vec![],
            visit_list: visits,
            work: SampleWork::default(),
            cache_mask: None,
        }
    }

    #[test]
    fn records_with_multiplicity() {
        let mut r = FootprintRecorder::new(5);
        r.record_sample(&sample_with_visits(vec![1, 1, 3]));
        r.record_sample(&sample_with_visits(vec![3]));
        assert_eq!(r.counts(), &[0, 2, 0, 2, 0]);
    }

    #[test]
    fn hotness_averages_over_epochs() {
        let mut r = FootprintRecorder::new(3);
        r.record_sample(&sample_with_visits(vec![0, 0, 1]));
        r.end_epoch();
        r.record_sample(&sample_with_visits(vec![0]));
        r.end_epoch();
        let h = r.hotness();
        assert!((h[0] - 1.5).abs() < 1e-9);
        assert!((h[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counts_and_epochs() {
        let mut a = FootprintRecorder::new(2);
        a.record_sample(&sample_with_visits(vec![0]));
        a.end_epoch();
        let mut b = FootprintRecorder::new(2);
        b.record_sample(&sample_with_visits(vec![1, 1]));
        b.end_epoch();
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 2]);
        assert_eq!(a.epochs(), 2);
    }

    #[test]
    fn identical_footprints_have_similarity_one() {
        let f = vec![5u64, 3, 0, 8, 1, 0, 0, 0, 0, 2];
        let s = footprint_similarity(&f, &f, 0.5);
        assert!((s - 1.0).abs() < 1e-9, "similarity {s}");
    }

    #[test]
    fn disjoint_footprints_have_similarity_zero() {
        let fi = vec![9u64, 9, 0, 0];
        let fj = vec![0u64, 0, 9, 9];
        assert_eq!(footprint_similarity(&fi, &fj, 0.5), 0.0);
    }

    #[test]
    fn partial_overlap_is_between() {
        let fi = vec![10u64, 10, 0, 0, 0, 0, 0, 0, 0, 0];
        let fj = vec![10u64, 0, 10, 0, 0, 0, 0, 0, 0, 0];
        let s = footprint_similarity(&fi, &fj, 0.2);
        assert!(s > 0.0 && s < 1.0, "similarity {s}");
    }

    #[test]
    fn empty_footprint_similarity_is_zero() {
        let z = vec![0u64; 4];
        assert_eq!(footprint_similarity(&z, &z, 0.5), 0.0);
    }

    #[test]
    fn presample_rng_streams_are_distinct() {
        use rand::Rng;
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..4u64 {
            for batch in 0..4u64 {
                let draw: u64 = presample_rng(42, epoch, batch).r#gen();
                assert!(seen.insert(draw), "stream collision at ({epoch}, {batch})");
            }
        }
    }

    #[test]
    fn presample_is_bit_identical_across_thread_counts() {
        use crate::khop::{KHop, Kernel, Selection};
        use crate::minibatch::MinibatchIter;
        use gnnlab_graph::gen::chung_lu;
        let g = chung_lu(300, 6000, 2.0, 3).unwrap();
        let algo = KHop::new(vec![15, 10, 5], Kernel::FisherYates, Selection::Uniform);
        let train: Vec<VertexId> = (0..120).collect();
        let run = |threads: usize, epoch: u64| {
            let pool = ThreadPool::new(threads);
            let mut order = Vec::new();
            MinibatchIter::shuffle_into(&train, 7, epoch, &mut order);
            let keep = |b: usize, s: &mut Sample| (b < 2).then(|| s.visit_list.clone());
            presample_epoch(&g, &order, &algo, 32, 7, epoch, true, &pool, keep)
        };
        for epoch in 0..3 {
            let base = run(1, epoch);
            assert_eq!(base.recorder.epochs(), 1);
            assert!(base.work.rng_draws > 0);
            assert_eq!(base.kept.len(), 2);
            for threads in [2, 4, 8] {
                let out = run(threads, epoch);
                assert_eq!(
                    out.recorder.counts(),
                    base.recorder.counts(),
                    "{threads} threads"
                );
                assert_eq!(out.recorder.epochs(), base.recorder.epochs());
                assert_eq!(out.work, base.work);
                assert_eq!(out.kept, base.kept);
            }
        }
    }
}
