//! Bitwise fingerprint of every sampler's output.
//!
//! The constants were captured from the commit *before* the block builder
//! replaced `dedup_remap_into` + the second `remap.get` pass (and before
//! `RandomWalk` moved off the `HashMap` remap), so a changed local-id
//! assignment, edge order, draw count or stale buffer contents leaking
//! between batches shows up as a different hash. Run it in debug and in
//! `--release`: the optimised codegen is what the perf harness measures.

use gnnlab_graph::gen::{chung_lu, recency_weights};
use gnnlab_graph::{Csr, VertexId};
use gnnlab_sampling::{
    KHop, Kernel, RandomWalk, Sample, SampleBuffers, SamplingAlgorithm, Selection,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ids(&mut self, ids: &[VertexId]) {
        self.word(ids.len() as u64);
        for &v in ids {
            self.word(u64::from(v));
        }
    }

    fn sample(&mut self, s: &Sample) {
        self.ids(&s.seeds);
        self.word(s.blocks.len() as u64);
        for b in &s.blocks {
            self.ids(&b.src_globals);
            self.word(b.dst_count as u64);
            self.word(b.edges.len() as u64);
            for &(src, dst) in &b.edges {
                self.word(u64::from(src) << 32 | u64::from(dst));
            }
        }
        self.ids(&s.visit_list);
        self.word(s.work.edges_scanned);
        self.word(s.work.rng_draws);
        self.word(s.work.sampled_vertices);
        self.word(s.work.kernel_launches);
    }
}

/// Batch sizes shrink and grow so every recycled buffer is both truncated
/// and regrown; stale contents from a larger batch would change the hash.
const BATCHES: [usize; 7] = [7, 3, 11, 5, 9, 2, 8];

/// Mean degree 50 with a power-law tail: most vertices exceed fan-out 25
/// (Floyd's hashed-probe branch), some fall under 5 (take-all branch).
fn graph() -> Csr {
    chung_lu(600, 30_000, 2.0, 9).expect("valid generator parameters")
}

/// Hashes `BATCHES` consecutive batches drawn from one RNG stream through
/// one recycled [`SampleBuffers`] + [`Sample`].
fn fingerprint(graph: &Csr, algo: &dyn SamplingAlgorithm) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let mut bufs = SampleBuffers::new();
    let mut sample = Sample::default();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut first = 0;
    for &batch in &BATCHES {
        let seeds: Vec<VertexId> = (first..first + batch as VertexId).collect();
        first += batch as VertexId;
        algo.sample_into(graph, &seeds, &mut rng, &mut bufs, &mut sample);
        sample.validate().expect("sampler output is consistent");
        h.sample(&sample);
    }
    h.0
}

fn khop(fanouts: &[usize], kernel: Kernel, selection: Selection) -> u64 {
    fingerprint(&graph(), &KHop::new(fanouts.to_vec(), kernel, selection))
}

/// Captured at the parent commit, identical in debug and `--release`.
const KHOP3_FY: u64 = 0x9d5f_8495_a053_309f;
const KHOP2_FY: u64 = 0x17aa_a6df_2e2c_3781;
const KHOP3_RESERVOIR: u64 = 0x4407_f202_5183_bdec;
const KHOP3_WEIGHTED: u64 = 0x1a84_f175_cd05_9563;
const PINSAGE: u64 = 0x81d7_2bce_2f24_eb82;

#[test]
fn khop3_fisher_yates() {
    let got = khop(&[15, 10, 5], Kernel::FisherYates, Selection::Uniform);
    assert_eq!(got, KHOP3_FY, "got {got:#018x}");
}

#[test]
fn khop2_fisher_yates_hashed_probe() {
    let got = khop(&[25, 10], Kernel::FisherYates, Selection::Uniform);
    assert_eq!(got, KHOP2_FY, "got {got:#018x}");
}

#[test]
fn khop3_reservoir() {
    let got = khop(&[15, 10, 5], Kernel::Reservoir, Selection::Uniform);
    assert_eq!(got, KHOP3_RESERVOIR, "got {got:#018x}");
}

#[test]
fn khop3_weighted() {
    let weighted = recency_weights(graph(), 1).expect("weights fit the graph");
    let algo = KHop::new(vec![15, 10, 5], Kernel::FisherYates, Selection::Weighted);
    let got = fingerprint(&weighted, &algo);
    assert_eq!(got, KHOP3_WEIGHTED, "got {got:#018x}");
}

#[test]
fn pinsage_random_walks() {
    let got = fingerprint(&graph(), &RandomWalk::pinsage());
    assert_eq!(got, PINSAGE, "got {got:#018x}");
}
