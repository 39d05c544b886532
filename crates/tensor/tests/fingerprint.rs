//! Bitwise fingerprint of a short training run per model kind.
//!
//! The constants were captured from the commit *before* the train-step
//! overhaul (fused workspace-backed layers, first-layer input-gradient
//! elision, k-outer `Xᵀ·G`, 16-wide register tile), so any change to a
//! float-add order, a skipped or added operation, or stale workspace
//! contents leaking between batches shows up as a different hash. Run it
//! in debug and in `--release`: the optimised codegen is what the perf
//! harness measures.

use gnnlab_graph::gen::chung_lu;
use gnnlab_sampling::{KHop, Kernel, RandomWalk, Sample, SamplingAlgorithm, Selection};
use gnnlab_tensor::{Adam, GnnModel, Matrix, ModelConfig, ModelKind, Optimizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a over 32-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, data: &[f32]) {
        for v in data {
            self.word(v.to_bits());
        }
    }
}

/// Input dim 12, hidden 21 (one 16-wide tile, one 4-wide, one scalar
/// column), 7 classes (one 4-wide tile, three scalar columns).
const IN_DIM: usize = 12;
const HIDDEN: usize = 21;
const CLASSES: usize = 7;

/// Batch sizes shrink and grow so every workspace is both truncated and
/// regrown; stale contents from a larger batch would change the hash.
const BATCHES: [usize; 7] = [7, 3, 11, 5, 9, 2, 8];

fn sampler(kind: ModelKind) -> Box<dyn SamplingAlgorithm> {
    match kind {
        ModelKind::Gcn => Box::new(KHop::new(
            vec![5, 4, 3],
            Kernel::FisherYates,
            Selection::Uniform,
        )),
        ModelKind::GraphSage => Box::new(KHop::new(
            vec![6, 4],
            Kernel::FisherYates,
            Selection::Uniform,
        )),
        ModelKind::PinSage => Box::new(RandomWalk::new(3, 4, 3, 5)),
    }
}

/// Deterministic features with exact zeros: scattered elements and every
/// fifth row entirely, so the kernels' `a == 0` skip path runs.
fn features(sample: &Sample, step: usize) -> Matrix {
    let n = sample.num_input_nodes();
    let data = (0..n * IN_DIM)
        .map(|i| {
            if (i / IN_DIM) % 5 == 4 {
                return 0.0;
            }
            let v = (i * 31 + step * 7) % 17;
            (v as f32 - 8.0) / 8.0
        })
        .collect();
    Matrix::from_vec(n, IN_DIM, data)
}

fn fingerprint(kind: ModelKind) -> u64 {
    let graph = chung_lu(400, 6000, 2.0, 9).expect("valid generator parameters");
    let algo = sampler(kind);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let mut model = GnnModel::new(ModelConfig {
        kind,
        in_dim: IN_DIM,
        hidden_dim: HIDDEN,
        num_classes: CLASSES,
        seed: 5,
    });
    let mut opt = Adam::new(0.01);
    let mut h = Fnv::new();
    let mut first = 0u32;
    for (step, &batch) in BATCHES.iter().enumerate() {
        let seeds: Vec<u32> = (first..first + batch as u32).collect();
        first += batch as u32;
        let sample = algo.sample(&graph, &seeds, &mut rng);
        let feats = features(&sample, step);
        let labels: Vec<u32> = seeds.iter().map(|s| (s * 3 + 1) % CLASSES as u32).collect();
        let (loss, acc) = model.train_batch(&sample, &feats, &labels);
        h.word(loss.to_bits());
        h.word((acc as f32).to_bits());
        for p in model.params_mut() {
            h.floats(p.grad.data());
        }
        opt.step(&mut model.params_mut());
        for p in model.params_mut() {
            h.floats(p.value.data());
        }
        // A forward without a backward in between, as evaluation does.
        h.floats(model.forward(&sample, &feats).data());
    }
    h.0
}

/// Captured at the parent commit, identical in debug and `--release`.
const GCN: u64 = 0x1213_0c0a_8ed6_74b7;
const GRAPHSAGE: u64 = 0x6321_d12d_3fd4_dd6e;
const PINSAGE: u64 = 0x5d5e_55a6_5359_d37f;

#[test]
fn training_history_is_bit_identical_to_the_pre_overhaul_commit() {
    for (kind, expected) in [
        (ModelKind::Gcn, GCN),
        (ModelKind::GraphSage, GRAPHSAGE),
        (ModelKind::PinSage, PINSAGE),
    ] {
        let got = fingerprint(kind);
        assert_eq!(got, expected, "{kind:?}: got {got:#018x}");
    }
}
