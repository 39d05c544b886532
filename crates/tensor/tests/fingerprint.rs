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

/// The dimensions and batch sizes one fingerprint row trains at.
struct Shape {
    in_dim: usize,
    hidden: usize,
    classes: usize,
    /// Batch sizes shrink and grow so every workspace is both truncated
    /// and regrown; stale contents from a larger batch would change the
    /// hash.
    batches: &'static [usize],
}

/// Input dim 12, hidden 21 (one 16-wide tile, one 4-wide, one scalar
/// column), 7 classes (one 4-wide tile, three scalar columns).
const NARROW: Shape = Shape {
    in_dim: 12,
    hidden: 21,
    classes: 7,
    batches: &[7, 3, 11, 5, 9, 2, 8],
};

/// Batches for the wide rows: every one is odd, two exceed 64 seeds (so
/// the last layer's `Xᵀ·G` walks more than one 64-row `k`-block and ends
/// on a partial one), and the layers below see several hundred `dst`
/// rows — [`fingerprint`] checks that an odd count above 64 occurs there.
const WIDE_BATCHES: &[usize] = &[71, 33, 129, 67];

/// Input 64, hidden 32 (exactly one 32-wide tile), 8 classes.
const WIDE_32: Shape = Shape {
    in_dim: 64,
    hidden: 32,
    classes: 8,
    batches: WIDE_BATCHES,
};

/// Input 64, hidden 35 (one 32-wide tile, then a 3-column remainder).
const WIDE_35: Shape = Shape {
    in_dim: 64,
    hidden: 35,
    classes: 8,
    batches: WIDE_BATCHES,
};

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
fn features(sample: &Sample, step: usize, in_dim: usize) -> Matrix {
    let n = sample.num_input_nodes();
    let data = (0..n * in_dim)
        .map(|i| {
            if (i / in_dim) % 5 == 4 {
                return 0.0;
            }
            let v = (i * 31 + step * 7) % 17;
            (v as f32 - 8.0) / 8.0
        })
        .collect();
    Matrix::from_vec(n, in_dim, data)
}

fn fingerprint(kind: ModelKind, shape: &Shape) -> u64 {
    let graph = chung_lu(400, 6000, 2.0, 9).expect("valid generator parameters");
    let algo = sampler(kind);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let mut model = GnnModel::new(ModelConfig {
        kind,
        in_dim: shape.in_dim,
        hidden_dim: shape.hidden,
        num_classes: shape.classes,
        seed: 5,
    });
    let classes = shape.classes as u32;
    let mut odd_dsts_past_a_k_block = false;
    let mut opt = Adam::new(0.01);
    let mut h = Fnv::new();
    let mut first = 0u32;
    for (step, &batch) in shape.batches.iter().enumerate() {
        let seeds: Vec<u32> = (first..first + batch as u32).collect();
        first += batch as u32;
        let sample = algo.sample(&graph, &seeds, &mut rng);
        odd_dsts_past_a_k_block |= sample.blocks[..sample.blocks.len() - 1]
            .iter()
            .any(|b| b.dst_count > 64 && b.dst_count % 2 == 1);
        let feats = features(&sample, step, shape.in_dim);
        let labels: Vec<u32> = seeds.iter().map(|s| (s * 3 + 1) % classes).collect();
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
    assert!(
        odd_dsts_past_a_k_block || shape.batches.iter().all(|&b| b <= 64),
        "{kind:?}: no hidden layer saw an odd dst count above 64"
    );
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
        let got = fingerprint(kind, &NARROW);
        assert_eq!(got, expected, "{kind:?}: got {got:#018x}");
    }
}

/// Captured on the single-row 16-wide kernels, before the register-tile
/// body and its AVX2 instantiation were written; identical in debug and
/// `--release`. `[hidden 32, hidden 35]` per kind.
const WIDE: [(ModelKind, [u64; 2]); 3] = [
    (
        ModelKind::Gcn,
        [0xb61a_0fe6_826d_2148, 0x724c_4e00_1db1_6ec3],
    ),
    (
        ModelKind::GraphSage,
        [0x4ae1_679d_d302_4695, 0x6b10_65fa_4a71_d952],
    ),
    (
        ModelKind::PinSage,
        [0xf97e_76b7_5501_ffa8, 0x6947_d683_b0e5_69e7],
    ),
];

/// The same history at the shapes the wide tiles and the `k`-blocks
/// reach: a 32-wide hidden layer with and without a column remainder,
/// `Xᵀ·G` over an odd number of rows spanning several `k`-blocks.
#[test]
fn wide_training_history_is_bit_identical_to_the_single_row_kernels() {
    let got = WIDE.map(|(kind, _)| {
        let hashes = [fingerprint(kind, &WIDE_32), fingerprint(kind, &WIDE_35)];
        (kind, hashes)
    });
    assert_eq!(got, WIDE, "got {got:#018x?}");
}
