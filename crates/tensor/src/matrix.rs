//! Row-major `f32` matrices with the operations GNN layers need.
//!
//! The three matmul variants accumulate every output element in the
//! exact sequential order (ascending `k`), one call over all output rows.
//!
//! All three run one register-tile body (`tile`): an `R × N` block of
//! output accumulators is loaded once, advanced over a range of `k` and
//! stored once, reading each operand through an `Operand` view that
//! says whether its rows are the steps of `k` (adjacent lanes, vector
//! loads) or the lanes themselves (`matmul`'s left operand, both of
//! `matmul_transb`'s; gathered). Geometry (`product_rows`), a function of
//! the shape alone: pairs of output rows take 2 × 32 tiles while 32
//! columns remain; the remaining columns — every column of an output
//! narrower than 32 — take tiles of four rows by 8, 4 or 1 columns and
//! of two rows by 16 (`for_col_tiles`), so one read of `b` feeds four
//! independent add chains; the last one to three rows of an output take
//! single-row tiles there. `transa_matmul` walks `k` in blocks of
//! `K_BLOCK` rows of both operands, so the block stays in cache while
//! every tile passes over it.
//!
//! The body is instantiated three times — portably, and inside
//! `#[target_feature(enable = "avx2")]` and
//! `#[target_feature(enable = "avx512f")]` entry points, the widest of
//! which `is_x86_feature_detected!` finds is selected once per product
//! ([`kernel_lanes`] reports which) — each in two bodies: with and
//! without the per-(row, `k`) `a == 0` skip of `matmul` /
//! `transa_matmul`. The identity contract makes both choices invisible:
//! every output element accumulates over ascending `k` with plain `*`
//! and `+` (no FMA, no `mul_add`, no reassociation), so tile shape,
//! `k`-blocking and instruction set never change a bit; and the skip
//! runs wherever it could change one. It can only where the by-`k` right
//! operand `b` holds `±∞` or `NaN` (`0 · ∞` must never enter a sum), so
//! one vectorised scan of `b` per product picks the skipping body for
//! such a `b` and the skip-free one otherwise. With a finite `b`,
//! dropping the skip keeps every bit: each accumulator starts at `+0.0`
//! (a zeroed output, or the sums of earlier `k`-blocks); under
//! round-to-nearest a sum is `−0.0` only if both addends are, so no
//! accumulator ever holds `−0.0`; and `acc + ±0.0` is `acc` for every
//! `acc` but `−0.0`. The skip's branch was what held AVX-512 back: with
//! it, AVX-512 read within 3–9 % of AVX2. Without the branch,
//! `[3664×128]·[128×32]` (`train_bound`'s first layer) reads 361 µs
//! (83 GFLOPS) on AVX-512 against 485 µs on AVX2 and 686 µs for the AVX2
//! skipping body with a dense `a`, 2.8 ms with half of `a` zero (2-core
//! Emerald Rapids, best of 20); no instantiation's skip-free body lost
//! at any layer shape, so none keeps the skip for a finite `b`.
//!
//! Each variant also has a crate-private `*_into` form that writes into a
//! caller-owned matrix, which is how the layers keep their buffers across
//! batches.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Runs `$tile` with `$j` at each tile start over columns `$from..$cols`
/// and `$n` the tile's width as a constant: 16 columns while at least 16
/// remain (four SSE registers per row of accumulators), then 8, 4 and 1
/// — so no kernel needs a separate scalar remainder loop, and an 8-wide
/// row is one AVX2 register, not a 4-wide tile twice. `$n in [..]` names
/// the widths instead.
macro_rules! for_col_tiles {
    ($j:ident in $from:expr, $cols:expr; $n:ident => $tile:expr) => {
        for_col_tiles!($j in $from, $cols; $n in [16, 8, 4, 1] => $tile)
    };
    ($j:ident in $from:expr, $cols:expr; $n:ident in [$($width:literal),*] => $tile:expr) => {{
        let (mut $j, cols): (usize, usize) = ($from, $cols);
        $({
            const $n: usize = $width;
            while cols - $j >= $n {
                $tile;
                $j += $n;
            }
        })*
    }};
}
pub(crate) use for_col_tiles;

/// Rows of both operands that `Aᵀ·B` walks per pass over its output: the
/// block (64 rows of a 128-wide and a 32-wide operand are 40 KB) stays in
/// cache while every output tile is loaded, advanced 64 steps of `k` and
/// stored once.
const K_BLOCK: usize = 64;

/// One operand of a product as its tiles read it: `lanes` output rows (the
/// left operand) or columns (the right one) by `steps` values of `k`. A
/// row-major matrix is `by_k` when its rows are the steps — a tile's lanes
/// are then adjacent and load as vectors — and is gathered when its rows
/// are the lanes.
#[derive(Clone, Copy)]
struct Operand<'m> {
    m: &'m Matrix,
    by_k: bool,
}

impl Operand<'_> {
    /// `(lanes, steps)`.
    #[inline(always)]
    fn extent(self) -> (usize, usize) {
        if self.by_k {
            (self.m.cols, self.m.rows)
        } else {
            (self.m.rows, self.m.cols)
        }
    }

    /// What lane `l` contributes at step `k`.
    ///
    /// # Safety
    ///
    /// `l` and `k` must be inside [`Operand::extent`].
    #[inline(always)]
    unsafe fn at(self, l: usize, k: usize) -> f32 {
        let (row, col) = if self.by_k { (k, l) } else { (l, k) };
        // SAFETY: `row < rows` and `col < cols` by the caller's contract,
        // and a `Matrix` holds `rows * cols` elements.
        unsafe { *self.m.data.get_unchecked(row * self.m.cols + col) }
    }
}

/// How `aᵀ? · bᵀ?` reads `a` and `b`.
#[inline(always)]
fn operands<'m, const TA: bool, const TB: bool>(
    a: &'m Matrix,
    b: &'m Matrix,
) -> (Operand<'m>, Operand<'m>) {
    (Operand { m: a, by_k: TA }, Operand { m: b, by_k: !TB })
}

/// The one register-tile body: the `R × N` elements at rows `i..i + R`,
/// columns `j..j + N` of a product each gain `Σ_k a(i + r, k) · b(j + c, k)`
/// over `ks`; `out` holds exactly those `R` output rows. Every element
/// accumulates over ascending `k` with plain `*` and `+`, and with `SKIP`,
/// unless `b` is read transposed, a zero `a(i + r, k)` leaves row `r`
/// alone at that `k` — so neither the tile shape nor the instruction set
/// this is compiled for changes a bit of the result.
///
/// # Safety
///
/// `a` must extend to `i + R` lanes, `b` to `j + N`, both to `ks.end`
/// steps.
#[inline(always)]
unsafe fn tile<const R: usize, const N: usize, const SKIP: bool>(
    (a, b): (Operand, Operand),
    ks: Range<usize>,
    (i, j): (usize, usize),
    out: &mut [f32],
) {
    let cols = out.len() / R;
    let mut acc = [[0.0f32; N]; R];
    for (acc, out_row) in acc.iter_mut().zip(out.chunks_exact(cols)) {
        acc.copy_from_slice(&out_row[j..j + N]);
    }
    for k in ks {
        // SAFETY: `r < R` and `k < ks.end`, inside `a` by this function's
        // contract.
        let a_k: [f32; R] = std::array::from_fn(|r| unsafe { a.at(i + r, k) });
        for (acc, a_rk) in acc.iter_mut().zip(a_k) {
            if SKIP && b.by_k && a_rk == 0.0 {
                continue;
            }
            let mut b_k = [0.0f32; N];
            for (c, b_kc) in b_k.iter_mut().enumerate() {
                // SAFETY: `c < N` and `k < ks.end`, inside `b` likewise.
                *b_kc = unsafe { b.at(j + c, k) };
            }
            for (acc, b_kc) in acc.iter_mut().zip(b_k) {
                *acc += a_rk * b_kc;
            }
        }
    }
    for (acc, out_row) in acc.iter().zip(out.chunks_exact_mut(cols)) {
        out_row[j..j + N].copy_from_slice(acc);
    }
}

/// `aᵀ? · bᵀ?`, added into `out` (row-major; at least one row and one
/// column), four output rows at a time. Tile geometry: pairs of rows take
/// 2 × 32 tiles while 32 columns remain (eight AVX2 registers of
/// accumulators, four AVX-512 ones, leaving room for a row of `b` and two
/// broadcasts); the
/// remaining columns — all of them in an output narrower than 32 — take
/// 4-row tiles of 8, 4 and 1 columns and 2-row tiles of 16 (`4 × 16`
/// would spill SSE's sixteen registers), so each `b` value read serves
/// four independent add chains instead of one. The last one to three rows
/// of an output take single-row tiles there. `aᵀ · b` walks `k` in
/// [`K_BLOCK`]s, the other two in one piece. With `SKIP`, a zero of `a`
/// is skipped unless `b` is transposed.
#[inline(always)]
fn product_rows<const TA: bool, const TB: bool, const SKIP: bool>(
    (a, b): (&Matrix, &Matrix),
    out: &mut [f32],
) {
    let ab = operands::<TA, TB>(a, b);
    let ((rows, inner), (cols, b_steps)) = (ab.0.extent(), ab.1.extent());
    assert!(
        b_steps == inner && out.len() == rows * cols,
        "product out of bounds"
    );
    let k_block = if TA { K_BLOCK } else { inner.max(1) };
    for k0 in (0..inner).step_by(k_block) {
        let ks = k0..inner.min(k0 + k_block);
        for (quad, out) in out.chunks_mut(4 * cols).enumerate() {
            let i = 4 * quad;
            let paired = out.len() / (2 * cols) * 2;
            let wide = if paired > 0 { cols / 32 * 32 } else { 0 };
            // SAFETY (every tile below): its rows are rows of `out`, which
            // holds rows `i..i + 4` or the last ones of the product, its
            // columns `j..j + N` are in `0..cols` and `ks` in `0..inner`,
            // all of which the assertion above found inside the operands.
            for (pair, out) in out.chunks_exact_mut(2 * cols).enumerate() {
                for j in (0..wide).step_by(32) {
                    unsafe { tile::<2, 32, SKIP>(ab, ks.clone(), (i + 2 * pair, j), out) };
                }
            }
            if out.len() == 4 * cols {
                for_col_tiles!(j in wide, cols; N => {
                    const R: usize = if N == 16 { 2 } else { 4 };
                    for (r, out) in out.chunks_exact_mut(R * cols).enumerate() {
                        unsafe { tile::<R, N, SKIP>(ab, ks.clone(), (i + R * r, j), out) };
                    }
                });
            } else {
                for (r, out) in out.chunks_exact_mut(cols).enumerate() {
                    let from = if r < paired { wide } else { 0 };
                    for_col_tiles!(j in from, cols; N => unsafe {
                        tile::<1, N, SKIP>(ab, ks.clone(), (i + r, j), out)
                    });
                }
            }
        }
    }
}

/// [`product_rows`] compiled for AVX2: the same body, eight lanes wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn product_rows_avx2<const TA: bool, const TB: bool, const SKIP: bool>(
    ab: (&Matrix, &Matrix),
    out: &mut [f32],
) {
    product_rows::<TA, TB, SKIP>(ab, out);
}

/// [`product_rows`] compiled for AVX-512F: the same body, sixteen lanes
/// wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn product_rows_avx512<const TA: bool, const TB: bool, const SKIP: bool>(
    ab: (&Matrix, &Matrix),
    out: &mut [f32],
) {
    product_rows::<TA, TB, SKIP>(ab, out);
}

/// The instruction sets [`product_rows`] is instantiated for, each valued
/// at its `f32` lanes per vector register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Portable = 4,
    Avx2 = 8,
    Avx512 = 16,
}

impl Isa {
    /// Every instantiation, narrowest first.
    const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512];

    /// Whether the running CPU can run this instantiation.
    fn detected(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest instantiation the running CPU can run.
    fn widest() -> Isa {
        let mut isas = Isa::ALL.into_iter().rev();
        isas.find(|isa| isa.detected()).unwrap_or(Isa::Portable)
    }
}

/// `f32` lanes per vector register of the instantiation the products run
/// on this CPU: 16 for AVX-512, 8 for AVX2, 4 for the portable one.
/// Read-only — the choice is the CPU's, not a setting.
pub fn kernel_lanes() -> usize {
    Isa::widest() as usize
}

/// Whether `a · b` (`a · bᵀ` when `TB`) must run the skipping body. Only a
/// `b` read by `k` that holds `±∞` or `NaN` needs it: with a finite `b`
/// every `±0 · b` term is `±0`, which leaves an accumulator that is never
/// `−0.0` unchanged (module doc), and `a · bᵀ` never skips.
fn needs_skip<const TB: bool>(b: &Matrix) -> bool {
    !TB && !all_finite(&b.data)
}

/// Whether every element of `data` is finite: `v · 0` is `±0.0` for a
/// finite `v` and `NaN` for `±∞` and `NaN`, summed in sixteen lanes so the
/// one pass vectorises.
fn all_finite(data: &[f32]) -> bool {
    let mut lanes = [0.0f32; 16];
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane += v * 0.0;
        }
    }
    let rest = chunks.remainder().iter().map(|v| v * 0.0);
    lanes.into_iter().chain(rest).sum::<f32>() == 0.0
}

/// [`product_rows`] with the body `SKIP` names, on `isa`.
///
/// # Safety
///
/// The running CPU must have `isa` ([`Isa::detected`]).
unsafe fn product_rows_on<const TA: bool, const TB: bool, const SKIP: bool>(
    isa: Isa,
    ab: (&Matrix, &Matrix),
    out: &mut [f32],
) {
    match isa {
        // SAFETY (both arms): the instruction set is the entry point's one
        // requirement, and the caller found it on the running CPU.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { product_rows_avx512::<TA, TB, SKIP>(ab, out) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { product_rows_avx2::<TA, TB, SKIP>(ab, out) },
        _ => product_rows::<TA, TB, SKIP>(ab, out),
    }
}

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization, deterministic in `rng`.
    pub fn xavier(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major storage. The
    /// threaded consumer recycles feature matrices through this: a trained
    /// batch's matrix turns back into the buffer the next gather fills,
    /// keeping steady state allocation-free.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Reshapes to an all-zero `rows × cols`, keeping the allocation: a
    /// buffer that lives across batches stops allocating once it has
    /// grown to the largest batch.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Becomes a copy of `other`, keeping the allocation.
    pub(crate) fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// `self @ other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into `out`'s storage.
    pub(crate) fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.product_on::<false, false>(other, out);
    }

    /// `self @ other.T`.
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_transb_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_transb`] into `out`'s storage.
    pub(crate) fn matmul_transb_into(&self, other: &Matrix, out: &mut Matrix) {
        self.product_on::<false, true>(other, out);
    }

    /// `self.T @ other`.
    pub fn transa_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.transa_matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::transa_matmul`] into `out`'s storage.
    pub(crate) fn transa_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.product_on::<true, false>(other, out);
    }

    /// `out = selfᵀ? · otherᵀ?`, transposing as `TA` and `TB` say, on the
    /// instantiation the CPU selects and the body `other` needs.
    fn product_on<const TA: bool, const TB: bool>(&self, other: &Matrix, out: &mut Matrix) {
        let skip = needs_skip::<TB>(other);
        self.product_via::<TA, TB>(other, (Isa::widest(), skip), out);
    }

    /// [`Matrix::product_on`] with the instantiation and the body named —
    /// `isa` only if the CPU has it: shapes `out` and runs the kernel over
    /// all of its rows. Nothing to do for an empty output.
    fn product_via<const TA: bool, const TB: bool>(
        &self,
        other: &Matrix,
        (isa, skip): (Isa, bool),
        out: &mut Matrix,
    ) {
        let (a, b) = operands::<TA, TB>(self, other);
        let ((rows, inner), (cols, other_inner)) = (a.extent(), b.extent());
        assert_eq!(inner, other_inner, "matmul shape mismatch");
        assert!(isa.detected(), "{isa:?} kernels need a CPU that has it");
        out.reset(rows, cols);
        if out.data.is_empty() {
            return;
        }
        let ab = (self, other);
        // SAFETY: the assertion above found `isa` on the running CPU.
        unsafe {
            if skip {
                product_rows_on::<TA, TB, true>(isa, ab, &mut out.data)
            } else {
                product_rows_on::<TA, TB, false>(isa, ab, &mut out.data)
            }
        }
    }

    /// Adds `other` element-wise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds a row vector (bias broadcast) to every row.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (a, b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *a += b;
            }
        }
    }

    /// Scales all elements by `s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sets all elements to zero.
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// In-place ReLU; `mask` is overwritten with the activation mask for
    /// backprop (its allocation is reused). One pass writes both: whatever
    /// is not `> 0` — negatives, `-0.0`, `NaN` — becomes `0.0`, inactive.
    pub fn relu_inplace(&mut self, mask: &mut Vec<bool>) {
        mask.resize(self.data.len(), false);
        for (a, active) in self.data.iter_mut().zip(mask.iter_mut()) {
            *active = *a > 0.0;
            *a = if *active { *a } else { 0.0 };
        }
    }

    /// Applies the stored ReLU mask to a gradient (in place).
    pub fn relu_backward_inplace(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.data.len(), "relu mask mismatch");
        // A select, not a branch: the mask is as unpredictable as the
        // activations' signs.
        for (g, &m) in self.data.iter_mut().zip(mask) {
            *g = if m { *g } else { 0.0 };
        }
    }

    /// Column-wise sum into `out` as a 1×cols matrix (bias gradient).
    pub fn col_sum_into(&self, out: &mut Matrix) {
        out.reset(1, self.cols);
        for r in 0..self.rows {
            for (o, &a) in out.data.iter_mut().zip(self.row(r)) {
                *o += a;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transb_consistency() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(2, 3, vec![1., 0., 1., 0., 1., 0.]);
        // a @ b.T == manually transposing b.
        let bt = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 0.]);
        assert_eq!(a.matmul_transb(&b).data(), a.matmul(&bt).data());
    }

    #[test]
    fn transa_matmul_consistency() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![1., 1., 0., 1., 1., 0.]);
        let at = Matrix::from_vec(2, 3, vec![1., 3., 5., 2., 4., 6.]);
        assert_eq!(a.transa_matmul(&b).data(), at.matmul(&b).data());
    }

    #[test]
    fn relu_roundtrip() {
        let mut m = Matrix::from_vec(1, 4, vec![-1., 2., -3., 4.]);
        // A stale, longer mask must be overwritten, not appended to.
        let mut mask = vec![true; 9];
        m.relu_inplace(&mut mask);
        assert_eq!(m.data(), &[0., 2., 0., 4.]);
        assert_eq!(mask, vec![false, true, false, true]);
        let mut g = Matrix::from_vec(1, 4, vec![1., 1., 1., 1.]);
        g.relu_backward_inplace(&mask);
        assert_eq!(g.data(), &[0., 1., 0., 1.]);
        // `NaN` and `-0.0` are not `> 0`: both become `+0.0`, inactive —
        // and the mask, now stale and longer, is overwritten again.
        let mut m = Matrix::from_vec(1, 3, vec![f32::NAN, -0.0, f32::MIN_POSITIVE]);
        m.relu_inplace(&mut mask);
        let bits: Vec<u32> = m.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0, 0, f32::MIN_POSITIVE.to_bits()]);
        assert_eq!(mask, vec![false, false, true]);
    }

    #[test]
    fn bias_broadcast_and_colsum() {
        let mut m = Matrix::zeros(2, 3);
        let bias = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        m.add_row_broadcast(&bias);
        assert_eq!(m.row(0), &[1., 2., 3.]);
        // A stale scratch of another shape is reshaped and zeroed first.
        let mut sum = Matrix::from_vec(2, 1, vec![9., 9.]);
        m.col_sum_into(&mut sum);
        assert_eq!((sum.rows(), sum.data()), (1, &[2., 4., 6.][..]));
    }

    #[test]
    fn xavier_is_bounded_and_deterministic() {
        let mut r1 = ChaCha8Rng::seed_from_u64(1);
        let mut r2 = ChaCha8Rng::seed_from_u64(1);
        let a = Matrix::xavier(8, 8, &mut r1);
        let b = Matrix::xavier(8, 8, &mut r2);
        assert_eq!(a.data(), b.data());
        let bound = (6.0f32 / 16.0).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn reset_and_copy_from_reuse_the_allocation() {
        let mut m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let ptr = m.data().as_ptr();
        m.reset(3, 1);
        assert_eq!((m.rows(), m.cols(), m.data()), (3, 1, &[0., 0., 0.][..]));
        m.copy_from(&Matrix::from_vec(1, 2, vec![7., 8.]));
        assert_eq!((m.rows(), m.cols(), m.data()), (1, 2, &[7., 8.][..]));
        assert_eq!(m.data().as_ptr(), ptr);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// The tiled kernels against straightforward scalar references —
    /// bit-for-bit, across widths below one 4-wide tile, 4-wide tiles with
    /// scalar remainders, and one or two 16-wide tiles with 4-wide and
    /// scalar remainders.
    #[test]
    fn blocked_kernels_match_scalar_reference_bitwise() {
        let scalar_matmul = |a: &Matrix, b: &Matrix| {
            let mut out = Matrix::zeros(a.rows(), b.cols());
            for i in 0..a.rows() {
                for (k, &av) in a.row(i).iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..b.cols() {
                        out.data[i * b.cols() + j] += av * b.get(k, j);
                    }
                }
            }
            out
        };
        let scalar_transb = |a: &Matrix, b: &Matrix| {
            let mut out = Matrix::zeros(a.rows(), b.rows());
            for i in 0..a.rows() {
                for j in 0..b.rows() {
                    let mut acc = 0.0f32;
                    for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
                        acc += x * y;
                    }
                    out.set(i, j, acc);
                }
            }
            out
        };
        let scalar_transa = |a: &Matrix, b: &Matrix| {
            let mut out = Matrix::zeros(a.cols(), b.cols());
            for k in 0..a.rows() {
                for i in 0..a.cols() {
                    let av = a.get(k, i);
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..b.cols() {
                        out.data[i * b.cols() + j] += av * b.get(k, j);
                    }
                }
            }
            out
        };
        let bits = |m: &Matrix| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for cols in [1usize, 2, 3, 4, 5, 7, 8, 11, 16, 17, 19, 23, 32, 35] {
            let mut a = Matrix::xavier(9, 13, &mut rng);
            for v in a.data_mut().iter_mut().step_by(5) {
                *v = 0.0;
            }
            let b = Matrix::xavier(13, cols, &mut rng);
            let bt = Matrix::xavier(cols, 13, &mut rng);
            let wide = Matrix::xavier(9, cols, &mut rng);
            assert_eq!(bits(&a.matmul(&b)), bits(&scalar_matmul(&a, &b)), "{cols}");
            assert_eq!(
                bits(&a.matmul_transb(&bt)),
                bits(&scalar_transb(&a, &bt)),
                "{cols}"
            );
            assert_eq!(
                bits(&a.transa_matmul(&wide)),
                bits(&scalar_transa(&a, &wide)),
                "{cols}"
            );
        }
    }

    /// `aᵀ? · bᵀ?` by the scalar triple loop the kernels must equal:
    /// every element over ascending `k` from zero, `a == 0` skipped unless
    /// `b` is transposed.
    fn scalar_product(ta: bool, tb: bool, a: &Matrix, b: &Matrix) -> Matrix {
        let (rows, inner) = if ta {
            (a.cols, a.rows)
        } else {
            (a.rows, a.cols)
        };
        let cols = if tb { b.rows } else { b.cols };
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for k in 0..inner {
                let av = if ta { a.get(k, i) } else { a.get(i, k) };
                if !tb && av == 0.0 {
                    continue;
                }
                for j in 0..cols {
                    let bv = if tb { b.get(j, k) } else { b.get(k, j) };
                    out.data[i * cols + j] += av * bv;
                }
            }
        }
        out
    }

    /// The product on one named instantiation and body (`skip`).
    fn product_via(
        (ta, tb): (bool, bool),
        (a, b): (&Matrix, &Matrix),
        kernel: (Isa, bool),
    ) -> Matrix {
        let mut out = Matrix::default();
        match (ta, tb) {
            (false, false) => a.product_via::<false, false>(b, kernel, &mut out),
            (false, true) => a.product_via::<false, true>(b, kernel, &mut out),
            (true, false) => a.product_via::<true, false>(b, kernel, &mut out),
            (true, true) => unreachable!("no layer needs aᵀ · bᵀ"),
        }
        out
    }

    /// Whether the product selects the skipping body for `b`.
    fn selects_skip(tb: bool, b: &Matrix) -> bool {
        if tb {
            needs_skip::<true>(b)
        } else {
            needs_skip::<false>(b)
        }
    }

    /// Bits, with every `NaN` as one value: which operand's payload an add
    /// of two `NaN`s keeps is the one thing the instruction set may choose.
    fn bits(m: &Matrix) -> Vec<u32> {
        let canonical = |v: &f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
        m.data().iter().map(canonical).collect()
    }

    /// Asserts that every instantiation this CPU can run — the portable
    /// one always, called directly — gives the scalar loop's bits with
    /// both bodies where the product would run the skip-free one, with
    /// the skipping body otherwise, and so does the product as the CPU
    /// selects it.
    fn assert_every_path(op: (bool, bool), ab: (&Matrix, &Matrix)) {
        let want = bits(&scalar_product(op.0, op.1, ab.0, ab.1));
        let (a, b) = ab;
        let shape = format!("{op:?} {}x{} · {}x{}", a.rows, a.cols, b.rows, b.cols);
        let skips = selects_skip(op.1, b);
        for isa in Isa::ALL.into_iter().filter(|isa| isa.detected()) {
            for skip in [true, false].into_iter().filter(|&skip| skip || !skips) {
                let body = if skip { "skip" } else { "skip-free" };
                let got = bits(&product_via(op, ab, (isa, skip)));
                assert_eq!(got, want, "{shape}, {isa:?} {body}");
            }
        }
        let selected = match op {
            (false, false) => a.matmul(b),
            (false, true) => a.matmul_transb(b),
            _ => a.transa_matmul(b),
        };
        assert_eq!(bits(&selected), want, "{shape}, selected");
    }

    const PRODUCTS: [(bool, bool); 3] = [(false, false), (false, true), (true, false)];

    /// `rows × cols` operands of `op` for an `r × inner` by `inner × c`
    /// product, a `zeros`-th of the left one's elements zeroed.
    fn random_operands(
        (ta, tb): (bool, bool),
        (r, inner, c): (usize, usize, usize),
        zeros: usize,
        rng: &mut ChaCha8Rng,
    ) -> (Matrix, Matrix) {
        let mut a = if ta {
            Matrix::xavier(inner, r, rng)
        } else {
            Matrix::xavier(r, inner, rng)
        };
        if zeros > 0 {
            for v in a.data_mut().iter_mut() {
                if rng.gen_range(0..zeros) == 0 {
                    *v = 0.0;
                }
            }
        }
        let b = if tb {
            Matrix::xavier(c, inner, rng)
        } else {
            Matrix::xavier(inner, c, rng)
        };
        (a, b)
    }

    /// Every instantiation of the three products, each with both bodies,
    /// against the scalar loop, bit for bit: random shapes around the tile
    /// and `k`-block edges (odd row counts, 32-wide tiles with and without
    /// remainders, inner dimensions that end inside a `k`-block), empty
    /// operands, the narrow geometry at every row count 1–13 (each
    /// remainder mod 4, up to three 4-row blocks) by every width 1–31,
    /// inside one `k`-block and across two, and a left operand with no, a
    /// fifth and half of its elements zero.
    #[test]
    fn every_instantiation_matches_the_scalar_loop_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let edges = [
            (0, 0, 0),
            (0, 5, 3),
            (3, 0, 5),
            (3, 5, 0),
            (1, 1, 1),
            (2, 64, 32),
            (3, 65, 33),
            (5, 128, 64),
            (7, 129, 70),
            (70, 150, 67),
        ];
        let random = (0..40).map(|_| {
            (
                rng.gen_range(0..71usize),
                rng.gen_range(0..151usize),
                rng.gen_range(0..71usize),
            )
        });
        let narrow = (1..=13).flat_map(|rows| {
            (1..32).flat_map(move |cols| [9, 70].map(|inner| (rows, inner, cols)))
        });
        let shapes: Vec<_> = edges.into_iter().chain(random).chain(narrow).collect();
        for (n, &shape) in shapes.iter().enumerate() {
            for op in PRODUCTS {
                let (a, b) = random_operands(op, shape, [0, 5, 2][n % 3], &mut rng);
                assert_every_path(op, (&a, &b));
            }
        }
    }

    /// What the skip means: where `a` is zero, `b` is not read into the
    /// sum — `±∞` and `NaN` there leave `a · b` and `aᵀ · b` finite on
    /// every instantiation, while `a · bᵀ`, which never skipped, turns
    /// `NaN` on every one alike. Such a `b` selects the skipping body for
    /// `a · b` and `aᵀ · b`. Wide tiles with remainders (5 × 70 by
    /// 70 × 67), and the narrow ones: 4-row tiles with a single last row
    /// at widths 7 (4 + 1 + 1 + 1) and 8, 2-row tiles of 16 beside
    /// 8 + 1 + 1 + 1 at 27; every shape across two `k`-blocks.
    #[test]
    fn a_zero_skips_infinities_and_nans_on_every_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for (rows, cols) in [(5, 67), (13, 7), (4, 8), (6, 27)] {
            for op @ (ta, tb) in PRODUCTS {
                let (mut a, mut b) = random_operands(op, (rows, 70, cols), 0, &mut rng);
                for k in [0, 63, 64, 69] {
                    for l in 0..rows {
                        let (row, col) = if ta { (k, l) } else { (l, k) };
                        a.set(row, col, 0.0);
                    }
                    for l in 0..cols {
                        let (row, col) = if tb { (l, k) } else { (k, l) };
                        b.set(row, col, specials[(k + l) % 3]);
                    }
                }
                assert_eq!(selects_skip(tb, &b), !tb, "{op:?} {rows}x{cols}");
                assert_every_path(op, (&a, &b));
                let finite = scalar_product(ta, tb, &a, &b)
                    .data()
                    .iter()
                    .all(|v| v.is_finite());
                assert_eq!(finite, !tb, "{op:?} {rows}x{cols}");
            }
        }
    }

    /// The finite scan sees one `±∞` or `NaN` anywhere: in the sixteen
    /// lanes and in the remainder, at every length up to three chunks.
    #[test]
    fn all_finite_finds_every_non_finite_element() {
        for len in 0..50 {
            let data: Vec<f32> = (0..len).map(|i| i as f32 - 20.5).collect();
            assert!(all_finite(&data), "{len}");
            for i in 0..len {
                for special in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                    let mut data = data.clone();
                    data[i] = special;
                    assert!(!all_finite(&data), "{len} {i} {special}");
                }
            }
        }
    }

    /// Why a finite `b` may drop the skip: the skip-free body writes the
    /// skipping one's bits on every instantiation, and a finite `b`
    /// selects it. Of every three rows of `a`, one cancels to an exact
    /// zero every four steps (`x · y` then `x · −y`) and then adds
    /// `−0.0 · b` and `+0.0 · b`, one is `±0.0` throughout (the bodies
    /// agree there because no accumulator starts at `−0.0`), and one holds,
    /// like `b`, `±0.0`, subnormals and products that underflow to `±0.0`
    /// among the random values. The shapes of
    /// `a_zero_skips_infinities_and_nans_on_every_path`, across two
    /// `k`-blocks.
    #[test]
    fn skip_free_body_equals_the_skipping_one_on_finite_b() {
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let tiny = f32::MIN_POSITIVE / 8.0;
        let edge = [0.0, -0.0, tiny, -tiny, 1e-30, -1e-30];
        for (rows, cols) in [(5, 67), (13, 7), (4, 8), (6, 27)] {
            for op @ (ta, tb) in PRODUCTS {
                let (mut a, mut b) = random_operands(op, (rows, 70, cols), 0, &mut rng);
                let at = |t: bool, l: usize, k: usize| if t { (k, l) } else { (l, k) };
                for k in 0..70 {
                    for l in 0..rows {
                        let (row, col) = at(ta, l, k);
                        let v = match (l % 3, k % 4) {
                            (0, 0) => continue,
                            (0, 1) => {
                                let (row, col) = at(ta, l, k - 1);
                                a.get(row, col)
                            }
                            (0, 2) | (1, 0 | 2) => -0.0,
                            (0 | 1, _) => 0.0,
                            _ if rng.gen_range(0..2) == 0 => edge[rng.gen_range(0..edge.len())],
                            _ => continue,
                        };
                        a.set(row, col, v);
                    }
                    for l in 0..cols {
                        let (row, col) = at(!tb, l, k);
                        let v = if k % 4 == 1 {
                            let (row, col) = at(!tb, l, k - 1);
                            -b.get(row, col)
                        } else if rng.gen_range(0..3) == 0 {
                            edge[rng.gen_range(0..edge.len())]
                        } else {
                            continue;
                        };
                        b.set(row, col, v);
                    }
                }
                let shape = format!("{op:?} {rows}x{cols}");
                assert!(!selects_skip(tb, &b), "{shape}");
                for isa in Isa::ALL.into_iter().filter(|isa| isa.detected()) {
                    let skipping = product_via(op, (&a, &b), (isa, true));
                    let skip_free = product_via(op, (&a, &b), (isa, false));
                    assert_eq!(bits(&skip_free), bits(&skipping), "{shape}, {isa:?}");
                }
                assert_every_path(op, (&a, &b));
            }
        }
    }

    /// The select writes what the branch it replaced wrote, bit for bit:
    /// gradients holding `NaN`s (with payloads), `±0.0`, `±∞` and finite
    /// values, each under both mask values, over a length that runs the
    /// vector loop and its scalar remainder.
    #[test]
    fn relu_backward_matches_the_branching_loop_bitwise() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xff80_0001),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.5,
            -f32::MIN_POSITIVE,
        ];
        let grads: Vec<f32> = specials.iter().cycle().take(37).copied().collect();
        for mask in [
            (0..37).map(|i| i % 2 == 0).collect::<Vec<_>>(),
            (0..37).map(|i| i % 3 != 0).collect(),
        ] {
            let mut want = grads.clone();
            for (g, &m) in want.iter_mut().zip(&mask) {
                if !m {
                    *g = 0.0;
                }
            }
            let mut got = Matrix::from_vec(1, grads.len(), grads.clone());
            got.relu_backward_inplace(&mask);
            let raw = |v: &[f32]| -> Vec<u32> { v.iter().map(|v| v.to_bits()).collect() };
            assert_eq!(raw(got.data()), raw(&want));
        }
    }

    #[test]
    fn into_vec_returns_row_major_storage() {
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(m.into_vec(), vec![1., 2., 3., 4.]);
    }

    #[test]
    fn matmuls_handle_empty_output() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        assert_eq!(a.matmul(&b).rows(), 0);
        assert_eq!(a.matmul_transb(&Matrix::zeros(4, 3)).rows(), 0);
        assert_eq!(a.transa_matmul(&Matrix::zeros(0, 0)).cols(), 0);
    }
}
