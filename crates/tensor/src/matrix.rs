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
//! `matmul_transb`'s; gathered). Geometry (`product_rows`): pairs of
//! output rows take 2 × 32 tiles while 32 columns remain; the remaining
//! columns, an odd last row and every output narrower than 32 take
//! single-row tiles of 16, 4 and 1 columns (`for_col_tiles`);
//! `transa_matmul` walks `k` in blocks of `K_BLOCK` rows of both
//! operands, so the block stays in cache while every tile passes over it.
//!
//! The body is instantiated twice — portably, and inside a
//! `#[target_feature(enable = "avx2")]` entry point that
//! `is_x86_feature_detected!` selects once per product ([`kernel_lanes`]
//! reports which). The identity contract makes the choice invisible:
//! every output element accumulates over ascending `k` with plain `*` and
//! `+` (no FMA, no `mul_add`, no reassociation), and the per-(row, `k`)
//! `a == 0` skip of `matmul` / `transa_matmul` holds on every path, so
//! tile shape, `k`-blocking and instruction set never change a bit.
//! AVX-512 was measured and left out: at the layer shapes it read within
//! a few percent of AVX2 (the prototype 42–50 vs 46–50 GFLOPS, this PR
//! 3–9 % on a host that varies ±10 % run to run) — not a third
//! instantiation's worth, so one wide instantiation is all there is.
//!
//! Each variant also has a crate-private `*_into` form that writes into a
//! caller-owned matrix, which is how the layers keep their buffers across
//! batches.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Runs `$tile` with `$j` at each tile start over columns `$from..$cols`
/// and `$n` the tile's width as a constant: 16 columns while at least 16
/// remain (four SSE registers of accumulators), then 4, then 1 — so no
/// kernel needs a separate scalar remainder loop.
macro_rules! for_col_tiles {
    ($j:ident in $from:expr, $cols:expr; $n:ident => $tile:expr) => {{
        let (mut $j, cols): (usize, usize) = ($from, $cols);
        for_col_tiles!(@while $j, cols, $n = 16, $tile);
        for_col_tiles!(@while $j, cols, $n = 4, $tile);
        for_col_tiles!(@while $j, cols, $n = 1, $tile);
    }};
    (@while $j:ident, $cols:ident, $n:ident = $width:literal, $tile:expr) => {{
        const $n: usize = $width;
        while $cols - $j >= $n {
            $tile;
            $j += $n;
        }
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
/// accumulates over ascending `k` with plain `*` and `+`, and unless `b`
/// is read transposed a zero `a(i + r, k)` leaves row `r` alone at that
/// `k` — so neither the tile shape nor the instruction set this is
/// compiled for changes a bit of the result.
///
/// # Safety
///
/// `a` must extend to `i + R` lanes, `b` to `j + N`, both to `ks.end`
/// steps.
#[inline(always)]
unsafe fn tile<const R: usize, const N: usize>(
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
            if b.by_k && a_rk == 0.0 {
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
/// column). Tile geometry: pairs of rows take 2 × 32 tiles while 32
/// columns remain (eight AVX2 registers of accumulators, leaving room for
/// a row of `b` and two broadcasts); the remaining columns, an odd last
/// row and every output narrower than 32 run single-row tiles of 16, 4
/// and 1 columns — the instruction mix narrow outputs always ran. `aᵀ · b` walks `k` in [`K_BLOCK`]s, the
/// other two in one piece. A zero of `a` is skipped unless `b` is
/// transposed.
#[inline(always)]
fn product_rows<const TA: bool, const TB: bool>((a, b): (&Matrix, &Matrix), out: &mut [f32]) {
    let ab = operands::<TA, TB>(a, b);
    let ((rows, inner), (cols, b_steps)) = (ab.0.extent(), ab.1.extent());
    assert!(
        b_steps == inner && out.len() == rows * cols,
        "product out of bounds"
    );
    let k_block = if TA { K_BLOCK } else { inner.max(1) };
    for k0 in (0..inner).step_by(k_block) {
        let ks = k0..inner.min(k0 + k_block);
        for (pair, out) in out.chunks_mut(2 * cols).enumerate() {
            let i = 2 * pair;
            let mut wide = 0;
            while out.len() == 2 * cols && cols - wide >= 32 {
                // SAFETY: rows `i` and `i + 1` are in `0..rows` (`out`
                // holds both), columns `wide..wide + 32` in `0..cols` and
                // `ks` in `0..inner`, all of which the assertion above
                // found inside the operands.
                unsafe { tile::<2, 32>(ab, ks.clone(), (i, wide), out) };
                wide += 32;
            }
            for (i, out) in (i..).zip(out.chunks_exact_mut(cols)) {
                // SAFETY: likewise — row `i` is one `out` holds, columns
                // `j..j + N` are in `0..cols`.
                for_col_tiles!(j in wide, cols; N => unsafe {
                    tile::<1, N>(ab, ks.clone(), (i, j), out)
                });
            }
        }
    }
}

/// [`product_rows`] compiled for AVX2: the same body, eight lanes wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn product_rows_avx2<const TA: bool, const TB: bool>(ab: (&Matrix, &Matrix), out: &mut [f32]) {
    product_rows::<TA, TB>(ab, out);
}

/// Whether the running CPU takes the AVX2 instantiation.
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `f32` lanes per vector register of the instantiation the products run
/// on this CPU: 8 for AVX2, 4 for the portable one. Read-only — the
/// choice is the CPU's, not a setting.
pub fn kernel_lanes() -> usize {
    if avx2_detected() {
        8
    } else {
        4
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
    /// instantiation the CPU selects.
    fn product_on<const TA: bool, const TB: bool>(&self, other: &Matrix, out: &mut Matrix) {
        self.product_via::<TA, TB>(other, avx2_detected(), out);
    }

    /// [`Matrix::product_on`] with the instantiation named — the AVX2 one
    /// only if `avx2` says the CPU has it: shapes `out` and runs the
    /// kernel over all of its rows. Nothing to do for an empty output.
    fn product_via<const TA: bool, const TB: bool>(
        &self,
        other: &Matrix,
        avx2: bool,
        out: &mut Matrix,
    ) {
        let (a, b) = operands::<TA, TB>(self, other);
        let ((rows, inner), (cols, other_inner)) = (a.extent(), b.extent());
        assert_eq!(inner, other_inner, "matmul shape mismatch");
        assert!(!avx2 || avx2_detected(), "AVX2 kernels need an AVX2 CPU");
        out.reset(rows, cols);
        if out.data.is_empty() {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            // SAFETY: `product_rows_avx2`'s one requirement is AVX2, which
            // the assertion above found on the running CPU.
            return unsafe { product_rows_avx2::<TA, TB>((self, other), &mut out.data) };
        }
        product_rows::<TA, TB>((self, other), &mut out.data)
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
        for (g, &m) in self.data.iter_mut().zip(mask) {
            if !m {
                *g = 0.0;
            }
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

    /// Frobenius norm (used in gradient tests).
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
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

    /// The product on one named instantiation.
    fn product_via((ta, tb): (bool, bool), (a, b): (&Matrix, &Matrix), avx2: bool) -> Matrix {
        let mut out = Matrix::default();
        match (ta, tb) {
            (false, false) => a.product_via::<false, false>(b, avx2, &mut out),
            (false, true) => a.product_via::<false, true>(b, avx2, &mut out),
            (true, false) => a.product_via::<true, false>(b, avx2, &mut out),
            (true, true) => unreachable!("no layer needs aᵀ · bᵀ"),
        }
        out
    }

    /// Bits, with every `NaN` as one value: which operand's payload an add
    /// of two `NaN`s keeps is the one thing the instruction set may choose.
    fn bits(m: &Matrix) -> Vec<u32> {
        let canonical = |v: &f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
        m.data().iter().map(canonical).collect()
    }

    /// Asserts that every instantiation this CPU can run — the portable
    /// one always, called directly — gives the scalar loop's bits.
    fn assert_every_path(op: (bool, bool), ab: (&Matrix, &Matrix)) {
        let want = bits(&scalar_product(op.0, op.1, ab.0, ab.1));
        for avx2 in [false, true] {
            if avx2 && !avx2_detected() {
                continue;
            }
            let (a, b) = ab;
            let at = format!(
                "{op:?} {}x{} · {}x{}, avx2 {avx2}",
                a.rows, a.cols, b.rows, b.cols
            );
            assert_eq!(bits(&product_via(op, ab, avx2)), want, "{at}");
        }
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

    /// Every instantiation of the three products against the scalar loop,
    /// bit for bit: random shapes around the tile and `k`-block edges
    /// (odd row counts, 32-wide tiles with and without remainders, inner
    /// dimensions that end inside a `k`-block), empty operands, and a
    /// left operand with no, a fifth and half of its elements zero.
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
        let shapes: Vec<_> = edges.into_iter().chain(random).collect();
        for (n, &shape) in shapes.iter().enumerate() {
            for op in PRODUCTS {
                let (a, b) = random_operands(op, shape, [0, 5, 2][n % 3], &mut rng);
                assert_every_path(op, (&a, &b));
            }
        }
    }

    /// What the skip means: where `a` is zero, `b` is not read into the
    /// sum — `±∞` and `NaN` there leave `a · b` and `aᵀ · b` finite on
    /// every path, while `a · bᵀ`, which never skipped, turns `NaN` on
    /// every path alike.
    #[test]
    fn a_zero_skips_infinities_and_nans_on_every_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for op @ (ta, tb) in PRODUCTS {
            // 5 × 70 by 70 × 67: wide tiles, remainders, two `k`-blocks.
            let (mut a, mut b) = random_operands(op, (5, 70, 67), 0, &mut rng);
            for k in [0, 63, 64, 69] {
                for l in 0..5 {
                    let (row, col) = if ta { (k, l) } else { (l, k) };
                    a.set(row, col, 0.0);
                }
                for l in 0..67 {
                    let (row, col) = if tb { (l, k) } else { (k, l) };
                    b.set(row, col, specials[(k + l) % 3]);
                }
            }
            assert_every_path(op, (&a, &b));
            let finite = scalar_product(ta, tb, &a, &b)
                .data()
                .iter()
                .all(|v| v.is_finite());
            assert_eq!(finite, !tb, "{op:?}");
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
