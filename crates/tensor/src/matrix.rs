//! Row-major `f32` matrices with the operations GNN layers need.
//!
//! The three matmul variants are data-parallel over disjoint *output* rows:
//! each output element's accumulation runs in the exact sequential order
//! (ascending `k`), so results are bit-identical at every thread count —
//! parallelism changes which thread computes a row, never the float-add
//! order within it. The plain methods consult [`gnnlab_par::global_threads`]
//! and only fan out when a multi-thread pool is configured and the product
//! is large enough to amortize dispatch.
//!
//! The kernels walk the output columns in register tiles (see
//! [`for_col_tiles`]): `matmul` and `matmul_transb` keep a tile of output
//! accumulators in registers and walk `k` once per tile; `transa_matmul`
//! is `k`-outer — it reads each row of both operands once and adds
//! `a · b_row` tile by tile into an output that stays cache-resident.
//! Neither touches the float-add order: every output element still
//! accumulates over ascending `k` with the same `a == 0` skips, so tiling
//! is invisible to the bit-identity contract.
//!
//! Each variant also has a crate-private `*_into` form that writes into a
//! caller-owned matrix, which is how the layers keep their buffers across
//! batches.

use gnnlab_par::ThreadPool;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Minimum `rows * inner * cols` product worth fanning out; below this the
/// chunk-dispatch overhead exceeds the multiply itself.
const PAR_MIN_FLOPS: usize = 64 * 1024;

fn par_pool(flops: usize) -> Option<std::sync::Arc<ThreadPool>> {
    if gnnlab_par::global_threads() > 1 && flops >= PAR_MIN_FLOPS {
        Some(gnnlab_par::global_pool())
    } else {
        None
    }
}

/// Runs `$kernel::<N>(args.., j)` over output columns `j..j + N`, taking
/// 16 columns while at least 16 remain (four SSE registers of
/// accumulators), then 4, then 1 — so no kernel needs a separate scalar
/// remainder loop.
macro_rules! for_col_tiles {
    ($cols:expr, $kernel:ident($($arg:expr),*)) => {{
        let cols: usize = $cols;
        let mut j = 0;
        while cols - j >= 16 {
            $kernel::<16>($($arg,)* j);
            j += 16;
        }
        while cols - j >= 4 {
            $kernel::<4>($($arg,)* j);
            j += 4;
        }
        while j < cols {
            $kernel::<1>($($arg,)* j);
            j += 1;
        }
    }};
}

/// Columns `j..j + N` of one `matmul` output row:
/// `out_row[c] += Σ_k a_row[k] · b[k][c]`, ascending `k`, skipping
/// `a == 0`.
#[inline(always)]
fn matmul_tile<const N: usize>(a_row: &[f32], b: &Matrix, out_row: &mut [f32], j: usize) {
    let mut acc = [0.0f32; N];
    acc.copy_from_slice(&out_row[j..j + N]);
    for (&a, b_row) in a_row.iter().zip(b.data.chunks_exact(b.cols)) {
        if a == 0.0 {
            continue;
        }
        for (acc, &b) in acc.iter_mut().zip(&b_row[j..j + N]) {
            *acc += a * b;
        }
    }
    out_row[j..j + N].copy_from_slice(&acc);
}

/// Columns `j..j + N` of one `matmul_transb` output row: `N` dot products
/// `a_row · b[c]` advancing together over one pass of `a_row`, each over
/// ascending `k` from zero.
#[inline(always)]
fn transb_tile<const N: usize>(a_row: &[f32], b: &Matrix, out_row: &mut [f32], j: usize) {
    let b_rows: [&[f32]; N] = std::array::from_fn(|c| &b.row(j + c)[..a_row.len()]);
    let mut acc = [0.0f32; N];
    for (k, &a) in a_row.iter().enumerate() {
        for (acc, b_row) in acc.iter_mut().zip(&b_rows) {
            *acc += a * b_row[k];
        }
    }
    out_row[j..j + N].copy_from_slice(&acc);
}

/// Columns `j..j + N` of one `transa_matmul` rank-1 update:
/// `out_row[c] += a · b_row[c]`.
#[inline(always)]
fn axpy_tile<const N: usize>(a: f32, b_row: &[f32], out_row: &mut [f32], j: usize) {
    for (o, &b) in out_row[j..j + N].iter_mut().zip(&b_row[j..j + N]) {
        *o += a * b;
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
    /// double-buffered prefetch path recycles feature matrices through
    /// this: a trained batch's matrix turns back into the buffer the next
    /// prefetch extracts into, keeping steady state allocation-free.
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

    /// `self @ other` (ikj loop order for cache friendliness). Fans out
    /// over the global pool when one is configured and the product is
    /// large; see [`Matrix::matmul_with`].
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// `self @ other` with output rows fanned across `pool`. Bit-identical
    /// to the sequential [`Matrix::matmul`] at every pool size.
    pub fn matmul_with(&self, other: &Matrix, pool: &ThreadPool) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_on(other, Some(pool), &mut out);
        out
    }

    /// [`Matrix::matmul`] into `out`'s storage.
    pub(crate) fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        let pool = par_pool(self.rows * self.cols * other.cols);
        self.matmul_on(other, pool.as_deref(), out);
    }

    fn matmul_on(&self, other: &Matrix, pool: Option<&ThreadPool>, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.reset(self.rows, other.cols);
        out.for_each_row(pool, |i, out_row| {
            for_col_tiles!(out_row.len(), matmul_tile(self.row(i), other, out_row));
        });
    }

    /// `self @ other.T`. Fans out like [`Matrix::matmul`].
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_transb_into(other, &mut out);
        out
    }

    /// `self @ other.T` with output rows fanned across `pool`.
    pub fn matmul_transb_with(&self, other: &Matrix, pool: &ThreadPool) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_transb_on(other, Some(pool), &mut out);
        out
    }

    /// [`Matrix::matmul_transb`] into `out`'s storage.
    pub(crate) fn matmul_transb_into(&self, other: &Matrix, out: &mut Matrix) {
        let pool = par_pool(self.rows * self.cols * other.rows);
        self.matmul_transb_on(other, pool.as_deref(), out);
    }

    fn matmul_transb_on(&self, other: &Matrix, pool: Option<&ThreadPool>, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_transb shape mismatch");
        out.reset(self.rows, other.rows);
        out.for_each_row(pool, |i, out_row| {
            for_col_tiles!(out_row.len(), transb_tile(self.row(i), other, out_row));
        });
    }

    /// `self.T @ other`. Fans out like [`Matrix::matmul`].
    pub fn transa_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.transa_matmul_into(other, &mut out);
        out
    }

    /// `self.T @ other` with output rows fanned across `pool`: each chunk
    /// runs the same `k`-outer loop restricted to its output rows, so
    /// every output element sees the identical float-add sequence and the
    /// result is bit-identical.
    pub fn transa_matmul_with(&self, other: &Matrix, pool: &ThreadPool) -> Matrix {
        let mut out = Matrix::default();
        self.transa_matmul_on(other, Some(pool), &mut out);
        out
    }

    /// [`Matrix::transa_matmul`] into `out`'s storage.
    pub(crate) fn transa_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        let pool = par_pool(self.rows * self.cols * other.cols);
        self.transa_matmul_on(other, pool.as_deref(), out);
    }

    fn transa_matmul_on(&self, other: &Matrix, pool: Option<&ThreadPool>, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "transa_matmul shape mismatch");
        out.reset(self.cols, other.cols);
        out.for_row_chunks(pool, |rows, chunk| {
            self.transa_matmul_rows(rows, other, chunk)
        });
    }

    /// Output rows `rows` of `self.T @ other`, added into `out`
    /// (`rows.len() × other.cols`, row-major). `k`-outer: row `k` of both
    /// operands is read once, and output row `i` gains
    /// `self[k][i] · other[k]` — ascending `k` per output element, with
    /// the `a == 0` skip, exactly as a per-row walk down column `i` adds
    /// them, but streaming `self` instead of striding through it.
    fn transa_matmul_rows(&self, rows: Range<usize>, other: &Matrix, out: &mut [f32]) {
        for (a_row, b_row) in self
            .data
            .chunks_exact(self.cols)
            .zip(other.data.chunks_exact(other.cols))
        {
            for (&a, out_row) in a_row[rows.clone()]
                .iter()
                .zip(out.chunks_exact_mut(other.cols))
            {
                if a == 0.0 {
                    continue;
                }
                for_col_tiles!(b_row.len(), axpy_tile(a, b_row, out_row));
            }
        }
    }

    /// Calls `f(i, row_i)` for every row, fanned across `pool` when one is
    /// given.
    fn for_each_row(&mut self, pool: Option<&ThreadPool>, f: impl Fn(usize, &mut [f32]) + Sync) {
        let cols = self.cols;
        self.for_row_chunks(pool, |rows, chunk| {
            for (i, row) in rows.zip(chunk.chunks_exact_mut(cols)) {
                f(i, row);
            }
        });
    }

    /// Calls `f(row_range, those_rows)` on disjoint row chunks covering the
    /// matrix: one chunk per `pool` worker, or the whole matrix at once
    /// without a pool. Nothing to do for an empty matrix.
    fn for_row_chunks(
        &mut self,
        pool: Option<&ThreadPool>,
        f: impl Fn(Range<usize>, &mut [f32]) + Sync,
    ) {
        if self.data.is_empty() {
            return;
        }
        match pool {
            Some(pool) => pool.par_chunks_mut(&mut self.data, self.cols, |_, rows, chunk| {
                f(rows, chunk);
            }),
            None => f(0..self.rows, &mut self.data),
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
    /// backprop (its allocation is reused).
    pub fn relu_inplace(&mut self, mask: &mut Vec<bool>) {
        mask.clear();
        mask.extend(self.data.iter_mut().map(|a| {
            let active = *a > 0.0;
            if !active {
                *a = 0.0;
            }
            active
        }));
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

    #[test]
    fn pooled_matmuls_are_bit_identical_to_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        // Odd row counts so chunks split unevenly (`transa`'s 19 output
        // rows never divide across 2, 4 or 8 workers); some zeros to hit
        // the skips; output widths covering the 16-wide tile alone, with
        // 4-wide and scalar remainders, and twice over.
        let mut a = Matrix::xavier(37, 19, &mut rng);
        for v in a.data_mut().iter_mut().step_by(7) {
            *v = 0.0;
        }
        for width in [16usize, 17, 19, 23, 32, 35] {
            let b = Matrix::xavier(19, width, &mut rng);
            let bt = Matrix::xavier(width, 19, &mut rng);
            let wide = Matrix::xavier(37, width, &mut rng);
            let mm = a.matmul(&b);
            let tb = a.matmul_transb(&bt);
            let ta = a.transa_matmul(&wide);
            for threads in [1, 2, 4, 8] {
                let pool = ThreadPool::new(threads);
                let at = format!("width {width}, {threads} threads");
                assert_eq!(a.matmul_with(&b, &pool).data(), mm.data(), "{at}");
                assert_eq!(a.matmul_transb_with(&bt, &pool).data(), tb.data(), "{at}");
                assert_eq!(a.transa_matmul_with(&wide, &pool).data(), ta.data(), "{at}");
            }
        }
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

    #[test]
    fn into_vec_returns_row_major_storage() {
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(m.into_vec(), vec![1., 2., 3., 4.]);
    }

    #[test]
    fn pooled_matmul_handles_empty_output() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        let pool = ThreadPool::new(4);
        assert_eq!(a.matmul_with(&b, &pool).rows(), 0);
        assert_eq!(a.transa_matmul_with(&Matrix::zeros(0, 0), &pool).cols(), 0);
    }
}
