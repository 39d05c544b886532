//! GNN layers over sampled message-flow blocks with manual backprop.

use crate::matrix::{for_col_tiles, Matrix};
use gnnlab_sampling::LayerBlock;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (same shape).
    pub grad: Matrix,
}

impl Param {
    /// Wraps a value with a zero gradient.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Param { value, grad }
    }

    /// Zeroes the gradient.
    pub fn zero_grad(&mut self) {
        self.grad.zero();
    }
}

/// Mean aggregation into columns `col..col + x.cols()` of `out`, which
/// must be zero there: `out[dst] = mean over edges (src_local -> dst) of
/// x[src_local]`. `deg` is overwritten with each dst's edge count (the
/// divisor; blocks always contain a self-edge per dst, so it is ≥ 1).
///
/// Edges are summed a run of consecutive same-`dst` edges at a time (a
/// sampled block lists each dst's edges together), every run in register
/// tiles that start from what `out` already holds — so a dst that comes
/// back in a later run, or any other edge order, still sees its sources
/// added in list order, as a loop over single edges would. The tiles are
/// 32 columns wide while 32 remain, then 16, 8, 4 and 1: a tile walks the
/// run once, so a row up to 32 wide costs one walk and a 64-wide row two.
fn mean_aggregate_into(
    edges: &[(u32, u32)],
    x: &Matrix,
    out: &mut Matrix,
    col: usize,
    deg: &mut Vec<u32>,
) {
    let cols = col..col + x.cols();
    deg.clear();
    deg.resize(out.rows(), 0);
    for run in edges.chunk_by(|a, b| a.1 == b.1) {
        let d = run[0].1 as usize;
        deg[d] += run.len() as u32;
        let dst = &mut out.row_mut(d)[cols.clone()];
        for_col_tiles!(j in 0, dst.len(); N in [32, 16, 8, 4, 1] => {
            add_run::<N>(run, x, dst, j)
        });
    }
    for (d, &count) in deg.iter().enumerate() {
        let k = count.max(1) as f32;
        for o in &mut out.row_mut(d)[cols.clone()] {
            *o /= k;
        }
    }
}

/// `dst[j..j + N] += x[src][j..j + N]` for each edge of `run` in turn.
#[inline(always)]
fn add_run<const N: usize>(run: &[(u32, u32)], x: &Matrix, dst: &mut [f32], j: usize) {
    let mut acc = [0.0f32; N];
    acc.copy_from_slice(&dst[j..j + N]);
    for &(s, _) in run {
        for (a, v) in acc.iter_mut().zip(&x.row(s as usize)[j..j + N]) {
            *a += v;
        }
    }
    dst[j..j + N].copy_from_slice(&acc);
}

/// Backward of [`mean_aggregate_into`]: adds `grad_out[dst][cols] /
/// deg(dst)` to each contributing src row of `grad_in`. The quotient is
/// formed once per run of same-`dst` edges and column tile (as
/// [`mean_aggregate_into`] tiles), not once per edge: the same divisions,
/// so the same bits, and each src element still gains its terms in edge
/// order.
fn mean_aggregate_backward_into(
    edges: &[(u32, u32)],
    deg: &[u32],
    grad_out: &Matrix,
    cols: Range<usize>,
    grad_in: &mut Matrix,
) {
    for run in edges.chunk_by(|a, b| a.1 == b.1) {
        let d = run[0].1 as usize;
        let k = deg[d].max(1) as f32;
        let g_row = &grad_out.row(d)[cols.clone()];
        for_col_tiles!(j in 0, g_row.len(); N in [32, 16, 8, 4, 1] => {
            scatter_run::<N>(run, g_row, k, grad_in, j)
        });
    }
}

/// `grad_in[src][j..j + N] += g[j..j + N] / k` for each edge of `run` in
/// turn.
#[inline(always)]
fn scatter_run<const N: usize>(
    run: &[(u32, u32)],
    g: &[f32],
    k: f32,
    grad_in: &mut Matrix,
    j: usize,
) {
    let mut q = [0.0f32; N];
    for (q, &g) in q.iter_mut().zip(&g[j..j + N]) {
        *q = g / k;
    }
    for &(s, _) in run {
        for (gi, q) in grad_in.row_mut(s as usize)[j..j + N].iter_mut().zip(q) {
            *gi += q;
        }
    }
}

/// Adds this batch's gradients of `out = input @ w + b` to `w.grad` and
/// `b.grad`. Each is formed in `scratch` first and added whole, so a
/// `Param::grad` that already holds accumulated gradient sees the same
/// additions as ever.
fn linear_param_grads(
    input: &Matrix,
    d_out: &Matrix,
    w: &mut Param,
    b: &mut Param,
    scratch: &mut Matrix,
) {
    input.transa_matmul_into(d_out, scratch);
    w.grad.add_assign(scratch);
    d_out.col_sum_into(scratch);
    b.grad.add_assign(scratch);
}

/// Which GNN layer arithmetic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// GCN: `relu(mean_agg(X) W + b)`.
    GraphConv,
    /// GraphSAGE (mean aggregator): `relu([X_self | mean_agg(X)] W + b)`.
    SageConv,
    /// PinSAGE: neighbor transform `q = relu(X Wn + bn)`, then
    /// `relu([X_self | mean_agg(q)] W + b)`.
    PinSageConv,
}

/// One GNN layer with stored forward context.
#[derive(Debug, Clone)]
pub struct GnnLayer {
    kind: LayerKind,
    in_dim: usize,
    out_dim: usize,
    /// Final layers skip the output ReLU (they produce logits).
    activate: bool,
    /// Whether `backward` produces `d loss / d x`. A model's first layer
    /// has nobody to hand it to, and it costs as much as the forward
    /// matmul plus a scatter over every edge, so [`crate::GnnModel`]
    /// switches it off there.
    pub(crate) input_grad: bool,
    w: Param,
    b: Param,
    /// PinSAGE-only neighbor transform.
    wn: Option<Param>,
    bn: Option<Param>,
    ws: Workspace,
}

/// Buffers a layer keeps across batches: what `forward` leaves for
/// `backward`, and `backward`'s temporaries. Each is cleared and resized
/// per batch, so a steady-state train step allocates nothing here.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// Set by `forward`, consumed by `backward`.
    ready: bool,
    /// Input to the final linear op: `agg`, or `[x_self | agg]`.
    lin_in: Matrix,
    /// Edges per dst vertex — the mean's divisor.
    deg: Vec<u32>,
    relu_mask: Vec<bool>,
    /// The block's edges and src count, kept only when `backward` will
    /// scatter along them.
    edges: Vec<(u32, u32)>,
    src_count: usize,
    /// PinSAGE: the layer input (for `wn`'s gradient), the neighbor
    /// transform's activations and their mask.
    x: Matrix,
    q: Matrix,
    q_mask: Vec<bool>,
    /// `d loss / d lin_in`; its column ranges are `d_self` and `d_agg`.
    d_lin_in: Matrix,
    /// PinSAGE: `d loss / d q`.
    dq: Matrix,
    /// [`linear_param_grads`]' scratch.
    d_param: Matrix,
}

impl GnnLayer {
    /// Creates a layer with Xavier-initialized weights.
    pub fn new(
        kind: LayerKind,
        in_dim: usize,
        out_dim: usize,
        activate: bool,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let lin_in_dim = match kind {
            LayerKind::GraphConv => in_dim,
            LayerKind::SageConv => 2 * in_dim,
            LayerKind::PinSageConv => in_dim + out_dim,
        };
        let (wn, bn) = if kind == LayerKind::PinSageConv {
            (
                Some(Param::new(Matrix::xavier(in_dim, out_dim, rng))),
                Some(Param::new(Matrix::zeros(1, out_dim))),
            )
        } else {
            (None, None)
        };
        GnnLayer {
            kind,
            in_dim,
            out_dim,
            activate,
            input_grad: true,
            w: Param::new(Matrix::xavier(lin_in_dim, out_dim, rng)),
            b: Param::new(Matrix::zeros(1, out_dim)),
            wn,
            bn,
            ws: Workspace::default(),
        }
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// The column of `lin_in` where the aggregate starts: GCN's `lin_in`
    /// is the aggregate alone, the other two put `x_self` in front of it.
    fn agg_col(&self) -> usize {
        match self.kind {
            LayerKind::GraphConv => 0,
            LayerKind::SageConv | LayerKind::PinSageConv => self.in_dim,
        }
    }

    /// Forward pass: `x` is `block.src_count() x in_dim`; returns
    /// `block.dst_count x out_dim`. Stores context for backward.
    pub fn forward(&mut self, block: &LayerBlock, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(block, x, &mut out);
        out
    }

    /// [`GnnLayer::forward`] into `out`'s storage. `out` is the caller's;
    /// everything else this writes — `lin_in`, `deg`, the ReLU masks,
    /// PinSAGE's `x` and `q`, the copied edges — is the layer's
    /// [`Workspace`]: scratch that lives as long as the run, reshaped and
    /// overwritten per batch and never reallocated once it has held the
    /// largest one. It carries nothing from one batch to the next except
    /// its capacity; between this call and `backward_into` it is the
    /// forward context.
    pub(crate) fn forward_into(&mut self, block: &LayerBlock, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.rows(), block.src_count(), "input row mismatch");
        assert_eq!(x.cols(), self.in_dim, "input dim mismatch");
        let agg_col = self.agg_col();
        let pinsage = self.kind == LayerKind::PinSageConv;
        let ws = &mut self.ws;
        ws.lin_in.reset(block.dst_count, self.w.value.rows());
        if agg_col > 0 {
            // Dst vertices come first among the srcs: `x_self` is x's top rows.
            for r in 0..block.dst_count {
                ws.lin_in.row_mut(r)[..agg_col].copy_from_slice(x.row(r));
            }
        }
        let neighbors = if pinsage {
            let wn = self.wn.as_ref().expect("pinsage has wn");
            let bn = self.bn.as_ref().expect("pinsage has bn");
            x.matmul_into(&wn.value, &mut ws.q);
            ws.q.add_row_broadcast(&bn.value);
            ws.q.relu_inplace(&mut ws.q_mask);
            ws.x.copy_from(x);
            &ws.q
        } else {
            x
        };
        mean_aggregate_into(
            &block.edges,
            neighbors,
            &mut ws.lin_in,
            agg_col,
            &mut ws.deg,
        );
        ws.lin_in.matmul_into(&self.w.value, out);
        out.add_row_broadcast(&self.b.value);
        if self.activate {
            out.relu_inplace(&mut ws.relu_mask);
        }
        if self.input_grad || pinsage {
            ws.edges.clear();
            ws.edges.extend_from_slice(&block.edges);
            ws.src_count = block.src_count();
        }
        ws.ready = true;
    }

    /// Backward pass: takes `d loss / d output`, accumulates parameter
    /// gradients, returns `d loss / d x`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut grad = grad_out.clone();
        let mut dx = Matrix::default();
        self.backward_into(&mut grad, &mut dx);
        dx
    }

    /// [`GnnLayer::backward`] on caller-owned buffers: `grad` is
    /// `d loss / d output` and is masked by the output ReLU in place; `dx`
    /// receives `d loss / d x`, or is left alone when `input_grad` is off.
    /// The workspace's `d_lin_in`, `dq` and `d_param` are per-run scratch
    /// of this pass alone, overwritten by every call; what `forward_into`
    /// left there is read, not changed. Only `Param::grad` accumulates.
    pub(crate) fn backward_into(&mut self, grad: &mut Matrix, dx: &mut Matrix) {
        let agg_col = self.agg_col();
        let ws = &mut self.ws;
        assert!(std::mem::take(&mut ws.ready), "backward before forward");
        if self.activate {
            grad.relu_backward_inplace(&ws.relu_mask);
        }
        // Linear: out = lin_in @ W + b.
        linear_param_grads(&ws.lin_in, grad, &mut self.w, &mut self.b, &mut ws.d_param);

        let neighbor_params = self.wn.as_mut().zip(self.bn.as_mut());
        if !self.input_grad && neighbor_params.is_none() {
            return;
        }
        grad.matmul_transb_into(&self.w.value, &mut ws.d_lin_in);
        let d_agg = agg_col..ws.d_lin_in.cols();
        if let Some((wn, bn)) = neighbor_params {
            ws.dq.reset(ws.src_count, d_agg.len());
            mean_aggregate_backward_into(&ws.edges, &ws.deg, &ws.d_lin_in, d_agg, &mut ws.dq);
            ws.dq.relu_backward_inplace(&ws.q_mask);
            // q = x @ Wn + bn.
            linear_param_grads(&ws.x, &ws.dq, wn, bn, &mut ws.d_param);
            if !self.input_grad {
                return;
            }
            ws.dq.matmul_transb_into(&wn.value, dx);
        } else {
            dx.reset(ws.src_count, d_agg.len());
            mean_aggregate_backward_into(&ws.edges, &ws.deg, &ws.d_lin_in, d_agg, dx);
        }
        // `x_self` is x's top rows: their gradient adds onto dx's.
        for r in 0..ws.d_lin_in.rows() {
            for (a, &b) in dx.row_mut(r).iter_mut().zip(&ws.d_lin_in.row(r)[..agg_col]) {
                *a += b;
            }
        }
    }

    /// Every trainable parameter of this layer, in a stable order, without
    /// collecting them anywhere.
    pub fn params_iter_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        [&mut self.w, &mut self.b]
            .into_iter()
            .chain(self.wn.as_mut())
            .chain(self.bn.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_block() -> LayerBlock {
        // 2 dsts, 4 srcs; dst 0 aggregates {0, 2, 3}, dst 1 aggregates {1}.
        LayerBlock {
            src_globals: vec![10, 11, 12, 13],
            dst_count: 2,
            edges: vec![(0, 0), (2, 0), (3, 0), (1, 1)],
        }
    }

    #[test]
    fn mean_aggregate_averages_into_a_column_range() {
        let b = tiny_block();
        let x = Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let mut out = Matrix::zeros(2, 3);
        // A stale, longer degree buffer must be overwritten.
        let mut deg = vec![7; 5];
        mean_aggregate_into(&b.edges, &x, &mut out, 1, &mut deg);
        assert_eq!(deg, vec![3, 1]);
        // dst0 = mean of rows 0,2,3 = ((1+5+7)/3, (2+6+8)/3).
        assert!((out.get(0, 1) - 13.0 / 3.0).abs() < 1e-6);
        assert!((out.get(0, 2) - 16.0 / 3.0).abs() < 1e-6);
        assert_eq!(out.row(1), &[0., 3., 4.]);
    }

    /// The loop over single edges that the run-at-a-time aggregation
    /// replaced; the oracle for the order of its additions.
    fn per_edge_mean(edges: &[(u32, u32)], x: &Matrix, out: &mut Matrix, col: usize) -> Vec<u32> {
        let mut deg = vec![0u32; out.rows()];
        for &(s, d) in edges {
            deg[d as usize] += 1;
            for (c, v) in x.row(s as usize).iter().enumerate() {
                let sum = out.get(d as usize, col + c) + v;
                out.set(d as usize, col + c, sum);
            }
        }
        for (d, &count) in deg.iter().enumerate() {
            for c in col..col + x.cols() {
                out.set(d, c, out.get(d, c) / count.max(1) as f32);
            }
        }
        deg
    }

    /// Sums and degrees equal the per-edge loop's bit for bit at every
    /// width the column tiles meet (1–70, at a column offset), whether the
    /// edges come grouped by dst as a sampler emits them or shuffled so
    /// that a dst comes back in a later run, with duplicate edges and a
    /// dst nobody points at — and so does the backward's scatter, against
    /// the per-edge `g / deg` loop it replaced, from a non-zero gradient so
    /// the order of each element's additions shows.
    #[test]
    fn mean_aggregate_matches_the_per_edge_loop_bitwise() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for width in 1..=70usize {
            let (srcs, dsts, col) = (23, 9, width % 5 + 1);
            let x = Matrix::xavier(srcs, width, &mut rng);
            // Grouped by dst (dst 4 has no edge), then the same list cut
            // and interleaved so runs are short and dsts reappear.
            let mut grouped = Vec::new();
            for d in (0..dsts as u32).filter(|&d| d != 4) {
                grouped.push((d, d));
                let s = rng.gen_range(0..srcs as u32);
                grouped.extend([(s, d), (s, d)]);
                grouped
                    .extend((0..rng.gen_range(0..6)).map(|_| (rng.gen_range(0..srcs as u32), d)));
            }
            let (front, back) = grouped.split_at(grouped.len() / 2);
            let shuffled: Vec<(u32, u32)> = back
                .chunks(2)
                .zip(front.chunks(3))
                .flat_map(|(b, f)| [b, f].concat())
                .collect();
            let runs = shuffled.chunk_by(|a, b| a.1 == b.1).count();
            assert!(runs > dsts, "width {width}: no dst reappears");
            for edges in [&grouped, &shuffled] {
                let mut want = Matrix::zeros(dsts, col + width + 2);
                let want_deg = per_edge_mean(edges, &x, &mut want, col);
                let mut got = Matrix::zeros(dsts, col + width + 2);
                // A stale, longer degree buffer must be overwritten.
                let mut deg = vec![7; dsts + 3];
                mean_aggregate_into(edges, &x, &mut got, col, &mut deg);
                assert_eq!(deg, want_deg, "width {width}");
                let bits =
                    |m: &Matrix| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };
                assert_eq!(bits(&got), bits(&want), "width {width}");

                let g = Matrix::xavier(dsts, col + width + 2, &mut rng);
                let mut want_in = Matrix::xavier(srcs, width, &mut rng);
                let mut got_in = want_in.clone();
                for &(s, d) in edges.iter() {
                    let (s, d) = (s as usize, d as usize);
                    let k = want_deg[d].max(1) as f32;
                    for c in 0..width {
                        want_in.set(s, c, want_in.get(s, c) + g.get(d, col + c) / k);
                    }
                }
                mean_aggregate_backward_into(edges, &deg, &g, col..col + width, &mut got_in);
                assert_eq!(bits(&got_in), bits(&want_in), "backward, width {width}");
            }
        }
    }

    #[test]
    fn mean_aggregate_backward_scatters_a_column_range() {
        let b = tiny_block();
        let g = Matrix::from_vec(2, 2, vec![9.0, 3.0, 9.0, 5.0]);
        let mut gin = Matrix::zeros(4, 1);
        mean_aggregate_backward_into(&b.edges, &[3, 1], &g, 1..2, &mut gin);
        assert!((gin.get(0, 0) - 1.0).abs() < 1e-6);
        assert!((gin.get(2, 0) - 1.0).abs() < 1e-6);
        assert!((gin.get(3, 0) - 1.0).abs() < 1e-6);
        assert!((gin.get(1, 0) - 5.0).abs() < 1e-6);
    }

    /// Finite-difference gradient check for all layer kinds.
    #[test]
    fn gradient_check_all_kinds() {
        for kind in [
            LayerKind::GraphConv,
            LayerKind::SageConv,
            LayerKind::PinSageConv,
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let block = tiny_block();
            let mut layer = GnnLayer::new(kind, 2, 3, true, &mut rng);
            let x = Matrix::from_vec(4, 2, vec![0.5, -0.2, 0.3, 0.8, -0.6, 0.1, 0.9, 0.4]);

            // Loss = sum of outputs; dL/dout = ones.
            let out = layer.forward(&block, &x);
            let ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
            let dx = layer.backward(&ones);

            // Numeric dL/dx[0,0].
            let eps = 1e-3f32;
            let mut xp = x.clone();
            xp.set(0, 0, x.get(0, 0) + eps);
            let mut xm = x.clone();
            xm.set(0, 0, x.get(0, 0) - eps);
            let lp: f32 = layer.forward(&block, &xp).data().iter().sum();
            let lm: f32 = layer.forward(&block, &xm).data().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.get(0, 0) - numeric).abs() < 2e-2,
                "{kind:?}: analytic {} vs numeric {numeric}",
                dx.get(0, 0)
            );
        }
    }

    #[test]
    fn weight_gradient_check_graphconv() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let block = tiny_block();
        let mut layer = GnnLayer::new(LayerKind::GraphConv, 2, 2, false, &mut rng);
        let x = Matrix::from_vec(4, 2, vec![0.5, -0.2, 0.3, 0.8, -0.6, 0.1, 0.9, 0.4]);

        let out = layer.forward(&block, &x);
        let ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.rows() * out.cols()]);
        let _ = layer.backward(&ones);
        let analytic = layer.w.grad.get(0, 0);

        let eps = 1e-3f32;
        let orig = layer.w.value.get(0, 0);
        layer.w.value.set(0, 0, orig + eps);
        let lp: f32 = layer.forward(&block, &x).data().iter().sum();
        layer.w.value.set(0, 0, orig - eps);
        let lm: f32 = layer.forward(&block, &x).data().iter().sum();
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 2e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn output_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let block = tiny_block();
        let x = Matrix::zeros(4, 6);
        for kind in [
            LayerKind::GraphConv,
            LayerKind::SageConv,
            LayerKind::PinSageConv,
        ] {
            let mut layer = GnnLayer::new(kind, 6, 4, true, &mut rng);
            let out = layer.forward(&block, &x);
            assert_eq!((out.rows(), out.cols()), (2, 4), "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut layer = GnnLayer::new(LayerKind::GraphConv, 2, 2, true, &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 2));
    }

    /// Two forward/backward rounds of one layer with the input gradient
    /// on or off; returns every parameter gradient's bits.
    fn param_grad_bits(kind: LayerKind, input_grad: bool) -> Vec<Vec<u32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let block = tiny_block();
        let mut layer = GnnLayer::new(kind, 5, 19, true, &mut rng);
        layer.input_grad = input_grad;
        let mut x = Matrix::xavier(4, 5, &mut rng);
        x.set(2, 3, 0.0);
        let mut dx = Matrix::default();
        for _ in 0..2 {
            let out = layer.forward(&block, &x);
            let mut grad = Matrix::xavier(out.rows(), out.cols(), &mut rng);
            layer.backward_into(&mut grad, &mut dx);
        }
        assert_eq!(dx.rows(), if input_grad { 4 } else { 0 }, "{kind:?}");
        layer
            .params_iter_mut()
            .map(|p| p.grad.data().iter().map(|g| g.to_bits()).collect())
            .collect()
    }

    #[test]
    fn eliding_the_input_gradient_leaves_parameter_gradients_bit_identical() {
        for kind in [
            LayerKind::GraphConv,
            LayerKind::SageConv,
            LayerKind::PinSageConv,
        ] {
            let with = param_grad_bits(kind, true);
            assert_eq!(with, param_grad_bits(kind, false), "{kind:?}");
            // PinSAGE's neighbor transform sits *below* the aggregation:
            // its gradients need `dq` even when `dx` is elided.
            for grad in &with {
                assert!(grad.iter().any(|&g| f32::from_bits(g) != 0.0), "{kind:?}");
            }
        }
    }
}
