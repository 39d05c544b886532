//! K-hop neighborhood sampling with Fisher–Yates and Reservoir kernels.

use crate::sample::{ProbeSet, Sample, SampleBuffers, SampleWork};
use crate::SamplingAlgorithm;
use gnnlab_graph::{Csr, VertexId};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Largest fan-out for which the Fisher–Yates duplicate probe stays a
/// linear scan. Below this a `Vec` scan beats hashing (tiny, cache-hot);
/// above it the O(k²) scan loses to the O(k) hashed [`ProbeSet`]. The
/// draw sequence is identical either way: exactly one `gen_range` per
/// selected index, regardless of the probe structure.
const FLOYD_LINEAR_MAX: usize = 16;

/// How many frontier vertices ahead of the one selecting the k-hop loop
/// prefetches a neighbor list. A list is a random read into the CSR's
/// `indices`; fetched this far ahead, its miss overlaps the selections in
/// between instead of stalling the one that needs it.
const PREFETCH_AHEAD: usize = 4;

/// Hints the CPU to start loading the head of `nbrs` into cache. A no-op
/// off x86_64.
#[inline(always)]
fn prefetch(nbrs: &[VertexId]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that never faults, whatever the
    // address; this one is in `nbrs`, or one past its end when empty.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(nbrs.as_ptr().cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = nbrs;
}

/// Uniform neighbor-selection kernel variant (§7.3).
///
/// Both kernels produce a uniform sample of `k` distinct neighbors, but at
/// different device cost: Reservoir (DGL) draws one random number per
/// *neighbor*, while Fisher–Yates (GNNLab/T_SOTA) draws one per *selected*
/// neighbor — a balanced workload, which is why the paper's Sample stage is
/// up to 2× faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Partial Fisher–Yates shuffle: `O(k)` draws.
    FisherYates,
    /// Vitter's reservoir sampling: `O(degree)` draws.
    Reservoir,
}

/// Neighbor-selection probability model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Uniform over neighbors, without replacement.
    Uniform,
    /// Proportional to edge weight, with replacement (binary search over
    /// the per-vertex cumulative weight table, as a GPU kernel would).
    /// Falls back to uniform if the graph has no weights or a vertex's
    /// total weight is zero.
    Weighted,
}

/// K-hop neighborhood sampling.
///
/// Starting from the mini-batch seeds, hop `i` selects `fanouts[i]`
/// neighbors for every frontier vertex; the union (deduplicated, remapped)
/// becomes the next frontier. Produces one [`LayerBlock`] per hop with
/// explicit self-loop edges so every dst aggregates at least itself.
///
/// # Examples
///
/// ```
/// use gnnlab_graph::gen::chung_lu;
/// use gnnlab_sampling::{KHop, Kernel, SamplingAlgorithm, Selection};
/// use rand::SeedableRng;
///
/// let g = chung_lu(100, 1000, 2.0, 1).unwrap();
/// let khop = KHop::new(vec![5, 3], Kernel::FisherYates, Selection::Uniform);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let s = khop.sample(&g, &[1, 2, 3], &mut rng);
/// assert_eq!(s.blocks.len(), 2);
/// s.validate().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct KHop {
    fanouts: Vec<usize>,
    kernel: Kernel,
    selection: Selection,
}

impl KHop {
    /// Creates a k-hop sampler; `fanouts[i]` is the per-vertex fan-out at
    /// hop `i` (outward from the seeds).
    ///
    /// # Panics
    ///
    /// Panics if `fanouts` is empty or contains a zero.
    pub fn new(fanouts: Vec<usize>, kernel: Kernel, selection: Selection) -> Self {
        assert!(!fanouts.is_empty(), "need at least one hop");
        assert!(fanouts.iter().all(|&f| f > 0), "fanouts must be positive");
        KHop {
            fanouts,
            kernel,
            selection,
        }
    }

    /// The configured fan-outs.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// Selects up to `fanout` neighbors of `v`, appending to `out`.
    #[expect(clippy::too_many_arguments)]
    fn select(
        &self,
        csr: &Csr,
        v: VertexId,
        fanout: usize,
        rng: &mut ChaCha8Rng,
        work: &mut SampleWork,
        out: &mut Vec<VertexId>,
        scratch: &mut Vec<u32>,
        probe: &mut ProbeSet,
    ) {
        let nbrs = csr.neighbors(v);
        let deg = nbrs.len();
        if deg == 0 {
            return;
        }
        match self.selection {
            Selection::Weighted => {
                if let Some(cum) = csr.cumulative_weights(v) {
                    let total = *cum.last().expect("deg > 0");
                    if total > 0.0 {
                        // k draws with replacement; each is a binary search
                        // over the CDF.
                        let log_deg = usize::BITS - (deg.max(1) as u32).leading_zeros();
                        for _ in 0..fanout {
                            let x: f32 = rng.gen::<f32>() * total;
                            let idx = cum.partition_point(|&c| c <= x).min(deg - 1);
                            out.push(nbrs[idx]);
                        }
                        work.rng_draws += fanout as u64;
                        work.edges_scanned += (fanout as u64) * u64::from(log_deg.max(1));
                        work.sampled_vertices += fanout as u64;
                        return;
                    }
                }
                // No weights / zero total: uniform fallback.
                self.select_uniform(nbrs, fanout, rng, work, out, scratch, probe);
            }
            Selection::Uniform => self.select_uniform(nbrs, fanout, rng, work, out, scratch, probe),
        }
    }

    #[expect(clippy::too_many_arguments)]
    fn select_uniform(
        &self,
        nbrs: &[VertexId],
        fanout: usize,
        rng: &mut ChaCha8Rng,
        work: &mut SampleWork,
        out: &mut Vec<VertexId>,
        scratch: &mut Vec<u32>,
        probe: &mut ProbeSet,
    ) {
        let deg = nbrs.len();
        if deg <= fanout {
            out.extend_from_slice(nbrs);
            work.edges_scanned += deg as u64;
            work.sampled_vertices += deg as u64;
            return;
        }
        match self.kernel {
            Kernel::FisherYates => {
                // Floyd's algorithm: k distinct indices in O(k) expected
                // work, independent of the vertex degree. This is what
                // makes the kernel "GPU-friendly ... more balanced for
                // each vertex" (§7.3): a hub with millions of neighbors
                // costs the same as a leaf.
                if fanout <= FLOYD_LINEAR_MAX {
                    scratch.clear();
                    for j in (deg - fanout)..deg {
                        let t = rng.gen_range(0..=j) as u32;
                        if scratch.contains(&t) {
                            scratch.push(j as u32);
                            out.push(nbrs[j]);
                        } else {
                            scratch.push(t);
                            out.push(nbrs[t as usize]);
                        }
                    }
                } else {
                    // Same draw sequence, O(1) duplicate probe. `j` can
                    // never already be a member (every prior member is
                    // ≤ the previous j < j), matching the linear path.
                    probe.reset(fanout);
                    for j in (deg - fanout)..deg {
                        let t = rng.gen_range(0..=j) as u32;
                        if probe.insert(t) {
                            out.push(nbrs[t as usize]);
                        } else {
                            probe.insert(j as u32);
                            out.push(nbrs[j]);
                        }
                    }
                }
                work.rng_draws += fanout as u64;
                work.edges_scanned += fanout as u64;
            }
            Kernel::Reservoir => {
                // Vitter's Algorithm R: one draw per neighbor past the
                // first k. We execute it faithfully; the *work counters*
                // model DGL's edge-parallel GPU kernel, where ~8 lanes
                // cooperate per vertex but a high-degree vertex still
                // serializes its thread (the per-vertex imbalance §7.3
                // blames): cost = clamp(deg/8, k, 64k) lane-steps.
                let base = out.len();
                out.extend_from_slice(&nbrs[..fanout]);
                reservoir(nbrs, rng, &mut out[base..], scratch);
                let lane_steps = (deg as u64 / 8).clamp(fanout as u64, 64 * fanout as u64);
                work.rng_draws += lane_steps;
                work.edges_scanned += lane_steps;
            }
        }
        work.sampled_vertices += fanout as u64;
    }
}

/// Draws per bulk word read in [`reservoir`]: four words each, so one
/// read is at most a quarter of the generator's 256-word buffer.
const RESERVOIR_CHUNK: usize = 64;

/// Largest divisor [`reduce8`] reduces exactly: every Horner step's
/// `r · 2³² + limb` is below `d · 2³² ≤ 2⁵³`, an integer `f64` holds.
const MAX_F64_DIVISOR: usize = 1 << 21;

/// Algorithm R over `nbrs` into `reservoir`, which holds its first
/// `reservoir.len()` entries: neighbour `i` past them replaces entry
/// `gen_range(0..=i)` when that is in range. The draws are the ones the
/// per-neighbour `gen_range` loop makes — the same four words each, the
/// same `x mod (i + 1)` — taken [`RESERVOIR_CHUNK`] at a time from one
/// [`ChaCha8Rng::fill_words`] and reduced eight at a time by [`reduce8`]
/// where the CPU has AVX-512F and every divisor of the eight is at most
/// [`MAX_F64_DIVISOR`]; the rest take the scalar `u128 %`. `words` is
/// scratch space for the draws' words.
fn reservoir(
    nbrs: &[VertexId],
    rng: &mut ChaCha8Rng,
    reservoir: &mut [VertexId],
    words: &mut Vec<u32>,
) {
    let k = reservoir.len();
    let wide = avx512f();
    words.resize(4 * RESERVOIR_CHUNK, 0);
    let mut first = k;
    while first < nbrs.len() {
        let chunk = &nbrs[first..nbrs.len().min(first + RESERVOIR_CHUNK)];
        let words = &mut words[..4 * chunk.len()];
        rng.fill_words(words);
        let mut t = 0;
        while wide && t + 8 <= chunk.len() && first + t + 8 <= MAX_F64_DIVISOR {
            let eight = words[4 * t..4 * t + 32].try_into().expect("32 words");
            let (mut hits, j) = reduce8(eight, first + t + 1, k);
            while hits != 0 {
                let lane = hits.trailing_zeros() as usize;
                reservoir[j[lane] as usize] = chunk[t + lane];
                hits &= hits - 1;
            }
            t += 8;
        }
        for (t, (&nbr, w)) in chunk.iter().zip(words.chunks_exact(4)).enumerate().skip(t) {
            let j = draw(w) % (first + t + 1) as u128;
            if j < k as u128 {
                reservoir[j as usize] = nbr;
            }
        }
        first += chunk.len();
    }
}

/// The `u128` that `next_u128` makes of four consecutive words: two
/// `u64`s, the first in the high half, each low word first.
#[inline]
fn draw(w: &[u32]) -> u128 {
    let hi = u64::from(w[0]) | u64::from(w[1]) << 32;
    let lo = u64::from(w[2]) | u64::from(w[3]) << 32;
    u128::from(hi) << 64 | u128::from(lo)
}

/// Whether the running CPU has AVX-512F, which [`reduce8`] needs.
fn avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `x_t mod (d0 + t)` for the eight draws `x_t` in `words` (four words
/// each, as [`draw`] reads them), and the mask of lanes whose remainder is
/// below `k`: in `f64` lanes where the CPU has AVX-512F, by the scalar
/// `u128 %` elsewhere. Every divisor must be at most [`MAX_F64_DIVISOR`].
///
/// The lanes are exact: the limbs of `x` most significant first are words
/// 1, 0, 3, 2, and Horner's `n = r · 2³² + limb` (one exact FMA, below
/// `2⁵³`) is reduced by `q = ⌊n · (1/d)⌋` with a `rcp14` estimate sharpened
/// by two Newton steps to a relative error near `2⁻⁵⁰`. `n/d < 2³²`, so
/// the product is within `2⁻¹⁸` of `n/d` and `q` is off by at most one;
/// `r = n − q · d` is one FMA whose exact result (an integer in `(−d, 2d)`)
/// needs no rounding, and one `±d` step brings it into `[0, d)`.
fn reduce8(words: &[u32; 32], d0: usize, k: usize) -> (u8, [u32; 8]) {
    debug_assert!((1..=MAX_F64_DIVISOR - 7).contains(&d0), "divisor {d0}");
    #[cfg(target_arch = "x86_64")]
    if avx512f() {
        // SAFETY: `reduce8_avx512`'s one requirement is AVX-512F, detected
        // on the running CPU by the line above.
        return unsafe { reduce8_avx512(words, d0, k) };
    }
    let mut hits = 0u8;
    let j: [u32; 8] = std::array::from_fn(|t| {
        let j = (draw(&words[4 * t..]) % (d0 + t) as u128) as u32;
        hits |= u8::from((j as usize) < k) << t;
        j
    });
    (hits, j)
}

/// [`reduce8`] in the eight `f64` lanes of AVX-512F registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn reduce8_avx512(words: &[u32; 32], d0: usize, k: usize) -> (u8, [u32; 8]) {
    use std::arch::x86_64::*;

    // SAFETY: `words` is 32 `u32`s, so both unaligned 64-byte loads are in
    // bounds.
    let (a, b) = unsafe {
        let p = words.as_ptr();
        (
            _mm512_loadu_si512(p.cast()),
            _mm512_loadu_si512(p.add(16).cast()),
        )
    };
    // Element `4t + w` of `a ++ b` is word `w` of draw `t`. The limbs, most
    // significant first, are words 1, 0, 3, 2: gather limb pairs (0, 1) and
    // (2, 3) of all eight draws, one limb per 256-bit half.
    let limbs01 = _mm512_permutex2var_epi32(
        a,
        _mm512_setr_epi32(1, 5, 9, 13, 17, 21, 25, 29, 0, 4, 8, 12, 16, 20, 24, 28),
        b,
    );
    let limbs23 = _mm512_permutex2var_epi32(
        a,
        _mm512_setr_epi32(3, 7, 11, 15, 19, 23, 27, 31, 2, 6, 10, 14, 18, 22, 26, 30),
        b,
    );
    let limbs = [
        _mm512_castsi512_si256(limbs01),
        _mm512_extracti64x4_epi64::<1>(limbs01),
        _mm512_castsi512_si256(limbs23),
        _mm512_extracti64x4_epi64::<1>(limbs23),
    ];

    let d = _mm512_add_pd(
        _mm512_set1_pd(d0 as f64),
        _mm512_setr_pd(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
    );
    let one = _mm512_set1_pd(1.0);
    let mut rcp = _mm512_rcp14_pd(d);
    for _ in 0..2 {
        rcp = _mm512_fmadd_pd(rcp, _mm512_fnmadd_pd(d, rcp, one), rcp);
    }
    let two32 = _mm512_set1_pd(4_294_967_296.0);
    let zero = _mm512_setzero_pd();
    let mut r = zero;
    for limb in limbs {
        let n = _mm512_fmadd_pd(r, two32, _mm512_cvtepu32_pd(limb));
        let q = _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(
            _mm512_mul_pd(n, rcp),
        );
        r = _mm512_fnmadd_pd(q, d, n);
        r = _mm512_mask_add_pd(r, _mm512_cmp_pd_mask::<_CMP_LT_OQ>(r, zero), r, d);
        r = _mm512_mask_sub_pd(r, _mm512_cmp_pd_mask::<_CMP_GE_OQ>(r, d), r, d);
    }
    let hits = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(r, _mm512_set1_pd(k as f64));
    let mut j = [0u32; 8];
    // SAFETY: `j` is eight `u32`s, 32 writable bytes; the store is the
    // unaligned form.
    unsafe { _mm256_storeu_si256(j.as_mut_ptr().cast(), _mm512_cvttpd_epu32(r)) };
    (hits, j)
}

impl SamplingAlgorithm for KHop {
    fn sample_into(
        &self,
        csr: &Csr,
        seeds: &[VertexId],
        rng: &mut ChaCha8Rng,
        bufs: &mut SampleBuffers,
        out: &mut Sample,
    ) {
        let hops = self.fanouts.len();
        bufs.begin(csr, seeds, hops, out);
        for (hop, &fanout) in self.fanouts.iter().enumerate() {
            for i in 0..bufs.frontier.len() {
                if let Some(&ahead) = bufs.frontier.get(i + PREFETCH_AHEAD) {
                    prefetch(csr.neighbors(ahead));
                }
                let v = bufs.frontier[i];
                let start = bufs.selected.len();
                self.select(
                    csr,
                    v,
                    fanout,
                    rng,
                    &mut out.work,
                    &mut bufs.selected,
                    &mut bufs.scratch,
                    &mut bufs.probe,
                );
                bufs.ranges.push((start, bufs.selected.len()));
            }
            out.work.kernel_launches += 1;
            // Hop `h` outward is block `hops - 1 - h`: blocks are stored
            // innermost first.
            bufs.finish_hop(&mut out.blocks[hops - 1 - hop], &mut out.visit_list);
        }
    }

    fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    fn name(&self) -> &'static str {
        match self.selection {
            Selection::Uniform => "k-hop random",
            Selection::Weighted => "k-hop weighted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_graph::gen::{chung_lu, recency_weights};
    use gnnlab_graph::GraphBuilder;
    use rand::SeedableRng;

    fn star(center_deg: usize) -> Csr {
        // Vertex 0 points at 1..=center_deg.
        let mut b = GraphBuilder::new(center_deg + 1);
        for d in 1..=center_deg {
            b.add_edge(0, d as VertexId);
        }
        b.build().unwrap()
    }

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn takes_all_neighbors_when_degree_small() {
        let g = star(3);
        let k = KHop::new(vec![5], Kernel::FisherYates, Selection::Uniform);
        let s = k.sample(&g, &[0], &mut rng());
        s.validate().unwrap();
        let mut inputs = s.input_nodes().to_vec();
        inputs.sort_unstable();
        assert_eq!(inputs, vec![0, 1, 2, 3]);
        // No draws needed when taking all.
        assert_eq!(s.work.rng_draws, 0);
        assert_eq!(s.work.edges_scanned, 3);
    }

    #[test]
    fn fisher_yates_selects_distinct_neighbors() {
        let g = star(100);
        let k = KHop::new(vec![10], Kernel::FisherYates, Selection::Uniform);
        let s = k.sample(&g, &[0], &mut rng());
        let block = &s.blocks[0];
        // 10 selected + 1 seed dst.
        assert_eq!(block.src_count(), 11);
        let mut sel: Vec<_> = block.src_globals[1..].to_vec();
        sel.sort_unstable();
        sel.dedup();
        assert_eq!(sel.len(), 10, "selections must be distinct");
        // Floyd's algorithm: O(k) draws and reads, independent of degree.
        assert_eq!(s.work.rng_draws, 10);
        assert_eq!(s.work.edges_scanned, 10);
    }

    #[test]
    fn reservoir_draw_count_scales_with_degree() {
        let g = star(100);
        let k = KHop::new(vec![10], Kernel::Reservoir, Selection::Uniform);
        let s = k.sample(&g, &[0], &mut rng());
        // Modeled edge-parallel cost: clamp(100/8, 10, 640) = 12 lane
        // steps — more than Fisher-Yates' 10, and growing with degree.
        assert_eq!(s.work.rng_draws, 12);
        let fy = KHop::new(vec![10], Kernel::FisherYates, Selection::Uniform);
        let s_fy = fy.sample(&g, &[0], &mut rng());
        assert!(s.work.rng_draws > s_fy.work.rng_draws);
        let block = &s.blocks[0];
        let mut sel: Vec<_> = block.src_globals[1..].to_vec();
        sel.sort_unstable();
        sel.dedup();
        assert_eq!(sel.len(), 10);
    }

    #[test]
    fn both_kernels_are_roughly_uniform() {
        // Select 1 of 4 neighbors many times; each should appear ~25 %.
        let g = star(4);
        for kernel in [Kernel::FisherYates, Kernel::Reservoir] {
            let k = KHop::new(vec![1], kernel, Selection::Uniform);
            let mut counts = [0usize; 5];
            let mut r = rng();
            for _ in 0..4000 {
                let s = k.sample(&g, &[0], &mut r);
                let picked = s.blocks[0].src_globals[1];
                counts[picked as usize] += 1;
            }
            for &c in &counts[1..] {
                assert!(
                    (700..1300).contains(&c),
                    "{kernel:?} count {c} not ~1000: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn weighted_prefers_heavy_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 9.0);
        b.add_weighted_edge(0, 2, 1.0);
        let g = b.build().unwrap();
        let k = KHop::new(vec![1], Kernel::FisherYates, Selection::Weighted);
        let mut r = rng();
        let mut heavy = 0usize;
        for _ in 0..2000 {
            let s = k.sample(&g, &[0], &mut r);
            if s.blocks[0].src_globals.get(1) == Some(&1) {
                heavy += 1;
            }
        }
        let frac = heavy as f64 / 2000.0;
        assert!((0.85..0.95).contains(&frac), "heavy fraction {frac}");
    }

    #[test]
    fn weighted_falls_back_to_uniform_without_weights() {
        let g = star(10);
        let k = KHop::new(vec![3], Kernel::FisherYates, Selection::Weighted);
        let s = k.sample(&g, &[0], &mut rng());
        s.validate().unwrap();
        assert_eq!(s.blocks[0].src_count(), 4);
    }

    #[test]
    fn multi_hop_blocks_chain() {
        let g = chung_lu(200, 3000, 2.0, 3).unwrap();
        let k = KHop::new(vec![15, 10, 5], Kernel::FisherYates, Selection::Uniform);
        let s = k.sample(&g, &[1, 2, 3, 4], &mut rng());
        assert_eq!(s.blocks.len(), 3);
        s.validate().unwrap();
        // Frontier grows outward: innermost block has the largest src set.
        assert!(s.blocks[0].src_count() >= s.blocks[1].src_count());
        assert!(s.blocks[1].src_count() >= s.blocks[2].src_count());
        assert_eq!(s.blocks[2].dst_count, 4);
    }

    #[test]
    fn deterministic_given_rng() {
        let g = chung_lu(200, 3000, 2.0, 3).unwrap();
        let k = KHop::new(vec![5, 5], Kernel::FisherYates, Selection::Uniform);
        let a = k.sample(&g, &[7, 9], &mut rng());
        let b = k.sample(&g, &[7, 9], &mut rng());
        assert_eq!(a.input_nodes(), b.input_nodes());
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn weighted_on_recency_graph_validates() {
        let g = recency_weights(chung_lu(300, 6000, 2.0, 5).unwrap(), 1).unwrap();
        let k = KHop::new(vec![10, 5], Kernel::FisherYates, Selection::Weighted);
        let s = k.sample(&g, &[1, 2, 3], &mut rng());
        s.validate().unwrap();
        assert!(s.work.sampled_vertices > 0);
    }

    #[test]
    fn visit_list_contains_seeds_and_selections() {
        let g = star(8);
        let k = KHop::new(vec![4], Kernel::FisherYates, Selection::Uniform);
        let s = k.sample(&g, &[0], &mut rng());
        assert_eq!(s.visit_list.len(), 1 + 4);
        assert_eq!(s.visit_list[0], 0);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_fanouts_panic() {
        let _ = KHop::new(vec![], Kernel::FisherYates, Selection::Uniform);
    }

    /// The four words [`draw`] reads back as `x`.
    fn words_of(x: u128) -> [u32; 4] {
        let (hi, lo) = ((x >> 64) as u64, x as u64);
        [hi as u32, (hi >> 32) as u32, lo as u32, (lo >> 32) as u32]
    }

    /// Holds [`reduce8`] to `u128 %` on eight draws at divisors `d0..d0 + 8`.
    fn check_reduce8(xs: [u128; 8], d0: usize, k: usize) {
        let mut words = [0u32; 32];
        for (w, x) in words.chunks_exact_mut(4).zip(xs) {
            w.copy_from_slice(&words_of(x));
            assert_eq!(draw(w), x);
        }
        let (hits, j) = reduce8(&words, d0, k);
        for (t, x) in xs.into_iter().enumerate() {
            let want = x % (d0 + t) as u128;
            assert_eq!(u128::from(j[t]), want, "x {x:#x} mod {}", d0 + t);
            assert_eq!(hits >> t & 1 == 1, want < k as u128, "hit {t}, d0 {d0}");
        }
    }

    /// The eight-lane reduction (AVX-512F where the CPU has it, the scalar
    /// form elsewhere) against `u128 %`: random words at small, middling
    /// and largest divisors, and words that are multiples of their
    /// divisor, one below and one above.
    #[test]
    fn reduce8_matches_u128_remainder() {
        let mut r = rng();
        let top = MAX_F64_DIVISOR - 7;
        let d0s = [1, 2, 3, 9, 1000, 65_536, top - 100, top - 1, top];
        for d0 in d0s {
            for k in [1, 5, 15, 1 << 21] {
                for _ in 0..50 {
                    check_reduce8(std::array::from_fn(|_| r.gen::<u128>()), d0, k);
                }
                for offset in [0u128, 1, u128::MAX] {
                    let xs = std::array::from_fn(|t| {
                        let d = (d0 + t) as u128;
                        let m = (r.gen::<u128>() / d).max(1);
                        (m * d).wrapping_add(offset)
                    });
                    check_reduce8(xs, d0, k);
                }
            }
            check_reduce8([0; 8], d0, 1);
            check_reduce8([u128::MAX; 8], d0, 1);
        }
    }

    /// The reservoir loop the chunked one replaces: one `gen_range(0..=i)`
    /// per neighbour past the first `k`.
    fn per_neighbour_reservoir(nbrs: &[VertexId], k: usize, r: &mut ChaCha8Rng) -> Vec<u32> {
        let mut out = nbrs[..k].to_vec();
        for (i, &nbr) in nbrs.iter().enumerate().skip(k) {
            let j = r.gen_range(0..=i);
            if j < k {
                out[j] = nbr;
            }
        }
        out
    }

    /// [`reservoir`] against [`per_neighbour_reservoir`] on one stream:
    /// the same selections, and the stream left at the same word.
    fn check_reservoir(nbrs: &[VertexId], k: usize, seed: u64) {
        let mut chunked = ChaCha8Rng::seed_from_u64(seed);
        let mut oracle = chunked.clone();
        let mut got = nbrs[..k].to_vec();
        reservoir(nbrs, &mut chunked, &mut got, &mut Vec::new());
        let want = per_neighbour_reservoir(nbrs, k, &mut oracle);
        assert_eq!(got, want, "degree {}, k {k}, seed {seed}", nbrs.len());
        assert_eq!(chunked.gen::<u64>(), oracle.gen::<u64>(), "stream position");
    }

    #[test]
    fn chunked_reservoir_matches_the_per_neighbour_loop() {
        let nbrs: Vec<VertexId> = (0..5000).map(|v| v * 3 + 1).collect();
        let mut r = rng();
        for k in [1, 5, 10, 15, 25] {
            // Draws `deg − k` below, at and above the eight-lane crossover,
            // at and around a chunk, then random degrees.
            let fixed = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 129];
            let random = (0..20).map(|_| r.gen_range(0..3000usize));
            for (at, draws) in fixed.into_iter().chain(random).enumerate() {
                check_reservoir(&nbrs[..k + draws], k, at as u64);
            }
        }
    }

    /// A vertex with more than 2²¹ neighbours: its first draws reduce in
    /// `f64` lanes, the ones past [`MAX_F64_DIVISOR`] take the scalar
    /// path, one chunk straddling the bound.
    #[test]
    fn chunked_reservoir_matches_past_the_f64_divisor_bound() {
        let nbrs: Vec<VertexId> = (0..MAX_F64_DIVISOR as u32 + 300).collect();
        check_reservoir(&nbrs, 10, 11);
    }

    fn assert_samples_equal(a: &Sample, b: &Sample) {
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.visit_list, b.visit_list);
        assert_eq!(a.work, b.work);
        assert_eq!(a.cache_mask, b.cache_mask);
        assert_eq!(a.blocks.len(), b.blocks.len());
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.src_globals, y.src_globals);
            assert_eq!(x.dst_count, y.dst_count);
            assert_eq!(x.edges, y.edges);
        }
    }

    #[test]
    fn buffer_reuse_is_byte_identical_across_batches() {
        let g = chung_lu(300, 6000, 2.0, 3).unwrap();
        let k = KHop::new(vec![15, 10, 5], Kernel::FisherYates, Selection::Uniform);
        let mut bufs = SampleBuffers::new();
        let mut reused = Sample::default();
        let mut rng_fresh = rng();
        let mut rng_reuse = rng();
        for seeds in [vec![1, 2, 3], vec![7], vec![50, 60, 70, 80], vec![2, 9]] {
            let fresh = k.sample(&g, &seeds, &mut rng_fresh);
            k.sample_into(&g, &seeds, &mut rng_reuse, &mut bufs, &mut reused);
            assert_samples_equal(&fresh, &reused);
            reused.validate().unwrap();
        }
    }

    #[test]
    fn hashed_probe_matches_linear_scan_reference() {
        // fanout 25 > FLOYD_LINEAR_MAX takes the hashed-probe branch;
        // replay the draw loop with the original linear scan and the same
        // stream — selections must agree index for index.
        let deg = 500usize;
        let fanout = 25usize;
        assert!(fanout > FLOYD_LINEAR_MAX);
        let g = star(deg);
        let k = KHop::new(vec![fanout], Kernel::FisherYates, Selection::Uniform);
        let s = k.sample(&g, &[0], &mut rng());

        let nbrs = g.neighbors(0);
        let mut r = rng();
        let mut scratch: Vec<u32> = Vec::new();
        let mut expect: Vec<VertexId> = Vec::new();
        for j in (deg - fanout)..deg {
            let t = r.gen_range(0..=j) as u32;
            if scratch.contains(&t) {
                scratch.push(j as u32);
                expect.push(nbrs[j]);
            } else {
                scratch.push(t);
                expect.push(nbrs[t as usize]);
            }
        }
        // src_globals = [seed 0] ++ deduped selections in selection order.
        let mut dedup: Vec<VertexId> = Vec::new();
        for &v in &expect {
            if v != 0 && !dedup.contains(&v) {
                dedup.push(v);
            }
        }
        assert_eq!(&s.blocks[0].src_globals[1..], &dedup[..]);
        assert_eq!(s.work.rng_draws, fanout as u64);
    }
}
