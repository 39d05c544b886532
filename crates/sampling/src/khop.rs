//! K-hop neighborhood sampling with Fisher–Yates and Reservoir kernels.

use crate::sample::{Sample, SampleBuffers, SampleWork};
use crate::SamplingAlgorithm;
use gnnlab_graph::{Csr, VertexId};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Largest fan-out for which the per-vertex Fisher–Yates loop
/// ([`KHop::select_hop`]) probes for duplicates by a linear scan. Below
/// this a `Vec` scan beats hashing (tiny, cache-hot); above it the O(k²)
/// scan loses to the O(k) hashed
/// [`ProbeSet`](crate::sample::ProbeSet). The draw sequence is
/// identical either way: exactly one `gen_range` per selected index,
/// regardless of the probe structure.
const FLOYD_LINEAR_MAX: usize = 16;

/// Largest fan-out the hop-wide Fisher–Yates ([`fisher_yates_hop`])
/// selects: it keeps a vertex's chosen indices in AVX-512 registers,
/// sixteen lanes each, one register up to 16, two up to 32. A hop with a
/// larger fan-out takes the per-vertex loop.
const FLOYD_REGISTER_MAX: usize = 32;

/// Frontier vertices whose draws [`fisher_yates_hop`] takes and reduces
/// in one run: about `32 · k` draws, enough for sixteen-draw reduction
/// steps, few enough that the prefetched neighbour lists stay in cache.
const FY_CHUNK: usize = 32;

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

    /// Whether [`fisher_yates_hop`] can select this sampler's hops on
    /// `csr`: uniform Fisher–Yates on a CPU with AVX-512F, and every degree
    /// an `i32` (a gather lane's offset).
    fn hop_wide(&self, csr: &Csr) -> bool {
        self.kernel == Kernel::FisherYates
            && self.selection == Selection::Uniform
            && avx512f()
            && csr.num_edges() <= i32::MAX as usize
    }

    /// One hop over `bufs.frontier`: [`fisher_yates_hop`] where
    /// [`KHop::hop_wide`] holds and the fan-out fits its registers, the
    /// per-vertex loop otherwise.
    fn hop(
        &self,
        csr: &Csr,
        fanout: usize,
        rng: &mut ChaCha8Rng,
        work: &mut SampleWork,
        bufs: &mut SampleBuffers,
    ) {
        if fanout <= FLOYD_REGISTER_MAX && self.hop_wide(csr) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `hop_wide` holds only where the CPU has AVX-512F,
            // `fisher_yates_hop`'s one requirement.
            unsafe {
                fisher_yates_hop(csr, fanout, rng, work, bufs)
            };
        } else {
            self.select_hop(csr, fanout, rng, work, bufs);
        }
    }

    /// One hop, vertex by vertex: frontier vertex `i` draws as it selects
    /// `selected[ranges[i]]`.
    fn select_hop(
        &self,
        csr: &Csr,
        fanout: usize,
        rng: &mut ChaCha8Rng,
        work: &mut SampleWork,
        bufs: &mut SampleBuffers,
    ) {
        for i in 0..bufs.frontier.len() {
            if let Some(&ahead) = bufs.frontier.get(i + PREFETCH_AHEAD) {
                prefetch(csr.neighbors(ahead));
            }
            let start = bufs.selected.len();
            self.select(csr, bufs.frontier[i], fanout, rng, work, bufs);
            bufs.ranges.push((start, bufs.selected.len()));
        }
    }

    /// Selects up to `fanout` neighbors of `v`, appending to
    /// `bufs.selected`.
    fn select(
        &self,
        csr: &Csr,
        v: VertexId,
        fanout: usize,
        rng: &mut ChaCha8Rng,
        work: &mut SampleWork,
        bufs: &mut SampleBuffers,
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
                            bufs.selected.push(nbrs[idx]);
                        }
                        work.rng_draws += fanout as u64;
                        work.edges_scanned += (fanout as u64) * u64::from(log_deg.max(1));
                        work.sampled_vertices += fanout as u64;
                        return;
                    }
                }
                // No weights / zero total: uniform fallback.
                self.select_uniform(nbrs, fanout, rng, work, bufs);
            }
            Selection::Uniform => self.select_uniform(nbrs, fanout, rng, work, bufs),
        }
    }

    fn select_uniform(
        &self,
        nbrs: &[VertexId],
        fanout: usize,
        rng: &mut ChaCha8Rng,
        work: &mut SampleWork,
        bufs: &mut SampleBuffers,
    ) {
        let deg = nbrs.len();
        let out = &mut bufs.selected;
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
                    let scratch = &mut bufs.scratch;
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
                    let probe = &mut bufs.probe;
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
                reservoir(nbrs, rng, &mut out[base..], &mut bufs.draws);
                let lane_steps = (deg as u64 / 8).clamp(fanout as u64, 64 * fanout as u64);
                work.rng_draws += lane_steps;
                work.edges_scanned += lane_steps;
            }
        }
        work.sampled_vertices += fanout as u64;
    }
}

/// One hop of uniform Fisher–Yates over `bufs.frontier` at AVX-512
/// width. It selects exactly what [`KHop::select_hop`] selects from the
/// same stream position, leaves the stream at the same word and counts
/// the same work. [`FY_CHUNK`] frontier vertices at a time, it
/// 1. reads their degrees and lists the divisors `deg − k + 1 ..= deg`
///    of each vertex with `deg > k`: the per-vertex loop draws
///    `gen_range(0..=j)` for `j` in `deg − k .. deg` there, and nothing
///    where `deg ≤ k`;
/// 2. takes all those draws' words in one [`ChaCha8Rng::fill_words`] and
///    reduces them by their divisors ([`Draws::draw`]);
/// 3. runs Floyd's selection per vertex on its `k` remainders, in
///    registers ([`floyd_lanes`]); hence `k ≤` [`FLOYD_REGISTER_MAX`].
///
/// The degree pass prefetches each neighbour list; the draws and the
/// reduction between it and the selection hide the misses.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fisher_yates_hop(
    csr: &Csr,
    k: usize,
    rng: &mut ChaCha8Rng,
    work: &mut SampleWork,
    bufs: &mut SampleBuffers,
) {
    debug_assert!(k <= FLOYD_REGISTER_MAX);
    let SampleBuffers {
        selected,
        ranges,
        frontier,
        draws,
        ..
    } = bufs;
    let before = selected.len();
    for chunk in frontier.chunks(FY_CHUNK) {
        draws.divisors.clear();
        for &v in chunk {
            let nbrs = csr.neighbors(v);
            prefetch(nbrs);
            if nbrs.len() > k {
                draws
                    .divisors
                    .extend((nbrs.len() - k + 1..=nbrs.len()).map(divisor));
            }
        }
        draws.draw(rng);
        work.rng_draws += draws.picks.len() as u64;
        let mut picks = draws.picks.chunks_exact(k);
        for &v in chunk {
            let nbrs = csr.neighbors(v);
            let start = selected.len();
            if nbrs.len() <= k {
                selected.extend_from_slice(nbrs);
            } else {
                let picks = picks.next().expect("k draws per vertex of degree above k");
                if k <= 16 {
                    floyd_lanes::<1>(picks, nbrs, selected);
                } else {
                    floyd_lanes::<2>(picks, nbrs, selected);
                }
            }
            ranges.push((start, selected.len()));
        }
    }
    // Each vertex selects `min(deg, k)` neighbours, one edge read each.
    let picked = (selected.len() - before) as u64;
    work.edges_scanned += picked;
    work.sampled_vertices += picked;
}

/// Floyd's selection from a vertex's `k ≤ 16·R` remainders, the chosen
/// indices kept in the lanes of `R` AVX-512 registers. Remainder `m` is
/// `t` drawn from `0..=j`, `j = deg − k + m`: lane `m` takes `t`, or `j`
/// when an earlier lane holds `t` (a compare against lanes `< m`, then a
/// masked insert). One masked gather of `nbrs` at the chosen indices
/// and one masked store per register append the picks to `selected`, in
/// lane order: the per-vertex loop's order. Lane `m`'s index is capped at
/// its `j`, a no-op on remainders, so no input reads outside `nbrs`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn floyd_lanes<const R: usize>(picks: &[u32], nbrs: &[VertexId], selected: &mut Vec<VertexId>) {
    use std::arch::x86_64::*;

    let k = picks.len();
    assert!(k <= 16 * R && k < nbrs.len() && nbrs.len() <= i32::MAX as usize);
    // Register `r`'s sixteen bits of a mask over lanes `0..32`.
    let part = |lanes: u32, r: usize| (lanes >> (16 * r)) as u16;
    let first = nbrs.len() - k;
    let mut chosen = [_mm512_setzero_si512(); R];
    for (m, &t) in picks.iter().enumerate() {
        let (earlier, lane) = ((1u32 << m) - 1, 1u32 << m);
        let t = _mm512_set1_epi32(t as i32);
        let mut dup = 0;
        for (r, &c) in chosen.iter().enumerate() {
            dup |= _mm512_mask_cmpeq_epi32_mask(part(earlier, r), c, t);
        }
        let j = _mm512_set1_epi32((first + m) as i32);
        let insert = _mm512_mask_blend_epi32(0u16.wrapping_sub(u16::from(dup != 0)), t, j);
        for (r, c) in chosen.iter_mut().enumerate() {
            *c = _mm512_mask_mov_epi32(*c, part(lane, r), insert);
        }
    }
    for (r, c) in chosen.iter_mut().enumerate() {
        let j = _mm512_add_epi32(
            _mm512_set1_epi32((first + 16 * r) as i32),
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        );
        *c = _mm512_min_epu32(*c, j);
    }
    let all = ((1u64 << k) - 1) as u32;
    let len = selected.len();
    selected.reserve(k);
    // SAFETY: lane `m`'s index is capped at `first + m < deg ≤ i32::MAX`
    // (asserted above), so the gathers read inside `nbrs`; lanes past `k`
    // are masked off. The stores write `k ≤ 16·R` elements into the
    // capacity just reserved past `len`, and `set_len` exposes exactly
    // those.
    unsafe {
        let out = selected.as_mut_ptr().add(len);
        for (r, &c) in chosen.iter().enumerate() {
            let lanes = part(all, r);
            let v = _mm512_mask_i32gather_epi32::<4>(
                _mm512_setzero_si512(),
                lanes,
                c,
                nbrs.as_ptr().cast(),
            );
            _mm512_mask_storeu_epi32(out.add(16 * r).cast(), lanes, v);
        }
        selected.set_len(len + k);
    }
}

/// Draws per bulk word read in [`reservoir`]: four words each, so one
/// read is at most a quarter of the generator's 256-word buffer.
const RESERVOIR_CHUNK: usize = 64;

/// Largest divisor [`reduce8`] reduces exactly: every Horner step's
/// `r · 2³² + limb` is below `d · 2³² ≤ 2⁵³`, an integer `f64` holds.
const MAX_F64_DIVISOR: usize = 1 << 21;

/// Scratch for a run of bounded draws `gen_range(0..=d − 1)`: their
/// words (four each), their divisors `d` and their remainders.
#[derive(Debug, Clone, Default)]
pub(crate) struct Draws {
    words: Vec<u32>,
    divisors: Vec<u32>,
    picks: Vec<u32>,
}

impl Draws {
    /// Takes one draw per divisor from `rng` — the words as many
    /// `gen_range` calls would read, in one [`ChaCha8Rng::fill_words`] —
    /// and reduces each by its divisor into `picks` ([`reduce`]).
    fn draw(&mut self, rng: &mut ChaCha8Rng) {
        let n = self.divisors.len();
        self.words.resize(4 * n, 0);
        rng.fill_words(&mut self.words);
        self.picks.resize(n, 0);
        reduce(&self.words, &self.divisors, &mut self.picks);
    }
}

/// The divisor `d` of a draw `gen_range(0..=d − 1)`: a degree or less.
fn divisor(d: usize) -> u32 {
    u32::try_from(d).expect("degrees fit in u32")
}

/// Algorithm R over `nbrs` into `reservoir`, which holds its first
/// `reservoir.len()` entries: neighbour `i` past them replaces entry
/// `gen_range(0..=i)` when that is in range. The draws are the ones the
/// per-neighbour `gen_range` loop makes — the same four words each, the
/// same `x mod (i + 1)` — taken [`RESERVOIR_CHUNK`] at a time by
/// [`Draws::draw`].
fn reservoir(
    nbrs: &[VertexId],
    rng: &mut ChaCha8Rng,
    reservoir: &mut [VertexId],
    draws: &mut Draws,
) {
    let k = reservoir.len();
    let mut first = k;
    while first < nbrs.len() {
        let chunk = &nbrs[first..nbrs.len().min(first + RESERVOIR_CHUNK)];
        draws.divisors.clear();
        draws
            .divisors
            .extend((first + 1..=first + chunk.len()).map(divisor));
        draws.draw(rng);
        for (&nbr, &j) in chunk.iter().zip(&draws.picks) {
            if (j as usize) < k {
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

/// The draw in `w` modulo `d`, by the `u128 %` that `gen_range` computes.
#[inline]
fn remainder(w: &[u32], d: u32) -> u32 {
    (draw(w) % u128::from(d)) as u32
}

/// Whether the running CPU has AVX-512F, which [`reduce8`],
/// [`floyd_lanes`] and [`fisher_yates_hop`] need.
fn avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `picks[t] = x_t mod divisors[t]` for every draw `x_t` in `words` (four
/// words each, as [`draw`] reads them): whole groups of eight by
/// [`reduce8`] where the CPU has AVX-512F, the rest and everything
/// elsewhere by the scalar `u128 %`.
fn reduce(words: &[u32], divisors: &[u32], picks: &mut [u32]) {
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if avx512f() {
        done = divisors.len() / 8 * 8;
        // SAFETY: `reduce_lanes`' one requirement is AVX-512F, detected on
        // the running CPU by the line above.
        unsafe { reduce_lanes(&words[..4 * done], &divisors[..done], &mut picks[..done]) };
    }
    for t in done..divisors.len() {
        picks[t] = remainder(&words[4 * t..], divisors[t]);
    }
}

/// [`reduce`] on whole groups of eight draws, two independent
/// [`reduce8`] chains per step so that one's latency hides the other's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn reduce_lanes(words: &[u32], divisors: &[u32], picks: &mut [u32]) {
    let eight = |t: usize| -> (&[u32; 32], &[u32; 8]) {
        let w = words[4 * t..4 * t + 32].try_into().expect("32 words");
        (w, divisors[t..t + 8].try_into().expect("8 divisors"))
    };
    let mut t = 0;
    while t + 16 <= divisors.len() {
        let (a, b) = (eight(t), eight(t + 8));
        let (a, b) = (reduce8(a.0, a.1), reduce8(b.0, b.1));
        picks[t..t + 8].copy_from_slice(&a);
        picks[t + 8..t + 16].copy_from_slice(&b);
        t += 16;
    }
    if t < divisors.len() {
        let (w, d) = eight(t);
        picks[t..t + 8].copy_from_slice(&reduce8(w, d));
    }
}

/// `x_t mod d_t` for the eight draws `x_t` in `words` (four words each,
/// as [`draw`] reads them) and the eight divisors `d_t`, in `f64` lanes;
/// a lane whose divisor is above [`MAX_F64_DIVISOR`] is redone by the
/// scalar `u128 %`.
///
/// The lanes are exact: the limbs of `x` most significant first are words
/// 1, 0, 3, 2, and Horner's `n = r · 2³² + limb` (one exact FMA, below
/// `2⁵³`) is reduced by `q = ⌊n · (1/d)⌋` with a `rcp14` estimate sharpened
/// by two Newton steps to a relative error near `2⁻⁵⁰`. `n/d < 2³²`, so
/// the product is within `2⁻¹⁸` of `n/d` and `q` is off by at most one;
/// `r = n − q · d` is one FMA whose exact result (an integer in `(−d, 2d)`)
/// needs no rounding, and one `±d` step brings it into `[0, d)`. Each lane
/// reads only its own divisor, so the argument holds lane by lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn reduce8(words: &[u32; 32], divisors: &[u32; 8]) -> [u32; 8] {
    use std::arch::x86_64::*;

    // SAFETY: `words` is 32 `u32`s and `divisors` eight, so both unaligned
    // 64-byte loads and the 32-byte one are in bounds.
    let (a, b, d) = unsafe {
        let p = words.as_ptr();
        (
            _mm512_loadu_si512(p.cast()),
            _mm512_loadu_si512(p.add(16).cast()),
            _mm256_loadu_si256(divisors.as_ptr().cast()),
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

    let d = _mm512_cvtepu32_pd(d);
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
    let mut j = [0u32; 8];
    // SAFETY: `j` is eight `u32`s, 32 writable bytes; the store is the
    // unaligned form.
    unsafe { _mm256_storeu_si256(j.as_mut_ptr().cast(), _mm512_cvttpd_epu32(r)) };
    let mut wide = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(d, _mm512_set1_pd(MAX_F64_DIVISOR as f64));
    while wide != 0 {
        let t = wide.trailing_zeros() as usize;
        j[t] = remainder(&words[4 * t..], divisors[t]);
        wide &= wide - 1;
    }
    j
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
            self.hop(csr, fanout, rng, &mut out.work, bufs);
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
    use rand::{RngCore, SeedableRng};

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

    /// Holds [`reduce`] to `u128 %` on the draws `xs` and their
    /// divisors, and [`reduce8`] on each whole group of eight where the
    /// CPU has AVX-512F.
    fn check_reduce(xs: &[u128], divisors: &[u32]) {
        let words: Vec<u32> = xs.iter().flat_map(|&x| words_of(x)).collect();
        for (w, &x) in words.chunks_exact(4).zip(xs) {
            assert_eq!(draw(w), x);
        }
        let want: Vec<u32> = xs
            .iter()
            .zip(divisors)
            .map(|(&x, &d)| (x % u128::from(d)) as u32)
            .collect();
        let mut got = vec![0; xs.len()];
        reduce(&words, divisors, &mut got);
        assert_eq!(got, want, "divisors {divisors:?}");
        #[cfg(target_arch = "x86_64")]
        if avx512f() {
            let groups = words.chunks_exact(32).zip(divisors.chunks_exact(8));
            for ((w, d), want) in groups.zip(want.chunks_exact(8)) {
                // SAFETY: the CPU has AVX-512F, checked above.
                let got = unsafe { reduce8(w.try_into().unwrap(), d.try_into().unwrap()) };
                assert_eq!(got, want, "divisors {d:?}");
            }
        }
    }

    /// The reduction against `u128 %`, one divisor per lane: divisors
    /// mixed from 1, 2, 3, 2²¹ and its neighbours, random ones up to 2²¹
    /// and random `u32`s (lanes the scalar path redoes), on random words
    /// and on multiples of each divisor, one below and one above. 29
    /// draws make a sixteen-draw step, an eight-draw one and a scalar
    /// tail.
    #[test]
    fn reduce8_matches_u128_remainder() {
        let mut r = rng();
        let top = MAX_F64_DIVISOR as u32;
        for round in 0..300 {
            // Even rounds keep every lane within the `f64` bound.
            let cap = if round % 2 == 0 { top } else { u32::MAX };
            let fixed = [1, 2, 3, 9, 1000, 65_536, top - 1, top, top + 1, u32::MAX];
            let fixed: Vec<u32> = fixed.into_iter().filter(|&d| d <= cap).collect();
            let divisors: Vec<u32> = (0..29)
                .map(|_| match r.gen_range(0..3) {
                    0 => fixed[r.gen_range(0..fixed.len())],
                    1 => r.gen_range(1..=top),
                    _ => r.gen_range(1..=cap),
                })
                .collect();
            let xs: Vec<u128> = divisors.iter().map(|_| r.gen::<u128>()).collect();
            check_reduce(&xs, &divisors);
            for offset in [0u128, 1, u128::MAX] {
                let xs: Vec<u128> = divisors
                    .iter()
                    .map(|&d| {
                        let d = u128::from(d);
                        ((r.gen::<u128>() / d).max(1) * d).wrapping_add(offset)
                    })
                    .collect();
                check_reduce(&xs, &divisors);
            }
            check_reduce(&[0; 29], &divisors);
            check_reduce(&[u128::MAX; 29], &divisors);
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
        reservoir(nbrs, &mut chunked, &mut got, &mut Draws::default());
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
        // fanout 25 > FLOYD_LINEAR_MAX takes the hashed-probe branch of
        // the per-vertex loop (two registers of the hop-wide one where the
        // CPU has AVX-512F); replay the draw loop with the original linear
        // scan and the same stream — selections must agree index for index.
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

    /// Floyd's selection by the per-vertex loop's linear scan, from a
    /// vertex's precomputed remainders.
    fn floyd_linear(picks: &[u32], nbrs: &[VertexId]) -> Vec<VertexId> {
        let mut chosen: Vec<u32> = Vec::new();
        for (j, &t) in ((nbrs.len() - picks.len()) as u32..).zip(picks) {
            chosen.push(if chosen.contains(&t) { j } else { t });
        }
        chosen.iter().map(|&c| nbrs[c as usize]).collect()
    }

    /// [`floyd_lanes`] at every register count that holds `picks`, where
    /// the CPU has AVX-512F, against [`floyd_linear`]. The register form
    /// appends after what `selected` already holds.
    fn check_floyd(picks: &[u32], nbrs: &[VertexId]) {
        let want = floyd_linear(picks, nbrs);
        #[cfg(target_arch = "x86_64")]
        if avx512f() {
            for registers in [1, 2].into_iter().filter(|r| picks.len() <= 16 * r) {
                let mut got = vec![u32::MAX];
                // SAFETY: the CPU has AVX-512F, checked above.
                unsafe {
                    match registers {
                        1 => floyd_lanes::<1>(picks, nbrs, &mut got),
                        _ => floyd_lanes::<2>(picks, nbrs, &mut got),
                    }
                }
                assert_eq!(got[0], u32::MAX);
                assert_eq!(got[1..], want, "{registers} registers, picks {picks:?}");
            }
        }
    }

    /// The register Floyd against the linear scan at fan-outs 1–32, on
    /// remainders that are all equal, that each name
    /// the previous draw's `j` (every draw after the first a duplicate),
    /// that each name their own `j`, and random ones at degrees just above
    /// the fan-out, where duplicates are common.
    #[test]
    fn register_floyd_matches_linear_scan() {
        let mut r = rng();
        for k in 1..=FLOYD_REGISTER_MAX as u32 {
            for deg in [k + 1, k + 2, 2 * k, 5 * k + 3, 1000] {
                let nbrs: Vec<VertexId> = (0..deg).map(|v| v * 7 + 3).collect();
                let first = deg - k;
                for c in [0, first / 2, first] {
                    check_floyd(&vec![c; k as usize], &nbrs);
                }
                let previous_j: Vec<u32> = (0..k).map(|m| first + m.saturating_sub(1)).collect();
                check_floyd(&previous_j, &nbrs);
                let own_j: Vec<u32> = (0..k).map(|m| first + m).collect();
                check_floyd(&own_j, &nbrs);
                for _ in 0..20 {
                    let picks: Vec<u32> = (0..k).map(|m| r.gen_range(0..=first + m)).collect();
                    check_floyd(&picks, &nbrs);
                }
            }
        }
    }

    /// A graph whose vertices `0..=40` have those degrees, followed by a
    /// power-law graph's vertices and, last, one vertex with three times
    /// [`MAX_F64_DIVISOR`] neighbours: far enough past it that reducing
    /// its draws in `f64` lanes would round.
    fn mixed_degree_graph() -> Csr {
        let tail = chung_lu(2000, 40_000, 2.0, 9).unwrap();
        let n = 41 + tail.num_vertices() + 1;
        let mut indptr = vec![0u64];
        let mut indices: Vec<VertexId> = Vec::new();
        let mut push = |list: &mut dyn Iterator<Item = VertexId>| {
            indices.extend(list);
            indptr.push(indices.len() as u64);
        };
        for deg in 0..=40 {
            push(&mut (0..deg).map(|i| (i * 13 + deg) % n as u32));
        }
        for v in 0..tail.num_vertices() {
            push(&mut tail.neighbors(v as VertexId).iter().map(|&u| u + 41));
        }
        push(&mut (0..3 * MAX_F64_DIVISOR as u32).map(|i| i % n as u32));
        Csr::from_parts(indptr, indices).unwrap()
    }

    /// One hop as [`KHop::sample_into`] selects it ([`fisher_yates_hop`]
    /// where the CPU has AVX-512F and `k` fits its registers) and one of
    /// the per-vertex loop over `frontier` from `rng`'s position: the same
    /// selections, ranges and work counters, and the stream left at the
    /// same word.
    fn check_hop(csr: &Csr, frontier: &[VertexId], k: usize, rng: &ChaCha8Rng) {
        let khop = KHop::new(vec![k], Kernel::FisherYates, Selection::Uniform);
        let hop = |per_vertex: bool| {
            let mut bufs = SampleBuffers::new();
            bufs.frontier.extend_from_slice(frontier);
            let (mut r, mut work) = (rng.clone(), SampleWork::default());
            if per_vertex {
                khop.select_hop(csr, k, &mut r, &mut work, &mut bufs);
            } else {
                khop.hop(csr, k, &mut r, &mut work, &mut bufs);
            }
            (bufs.selected, bufs.ranges, work, r.next_u32())
        };
        let want = hop(true);
        assert_eq!(want.1.len(), frontier.len());
        assert_eq!(hop(false), want, "k {k}, frontier {frontier:?}");
    }

    /// The hop-wide Fisher–Yates against the per-vertex loop: fan-outs
    /// 1–33 (one register, two, and the per-vertex loop), frontiers of 1 to
    /// 100 vertices of degree 0, up to and just past the fan-out and on a
    /// power-law tail, starting at each of the generator's 256 buffer
    /// offsets; then frontiers holding the vertex past [`MAX_F64_DIVISOR`].
    #[test]
    fn hop_wide_selection_equals_the_per_vertex_loop() {
        let g = mixed_degree_graph();
        let n = g.num_vertices() as u32;
        let mut r = rng();
        for offset in 0..256 {
            let k = 1 + offset % 33;
            let len = [1, 31, 32, 33, 64, 100][offset % 6];
            let frontier: Vec<VertexId> = (0..len)
                .map(|_| match r.gen_range(0..3) {
                    0 => r.gen_range(0..=40),
                    1 => r.gen_range(k.saturating_sub(1)..=k + 1).min(40) as VertexId,
                    _ => r.gen_range(41..n - 1),
                })
                .collect();
            let mut start = ChaCha8Rng::seed_from_u64(offset as u64);
            for _ in 0..offset {
                start.next_u32();
            }
            check_hop(&g, &frontier, k, &start);
        }
        for k in [1, 5, 15, 16, 17, 32, 33] {
            let frontier: Vec<VertexId> = (0..40)
                .map(|i| [n - 1, i, 41 + i][i as usize % 3])
                .collect();
            check_hop(&g, &frontier, k, &rng());
        }
    }
}
