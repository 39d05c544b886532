//! Offline shim of `rand_chacha`: a genuine ChaCha8 block function behind
//! the `RngCore`/`SeedableRng` traits of the sibling `rand` shim.
//!
//! Output is deterministic per seed (the property the workspace relies
//! on) but is not bit-compatible with upstream `rand_chacha`, which
//! layers a different word order and stream-offset API on top.
//!
//! # Block batching
//!
//! The stream is the concatenation of the 16-word blocks at counters
//! `0, 1, 2, …`. A refill produces [`BLOCKS`] consecutive blocks into one
//! [`BUF`]-word buffer (256 words, 1 KiB), laid out block after block, so
//! the word order a caller sees is exactly the one-block-at-a-time order:
//! batching moves *when* a block is computed, never *what* it holds. The
//! price is the buffer per generator and up to fifteen blocks computed and
//! never read when a generator is dropped early; every generator in the
//! workspace's hot paths (one per sampled mini-batch) reads thousands.
//!
//! # Reading the buffer
//!
//! `next_u32` reads one word; `next_u64` and `next_u128` read two and four
//! under one bounds check, falling back to word-by-word reads only when
//! the draw straddles a refill. [`ChaCha8Rng::fill_words`] copies any
//! number of words at once — the words that many `next_u32` calls would
//! return, refilling as often as it must — which is how the reservoir
//! kernel takes a run of bounded draws' words in one call.
//!
//! # Path selection
//!
//! ChaCha blocks at different counters are independent, so sixteen of
//! them fit the sixteen 32-bit lanes of an AVX-512 register and eight the
//! lanes of an AVX2 one. Both wide paths use the *vertical* layout: state
//! word `i` of every block lives in vector `i`, the quarter rounds are
//! plain lane-wise add/xor/rotate with no shuffles between the column and
//! diagonal halves, and one transpose at the end restores block-major
//! order. [`ChaCha8Rng::refill`] picks, by `is_x86_feature_detected!` (a
//! cached atomic load, once per 256 words):
//!
//! - AVX-512F: all sixteen blocks in one pass. Every rotate is one
//!   `vprold`; the 16×16 transpose is `unpack{lo,hi}_epi32`,
//!   `unpack{lo,hi}_epi64` and two rounds of `shuffle_i32x4` over 128-bit
//!   lanes. About 0.53 ns per word on a 2-core Emerald Rapids host.
//! - AVX2: two passes of eight blocks, rotates by 16 and 8 as byte
//!   shuffles, an 8×8 transpose per half-block. About 1.27 ns per word.
//! - Scalar: one [`block`] call per counter, everywhere else.
//!
//! # Why the scalar path stays
//!
//! [`block`] is the block function this crate has always had. It is the
//! only path on a CPU without AVX2, and it is the oracle: the tests hold
//! each wide refill the host can run against it word for word, and
//! `known_answers_hold` pins the stream all three produce. An
//! auto-vectorised fourth form was tried twice and compiled to scalar
//! code.

use rand::{RngCore, SeedableRng};

const ROUNDS: usize = 8;
/// Words in one ChaCha block.
const BLOCK_WORDS: usize = 16;
/// Blocks produced by one refill (the lane count of the AVX-512 path).
const BLOCKS: usize = 16;
/// Words buffered between refills.
const BUF: usize = BLOCKS * BLOCK_WORDS;
/// Blocks one AVX2 pass produces; a refill takes two.
#[cfg(target_arch = "x86_64")]
const AVX2_BLOCKS: usize = 8;

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The 64-bit block counter held in input words 12..14.
#[inline]
fn counter(input: &[u32; 16]) -> u64 {
    u64::from(input[12]) | u64::from(input[13]) << 32
}

#[inline]
fn set_counter(input: &mut [u32; 16], counter: u64) {
    input[12] = counter as u32;
    input[13] = (counter >> 32) as u32;
}

/// The scalar ChaCha8 block function: the output block for `input`.
fn block(input: &[u32; 16]) -> [u32; 16] {
    let mut working = *input;
    for _ in 0..ROUNDS / 2 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    for (out, inp) in working.iter_mut().zip(input.iter()) {
        *out = out.wrapping_add(*inp);
    }
    working
}

/// Scalar refill: the [`BLOCKS`] blocks at `input`'s counter and the
/// fifteen after it (wrapping), one [`block`] call each.
fn refill_scalar(input: &[u32; 16], buf: &mut [u32; BUF]) {
    let mut input = *input;
    let base = counter(&input);
    for (i, out) in buf.chunks_exact_mut(BLOCK_WORDS).enumerate() {
        set_counter(&mut input, base.wrapping_add(i as u64));
        out.copy_from_slice(&block(&input));
    }
}

/// AVX2 refill: the same [`BLOCKS`] blocks as [`refill_scalar`], in two
/// passes of [`AVX2_BLOCKS`] (the second at `input`'s counter plus eight).
/// Callable without `unsafe` only where AVX2 is statically enabled;
/// elsewhere the caller must have detected it on the running CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn refill_avx2(input: &[u32; 16], buf: &mut [u32; BUF]) {
    let (halves, _) = buf.as_chunks_mut::<{ AVX2_BLOCKS * BLOCK_WORDS }>();
    let mut at = *input;
    for (i, half) in halves.iter_mut().enumerate() {
        set_counter(
            &mut at,
            counter(input).wrapping_add((i * AVX2_BLOCKS) as u64),
        );
        avx2_pass(&at, half);
    }
}

/// One AVX2 pass: the [`AVX2_BLOCKS`] blocks at `input`'s counter and the
/// seven after it, with block `l` in 32-bit lane `l` of every vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2_pass(input: &[u32; 16], buf: &mut [u32; AVX2_BLOCKS * BLOCK_WORDS]) {
    use std::arch::x86_64::*;

    // Byte shuffles rotating every 32-bit lane left by 16 and by 8.
    let rot16 = _mm256_set_epi8(
        13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2, 13, 12, 15, 14, 9, 8, 11, 10, 5, 4,
        7, 6, 1, 0, 3, 2,
    );
    let rot8 = _mm256_set_epi8(
        14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3, 14, 13, 12, 15, 10, 9, 8, 11, 6, 5,
        4, 7, 2, 1, 0, 3,
    );

    let mut start = [_mm256_setzero_si256(); 16];
    for (vec, &word) in start.iter_mut().zip(input) {
        *vec = _mm256_set1_epi32(word as i32);
    }
    // Lane `l` runs counter `base + l`; the carry into word 13 is taken
    // per lane, in 64-bit scalar arithmetic, exactly as the scalar path.
    let base = counter(input);
    let c: [u64; AVX2_BLOCKS] = std::array::from_fn(|l| base.wrapping_add(l as u64));
    let lo = |l: usize| c[l] as u32 as i32;
    let hi = |l: usize| (c[l] >> 32) as u32 as i32;
    start[12] = _mm256_setr_epi32(lo(0), lo(1), lo(2), lo(3), lo(4), lo(5), lo(6), lo(7));
    start[13] = _mm256_setr_epi32(hi(0), hi(1), hi(2), hi(3), hi(4), hi(5), hi(6), hi(7));

    let mut v = start;
    macro_rules! rotl {
        ($x:expr, $n:literal) => {
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>($x),
                _mm256_srli_epi32::<{ 32 - $n }>($x),
            )
        };
    }
    macro_rules! quarter_round {
        ($a:literal, $b:literal, $c:literal, $d:literal) => {
            v[$a] = _mm256_add_epi32(v[$a], v[$b]);
            v[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[$d], v[$a]), rot16);
            v[$c] = _mm256_add_epi32(v[$c], v[$d]);
            v[$b] = rotl!(_mm256_xor_si256(v[$b], v[$c]), 12);
            v[$a] = _mm256_add_epi32(v[$a], v[$b]);
            v[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[$d], v[$a]), rot8);
            v[$c] = _mm256_add_epi32(v[$c], v[$d]);
            v[$b] = rotl!(_mm256_xor_si256(v[$b], v[$c]), 7);
        };
    }
    for _ in 0..ROUNDS / 2 {
        quarter_round!(0, 4, 8, 12);
        quarter_round!(1, 5, 9, 13);
        quarter_round!(2, 6, 10, 14);
        quarter_round!(3, 7, 11, 15);
        quarter_round!(0, 5, 10, 15);
        quarter_round!(1, 6, 11, 12);
        quarter_round!(2, 7, 8, 13);
        quarter_round!(3, 4, 9, 14);
    }
    for (vec, &inp) in v.iter_mut().zip(&start) {
        *vec = _mm256_add_epi32(*vec, inp);
    }

    // Vector `i` holds word `i` of all eight blocks; block `l` wants its
    // sixteen words contiguous. Transpose words 0..8 and 8..16 as two 8×8
    // matrices: row `l` of half `h` lands at `buf[16 l + 8 h ..][..8]`.
    for half in 0..2 {
        let w = &v[8 * half..8 * half + 8];
        let t0 = _mm256_unpacklo_epi32(w[0], w[1]);
        let t1 = _mm256_unpackhi_epi32(w[0], w[1]);
        let t2 = _mm256_unpacklo_epi32(w[2], w[3]);
        let t3 = _mm256_unpackhi_epi32(w[2], w[3]);
        let t4 = _mm256_unpacklo_epi32(w[4], w[5]);
        let t5 = _mm256_unpackhi_epi32(w[4], w[5]);
        let t6 = _mm256_unpacklo_epi32(w[6], w[7]);
        let t7 = _mm256_unpackhi_epi32(w[6], w[7]);
        // `a[j]` / `b[j]`: words 0..4 / 4..8 of this half, for lanes `j`
        // (low 128 bits) and `j + 4` (high 128 bits).
        let a = [
            _mm256_unpacklo_epi64(t0, t2),
            _mm256_unpackhi_epi64(t0, t2),
            _mm256_unpacklo_epi64(t1, t3),
            _mm256_unpackhi_epi64(t1, t3),
        ];
        let b = [
            _mm256_unpacklo_epi64(t4, t6),
            _mm256_unpackhi_epi64(t4, t6),
            _mm256_unpacklo_epi64(t5, t7),
            _mm256_unpackhi_epi64(t5, t7),
        ];
        for j in 0..4 {
            let row_lo = _mm256_permute2x128_si256::<0x20>(a[j], b[j]);
            let row_hi = _mm256_permute2x128_si256::<0x31>(a[j], b[j]);
            for (lane, row) in [(j, row_lo), (j + 4, row_hi)] {
                let dst = &mut buf[BLOCK_WORDS * lane + 8 * half..][..8];
                // SAFETY: `dst` is exactly eight `u32`s (32 writable bytes,
                // bounds-checked by the slicing above) and the store is the
                // unaligned form.
                unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), row) };
            }
        }
    }
}

/// AVX-512F refill: the same [`BLOCKS`] blocks as [`refill_scalar`],
/// computed together with block `l` in 32-bit lane `l` of every vector.
/// Callable without `unsafe` only where AVX-512F is statically enabled;
/// elsewhere the caller must have detected it on the running CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn refill_avx512(input: &[u32; 16], buf: &mut [u32; BUF]) {
    use std::arch::x86_64::*;

    let mut start = [_mm512_setzero_si512(); 16];
    for (vec, &word) in start.iter_mut().zip(input) {
        *vec = _mm512_set1_epi32(word as i32);
    }
    // Lane `l` runs counter `base + l`, carried into word 13 per lane in
    // 64-bit scalar arithmetic, exactly as the scalar path.
    let base = counter(input);
    let c: [u64; BLOCKS] = std::array::from_fn(|l| base.wrapping_add(l as u64));
    let lo = |l: usize| c[l] as u32 as i32;
    let hi = |l: usize| (c[l] >> 32) as u32 as i32;
    start[12] = _mm512_setr_epi32(
        lo(0),
        lo(1),
        lo(2),
        lo(3),
        lo(4),
        lo(5),
        lo(6),
        lo(7),
        lo(8),
        lo(9),
        lo(10),
        lo(11),
        lo(12),
        lo(13),
        lo(14),
        lo(15),
    );
    start[13] = _mm512_setr_epi32(
        hi(0),
        hi(1),
        hi(2),
        hi(3),
        hi(4),
        hi(5),
        hi(6),
        hi(7),
        hi(8),
        hi(9),
        hi(10),
        hi(11),
        hi(12),
        hi(13),
        hi(14),
        hi(15),
    );

    let mut v = start;
    macro_rules! quarter_round {
        ($a:literal, $b:literal, $c:literal, $d:literal) => {
            v[$a] = _mm512_add_epi32(v[$a], v[$b]);
            v[$d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(v[$d], v[$a]));
            v[$c] = _mm512_add_epi32(v[$c], v[$d]);
            v[$b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(v[$b], v[$c]));
            v[$a] = _mm512_add_epi32(v[$a], v[$b]);
            v[$d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(v[$d], v[$a]));
            v[$c] = _mm512_add_epi32(v[$c], v[$d]);
            v[$b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(v[$b], v[$c]));
        };
    }
    for _ in 0..ROUNDS / 2 {
        quarter_round!(0, 4, 8, 12);
        quarter_round!(1, 5, 9, 13);
        quarter_round!(2, 6, 10, 14);
        quarter_round!(3, 7, 11, 15);
        quarter_round!(0, 5, 10, 15);
        quarter_round!(1, 6, 11, 12);
        quarter_round!(2, 7, 8, 13);
        quarter_round!(3, 4, 9, 14);
    }
    for (vec, &inp) in v.iter_mut().zip(&start) {
        *vec = _mm512_add_epi32(*vec, inp);
    }

    // Vector `i` holds word `i` of all sixteen blocks. Interleaving pairs
    // of words, then pairs of pairs, leaves `quads[e][r]` holding, in its
    // 128-bit lane `q`, words `4r..4r + 4` of block `4q + e`.
    let pairs: [[__m512i; 2]; 8] = std::array::from_fn(|p| {
        let (a, b) = (v[2 * p], v[2 * p + 1]);
        [_mm512_unpacklo_epi32(a, b), _mm512_unpackhi_epi32(a, b)]
    });
    let quads: [[__m512i; 4]; 4] = std::array::from_fn(|e| {
        std::array::from_fn(|r| {
            let (a, b) = (pairs[2 * r][e / 2], pairs[2 * r + 1][e / 2]);
            if e % 2 == 0 {
                _mm512_unpacklo_epi64(a, b)
            } else {
                _mm512_unpackhi_epi64(a, b)
            }
        })
    });
    // Block `4q + e` is lane `q` of `quads[e][0..4]`: a 4×4 transpose of
    // 128-bit lanes, two rounds of `shuffle_i32x4`.
    for (e, [r0, r1, r2, r3]) in quads.into_iter().enumerate() {
        let c0 = _mm512_shuffle_i32x4::<0x44>(r0, r1);
        let c1 = _mm512_shuffle_i32x4::<0xEE>(r0, r1);
        let c2 = _mm512_shuffle_i32x4::<0x44>(r2, r3);
        let c3 = _mm512_shuffle_i32x4::<0xEE>(r2, r3);
        let rows = [
            _mm512_shuffle_i32x4::<0x88>(c0, c2),
            _mm512_shuffle_i32x4::<0xDD>(c0, c2),
            _mm512_shuffle_i32x4::<0x88>(c1, c3),
            _mm512_shuffle_i32x4::<0xDD>(c1, c3),
        ];
        for (q, row) in rows.into_iter().enumerate() {
            let dst = &mut buf[BLOCK_WORDS * (4 * q + e)..][..BLOCK_WORDS];
            // SAFETY: `dst` is exactly sixteen `u32`s (64 writable bytes,
            // bounds-checked by the slicing above) and the store is the
            // unaligned form.
            unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), row) };
        }
    }
}

/// Fills `buf` on the widest path the running CPU has.
fn fill_blocks(input: &[u32; 16], buf: &mut [u32; BUF]) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: `refill_avx512`'s one requirement is AVX-512F,
            // detected on the running CPU by the line above.
            unsafe { refill_avx512(input, buf) };
            return;
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: as above, for `refill_avx2` and AVX2.
            unsafe { refill_avx2(input, buf) };
            return;
        }
    }
    refill_scalar(input, buf);
}

/// A ChaCha stream cipher with 8 rounds, exposed as an RNG.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// The 16-word ChaCha input block (constants, key, counter, nonce);
    /// the counter is that of the next block to generate.
    input: [u32; 16],
    /// [`BLOCKS`] consecutive 64-byte output blocks, block-major.
    buf: [u32; BUF],
    /// Next unread word in `buf`; [`BUF`] means "exhausted".
    cursor: usize,
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        fill_blocks(&self.input, &mut self.buf);
        self.cursor = 0;
        let next = counter(&self.input).wrapping_add(BLOCKS as u64);
        set_counter(&mut self.input, next);
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.cursor >= BUF {
            self.refill();
        }
        let w = self.buf[self.cursor];
        self.cursor += 1;
        w
    }

    /// Fills `out` with the stream's next `out.len()` words: exactly the
    /// words that many `next_u32` calls would return, copied a buffer's
    /// worth at a time.
    pub fn fill_words(&mut self, mut out: &mut [u32]) {
        while !out.is_empty() {
            if self.cursor >= BUF {
                self.refill();
            }
            let n = out.len().min(BUF - self.cursor);
            let (head, rest) = out.split_at_mut(n);
            head.copy_from_slice(&self.buf[self.cursor..self.cursor + n]);
            self.cursor += n;
            out = rest;
        }
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut input = [0u32; 16];
        // "expand 32-byte k"
        input[0] = 0x6170_7865;
        input[1] = 0x3320_646e;
        input[2] = 0x7962_2d32;
        input[3] = 0x6b20_6574;
        for i in 0..8 {
            input[4 + i] = u32::from_le_bytes([
                seed[4 * i],
                seed[4 * i + 1],
                seed[4 * i + 2],
                seed[4 * i + 3],
            ]);
        }
        // Counter and nonce start at zero.
        ChaCha8Rng {
            input,
            buf: [0; BUF],
            cursor: BUF,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }

    /// Two buffered words in one bounds check, the first in the low half.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let Some(w) = self.buf.get(self.cursor..self.cursor + 2) else {
            // One word left: the draw straddles a refill.
            let lo = u64::from(self.next_word());
            return lo | u64::from(self.next_word()) << 32;
        };
        self.cursor += 2;
        u64::from(w[0]) | u64::from(w[1]) << 32
    }

    /// Four buffered words in one bounds check; the words (and so the
    /// value) are the ones two `next_u64` calls would have consumed.
    #[inline]
    fn next_u128(&mut self) -> u128 {
        let Some(w) = self.buf.get(self.cursor..self.cursor + 4) else {
            // Fewer than four words left: the draw straddles a refill.
            return u128::from(self.next_u64()) << 64 | u128::from(self.next_u64());
        };
        self.cursor += 4;
        let (hi, lo) = (
            u64::from(w[0]) | u64::from(w[1]) << 32,
            u64::from(w[2]) | u64::from(w[3]) << 32,
        );
        u128::from(hi) << 64 | u128::from(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(123);
        let mut b = ChaCha8Rng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Known answers per seed: FNV-1a of the first 4 096 `next_u32` words
    /// (256 blocks, so the counter carries), and of 1 000 `gen_range(0..=j)`
    /// draws with `j` cycling through 1..=61 (the k-hop kernels' call).
    /// Captured before any change to `refill`, equal in debug and
    /// `--release`: every sampled vertex in the workspace hangs off this
    /// stream, so a faster block function must reproduce it word for word.
    const KNOWN: [(u64, u64, u64); 3] = [
        (0, 0xe5ea_efcb_0009_d17a, 0x0f91_a3bd_00a2_4685),
        (7, 0x8c23_5d2f_27a8_c63e, 0xc5d2_2a60_87b7_6bec),
        (
            0xDEAD_BEEF_0BAD_CAFE,
            0x97b9_8863_93ee_ae90,
            0x0fb6_995c_a85b_b3c8,
        ),
    ];

    #[test]
    fn known_answers_hold() {
        for (seed, words, ranges) in KNOWN {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let got_words = fnv((0..4096).map(|_| u64::from(rng.next_u32())));
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let got_ranges =
                fnv((0..1000usize).map(|i| rng.gen_range(0..=1 + (i * 7) % 61) as u64));
            assert_eq!(
                (got_words, got_ranges),
                (words, ranges),
                "seed {seed:#x}: got ({got_words:#018x}, {got_ranges:#018x})"
            );
        }
    }

    /// `input` for seed 3 with its block counter set to `counter`.
    fn input_at(counter: u64) -> [u32; 16] {
        let mut input = ChaCha8Rng::seed_from_u64(3).input;
        set_counter(&mut input, counter);
        input
    }

    /// Counters at which the sixteen-block batch starts: the stream's
    /// start, an unaligned one, a carry out of word 12 into word 13 in the
    /// first and in the second eight-block half, and the 64-bit wrap in
    /// each half.
    const BATCH_STARTS: [u64; 6] = [
        0,
        5,
        u32::MAX as u64 - 3,
        u32::MAX as u64 - 10,
        u64::MAX - 2,
        u64::MAX - 12,
    ];

    /// The oracle: one scalar [`block`] per counter, counters set one by
    /// one with 64-bit wrapping arithmetic.
    fn scalar_blocks(first: u64) -> Vec<u32> {
        (0..BLOCKS as u64)
            .flat_map(|i| block(&input_at(first.wrapping_add(i))))
            .collect()
    }

    #[test]
    fn refill_matches_scalar_blocks_on_the_selected_path() {
        for first in BATCH_STARTS {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            rng.input = input_at(first);
            rng.refill();
            assert_eq!(rng.buf[..], scalar_blocks(first)[..], "counter {first:#x}");
            assert_eq!(rng.cursor, 0);
            assert_eq!(counter(&rng.input), first.wrapping_add(BLOCKS as u64));
            assert_eq!(rng.input[14..], [0, 0], "the nonce is not the counter's");
        }
    }

    #[test]
    fn scalar_refill_matches_scalar_blocks() {
        for first in BATCH_STARTS {
            let mut buf = [0u32; BUF];
            refill_scalar(&input_at(first), &mut buf);
            assert_eq!(buf[..], scalar_blocks(first)[..], "counter {first:#x}");
        }
    }

    /// Each wide refill the running CPU can execute, called directly, so a
    /// host with AVX-512 still checks the AVX2 path it no longer selects.
    /// A host without either runs neither; the scalar tests above cover it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_wide_refill_the_host_has_matches_scalar_blocks() {
        type Refill = unsafe fn(&[u32; 16], &mut [u32; BUF]);
        let paths: [(&str, bool, Refill); 2] = [
            ("avx2", is_x86_feature_detected!("avx2"), refill_avx2),
            (
                "avx512f",
                is_x86_feature_detected!("avx512f"),
                refill_avx512,
            ),
        ];
        for (name, _, refill) in paths.into_iter().filter(|p| p.1) {
            for first in BATCH_STARTS {
                let mut buf = [0u32; BUF];
                // SAFETY: the filter above kept only the paths whose
                // instruction set the running CPU reports.
                unsafe { refill(&input_at(first), &mut buf) };
                assert_eq!(buf[..], scalar_blocks(first)[..], "{name}, {first:#x}");
            }
        }
    }

    /// A generator `offset` words into seed `offset`'s stream, and a
    /// clone to replay it word by word.
    fn at_offset(offset: usize) -> (ChaCha8Rng, ChaCha8Rng) {
        let mut wide = ChaCha8Rng::seed_from_u64(offset as u64);
        for _ in 0..offset {
            wide.next_u32();
        }
        let words = wide.clone();
        (wide, words)
    }

    #[test]
    fn next_u128_is_two_next_u64_high_half_first_at_every_offset() {
        for offset in 0..BUF {
            let (mut wide, mut pair) = at_offset(offset);
            // 70 draws are 280 words: every offset straddles a refill at
            // least once, and the interleaved word shifts the alignment
            // so the straddle happens with 1, 2 and 3 words left.
            for draw in 0..70 {
                let expect = u128::from(pair.next_u64()) << 64 | u128::from(pair.next_u64());
                assert_eq!(wide.next_u128(), expect, "offset {offset}, draw {draw}");
                if draw % 3 == 0 {
                    assert_eq!(wide.next_u32(), pair.next_u32());
                }
            }
            assert_eq!(wide.cursor, pair.cursor);
        }
    }

    #[test]
    fn next_u64_is_two_next_u32_low_half_first_at_every_offset() {
        for offset in 0..BUF {
            let (mut wide, mut words) = at_offset(offset);
            // 140 draws are 280 words: every offset straddles a refill,
            // and the interleaved word flips the parity so half of them
            // do it with one word left.
            for draw in 0..140 {
                let lo = u64::from(words.next_u32());
                let expect = lo | u64::from(words.next_u32()) << 32;
                assert_eq!(wide.next_u64(), expect, "offset {offset}, draw {draw}");
                if draw % 5 == 0 {
                    assert_eq!(wide.next_u32(), words.next_u32());
                }
            }
            assert_eq!(wide.cursor, words.cursor);
        }
    }

    #[test]
    fn fill_words_is_repeated_next_u32_at_every_offset() {
        // Empty, within a buffer, one buffer exactly, across one refill
        // and across several.
        const LENS: [usize; 8] = [0, 1, 3, 64, 255, 256, 257, 700];
        for offset in 0..BUF {
            let (mut bulk, mut words) = at_offset(offset);
            for len in LENS {
                let mut got = vec![0u32; len];
                bulk.fill_words(&mut got);
                let expect: Vec<u32> = (0..len).map(|_| words.next_u32()).collect();
                assert_eq!(got, expect, "offset {offset}, length {len}");
                assert_eq!(bulk.cursor, words.cursor, "offset {offset}, length {len}");
                assert_eq!(bulk.next_u32(), words.next_u32());
            }
        }
    }

    #[test]
    fn stream_looks_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mean = (0..10_000).map(|_| rng.gen::<f64>()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
