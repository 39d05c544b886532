//! The one row-gather kernel behind every Extract path.
//!
//! `CachedFeatureStore::extract` (two-tier, stats-recording), its cache
//! fill and `train_real::gather_features` (dense host gathers) all reduce
//! to the same loop: for each id, locate a source row in one of two
//! row-major tables and copy it into the matching row of one
//! preallocated output buffer. The store fans it across disjoint row
//! chunks via [`crate::ThreadPool::par_chunks_mut`]; the dense gathers
//! run it once over all rows.
//!
//! The body is shaped so that a row costs a lookup and a few moves:
//!
//! - **Width dispatch, once per call.** 8, 16, 32 and 64 floats get the
//!   body with a constant copy length (fixed vector moves, no `memcpy`
//!   call); any other width gets the same body with the width a variable.
//! - **Tier select, per row, without a branch.** `locate` answers
//!   `(in_hot, row)` for an id and the body indexes a two-entry table of
//!   sources with `in_hot`, so the copy never branches on hit or miss.
//! - **One count per call.** The body returns how many ids it served
//!   from the hot table; the caller derives every other counter from that
//!   integer and the row count.

/// A length-`n` `Vec<f32>` with uninitialized contents, for gather outputs
/// where every element is overwritten before any read — zeroing a
/// multi-megabyte extract buffer first would cost a memset per mini-batch.
///
/// # Safety
///
/// The caller must write all `n` elements before reading any (the extract
/// paths tile the buffer with disjoint row chunks and fully write each).
#[allow(clippy::uninit_vec)]
pub unsafe fn uninit_f32_vec(n: usize) -> Vec<f32> {
    let mut v = Vec::with_capacity(n);
    // SAFETY: f32 has no invalid bit patterns; reading before writing is
    // excluded by this function's contract.
    unsafe { v.set_len(n) };
    v
}

/// Copies one source row per id into `out`: row `i` of `out` receives
/// row `r` of `hot` when `locate(ids[i])` is `(true, r)`, and row `r` of
/// `cold` when it is `(false, r)`. Both sources are row-major with `dim`
/// floats per row. Returns how many ids were served from `hot`.
///
/// # Panics
///
/// Panics if `dim == 0`, `out.len() != ids.len() * dim`, or a located row
/// lies outside its source.
pub fn gather_rows_into<L>(
    ids: &[u32],
    dim: usize,
    out: &mut [f32],
    hot: &[f32],
    cold: &[f32],
    locate: L,
) -> usize
where
    L: Fn(u32) -> (bool, u32),
{
    assert_eq!(out.len(), ids.len() * dim, "gather output size mismatch");
    let tiers = [cold, hot];
    match dim {
        8 => gather_width(ids, 8, out, tiers, &locate),
        16 => gather_width(ids, 16, out, tiers, &locate),
        32 => gather_width(ids, 32, out, tiers, &locate),
        64 => gather_width(ids, 64, out, tiers, &locate),
        _ => gather_width(ids, dim, out, tiers, &locate),
    }
}

/// [`gather_rows_into`] from one table: row `i` of `out` receives row
/// `ids[i]` of `source`.
pub fn gather_dense_into(ids: &[u32], dim: usize, out: &mut [f32], source: &[f32]) {
    gather_rows_into(ids, dim, out, &[], source, |v| (false, v));
}

/// The body every width shares. Inlined into each arm of the dispatch,
/// so a constant `width` makes every copy a fixed-length move.
#[inline(always)]
fn gather_width<L>(
    ids: &[u32],
    width: usize,
    out: &mut [f32],
    tiers: [&[f32]; 2],
    locate: &L,
) -> usize
where
    L: Fn(u32) -> (bool, u32),
{
    let mut hits = 0;
    for (&v, dst) in ids.iter().zip(out.chunks_exact_mut(width)) {
        let (in_hot, row) = locate(v);
        let start = row as usize * width;
        dst.copy_from_slice(&tiers[usize::from(in_hot)][start..start + width]);
        hits += usize::from(in_hot);
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gathers_rows_in_id_order() {
        let source: Vec<f32> = (0..12).map(|x| x as f32).collect(); // 4 rows x 3
        let ids = [2u32, 0, 2, 1];
        let mut out = vec![0.0f32; ids.len() * 3];
        gather_dense_into(&ids, 3, &mut out, &source);
        assert_eq!(out, vec![6., 7., 8., 0., 1., 2., 6., 7., 8., 3., 4., 5.]);
    }

    #[test]
    fn each_id_reads_the_tier_it_is_located_in() {
        // Even ids sit in `hot` at row v / 2; odd ids in `cold` at row v.
        for dim in [1, 3, 8, 16, 32, 64, 65] {
            let hot: Vec<f32> = (0..4 * dim).map(|x| -(x as f32) - 1.0).collect();
            let cold: Vec<f32> = (0..8 * dim).map(|x| x as f32).collect();
            let ids = [0u32, 1, 2, 7, 6, 6, 3];
            let mut out = vec![f32::NAN; ids.len() * dim];
            let hits = gather_rows_into(&ids, dim, &mut out, &hot, &cold, |v| {
                (v % 2 == 0, if v % 2 == 0 { v / 2 } else { v })
            });
            assert_eq!(hits, 4, "dim {dim}");
            for (&v, row) in ids.iter().zip(out.chunks_exact(dim)) {
                let (src, r) = if v % 2 == 0 {
                    (&hot, v / 2)
                } else {
                    (&cold, v)
                };
                let s = r as usize * dim;
                assert_eq!(row, &src[s..s + dim], "dim {dim} id {v}");
            }
        }
    }

    #[test]
    fn empty_ids_write_nothing_and_count_nothing() {
        let mut out: Vec<f32> = Vec::new();
        assert_eq!(
            gather_rows_into(&[], 8, &mut out, &[], &[], |v| (true, v)),
            0
        );
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_output_size_panics() {
        let mut out = vec![0.0f32; 3];
        gather_dense_into(&[0, 1], 2, &mut out, &[0.0; 4]);
    }

    #[test]
    #[should_panic]
    fn a_row_outside_its_source_panics() {
        let mut out = vec![0.0f32; 8];
        gather_rows_into(&[0], 8, &mut out, &[0.0; 8], &[], |v| (false, v));
    }
}
