//! The one row-gather kernel behind every Extract path.
//!
//! `CachedFeatureStore::extract` (two-tier, stats-recording) and
//! `train_real::gather_features` (dense host gather) both reduce to the
//! same loop: for each id, resolve a source row and copy it into the
//! matching row of one preallocated output buffer. The store fans it
//! across disjoint row chunks via [`crate::ThreadPool::par_chunks_mut`];
//! the dense gather runs it once over all rows.

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

/// Copies one source row per id into `out`, row `i` of `out` receiving
/// `row(i, ids[i])`. The closure may carry mutable state (per-chunk cache
/// counters); it must return a slice of exactly `dim` elements.
///
/// # Panics
///
/// Panics if `out.len() != ids.len() * dim` or a resolved row has the
/// wrong width (via `copy_from_slice`).
pub fn gather_rows_into<'s, F>(ids: &[u32], dim: usize, out: &mut [f32], mut row: F)
where
    F: FnMut(usize, u32) -> &'s [f32],
{
    assert_eq!(out.len(), ids.len() * dim, "gather output size mismatch");
    for ((i, &v), dst) in ids.iter().enumerate().zip(out.chunks_exact_mut(dim)) {
        dst.copy_from_slice(row(i, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gathers_rows_in_id_order() {
        let source: Vec<f32> = (0..12).map(|x| x as f32).collect(); // 4 rows x 3
        let ids = [2u32, 0, 2, 1];
        let mut out = vec![0.0f32; ids.len() * 3];
        gather_rows_into(&ids, 3, &mut out, |_, v| {
            let s = v as usize * 3;
            &source[s..s + 3]
        });
        assert_eq!(out, vec![6., 7., 8., 0., 1., 2., 6., 7., 8., 3., 4., 5.]);
    }

    #[test]
    fn closure_state_sees_every_id_once() {
        let source = [1.0f32; 4];
        let ids = [0u32, 1, 2, 3];
        let mut seen = Vec::new();
        let mut out = vec![0.0f32; 4];
        gather_rows_into(&ids, 1, &mut out, |i, v| {
            seen.push((i, v));
            &source[..1]
        });
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_output_size_panics() {
        let mut out = vec![0.0f32; 3];
        gather_rows_into(&[0, 1], 2, &mut out, |_, _| &[][..]);
    }
}
