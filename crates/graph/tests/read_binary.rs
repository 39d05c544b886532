//! `io::read_binary` on damaged and hostile files: every outcome is a typed
//! [`IoError`] or a graph that validates — never a panic — and no single
//! allocation made while reading is larger than the file.
//!
//! A graph "validates" when writing it back with `write_binary` reproduces
//! the bytes it was read from: every field of the file made it through
//! `Csr::from_parts` / `Csr::with_weights` unchanged. Must hold under
//! `cargo test` and `cargo test --release` alike (release builds turn
//! overflow checks off).

use gnnlab_graph::gen::{chung_lu, recency_weights};
use gnnlab_graph::io::{read_binary, write_binary, IoError};
use gnnlab_graph::{Csr, GraphError};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// The largest single allocation the current thread has requested since
/// it was last reset.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the thread-local `Cell` is
// const-initialised and touches no allocation.
unsafe impl std::alloc::GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; both are passed through as given.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: as for `realloc`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Header bytes: magic, vertex count, edge count, weighted flag.
const HEADER: usize = 8 + 8 + 8 + 1;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gnnlab_read_binary_{}_{name}", std::process::id()))
}

/// A small graph's binary image, written through `path`: unweighted, or
/// with recency weights.
fn image(weighted: bool, path: &Path) -> Vec<u8> {
    let g = chung_lu(12, 40, 2.0, 3).unwrap();
    let g = if weighted {
        recency_weights(g, 5).unwrap()
    } else {
        g
    };
    write_binary(&g, path).unwrap();
    assert_eq!(g.is_weighted(), weighted);
    std::fs::read(path).unwrap()
}

/// Reads `bytes` as a file at `path`. Panics, naming `what`, if the read
/// panics, allocates more than `bound` bytes at once, or returns a graph
/// that does not write back to `bytes`.
fn read(path: &Path, bytes: &[u8], bound: usize, what: &str) -> Result<Csr, IoError> {
    std::fs::write(path, bytes).unwrap();
    PEAK.with(|p| p.set(0));
    let outcome = std::panic::catch_unwind(|| read_binary(path))
        .unwrap_or_else(|_| panic!("{what}: read_binary panicked"));
    let peak = PEAK.with(Cell::get);
    assert!(
        peak <= bound,
        "{what}: allocated {peak} bytes at once, file bound {bound}"
    );
    if let Ok(g) = &outcome {
        write_binary(g, path).unwrap();
        assert!(
            std::fs::read(path).unwrap() == bytes,
            "{what}: read a graph that does not validate"
        );
    }
    outcome
}

#[test]
fn every_single_bit_flip_is_a_typed_error_or_a_valid_graph() {
    for weighted in [false, true] {
        let path = tmp(&format!("flip_{weighted}.bin"));
        let bytes = image(weighted, &path);
        let (mut valid, mut rejected) = (0, 0);
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                let what = format!("weighted={weighted} byte {pos} bit {bit}");
                match read(&path, &flipped, flipped.len(), &what) {
                    Ok(_) => valid += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
        std::fs::remove_file(&path).ok();
        // Flips in the indices or weights can leave a valid graph; flips in
        // the header, the offsets or the top bits of an index cannot.
        assert!(
            valid > 0 && rejected > 0,
            "{valid} valid / {rejected} rejected"
        );
    }
}

/// A cut file's error message can be longer than a cut of a few bytes, so
/// its allocations are bounded by the file it was cut from.
#[test]
fn every_truncation_is_a_format_error() {
    for weighted in [false, true] {
        let path = tmp(&format!("cut_{weighted}.bin"));
        let bytes = image(weighted, &path);
        for cut in 0..bytes.len() {
            let what = format!("weighted={weighted} cut at {cut}");
            match read(&path, &bytes[..cut], bytes.len(), &what) {
                Err(IoError::Format(m)) => assert!(m.contains("truncated"), "{what}: {m}"),
                other => panic!("{what}: {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn hostile_header_counts_are_rejected_before_allocating() {
    for weighted in [false, true] {
        let path = tmp(&format!("counts_{weighted}.bin"));
        let bytes = image(weighted, &path);
        let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let m = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        // One more vertex and fewer edges, summing to the file's size: the
        // size check passes and the CSR checks must catch the shift.
        let per_edge = if weighted { 8 } else { 4 };
        let cases = [
            (n, u64::MAX),
            (u64::MAX, m),
            (u64::MAX - 1, m),
            (1 << 61, m),
            (n, 1 << 62),
            (n, m + 1),
            (n - 1, m),
            (0, m),
            (n + 1, m - 8 / per_edge),
        ];
        for (hn, hm) in cases {
            let mut hostile = bytes.clone();
            hostile[8..16].copy_from_slice(&hn.to_le_bytes());
            hostile[16..24].copy_from_slice(&hm.to_le_bytes());
            let what = format!("weighted={weighted} header n={hn} m={hm}");
            let outcome = read(&path, &hostile, hostile.len(), &what);
            assert!(
                matches!(outcome, Err(IoError::Format(_) | IoError::Graph(_))),
                "{what}: {outcome:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn hostile_offsets_indices_and_weights_are_graph_errors() {
    let word = |bytes: &mut Vec<u8>, at: usize, value: &[u8]| {
        bytes[at..at + value.len()].copy_from_slice(value);
    };
    for weighted in [false, true] {
        let path = tmp(&format!("fields_{weighted}.bin"));
        let bytes = image(weighted, &path);
        let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let m = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let indptr = |v: usize| HEADER + 8 * v;
        let index = |e: usize| HEADER + 8 * (n + 1) + 4 * e;
        let weight = |e: usize| index(m) + 4 * e;
        let check = |edit: &dyn Fn(&mut Vec<u8>), what: &str, want: fn(&GraphError) -> bool| {
            let mut hostile = bytes.clone();
            edit(&mut hostile);
            let what = format!("weighted={weighted} {what}");
            match read(&path, &hostile, hostile.len(), &what) {
                Err(IoError::Graph(e)) if want(&e) => {}
                other => panic!("{what}: {other:?}"),
            }
        };
        let malformed = |e: &GraphError| matches!(e, GraphError::MalformedCsr(_));
        let out_of_range = |e: &GraphError| matches!(e, GraphError::VertexOutOfRange { .. });
        // An inner offset raised to `m`, past its successor's.
        let offset =
            |v: usize| u64::from_le_bytes(bytes[indptr(v)..indptr(v + 1)].try_into().unwrap());
        let v = (1..n).find(|&v| offset(v + 1) < m as u64).unwrap();
        let to_m = (m as u64).to_le_bytes();
        check(
            &|b| word(b, indptr(v), &to_m),
            "non-monotone indptr",
            malformed,
        );
        check(
            &|b| word(b, indptr(0), &1u64.to_le_bytes()),
            "indptr[0] = 1",
            malformed,
        );
        let short = (m as u64 - 1).to_le_bytes();
        check(
            &|b| word(b, indptr(n), &short),
            "indptr[n] = m - 1",
            malformed,
        );
        for id in [n as u32, u32::MAX] {
            let what = format!("index {id}");
            check(
                &|b| word(b, index(m / 2), &id.to_le_bytes()),
                &what,
                out_of_range,
            );
        }
        if weighted {
            for w in [
                f32::NAN,
                -1.0,
                f32::NEG_INFINITY,
                f32::INFINITY,
                -f32::MIN_POSITIVE,
            ] {
                let invalid = |e: &GraphError| matches!(e, GraphError::InvalidWeight { .. });
                let what = format!("weight {w}");
                check(
                    &|b| word(b, weight(m / 2), &w.to_le_bytes()),
                    &what,
                    invalid,
                );
            }
            // Negative zero is a valid weight and writes back bit for bit.
            let mut signed_zero = bytes.clone();
            word(&mut signed_zero, weight(0), &(-0.0f32).to_le_bytes());
            let g = read(&path, &signed_zero, signed_zero.len(), "weight -0.0");
            assert!(g.is_ok(), "weight -0.0: {g:?}");
        }
        std::fs::remove_file(&path).ok();
    }
}
