//! A counting global allocator for the `perf` binary.
//!
//! It forwards every call to the system allocator and, only while
//! [`count`] is running, adds to two counters. Counting is switched on for
//! one extra `run_threaded` in the traced pass; the timed repetitions run
//! with it off, where it costs one relaxed load per allocation.

use gnnlab_par::sync::{AtomicBool, AtomicU64, Ordering};
use std::alloc::{GlobalAlloc, Layout, System};

pub struct CountingAllocator;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; both are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; both are passed through as given.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with counting on; returns its result, the number of
/// allocations (reallocations included) and the bytes they asked for,
/// across every thread of the process.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - a0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_the_window() {
        let (v, allocs, bytes) = count(|| std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(v.len(), 4096);
        assert!(allocs >= 1);
        assert!(bytes >= 4096);
    }
}
