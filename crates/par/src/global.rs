//! The process-wide pools: the `--threads` knob and the host pool.
//!
//! Library code that has no pool handy (the CLI's real-training path, the
//! tensor matmuls buried under model layers) consults the global pool.
//! The default is 1 — fully sequential, zero overhead — and because every
//! parallel path is bit-identical at any thread count, flipping the knob
//! can only change speed, never results.
//!
//! The co-simulation's sampling passes (trace recording, PreSC/Optimal
//! pre-sampling) run on [`host_pool`] instead: one pool as wide as the
//! host, with no knob, because nothing else runs beside them.

use crate::pool::ThreadPool;
use crate::sync::{AtomicUsize, Mutex, Ordering};
use std::sync::{Arc, OnceLock};

static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(1);
static GLOBAL_POOL: Mutex<Option<Arc<ThreadPool>>> = Mutex::new(None);

/// The configured global worker count (>= 1; default 1).
pub fn global_threads() -> usize {
    GLOBAL_THREADS.load(Ordering::Relaxed)
}

/// Sets the global worker count (the CLI's `--threads`). Zero is clamped
/// to 1. An existing pool of a different size is dropped (its workers
/// join once outstanding handles release) and lazily rebuilt.
pub fn set_global_threads(threads: usize) {
    let t = threads.max(1);
    GLOBAL_THREADS.store(t, Ordering::Relaxed);
    let mut slot = GLOBAL_POOL.lock();
    if slot.as_ref().is_some_and(|p| p.threads() != t) {
        *slot = None;
    }
}

/// The shared pool sized by [`set_global_threads`], built on first use.
pub fn global_pool() -> Arc<ThreadPool> {
    let t = global_threads();
    let mut slot = GLOBAL_POOL.lock();
    match slot.as_ref() {
        Some(p) if p.threads() == t => Arc::clone(p),
        _ => {
            let p = Arc::new(ThreadPool::new(t));
            *slot = Some(Arc::clone(&p));
            p
        }
    }
}

/// One pool with a worker per core of the host
/// (`std::thread::available_parallelism()`, 1 if the platform cannot
/// say), built on first use and kept for the life of the process. Its
/// idle workers park on the dispatch channel, so it costs nothing between
/// fan-outs.
pub fn host_pool() -> &'static ThreadPool {
    static HOST_POOL: OnceLock<ThreadPool> = OnceLock::new();
    HOST_POOL.get_or_init(|| {
        ThreadPool::new(std::thread::available_parallelism().map_or(1, usize::from))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_pool_is_one_pool_as_wide_as_the_host() {
        let width = std::thread::available_parallelism().map_or(1, usize::from);
        let pool = host_pool();
        assert_eq!(pool.threads(), width);
        assert!(std::ptr::eq(pool, host_pool()), "a second pool was built");
    }

    #[test]
    fn default_is_sequential_and_knob_rebuilds() {
        // Note: the knob is process-global; this test restores it.
        let before = global_threads();
        set_global_threads(0);
        assert_eq!(global_threads(), 1);
        assert_eq!(global_pool().threads(), 1);
        set_global_threads(3);
        assert_eq!(global_pool().threads(), 3);
        set_global_threads(before);
    }
}
