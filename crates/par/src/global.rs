//! The host pool: the one pool the process keeps for itself.
//!
//! The co-simulation's sampling passes (trace recording, PreSC/Optimal
//! pre-sampling) run on [`host_pool`]: one pool as wide as the host, with
//! no knob, because nothing else runs beside them. Every other pool is
//! built by its owner at the width its config names.

use crate::pool::ThreadPool;
use std::sync::OnceLock;

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
}
