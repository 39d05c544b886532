//! In-tree data parallelism for the executed hot paths.
//!
//! The registry is offline, so instead of `rayon` this crate provides the
//! small slice of data parallelism the SET pipeline actually needs: a
//! scoped, spawn-once [`ThreadPool`] whose fan-out primitive hands each
//! worker a *contiguous, disjoint* range of the task space (and, via
//! [`ThreadPool::par_chunks_mut`], the matching disjoint sub-slice of one
//! preallocated output buffer).
//!
//! # Determinism under threads
//!
//! Every parallel path in the workspace is built so that its result is
//! **bit-identical at every thread count**:
//!
//! - outputs are written to disjoint row ranges of one buffer — no
//!   reduction over floats ever crosses a chunk boundary, so per-element
//!   f32 operation order is exactly the sequential order;
//! - merged side-state (cache counters, visit counts, sampling work) is
//!   integer-only and commutative–associative (`u64` adds), so the merge
//!   order cannot change the total;
//! - randomized stages draw from per-(seed, epoch, batch) ChaCha streams
//!   derived with [`splitmix64`], so a batch's randomness is a pure
//!   function of its identity, not of which worker runs it.
//!
//! A pool of one thread (the default) executes entirely inline on the
//! caller with zero dispatch overhead.
//!
//! # Process-wide pools
//!
//! - [`global_pool`] is the `--threads` knob, 1 wide by default. The
//!   tensor matmuls, the real-training gather and the default cached
//!   feature store consult it.
//! - [`host_pool`] has one worker per core and no knob. The co-simulation
//!   records its epochs and pre-samples PreSC/Optimal hotness on it.
//!
//! The threaded runtime uses neither for its sampling: it sizes its own
//! pools from its executor fleet.

pub mod gather;
pub mod global;
pub mod invariant;
pub mod pool;
pub mod sync;
pub mod worker;

pub use gather::{gather_rows_into, uninit_f32_vec};
pub use global::{global_pool, global_threads, host_pool, set_global_threads};
pub use pool::ThreadPool;
pub use worker::{JobHandle, Worker};

/// SplitMix64: a strong 64-bit mixer, used to derive independent RNG
/// stream seeds from `(seed, epoch, batch)` identities so work items can
/// execute on any worker without changing their randomness.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Small deltas in the input flip roughly half the output bits.
        let d = (splitmix64(7) ^ splitmix64(8)).count_ones();
        assert!((16..=48).contains(&d), "poor avalanche: {d} bits");
    }
}
