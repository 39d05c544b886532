//! Device and cost models — the simulated testbed.
//!
//! The paper's testbed is a single machine with 8× NVIDIA V100 (16 GB) and
//! two 24-core Xeon CPUs. None of that hardware is available here, so this
//! crate substitutes a *model* of it:
//!
//! - [`device`]: GPU/host memory ledgers with allocation tracking and OOM
//!   detection — capacity contention (the paper's first challenge, §3) is
//!   a pure accounting question and is modeled exactly.
//! - [`cost`]: a calibrated linear cost model converting *measured*
//!   workload quantities (RNG draws, edges scanned, bytes gathered, FLOPs)
//!   into simulated time. Constants are calibrated against Table 1 of the
//!   paper; see `EXPERIMENTS.md` for the calibration deltas.
//!
//! The crate deliberately depends on nothing else in the workspace: it
//! consumes plain numbers, so the model is easy to audit.

pub mod cost;
pub mod device;

pub use cost::{CostModel, GatherPath, SampleCost, SampleDevice};
pub use device::{DeviceError, GpuMemory, Testbed};

/// Simulated time in nanoseconds.
pub type SimTime = u64;

/// Converts seconds (f64) to [`SimTime`] nanoseconds, saturating.
pub fn secs_to_ns(secs: f64) -> SimTime {
    if secs <= 0.0 {
        return 0;
    }
    (secs * 1e9).round().min(u64::MAX as f64) as SimTime
}

/// Converts [`SimTime`] nanoseconds to seconds.
pub fn ns_to_secs(ns: SimTime) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_roundtrip() {
        assert_eq!(secs_to_ns(1.5), 1_500_000_000);
        assert!((ns_to_secs(2_000_000_000) - 2.0).abs() < 1e-12);
        assert_eq!(secs_to_ns(-1.0), 0);
    }
}
