//! The periodic telemetry thread: wall-clock gauge sampling plus alert
//! evaluation.
//!
//! PR 1 sampled `queue.depth` into a series on *every* enqueue/dequeue —
//! one point per operation, unbounded memory, and lock traffic on the
//! hot path. The telemetry thread inverts that: executors only update
//! gauges (cheap, bounded), and this thread snapshots every gauge into
//! its series on a wall-clock interval, then runs the
//! [`AlertEngine`] over the live metrics. Stopping takes a final sample
//! and evaluation, so even sub-interval runs export at least one point
//! per gauge and see alerts for end-state pathologies.
//!
//! Co-simulations keep their explicit virtual-time samples (a wall
//! interval is meaningless in virtual time). The threaded runtime starts
//! none: whoever reads a hub's series or alerts starts one on it around
//! the run and stops it before reading — `gnnlab threaded`, and the
//! tests that assert series or alerts.

use crate::alerts::{AlertEngine, AlertRules};
use crate::Obs;
use gnnlab_par::sync::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for the telemetry thread.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Wall-clock sampling interval.
    pub interval: Duration,
    /// Alert rule thresholds.
    pub rules: AlertRules,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            // Fine enough to catch transients in second-scale test runs,
            // coarse enough that a day-long run retains useful resolution
            // after downsampling (~8k points cover ~1.4 min at 10ms, then
            // the stride doubles).
            interval: Duration::from_millis(10),
            rules: AlertRules::default(),
        }
    }
}

/// A running telemetry thread; stops (and joins) on
/// [`Telemetry::stop`] or drop, waking the thread instead of waiting out
/// its interval.
#[derive(Debug)]
pub struct Telemetry {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Telemetry {
    /// Spawns the sampler/alert thread over `obs`.
    pub fn start(obs: Arc<Obs>, cfg: TelemetryConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_in = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("gnnlab-telemetry".to_string())
            .spawn(move || {
                let mut engine = AlertEngine::new(cfg.rules);
                let interval = cfg.interval.max(Duration::from_millis(1));
                let mut next_tick = Instant::now() + interval;
                while !stop_in.load(Ordering::Acquire) {
                    let now = Instant::now();
                    if now >= next_tick {
                        next_tick = now + interval;
                        obs.sample_gauges();
                        engine.evaluate(&obs);
                    } else {
                        // `stop` unparks this thread, so it never waits
                        // out the interval; a spurious wake re-checks.
                        std::thread::park_timeout(next_tick - now);
                    }
                }
                // Final tick: sub-interval runs still get ≥ 1 sample per
                // gauge, and alerts reflect the end state.
                obs.sample_gauges();
                engine.evaluate(&obs);
            })
            // lint:allow(no-unwrap) — OS thread spawn failing at telemetry
            // startup is unrecoverable; nothing upstream can retry.
            .expect("spawn telemetry thread");
        Telemetry {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread, waits for its final sample/evaluation, joins.
    pub fn stop(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            // An unpark before the thread parks is kept as a token, so the
            // wake cannot be lost between its flag check and its park.
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn samples_gauges_into_series_periodically() {
        let obs = Arc::new(Obs::wall());
        obs.metrics.gauge_set("queue.depth", 2.0);
        let telemetry = Telemetry::start(
            Arc::clone(&obs),
            TelemetryConfig {
                interval: Duration::from_millis(2),
                ..Default::default()
            },
        );
        std::thread::sleep(Duration::from_millis(30));
        obs.metrics.gauge_set("queue.depth", 5.0);
        telemetry.stop();
        let n = obs.metrics.series_len("queue.depth");
        assert!(n >= 2, "expected several periodic samples, got {n}");
        // The final tick captured the last gauge value.
        assert_eq!(obs.metrics.series_max("queue.depth"), Some(5.0));
    }

    #[test]
    fn stop_takes_a_final_sample_even_for_instant_runs() {
        let obs = Arc::new(Obs::wall());
        obs.metrics.gauge_set("queue.depth", 1.0);
        let telemetry = Telemetry::start(
            Arc::clone(&obs),
            TelemetryConfig {
                interval: Duration::from_secs(3600),
                ..Default::default()
            },
        );
        telemetry.stop();
        assert!(obs.metrics.series_len("queue.depth") >= 1);
    }

    #[test]
    fn final_evaluation_sees_end_state_alerts() {
        let obs = Arc::new(Obs::wall());
        let telemetry = Telemetry::start(
            Arc::clone(&obs),
            TelemetryConfig {
                interval: Duration::from_secs(3600),
                ..Default::default()
            },
        );
        // A straggler appearing after the last periodic tick is still
        // caught by the stop-time evaluation.
        obs.metrics
            .gauge_set(&names::executor_ewma("trainer", 0), 0.010);
        obs.metrics
            .gauge_set(&names::executor_ewma("trainer", 1), 0.500);
        telemetry.stop();
        assert_eq!(obs.metrics.counter("alerts.straggler"), 1.0);
    }
}
