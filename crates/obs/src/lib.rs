//! Observability for GNNLab-rs: span recording, metrics, and exporters.
//!
//! One [`Obs`] instance accompanies a run (co-simulated or threaded) and
//! bundles the three observability primitives:
//!
//! * a [`SpanRecorder`] capturing `(device, executor, stage, batch,
//!   t_start, t_end)` intervals — virtual nanoseconds for the
//!   co-simulations, wall-clock nanoseconds for the threaded runtime,
//!   unified by the [`Clock`] abstraction;
//! * a [`MetricsRegistry`] for counters, gauges, streaming-quantile
//!   histograms, bounded timestamped series and alert events (queue
//!   depth, cache hits, switching profits, …);
//! * live telemetry: a periodic sampler/alert thread ([`Telemetry`]), an
//!   [`AlertEngine`] with straggler/saturation/cache/respawn rules, and
//!   a dependency-free Prometheus scrape endpoint ([`MetricsServer`]);
//! * exporters: Chrome trace-event JSON ([`Obs::chrome_trace`], loadable
//!   in Perfetto, one track per simulated GPU), a structured metrics
//!   dump ([`Obs::metrics_json`]), and Prometheus text exposition
//!   ([`render_prometheus`]).
//!
//! Everything is thread-safe; executors share one `Obs` behind `&` or
//! `Arc`.

mod alerts;
mod chrome;
mod clock;
mod hist;
mod metrics;
pub mod names;
mod prom;
mod server;
mod span;
mod telemetry;

pub use alerts::{AlertEngine, AlertEvent, AlertRules};
pub use clock::Clock;
pub use hist::{GAMMA, ZERO_THRESHOLD};
pub use metrics::{
    BoundedSeries, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, SeriesPoint,
    DEFAULT_SERIES_CAP,
};
pub use prom::{render_prometheus, sanitize_name, PROMETHEUS_CONTENT_TYPE};
pub use server::{MetricsServer, ServerError};
pub use span::{Executor, Span, SpanRecorder, Stage, HOST_DEVICE};
pub use telemetry::{Telemetry, TelemetryConfig};

use gnnlab_par::sync::Mutex;
use gnnlab_par::sync::{AtomicU32, Ordering};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The per-run observability hub.
#[derive(Debug)]
pub struct Obs {
    clock: Clock,
    spans: SpanRecorder,
    /// The metrics registry (public: executors publish directly).
    pub metrics: MetricsRegistry,
    run_labels: Mutex<Vec<String>>,
    current_run: AtomicU32,
}

impl Obs {
    fn with_clock(clock: Clock) -> Self {
        Obs {
            clock,
            spans: SpanRecorder::new(),
            metrics: MetricsRegistry::new(),
            run_labels: Mutex::new(Vec::new()),
            current_run: AtomicU32::new(0),
        }
    }

    /// An `Obs` in virtual (simulated) time: spans carry explicit
    /// timestamps from the simulation clocks, and `now_ns` is the
    /// high-water mark of everything recorded so far.
    pub fn virtual_time() -> Self {
        Self::with_clock(Clock::virtual_time())
    }

    /// An `Obs` in wall-clock time, anchored at creation.
    pub fn wall() -> Self {
        Self::with_clock(Clock::wall())
    }

    /// The underlying clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Current time in nanoseconds (see [`Clock::now_ns`]).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Opens a new sub-run: subsequent spans carry the returned run id and
    /// export as their own group of Chrome-trace processes. Useful when
    /// one `Obs` observes several experiment invocations.
    pub fn begin_run(&self, label: &str) -> u32 {
        let mut labels = self.run_labels.lock();
        if labels.is_empty() {
            labels.push("main".to_string());
        }
        labels.push(label.to_string());
        let id = (labels.len() - 1) as u32;
        self.current_run.store(id, Ordering::Relaxed);
        id
    }

    /// The run id spans currently record under (0 until `begin_run`).
    pub fn current_run(&self) -> u32 {
        self.current_run.load(Ordering::Relaxed)
    }

    /// Records a completed span with explicit timestamps (nanoseconds).
    /// Advances a virtual clock's high-water mark to `t_end`, and feeds
    /// the span's duration into the per-stage latency histogram
    /// (`stage.<stage>.ns`), which is where live p50/p90/p99 come from.
    pub fn record_span(
        &self,
        device: u32,
        executor: Executor,
        stage: Stage,
        batch: u64,
        t_start: u64,
        t_end: u64,
    ) {
        self.clock.advance_to(t_end);
        self.metrics
            .observe(stage.histogram_name(), t_end.saturating_sub(t_start) as f64);
        self.spans.record(Span {
            run: self.current_run(),
            device,
            executor,
            stage,
            batch,
            t_start,
            t_end,
        });
    }

    /// Starts a wall-clock span that records itself when dropped.
    pub fn start_span(
        &self,
        device: u32,
        executor: Executor,
        stage: Stage,
        batch: u64,
    ) -> SpanGuard<'_> {
        SpanGuard {
            obs: self,
            device,
            executor,
            stage,
            batch,
            t_start: self.now_ns(),
        }
    }

    /// Samples every gauge's current value into its same-named series at
    /// the current clock time. The [`Telemetry`] thread calls this on a
    /// wall-clock interval, replacing PR 1's per-operation series pushes.
    pub fn sample_gauges(&self) {
        let now = self.now_ns();
        for (name, g) in self.metrics.gauges_snapshot() {
            self.metrics.sample(&name, now, g.last);
        }
    }

    /// Snapshot of all spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.snapshot()
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The Chrome trace-event document for everything recorded.
    pub fn chrome_trace(&self) -> Value {
        chrome::chrome_trace(&self.spans(), &self.run_labels.lock().clone())
    }

    /// Writes the Chrome trace to `path` (open with Perfetto or
    /// `chrome://tracing`).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(
            path,
            serde_json::to_string(&self.chrome_trace())
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?,
        )
    }

    /// The structured metrics dump: the registry snapshot plus span and
    /// run bookkeeping.
    pub fn metrics_json(&self) -> Value {
        let snap = self.metrics.snapshot();
        Value::Object(vec![
            (
                "clock".to_string(),
                Value::Str(
                    if self.clock.is_virtual() {
                        "virtual"
                    } else {
                        "wall"
                    }
                    .to_string(),
                ),
            ),
            (
                "span_count".to_string(),
                Value::U64(self.span_count() as u64),
            ),
            (
                "runs".to_string(),
                Value::Array(
                    self.run_labels
                        .lock()
                        .iter()
                        .map(|l| Value::Str(l.clone()))
                        .collect(),
                ),
            ),
            ("metrics".to_string(), serde_json::to_value(&snap)),
        ])
    }

    /// Writes the metrics dump to `path` as pretty-printed JSON.
    pub fn write_metrics_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(
            path,
            serde_json::to_string_pretty(&self.metrics_json())
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?,
        )
    }
}

/// A wall-clock span in progress; records itself on drop.
#[must_use = "the span records when this guard drops"]
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    device: u32,
    executor: Executor,
    stage: Stage,
    batch: u64,
    t_start: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let t_end = self.obs.now_ns().max(self.t_start);
        self.obs.record_span(
            self.device,
            self.executor,
            self.stage,
            self.batch,
            self.t_start,
            t_end,
        );
    }
}

/// Sums span durations (seconds) per stage.
pub fn stage_secs(spans: &[Span]) -> BTreeMap<Stage, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.stage).or_insert(0.0) += s.duration_ns() as f64 * 1e-9;
    }
    out
}

/// Finds the first pair of spans that overlap on one `(run, device, lane)`
/// track — the invariant every runtime must uphold. Returns `None` when
/// the schedule is consistent.
pub fn find_overlap(spans: &[Span]) -> Option<(Span, Span)> {
    let mut by_track: BTreeMap<(u32, u32, u32), Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_track
            .entry((s.run, s.device, s.stage.lane()))
            .or_default()
            .push(*s);
    }
    for track in by_track.values_mut() {
        track.sort_by_key(|s| (s.t_start, s.t_end));
        for pair in track.windows(2) {
            if pair[1].t_start < pair[0].t_end {
                return Some((pair[0], pair[1]));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_obs_advances_clock_with_spans() {
        let obs = Obs::virtual_time();
        obs.record_span(0, Executor::Sampler, Stage::SampleG, 0, 100, 300);
        obs.record_span(0, Executor::Sampler, Stage::SampleM, 0, 300, 450);
        assert_eq!(obs.now_ns(), 450);
        assert_eq!(obs.span_count(), 2);
        let sums = stage_secs(&obs.spans());
        assert!((sums[&Stage::SampleG] - 200e-9).abs() < 1e-18);
    }

    #[test]
    fn wall_span_guard_records_on_drop() {
        let obs = Obs::wall();
        {
            let _g = obs.start_span(3, Executor::Trainer, Stage::Train, 9);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].device, 3);
        assert_eq!(spans[0].batch, 9);
        assert!(spans[0].duration_ns() > 0);
    }

    #[test]
    fn begin_run_partitions_spans() {
        let obs = Obs::virtual_time();
        obs.record_span(0, Executor::Sampler, Stage::SampleG, 0, 0, 10);
        let r = obs.begin_run("second");
        assert_eq!(r, 1);
        obs.record_span(0, Executor::Sampler, Stage::SampleG, 0, 0, 10);
        let spans = obs.spans();
        assert_eq!(spans[0].run, 0);
        assert_eq!(spans[1].run, 1);
        // Same device+lane+times, but different runs: not an overlap.
        assert!(find_overlap(&spans).is_none());
    }

    #[test]
    fn find_overlap_flags_real_collisions() {
        let mk = |t0, t1| Span {
            run: 0,
            device: 0,
            executor: Executor::Trainer,
            stage: Stage::Extract,
            batch: 0,
            t_start: t0,
            t_end: t1,
        };
        assert!(find_overlap(&[mk(0, 10), mk(10, 20)]).is_none());
        assert!(find_overlap(&[mk(0, 10), mk(9, 20)]).is_some());
    }

    #[test]
    fn metrics_json_has_snapshot_sections() {
        let obs = Obs::virtual_time();
        obs.metrics.counter_inc("x");
        obs.metrics.sample("queue.depth", 5, 2.0);
        let doc = obs.metrics_json();
        assert_eq!(doc.get("clock").and_then(Value::as_str), Some("virtual"));
        let m = doc.get("metrics").unwrap();
        assert!(m.get("counters").unwrap().get("x").is_some());
        assert_eq!(
            m.get("series")
                .unwrap()
                .get("queue.depth")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            1
        );
        // The whole dump survives a serde_json round trip.
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back.get("span_count").and_then(Value::as_u64), Some(0));
    }
}
