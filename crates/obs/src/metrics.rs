//! A thread-safe metrics registry: counters, gauges, histograms,
//! bounded timestamped series, and structured alert events.
//!
//! Every runtime publishes into one registry under stable dotted names
//! (`queue.depth`, `cache.hit_bytes`, `scheduler.switch_profit`, …); the
//! registry serializes to a structured JSON dump via
//! [`MetricsRegistry::snapshot`]. Values are `f64` throughout so counts
//! and byte totals share one code path.
//!
//! Series are retained in [`BoundedSeries`] ring buffers: each series
//! keeps fewer than [`DEFAULT_SERIES_CAP`] points by stride downsampling
//! — when the buffer fills, every other retained point is dropped and
//! the sampling stride doubles, so memory stays bounded for arbitrarily
//! long runs while the retained points stay evenly spaced over the full
//! run.

use crate::alerts::AlertEvent;
pub use crate::hist::Histogram;
use gnnlab_par::sync::Mutex;
use std::collections::BTreeMap;

/// Per-series retention cap (points kept per metric name).
pub const DEFAULT_SERIES_CAP: usize = 8192;

/// A last-value gauge that also remembers its maximum.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct Gauge {
    /// Most recently set value.
    pub last: f64,
    /// Largest value ever set.
    pub max: f64,
}

/// One timestamped sample of a series metric.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct SeriesPoint {
    /// Timestamp in nanoseconds (virtual or wall, per the owning clock).
    pub t_ns: u64,
    /// Sampled value.
    pub value: f64,
}

/// A bounded series buffer with stride downsampling.
///
/// Only every `stride`-th offered point is retained; when the retained
/// points reach [`DEFAULT_SERIES_CAP`], every other one is dropped and
/// the stride doubles. The result is fewer than `DEFAULT_SERIES_CAP`
/// points that always span the whole recording, at a resolution that
/// degrades gracefully (halves) as the run grows — instead of an
/// unbounded `Vec` that eats memory one `queue.depth` point per enqueue.
#[derive(Debug, Clone)]
pub struct BoundedSeries {
    points: Vec<SeriesPoint>,
    stride: u64,
    seen: u64,
}

impl BoundedSeries {
    fn new() -> Self {
        BoundedSeries {
            points: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }
}

impl Default for BoundedSeries {
    fn default() -> Self {
        Self::new()
    }
}

impl BoundedSeries {
    fn push(&mut self, p: SeriesPoint) {
        if self.seen.is_multiple_of(self.stride.max(1)) {
            self.points.push(p);
            if self.points.len() >= DEFAULT_SERIES_CAP {
                let mut i = 0usize;
                self.points.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                self.stride = self.stride.max(1) * 2;
            }
        }
        self.seen += 1;
    }

    /// Points currently retained.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Number of points currently retained.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Current downsampling stride (1 = every sample retained).
    pub fn stride(&self) -> u64 {
        self.stride.max(1)
    }

    /// Total samples ever offered (including downsampled-away ones).
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// An immutable snapshot of the registry, ready for JSON export.
///
/// Empty histograms are omitted: they carry no information and their
/// `min`/`max` sentinels (`±inf`) would render as `null` in JSON.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, f64>,
    /// Last-value gauges with maxima.
    pub gauges: BTreeMap<String, Gauge>,
    /// Distribution summaries with streaming quantiles (non-empty only).
    pub histograms: BTreeMap<String, Histogram>,
    /// Timestamped series (downsampled to the cap), per name.
    pub series: BTreeMap<String, Vec<SeriesPoint>>,
    /// Structured alert events, in the order they fired.
    pub alerts: Vec<AlertEvent>,
}

/// The thread-safe registry shared by all executors of a run.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, f64>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    series: Mutex<BTreeMap<String, BoundedSeries>>,
    alerts: Mutex<Vec<AlertEvent>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            series: Mutex::new(BTreeMap::new()),
            alerts: Mutex::new(Vec::new()),
        }
    }
}

/// Applies `update` to `name`'s slot in `map`, created by `init` on first
/// use. The lookup borrows `name`; only a name's first write allocates its
/// key — the writers below sit on every executor's per-batch path.
fn upsert<V>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    init: impl FnOnce() -> V,
    update: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(slot) => update(slot),
        None => update(map.entry(name.to_string()).or_insert_with(init)),
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` (creating it at zero).
    pub fn counter_add(&self, name: &str, delta: f64) {
        upsert(&mut self.counters.lock(), name, || 0.0, |c| *c += delta);
    }

    /// Increments the counter `name` by one.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1.0);
    }

    /// Current value of the counter `name` (0 if never written).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.lock().get(name).copied().unwrap_or(0.0)
    }

    /// A copy of all counters.
    pub fn counters_snapshot(&self) -> BTreeMap<String, f64> {
        self.counters.lock().clone()
    }

    /// Sets the gauge `name`, tracking its maximum.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let fresh = || Gauge {
            last: value,
            max: value,
        };
        upsert(&mut self.gauges.lock(), name, fresh, |g| {
            g.last = value;
            g.max = g.max.max(value);
        });
    }

    /// Reads the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.gauges.lock().get(name).copied()
    }

    /// A copy of all gauges.
    pub fn gauges_snapshot(&self) -> BTreeMap<String, Gauge> {
        self.gauges.lock().clone()
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        upsert(&mut self.histograms.lock(), name, Histogram::default, |h| {
            h.observe(value)
        });
    }

    /// Reads (clones) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms.lock().get(name).cloned()
    }

    /// Appends a timestamped sample to the series `name`, downsampling
    /// to [`DEFAULT_SERIES_CAP`] as needed.
    pub fn sample(&self, name: &str, t_ns: u64, value: f64) {
        upsert(&mut self.series.lock(), name, BoundedSeries::new, |s| {
            s.push(SeriesPoint { t_ns, value })
        });
    }

    /// Number of retained samples in the series `name`.
    pub fn series_len(&self, name: &str) -> usize {
        self.series.lock().get(name).map_or(0, BoundedSeries::len)
    }

    /// Largest retained value in the series `name`, if any. Note that
    /// downsampling may drop a transient peak — gauges (which track
    /// `max` exactly) are the right tool for peak detection.
    pub fn series_max(&self, name: &str) -> Option<f64> {
        self.series
            .lock()
            .get(name)?
            .points()
            .iter()
            .map(|p| p.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Records a structured alert event and bumps the `alerts.<rule>`
    /// counter, so rule totals are visible without scanning the log.
    pub fn raise(&self, event: AlertEvent) {
        self.counter_inc(&format!("{}{}", crate::names::ALERTS_PREFIX, event.rule));
        self.alerts.lock().push(event);
    }

    /// All alert events raised so far, in firing order.
    pub fn alerts(&self) -> Vec<AlertEvent> {
        self.alerts.lock().clone()
    }

    /// Snapshots the whole registry for export. Empty histograms are
    /// omitted (their `±inf` sentinels don't survive JSON).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.lock().clone(),
            gauges: self.gauges.lock().clone(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
            series: self
                .series
                .lock()
                .iter()
                .map(|(k, s)| (k.clone(), s.points().to_vec()))
                .collect(),
            alerts: self.alerts.lock().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_gauges_histograms_series_round_trip() {
        let reg = MetricsRegistry::new();
        reg.counter_inc("a");
        reg.counter_add("a", 2.5);
        assert_eq!(reg.counter("a"), 3.5);
        assert_eq!(reg.counter("missing"), 0.0);

        reg.gauge_set("depth", 4.0);
        reg.gauge_set("depth", 9.0);
        reg.gauge_set("depth", 2.0);
        let g = reg.gauge("depth").unwrap();
        assert_eq!(g.last, 2.0);
        assert_eq!(g.max, 9.0);

        reg.observe("wait", 1.0);
        reg.observe("wait", 3.0);
        let h = reg.histogram("wait").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);

        reg.sample("depth", 10, 1.0);
        reg.sample("depth", 20, 5.0);
        assert_eq!(reg.series_len("depth"), 2);
        assert_eq!(reg.series_max("depth"), Some(5.0));

        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 3.5);
        assert_eq!(snap.series["depth"].len(), 2);
    }

    /// Satellite requirement: the registry stays consistent under
    /// concurrent Sampler/Trainer-style recording. 8 × 1000 samples stay
    /// below the default cap, so retention is still exact here.
    #[test]
    fn registry_is_race_free_under_concurrent_recording() {
        let reg = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 1000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        reg.counter_inc("produced");
                        reg.observe("wait", i as f64);
                        reg.sample("depth", (t * per_thread + i) as u64, i as f64);
                        reg.gauge_set("depth", i as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("produced"), (threads * per_thread) as f64);
        let h = reg.histogram("wait").unwrap();
        assert_eq!(h.count, (threads * per_thread) as u64);
        assert_eq!(h.max, (per_thread - 1) as f64);
        assert_eq!(reg.series_len("depth"), threads * per_thread);
        assert_eq!(reg.gauge("depth").unwrap().max, (per_thread - 1) as f64);
    }

    /// The memory bound: a million samples never hold more than the cap's
    /// points, and the survivors still span the whole run.
    #[test]
    fn series_stays_bounded_under_a_million_samples() {
        let reg = MetricsRegistry::new();
        let total = 1_000_000u64;
        for i in 0..total {
            reg.sample("queue.depth", i, (i % 7) as f64);
        }
        let len = reg.series_len("queue.depth");
        let cap = DEFAULT_SERIES_CAP;
        assert!(len < cap, "retained {len} >= cap {cap}");
        assert!(len >= cap / 4, "downsampled too hard: {len}");
        let snap = reg.snapshot();
        let pts = &snap.series["queue.depth"];
        assert_eq!(pts.first().unwrap().t_ns, 0, "lost the run's start");
        let last = pts.last().unwrap().t_ns;
        assert!(
            last >= total - total / 128,
            "lost the run's tail: last t_ns {last}"
        );
        // Retained points are still in recording order.
        assert!(pts.windows(2).all(|w| w[0].t_ns < w[1].t_ns));
    }

    /// A series keeps every point until the cap, then halves and doubles
    /// its stride.
    #[test]
    fn series_halves_when_it_reaches_the_cap() {
        let mut s = BoundedSeries::new();
        let point = |t_ns| SeriesPoint { t_ns, value: 0.0 };
        for t in 0..DEFAULT_SERIES_CAP as u64 - 1 {
            s.push(point(t));
        }
        assert_eq!((s.len(), s.stride()), (DEFAULT_SERIES_CAP - 1, 1));
        s.push(point(DEFAULT_SERIES_CAP as u64 - 1));
        assert_eq!((s.len(), s.stride()), (DEFAULT_SERIES_CAP / 2, 2));
        assert_eq!(s.seen(), DEFAULT_SERIES_CAP as u64);
    }

    /// Satellite: snapshots omit empty histograms, so the JSON dump never
    /// contains `min: null` from the `+inf` sentinel.
    #[test]
    fn snapshot_omits_empty_histograms_and_serializes_without_nulls() {
        let reg = MetricsRegistry::new();
        reg.observe("seen", 2.0);
        let snap = reg.snapshot();
        assert!(snap.histograms.contains_key("seen"));
        let text = serde_json::to_string(&snap).unwrap();
        assert!(!text.contains("null"), "snapshot leaked null: {text}");
        let doc = serde_json::from_str(&text).unwrap();
        let h = doc.get("histograms").unwrap().get("seen").unwrap();
        assert_eq!(h.get("min").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(h.get("max").and_then(|v| v.as_f64()), Some(2.0));
    }

    #[test]
    fn alerts_are_recorded_and_counted() {
        let reg = MetricsRegistry::new();
        reg.raise(AlertEvent {
            rule: "straggler".to_string(),
            subject: "trainer.0".to_string(),
            message: "2.3x over fleet median".to_string(),
            value: 2.3,
            threshold: 2.0,
            t_ns: 42,
        });
        assert_eq!(reg.counter("alerts.straggler"), 1.0);
        let alerts = reg.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].subject, "trainer.0");
        let snap = reg.snapshot();
        assert_eq!(snap.alerts.len(), 1);
        let text = serde_json::to_string(&snap).unwrap();
        assert!(text.contains("straggler"));
    }
}
