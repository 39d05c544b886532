//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer's public functions; nothing is recorded inside the program.
//! `gnnlab_obs`'s recorder does not fit here: its spans carry a closed
//! `Stage` enum and no parent, and the staged replay needs free-form
//! layer names and a parent link to compute self time.

use crate::report::obj;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The mini-batch this span belongs to; spans of one batch share it.
    pub batch: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Keeps spans in memory until the benchmark writes them out at exit.
/// A disabled tracer runs the timed closure and records nothing, which is
/// how the replay measures what its own spans cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns `None` when
    /// tracing is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        batch: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        batch: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, batch);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Σ child durations ÷ Σ parent durations over every span named `parent`:
/// the share of the per-batch wall the layer spans account for.
pub fn coverage(spans: &[Span], parent: &str) -> f64 {
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(Span::duration_ns)
        .sum();
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == parent))
        .map(Span::duration_ns)
        .sum();
    if total == 0 {
        0.0
    } else {
        children as f64 / total as f64
    }
}

/// Durations in microseconds of every span, grouped by name.
pub fn durations_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
    }
    by_name
}

/// Total self time in microseconds per span name.
pub fn self_time_us_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name).or_default() += own as f64 / 1e3;
    }
    by_name
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"X"`) event per span, parents and children on one track so nesting
/// shows, with the parent index and batch id as arguments.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events: Vec<Value> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![("span", Value::U64(i as u64))];
            if let Some(p) = s.parent {
                args.push(("parent", Value::U64(p as u64)));
            }
            if let Some(b) = s.batch {
                args.push(("batch", Value::U64(b)));
            }
            obj(vec![
                ("name", Value::Str(s.name.to_string())),
                ("ph", Value::Str("X".to_string())),
                ("pid", Value::U64(1)),
                ("tid", Value::U64(1)),
                ("ts", Value::F64(s.start_ns as f64 / 1e3)),
                ("dur", Value::F64(s.duration_ns() as f64 / 1e3)),
                ("args", obj(args)),
            ])
        })
        .collect();
    obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ns".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            batch: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("batch", 0, 100, None),
            span("sampling.sample", 0, 30, Some(0)),
            span("tensor.forward", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 40, 10]);
        let by_name = self_time_us_by_name(&spans);
        assert_eq!(by_name["batch"], 0.02);
    }

    #[test]
    fn coverage_is_children_over_parents() {
        let spans = vec![
            span("batch", 0, 100, None),
            span("a", 0, 50, Some(0)),
            span("b", 50, 95, Some(0)),
            span("batch", 100, 200, None),
            span("a", 100, 200, Some(3)),
            span("setup", 0, 1000, None),
        ];
        assert!((coverage(&spans, "batch") - 195.0 / 200.0).abs() < 1e-12);
        assert_eq!(coverage(&spans, "absent"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_closure() {
        let mut t = Tracer::new(false);
        let b = t.begin("batch", None, Some(1));
        assert_eq!(t.time("x", b, Some(1), || 7), 7);
        t.end(b);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_and_exports_chrome_events() {
        let mut t = Tracer::new(true);
        let b = t.begin("batch", None, Some(3));
        t.time("x", b, Some(3), || std::hint::black_box(1 + 1));
        t.end(b);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let doc = chrome_trace(spans);
        let text = serde_json::to_string(&doc).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        let events = back.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 2);
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(Value::as_u64), Some(0));
    }
}
