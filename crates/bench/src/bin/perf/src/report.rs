//! The JSON the benchmark emits: the one-line result the driver reads, the
//! fuller per-run report kept beside it, and the printed metric table.

use crate::stats::Reading;
use serde_json::Value;

/// An object from `(key, value)` pairs, keeping their order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Outcome of the correctness checks: operations attempted, operations
/// that failed, and every check that did not hold (a failed operation
/// always names one).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn merge(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }
}

/// One named reading with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub reading: Reading,
}

/// Everything one `--workload` run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub verdict: Verdict,
    pub metrics: Vec<Metric>,
    /// Timed repetitions behind the end-to-end medians.
    pub reps: usize,
    /// Wall seconds of each discarded warm-up run.
    pub warmup_s: Vec<f64>,
    /// Free-form extras of the traced pass (self-time table, trace path).
    pub extra: Vec<(&'static str, Value)>,
}

impl RunReport {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    obj(vec![
                        ("value", Value::F64(m.reading.value)),
                        ("unit", Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        let line = obj(vec![
            ("correct", Value::Bool(self.verdict.correct())),
            ("attempted", Value::U64(self.verdict.attempted.max(1))),
            ("failed", Value::U64(self.verdict.failed)),
            ("metrics", obj(metrics)),
        ]);
        serde_json::to_string(&line).expect("a Value always renders")
    }

    /// The full report: the contract's fields plus spreads, sample counts
    /// and the run's parameters.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let r = &m.reading;
                let mut fields = vec![
                    ("value", Value::F64(r.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                    ("q1", Value::F64(r.q1)),
                    ("q3", Value::F64(r.q3)),
                    ("n", Value::U64(r.n as u64)),
                ];
                if let Some(p) = r.p99 {
                    fields.push(("p99", Value::F64(p)));
                }
                (m.name, obj(fields))
            })
            .collect();
        let mut fields = vec![
            ("workload", Value::Str(self.workload.to_string())),
            ("seed", Value::U64(self.seed)),
            ("seconds", Value::F64(self.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.verdict.correct())),
            ("attempted", Value::U64(self.verdict.attempted)),
            ("failed", Value::U64(self.verdict.failed)),
            (
                "problems",
                Value::Array(
                    self.verdict
                        .problems
                        .iter()
                        .map(|p| Value::Str(p.clone()))
                        .collect(),
                ),
            ),
            ("reps", Value::U64(self.reps as u64)),
            (
                "warmup_s",
                Value::Array(self.warmup_s.iter().map(|&s| Value::F64(s)).collect()),
            ),
            ("metrics", obj(metrics)),
        ];
        fields.extend(self.extra.iter().map(|(k, v)| (*k, v.clone())));
        obj(fields)
    }

    /// Every metric by name with its unit, one per line.
    pub fn print_table(&self) {
        let kind = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!(
            "== {} · {kind} · seed {} · {} rep(s) ==",
            self.workload, self.seed, self.reps
        );
        for m in &self.metrics {
            let r = &m.reading;
            let mut line = format!("{:<42} {:>16.6} {:<8}", m.name, r.value, m.unit);
            if r.n > 1 {
                line.push_str(&format!(" q1 {:.6} q3 {:.6} n {}", r.q1, r.q3, r.n));
            }
            if let Some(p) = r.p99 {
                line.push_str(&format!(" p99 {p:.6}"));
            }
            println!("{}", line.trim_end());
        }
        let extra = |key: &str| self.extra.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        if let (Some(slowdown), Some(measured)) = (
            extra("host_slowdown").and_then(Value::as_f64),
            extra("measured"),
        ) {
            println!(
                "host-speed reference {slowdown:.4} x nominal; as measured, before the correction: {}",
                serde_json::to_string(measured).expect("a Value always renders")
            );
        }
        println!(
            "checks: {} ({} attempted, {} failed)",
            if self.verdict.correct() {
                "all passed"
            } else {
                "FAILED"
            },
            self.verdict.attempted,
            self.verdict.failed
        );
        for p in &self.verdict.problems {
            println!("  problem: {p}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            workload: "w",
            seed: 3,
            seconds: 1.0,
            traced: false,
            verdict: Verdict {
                attempted: 10,
                failed: 0,
                problems: vec![],
            },
            metrics: vec![Metric {
                name: "run_wall_s",
                unit: "s",
                reading: Reading::of(&[1.0, 1.25, 1.5]),
            }],
            reps: 3,
            warmup_s: vec![2.0],
            extra: vec![],
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = report().contract_line();
        assert!(!line.contains('\n'));
        let v = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("run_wall_s")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(m.as_object().unwrap().len(), 2);
    }

    #[test]
    fn a_problem_or_a_failed_operation_makes_the_run_incorrect() {
        let mut r = report();
        assert!(r.verdict.correct());
        r.verdict.problem("accuracy below threshold");
        assert!(!r.verdict.correct());
        let mut v = Verdict::default();
        v.merge(Verdict {
            attempted: 5,
            failed: 1,
            problems: vec![],
        });
        assert!(!v.correct());
        assert!(report()
            .to_value()
            .get("metrics")
            .and_then(|m| m.get("run_wall_s"))
            .and_then(|m| m.get("q3"))
            .is_some());
    }
}
