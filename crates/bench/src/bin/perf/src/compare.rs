//! `perf --compare A.json B.json`: holds a second set of runs against a
//! first one, per workload and end-to-end metric, by the bounds the
//! benchmark fixed.

use crate::spec::{Better, END_TO_END};
use serde_json::Value;

/// How B's value stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// Not worse than A by more than the bound.
    Same,
    /// Worse than A by more than the bound.
    Worse,
    /// Within the bound, but A's own spread is wider than the bound, so
    /// "unchanged" cannot be told from noise.
    Unresolved,
}

impl Mark {
    pub fn as_str(self) -> &'static str {
        match self {
            Mark::Same => "same",
            Mark::Worse => "worse",
            Mark::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// A's inter-quartile distance.
    pub spread: f64,
    pub bound: f64,
    pub mark: Mark,
}

/// Marks one pairing. `bound` and the spread are shares of A's value.
pub fn mark(a: f64, b: f64, spread: f64, bound: f64, better: Better) -> Mark {
    let base = a.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (b - a) / base,
        Better::Higher => (a - b) / base,
    };
    if worse_by > bound {
        Mark::Worse
    } else if spread / base > bound {
        Mark::Unresolved
    } else {
        Mark::Same
    }
}

/// One row per workload of A and end-to-end metric. A workload or metric
/// missing from B is an error: the two files must come from one benchmark.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("A has no \"workloads\" object")?;
    let mut rows = Vec::new();
    for (name, wa) in workloads {
        let metric = |doc: &Value, which: &str, m: &str, field: &str| -> Result<f64, String> {
            doc.get("end_to_end")
                .and_then(|r| r.get("metrics"))
                .and_then(|ms| ms.get(m))
                .and_then(|r| r.get(field))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{which}: {name}.{m}.{field} is missing"))
        };
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("B has no workload {name}"))?;
        for decl in END_TO_END {
            let va = metric(wa, "A", decl.name, "value")?;
            let vb = metric(wb, "B", decl.name, "value")?;
            let spread = metric(wa, "A", decl.name, "q3")? - metric(wa, "A", decl.name, "q1")?;
            rows.push(Row {
                workload: name.clone(),
                metric: decl.name,
                unit: decl.unit,
                a: va,
                b: vb,
                spread,
                bound: decl.bound,
                mark: mark(va, vb, spread, decl.bound, decl.better),
            });
        }
    }
    Ok(rows)
}

/// Prints the rows; returns whether any is `worse`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>12} {:>7}  mark",
        "workload", "metric", "A value", "B value", "A spread", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<16} {:>14.6} {:>14.6} {:>12.6} {:>6.0}%  {} ({})",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.spread,
            r.bound * 100.0,
            r.mark.as_str(),
            r.unit
        );
    }
    let count = |m: Mark| rows.iter().filter(|r| r.mark == m).count();
    println!(
        "{} same, {} worse, {} unresolved",
        count(Mark::Same),
        count(Mark::Worse),
        count(Mark::Unresolved)
    );
    count(Mark::Worse) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::obj;

    #[test]
    fn marks_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(mark(1.0, 1.05, 0.01, 0.10, Lower), Mark::Same);
        assert_eq!(mark(1.0, 1.11, 0.01, 0.10, Lower), Mark::Worse);
        assert_eq!(mark(1.0, 0.5, 0.01, 0.10, Lower), Mark::Same);
        assert_eq!(mark(100.0, 89.0, 1.0, 0.10, Higher), Mark::Worse);
        assert_eq!(mark(100.0, 120.0, 1.0, 0.10, Higher), Mark::Same);
        assert_eq!(mark(1.0, 1.05, 0.2, 0.10, Lower), Mark::Unresolved);
        // Worse beyond the bound stays worse however wide the spread.
        assert_eq!(mark(1.0, 1.5, 0.2, 0.10, Lower), Mark::Worse);
    }

    fn file(run_wall: f64) -> Value {
        let metrics = END_TO_END
            .iter()
            .map(|d| {
                let v = if d.name == "run_wall_s" {
                    run_wall
                } else {
                    1.0
                };
                (
                    d.name,
                    obj(vec![
                        ("value", Value::F64(v)),
                        ("q1", Value::F64(v * 0.99)),
                        ("q3", Value::F64(v * 1.01)),
                    ]),
                )
            })
            .collect();
        obj(vec![(
            "workloads",
            obj(vec![(
                "w",
                obj(vec![("end_to_end", obj(vec![("metrics", obj(metrics))]))]),
            )]),
        )])
    }

    #[test]
    fn compare_walks_every_declared_metric_and_flags_the_slow_one() {
        let rows = compare(&file(1.0), &file(1.3)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        let worse: Vec<&str> = rows
            .iter()
            .filter(|r| r.mark == Mark::Worse)
            .map(|r| r.metric)
            .collect();
        assert_eq!(worse, ["run_wall_s"]);
        assert!(compare(&file(1.0), &obj(vec![])).is_err());
    }
}
