//! `perf`: the repository's one performance harness.
//!
//! ```text
//! perf [--seed N] [--seconds S] [--out PATH] [--smoke]        every workload
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]  one run
//! perf --compare A.json B.json                                 two sets of runs
//! ```
//!
//! Without `--workload` every workload runs, one after another, each pass
//! in a fresh child process of this binary (so CPU time and peak memory
//! are that pass's own): first untraced for the end-to-end metrics, then
//! traced for the per-layer metrics. With `--workload` one pass runs in
//! this process and the last line of standard output is the result object
//! `BENCHMARK.json`'s driver reads. See `README.md` beside this package.

mod alloc;
mod compare;
mod endtoend;
mod host;
mod layers;
mod reference;
mod report;
mod runs;
mod spans;
mod spec;
mod stats;

use report::{obj, RunReport};
use serde_json::Value;
use spec::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`.
const DEFAULT_SECONDS: f64 = 22.0;
const SMOKE_SECONDS: f64 = 0.2;

const USAGE: &str = "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out PATH] [--smoke] | perf --compare A.json B.json";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

impl Args {
    /// `--seconds`, or the mode's default.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            "--compare" => {
                let a = PathBuf::from(value()?);
                parsed.compare = Some((a, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// Where traces, reports and checkpoint directories go: under cargo's
/// target directory, which the repository's `.gitignore` covers.
fn out_root(smoke: bool) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join(if smoke { "perf-smoke" } else { "perf" })
}

fn report_path(dir: &Path, traced: bool) -> PathBuf {
    dir.join(if traced {
        "report-layers.json"
    } else {
        "report-end-to-end.json"
    })
}

/// Runs one pass of one workload in this process.
fn run_pass(w: &Workload, seed: u64, seconds: f64, traced: bool, dir: &Path) -> RunReport {
    if traced {
        layers::run(w, seed, seconds, dir)
    } else {
        endtoend::run(w, seed, seconds, dir)
    }
}

/// `--workload`: one pass, its table, its report file, and the result
/// object as the last line of standard output.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let workloads = spec::workloads(args.smoke);
    let w = workloads.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = workloads.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", names.join(", "))
    })?;
    let seconds = args.seconds();
    let dir = out_root(args.smoke).join(w.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let report = run_pass(w, args.seed, seconds, args.traced, &dir);
    report.print_table();
    let path = report_path(&dir, args.traced);
    let text = serde_json::to_string_pretty(&report.to_value()).expect("a Value always renders");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", report.contract_line());
    Ok(if report.verdict.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// No `--workload`: every workload, both passes, each in a child process;
/// then one file with every report and the host's fingerprint.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let root = out_root(args.smoke);
    // A clean slate: no checkpoint directory or report of an earlier
    // invocation can leak into this one.
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    let fingerprint = host::fingerprint();
    println!(
        "host: {}",
        serde_json::to_string(&fingerprint).expect("a Value always renders")
    );
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let seconds = args.seconds();
    let mut all_correct = true;
    let mut entries = Vec::new();
    for w in spec::workloads(args.smoke) {
        let mut passes = Vec::new();
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // `status` waits for the child to end before returning.
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start the {} pass: {e}", w.name))?;
            all_correct &= status.success();
            let path = report_path(&root.join(w.name), traced);
            let text = std::fs::read_to_string(&path).map_err(|e| {
                format!(
                    "the {} pass left no report at {}: {e}",
                    w.name,
                    path.display()
                )
            })?;
            let report =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            passes.push((key, report));
        }
        entries.push((w.name, obj(passes)));
    }
    // The declarations ride along, so a set of numbers explains itself:
    // why each workload exists, and which layer each per-layer metric
    // reads and which end-to-end metric it should move.
    let whys = spec::workloads(args.smoke)
        .iter()
        .map(|w| (w.name, Value::Str(w.why.to_string())))
        .collect();
    let layers = spec::PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                obj(vec![
                    ("layer", Value::Str(m.layer.to_string())),
                    ("better", Value::Str(m.better.as_str().to_string())),
                    ("moves", Value::Str(m.moves.to_string())),
                ]),
            )
        })
        .collect();
    let doc = obj(vec![
        ("schema", Value::U64(1)),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("host", fingerprint),
        ("why", obj(whys)),
        ("per_layer", obj(layers)),
        ("workloads", obj(entries)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| root.join("perf.json"));
    let text = serde_json::to_string_pretty(&doc).expect("a Value always renders");
    std::fs::write(&out, text).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "wrote {}; checks {}",
        out.display(),
        if all_correct { "all passed" } else { "FAILED" }
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    Ok(if compare::print(&rows) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The durable workload crashes executors on purpose; their panic
/// messages would bury the report. Every other panic still prints.
fn silence_injected_faults() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let text = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !text.starts_with("injected fault") {
            default(info);
        }
    }));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            return run_compare(a, b);
        }
        if host::nproc() < 2 {
            return Err(format!(
                "{} core available; the workloads keep a Sampler and a Trainer busy at once and need 2",
                host::nproc()
            ));
        }
        silence_injected_faults();
        match &args.workload {
            Some(name) => run_one(&args, name),
            None => run_all(&args),
        }
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("perf: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::{END_TO_END, PER_LAYER};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "train_bound",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("train_bound"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, Some(10.0), true));
        assert_eq!(parse_args(&[]).unwrap().seed, 42);
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
        let c = parse_args(&strings(&["--compare", "a.json", "b.json"])).unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }

    /// The smoke sizes through every workload, both passes, every check:
    /// each pass must be correct and carry exactly the declared metrics.
    #[test]
    fn smoke_mode_exercises_every_workload_and_check() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/perf-smoke-test");
        let _ = std::fs::remove_dir_all(&root);
        for w in spec::workloads(true) {
            let dir = root.join(w.name);
            std::fs::create_dir_all(&dir).unwrap();
            for traced in [false, true] {
                let report = run_pass(&w, 42, SMOKE_SECONDS, traced, &dir);
                assert!(
                    report.verdict.correct(),
                    "{} traced={traced}: {:?}",
                    w.name,
                    report.verdict.problems
                );
                assert!(report.verdict.attempted >= 1);
                let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
                let declared: Vec<&str> = if traced {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(names, declared, "{}", w.name);
                for m in &report.metrics {
                    assert!(m.reading.value.is_finite(), "{} {}", w.name, m.name);
                }
                let line = serde_json::from_str(&report.contract_line()).unwrap();
                let emitted = line.get("metrics").and_then(Value::as_object).unwrap();
                assert_eq!(emitted.len(), declared.len());
                if traced {
                    assert!(dir.join("trace.json").exists());
                } else {
                    for m in &report.metrics {
                        assert!(m.reading.value > 0.0, "{} {} is 0", w.name, m.name);
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
