//! The untraced pass: set-up, timed repetitions, checks, and the
//! end-to-end metrics a user of the system would see, corrected for the
//! state of the shared host (`reference`).

use crate::reference::{self, Reference};
use crate::report::{obj, Metric, RunReport, Verdict};
use crate::runs::{
    check_cosim, check_threaded, cosim_once, cosim_reference, generate, threaded_once,
};
use crate::spec::{Face, Workload, END_TO_END};
use crate::stats::{fastest_quarter, Reading};
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

/// Set-up runs this many times per invocation; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Timed repetitions run until `--seconds` have been measured, and at
/// least this many times.
const MIN_REPS: usize = 3;

/// Samples gathered by the timed repetitions, one entry per repetition.
#[derive(Default)]
struct Timed {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    ops_per_s: Vec<f64>,
    accuracy: Vec<f64>,
}

fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::F64(v)).collect())
}

/// Runs `w` untraced and returns the end-to-end report.
pub fn run(w: &Workload, seed: u64, seconds: f64, out_dir: &Path) -> RunReport {
    let mut verdict = Verdict::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut warmup_s = Vec::with_capacity(SETUP_REPS);
    let mut timed = Timed::default();
    let ckpt_dir = out_dir.join("ckpt");
    // One reading of the host-speed reference before every set-up and
    // every timed repetition.
    let mut host = Reference::default();
    let mut reference_s = Vec::new();

    match w.face {
        Face::Threaded => {
            let spec = &w.threaded;
            // Set-up: generate the graph and one discarded warm-up run
            // (the first run_threaded of a process is markedly slower).
            let mut graph = None;
            for _ in 0..SETUP_REPS {
                reference_s.push(host.read(w.overlap));
                let started = Instant::now();
                let g = generate(spec, seed);
                let warm = threaded_once(&g, spec, seed, &ckpt_dir);
                if let Err(e) = &warm.result {
                    verdict.problem(format!("warm-up run failed: {e}"));
                }
                warmup_s.push(warm.wall_s);
                setup_s.push(started.elapsed().as_secs_f64());
                graph = Some(g);
            }
            let graph = graph.expect("SETUP_REPS is positive");
            let mut reference = None;
            let region = Instant::now();
            while timed.wall_s.len() < MIN_REPS || region.elapsed().as_secs_f64() < seconds {
                reference_s.push(host.read(w.overlap));
                let run = threaded_once(&graph, spec, seed, &ckpt_dir);
                let v = check_threaded(spec, &run, &ckpt_dir, &mut reference);
                timed.wall_s.push(run.wall_s);
                timed.cpu_s.push(run.cpu_s);
                timed
                    .ops_per_s
                    .push((v.attempted - v.failed) as f64 / run.wall_s);
                if let Ok(res) = &run.result {
                    timed.accuracy.push(res.final_accuracy);
                }
                verdict.merge(v);
            }
        }
        Face::Cosim => {
            let mut first = String::new();
            for _ in 0..SETUP_REPS {
                reference_s.push(host.read(w.overlap));
                let started = Instant::now();
                let warm = cosim_once(w.cosim_scale, seed);
                warmup_s.push(warm.wall_s);
                setup_s.push(started.elapsed().as_secs_f64());
                first = warm.rendered;
            }
            let reference = cosim_reference(w.cosim_scale, seed, &first);
            let region = Instant::now();
            while timed.wall_s.len() < MIN_REPS || region.elapsed().as_secs_f64() < seconds {
                reference_s.push(host.read(w.overlap));
                let run = cosim_once(w.cosim_scale, seed);
                let v = check_cosim(&run.rendered, reference);
                let reproduced = (v.attempted - v.failed) as f64;
                timed.wall_s.push(run.wall_s);
                timed.cpu_s.push(run.cpu_s);
                timed.ops_per_s.push(reproduced / run.wall_s);
                timed.accuracy.push(reproduced / v.attempted.max(1) as f64);
                verdict.merge(v);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    if timed.accuracy.is_empty() {
        // Every repetition failed; the verdict already says so.
        timed.accuracy.push(0.0);
    }

    let reps = timed.wall_s.len();
    // The three timings are means over the fastest quarter of the
    // repetitions (see `stats::fastest_quarter` for why not medians over
    // all); CPU time comes in 10 ms ticks, which the mean resolves. Every
    // timing is then corrected by the host-speed reference: seconds as
    // the quiet reference host would have measured them.
    let fastest = fastest_quarter(&timed.wall_s);
    let host_reading_s = reference::reading(&reference_s);
    let slowdown = host_reading_s / reference::NOMINAL_S;
    let mut raw = Vec::new();
    let metrics = END_TO_END
        .iter()
        .map(|decl| {
            // What was measured, and what the correction multiplies it by.
            let (measured, correction) = match decl.name {
                "setup_s" => (Reading::of(&setup_s), 1.0 / slowdown),
                "run_wall_s" => (Reading::mean_over(&timed.wall_s, &fastest), 1.0 / slowdown),
                "ops_per_s" => (Reading::mean_over(&timed.ops_per_s, &fastest), slowdown),
                "cpu_s_per_run" => (Reading::mean_over(&timed.cpu_s, &fastest), 1.0 / slowdown),
                "final_accuracy" => (Reading::of(&timed.accuracy), 1.0),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            raw.push((decl.name, Value::F64(measured.value)));
            Metric {
                name: decl.name,
                unit: decl.unit,
                reading: measured.scaled(correction),
            }
        })
        .collect();
    RunReport {
        workload: w.name,
        seed,
        seconds,
        traced: false,
        verdict,
        metrics,
        reps,
        warmup_s,
        extra: vec![
            ("host_reference_s", Value::F64(host_reading_s)),
            ("host_reference_nominal_s", Value::F64(reference::NOMINAL_S)),
            ("host_slowdown", Value::F64(slowdown)),
            ("measured", obj(raw)),
            // Every sample, in run order, for a look at the host's state
            // through the invocation.
            ("rep_wall_s", floats(&timed.wall_s)),
            ("reference_s", floats(&reference_s)),
        ],
    }
}
