//! One run of each face of the program, exactly as a user calls it, and
//! the correctness checks on what it returns.

use crate::host;
use crate::report::Verdict;
use crate::spec::{Durable, ThreadedSpec, GOLDEN_SCALE, GOLDEN_SEED};
use gnnlab_bench::{exp, ExpConfig};
use gnnlab_core::checkpoint;
use gnnlab_core::threaded::{run_threaded, ThreadedError, ThreadedResult};
use gnnlab_graph::gen::{sbm, SbmGraph};
use gnnlab_graph::Scale;
use std::path::Path;
use std::time::Instant;

/// The tables `exp::{table5, fig17, fig10}` rendered at [`GOLDEN_SCALE`]
/// with seed [`GOLDEN_SEED`] by the commit this benchmark was added on.
const GOLDEN: &str = include_str!("../golden/cosim_scale8192_seed42.txt");

/// Generates a threaded workload's graph from the seed.
pub fn generate(spec: &ThreadedSpec, seed: u64) -> SbmGraph {
    sbm(&spec.sbm_params(seed)).expect("the workload table holds valid SBM parameters")
}

/// One `run_threaded` call with its wall time, CPU time and peak memory.
pub struct ThreadedRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub result: Result<ThreadedResult, ThreadedError>,
}

/// Calls `run_threaded` on `graph` as `spec` configures it. A durable
/// spec writes its generations into `ckpt_dir`, which is emptied first so
/// no generation leaks from an earlier repetition.
pub fn threaded_once(
    graph: &SbmGraph,
    spec: &ThreadedSpec,
    seed: u64,
    ckpt_dir: &Path,
) -> ThreadedRun {
    let _ = std::fs::remove_dir_all(ckpt_dir);
    let cfg = spec.config(seed, ckpt_dir);
    host::reset_peak_rss();
    let cpu0 = host::cpu_seconds();
    let started = Instant::now();
    let result = run_threaded(graph, spec.model, &cfg);
    ThreadedRun {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
        peak_rss_mb: host::peak_rss_mb(),
        result,
    }
}

/// Bit patterns of a parameter vector, for bit-for-bit comparison.
pub fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

/// Checks one threaded run. An operation is a mini-batch; it fails unless
/// it was trained exactly once, and a run that returned `Err` fails all
/// of its batches. `reference` holds the first durable repetition's final
/// parameters: later repetitions must reproduce them bit for bit.
pub fn check_threaded(
    spec: &ThreadedSpec,
    run: &ThreadedRun,
    ckpt_dir: &Path,
    reference: &mut Option<Vec<u32>>,
) -> Verdict {
    let expected = spec.batches_per_run();
    let mut v = Verdict {
        attempted: expected as u64,
        ..Verdict::default()
    };
    let res = match &run.result {
        Ok(res) => res,
        Err(e) => {
            v.failed = expected as u64;
            v.problem(format!("run_threaded failed: {e}"));
            return v;
        }
    };
    let mut times_trained = vec![0u32; expected];
    let mut strays = 0u64;
    for rec in &res.history {
        match times_trained.get_mut(rec.id as usize) {
            Some(n) => *n += 1,
            None => strays += 1,
        }
    }
    v.failed = times_trained.iter().filter(|&&n| n != 1).count() as u64 + strays;
    if v.failed > 0 {
        v.problem(format!("{} batch(es) not trained exactly once", v.failed));
    }
    if res.batches_trained != expected || res.samples_produced != expected {
        v.problem(format!(
            "trained {} / produced {} batches, expected {expected}",
            res.batches_trained, res.samples_produced
        ));
    }
    if res.final_accuracy < spec.min_accuracy {
        v.problem(format!(
            "final accuracy {:.4} below {:.2}",
            res.final_accuracy, spec.min_accuracy
        ));
    }
    if let Some(d) = spec.durable {
        // Every injected crash is absorbed: by a respawn where the dead
        // executor was the only one of its role, else by a reassignment.
        let r = &res.recovery;
        if r.faults_injected != d.crashes() || r.respawns + r.reassignments != d.crashes() {
            v.problem(format!(
                "{} fault(s) injected, {} respawn(s) + {} reassignment(s), expected {} of each",
                r.faults_injected,
                r.respawns,
                r.reassignments,
                d.crashes()
            ));
        }
        if res.checkpoints_written == 0 {
            v.problem("no checkpoint generation written");
        }
        if checkpoint::load_latest(ckpt_dir).loaded.is_none() {
            v.problem("no generation in the checkpoint directory decodes");
        }
        let ours = bits(&res.final_params);
        match reference {
            Some(first) if *first != ours => {
                v.problem("final parameters differ from the first repetition's");
            }
            Some(_) => {}
            None => *reference = Some(ours),
        }
    }
    v
}

/// Checkpointing alone must not change training: two epochs of a durable
/// spec with its checkpoints (no crash) and two epochs without must end on
/// bit-identical parameters.
pub fn check_checkpoint_identity(
    graph: &SbmGraph,
    spec: &ThreadedSpec,
    seed: u64,
    ckpt_dir: &Path,
) -> Verdict {
    let mut v = Verdict::default();
    let Some(d) = spec.durable else { return v };
    let plain = ThreadedSpec {
        epochs: 2.min(spec.epochs),
        ..spec.stripped()
    };
    let checkpointed = ThreadedSpec {
        durable: Some(Durable {
            trainer_crash_after: None,
            sampler_crash_after: None,
            ..d
        }),
        ..plain
    };
    let a = threaded_once(graph, &plain, seed, ckpt_dir);
    let b = threaded_once(graph, &checkpointed, seed, ckpt_dir);
    match (&a.result, &b.result) {
        (Ok(a), Ok(b)) => {
            if bits(&a.final_params) != bits(&b.final_params) {
                v.problem("checkpoint-only run's parameters differ from a plain run's");
            }
            if b.checkpoints_written == 0 {
                v.problem("identity check wrote no checkpoint");
            }
        }
        _ => v.problem("identity check run failed"),
    }
    v
}

/// One pass over the three experiment tables.
pub struct CosimRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Wall seconds of `table5`, `fig17`, `fig10`.
    pub table_s: [f64; 3],
    pub rendered: String,
}

/// Runs `exp::table5`, `exp::fig17` and `exp::fig10` as `experiments`
/// does and renders them.
pub fn cosim_once(scale: u64, seed: u64) -> CosimRun {
    let cfg = ExpConfig {
        scale: Scale::new(scale),
        seed,
        obs: None,
    };
    host::reset_peak_rss();
    let cpu0 = host::cpu_seconds();
    let started = Instant::now();
    let mut rendered = String::new();
    let mut table_s = [0.0; 3];
    let t = Instant::now();
    // Each table followed by a blank line, as `experiments` prints them.
    let mut emit = |table: &gnnlab_bench::Table| {
        rendered.push_str(&table.render());
        rendered.push('\n');
    };
    emit(&exp::table5::run(&cfg));
    table_s[0] = t.elapsed().as_secs_f64();
    let t = Instant::now();
    exp::fig17::run(&cfg).iter().for_each(&mut emit);
    table_s[1] = t.elapsed().as_secs_f64();
    let t = Instant::now();
    emit(&exp::fig10::run(&cfg));
    table_s[2] = t.elapsed().as_secs_f64();
    CosimRun {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
        peak_rss_mb: host::peak_rss_mb(),
        table_s,
        rendered,
    }
}

/// What a pass's rendering must equal: the committed golden at the
/// golden seed and scale, otherwise the first pass of this process (the
/// simulator is deterministic in its seed).
pub fn cosim_reference(scale: u64, seed: u64, first: &str) -> &str {
    if scale == GOLDEN_SCALE && seed == GOLDEN_SEED {
        GOLDEN
    } else {
        first
    }
}

/// Compares a rendering with its reference line by line. An operation is
/// a table line; it fails when it differs (or is missing on either side).
pub fn check_cosim(rendered: &str, reference: &str) -> Verdict {
    let (ours, theirs): (Vec<&str>, Vec<&str>) =
        (rendered.lines().collect(), reference.lines().collect());
    let compared = ours.len().max(theirs.len());
    let failed = (0..compared)
        .filter(|&i| ours.get(i) != theirs.get(i))
        .count() as u64;
    let mut v = Verdict {
        attempted: compared as u64,
        failed,
        problems: Vec::new(),
    };
    if failed > 0 {
        v.problem(format!("{failed} table line(s) differ from the reference"));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosim_compare_counts_differing_and_missing_lines() {
        let v = check_cosim("a\nb\nc\n", "a\nb\nc\n");
        assert_eq!((v.attempted, v.failed, v.correct()), (3, 0, true));
        let v = check_cosim("a\nX\nc\n", "a\nb\nc\nd\n");
        assert_eq!((v.attempted, v.failed, v.correct()), (4, 2, false));
    }

    #[test]
    fn golden_is_the_reference_only_at_its_own_seed_and_scale() {
        assert_eq!(cosim_reference(GOLDEN_SCALE, GOLDEN_SEED, "first"), GOLDEN);
        assert_eq!(cosim_reference(GOLDEN_SCALE, 7, "first"), "first");
        assert_eq!(cosim_reference(65_536, GOLDEN_SEED, "first"), "first");
        assert!(GOLDEN.contains("Table 5") && GOLDEN.contains("Fig. 10"));
    }
}
