//! Byte-level pin on the three tables the perf harness times, and on every
//! experiment's rendering at one configuration.
//!
//! The harness golden covers `table5`, `fig17` and `fig10` at scale 8192,
//! seed 42 only. These hashes (FNV-1a, 64-bit, over the rendered text)
//! hold the same tables at another seed and another scale, so that a
//! change to how the tables instantiate their datasets or share their
//! traces cannot move a cell unnoticed. The constants were captured before
//! `table5::run`, `fig10::run` and `fig17::run_b` stopped regenerating a
//! dataset per model / per algorithm and are never edited afterwards. Must
//! hold under `cargo test` and `cargo test --release` alike.
//!
//! [`EVERY_EXPERIMENT`] holds all 21 names of `experiments all` at scale
//! 8192, seed 1, captured before the experiments moved onto one front door
//! for a co-sim cell (first commit of that change; never edited afterwards).
//! Two tables drive the threaded runtime and print what a race decides:
//! `switch_cache` keeps its planned ratios only (hit rates, refresh time,
//! profit and switch counts differ between two runs of one binary), and
//! `kill_resume` drops `Resume gen`, `Torn` and `Ckpts after` (which
//! generation was durable at the kill).

use gnnlab_bench::{exp, ExpConfig, Table};
use gnnlab_graph::Scale;
use gnnlab_obs::Obs;
use std::sync::Arc;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn render(tables: &[Table]) -> String {
    tables.iter().map(|t| t.render() + "\n").collect()
}

/// `[table5, fig17, fig10]` hashes of one configuration.
fn table_hashes(scale: u64, seed: u64) -> [u64; 3] {
    let cfg = ExpConfig {
        scale: Scale::new(scale),
        seed,
        obs: None,
    };
    [
        fnv(&render(&[exp::table5::run(&cfg)])),
        fnv(&render(&exp::fig17::run(&cfg))),
        fnv(&render(&[exp::fig10::run(&cfg)])),
    ]
}

fn assert_hashes(got: [u64; 3], want: [u64; 3]) {
    assert_eq!(
        got, want,
        "got [{:#018x}, {:#018x}, {:#018x}]",
        got[0], got[1], got[2]
    );
}

/// Captured at the parent of the instantiate-once tables; never edit.
const SCALE_8192_SEED_1: [u64; 3] = [
    0xb7d3_96cb_e84b_53e4,
    0xcb43_45b6_58f6_f530,
    0xbe1a_f310_3ff6_6b64,
];
const SCALE_32768_SEED_42: [u64; 3] = [
    0xf68d_725c_8d88_63d9,
    0x0af0_781d_2d02_0063,
    0x68e9_6924_6c9c_cd8f,
];
const TABLE5_CHROME_TRACE: u64 = 0x8b6c_1139_cfb5_1c28;

#[test]
fn tables_at_scale_8192_seed_1() {
    assert_hashes(table_hashes(8192, 1), SCALE_8192_SEED_1);
}

#[test]
fn tables_at_scale_32768_seed_42() {
    assert_hashes(table_hashes(32_768, 42), SCALE_32768_SEED_42);
}

/// With a hub attached, `table5` opens one sub-run per row, in row order,
/// and records the same spans whether or not two systems share a trace.
#[test]
fn table5_opens_its_runs_in_row_order() {
    let obs = Arc::new(Obs::virtual_time());
    let cfg = ExpConfig {
        scale: Scale::new(8192),
        seed: 1,
        obs: Some(Arc::clone(&obs)),
    };
    let table = exp::table5::run(&cfg);
    assert_eq!(
        fnv(&render(std::slice::from_ref(&table))),
        SCALE_8192_SEED_1[0]
    );

    // A run that went out of memory recorded no span, so it has no process
    // in the trace; every other row must appear, in the table's order.
    let expected: Vec<String> = table
        .rows
        .iter()
        .filter(|row| row[2] != "OOM")
        .map(|row| format!("table5 {} {}", row[0], row[1]))
        .collect();
    assert!(expected.len() > 30, "only {} rows ran", expected.len());

    let trace = obs.chrome_trace();
    let text = serde_json::to_string(&trace).expect("chrome trace serialises");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    let mut run_names: Vec<String> = Vec::new();
    for e in events {
        if e.get("name").and_then(serde_json::Value::as_str) != Some("process_name") {
            continue;
        }
        let process = e
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(serde_json::Value::as_str)
            .expect("process_name carries a name");
        let run = process.split(" / ").next().expect("non-empty").to_string();
        if run_names.last() != Some(&run) {
            run_names.push(run);
        }
    }
    assert_eq!(run_names, expected);
    assert_eq!(fnv(&text), TABLE5_CHROME_TRACE, "got {:#018x}", fnv(&text));
}

/// One experiment as `experiments all` runs it: its name, its tables, the
/// columns that are pinned (`None`: all of them) and the hash of their
/// rendering at scale 8192, seed 1.
type Experiment = (
    &'static str,
    fn(&ExpConfig) -> Vec<Table>,
    Option<&'static [usize]>,
    u64,
);

/// Captured on the per-file cell builders, before `bench::exp` had one
/// front door; never edit.
const EVERY_EXPERIMENT: [Experiment; 21] = [
    (
        "table1",
        |c| vec![exp::table1::run(c)],
        None,
        0x6282_e95b_c832_5a4a,
    ),
    (
        "fig3",
        |c| vec![exp::fig3::run(c)],
        None,
        0x445e_f9eb_6980_af11,
    ),
    ("fig4", exp::fig4::run, None, 0x137b_b4a7_87a4_8e7a),
    ("fig5", exp::fig5::run, None, 0xc801_1ccc_3d62_b415),
    (
        "table2",
        |c| vec![exp::table2::run(c)],
        None,
        0x0c4f_0d8a_be29_1dc1,
    ),
    (
        "fig10",
        |c| vec![exp::fig10::run(c)],
        None,
        SCALE_8192_SEED_1[2],
    ),
    ("fig11", exp::fig11::run, None, 0xa658_5bae_daf0_eafa),
    (
        "table4",
        |c| vec![exp::table4::run(c)],
        None,
        0x4406_0691_a890_5d1b,
    ),
    (
        "table5",
        |c| vec![exp::table5::run(c)],
        None,
        SCALE_8192_SEED_1[0],
    ),
    (
        "fig12",
        |c| vec![exp::fig12::run(c)],
        None,
        0x5661_3a69_2449_ca44,
    ),
    (
        "fig13",
        |c| vec![exp::fig13::run(c)],
        None,
        0xa1a9_07fe_8a0c_922d,
    ),
    ("fig14", exp::fig14::run, None, 0x57a4_64ee_83fe_3667),
    (
        "fig15",
        |c| vec![exp::fig15::run(c)],
        None,
        0x477c_d68b_8330_200b,
    ),
    (
        "table6",
        |c| vec![exp::table6::run(c)],
        None,
        0x6d2d_1e9a_adf0_0a83,
    ),
    (
        "fig16",
        |c| vec![exp::fig16::run(c), exp::fig16::run_scalability(c)],
        None,
        0xebb6_ae2f_ab4a_d76f,
    ),
    ("fig17", exp::fig17::run, None, SCALE_8192_SEED_1[1]),
    (
        "partition",
        |c| vec![exp::partition::run(c)],
        None,
        0x3560_e7cf_14f3_4415,
    ),
    (
        "ablations",
        exp::ablations::run,
        None,
        0xf54b_ddcf_6f3d_4c43,
    ),
    (
        "fault_recovery",
        |c| vec![exp::fault_recovery::run(c)],
        None,
        0xc9de_68e5_4acf_38bb,
    ),
    (
        "switch_cache",
        |c| vec![exp::switch_cache::run(c)],
        Some(&[0, 1, 2]),
        0x5b35_3037_0018_0727,
    ),
    (
        "kill_resume",
        |c| vec![exp::kill_resume::run(c)],
        Some(&[0, 1, 2, 3, 7]),
        0x115e_c97b_329c_d46d,
    ),
];

/// `table` with only the columns in `keep`.
fn project(table: &Table, keep: &[usize]) -> Table {
    let pick = |row: &Vec<String>| keep.iter().map(|&c| row[c].clone()).collect();
    Table {
        title: table.title.clone(),
        headers: pick(&table.headers),
        rows: table.rows.iter().map(pick).collect(),
    }
}

#[test]
fn every_experiment_at_scale_8192_seed_1() {
    let cfg = ExpConfig {
        scale: Scale::new(8192),
        seed: 1,
        obs: None,
    };
    let mut moved = Vec::new();
    for (name, run, keep, want) in EVERY_EXPERIMENT {
        let mut tables = run(&cfg);
        if let Some(keep) = keep {
            tables = tables.iter().map(|t| project(t, keep)).collect();
        }
        let got = fnv(&render(&tables));
        if got != want {
            moved.push(format!("{name}: got {got:#018x}, want {want:#018x}"));
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}
