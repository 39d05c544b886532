//! CLI that regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--json] [--trace-out PATH] [--metrics-out PATH]
//!             [--metrics-addr ADDR] [--serve-secs N]
//!             [--exp NAME | name ...]
//!     names: table1 table2 table4 table5 table6
//!            fig3 fig4 fig5 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17
//!            partition ablations fault_recovery switch_cache kill_resume
//!            all motivation caching performance
//! Environment: GNNLAB_SCALE=<divisor> (default 1024)
//! ```
//!
//! `--trace-out` writes a Chrome trace-event JSON (open in Perfetto or
//! `chrome://tracing`) with one track per simulated GPU; `--metrics-out`
//! writes the structured metrics dump (counters, gauges, histograms with
//! p50/p90/p99, bounded series, alerts). Both attach a shared
//! virtual-time observability hub to every experiment that supports one.
//!
//! `--metrics-addr HOST:PORT` additionally serves the live hub over
//! HTTP while the experiments run: `GET /metrics` returns Prometheus
//! text exposition, `GET /metrics.json` the structured dump. Scrape it
//! mid-run (e.g. during `--exp fault_recovery`) to watch counters and
//! per-stage latency quantiles move. `--serve-secs N` keeps the
//! endpoint up N extra seconds after the experiments finish, so
//! one-shot scrapers (CI smoke jobs) always find the final state.

use gnnlab_bench::{exp, ExpConfig, Table};
use gnnlab_core::sync::{AtomicBool, Ordering};
use gnnlab_obs::{MetricsServer, Obs};
use std::sync::Arc;

/// Set by the `--json` flag: emit one JSON object per table instead of
/// aligned text.
static JSON: AtomicBool = AtomicBool::new(false);

fn print_tables(tables: Vec<Table>) {
    for t in tables {
        if JSON.load(Ordering::Relaxed) {
            println!("{}", serde_json::to_string(&t).expect("tables serialize"));
        } else {
            println!("{}", t.render());
        }
    }
}

/// Runs experiment `name`. Figs. 12 and 13 are two readings of one policy
/// sweep; `policy_sweep` holds its tables once either name has run, so
/// asking for both runs the sweep once.
fn run_one(name: &str, cfg: &ExpConfig, policy_sweep: &mut Option<[Table; 2]>) -> bool {
    let start = std::time::Instant::now();
    match name {
        "table1" => print_tables(vec![exp::table1::run(cfg)]),
        "table2" => print_tables(vec![exp::table2::run(cfg)]),
        "table4" => print_tables(vec![exp::table4::run(cfg)]),
        "table5" => print_tables(vec![exp::table5::run(cfg)]),
        "table6" => print_tables(vec![exp::table6::run(cfg)]),
        "fig3" => print_tables(vec![exp::fig3::run(cfg)]),
        "fig4" => print_tables(exp::fig4::run(cfg)),
        "fig5" => print_tables(exp::fig5::run(cfg)),
        "fig10" => print_tables(vec![exp::fig10::run(cfg)]),
        "fig11" => print_tables(exp::fig11::run(cfg)),
        "fig12" | "fig13" => {
            let both = policy_sweep.get_or_insert_with(|| exp::fig12::tables(cfg));
            print_tables(vec![both[usize::from(name == "fig13")].clone()]);
        }
        "fig14" => print_tables(exp::fig14::run(cfg)),
        "fig15" => print_tables(vec![exp::fig15::run(cfg)]),
        "fig16" => print_tables(vec![exp::fig16::run(cfg), exp::fig16::run_scalability(cfg)]),
        "fig17" => print_tables(exp::fig17::run(cfg)),
        "partition" => print_tables(vec![exp::partition::run(cfg)]),
        "ablations" => print_tables(exp::ablations::run(cfg)),
        "fault_recovery" => print_tables(vec![exp::fault_recovery::run(cfg)]),
        "switch_cache" => print_tables(vec![exp::switch_cache::run(cfg)]),
        "kill_resume" => print_tables(vec![exp::kill_resume::run(cfg)]),
        _ => return false,
    }
    eprintln!("[{name} took {:.1}s]\n", start.elapsed().as_secs_f64());
    true
}

const ALL: &[&str] = &[
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "table2",
    "fig10",
    "fig11",
    "table4",
    "table5",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "table6",
    "fig16",
    "fig17",
    "partition",
    "ablations",
    "fault_recovery",
    "switch_cache",
    "kill_resume",
];

/// Removes `--flag VALUE` (or `--flag=VALUE`) from `args`, returning VALUE.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        return Some(value);
    }
    let prefix = format!("{flag}=");
    if let Some(pos) = args.iter().position(|a| a.starts_with(&prefix)) {
        let value = args.remove(pos)[prefix.len()..].to_string();
        return Some(value);
    }
    None
}

fn main() {
    let mut cfg = ExpConfig::default();
    eprintln!(
        "GNNLab-rs experiment harness (scale 1/{}; set GNNLAB_SCALE to change)\n",
        cfg.scale.factor()
    );
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        args.remove(pos);
        JSON.store(true, Ordering::Relaxed);
    }
    let trace_out = take_flag(&mut args, "--trace-out");
    let metrics_out = take_flag(&mut args, "--metrics-out");
    let metrics_addr = take_flag(&mut args, "--metrics-addr");
    let serve_secs: u64 = take_flag(&mut args, "--serve-secs")
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("--serve-secs must be an integer, got '{s}'");
                std::process::exit(2);
            })
        })
        .unwrap_or(0);
    // `--exp NAME` is an alias for the positional form.
    while let Some(name) = take_flag(&mut args, "--exp") {
        args.push(name);
    }
    if trace_out.is_some() || metrics_out.is_some() || metrics_addr.is_some() {
        // The co-simulations record in virtual (simulated) time.
        cfg.obs = Some(Arc::new(Obs::virtual_time()));
    }
    let server = metrics_addr.as_ref().map(|addr| {
        let obs = Arc::clone(cfg.obs.as_ref().expect("obs exists when serving"));
        match MetricsServer::bind(addr, obs) {
            Ok(server) => {
                eprintln!(
                    "[serving live metrics on http://{}/metrics (and /metrics.json)]",
                    server.local_addr()
                );
                server
            }
            Err(e) => {
                // `ServerError` already names the address and OS error;
                // exit code 3 = metrics endpoint, matching `gnnlab`.
                eprintln!("{e}");
                std::process::exit(3);
            }
        }
    });
    let groups: &[(&str, &[&str])] = &[
        ("all", ALL),
        ("motivation", &["table1", "fig3", "fig4", "fig5"]),
        ("caching", &["table2", "fig10", "fig11", "fig12", "fig13"]),
        (
            "performance",
            &[
                "table4", "table5", "fig14", "fig15", "table6", "fig16", "fig17",
            ],
        ),
    ];
    let mut names: Vec<&str> = Vec::new();
    if args.is_empty() {
        names.extend_from_slice(ALL);
    } else {
        for a in &args {
            if let Some((_, members)) = groups.iter().find(|(g, _)| g == a) {
                names.extend_from_slice(members);
            } else {
                names.push(a.as_str());
            }
        }
    }
    let mut policy_sweep = None;
    for name in names {
        if !run_one(name, &cfg, &mut policy_sweep) {
            eprintln!("unknown experiment '{name}'; known: {ALL:?} plus groups all/motivation/caching/performance");
            std::process::exit(2);
        }
    }
    if let Some(obs) = &cfg.obs {
        if let Some(path) = &trace_out {
            match obs.write_chrome_trace(std::path::Path::new(path)) {
                Ok(()) => eprintln!("[wrote {} spans to {path}]", obs.span_count()),
                Err(e) => {
                    eprintln!("failed to write trace to {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &metrics_out {
            match obs.write_metrics_json(std::path::Path::new(path)) {
                Ok(()) => eprintln!("[wrote metrics to {path}]"),
                Err(e) => {
                    eprintln!("failed to write metrics to {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    if let Some(server) = server {
        if serve_secs > 0 {
            eprintln!("[holding metrics endpoint open for {serve_secs}s]");
            std::thread::sleep(std::time::Duration::from_secs(serve_secs));
        }
        server.shutdown();
    }
}
