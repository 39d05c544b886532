//! CLI that regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--json] [--trace-out PATH] [--metrics-out PATH]
//!             [--metrics-addr ADDR] [--serve-secs N]
//!             [--exp NAME | name ...]
//! Environment: GNNLAB_SCALE=<divisor> (default 1024)
//! ```
//!
//! The names, the groups (`motivation`, `caching`, `performance`; `all` or
//! no name runs everything) and their order are `exp::EXPERIMENTS`'s. An
//! entry runs at most once per invocation, however many of its names or
//! groups are given, and its `[name took …]` line goes to stderr once.
//! An unknown name exits with code 2 before anything runs.
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
use gnnlab_obs::{MetricsServer, Obs};
use std::sync::Arc;

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
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
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
    let selected = exp::select(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let print = |t: &Table| match json {
        true => println!("{}", serde_json::to_string(t).expect("tables serialize")),
        false => println!("{}", t.render()),
    };
    // Each entry's tables, once it has run.
    let mut ran: Vec<Option<Vec<Table>>> = vec![None; exp::EXPERIMENTS.len()];
    for (at, pick) in selected {
        let entry = &exp::EXPERIMENTS[at];
        let start = std::time::Instant::now();
        let first = ran[at].is_none();
        let tables = ran[at].get_or_insert_with(|| (entry.run)(&cfg));
        match pick {
            Some(i) => print(&tables[i]),
            None => tables.iter().for_each(print),
        }
        if first {
            let name = entry.names.join("/");
            eprintln!("[{name} took {:.1}s]\n", start.elapsed().as_secs_f64());
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
