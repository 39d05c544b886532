//! Integration tests of the live telemetry path: a real threaded run
//! with fault injection serving Prometheus text over HTTP while it runs,
//! the straggler alert firing end-to-end into the metrics JSON, and a
//! property check that the streaming histogram's quantiles track exact
//! quantiles within the promised error budget.

use gnnlab::core::threaded::{run_threaded_obs, ThreadedConfig};
use gnnlab::core::{ExecutorRole, FaultPlan};
use gnnlab::graph::gen::{sbm, SbmGraph, SbmParams};
use gnnlab::obs::{Histogram, MetricsServer, Obs, Telemetry, TelemetryConfig};
use gnnlab::tensor::ModelKind;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One small shared graph for every case (generation dominates otherwise).
fn graph() -> &'static SbmGraph {
    static GRAPH: OnceLock<SbmGraph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        sbm(&SbmParams {
            num_vertices: 240,
            num_classes: 3,
            avg_degree: 8.0,
            intra_prob: 0.9,
            feat_dim: 6,
            noise: 0.6,
            seed: 11,
        })
        .expect("valid SBM parameters")
    })
}

/// One `GET path` against the metrics server; returns the response body.
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    body.to_string()
}

/// The acceptance scenario: a fault-recovery threaded run with a live
/// metrics endpoint. Scrapes issued while the run is in flight (and one
/// final scrape after it drains) return the queue-depth gauge and a
/// per-stage p99 latency quantile.
#[test]
fn live_scrape_during_a_fault_recovery_run_serves_depth_and_p99() {
    let obs = Arc::new(Obs::wall());
    let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&obs)).expect("bind port 0");
    let addr = server.local_addr();

    let cfg = ThreadedConfig {
        num_samplers: 2,
        num_trainers: 2,
        epochs: 3,
        batch_size: 10,
        queue_capacity: 4,
        faults: FaultPlan::none()
            .with_crash(ExecutorRole::Trainer, 0, 3)
            .with_straggler(ExecutorRole::Trainer, 0, 20.0)
            .with_straggler(ExecutorRole::Trainer, 1, 20.0)
            .with_max_respawns(2),
        ..Default::default()
    };
    let telemetry = Telemetry::start(
        Arc::clone(&obs),
        TelemetryConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let obs_run = Arc::clone(&obs);
    let worker =
        std::thread::spawn(move || run_threaded_obs(graph(), ModelKind::GraphSage, &cfg, &obs_run));

    // Scrape while the run is live. The early scrapes may race the first
    // batches (empty exposition is valid), so poll until the payload has
    // what the acceptance criterion demands or the run ends.
    let mut live_hit = false;
    while !worker.is_finished() {
        let body = scrape(addr, "/metrics");
        if body.contains("queue_depth") && body.contains("quantile=\"0.99\"") {
            live_hit = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let res = worker.join().expect("run thread").expect("recoverable run");
    telemetry.stop();
    assert_eq!(res.batches_trained, res.samples_produced);
    assert!(res.recovery.faults_injected >= 1, "crash was injected");

    // The final state must always expose both, whether or not a mid-run
    // scrape caught them first.
    let body = scrape(addr, "/metrics");
    assert!(body.contains("queue_depth"), "no queue depth in:\n{body}");
    assert!(
        body.contains("quantile=\"0.99\""),
        "no p99 quantile in:\n{body}"
    );
    // Per-stage latency summaries are present by stage name.
    assert!(
        body.contains("stage_train_ns"),
        "no train stage in:\n{body}"
    );
    if !live_hit {
        // Runs faster than one scrape round-trip still pass via the
        // final scrape; note it for debugging flakes.
        eprintln!("note: run finished before a live scrape saw the payload");
    }

    // The JSON endpoint serves the same registry and parses.
    let json = scrape(addr, "/metrics.json");
    let doc: serde_json::Value = serde_json::from_str(&json).expect("JSON endpoint parses");
    assert!(doc.get("metrics").is_some());
    server.shutdown();
}

/// An injected straggler must surface as `alerts.straggler >= 1` in the
/// final metrics JSON: trainer 0 runs ~12x slower than its two healthy
/// peers, so its batch-time EWMA gauge sits far above the fleet median
/// and the final evaluation of the telemetry thread watching the run
/// fires the rule.
#[test]
fn injected_straggler_raises_an_alert_in_the_metrics_json() {
    let obs = Arc::new(Obs::wall());
    let cfg = ThreadedConfig {
        num_samplers: 1,
        num_trainers: 3,
        epochs: 2,
        batch_size: 10,
        queue_capacity: 4,
        dynamic_switching: false,
        faults: FaultPlan::none().with_straggler(ExecutorRole::Trainer, 0, 12.0),
        ..Default::default()
    };
    let telemetry = Telemetry::start(
        Arc::clone(&obs),
        TelemetryConfig {
            interval: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let res = run_threaded_obs(graph(), ModelKind::GraphSage, &cfg, &obs).expect("healthy run");
    telemetry.stop();
    assert_eq!(res.batches_trained, res.samples_produced);

    assert!(
        obs.metrics.counter("alerts.straggler") >= 1.0,
        "straggler alert did not fire; alerts: {:?}",
        obs.metrics.alerts()
    );
    // EWMA warm-up noise can fire a transient alert for a healthy
    // trainer first, so look the slowed trainer up by subject instead
    // of assuming its alert leads the list.
    let alerts = obs.metrics.alerts();
    let straggler = alerts
        .iter()
        .find(|a| a.rule == "straggler" && a.subject == "trainer.0")
        .expect("a straggler alert event for the slowed trainer");
    assert!(straggler.value > straggler.threshold);

    // The alert lands in the exported metrics JSON, typed and parseable.
    let doc = obs.metrics_json();
    let text = serde_json::to_string_pretty(&doc).unwrap();
    let back: serde_json::Value = serde_json::from_str(&text).unwrap();
    let alerts_json = back
        .get("metrics")
        .and_then(|m| m.get("alerts"))
        .and_then(|a| a.as_array())
        .expect("metrics.alerts array");
    assert!(alerts_json.iter().any(|a| {
        a.get("rule").and_then(|r| r.as_str()) == Some("straggler")
            && a.get("subject").and_then(|s| s.as_str()) == Some("trainer.0")
    }));
}

/// The exact `q`-quantile of a sorted slice under the nearest-rank rule
/// the streaming histogram targets.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[rank]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The telemetry contract: streaming p50/p99 stay within 10%
    /// relative error of the exact quantiles on arbitrary positive
    /// workloads spanning nine orders of magnitude. (The log-bucket
    /// design bounds the error at (γ-1)/(γ+1) ≈ 2.44%, so 10% leaves
    /// comfortable slack for rank-boundary effects.)
    #[test]
    fn streaming_quantiles_track_exact_quantiles_within_ten_percent(
        values in prop::collection::vec(1e-3f64..1e6, 1..500),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.99] {
            let exact = exact_quantile(&sorted, q);
            let est = h.quantile(q).expect("non-empty");
            let rel = (est - exact).abs() / exact;
            prop_assert!(
                rel <= 0.10,
                "q={} est={} exact={} rel={}", q, est, exact, rel
            );
        }
        // Extremes are exact, not just within tolerance.
        prop_assert_eq!(h.quantile(0.0), Some(sorted[0]));
        prop_assert_eq!(h.quantile(1.0), Some(sorted[sorted.len() - 1]));
    }
}
