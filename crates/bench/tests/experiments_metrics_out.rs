//! The `experiments` binary end to end: `--exp fault_recovery
//! --metrics-out PATH` writes a metrics dump that parses and carries the
//! queue-depth gauge and per-stage latency histograms with their p99.

use std::process::Command;

#[test]
fn fault_recovery_metrics_out_carries_depth_and_stage_p99() {
    let out_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("experiments-metrics-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .env("GNNLAB_SCALE", "8192")
        .args(["--exp", "fault_recovery", "--metrics-out"])
        .arg(&out_path)
        .output()
        .expect("run experiments");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&out_path).expect("--metrics-out written");
    std::fs::remove_file(&out_path).ok();
    let doc = serde_json::from_str(&text).expect("metrics JSON parses");
    let metrics = doc.get("metrics").expect("metrics section");
    assert!(
        metrics
            .get("gauges")
            .and_then(|g| g.get("queue.depth"))
            .is_some(),
        "no queue.depth gauge in:\n{text}"
    );
    let histograms = metrics
        .get("histograms")
        .and_then(|h| h.as_object())
        .expect("histograms section");
    let stage_p99s: Vec<f64> = histograms
        .iter()
        .filter(|(name, _)| name.starts_with("stage."))
        .filter_map(|(_, h)| h.get("p99").and_then(|v| v.as_f64()))
        .collect();
    assert!(
        stage_p99s.iter().any(|&p99| p99 > 0.0),
        "no stage.* histogram with a p99 in:\n{text}"
    );
}
