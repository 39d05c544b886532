//! The `gnnlab` binary end to end: `gnnlab threaded` watches its own run,
//! so an injected straggler raises its alert and the gauges it samples
//! land as series in `--metrics-out`.

use std::process::Command;

#[test]
fn threaded_command_watches_its_run_into_the_metrics_json() {
    let out_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-threaded-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_gnnlab"))
        .args(["threaded", "--trainers", "3", "--straggler", "trainer:0:12"])
        .arg("--metrics-out")
        .arg(&out_path)
        .output()
        .expect("run gnnlab threaded");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&out_path).expect("--metrics-out written");
    std::fs::remove_file(&out_path).ok();
    let doc = serde_json::from_str(&text).expect("metrics JSON parses");
    let metrics = doc.get("metrics").expect("metrics section");
    let fired = metrics
        .get("counters")
        .and_then(|c| c.get("alerts.straggler"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    assert!(fired >= 1.0, "no straggler alert; stdout:\n{stdout}");
    let events = metrics
        .get("alerts")
        .and_then(|a| a.as_array())
        .expect("alerts array");
    assert!(
        events.iter().any(|a| {
            a.get("rule").and_then(|r| r.as_str()) == Some("straggler")
                && a.get("subject").and_then(|s| s.as_str()) == Some("trainer.0")
        }),
        "no straggler event for trainer.0 in {events:?}"
    );
    let depth = metrics
        .get("series")
        .and_then(|s| s.get("queue.depth"))
        .and_then(|d| d.as_array())
        .map_or(0, |points| points.len());
    assert!(depth > 0, "no queue.depth series in --metrics-out");
}
