//! What the host tells us about itself: the fingerprint recorded beside
//! every set of numbers, and this process's CPU time and peak memory.

use crate::report::obj;
use serde_json::Value;
use std::process::Command;

/// Clock ticks per second of `/proc/<pid>/stat`'s `utime`/`stime`. Linux
/// reports them in `USER_HZ`, which is 100 on every supported
/// architecture; reading it properly needs `sysconf`, i.e. libc.
const TICKS_PER_SEC: f64 = 100.0;

/// A load average above this marks the run as taken on a noisy host.
const NOISY_LOAD: f64 = 0.5;

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// User + system CPU seconds this process (all its threads, ended ones
/// included) has used so far. 0 where `/proc` is not available.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_SEC
}

/// Resets the kernel's peak-resident-set watermark of this process to its
/// current resident set (`echo 5 > /proc/self/clear_refs`, Linux 4.0+), so
/// the next [`peak_rss_mb`] reads the peak since this call. Where the
/// kernel refuses, the watermark simply keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) of this process in MiB, since process
/// start or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn load_average_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or "unknown" when the
/// command is missing or fails (a checkout that is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fingerprint stored with every report.
pub fn fingerprint() -> Value {
    let load = load_average_1m();
    obj(vec![
        (
            "git_sha",
            Value::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Value::U64(nproc() as u64)),
        ("cpu_model", Value::Str(cpu_model())),
        ("rustc", Value::Str(first_line_of("rustc", &["--version"]))),
        ("load_average_1m", Value::F64(load)),
        ("noisy_host", Value::Bool(load > NOISY_LOAD)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_and_peak_memory_are_readable_and_grow() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() >= before + 0.03, "60 ms of spinning shows");
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn fingerprint_has_every_field() {
        let f = fingerprint();
        for key in [
            "git_sha",
            "nproc",
            "cpu_model",
            "rustc",
            "load_average_1m",
            "noisy_host",
        ] {
            assert!(f.get(key).is_some(), "{key}");
        }
        assert!(f.get("nproc").and_then(Value::as_u64).unwrap() >= 1);
    }
}
