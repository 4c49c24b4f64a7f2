//! `trace_diff` on files that are not run traces: it must exit 2 with a
//! message naming the file, never panic.

use std::path::PathBuf;
use std::process::Command;

/// Write `text` to a fresh file under the system temp dir.
fn temp_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("trace_diff_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, text).expect("write temp file");
    path
}

fn trace_diff(a: &PathBuf, b: &PathBuf) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .arg(a)
        .arg(b)
        .output()
        .expect("run trace_diff");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_trace_files_exit_2() {
    let good = temp_file(
        "good.json",
        r#"{"trace": "sssp-run-trace", "backend": "simulated", "ranks": 1,
            "supersteps": 0, "local_msgs": 0, "remote_msgs": 0, "remote_bytes": 0,
            "coalesced_msgs": 0, "max_step_send_bytes": 0, "max_step_recv_bytes": 0,
            "hybrid_switch_at": null, "phases": [], "buckets": [], "tail": null}"#,
    );
    let (code, _) = trace_diff(&good, &good);
    assert_eq!(code, Some(0), "a valid trace diffs clean against itself");

    let deep = "[".repeat(100_000);
    for (name, text) in [
        (
            "truncated.json",
            r#"{"trace": "sssp-run-trace", "phases": ["#,
        ),
        ("deep.json", deep.as_str()),
        (
            "overflow.json",
            r#"{"trace": "sssp-run-trace", "ranks": 18446744073709551616}"#,
        ),
        ("other.json", r#"{"bench": "perf_baseline"}"#),
    ] {
        let bad = temp_file(name, text);
        let (code, stderr) = trace_diff(&bad, &good);
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(stderr.contains("is not a run trace"), "{name}: {stderr}");
        let _ = std::fs::remove_file(bad);
    }
    let _ = std::fs::remove_file(good);
}
