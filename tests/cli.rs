//! `sssp-cli run` on bad input — graph files that are malformed or cannot
//! supply the requested roots, unknown option values, zero ranks: each must
//! exit 2 with an error message instead of hanging or panicking.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Write `contents` to a fresh `.gr` file in the temp directory.
fn graph_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sssp-cli-{}-{name}.gr", std::process::id()));
    std::fs::write(&path, contents).expect("write temp graph");
    path
}

/// Run `sssp-cli run [--in <file>] <extra>`, killing it after a deadline,
/// and return its exit code and stderr. The file is removed afterwards.
fn run_cli(file: Option<&Path>, extra: &[&str]) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sssp-cli"));
    cmd.arg("run");
    if let Some(file) = file {
        cmd.arg("--in").arg(file);
    }
    let mut child = cmd
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sssp-cli");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll sssp-cli").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("sssp-cli {extra:?} on {file:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect sssp-cli output");
    if let Some(file) = file {
        std::fs::remove_file(file).ok();
    }
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn too_few_non_isolated_vertices_for_the_roots() {
    let file = graph_file("tiny", "p sp 3 1\na 1 2 5\n");
    let (code, err) = run_cli(Some(&file), &["--roots", "3", "--ranks", "1"]);
    assert_eq!(code, Some(2), "stderr: {err}");
    assert!(err.contains("error"), "stderr: {err}");
}

#[test]
fn edgeless_graph_has_no_root() {
    let file = graph_file("edgeless", "p sp 3 0\n");
    let (code, err) = run_cli(Some(&file), &[]);
    assert_eq!(code, Some(2), "stderr: {err}");
    assert!(err.contains("error"), "stderr: {err}");
}

#[test]
fn empty_graph_has_no_root() {
    let file = graph_file("empty", "p sp 0 0\n");
    let (code, err) = run_cli(Some(&file), &[]);
    assert_eq!(code, Some(2), "stderr: {err}");
    assert!(err.contains("error"), "stderr: {err}");
}

#[test]
fn enough_roots_still_run() {
    let file = graph_file("ok", "p sp 3 2\na 1 2 5\na 2 3 1\n");
    let (code, err) = run_cli(Some(&file), &["--roots", "3", "--ranks", "2"]);
    assert_eq!(code, Some(0), "stderr: {err}");
}

#[test]
fn bad_input_exits_2_with_an_error_line() {
    let ok = "p sp 3 2\na 1 2 5\na 2 3 1\n";
    for (name, graph, extra) in [
        ("malformed", Some("p sp 2 1\na 1 5 9\n"), &[][..]),
        ("huge", Some("p sp 4294967297 1\na 4294967297 1 5\n"), &[]),
        ("algo", Some(ok), &["--algo", "nope"]),
        ("policy", Some(ok), &["--policy", "nope"]),
        ("family", None, &["--family", "nope", "--scale", "4"]),
        ("ranks", None, &["--ranks", "0", "--scale", "4"]),
    ] {
        let file = graph.map(|g| graph_file(name, g));
        let (code, err) = run_cli(file.as_deref(), extra);
        assert_eq!(code, Some(2), "{name}: stderr: {err}");
        assert!(err.contains("error: "), "{name}: stderr: {err}");
        assert!(!err.contains("panicked"), "{name}: stderr: {err}");
    }
}
