//! `sssp-cli run` on graph files that cannot supply the requested roots:
//! each must exit 2 with an error message instead of hanging or panicking.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Write `contents` to a fresh `.gr` file in the temp directory.
fn graph_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sssp-cli-{}-{name}.gr", std::process::id()));
    std::fs::write(&path, contents).expect("write temp graph");
    path
}

/// Run `sssp-cli run --in <file> <extra>`, killing it after a deadline,
/// and return its exit code and stderr.
fn run_cli(file: &PathBuf, extra: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sssp-cli"))
        .arg("run")
        .arg("--in")
        .arg(file)
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
            panic!("sssp-cli {extra:?} on {} did not exit", file.display());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect sssp-cli output");
    std::fs::remove_file(file).ok();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn too_few_non_isolated_vertices_for_the_roots() {
    let file = graph_file("tiny", "p sp 3 1\na 1 2 5\n");
    let (code, err) = run_cli(&file, &["--roots", "3", "--ranks", "1"]);
    assert_eq!(code, Some(2), "stderr: {err}");
    assert!(err.contains("error"), "stderr: {err}");
}

#[test]
fn edgeless_graph_has_no_root() {
    let file = graph_file("edgeless", "p sp 3 0\n");
    let (code, err) = run_cli(&file, &[]);
    assert_eq!(code, Some(2), "stderr: {err}");
    assert!(err.contains("error"), "stderr: {err}");
}

#[test]
fn empty_graph_has_no_root() {
    let file = graph_file("empty", "p sp 0 0\n");
    let (code, err) = run_cli(&file, &[]);
    assert_eq!(code, Some(2), "stderr: {err}");
    assert!(err.contains("error"), "stderr: {err}");
}

#[test]
fn enough_roots_still_run() {
    let file = graph_file("ok", "p sp 3 2\na 1 2 5\na 2 3 1\n");
    let (code, err) = run_cli(&file, &["--roots", "3", "--ranks", "2"]);
    assert_eq!(code, Some(0), "stderr: {err}");
}
