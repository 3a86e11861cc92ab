//! Smoke mode: a tiny stream on every workload, untraced and traced.
//! Each run must pass its answer checks, fail no operation, and name in
//! its result line every metric `BENCHMARK.json` declares.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds `indord-serve` (release) into this test's target directory.
fn server(target: &Path) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let status = Command::new(env!("CARGO"))
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", target)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "indord-server", "--bin", "indord-serve"])
        .status()
        .expect("run cargo");
    assert!(status.success(), "building indord-serve failed");
    target.join("release").join("indord-serve")
}

/// `(workloads, end_to_end, per_layer)` names of `BENCHMARK.json`.
fn declared() -> [Vec<String>; 3] {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let mut out: [Vec<String>; 3] = Default::default();
    let mut section = None;
    for line in text.lines() {
        for (i, key) in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""]
            .iter()
            .enumerate()
        {
            if line.contains(key) {
                section = Some(i);
            }
        }
        if let (Some(i), Some(rest)) = (section, line.split("\"name\": \"").nth(1)) {
            out[i].push(rest.split('"').next().expect("closing quote").to_string());
        }
    }
    out
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let bench = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    let target = bench
        .parent()
        .and_then(Path::parent)
        .expect("target directory");
    let server = server(target);
    let work = target.join("perfbench-smoke");
    let [workloads, end_to_end, per_layer] = declared();
    assert_eq!(workloads.len(), 3);
    for workload in &workloads {
        for (trace, names) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = Command::new(bench)
                .arg("--server")
                .arg(&server)
                .arg("--work-dir")
                .arg(&work)
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
                "{workload} trace {trace}: {stdout}"
            );
            for name in names {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} trace {trace}: no `{name}` in {last}"
                );
            }
            assert_eq!(
                last.matches("\"value\"").count(),
                names.len(),
                "{workload} trace {trace}: extra metrics in {last}"
            );
        }
    }
}
