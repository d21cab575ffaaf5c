//! Runs every workload at its smoke size, untraced and traced, with every
//! output check on, and checks that the reported metrics are exactly the
//! ones `BENCHMARK.json` declares.

use std::path::{Path, PathBuf};
use std::process::Command;
use svcbench::bench::{self, Options};
use svcbench::spec::{Size, Workload, NAMES};

/// This test's working directory inside the benchmark's target directory.
fn test_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_svcbench"))
        .parent()
        .and_then(Path::parent)
        .expect("the benchmark binary sits in <target>/<profile>")
        .join(name)
}

/// Builds the real `sft` binary from the repository's own workspace, in
/// a target directory of its own beside this test's.
fn build_sft() -> PathBuf {
    let target = test_dir("sft-build");
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "sft-cli",
            "--manifest-path",
        ])
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building sft failed");
    target.join("release").join("sft")
}

/// The `name` values of one section of `BENCHMARK.json`.
fn declared(section: &str, next: Option<&str>) -> Vec<String> {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = next.map_or(text.len(), |n| {
        text.find(&format!("\"{n}\"")).expect("section present")
    });
    text[start..end]
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    let sft = build_sft();
    let out_dir = test_dir("smoke-out");
    assert_eq!(declared("workloads", Some("end_to_end")), NAMES);
    let end_to_end = declared("end_to_end", Some("per_layer"));
    let per_layer = declared("per_layer", None);
    for name in NAMES {
        for trace in [false, true] {
            let opts = Options {
                sft: sft.clone(),
                workload: Workload::by_name(name, Size::Smoke).expect("listed"),
                seed: 3,
                seconds: 0.0,
                trace,
                size: Size::Smoke,
                out_dir: out_dir.clone(),
            };
            let out = bench::run(&opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.correct, "{name} trace={trace}: {:?}", out.errors);
            assert_eq!(out.failed, 0, "{name} trace={trace}");
            assert!(out.attempted > 0);
            let names: Vec<&str> = out.metrics.entries.iter().map(|e| e.0.as_str()).collect();
            let want = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&names, want, "{name} trace={trace}");
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}
