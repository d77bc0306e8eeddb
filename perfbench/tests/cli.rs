//! End-to-end checks of the benchmark binary: the result-line contract,
//! determinism across processes, traced/untraced agreement and a seed
//! that has no stored reference. Run with `--release`; debug builds of the
//! simulator are slow.

use omx_sim::json::Json;
use std::process::Command;

/// A seed outside the recorded default range.
const HELD_OUT_SEED: &str = "987654321";

fn run(workload: &str, seed: &str, trace: &str) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_omx-perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", trace])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("result line")).expect("result is JSON");
    let header = Json::parse(lines.next().expect("header line")).expect("header is JSON");
    (header.get("perfbench").expect("header").clone(), result)
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(m)) => m.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("metrics object missing"),
    }
}

#[test]
fn held_out_seed_is_deterministic_across_processes_and_tracing() {
    for workload in ["msgrate", "collectives"] {
        let (h1, r1) = run(workload, HELD_OUT_SEED, "0");
        let (h2, _) = run(workload, HELD_OUT_SEED, "0");
        let (h3, r3) = run(workload, HELD_OUT_SEED, "1");
        assert_eq!(r1.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(
            r3.get("correct"),
            Some(&Json::Bool(true)),
            "{workload} traced"
        );
        assert_eq!(h1.get("reference_checked"), Some(&Json::Bool(false)));
        assert_eq!(
            h1.get("deterministic"),
            h2.get("deterministic"),
            "{workload}"
        );
        assert_eq!(
            h1.get("deterministic"),
            h3.get("deterministic"),
            "{workload}"
        );
        assert!(metric_names(&r1).contains(&"frames_per_s".to_string()));
        assert!(metric_names(&r3).contains(&"omx-sim.events".to_string()));
    }
}

#[test]
fn default_seed_is_checked_against_its_reference() {
    let (header, result) = run("pingpong", "0", "0");
    assert_eq!(header.get("reference_checked"), Some(&Json::Bool(true)));
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
}
