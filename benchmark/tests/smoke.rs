//! Runs the benchmark in smoke mode — all six workloads at ≤12 leechers
//! and a 24 s clip, plus every driver — and checks what it writes against
//! the limits of `BENCHMARK.json`'s contract.

use std::path::{Path, PathBuf};
use std::process::Command;

use splicecast_benchmark::json::Json;
use splicecast_benchmark::traced::refuse_unsupported;
use splicecast_benchmark::workloads::NAMES;
use splicecast_core::{CdnConfig, CdnOutageConfig, FaultPlanConfig, LinkFlapConfig, SwarmConfig};

const BIN: &str = env!("CARGO_BIN_EXE_splicecast-benchmark");

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names_of(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

/// The contract's rule for a name: starts with a letter or digit, at most
/// 64 of `[A-Za-z0-9_.-]`.
fn assert_name_ok(name: &str) {
    assert!(
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
        "bad metric name `{name}`"
    );
}

fn run(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn smoke_run_writes_well_formed_results() {
    let out: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_results.json");
    let stdout = run(&["--smoke", "--out", out.to_str().unwrap()]);
    assert!(stdout.contains("all checks passed"), "{stdout}");

    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("results parse");
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, NAMES);
    for w in workloads {
        let end_to_end = w.get("end_to_end").and_then(Json::as_obj).unwrap();
        let per_layer = w.get("per_layer").and_then(Json::as_obj).unwrap();
        assert!((1..=16).contains(&end_to_end.len()));
        assert!((1..=128).contains(&per_layer.len()));
        for (name, metric) in end_to_end.iter().chain(per_layer) {
            assert_name_ok(name);
            assert!(metric.num("value").is_finite());
            assert!(!metric
                .get("unit")
                .and_then(Json::as_str)
                .unwrap()
                .is_empty());
        }
        for (_, metric) in end_to_end {
            assert!(metric.num("value") > 0.0, "end-to-end metrics are never 0");
        }
        for key in ["check_failures", "traced_check_failures"] {
            assert_eq!(w.get(key).and_then(Json::as_arr).unwrap(), []);
        }
    }
}

#[test]
fn contract_lines_carry_exactly_the_declared_metrics() {
    let contract = contract();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run(&[
            "--smoke",
            "--workload",
            "swarm_gop",
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            trace,
        ]);
        let line = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.num("attempted") >= 1.0);
        let mut reported: Vec<String> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(name, _)| name.clone())
            .collect();
        let mut declared = names_of(contract.get(list).unwrap());
        reported.sort();
        declared.sort();
        assert_eq!(reported, declared, "--trace {trace} against `{list}`");
    }
}

#[test]
fn traced_harness_refuses_what_it_does_not_rebuild() {
    let unsupported = [
        SwarmConfig {
            cdn: Some(CdnConfig::default()),
            ..SwarmConfig::default()
        },
        SwarmConfig {
            cross_traffic: Some(Default::default()),
            ..SwarmConfig::default()
        },
        SwarmConfig {
            faults: Some(FaultPlanConfig {
                link_flaps: Some(LinkFlapConfig {
                    count: 1,
                    duration_secs: 5.0,
                    degraded_bytes_per_sec: 16_000.0,
                    window_secs: 60.0,
                }),
                ..FaultPlanConfig::default()
            }),
            ..SwarmConfig::default()
        },
        SwarmConfig {
            faults: Some(FaultPlanConfig {
                cdn_outages: Some(CdnOutageConfig {
                    count: 1,
                    duration_secs: 5.0,
                    window_secs: 60.0,
                }),
                ..FaultPlanConfig::default()
            }),
            ..SwarmConfig::default()
        },
        SwarmConfig {
            bandwidth_schedule: vec![(10.0, 64_000.0)],
            ..SwarmConfig::default()
        },
    ];
    for config in unsupported {
        let panic = std::panic::catch_unwind(|| refuse_unsupported(&config))
            .expect_err("an unsupported scenario must be refused");
        let message = panic.downcast_ref::<String>().expect("a message");
        assert!(message.contains("does not rebuild"), "{message}");
    }
    refuse_unsupported(&SwarmConfig::default());
}
