//! The benchmark's self-test: every workload's code path at a few hundred
//! users and a handful of requests, untraced and traced. Each run must
//! pass its checks and emit every metric of its table with the table's
//! unit, the tables must match `BENCHMARK.json`, and a deliberately
//! corrupted mapping must be counted as a failed operation.

use std::path::PathBuf;

use dehealth_service::Json;
use perfbench::{run, Params, Scale, Workload, END_TO_END, PER_LAYER};

fn small(workload: Workload, trace: bool, corrupt: bool) -> Params {
    let scale = match workload {
        Workload::Closed10k => Scale { users: 300, setups: 2, attacks: 2, traced_attacks: 1 },
        Workload::OpenHb2k => Scale { users: 200, setups: 1, attacks: 2, traced_attacks: 1 },
        // One ingest after the fifth attack, one attack after it.
        Workload::ServeJson5k => Scale { users: 300, setups: 2, attacks: 6, traced_attacks: 6 },
    };
    Params {
        workload,
        seed: 7,
        scale,
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        corrupt,
    }
}

#[test]
fn every_workload_passes_its_checks_and_emits_its_table() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&small(workload, trace, false)).expect("run completes");
            let name = workload.name();
            assert!(out.correct, "{name} trace={trace}: {:?}", out.problems);
            assert_eq!(out.failed, 0);
            assert!(out.attempted >= 3, "{name}: {} operations", out.attempted);
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let got: Vec<(&str, &str)> =
                out.metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
            assert_eq!(got, table, "{name} trace={trace}");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
                if !trace || m.unit != "s" || m.name == "trace.overhead_s" {
                    continue;
                }
                assert!(m.value >= 0.0, "{name}: {} = {}", m.name, m.value);
            }
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{name}: end-to-end {} = {}", m.name, m.value);
                }
            }
        }
    }
}

#[test]
fn a_corrupted_mapping_is_a_failed_operation() {
    for workload in Workload::ALL {
        let out = run(&small(workload, false, true)).expect("run completes");
        assert!(!out.correct, "{}: corruption went unnoticed", workload.name());
        assert!(out.failed >= 1 && out.failed <= out.attempted);
        assert!(!out.problems.is_empty());
    }
}

#[test]
fn the_tables_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}
