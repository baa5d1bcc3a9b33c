//! Small-n smoke runs of every workload through the real command line:
//! every metric `BENCHMARK.json` names is printed with its unit, no
//! operation fails, the simulated metrics repeat exactly for one seed,
//! and another seed changes the inputs.

use dobs::json::{self, Value};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["generic-gnp", "ii-verify", "oracle-geo", "ii-faults"];

/// Metrics that are functions of the seed alone.
const DETERMINISTIC: [&str; 4] = ["approx_ratio", "retained_ratio", "sim_rounds", "sim_bits"];
const DETERMINISTIC_LAYERS: [&str; 12] = [
    "simnet.rounds",
    "simnet.node_steps",
    "simnet.messages",
    "simnet.bits",
    "simnet.max_msg_bits",
    "simnet.peak_inbox",
    "simnet.dropped",
    "simnet.rounds_inflation",
    "oracle.probed_per_query",
    "oracle.balls_per_miss",
    "oracle.memo_hit_ratio",
    "oracle.ball_radius_p50",
];

struct Run {
    result: Value,
    digest: String,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("metric {name} missing"))
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .expect("a digest line")
        .to_string();
    Run {
        result: json::parse(last).expect("last line is JSON"),
        digest,
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn assert_reports(run: &Run, declared: &[(String, String)], what: &str) {
    let r = &run.result;
    assert_eq!(
        r.get("correct").and_then(Value::as_bool),
        Some(true),
        "{what}"
    );
    assert_eq!(
        r.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{what}: fail_ratio is 0"
    );
    assert!(
        r.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0,
        "{what}"
    );
    let metrics = r
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{what}: exactly the declared metrics"
    );
    for (name, unit) in declared {
        let m = r.get("metrics").and_then(|m| m.get(name));
        let m = m.unwrap_or_else(|| panic!("{what}: {name} not printed"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        assert!(
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{what}: {name}"
        );
    }
}

#[test]
fn every_workload_reports_every_metric_and_repeats_exactly() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for w in WORKLOADS {
        let a = run(w, 7, false);
        let b = run(w, 7, false);
        let other = run(w, 8, false);
        let traced = run(w, 7, true);
        assert_reports(&a, &e2e, w);
        assert_reports(&traced, &layers, w);
        for name in DETERMINISTIC {
            assert_eq!(a.metric(name), b.metric(name), "{w}: {name} repeats");
            assert!(a.metric(name) > 0.0, "{w}: {name} is never 0");
        }
        assert_eq!(a.digest, b.digest, "{w}: simulated results repeat");
        assert_eq!(
            a.digest, traced.digest,
            "{w}: tracing does not change results"
        );
        assert_ne!(a.digest, other.digest, "{w}: another seed, other inputs");
        let again = run(w, 7, true);
        for name in DETERMINISTIC_LAYERS {
            assert_eq!(
                traced.metric(name),
                again.metric(name),
                "{w}: {name} repeats"
            );
        }
        assert!(
            traced.metric("trace.coverage") >= 0.95,
            "{w}: spans cover the run"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        "--workload nonesuch --seed 1 --seconds 0 --trace 0",
        "--workload ii-verify --seed x --seconds 0 --trace 0",
        "--workload ii-verify --seed 1 --seconds 0 --trace 2",
        "--workload ii-verify",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split(' '))
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("\"correct\""), "{args}");
    }
}
