//! Every workload at toy size, through the library and through the binary.

use ecl_core::suite::{Algorithm, Variant};
use perfbench::harness::{end_to_end_names, per_layer_names, run, Options, Report};
use perfbench::trace::Tracer;
use perfbench::workloads::race_verify::RaceVerify;
use perfbench::workloads::{Env, Size, Workload, NAMES};
use std::path::PathBuf;
use std::process::Command;

fn env(tag: &str) -> Env {
    Env {
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}")),
        worker_exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    }
}

/// Each test passes its own `test` tag: tests run on parallel threads of one
/// process, so two of them must never share a scratch directory.
fn toy_run(test: &str, workload: &str, trace: bool) -> Report {
    let opts = Options {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.1,
        trace,
        size: Size::Toy,
        env: env(&format!("{test}-{workload}-{trace}")),
    };
    run(&opts).expect("known workload")
}

fn names_and_units(r: &Report) -> Vec<(String, &'static str)> {
    r.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect()
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for workload in NAMES {
        for trace in [false, true] {
            let r = toy_run("every", workload, trace);
            assert!(
                r.correct && r.failed == 0 && r.attempted > 0,
                "{workload} trace={trace}: {:?}",
                r.lines
            );
            let expected = if trace {
                per_layer_names()
            } else {
                end_to_end_names()
            };
            assert_eq!(names_and_units(&r), expected, "{workload} trace={trace}");
            assert!(r.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(
                    r.metrics.iter().all(|m| m.value > 0.0),
                    "{workload}: {:?}",
                    r.metrics
                );
            }
            assert_eq!(r.spans.is_some(), trace);
        }
    }
}

#[test]
fn traced_run_attributes_time_to_the_workload_layers() {
    let value = |r: &Report, name: &str| {
        r.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or_else(|| panic!("no metric {name}"))
    };
    let sim = toy_run("layers", "sim-sweep", true);
    assert!(value(&sim, "simt.run_s") > 0.0);
    assert!(value(&sim, "simt.accesses") > 0.0);
    assert!(value(&sim, "paper_logerr") > 0.0);
    assert_eq!(value(&sim, "native.run_s.cc.baseline"), 0.0);
    assert_eq!(value(&sim, "simt.trace_events"), 0.0);

    let race = toy_run("layers", "race-verify", true);
    assert!(value(&race, "racecheck.detect_s") > 0.0);
    assert!(value(&race, "racecheck.findings.baseline") > 0.0);
    assert_eq!(value(&race, "racecheck.findings.racefree"), 0.0);
    assert_eq!(value(&race, "simt.trace_truncated"), 0.0);

    let native = toy_run("layers", "native-large", true);
    assert!(value(&native, "native.run_s.gc.racefree") > 0.0);
    assert_eq!(value(&native, "simt.run_s"), 0.0);

    let isolated = toy_run("layers", "isolated-sweep", true);
    assert!(value(&isolated, "bench.worker_s") > 0.0);
    assert_eq!(
        value(&isolated, "bench.cells"),
        value(&isolated, "bench.attempts")
    );
    assert_eq!(value(&isolated, "bench.cells_failed"), 0.0);
}

#[test]
fn a_wrong_race_verdict_is_a_failed_operation() {
    let mut w =
        RaceVerify::new(3, Size::Toy).with_flipped_expectation(Algorithm::Cc, Variant::Baseline);
    let mut t = Tracer::new(false);
    w.setup(&mut t);
    let pass = w.pass(&mut t);
    assert_eq!(pass.checks.failed, 1, "{:?}", pass.checks.notes);
    assert!(
        pass.checks.notes[0].contains("CC/baseline"),
        "{:?}",
        pass.checks.notes
    );

    let mut w =
        RaceVerify::new(3, Size::Toy).with_flipped_expectation(Algorithm::Apsp, Variant::RaceFree);
    w.setup(&mut t);
    assert_eq!(w.pass(&mut t).checks.failed, 1);
}

#[test]
fn binary_prints_the_result_as_its_last_line() {
    let scratch = env("cli").scratch;
    std::fs::create_dir_all(&scratch).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "sim-sweep", "--seed", "5", "--seconds", "0.1"])
        .args(["--trace", "0", "--toy"])
        .current_dir(&scratch)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for (name, unit) in end_to_end_names() {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{last}"
        );
        assert!(last.contains(&format!("\"unit\": \"{unit}\"")), "{last}");
    }

    let bad = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .current_dir(&scratch)
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc = ecl_bench::Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let ours = |v: Vec<(String, &'static str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), ours(end_to_end_names()));
    assert_eq!(listed("per_layer"), ours(per_layer_names()));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(workloads, NAMES);
}
