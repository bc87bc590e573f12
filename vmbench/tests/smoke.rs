//! Smoke-size runs of every workload through the benchmark binary: each
//! run is its own process, exactly as the benchmark is invoked.

use std::path::{Path, PathBuf};
use std::process::Command;

use vmprov_json::Json;

const WORKLOADS: [&str; 3] = ["web_fig5", "sci_fig6_reps", "trace_grid"];

fn work_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the test work directory");
    dir
}

fn vmbench(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vmbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run the benchmark binary")
}

/// One smoke-size run; returns the parsed result line.
fn run(workload: &str, trace: bool, seed: u64) -> Json {
    let dir = work_dir(&format!("{workload}-{}-{seed}", u8::from(trace)));
    let seed = seed.to_string();
    let trace = if trace { "1" } else { "0" };
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--scale",
        "smoke",
    ];
    let out = vmbench(&dir, &args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "vmbench {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout
        .lines()
        .last()
        .expect("the benchmark prints a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "output checks failed for {args:?}:\n{stdout}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
    result
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(section)
        .and_then(Json::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn assert_metrics(result: &Json, section: &str) {
    let Some(Json::Obj(printed)) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    let printed: Vec<(String, String)> = printed
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("every metric has a unit");
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(printed, declared(section));
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let mut traced = Vec::new();
    for workload in WORKLOADS {
        assert_metrics(&run(workload, false, 1), "end_to_end");
        let result = run(workload, true, 1);
        assert_metrics(&result, "per_layer");
        traced.push(result);
    }
    let [web, sci, grid] = &traced[..] else {
        unreachable!()
    };
    // The workloads' roles: only the grid ingests a trace, and the
    // replicated Fig 6 jobs decide far more often per request.
    assert_eq!(metric(web, "workloads.dataset.bytes"), 0.0);
    assert_eq!(metric(sci, "workloads.dataset.bytes"), 0.0);
    assert!(metric(grid, "workloads.dataset.bytes") > 0.0);
    assert!(
        metric(sci, "core.modeler.decisions_per_mreq")
            >= 100.0 * metric(web, "core.modeler.decisions_per_mreq")
    );
}

#[test]
fn counts_repeat_exactly_at_one_seed() {
    let is_count = |name: &str| {
        [".events", ".decisions", ".stores", ".batches_decoded"]
            .iter()
            .any(|s| name.ends_with(s))
            || name.starts_with("cloudsim.vm.")
    };
    for workload in WORKLOADS {
        let (a, b) = (run(workload, true, 5), run(workload, true, 5));
        for (name, _) in declared("per_layer").iter().filter(|(n, _)| is_count(n)) {
            assert_eq!(
                metric(&a, name),
                metric(&b, name),
                "{workload}: {name} differs"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let dir = work_dir("bad-args");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "web_fig5", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "web_fig5",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "web_fig5",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = vmbench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
