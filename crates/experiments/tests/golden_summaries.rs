//! Golden run summaries: the hot-path optimizations (event-slot
//! layout, instance free lists, memoized analytics) must never change
//! what a run computes. These goldens were captured before the
//! optimization work and every run summary — on both FEL backends —
//! must stay **bit-identical** to them (`Debug` formatting of `f64`
//! uses the shortest round-trip representation, so string equality is
//! bit equality).
//!
//! To regenerate after an *intentional* semantic change:
//! `UPDATE_GOLDENS=1 cargo test -p vmprov-experiments --test golden_summaries`

use std::path::PathBuf;
use vmprov_des::{FelBackend, SimTime};
use vmprov_experiments::runner::run_once;
use vmprov_experiments::scenario::{PolicySpec, Scenario};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.txt"))
}

/// Runs `scenario` on both FEL backends, asserts they agree, and
/// checks the summary against the committed golden (or rewrites it
/// when `UPDATE_GOLDENS` is set).
fn check_golden(scenario: Scenario, name: &str) {
    let calendar = run_once(&scenario.clone().with_fel_backend(FelBackend::Calendar), 0);
    let heap = run_once(
        &scenario.clone().with_fel_backend(FelBackend::BinaryHeap),
        0,
    );
    assert_eq!(calendar, heap, "{name}: FEL backends diverged");
    assert!(calendar.offered_requests > 0, "{name}: empty run");

    let rendered = format!("{calendar:#?}\n");
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: missing golden {}: {e}", path.display()));
    assert_eq!(
        rendered, golden,
        "{name}: run summary drifted from the committed golden \
         (if the change is intentional, regenerate with UPDATE_GOLDENS=1)"
    );
}

#[test]
fn golden_web_static() {
    check_golden(
        Scenario::web(PolicySpec::Static(60), 1109).with_horizon(SimTime::from_secs(1800.0)),
        "web_static60",
    );
}

#[test]
fn golden_web_adaptive() {
    check_golden(
        Scenario::web(PolicySpec::Adaptive, 1109).with_horizon(SimTime::from_secs(1800.0)),
        "web_adaptive",
    );
}

#[test]
fn golden_scientific_adaptive() {
    // Ten hours covers the 8am peak onset, so the adaptive policy
    // actually scales (and shrinks) during the run.
    check_golden(
        Scenario::scientific(PolicySpec::Adaptive, 2011).with_horizon(SimTime::from_hours(10.0)),
        "scientific_adaptive",
    );
}

#[test]
fn golden_web_adaptive_mm1k() {
    // The paper-verbatim M/M/1/k backend exercises the memoized
    // recurrence path of the modeler.
    let mut s = Scenario::web(PolicySpec::Adaptive, 1109).with_horizon(SimTime::from_secs(1800.0));
    s.backend = vmprov_core::AnalyticBackend::Mm1k;
    check_golden(s, "web_adaptive_mm1k");
}

// The batched arrival path (`arrival_run` > 1) prefetches whole
// inter-arrival bursts through the batch seam. On continuous-time
// workloads it is bit-identical to the scalar cadence (ties between
// arrivals and control ticks have probability zero), so the web run is
// pinned *against the scalar scenario itself*; the scientific workload
// places off-peak jobs exactly on 30-minute boundaries where arrivals
// tie the analyzer/monitor ticks, so its batched run is a different —
// equally deterministic — interleaving and gets its own golden.

#[test]
fn golden_web_adaptive_batched_matches_scalar() {
    let scalar = Scenario::web(PolicySpec::Adaptive, 1109).with_horizon(SimTime::from_secs(1800.0));
    for backend in [FelBackend::Calendar, FelBackend::BinaryHeap] {
        let s = scalar.clone().with_fel_backend(backend);
        assert_eq!(
            run_once(&s, 0),
            run_once(&s.clone().with_arrival_run(64), 0),
            "{backend:?}: batched web run diverged from the scalar path"
        );
    }
}

#[test]
fn golden_scientific_adaptive_batched() {
    check_golden(
        Scenario::scientific(PolicySpec::Adaptive, 2011)
            .with_horizon(SimTime::from_hours(10.0))
            .with_arrival_run(64),
        "scientific_adaptive_batched",
    );
}
