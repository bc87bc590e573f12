//! Integration tests of the content-addressed run cache: a cache hit
//! must be bit-identical to the simulation it stands in for, *every*
//! result-influencing scenario field (and the replication index) must
//! perturb the key, and rot on disk must degrade to recomputation,
//! never to an error. The log is shared: other handles' stores become
//! visible, concurrent stores append whole records, and a cache that
//! cannot be written only costs recomputation.

use vmprov_check::{cases, Gen};
use vmprov_core::AnalyticBackend;
use vmprov_des::{FelBackend, SimTime};
use vmprov_experiments::runner::run_once;
use vmprov_experiments::scenario::{
    AnalyzerSpec, DispatchSpec, PolicySpec, Scenario, WorkloadKind,
};
use vmprov_experiments::{run_key, Campaign, Lookup, RunCache};

/// Offset of the first record's payload: `<key:016x> <sum:016x> `.
const PAYLOAD_START: usize = 34;

fn tmp_cache(tag: &str) -> RunCache {
    let dir = std::env::temp_dir().join(format!(
        "vmprov_run_cache_test_{}_{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    RunCache::open(dir).expect("cache dir")
}

#[test]
fn cache_hits_are_bit_identical_on_real_scenarios() {
    let cache = tmp_cache("identity");
    let mut mm1k =
        Scenario::web(PolicySpec::Adaptive, 1109).with_horizon(SimTime::from_secs(600.0));
    mm1k.backend = AnalyticBackend::Mm1k;
    let scenarios = [
        (
            "web_static",
            Scenario::web(PolicySpec::Static(60), 1109).with_horizon(SimTime::from_secs(600.0)),
        ),
        ("web_adaptive_mm1k", mm1k),
        (
            "sci_adaptive",
            Scenario::scientific(PolicySpec::Adaptive, 2011).with_horizon(SimTime::from_hours(2.0)),
        ),
    ];
    for (name, scenario) in scenarios {
        let fresh = run_once(&scenario, 0);
        let key = run_key(&scenario, 0);
        cache.store(key, &fresh).expect("store");
        match cache.lookup(key) {
            // Full PartialEq on RunSummary is field-wise f64 equality, so
            // this pins the JSON round trip to the bit.
            Lookup::Hit(cached) => assert_eq!(*cached, fresh, "{name}: hit diverged"),
            other => panic!("{name}: expected hit, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// A scenario drawn uniformly from the whole configuration space.
fn random_scenario(g: &mut Gen) -> Scenario {
    let policy = if g.chance(0.5) {
        PolicySpec::Adaptive
    } else {
        PolicySpec::Static(g.u32_in(1..200))
    };
    let mut s = if g.chance(0.5) {
        Scenario::web(policy, g.u64())
    } else {
        Scenario::scientific(policy, g.u64())
    };
    s.dispatch = match g.u32_in(0..3) {
        0 => DispatchSpec::RoundRobin,
        1 => DispatchSpec::LeastOutstanding,
        _ => DispatchSpec::Random,
    };
    s.backend = if g.chance(0.5) {
        AnalyticBackend::Mm1k
    } else {
        AnalyticBackend::TwoMoment
    };
    s.horizon = SimTime::from_secs(g.f64_in(60.0..1_000_000.0));
    s.boot_delay = g.f64_in(0.0..300.0);
    s.fel_backend = if g.chance(0.5) {
        FelBackend::Calendar
    } else {
        FelBackend::BinaryHeap
    };
    s.analyzer = match g.u32_in(0..3) {
        0 => AnalyzerSpec::Oracle,
        1 => AnalyzerSpec::SlidingMle {
            window_secs: g.f64_in(60.0..7200.0),
        },
        _ => AnalyzerSpec::Ewma {
            alpha: g.f64_in(0.01..1.0),
        },
    };
    s
}

#[test]
fn any_field_perturbation_changes_the_key() {
    cases(300, |g| {
        let s = random_scenario(g);
        let rep = g.u32_in(0..10);
        let key = run_key(&s, rep);
        assert_eq!(key, run_key(&s.clone(), rep), "key must be stable");
        assert_ne!(key, run_key(&s, rep + 1), "rep must perturb the key");

        let mut p = s.clone();
        let field = match g.u32_in(0..10) {
            0 => {
                p.seed = p.seed.wrapping_add(1 + g.u64() % 1_000);
                "seed"
            }
            1 => {
                p.horizon = SimTime::from_secs(p.horizon.as_secs() + 1.0);
                "horizon"
            }
            2 => {
                p.boot_delay += 0.5;
                "boot_delay"
            }
            3 => {
                p.policy = match p.policy {
                    PolicySpec::Adaptive => PolicySpec::Static(50),
                    PolicySpec::Static(m) => PolicySpec::Static(m + 1),
                };
                "policy"
            }
            4 => {
                p.workload = match p.workload {
                    WorkloadKind::Web => WorkloadKind::Scientific,
                    WorkloadKind::Scientific => WorkloadKind::Web,
                    // random_scenario never builds a Trace scenario (it
                    // would need a real file on disk); trace-content
                    // keying is pinned in tests/trace_replay.rs.
                    WorkloadKind::Trace => unreachable!("not generated here"),
                };
                "workload"
            }
            5 => {
                p.dispatch = match p.dispatch {
                    DispatchSpec::RoundRobin => DispatchSpec::LeastOutstanding,
                    DispatchSpec::LeastOutstanding => DispatchSpec::Random,
                    DispatchSpec::Random => DispatchSpec::RoundRobin,
                };
                "dispatch"
            }
            6 => {
                p.backend = match p.backend {
                    AnalyticBackend::Mm1k => AnalyticBackend::TwoMoment,
                    AnalyticBackend::TwoMoment => AnalyticBackend::Mm1k,
                };
                "backend"
            }
            7 => {
                p.fel_backend = match p.fel_backend {
                    FelBackend::Calendar => FelBackend::BinaryHeap,
                    FelBackend::BinaryHeap => FelBackend::Calendar,
                };
                "fel_backend"
            }
            8 => {
                p.arrival_run += 1;
                "arrival_run"
            }
            _ => {
                p.analyzer = match p.analyzer {
                    AnalyzerSpec::Oracle => AnalyzerSpec::Ewma { alpha: 0.3 },
                    AnalyzerSpec::SlidingMle { window_secs } => AnalyzerSpec::SlidingMle {
                        window_secs: window_secs + 1.0,
                    },
                    AnalyzerSpec::Ewma { alpha } => AnalyzerSpec::Ewma {
                        alpha: (alpha / 2.0).max(0.005),
                    },
                };
                "analyzer"
            }
        };
        assert_ne!(
            run_key(&p, rep),
            key,
            "perturbing `{field}` did not change the cache key — a stale \
             entry would alias a different experiment"
        );
    });
}

#[test]
fn corrupt_entry_recomputes_instead_of_failing() {
    let cache = tmp_cache("campaign_corrupt");
    let scenarios = vec![
        Scenario::web(PolicySpec::Static(8), 42).with_horizon(SimTime::from_secs(120.0)),
        Scenario::web(PolicySpec::Static(12), 42).with_horizon(SimTime::from_secs(120.0)),
    ];

    let mut cold = Campaign::new(Some(cache.clone()));
    let hc = cold.add_figure(scenarios.clone(), 1);
    let mut cold_result = cold.run();
    let reference = cold_result.take(hc);
    assert_eq!(cold_result.stats.cache_misses, 2);

    // Rot one entry on disk: flip one payload byte of the first record
    // (scenarios[0]'s, stored first), after the handle indexed it. An
    // inner digit becomes another digit, so the JSON still parses as a
    // summary and only the checksum can tell.
    let log = cache.log_path();
    let mut bytes = std::fs::read(&log).expect("log exists after cold pass");
    let at = (PAYLOAD_START + 1..bytes.len())
        .find(|&i| bytes[i].is_ascii_digit() && bytes[i - 1].is_ascii_digit())
        .expect("the first record holds a number with two digits");
    bytes[at] ^= 0x01;
    std::fs::write(&log, &bytes).expect("rot the first record");

    let mut warm = Campaign::new(Some(cache.clone()));
    let hw = warm.add_figure(scenarios, 1);
    let mut warm_result = warm.run();
    assert_eq!(warm_result.stats.corrupt_entries, 1, "rot must be counted");
    assert_eq!(warm_result.stats.cache_hits, 1);
    assert_eq!(
        warm_result.stats.cache_misses, 1,
        "rot recomputes as a miss"
    );
    let recovered = warm_result.take(hw);
    for (a, b) in reference.iter().zip(&recovered) {
        assert_eq!(a.runs, b.runs, "recomputed-over-rot result diverged");
    }
    // The rewritten entry is a hit again.
    assert!(matches!(
        cache.lookup(run_key(
            &Scenario::web(PolicySpec::Static(8), 42).with_horizon(SimTime::from_secs(120.0)),
            0
        )),
        Lookup::Hit(_)
    ));
    let _ = std::fs::remove_dir_all(cache.dir());
}

fn tiny_summary(seed: u64) -> (Scenario, vmprov_cloudsim::RunSummary) {
    let s = Scenario::web(PolicySpec::Static(4), seed).with_horizon(SimTime::from_secs(60.0));
    let summary = run_once(&s, 0);
    (s, summary)
}

#[test]
fn independent_handles_see_each_others_stores() {
    // Two `open`s of one directory stand in for two processes.
    let a = tmp_cache("two_handles");
    let b = RunCache::open(a.dir()).expect("second handle");
    let (s1, r1) = tiny_summary(1);
    let (s2, r2) = tiny_summary(2);
    let (k1, k2) = (run_key(&s1, 0), run_key(&s2, 0));
    assert!(matches!(b.lookup(k1), Lookup::Miss));
    a.store(k1, &r1).expect("store through a");
    match b.lookup(k1) {
        Lookup::Hit(hit) => assert_eq!(*hit, r1),
        other => panic!("b must see a's store, got {other:?}"),
    }
    b.store(k2, &r2).expect("store through b");
    match a.lookup(k2) {
        Lookup::Hit(hit) => assert_eq!(*hit, r2),
        other => panic!("a must see b's store, got {other:?}"),
    }
    assert!(matches!(a.lookup(k1), Lookup::Hit(_)));
    let _ = std::fs::remove_dir_all(a.dir());
}

#[test]
fn concurrent_stores_through_clones_append_whole_records() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 25;
    let cache = tmp_cache("threads");
    let (_, summary) = tiny_summary(3);
    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = cache.clone();
            let (summary, start) = (&summary, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    cache.store(t * 1000 + i, summary).expect("store");
                }
            });
        }
    });
    let fresh = RunCache::open(cache.dir()).expect("fresh handle");
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            for handle in [&cache, &fresh] {
                match handle.lookup(t * 1000 + i) {
                    Lookup::Hit(hit) => assert_eq!(*hit, summary),
                    other => panic!("key {t}/{i}: expected hit, got {other:?}"),
                }
            }
        }
    }
    let log = std::fs::read_to_string(cache.log_path()).expect("read log");
    assert_eq!(log.lines().count() as u64, THREADS * PER_THREAD);
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn unwritable_cache_counts_store_failures_and_still_answers() {
    let cache = tmp_cache("unwritable");
    // A directory where the log belongs makes every append fail.
    std::fs::create_dir_all(cache.log_path()).expect("block the log path");
    let scenarios = vec![
        Scenario::web(PolicySpec::Static(8), 43).with_horizon(SimTime::from_secs(120.0)),
        Scenario::web(PolicySpec::Static(12), 43).with_horizon(SimTime::from_secs(120.0)),
    ];
    for pass in 0..2 {
        let mut campaign = Campaign::new(Some(cache.clone()));
        let h = campaign.add_figure(scenarios.clone(), 2);
        let mut result = campaign.run();
        assert_eq!(
            result.stats.cache_hits, 0,
            "pass {pass}: nothing was stored"
        );
        assert_eq!(result.stats.cache_misses, 4);
        assert_eq!(
            result.stats.store_failures, result.stats.cache_misses,
            "pass {pass}: every store must fail and be counted"
        );
        for (scenario, replicated) in scenarios.iter().zip(result.take(h)) {
            for (rep, run) in replicated.runs.iter().enumerate() {
                assert_eq!(*run, run_once(scenario, rep as u32), "pass {pass}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(cache.dir());
}
