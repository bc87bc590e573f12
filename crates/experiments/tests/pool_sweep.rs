//! Pool-width sweep: the persistent worker pool executes jobs in a
//! nondeterministic order on a nondeterministic number of threads, and
//! none of that may ever reach a result. Every `RunSummary` here must
//! be **bit-identical** (full `PartialEq`, which on this struct is
//! field-wise `f64` equality) to the sequential `run_once` reference —
//! across pool widths 1, 2, and 4, with warm per-thread scratch reuse,
//! and after a round trip through the run cache (see DESIGN.md §8).

use vmprov_des::pool::WorkerPool;
use vmprov_des::SimTime;
use vmprov_experiments::runner::{run_once, run_once_warm};
use vmprov_experiments::scenario::{PolicySpec, Scenario};
use vmprov_experiments::{Campaign, RunCache};

/// A mixed bag of scenarios — static and adaptive, web and scientific —
/// so consecutive jobs on one worker switch model geometry and exercise
/// the warm-scratch reset path, not just like-for-like reuse.
fn sweep_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::web(PolicySpec::Static(60), 1109).with_horizon(SimTime::from_secs(600.0)),
        Scenario::web(PolicySpec::Adaptive, 1109).with_horizon(SimTime::from_secs(600.0)),
        Scenario::scientific(PolicySpec::Adaptive, 2011).with_horizon(SimTime::from_hours(2.0)),
    ]
}

const REPS: u32 = 2;

/// `(scenario index, rep)` jobs, scenario-major — the campaign layout.
fn jobs(n_scenarios: usize) -> Vec<(usize, u32)> {
    (0..n_scenarios)
        .flat_map(|si| (0..REPS).map(move |rep| (si, rep)))
        .collect()
}

#[test]
fn summaries_are_bit_identical_across_pool_widths() {
    let scenarios = sweep_scenarios();
    let reference: Vec<_> = jobs(scenarios.len())
        .into_iter()
        .map(|(si, rep)| run_once(&scenarios[si], rep))
        .collect();

    for width in [1usize, 2, 4] {
        let pool = WorkerPool::new(width);
        let scen = scenarios.clone();
        let swept = pool.run_batch(jobs(scenarios.len()), move |_, (si, rep)| {
            run_once_warm(&scen[si], rep)
        });
        assert_eq!(
            swept, reference,
            "pool width {width} changed a run summary — scheduling leaked into a result"
        );
    }
}

#[test]
fn cached_campaign_matches_sequential_reference() {
    let dir = std::env::temp_dir().join(format!("vmprov_pool_sweep_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scenarios = sweep_scenarios();
    let reference: Vec<_> = jobs(scenarios.len())
        .into_iter()
        .map(|(si, rep)| run_once(&scenarios[si], rep))
        .collect();

    // Cold pass (pool + warm scratch) and warm pass (pure cache hits)
    // must both reproduce the sequential reference exactly.
    for pass in ["cold", "warm"] {
        let mut campaign = Campaign::new(Some(RunCache::open(&dir).expect("cache dir")));
        let handle = campaign.add_figure(scenarios.clone(), REPS);
        let mut result = campaign.run();
        if pass == "warm" {
            assert_eq!(
                result.stats.cache_hits, result.stats.jobs,
                "warm pass missed"
            );
        }
        let got: Vec<_> = result
            .take(handle)
            .into_iter()
            .flat_map(|replicated| replicated.runs)
            .collect();
        assert_eq!(
            got, reference,
            "{pass} campaign pass diverged from run_once"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
