//! Shard-width sweep, the intra-run sibling of `pool_sweep.rs`: the
//! sharded engine partitions one run's instances across worker shards
//! that execute concurrently, and none of that scheduling may reach a
//! result. Every `RunSummary` must be **bit-identical** across shard
//! counts — on real paper scenarios (static and adaptive, web and
//! scientific), with warm scratch reuse, and stacked on top of the
//! worker pool running replications concurrently (shards inside pool
//! workers). Serial (`shards: None`) is a *different* deterministic
//! stream and must NOT equal the sharded one — pinned here so the
//! cache-aliasing story stays honest (see DESIGN.md §10).

use vmprov_des::pool::WorkerPool;
use vmprov_des::SimTime;
use vmprov_experiments::runner::{run_once, run_once_warm};
use vmprov_experiments::scenario::{PolicySpec, Scenario};

/// Static and adaptive, web and scientific — the adaptive cells drive
/// real fleet churn (boots, drains, cancellations) through barriers.
fn sweep_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::web(PolicySpec::Static(60), 1109).with_horizon(SimTime::from_secs(600.0)),
        Scenario::web(PolicySpec::Adaptive, 1109).with_horizon(SimTime::from_secs(600.0)),
        Scenario::scientific(PolicySpec::Adaptive, 2011).with_horizon(SimTime::from_hours(2.0)),
    ]
}

const REPS: u32 = 2;
const SHARD_COUNTS: [u32; 3] = [1, 2, 4];

#[test]
fn summaries_are_bit_identical_across_shard_counts() {
    for scenario in sweep_scenarios() {
        let reference: Vec<_> = (0..REPS)
            .map(|rep| run_once(&scenario.clone().with_shards(Some(1)), rep))
            .collect();
        for n in SHARD_COUNTS {
            let sharded = scenario.clone().with_shards(Some(n));
            for rep in 0..REPS {
                assert_eq!(
                    run_once(&sharded, rep),
                    reference[rep as usize],
                    "{} rep {rep}: shards={n} changed the summary",
                    scenario.policy_label()
                );
            }
        }
    }
}

#[test]
fn sharded_stream_differs_from_serial() {
    // Not an accident of one seed: the sharded engine's counter-indexed
    // streams are a different (equally deterministic) semantics, which
    // is why `shards` is part of the cache key.
    let scenario = sweep_scenarios().remove(0);
    let serial = run_once(&scenario, 0);
    let sharded = run_once(&scenario.with_shards(Some(1)), 0);
    assert_ne!(
        serial, sharded,
        "serial and sharded streams coincided; if this becomes guaranteed, \
         collapse the cache-key distinction"
    );
}

#[test]
fn shards_inside_pool_workers_stay_deterministic() {
    // The campaign layout: replications fan out on the worker pool with
    // warm scratch, and each replication fans out again across shards.
    // Two layers of scheduling, zero bits of divergence.
    let scenarios: Vec<_> = sweep_scenarios()
        .into_iter()
        .map(|s| s.with_shards(Some(4)))
        .collect();
    let jobs: Vec<(usize, u32)> = (0..scenarios.len())
        .flat_map(|si| (0..REPS).map(move |rep| (si, rep)))
        .collect();
    let reference: Vec<_> = jobs
        .iter()
        .map(|&(si, rep)| run_once(&scenarios[si], rep))
        .collect();
    for width in [2usize, 4] {
        let pool = WorkerPool::new(width);
        let scen = scenarios.clone();
        let swept = pool.run_batch(jobs.clone(), move |_, (si, rep)| {
            run_once_warm(&scen[si], rep)
        });
        assert_eq!(
            swept, reference,
            "pool width {width} over sharded runs changed a summary"
        );
    }
}
