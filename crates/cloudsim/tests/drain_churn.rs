//! Regression pin for the draining swap-remove index: a policy that
//! oscillates the target every tick churns the draining list (drain →
//! revive → drain, with failures landing mid-list), exercising the O(1)
//! swap-remove path; runs must stay deterministic and FEL-backend
//! identical under that churn.

use vmprov_cloudsim::{RunSummary, SimBuilder, SimConfig};
use vmprov_core::policy::{PoolStatus, ProvisioningPolicy};
use vmprov_core::RoundRobin;
use vmprov_des::{FelBackend, RngFactory, SimTime};
use vmprov_workloads::synthetic::PoissonProcess;
use vmprov_workloads::ServiceModel;

/// A target that flips between a wide and a narrow fleet every
/// evaluation, so instances continuously drain, revive, and die from
/// the middle of the draining list.
struct Oscillator {
    high: u32,
    low: u32,
    tick: u32,
}

impl ProvisioningPolicy for Oscillator {
    fn name(&self) -> String {
        format!("Oscillator-{}-{}", self.high, self.low)
    }

    fn initial_instances(&self) -> u32 {
        self.high
    }

    fn evaluate(&mut self, _status: &PoolStatus) -> u32 {
        self.tick += 1;
        if self.tick.is_multiple_of(2) {
            self.high
        } else {
            self.low
        }
    }

    fn next_evaluation(&self, now: SimTime) -> SimTime {
        now + 30.0
    }

    fn queue_capacity(&self, _tm: f64) -> u32 {
        5
    }
}

fn run_churn(backend: FelBackend) -> RunSummary {
    let cfg = SimConfig {
        hosts: 100,
        instance_mtbf: Some(150.0),
        ..SimConfig::paper(0.100, 0.250)
    };
    SimBuilder::new(cfg)
        .workload(PoissonProcess::new(160.0, SimTime::from_secs(600.0)))
        .service(ServiceModel::new(0.100, 0.10))
        .policy(Box::new(Oscillator {
            high: 30,
            low: 8,
            tick: 0,
        }))
        .dispatcher(RoundRobin::new())
        .fel_backend(backend)
        .run(&RngFactory::new(0xD4A1))
}

/// Drain-churn regression: the draining list is removed from at three
/// sites (revive pop, drain-empty death, mid-drain failure); the
/// position-indexed swap-remove must keep all of them deterministic
/// and identical across FEL backends.
#[test]
fn drain_churn_is_deterministic_across_backends() {
    let calendar = run_churn(FelBackend::Calendar);
    // The churn has to actually happen for this pin to mean anything:
    // far more boots than the steady fleet, and failures that can land
    // while instances drain.
    assert!(
        calendar.vms_created > 100,
        "only {} boots — the target never oscillated",
        calendar.vms_created
    );
    assert!(
        calendar.instance_failures > 0,
        "no failures — the mid-list removal path never ran"
    );
    assert_eq!(
        calendar,
        run_churn(FelBackend::Calendar),
        "repeated churn run diverged (nondeterminism)"
    );
    assert_eq!(
        calendar,
        run_churn(FelBackend::BinaryHeap),
        "FEL backends diverged under drain churn"
    );
}
