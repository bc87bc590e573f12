//! The benchmark's own probe: work counts at the simulation's hook
//! boundaries, plus the inputs the isolated layer runs replay.
//!
//! Attaching a probe never changes a run's result (the cloudsim probe
//! contract); the traced pass checks that against the untraced one.

use vmprov_cloudsim::{PoolSample, Probe, RejectReason, RequestClass};
use vmprov_core::{SizingDecision, SizingInputs};
use vmprov_des::SimTime;

/// One periodic look at the pool.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Simulated time of the sample (seconds).
    pub t: f64,
    /// Instances with a completion pending (busy) or a boot pending.
    pub timers: u32,
    /// Instances accepting requests.
    pub active: u32,
    /// Per-instance queue capacity k in force.
    pub k: u32,
}

/// Counts and captured inputs of one run.
#[derive(Debug, Clone, Default)]
pub struct LedgerProbe {
    /// Requests that reached admission control.
    pub arrivals: u64,
    /// Requests admission control turned away.
    pub rejects: u64,
    /// Requests admitted (one service-time draw each).
    pub admits: u64,
    /// Requests completed.
    pub completions: u64,
    /// VMs created.
    pub boots: u64,
    /// VMs put into draining.
    pub drains: u64,
    /// VMs destroyed.
    pub destroys: u64,
    /// Algorithm 1 decisions: inputs and search iterations.
    pub sizings: Vec<(SizingInputs, u32)>,
    /// The first `pair_cap` (response, service) pairs, in completion order.
    pub pairs: Vec<(f64, f64)>,
    /// Periodic pool samples.
    pub samples: Vec<Sample>,
    pair_cap: usize,
    sample_dt: f64,
}

impl LedgerProbe {
    /// A probe sampling every `sample_dt` simulated seconds and keeping
    /// at most `pair_cap` completion pairs.
    pub fn new(sample_dt: f64, pair_cap: usize) -> Self {
        LedgerProbe {
            pair_cap,
            sample_dt,
            ..LedgerProbe::default()
        }
    }

    /// Sum of Algorithm 1 search iterations.
    pub fn iterations(&self) -> u64 {
        self.sizings.iter().map(|&(_, it)| u64::from(it)).sum()
    }

    /// Events the run popped, as far as hooks show them: one per
    /// arrival, completion and VM boot, and one per control tick that
    /// ran Algorithm 1. Arrival-batch releases, monitor ticks, policy
    /// ticks without a decision and the probe's own sampling ticks are
    /// not visible to a probe and are not counted.
    pub fn events(&self) -> u64 {
        self.arrivals + self.completions + self.boots + self.sizings.len() as u64
    }
}

impl Probe for LedgerProbe {
    fn on_arrival(&mut self, _now: SimTime, _class: RequestClass) {
        self.arrivals += 1;
    }

    fn on_reject(&mut self, _now: SimTime, _class: RequestClass, _reason: RejectReason) {
        self.rejects += 1;
    }

    fn on_admit(&mut self, _now: SimTime, _slot: u32, _queue_len: u32) {
        self.admits += 1;
    }

    fn on_service_complete(&mut self, _now: SimTime, _slot: u32, response: f64, service: f64) {
        self.completions += 1;
        if self.pairs.len() < self.pair_cap {
            self.pairs.push((response, service));
        }
    }

    fn on_vm_boot(&mut self, _now: SimTime, _slot: u32) {
        self.boots += 1;
    }

    fn on_vm_drain(&mut self, _now: SimTime, _slot: u32) {
        self.drains += 1;
    }

    fn on_vm_destroy(&mut self, _now: SimTime, _slot: u32) {
        self.destroys += 1;
    }

    fn on_sizing(&mut self, _now: SimTime, decision: &SizingDecision) {
        self.sizings.push((decision.inputs, decision.iterations));
    }

    fn sample_interval(&self) -> Option<f64> {
        Some(self.sample_dt)
    }

    fn on_sample(&mut self, s: &PoolSample) {
        self.samples.push(Sample {
            t: s.t,
            timers: s.busy + s.booting,
            active: s.active,
            k: s.k,
        });
    }
}
