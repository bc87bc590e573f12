//! Intra-run sharding: one simulation partitioned across worker cores.
//!
//! The paper's datacenter is a set of independent M/M/1/k instance
//! queues coupled only through the dispatcher, admission control, and
//! the periodic control tick. That coupling structure makes a single
//! run shard naturally: the control period is a *conservative lookahead
//! window* — between two control ticks no global decision can occur, so
//! each shard may simulate its own instances' request traffic
//! independently up to the next tick without ever seeing an event from
//! another shard out of order.
//!
//! Execution alternates two strictly separated roles:
//!
//! * the **coordinator** (the calling thread) owns everything global —
//!   the workload, admission capacity `k`, the dispatcher, the host
//!   pool, VM lifecycle (boot/drain/destroy), Algorithm 1 — and runs it
//!   only at barriers;
//! * **shards** own the per-instance hot path — bounded FIFO queues,
//!   service completions, injected crashes — each with its own
//!   future-event list, and run in parallel between barriers on a
//!   dedicated worker pool.
//!
//! Barriers are placed at every control event: monitor ticks, policy
//! evaluations, boot completions, and the horizon. Between consecutive
//! barriers the active fleet and `k` are frozen, so the coordinator can
//! pre-route every arrival of the window to its target instance and
//! hand each shard a sealed per-window arrival list.
//!
//! # Shard-count invariance
//!
//! The merged [`RunSummary`] is bit-identical for every shard count,
//! by construction rather than by tolerance:
//!
//! * every random quantity is drawn from a counter-indexed stream keyed
//!   by a stable global identity — arrival index `j` for class,
//!   dispatch, and service draws ([`RngFactory::stream_indexed`]), VM
//!   id for time-to-failure — never from a shared sequential stream
//!   whose draw order would depend on the partition;
//! * instances are dealt round-robin to shards by VM id (`vm % n`), and
//!   every cross-shard reduction (retired-instance statistics, probe
//!   replay, death processing) merges in a fixed global order sorted by
//!   time and VM id, so float summation order never depends on `n`;
//! * shard FELs only ever hold events for instances the shard owns, and
//!   per-instance dynamics depend on nothing outside the instance.
//!
//! The sharded path is *its own* deterministic semantics: it is pinned
//! against itself across shard counts and FEL backends, not against the
//! serial engine (which draws from sequential RNG streams in event
//! order and therefore walks a different — equally valid — sample
//! path). DESIGN.md §10 documents the intentional divergences.

use std::collections::VecDeque;
use std::sync::OnceLock;

use crate::config::{PriorityConfig, SimConfig};
use crate::host::HostPool;
use crate::metrics::{RunMetrics, RunSummary};
use crate::probe::{Probe, RejectReason, RequestClass};
use crate::sim::SimScratch;
use vmprov_core::dispatch::Dispatcher;
use vmprov_core::policy::{MonitorReport, PoolStatus, ProvisioningPolicy};
use vmprov_des::dist::{Distribution, Exponential};
use vmprov_des::pool::WorkerPool;
use vmprov_des::stats::{OnlineStats, TimeWeighted};
use vmprov_des::{Engine, EventHandle, RngFactory, Scheduler, SimRng, SimTime, World};
use vmprov_workloads::{ArrivalBatch, ArrivalProcess, ServiceModel};

/// Sentinel VM id: the arrival was routed while the active fleet was
/// empty and is pre-destined for rejection (it still reaches a shard so
/// the offered/rejected counters and probe hooks fire uniformly).
const NO_VM: u32 = u32::MAX;

/// The dedicated pool for shard workers, separate from the campaign
/// pool in `vmprov-experiments`: a sharded run may itself be a job *on*
/// the campaign pool, and nesting `run_batch` onto one pool would
/// deadlock once every worker blocks on a batch of its own.
static SHARD_POOL: OnceLock<WorkerPool> = OnceLock::new();

fn shard_pool() -> &'static WorkerPool {
    SHARD_POOL.get_or_init(|| {
        WorkerPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

// ---------------------------------------------------------------------
// Shard side
// ---------------------------------------------------------------------

/// Events on a shard's private future-event list. Kept as small as the
/// serial [`Event`](crate::sim::Event): discriminant + one u32.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShardEvent {
    /// Index into the shard's current window arrival list.
    Arrival(u32),
    /// Head-of-queue completion on the instance with this global VM id.
    Completion(u32),
    /// Injected crash of the instance with this global VM id.
    Failure(u32),
}

const _: () = assert!(std::mem::size_of::<ShardEvent>() == 8);

/// One arrival, fully routed by the coordinator: when, which instance,
/// which global arrival index (the RNG counter), which class.
#[derive(Debug, Clone, Copy)]
struct RoutedArrival {
    t: SimTime,
    vm: u32,
    index: u64,
    high: bool,
}

/// An arrival released from its batch but not yet routed (its window
/// has not started). `gen` is the global generation sequence number —
/// the tie-breaker that keeps equal-time arrivals in batch order.
#[derive(Debug, Clone, Copy)]
struct PenArrival {
    t: SimTime,
    gen: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocalState {
    Active,
    Draining,
    Dead,
}

/// Per-instance state owned by a shard. Indexed by `vm_id / n_shards`;
/// ids the shard never saw (boots canceled before activation) leave
/// dead placeholder gaps.
#[derive(Debug)]
struct VmLocal {
    state: LocalState,
    /// (arrival time secs, service time) per admitted request, head in
    /// service.
    queue: VecDeque<(f64, f64)>,
    completion: Option<EventHandle>,
    failure: Option<EventHandle>,
    response: OnlineStats,
    service: OnlineStats,
    busy_seconds: f64,
    qos_violations: u64,
}

impl VmLocal {
    fn tombstone() -> Self {
        VmLocal {
            state: LocalState::Dead,
            queue: VecDeque::new(),
            completion: None,
            failure: None,
            response: OnlineStats::new(),
            service: OnlineStats::new(),
            busy_seconds: 0.0,
            qos_violations: 0,
        }
    }

    fn fresh() -> Self {
        VmLocal {
            state: LocalState::Active,
            ..VmLocal::tombstone()
        }
    }
}

/// A death observed inside a window, reported to the coordinator at the
/// next barrier (the only shard→coordinator channel besides reading the
/// world directly).
#[derive(Debug, Clone, Copy)]
struct ShardDeath {
    t: SimTime,
    vm: u32,
}

/// One probe event recorded on a shard, replayed at the barrier.
#[derive(Debug, Clone, Copy)]
struct ProbeRecord {
    t: SimTime,
    ev: ProbeEv,
}

#[derive(Debug, Clone, Copy)]
enum ProbeEv {
    Arrival(RequestClass),
    Reject(RequestClass, RejectReason),
    Admit(u32, u32),
    ServiceStart(u32),
    ServiceComplete(u32, f64, f64),
    Crash(u32, u64),
    Destroy(u32),
}

/// The world one shard simulates between barriers.
struct ShardWorld {
    nshards: u32,
    /// Current queue capacity k — updated by the coordinator at
    /// barriers, frozen within a window.
    k: u32,
    ts: f64,
    priority: Option<PriorityConfig>,
    service_model: ServiceModel,
    rngs: RngFactory,
    vms: Vec<VmLocal>,
    window: Vec<RoutedArrival>,
    deaths: Vec<ShardDeath>,
    offered: u64,
    rejected: u64,
    offered_high: u64,
    rejected_high: u64,
    instance_failures: u64,
    requests_lost: u64,
    /// Buffer probe events for barrier replay? Off for probes that
    /// observe nothing ([`Probe::observes_events`]).
    record: bool,
    log: Vec<ProbeRecord>,
}

impl ShardWorld {
    fn local(&mut self, vm: u32) -> &mut VmLocal {
        &mut self.vms[(vm / self.nshards) as usize]
    }

    fn push_log(&mut self, t: SimTime, ev: ProbeEv) {
        if self.record {
            self.log.push(ProbeRecord { t, ev });
        }
    }

    fn reject(&mut self, now: SimTime, class: RequestClass, reason: RejectReason) {
        self.rejected += 1;
        if self.priority.is_some() && class == RequestClass::High {
            self.rejected_high += 1;
        }
        self.push_log(now, ProbeEv::Reject(class, reason));
    }

    fn handle_arrival(&mut self, now: SimTime, idx: u32, sched: &mut Scheduler<'_, ShardEvent>) {
        let a = self.window[idx as usize];
        self.offered += 1;
        let class = if a.high {
            RequestClass::High
        } else {
            RequestClass::Low
        };
        if self.priority.is_some() && a.high {
            self.offered_high += 1;
        }
        self.push_log(now, ProbeEv::Arrival(class));
        // Class-visible capacity, as in the serial engine: high sees k,
        // low sees k minus the reserved slots; zero capacity is its own
        // rejection reason checked before pool state.
        let capacity = match self.priority {
            Some(pc) if !a.high => self.k.saturating_sub(pc.reserved_slots),
            _ => self.k,
        };
        if capacity == 0 {
            self.reject(now, class, RejectReason::NoClassCapacity);
            return;
        }
        if a.vm == NO_VM {
            self.reject(now, class, RejectReason::PoolFull);
            return;
        }
        let nshards = self.nshards;
        let v = &mut self.vms[(a.vm / nshards) as usize];
        // The instance may have crashed earlier in this window (the
        // coordinator routed before knowing); a crashed target rejects
        // like a full pool. Draining/dead targets are only reachable
        // that way — routing never picks them.
        if v.state != LocalState::Active || v.queue.len() as u32 >= capacity {
            self.reject(now, class, RejectReason::PoolFull);
            return;
        }
        let svc = self
            .service_model
            .sample(&mut self.rngs.stream_indexed("service", a.index));
        v.queue.push_back((now.as_secs(), svc));
        let len = v.queue.len() as u32;
        if len == 1 {
            v.completion = Some(sched.after(svc, ShardEvent::Completion(a.vm)));
        }
        self.push_log(now, ProbeEv::Admit(a.vm, len));
        if len == 1 {
            self.push_log(now, ProbeEv::ServiceStart(a.vm));
        }
    }

    fn handle_completion(&mut self, now: SimTime, vm: u32, sched: &mut Scheduler<'_, ShardEvent>) {
        let ts = self.ts;
        let v = self.local(vm);
        v.completion = None;
        let (arrived, svc) = v.queue.pop_front().expect("completion on empty queue");
        let response = now.as_secs() - arrived;
        v.response.push(response);
        v.service.push(svc);
        v.busy_seconds += svc;
        // Branchless for the same reason as `record_completion`: the
        // predicate is data-random under mixed load.
        v.qos_violations += u64::from(response > ts);
        let next = v.queue.front().copied();
        let draining_empty = next.is_none() && v.state == LocalState::Draining;
        if let Some((_, next_svc)) = next {
            v.completion = Some(sched.after(next_svc, ShardEvent::Completion(vm)));
        }
        self.push_log(now, ProbeEv::ServiceComplete(vm, response, svc));
        if next.is_some() {
            self.push_log(now, ProbeEv::ServiceStart(vm));
        }
        if draining_empty {
            // Last drained request done: the instance dies here, inside
            // the window; the coordinator settles billing and host
            // release at the barrier.
            let v = self.local(vm);
            v.state = LocalState::Dead;
            v.queue = VecDeque::new();
            if let Some(h) = v.failure.take() {
                sched.cancel(h);
            }
            self.deaths.push(ShardDeath { t: now, vm });
            self.push_log(now, ProbeEv::Destroy(vm));
        }
    }

    fn handle_failure(&mut self, now: SimTime, vm: u32, sched: &mut Scheduler<'_, ShardEvent>) {
        let v = self.local(vm);
        debug_assert!(v.state != LocalState::Dead, "failure on dead instance");
        v.failure = None;
        let lost = v.queue.len() as u64;
        if let Some(h) = v.completion.take() {
            sched.cancel(h);
        }
        v.queue = VecDeque::new();
        v.state = LocalState::Dead;
        self.requests_lost += lost;
        self.instance_failures += 1;
        self.deaths.push(ShardDeath { t: now, vm });
        self.push_log(now, ProbeEv::Crash(vm, lost));
        self.push_log(now, ProbeEv::Destroy(vm));
    }
}

impl World for ShardWorld {
    type Event = ShardEvent;

    fn handle(&mut self, now: SimTime, ev: ShardEvent, sched: &mut Scheduler<'_, ShardEvent>) {
        match ev {
            ShardEvent::Arrival(idx) => self.handle_arrival(now, idx, sched),
            ShardEvent::Completion(vm) => self.handle_completion(now, vm, sched),
            ShardEvent::Failure(vm) => self.handle_failure(now, vm, sched),
        }
    }
}

/// Runs one shard over one window: seed the routed arrivals, then
/// process every event up to the barrier (or drain completely for the
/// final window). Executed on the shard pool.
fn run_window(
    mut engine: Engine<ShardWorld>,
    arrivals: Vec<RoutedArrival>,
    end: SimTime,
    drain: bool,
) -> Engine<ShardWorld> {
    if drain {
        // Mirror the serial engine: failure clocks stop at the horizon
        // so crashes cannot land in the drain phase.
        let handles: Vec<EventHandle> = engine
            .world_mut()
            .vms
            .iter_mut()
            .filter_map(|v| v.failure.take())
            .collect();
        for h in handles {
            engine.cancel(h);
        }
    }
    assert!(
        arrivals.len() < NO_VM as usize,
        "window overflows u32 index"
    );
    for (i, a) in arrivals.iter().enumerate() {
        engine.schedule(a.t, ShardEvent::Arrival(i as u32));
    }
    engine.world_mut().window = arrivals;
    if drain {
        engine.run();
    } else {
        engine.run_until(end);
    }
    engine
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetaState {
    Booting,
    Active,
    Draining,
    Dead,
}

/// Coordinator-side view of one VM.
#[derive(Debug, Clone, Copy)]
struct VmMeta {
    created_at: SimTime,
    host: usize,
    state: MetaState,
}

/// The two dispatchers whose picks are independent of live queue state
/// and can therefore be replayed by the coordinator at routing time.
#[derive(Debug, Clone, Copy)]
enum Routing {
    RoundRobin,
    Random,
}

struct Coordinator<P: Probe, W: ArrivalProcess> {
    cfg: SimConfig,
    nshards: u32,
    horizon: SimTime,
    // Workload expansion (the serial engine's Batch/Arrival machinery).
    workload: W,
    rng_arrivals: SimRng,
    /// Batches pulled through the burst seam but not yet expanded into
    /// the pen; `pending[pending_pos..]` is the unexpanded remainder.
    pending: Vec<ArrivalBatch>,
    pending_pos: usize,
    /// Batches pulled per `next_batch_run` call (`cfg.arrival_run`).
    /// The seam's stop-after-spread rule keeps the arrivals stream
    /// identical for every value, so the merged summary is invariant
    /// to it here — unlike the serial engine, where run > 1 reassigns
    /// event ids.
    arrival_run: usize,
    last_batch_time: SimTime,
    gen_seq: u64,
    pen: Vec<PenArrival>,
    arrival_index: u64,
    window_arrivals: u64,
    // Global control state.
    policy: Box<dyn ProvisioningPolicy>,
    routing: Routing,
    rngs: RngFactory,
    hosts: HostPool,
    k: u32,
    vms: Vec<VmMeta>,
    /// Active VM ids, sorted ascending — the frozen routing table.
    active: Vec<u32>,
    /// Draining VM ids, sorted ascending.
    draining: Vec<u32>,
    /// Booting VMs as `(activation time, vm id)` in creation order
    /// (equivalently activation order: the boot delay is constant).
    booting: Vec<(SimTime, u32)>,
    shards: Vec<Engine<ShardWorld>>,
    metrics: RunMetrics,
    // Fixed-order accumulators for instances that no longer exist.
    retired_response: OnlineStats,
    retired_service: OnlineStats,
    retired_busy: f64,
    retired_qos: u64,
    next_monitor: Option<SimTime>,
    next_eval: Option<SimTime>,
    probe: P,
    record: bool,
}

impl<P: Probe, W: ArrivalProcess> Coordinator<P, W> {
    fn shard_of(&self, vm: u32) -> usize {
        (vm % self.nshards) as usize
    }

    fn local_of(&self, vm: u32) -> usize {
        (vm / self.nshards) as usize
    }

    fn qlen(&self, vm: u32) -> u32 {
        let v = &self.shards[self.shard_of(vm)].world().vms[self.local_of(vm)];
        v.queue.len() as u32
    }

    // --- workload expansion -------------------------------------------

    /// Releases every batch due by `window_end` into the pen, pulling
    /// whole bursts through the seam and drawing spread offsets in
    /// exactly the serial engine's order: the seam stops a run after
    /// its first `spread > 0` batch, so generation and spread draws
    /// interleave on the sequential `rng_arrivals` stream precisely as
    /// one-at-a-time pulls would.
    fn fill_pen(&mut self, window_end: SimTime) {
        loop {
            if self.pending_pos == self.pending.len() {
                self.pending.clear();
                self.pending_pos = 0;
                let n = self.workload.next_batch_run(
                    &mut self.rng_arrivals,
                    self.arrival_run,
                    &mut self.pending,
                );
                if n == 0 {
                    return; // workload exhausted
                }
            }
            let b = self.pending[self.pending_pos];
            if b.time > window_end {
                return;
            }
            self.pending_pos += 1;
            // The serial engine re-anchors a late batch at the clock:
            // the Batch event fires at max(b.time, previous fire time).
            let t0 = if b.time >= self.last_batch_time {
                b.time
            } else {
                self.last_batch_time
            };
            self.last_batch_time = t0;
            for _ in 0..b.count {
                let offset = if b.spread > 0.0 {
                    self.rng_arrivals.uniform(0.0, b.spread)
                } else {
                    0.0
                };
                self.pen.push(PenArrival {
                    t: t0 + offset,
                    gen: self.gen_seq,
                });
                self.gen_seq += 1;
            }
        }
    }

    /// Routes every arrival due in `(now, end]` — class draw, dispatch
    /// pick, global index assignment — into per-shard lists. The active
    /// fleet is frozen until `end`, so routing now is exact.
    fn route_window(&mut self, end: SimTime) -> Vec<Vec<RoutedArrival>> {
        self.fill_pen(end);
        let mut due: Vec<PenArrival> = Vec::new();
        let mut i = 0;
        while i < self.pen.len() {
            if self.pen[i].t <= end {
                due.push(self.pen.swap_remove(i));
            } else {
                i += 1;
            }
        }
        // Global arrival order: time, then generation sequence. This is
        // the order that defines the arrival index j — the counter every
        // per-request random draw is keyed by.
        due.sort_unstable_by(|a, b| a.t.cmp(&b.t).then(a.gen.cmp(&b.gen)));
        let mut out: Vec<Vec<RoutedArrival>> = vec![Vec::new(); self.nshards as usize];
        let m = self.active.len();
        for a in due {
            let j = self.arrival_index;
            self.arrival_index += 1;
            self.window_arrivals += 1;
            let high = match self.cfg.priority {
                Some(pc) => self.rngs.stream_indexed("class", j).uniform01() < pc.high_fraction,
                None => true,
            };
            let (vm, shard) = if m == 0 {
                (NO_VM, (j % u64::from(self.nshards)) as usize)
            } else {
                let pick = match self.routing {
                    Routing::RoundRobin => (j % m as u64) as usize,
                    Routing::Random => self.rngs.stream_indexed("dispatch", j).below(m),
                };
                let vm = self.active[pick];
                (vm, self.shard_of(vm))
            };
            out[shard].push(RoutedArrival {
                t: a.t,
                vm,
                index: j,
                high,
            });
        }
        out
    }

    // --- shard execution ----------------------------------------------

    fn run_shards(&mut self, windows: Vec<Vec<RoutedArrival>>, end: SimTime, drain: bool) {
        let engines = std::mem::take(&mut self.shards);
        let items: Vec<(Engine<ShardWorld>, Vec<RoutedArrival>)> =
            engines.into_iter().zip(windows).collect();
        if items.len() <= 1 {
            // One shard runs inline: no pool threads, the exact code
            // path the determinism matrix anchors on.
            self.shards = items
                .into_iter()
                .map(|(e, a)| run_window(e, a, end, drain))
                .collect();
        } else {
            self.shards =
                shard_pool().run_batch(items, move |_, (e, a)| run_window(e, a, end, drain));
        }
    }

    /// Barrier entry: settle every death the window produced (in global
    /// `(time, vm)` order) and replay buffered probe events.
    fn collect_window(&mut self) {
        let mut deaths: Vec<ShardDeath> = Vec::new();
        for s in &mut self.shards {
            deaths.append(&mut s.world_mut().deaths);
        }
        deaths.sort_unstable_by(|a, b| a.t.cmp(&b.t).then(a.vm.cmp(&b.vm)));
        for d in deaths {
            let meta = self.vms[d.vm as usize];
            match meta.state {
                MetaState::Active => {
                    let i = self.active.binary_search(&d.vm).expect("active id");
                    self.active.remove(i);
                }
                MetaState::Draining => {
                    let i = self.draining.binary_search(&d.vm).expect("draining id");
                    self.draining.remove(i);
                }
                MetaState::Booting | MetaState::Dead => {
                    unreachable!("shard death for a {:?} VM", meta.state)
                }
            }
            self.vms[d.vm as usize].state = MetaState::Dead;
            self.hosts.release(meta.host, self.cfg.vm_shape);
            self.metrics.vm_seconds += d.t - meta.created_at;
            self.metrics.instances.add(d.t, -1.0);
            self.fold_stats(d.vm);
        }
        if self.record {
            self.replay_probes();
        }
    }

    /// Folds a finished instance's statistics into the retired
    /// accumulators. Call order is fixed by the barrier protocol, which
    /// is what makes the float merges shard-count invariant.
    fn fold_stats(&mut self, vm: u32) {
        let (si, li) = (self.shard_of(vm), self.local_of(vm));
        let v = &self.shards[si].world().vms[li];
        let (resp, svc, busy, qos) = (v.response, v.service, v.busy_seconds, v.qos_violations);
        self.retired_response.merge(&resp);
        self.retired_service.merge(&svc);
        self.retired_busy += busy;
        self.retired_qos += qos;
    }

    fn replay_probes(&mut self) {
        let mut records: Vec<(SimTime, u32, ProbeEv)> = Vec::new();
        for (si, s) in self.shards.iter_mut().enumerate() {
            let w = s.world_mut();
            records.extend(w.log.drain(..).map(|r| (r.t, si as u32, r.ev)));
        }
        // Stable by time: equal-time records keep shard order, which is
        // itself deterministic. Each replayed hook is preceded by
        // `on_shard` so trace lines carry their origin.
        records.sort_by_key(|r| r.0);
        for (t, shard, ev) in records {
            self.probe.on_shard(shard);
            match ev {
                ProbeEv::Arrival(class) => self.probe.on_arrival(t, class),
                ProbeEv::Reject(class, reason) => self.probe.on_reject(t, class, reason),
                ProbeEv::Admit(vm, len) => self.probe.on_admit(t, vm, len),
                ProbeEv::ServiceStart(vm) => self.probe.on_service_start(t, vm),
                ProbeEv::ServiceComplete(vm, r, s) => self.probe.on_service_complete(t, vm, r, s),
                ProbeEv::Crash(vm, lost) => self.probe.on_vm_crash(t, vm, lost),
                ProbeEv::Destroy(vm) => self.probe.on_vm_destroy(t, vm),
            }
        }
    }

    // --- VM lifecycle (barrier only) ----------------------------------

    /// Draws the instance's time-to-failure and installs its live state
    /// on the owning shard. TTF is keyed by VM id, so the draw is
    /// identical whatever shard the instance lands on.
    fn install_local(&mut self, vm: u32, now: SimTime) {
        let ttf = self.cfg.instance_mtbf.map(|mtbf| {
            Exponential::from_mean(mtbf)
                .sample(&mut self.rngs.stream_indexed("failures", u64::from(vm)))
        });
        let local = self.local_of(vm);
        let engine = &mut self.shards[(vm % self.nshards) as usize];
        let world = engine.world_mut();
        if world.vms.len() <= local {
            // Gaps are canceled boots: ids that never activated.
            world.vms.resize_with(local + 1, VmLocal::tombstone);
        }
        world.vms[local] = VmLocal::fresh();
        if let Some(ttf) = ttf {
            let h = engine.schedule(now + ttf, ShardEvent::Failure(vm));
            engine.world_mut().vms[local].failure = Some(h);
        }
    }

    /// Allocates a VM; active immediately (`immediate`, the initial
    /// fleet and zero boot delay) or after the boot delay.
    fn create_instance(&mut self, now: SimTime, immediate: bool) {
        let Some(host) = self.hosts.place(self.cfg.vm_shape) else {
            self.metrics.vm_creation_failures += 1;
            return;
        };
        let vm = self.vms.len() as u32;
        self.vms.push(VmMeta {
            created_at: now,
            host,
            state: MetaState::Booting,
        });
        self.metrics.vms_created += 1;
        self.metrics.instances.add(now, 1.0);
        self.probe.on_vm_boot(now, vm);
        if immediate {
            self.vms[vm as usize].state = MetaState::Active;
            self.active.push(vm); // new ids are the largest: stays sorted
            self.probe.on_vm_active(now, vm);
            self.install_local(vm, now);
        } else {
            self.booting.push((now + self.cfg.boot_delay, vm));
        }
    }

    /// Activates every boot due by `now` (each such activation *is* a
    /// barrier, so routing always sees the grown fleet from its start).
    fn activate_boots(&mut self, now: SimTime) {
        while let Some(&(done, vm)) = self.booting.first() {
            if done > now {
                break;
            }
            self.booting.remove(0);
            self.vms[vm as usize].state = MetaState::Active;
            let i = self.active.binary_search(&vm).unwrap_err();
            self.active.insert(i, vm);
            self.probe.on_vm_active(now, vm);
            self.install_local(vm, now);
        }
    }

    /// Destroys an idle active instance at a barrier (scale-down).
    fn destroy_idle(&mut self, vm: u32, now: SimTime) {
        let meta = self.vms[vm as usize];
        self.vms[vm as usize].state = MetaState::Dead;
        self.hosts.release(meta.host, self.cfg.vm_shape);
        self.metrics.vm_seconds += now - meta.created_at;
        self.metrics.instances.add(now, -1.0);
        self.fold_stats(vm);
        let local = self.local_of(vm);
        let engine = &mut self.shards[(vm % self.nshards) as usize];
        let v = &mut engine.world_mut().vms[local];
        debug_assert!(v.queue.is_empty() && v.completion.is_none());
        v.state = LocalState::Dead;
        if let Some(h) = v.failure.take() {
            engine.cancel(h);
        }
        self.probe.on_vm_destroy(now, vm);
    }

    /// Applies a sizing decision, mirroring the serial engine's
    /// transition order: revive draining before booting; destroy idle,
    /// then cancel the newest boots, then drain the shortest queues.
    fn apply_target(&mut self, target: u32, now: SimTime) {
        let target = target.max(1);
        let existing = (self.booting.len() + self.active.len()) as u32;
        if target > existing {
            let mut need = target - existing;
            while need > 0 {
                let Some(vm) = self.draining.pop() else { break };
                self.vms[vm as usize].state = MetaState::Active;
                let i = self.active.binary_search(&vm).unwrap_err();
                self.active.insert(i, vm);
                let local = self.local_of(vm);
                let engine = &mut self.shards[(vm % self.nshards) as usize];
                engine.world_mut().vms[local].state = LocalState::Active;
                self.probe.on_vm_revive(now, vm);
                need -= 1;
            }
            let immediate = self.cfg.boot_delay <= 0.0;
            for _ in 0..need {
                self.create_instance(now, immediate);
            }
        } else if target < existing {
            let mut excess = existing - target;
            // 1. Idle actives die immediately, scanned in ascending VM
            //    id (the serial engine scans its churned slot list; the
            //    sharded order is the stable equivalent).
            let mut i = 0;
            while excess > 0 && i < self.active.len() {
                let vm = self.active[i];
                if self.qlen(vm) == 0 {
                    self.active.remove(i);
                    self.destroy_idle(vm, now);
                    excess -= 1;
                } else {
                    i += 1;
                }
            }
            // 2. Cancel the newest boots: nothing ever ran there, so no
            //    shard state exists to clean up.
            while excess > 0 {
                let Some((_, vm)) = self.booting.pop() else {
                    break;
                };
                let meta = self.vms[vm as usize];
                self.vms[vm as usize].state = MetaState::Dead;
                self.hosts.release(meta.host, self.cfg.vm_shape);
                self.metrics.vm_seconds += now - meta.created_at;
                self.metrics.instances.add(now, -1.0);
                self.probe.on_vm_destroy(now, vm);
                excess -= 1;
            }
            // 3. Drain busy actives, shortest queue first (ties to the
            //    lowest VM id).
            while excess > 0 && !self.active.is_empty() {
                let (idx, _) = self
                    .active
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &vm)| (self.qlen(vm), vm))
                    .expect("non-empty active list");
                let vm = self.active.remove(idx);
                self.vms[vm as usize].state = MetaState::Draining;
                let i = self.draining.binary_search(&vm).unwrap_err();
                self.draining.insert(i, vm);
                let local = self.local_of(vm);
                let engine = &mut self.shards[(vm % self.nshards) as usize];
                engine.world_mut().vms[local].state = LocalState::Draining;
                self.probe.on_vm_drain(now, vm);
                excess -= 1;
            }
        }
    }

    // --- control ticks -------------------------------------------------

    /// Monitored service statistics: retired instances first, then live
    /// instances in ascending VM id — the same fixed merge order as the
    /// final summary. Falls back to the configured priors below 30
    /// observations, like the serial engine.
    fn monitored_service(&self) -> (f64, f64) {
        let mut stats = self.retired_service;
        let mut ids: Vec<u32> = self
            .active
            .iter()
            .chain(self.draining.iter())
            .copied()
            .collect();
        ids.sort_unstable();
        for vm in ids {
            stats.merge(&self.shards[self.shard_of(vm)].world().vms[self.local_of(vm)].service);
        }
        if stats.count() >= 30 {
            let mean = stats.mean();
            (mean, stats.population_variance() / (mean * mean))
        } else {
            (
                self.cfg.initial_service_estimate,
                self.cfg.initial_scv_estimate,
            )
        }
    }

    fn monitor(&mut self, now: SimTime) {
        self.policy
            .observe_arrivals(now, self.window_arrivals, self.cfg.monitor_interval);
        self.window_arrivals = 0;
        let next = now + self.cfg.monitor_interval;
        self.next_monitor = (next <= self.horizon).then_some(next);
    }

    fn evaluate(&mut self, now: SimTime) {
        let (tm, scv) = self.monitored_service();
        let new_k = self.policy.queue_capacity(tm);
        if new_k != self.k {
            self.k = new_k;
            for s in &mut self.shards {
                s.world_mut().k = new_k;
            }
        }
        let busy = self.active.iter().filter(|&&vm| self.qlen(vm) > 0).count();
        let status = PoolStatus {
            now,
            active_instances: (self.active.len() + self.booting.len()) as u32,
            draining_instances: self.draining.len() as u32,
            monitor: MonitorReport {
                mean_service_time: tm,
                service_scv: scv,
                observed_arrival_rate: self.window_arrivals as f64
                    / self.cfg.monitor_interval.max(1e-9),
                pool_utilization: if self.active.is_empty() {
                    0.0
                } else {
                    busy as f64 / self.active.len() as f64
                },
            },
        };
        let target = self.policy.evaluate(&status);
        if let Some(d) = self.policy.last_decision().copied() {
            self.probe.on_sizing(now, &d);
        }
        self.apply_target(target, now);
        let next = self.policy.next_evaluation(now);
        self.next_eval = (next <= self.horizon).then_some(next);
    }

    /// The next barrier after `now`: the earliest control event, capped
    /// at the horizon.
    fn next_barrier(&self, now: SimTime) -> SimTime {
        let mut next = self.horizon;
        if let Some(t) = self.next_monitor {
            next = next.min(t);
        }
        if let Some(t) = self.next_eval {
            next = next.min(t);
        }
        if let Some(&(done, _)) = self.booting.first() {
            next = next.min(done);
        }
        debug_assert!(next > now, "barrier must advance the clock");
        next
    }

    // --- run ------------------------------------------------------------

    fn run(mut self) -> (RunSummary, P, Vec<Engine<ShardWorld>>) {
        // Barrier at t = 0: the initial evaluation (the monitor first
        // fires one interval in). Within a barrier the order is fixed:
        // deaths, boot activations, monitor, evaluate.
        let mut now = SimTime::ZERO;
        self.evaluate(now);
        while now < self.horizon {
            let next = self.next_barrier(now);
            let windows = self.route_window(next);
            self.run_shards(windows, next, false);
            now = next;
            self.collect_window();
            self.activate_boots(now);
            if self.next_monitor == Some(now) {
                self.monitor(now);
            }
            if self.next_eval == Some(now) {
                self.evaluate(now);
            }
        }
        // Drain: expand the rest of the workload (every remaining
        // arrival lies past the horizon), freeze the fleet, stop the
        // failure clocks, and let each shard run dry.
        let windows = self.route_window(SimTime::from_secs(f64::MAX));
        self.run_shards(windows, self.horizon, true);
        self.collect_window();
        let end = self
            .shards
            .iter()
            .map(|s| s.now())
            .fold(self.horizon, SimTime::max);

        // Final reduction, all in ascending VM id: live instances fold
        // after the retired accumulators, then billing.
        let mut response = self.retired_response;
        let mut busy = self.retired_busy;
        let mut qos = self.retired_qos;
        for vm in 0..self.vms.len() as u32 {
            if self.vms[vm as usize].state == MetaState::Active {
                let v = &self.shards[self.shard_of(vm)].world().vms[self.local_of(vm)];
                response.merge(&v.response);
                busy += v.busy_seconds;
                qos += v.qos_violations;
            }
        }
        for (vm, meta) in self.vms.iter().enumerate() {
            match meta.state {
                MetaState::Active | MetaState::Booting => {
                    self.metrics.vm_seconds += end - meta.created_at;
                }
                MetaState::Draining => unreachable!("instance {vm} still draining after drain"),
                MetaState::Dead => {}
            }
        }
        self.metrics.response = response;
        self.metrics.busy_seconds = busy;
        self.metrics.qos_violations = qos;
        for s in &self.shards {
            let w = s.world();
            self.metrics.offered += w.offered;
            self.metrics.rejected += w.rejected;
            self.metrics.offered_high += w.offered_high;
            self.metrics.rejected_high += w.rejected_high;
            self.metrics.instance_failures += w.instance_failures;
            self.metrics.requests_lost_to_failures += w.requests_lost;
        }
        let summary = self.metrics.finalize(end, &self.policy.name());
        (summary, self.probe, self.shards)
    }
}

/// Runs one simulation partitioned over `nshards` shards. The merged
/// [`RunSummary`] is bit-identical for every `nshards ≥ 1` (see the
/// module docs); wall clock shrinks roughly linearly while shard event
/// volume dominates the coordinator's routing work.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sharded<P: Probe, W: ArrivalProcess, D: Dispatcher>(
    cfg: SimConfig,
    workload: W,
    service: ServiceModel,
    policy: Box<dyn ProvisioningPolicy>,
    dispatcher: D,
    rngs: &RngFactory,
    probe: P,
    nshards: u32,
    mut scratch: Option<&mut SimScratch>,
) -> (RunSummary, P) {
    assert!(nshards >= 1, "shard count must be at least 1");
    assert!(
        probe.sample_interval().is_none(),
        "sampling probes are not supported in sharded runs (aggregate \
         pool state is only consistent at barriers); run with shards off"
    );
    assert!(
        !cfg.metrics.histogram,
        "response-time histograms are not supported in sharded runs; \
         run with shards off"
    );
    let routing = match dispatcher.name() {
        "round-robin" => Routing::RoundRobin,
        "random" => Routing::Random,
        other => panic!(
            "dispatcher {other:?} is not supported in sharded runs: its \
             picks depend on live queue state, which is only consistent \
             at barriers; run with shards off"
        ),
    };
    let record = probe.observes_events();
    let horizon = workload.horizon();
    let k = policy.queue_capacity(cfg.initial_service_estimate);

    let mut shard_engines = Vec::with_capacity(nshards as usize);
    let mut warm = match scratch {
        Some(ref mut s) => std::mem::take(&mut s.shard_queues),
        None => Vec::new(),
    };
    for _ in 0..nshards {
        let world = ShardWorld {
            nshards,
            k,
            ts: cfg.qos_ts,
            priority: cfg.priority,
            service_model: service,
            rngs: *rngs,
            vms: Vec::new(),
            window: Vec::new(),
            deaths: Vec::new(),
            offered: 0,
            rejected: 0,
            offered_high: 0,
            rejected_high: 0,
            instance_failures: 0,
            requests_lost: 0,
            record,
            log: Vec::new(),
        };
        // Recycled FELs must match the run's backend, as in the serial
        // scratch path; mismatches fall back to fresh storage.
        let engine = match warm.pop() {
            Some(q) if q.backend() == cfg.fel_backend => Engine::with_recycled_queue(world, q),
            _ => Engine::with_backend(world, cfg.fel_backend),
        };
        shard_engines.push(engine);
    }

    let requested = policy.initial_instances();
    let mut coord = Coordinator {
        nshards,
        horizon,
        rng_arrivals: rngs.stream("arrivals"),
        workload,
        pending: Vec::new(),
        pending_pos: 0,
        arrival_run: cfg.arrival_run.max(1) as usize,
        last_batch_time: SimTime::ZERO,
        gen_seq: 0,
        pen: Vec::new(),
        arrival_index: 0,
        window_arrivals: 0,
        policy,
        routing,
        rngs: *rngs,
        hosts: HostPool::new(cfg.hosts, cfg.host_shape, cfg.placement),
        k,
        vms: Vec::new(),
        active: Vec::new(),
        draining: Vec::new(),
        booting: Vec::new(),
        shards: shard_engines,
        metrics: RunMetrics::new(0, cfg.metrics),
        retired_response: OnlineStats::new(),
        retired_service: OnlineStats::new(),
        retired_busy: 0.0,
        retired_qos: 0,
        next_monitor: (cfg.monitor_interval <= horizon.as_secs())
            .then(|| SimTime::from_secs(cfg.monitor_interval)),
        next_eval: None,
        probe,
        record,
        cfg,
    };
    // Initial fleet exists (active) at t = 0, as in the paper; instance
    // tracking starts at its realized size.
    for _ in 0..requested {
        coord.create_instance(SimTime::ZERO, true);
    }
    coord.metrics.instances = TimeWeighted::new(SimTime::ZERO, coord.active.len() as f64);
    // The first burst is pulled lazily by `fill_pen`; the arrivals
    // stream is read nowhere else, so the draw sequence is unchanged.

    let (summary, probe, shards) = coord.run();
    if let Some(s) = scratch {
        // Hand the shard FELs back for the next run on this thread
        // (warm `SimScratch` recycling, as on the serial path).
        s.shard_queues = shards.into_iter().map(|e| e.into_parts().1).collect();
    }
    (summary, probe)
}
