//! Isolated per-layer measurements, driven with the inputs the traced
//! pass captured, and the per-request ledger that sets them against
//! the traced cost of each cell.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use vmprov_cloudsim::RunMetrics;
use vmprov_core::dispatch::{Dispatcher, InstancePool, InstanceView, RoundRobin};
use vmprov_core::{ModelerOptions, PerformanceModeler, SizingCache};
use vmprov_des::{EventQueue, RngFactory, SimTime};
use vmprov_experiments::runner::replication_seed;
use vmprov_experiments::scenario::MAX_VMS;
use vmprov_experiments::{builder_for, Scenario};
use vmprov_workloads::{
    generate_piecewise_csv, ArrivalBatch, ArrivalProcess, CsvReader, DatasetReader, TraceSpec,
    DEFAULT_CHUNK,
};

use crate::probe::LedgerProbe;
use crate::spans::{SpanId, Spans};
use crate::workloads::{Inputs, Pass, TracedJob, TracedPass};

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile `q` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median over `reps` timings of `f`, in nanoseconds per operation.
fn ns_per_op(ops: u64, reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&times)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Hold model at `pending` events, in the form of quickbench's
/// `fel_hold_*` entries: pop the earliest event and schedule it again
/// `U(0, 2)` seconds later, over a queue filled at one event per half
/// second. One pop or one schedule is one operation.
fn fel_hold_ns(pending: usize) -> f64 {
    const PAIRS: u64 = 1 << 19;
    let mut rng = RngFactory::new(0x5EED).stream("vmbench.fel");
    let gaps: Vec<f64> = (0..1 << 16).map(|_| 2.0 * rng.uniform01() + 1e-9).collect();
    let mut q: EventQueue<u32> = EventQueue::with_capacity(pending.max(1));
    let mut t = 0.0;
    for i in 0..pending.max(1) {
        t += gaps[i % gaps.len()] / 2.0;
        q.schedule(SimTime::from_secs(t), 0);
    }
    let mut g = 0usize;
    let mut hold = |n: u64| {
        for _ in 0..n {
            let (now, e) = q.pop().expect("the hold keeps the queue non-empty");
            q.schedule(now + gaps[g], black_box(e));
            g = (g + 1) & (gaps.len() - 1);
        }
    };
    hold(PAIRS);
    ns_per_op(2 * PAIRS, 5, || hold(PAIRS))
}

/// A fixed instance pool with a has-room bitset, for the dispatch bench.
struct BenchPool {
    views: Vec<InstanceView>,
    bits: Vec<u64>,
    free: usize,
}

impl BenchPool {
    /// `m` instances of capacity `k`, each full with probability
    /// `full_share` (seeded).
    fn new(m: usize, k: u32, full_share: f64) -> Self {
        let mut rng = RngFactory::new(0xD15C).stream("vmbench.dispatch");
        let mut bits = vec![0u64; m.div_ceil(64).max(1)];
        let mut free = 0;
        let views = (0..m)
            .map(|i| {
                let full = rng.uniform01() < full_share;
                if !full {
                    bits[i >> 6] |= 1 << (i & 63);
                    free += 1;
                }
                InstanceView {
                    in_system: if full { k } else { 0 },
                    capacity: k,
                    accepting: true,
                }
            })
            .collect();
        BenchPool { views, bits, free }
    }
}

impl InstancePool for BenchPool {
    fn len(&self) -> usize {
        self.views.len()
    }
    fn view(&self, i: usize) -> InstanceView {
        self.views[i]
    }
    fn has_free(&self) -> bool {
        self.free > 0
    }
    fn room_bits(&self) -> Option<&[u64]> {
        Some(&self.bits)
    }
}

fn pick_ns(m: usize, k: u32, full_share: f64) -> f64 {
    const OPS: u64 = 1 << 20;
    let pool = BenchPool::new(m.max(1), k.max(1), full_share);
    let mut rr = RoundRobin::new();
    ns_per_op(OPS, 5, || {
        for _ in 0..OPS {
            black_box(rr.pick(black_box(&pool), 0.5));
        }
    })
}

fn completion_ns(scenario: &Scenario, pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let cfg = scenario.sim_config();
    let rounds = ((1usize << 20) / pairs.len()).max(1);
    ns_per_op((rounds * pairs.len()) as u64, 5, || {
        let mut m = RunMetrics::new(1, cfg.metrics);
        for _ in 0..rounds {
            for &(r, s) in pairs {
                m.record_run_completion(r, s, cfg.qos_ts);
            }
        }
        black_box(&m);
    })
}

/// Replays every captured decision input through Algorithm 1 with a
/// fresh per-job sizing cache, as each run's policy does.
fn decision_ns(scenario: &Scenario, jobs: &[&TracedJob]) -> f64 {
    let n: usize = jobs.iter().map(|j| j.probe.sizings.len()).sum();
    if n == 0 {
        return 0.0;
    }
    let options = ModelerOptions {
        backend: scenario.backend,
        ..ModelerOptions::default()
    };
    let modeler = PerformanceModeler::new(scenario.qos(), MAX_VMS, options);
    ns_per_op(n as u64, 3, || {
        for job in jobs {
            let mut cache = SizingCache::new();
            for (inputs, _) in &job.probe.sizings {
                black_box(modeler.required_instances_cached(inputs, &mut cache));
            }
        }
    })
}

/// Drains one job's arrival process through the batch-run seam.
fn drain_arrivals(scenario: &Scenario, rep: u32, keep: bool) -> (u64, u64, Vec<ArrivalBatch>) {
    let mut w = scenario.build_workload();
    let mut rng = RngFactory::new(replication_seed(scenario.seed, rep)).stream("vmbench.arrivals");
    let run = scenario.arrival_run.max(1) as usize;
    let (mut batches, mut requests, mut kept) = (0u64, 0u64, Vec::new());
    let mut buf = Vec::with_capacity(run);
    loop {
        buf.clear();
        if w.next_batch_run(&mut rng, run, &mut buf) == 0 {
            return (batches, requests, kept);
        }
        batches += buf.len() as u64;
        requests += buf.iter().map(|b| b.count).sum::<u64>();
        if keep {
            kept.extend_from_slice(&buf);
        }
    }
}

/// Arrival events already scheduled but not yet fired at `t`: the
/// remaining share of the spread window of the batch covering `t`.
fn in_flight(batches: &[ArrivalBatch], t: f64) -> f64 {
    let i = batches.partition_point(|b| b.time.as_secs() <= t);
    match i.checked_sub(1).map(|i| batches[i]) {
        Some(b) if b.spread > 0.0 && t < b.time.as_secs() + b.spread => {
            b.count as f64 * (b.time.as_secs() + b.spread - t) / b.spread
        }
        _ => 0.0,
    }
}

/// Builder plus a one-simulated-second run, in microseconds (median of 5).
fn setup_us(scenario: &Scenario) -> f64 {
    let rngs = RngFactory::new(replication_seed(scenario.seed, 0));
    1e-3 * ns_per_op(1, 5, || {
        black_box(builder_for(scenario).run(&rngs));
    })
}

/// Cost of one trace scan and of decoding one row.
fn dataset_costs(path: &Path) -> (f64, f64) {
    let scan_s: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(TraceSpec::scan(path, DEFAULT_CHUNK).expect("trace unchanged since setup"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let decode: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut reader = CsvReader::open(path).expect("trace unchanged since setup");
            let mut buf = Vec::with_capacity(DEFAULT_CHUNK);
            let mut rows = 0u64;
            loop {
                buf.clear();
                let n = reader
                    .read_chunk(&mut buf, DEFAULT_CHUNK)
                    .expect("valid trace");
                if n == 0 {
                    break;
                }
                rows += n as u64;
            }
            t.elapsed().as_nanos() as f64 / rows.max(1) as f64
        })
        .collect();
    (median(&scan_s), median(&decode))
}

/// One row of the per-request ledger (nanoseconds per offered request).
pub struct LedgerRow {
    /// Cell group label.
    pub cell: String,
    /// Offered requests, summed over the group's jobs.
    pub offered: u64,
    /// Traced CPU nanoseconds per offered request.
    pub traced: f64,
    /// Isolated layer costs, in ledger order.
    pub layers: [f64; 6],
}

impl LedgerRow {
    /// Traced cost minus the sum of the isolated layer costs.
    pub fn residual(&self) -> f64 {
        self.traced - self.layers.iter().sum::<f64>()
    }
}

/// Column names of [`LedgerRow::layers`].
pub const LEDGER_LAYERS: [&str; 6] = ["fel", "arrivals", "dispatch", "dist", "metrics", "modeler"];

/// Every per-layer metric, plus the ledger rows behind the residual.
pub struct LayerReport {
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-cell-group ledger.
    pub ledger: Vec<LedgerRow>,
}

/// Measures every layer in isolation and assembles the per-layer
/// metrics. `untraced` is a measured pass of the same inputs (its
/// program-side counters), `overhead_share` the traced-run overhead.
pub fn measure(
    inputs: &Inputs,
    untraced: &Pass,
    traced: &TracedPass,
    overhead_share: f64,
    spans: &Spans,
    parent: SpanId,
) -> LayerReport {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let jobs = &traced.jobs;
    let sum =
        |f: &dyn Fn(&LedgerProbe) -> u64| jobs.iter().map(|j| f(&j.probe)).sum::<u64>() as f64;
    let offered = sum(&|p| p.arrivals);
    let events = sum(&|p| p.events());
    let decisions = sum(&|p| p.sizings.len() as u64);

    // Arrival generation (synthetic workloads only: replays bypass it).
    let synthetic = inputs.grid.is_none();
    let mut group_batches: Vec<Vec<ArrivalBatch>> = vec![Vec::new(); inputs.scenarios.len()];
    let (mut batches, mut requests, mut arrivals_s) = (0u64, 0u64, 0.0f64);
    if synthetic {
        spans.scope("layer.workloads.arrivals", Some(parent), || {
            for (g, s) in inputs.scenarios.iter().enumerate() {
                for rep in 0..inputs.reps {
                    let t = Instant::now();
                    let (b, r, kept) = drain_arrivals(s, rep, rep == 0);
                    arrivals_s += t.elapsed().as_secs_f64();
                    batches += b;
                    requests += r;
                    if rep == 0 {
                        group_batches[g] = kept;
                    }
                }
            }
        });
    }
    let arrivals_ns = ratio(arrivals_s * 1e9, requests as f64);

    // Pending events at each sample: one timer per busy or booting
    // instance, the arrivals of the current batch still to fire, and
    // the batch, monitor and policy ticks.
    let mut pending: Vec<f64> = Vec::new();
    for job in jobs {
        let batches = &group_batches[job.group];
        pending.extend(
            job.probe
                .samples
                .iter()
                .map(|s| f64::from(s.timers) + in_flight(batches, s.t) + 3.0),
        );
    }
    let pending_p50 = median(&pending);
    let pending_max = pending.iter().copied().fold(0.0, f64::max);
    let hold_ns = spans.scope("layer.des.event", Some(parent), || {
        fel_hold_ns(pending_p50.round() as usize)
    });
    let service = inputs.scenarios[0].service_model();
    let draw_ns = spans.scope("layer.des.dist", Some(parent), || {
        let mut rng = RngFactory::new(0xD1).stream("vmbench.dist");
        ns_per_op(1 << 20, 5, || {
            for _ in 0..1 << 20 {
                black_box(service.sample(&mut rng));
            }
        })
    });

    // Dataset ingestion (replays only).
    let (mut bytes, mut scan_s, mut decode_ns) = (0.0, 0.0, 0.0);
    if let Some(path) = &inputs.trace_path {
        bytes = std::fs::metadata(path).expect("trace file exists").len() as f64;
        (scan_s, decode_ns) = spans.scope("layer.workloads.dataset", Some(parent), || {
            dataset_costs(path)
        });
    }
    let grid = untraced.grid.as_ref();
    let cells = inputs.jobs() as f64;
    let waves = grid.map_or(0.0, |g| g.scan_waves as f64);
    let rows_per_request = inputs.grid.as_ref().map_or(0.0, |g| {
        ratio(g.spec.batches as f64, g.spec.total_requests as f64)
    });

    // Per-group ledger.
    let mut ledger = Vec::new();
    let mut pick_weighted = 0.0;
    let mut completion_weighted = 0.0;
    let mut decision_total_ns = 0.0;
    let mut setup_us_all = Vec::new();
    let prefix = inputs.trace_path.as_ref().map(|p| prefix_trace(inputs, p));
    for (g, scenario) in inputs.scenarios.iter().enumerate() {
        let gj: Vec<&TracedJob> = jobs.iter().filter(|j| j.group == g).collect();
        let gsum =
            |f: &dyn Fn(&LedgerProbe) -> u64| gj.iter().map(|j| f(&j.probe)).sum::<u64>() as f64;
        let g_offered = gsum(&|p| p.arrivals);
        let samples: Vec<_> = gj.iter().flat_map(|j| j.probe.samples.iter()).collect();
        let active = median(
            &samples
                .iter()
                .map(|s| f64::from(s.active))
                .collect::<Vec<_>>(),
        );
        let busy = samples
            .iter()
            .map(|s| ratio(f64::from(s.timers), f64::from(s.active)).min(1.0))
            .sum::<f64>()
            / samples.len().max(1) as f64;
        let k = samples.last().map_or(1, |s| s.k);
        let label = if synthetic {
            scenario.policy_label()
        } else {
            scenario.analyzer.label().to_string()
        };
        let pick = spans.scope(format!("layer.core.dispatch.{label}"), Some(parent), || {
            pick_ns(active.round() as usize, k, busy)
        });
        let completion = spans.scope(
            format!("layer.cloudsim.metrics.{label}"),
            Some(parent),
            || completion_ns(scenario, &gj[0].probe.pairs),
        );
        let decision = spans.scope(format!("layer.core.modeler.{label}"), Some(parent), || {
            decision_ns(scenario, &gj)
        });
        let setup_scenario = match &prefix {
            Some(spec) => grid_cell_on(spec, scenario),
            None => scenario.clone().with_horizon(SimTime::from_secs(1.0)),
        };
        setup_us_all.push(
            spans.scope(format!("layer.cloudsim.sim.{label}"), Some(parent), || {
                setup_us(&setup_scenario)
            }),
        );
        pick_weighted += pick * g_offered;
        completion_weighted += completion * gsum(&|p| p.completions);
        decision_total_ns += decision * gsum(&|p| p.sizings.len() as u64);
        let per_req = |count: f64, ns: f64| ratio(count * ns, g_offered);
        let ingest = if synthetic {
            arrivals_ns
        } else {
            decode_ns * rows_per_request * ratio(waves, cells)
        };
        ledger.push(LedgerRow {
            cell: label,
            offered: g_offered as u64,
            traced: ratio(gj.iter().map(|j| j.cpu_ns as f64).sum(), g_offered),
            layers: [
                per_req(gsum(&|p| p.events()), 2.0 * hold_ns),
                ingest,
                pick,
                per_req(gsum(&|p| p.admits), draw_ns),
                per_req(gsum(&|p| p.completions), completion),
                per_req(gsum(&|p| p.sizings.len() as u64), decision),
            ],
        });
    }
    let residual = ratio(
        ledger.iter().map(|r| r.residual() * r.offered as f64).sum(),
        ledger.iter().map(|r| r.offered as f64).sum(),
    );

    let job_ms: Vec<f64> = jobs.iter().map(|j| j.wall * 1e3).collect();
    let lookups = traced.lookup_s.len() as f64;
    let completions = sum(&|p| p.completions);

    m.insert("des.event.events", events);
    m.insert("des.event.pending_p50", pending_p50);
    m.insert("des.event.pending_max", pending_max);
    m.insert("des.event.ns_per_op", hold_ns);
    m.insert("des.dist.draws", sum(&|p| p.admits));
    m.insert("des.dist.ns_per_draw", draw_ns);
    m.insert("workloads.arrivals.batches", batches as f64);
    m.insert("workloads.arrivals.ns_per_request", arrivals_ns);
    m.insert("core.dispatch.offered", offered);
    m.insert(
        "core.dispatch.reject_share",
        ratio(sum(&|p| p.rejects), offered),
    );
    m.insert("core.dispatch.ns_per_pick", ratio(pick_weighted, offered));
    m.insert("cloudsim.metrics.completions", completions);
    m.insert(
        "cloudsim.metrics.ns_per_completion",
        ratio(completion_weighted, completions),
    );
    m.insert("core.modeler.decisions", decisions);
    m.insert("core.modeler.iterations", sum(&|p| p.iterations()));
    m.insert(
        "core.modeler.decisions_per_mreq",
        ratio(decisions * 1e6, offered),
    );
    m.insert(
        "core.modeler.ns_per_decision",
        ratio(decision_total_ns, decisions),
    );
    m.insert("cloudsim.vm.boots", sum(&|p| p.boots));
    m.insert("cloudsim.vm.drains", sum(&|p| p.drains));
    m.insert("cloudsim.vm.destroys", sum(&|p| p.destroys));
    m.insert("cloudsim.sim.setup_us_per_run", median(&setup_us_all));
    m.insert("experiments.runner.job_ms_p50", quantile(&job_ms, 0.5));
    m.insert("experiments.runner.job_ms_p99", quantile(&job_ms, 0.99));
    m.insert(
        "des.pool.busy_share",
        ratio(
            job_ms.iter().sum::<f64>() * 1e-3,
            traced.wall * traced.workers as f64,
        ),
    );
    m.insert("experiments.cache.stores", traced.store_s.len() as f64);
    m.insert(
        "experiments.cache.store_us",
        ratio(
            traced.store_s.iter().sum::<f64>() * 1e6,
            traced.store_s.len() as f64,
        ),
    );
    m.insert(
        "experiments.cache.lookup_us",
        ratio(traced.lookup_s.iter().sum::<f64>() * 1e6, lookups),
    );
    m.insert(
        "experiments.cache.hit_share",
        ratio(traced.hits as f64, lookups),
    );
    m.insert("workloads.dataset.bytes", bytes);
    m.insert("workloads.dataset.scan_s", scan_s);
    m.insert("workloads.dataset.decode_ns_per_row", decode_ns);
    m.insert("experiments.grid.scan_waves", waves);
    m.insert(
        "experiments.grid.batches_decoded",
        grid.map_or(0.0, |g| g.batches_decoded as f64),
    );
    m.insert(
        "experiments.grid.scans_per_cell",
        if grid.is_some() {
            ratio(waves, cells)
        } else {
            0.0
        },
    );
    m.insert("cloudsim.sim.residual_ns_per_request", residual);
    m.insert("trace.overhead_share", overhead_share);
    LayerReport { metrics: m, ledger }
}

/// Scans a trace holding the first simulated second of the workload's
/// trace (same pieces and seed), for the per-run setup measurement of
/// replay cells.
fn prefix_trace(inputs: &Inputs, path: &Path) -> TraceSpec {
    let prefix = path.with_file_name("prefix.csv");
    let file = std::fs::File::create(&prefix).expect("create the prefix trace");
    generate_piecewise_csv(
        file,
        &inputs.trace_pieces,
        SimTime::from_secs(1.0),
        inputs.seed,
    )
    .expect("write the prefix trace");
    TraceSpec::scan(&prefix, DEFAULT_CHUNK).expect("scan the prefix trace")
}

/// `cell`'s replay scenario on trace `spec` instead of its own.
fn grid_cell_on(spec: &TraceSpec, cell: &Scenario) -> Scenario {
    Scenario::trace_replay(spec.clone(), cell.policy, cell.seed).with_analyzer(cell.analyzer)
}
