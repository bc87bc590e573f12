//! The three benchmark workloads: input generation from the seed
//! (setup), the measured pass through the program's public entry
//! points, and the traced pass that re-runs the same jobs with the
//! benchmark's probe attached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use vmprov_cloudsim::{RunSummary, SimBuilder, StatsMode};
use vmprov_des::{pool, RngFactory, SimTime, HOUR};
use vmprov_experiments::runner::replication_seed;
use vmprov_experiments::scenario::ANALYZER_INTERVAL;
use vmprov_experiments::{
    builder_for, fig5_scenarios, fig6_scenarios, run_once_warm, AnalyzerSpec, Campaign, GridStats,
    Lookup, ReplayGrid, RunCache, Scenario,
};
use vmprov_workloads::{generate_piecewise_csv, AnyWorkload, TraceSpec, DEFAULT_CHUNK};

use crate::probe::LedgerProbe;
use crate::spans::{SpanId, Spans};
use crate::sys;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig 5 policy set on the web workload, cold run cache.
    WebFig5,
    /// Fig 6 policy set, replicated into thousands of jobs, cold then
    /// warm run cache.
    SciFig6Reps,
    /// A stepped trace replayed through a three-analyzer grid.
    TraceGrid,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::WebFig5, Kind::SciFig6Reps, Kind::TraceGrid];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WebFig5 => "web_fig5",
            Kind::SciFig6Reps => "sci_fig6_reps",
            Kind::TraceGrid => "trace_grid",
        }
    }

    /// Parses the `--workload` spelling.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Input sizes. `full` is what the benchmark measures; `smoke` is the
/// size the benchmark's own tests run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Name recorded beside digests.
    pub name: &'static str,
    /// Simulated horizon of every Fig 5 cell (seconds).
    pub web_horizon: f64,
    /// Replications of each Fig 6 policy.
    pub sci_reps: u32,
    /// Rate steps of the generated trace, one per analyzer interval.
    pub trace_rates: [f64; 4],
    /// Replications of each grid analyzer.
    pub trace_reps: u32,
}

impl Scale {
    /// The measured size.
    pub const FULL: Scale = Scale {
        name: "full",
        web_horizon: 2.0 * HOUR,
        sci_reps: 250,
        trace_rates: [150.0, 450.0, 300.0, 200.0],
        trace_reps: 2,
    };

    /// The size of the benchmark's own tests.
    pub const SMOKE: Scale = Scale {
        name: "smoke",
        web_horizon: ANALYZER_INTERVAL + 600.0,
        sci_reps: 4,
        trace_rates: [10.0, 40.0, 25.0, 15.0],
        trace_reps: 1,
    };

    /// Parses the `--scale` spelling.
    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::FULL, Scale::SMOKE]
            .into_iter()
            .find(|x| x.name == s)
    }

    /// `(start, rate)` pieces of the generated trace: the rate steps
    /// after every analyzer interval, so the estimators see a change
    /// once they tick at the end of the first interval.
    pub fn trace_pieces(&self) -> Vec<(f64, f64)> {
        self.trace_rates
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as f64 * ANALYZER_INTERVAL, r))
            .collect()
    }

    /// End of the generated trace: one analyzer interval per step.
    pub fn trace_horizon(&self) -> SimTime {
        SimTime::from_secs(self.trace_rates.len() as f64 * ANALYZER_INTERVAL)
    }
}

/// The analyzers of the replay grid, oracle first.
pub const GRID_ANALYZERS: [&str; 3] = ["oracle", "mle", "ewma"];

/// A workload's generated inputs: one scenario per cell group (Fig 5
/// policy, Fig 6 policy, or grid analyzer), each run `reps` times.
pub struct Inputs {
    /// Which workload.
    pub kind: Kind,
    /// Base seed.
    pub seed: u64,
    /// One scenario per group.
    pub scenarios: Vec<Scenario>,
    /// Replications per group.
    pub reps: u32,
    /// The replay grid (trace workload only).
    pub grid: Option<ReplayGrid>,
    /// Generated trace file (trace workload only).
    pub trace_path: Option<PathBuf>,
    /// Pieces and horizon the trace was generated with.
    pub trace_pieces: Vec<(f64, f64)>,
    /// Directory holding this setup's files.
    pub dir: PathBuf,
}

impl Inputs {
    /// Jobs one cold pass runs.
    pub fn jobs(&self) -> usize {
        self.scenarios.len() * self.reps as usize
    }

    /// Whether the pass repeats every job against a warm run cache.
    pub fn has_warm_pass(&self) -> bool {
        self.kind == Kind::SciFig6Reps
    }

    /// Whether the pass goes through a run cache at all.
    pub fn uses_cache(&self) -> bool {
        self.kind != Kind::TraceGrid
    }
}

/// Builds a workload's inputs under `dir` (created here): scenarios,
/// the trace file and its scan, the cache root, and a warm-up run.
pub fn setup(kind: Kind, seed: u64, scale: Scale, workers: usize, dir: &Path) -> Inputs {
    std::fs::create_dir_all(dir.join("cache")).expect("create the benchmark work directory");
    let mut inputs = Inputs {
        kind,
        seed,
        scenarios: Vec::new(),
        reps: 1,
        grid: None,
        trace_path: None,
        trace_pieces: Vec::new(),
        dir: dir.to_path_buf(),
    };
    match kind {
        Kind::WebFig5 => {
            inputs.scenarios = fig5_scenarios(seed, SimTime::from_secs(scale.web_horizon))
        }
        Kind::SciFig6Reps => {
            inputs.scenarios = fig6_scenarios(seed);
            inputs.reps = scale.sci_reps;
        }
        Kind::TraceGrid => {
            let path = dir.join("trace.csv");
            let pieces = scale.trace_pieces();
            let file = std::fs::File::create(&path).expect("create the trace file");
            generate_piecewise_csv(file, &pieces, scale.trace_horizon(), seed)
                .expect("write the generated trace");
            let spec = TraceSpec::scan(&path, DEFAULT_CHUNK).expect("scan the generated trace");
            let grid = ReplayGrid {
                spec,
                analyzers: GRID_ANALYZERS
                    .iter()
                    .map(|a| AnalyzerSpec::parse(a).expect("known analyzer"))
                    .collect(),
                reps: scale.trace_reps,
                shards: None,
                fel: None,
                stats: StatsMode::Streaming,
                seed,
                concurrency: Some(workers),
            };
            inputs.scenarios = grid
                .analyzers
                .iter()
                .map(|&a| grid.cell_scenario(a))
                .collect();
            inputs.reps = scale.trace_reps;
            inputs.grid = Some(grid);
            inputs.trace_path = Some(path);
            inputs.trace_pieces = pieces;
        }
    }
    // Warm-up: rep 0 of every cell group, on the pool. A replay's
    // length is the trace's whatever the scenario horizon, so the grid
    // warms up in its scan instead; web cells run their first ten
    // simulated minutes, Fig 6 cells (1-2 ms each) their whole day.
    let warm_horizon = match kind {
        Kind::WebFig5 => Some(SimTime::from_secs(600.0)),
        Kind::SciFig6Reps => Some(SimTime::from_secs(vmprov_des::DAY)),
        Kind::TraceGrid => None,
    };
    if let Some(h) = warm_horizon {
        let warm: Vec<Scenario> = inputs
            .scenarios
            .iter()
            .map(|s| s.clone().with_horizon(h))
            .collect();
        pool::global().run_batch(warm, |_, s| run_once_warm(&s, 0));
    }
    inputs
}

/// What one measured pass returned.
pub struct Pass {
    /// Host wall seconds.
    pub wall: f64,
    /// Process CPU seconds.
    pub cpu: f64,
    /// Offered simulated requests, summed over cells.
    pub offered: u64,
    /// Cold-pass summaries per group, in rep order (empty on panic).
    pub cold: Vec<Vec<RunSummary>>,
    /// Warm-pass summaries per group (sci only).
    pub warm: Option<Vec<Vec<RunSummary>>>,
    /// Panic message, if the pass panicked.
    pub panic: Option<String>,
    /// Grid counters (trace only).
    pub grid: Option<GridStats>,
}

impl Pass {
    /// Jobs the pass attempted (cold plus warm).
    pub fn attempted(inputs: &Inputs) -> usize {
        inputs.jobs() * if inputs.has_warm_pass() { 2 } else { 1 }
    }
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

fn campaign_pass(inputs: &Inputs, cache: &RunCache) -> Vec<Vec<RunSummary>> {
    let mut campaign = Campaign::new(Some(cache.clone()));
    let fig = campaign.add_figure(inputs.scenarios.clone(), inputs.reps);
    campaign
        .run()
        .take(fig)
        .into_iter()
        .map(|r| r.runs)
        .collect()
}

/// One measured pass: the workload's job batch through the program's
/// own entry point (`Campaign` or `ReplayGrid`), every job under
/// `catch_unwind`. `pass_no` names the pass's fresh cache directory.
pub fn run_pass(inputs: &Inputs, pass_no: usize) -> Pass {
    let cache_dir = inputs.dir.join("cache").join(format!("pass-{pass_no}"));
    let cache = inputs
        .uses_cache()
        .then(|| RunCache::open(&cache_dir).expect("open a fresh run cache"));
    let cpu0 = sys::process_cpu();
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| match &inputs.grid {
        Some(grid) => {
            let out = grid.run(None);
            let mut groups = vec![Vec::new(); grid.analyzers.len()];
            for (i, cell) in out.cells.into_iter().enumerate() {
                groups[i / grid.reps as usize].push(cell.summary);
            }
            (groups, None, Some(out.stats))
        }
        None => {
            let cache = cache.as_ref().expect("campaign workloads use a run cache");
            let cold = campaign_pass(inputs, cache);
            let warm = inputs.has_warm_pass().then(|| campaign_pass(inputs, cache));
            (cold, warm, None)
        }
    }));
    let wall = t0.elapsed().as_secs_f64();
    let cpu = (sys::process_cpu() - cpu0).as_secs_f64();
    if cache.is_some() {
        // Best effort: a leftover directory only costs disk space.
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
    match outcome {
        Ok((cold, warm, grid)) => Pass {
            wall,
            cpu,
            offered: cold.iter().flatten().map(|s| s.offered_requests).sum(),
            cold,
            warm,
            panic: None,
            grid,
        },
        Err(e) => Pass {
            wall,
            cpu,
            offered: 0,
            cold: Vec::new(),
            warm: None,
            panic: Some(panic_message(e)),
            grid: None,
        },
    }
}

/// One job of the traced pass.
pub struct TracedJob {
    /// Cell group index.
    pub group: usize,
    /// Replication.
    pub rep: u32,
    /// The run's summary.
    pub summary: RunSummary,
    /// The benchmark probe's counts and captured inputs.
    pub probe: LedgerProbe,
    /// CPU nanoseconds the job's thread spent in the run.
    pub cpu_ns: u64,
    /// Wall seconds of the job.
    pub wall: f64,
}

/// What the traced pass returned.
pub struct TracedPass {
    /// Jobs in (group, rep) order.
    pub jobs: Vec<TracedJob>,
    /// Host wall seconds of the pass.
    pub wall: f64,
    /// Pool width the jobs ran on.
    pub workers: usize,
    /// Seconds per run-cache store.
    pub store_s: Vec<f64>,
    /// Seconds per run-cache lookup.
    pub lookup_s: Vec<f64>,
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Warm lookups whose summary differs from the cold run.
    pub warm_mismatches: usize,
}

/// Sampling period of the traced probe: ~200 samples per run.
fn sample_dt(s: &Scenario) -> f64 {
    (s.horizon.as_secs() / 200.0).max(1.0)
}

fn traced_job(
    spans: &Spans,
    parent: SpanId,
    label: String,
    run: impl FnOnce() -> (RunSummary, LedgerProbe),
) -> (RunSummary, LedgerProbe, u64, f64) {
    let id = spans.begin(label, Some(parent));
    let cpu0 = sys::thread_cpu();
    let t0 = Instant::now();
    let (summary, probe) = run();
    let wall = t0.elapsed().as_secs_f64();
    let cpu_ns = u64::try_from((sys::thread_cpu() - cpu0).as_nanos()).expect("job under 584 years");
    spans.end(id);
    (summary, probe, cpu_ns, wall)
}

/// Re-runs the pass's jobs with the benchmark probe attached, timing
/// each job and each run-cache call, on the same pool width. Cache
/// calls mirror the campaign: a lookup per job before the batch, a
/// store per job after it, and (sci) a warm lookup per job.
pub fn run_traced_pass(inputs: &Inputs, spans: &'static Spans, parent: SpanId) -> TracedPass {
    let pass_span = spans.begin("pass.traced", Some(parent));
    let t0 = Instant::now();
    let pair_cap = ((1usize << 20) / inputs.jobs()).max(64);
    let labels: Vec<String> = inputs
        .scenarios
        .iter()
        .map(|s| match &inputs.grid {
            Some(_) => format!("job.{}", s.analyzer.label()),
            None => format!("job.{}", s.policy_label()),
        })
        .collect();
    let mut out = TracedPass {
        jobs: Vec::new(),
        wall: 0.0,
        workers: pool::global().workers(),
        store_s: Vec::new(),
        lookup_s: Vec::new(),
        hits: 0,
        warm_mismatches: 0,
    };
    let keys: Vec<(usize, u32)> = (0..inputs.scenarios.len())
        .flat_map(|g| (0..inputs.reps).map(move |r| (g, r)))
        .collect();
    match &inputs.grid {
        Some(grid) => {
            let wave_cap = grid.concurrency.unwrap_or(1).max(1);
            for wave in keys.chunks(wave_cap) {
                let (_scan, replays) =
                    spans.scope("dataset.replay_shared", Some(pass_span), || {
                        grid.spec
                            .replay_shared(wave.len())
                            .expect("trace unchanged since setup")
                    });
                let jobs: Vec<_> = wave
                    .iter()
                    .zip(replays)
                    .map(|(&(g, r), replay)| {
                        (g, r, inputs.scenarios[g].clone(), labels[g].clone(), replay)
                    })
                    .collect();
                let done = pool::global().run_batch(jobs, move |_, (g, r, s, label, replay)| {
                    let (summary, probe, cpu_ns, wall) =
                        traced_job(spans, pass_span, label, || {
                            SimBuilder::new(s.sim_config())
                                .workload(AnyWorkload::from(replay))
                                .service(s.service_model())
                                .policy(s.build_policy())
                                .dispatcher(s.build_dispatcher())
                                .probe(LedgerProbe::new(sample_dt(&s), pair_cap))
                                .run_probed(&RngFactory::new(replication_seed(s.seed, r)))
                        });
                    TracedJob {
                        group: g,
                        rep: r,
                        summary,
                        probe,
                        cpu_ns,
                        wall,
                    }
                });
                out.jobs.extend(done);
            }
        }
        None => {
            let cache_dir = inputs.dir.join("cache").join("traced");
            let cache = RunCache::open(&cache_dir).expect("open a fresh run cache");
            let key = |g: usize, r: u32| vmprov_experiments::run_key(&inputs.scenarios[g], r);
            let lookup = |out: &mut TracedPass, g: usize, r: u32| {
                let t = Instant::now();
                let found =
                    spans.scope("cache.lookup", Some(pass_span), || cache.lookup(key(g, r)));
                out.lookup_s.push(t.elapsed().as_secs_f64());
                found
            };
            for &(g, r) in &keys {
                if let Lookup::Hit(_) = lookup(&mut out, g, r) {
                    out.hits += 1;
                }
            }
            let jobs: Vec<_> = keys
                .iter()
                .map(|&(g, r)| (g, r, inputs.scenarios[g].clone(), labels[g].clone()))
                .collect();
            let done = pool::global().run_batch(jobs, move |_, (g, r, s, label)| {
                let (summary, probe, cpu_ns, wall) = traced_job(spans, pass_span, label, || {
                    builder_for(&s)
                        .probe(LedgerProbe::new(sample_dt(&s), pair_cap))
                        .run_probed(&RngFactory::new(replication_seed(s.seed, r)))
                });
                TracedJob {
                    group: g,
                    rep: r,
                    summary,
                    probe,
                    cpu_ns,
                    wall,
                }
            });
            for job in &done {
                let t = Instant::now();
                spans
                    .scope("cache.store", Some(pass_span), || {
                        cache.store(key(job.group, job.rep), &job.summary)
                    })
                    .expect("store a run-cache entry");
                out.store_s.push(t.elapsed().as_secs_f64());
            }
            if inputs.has_warm_pass() {
                for job in &done {
                    match lookup(&mut out, job.group, job.rep) {
                        Lookup::Hit(s) if *s == job.summary => out.hits += 1,
                        Lookup::Hit(_) => {
                            out.hits += 1;
                            out.warm_mismatches += 1;
                        }
                        _ => out.warm_mismatches += 1,
                    }
                }
            }
            out.jobs = done;
            let _ = std::fs::remove_dir_all(&cache_dir);
        }
    }
    out.wall = t0.elapsed().as_secs_f64();
    spans.end(pass_span);
    out
}
