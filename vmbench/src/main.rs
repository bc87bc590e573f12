//! `vmbench`: the repository benchmark.
//!
//! ```text
//! vmbench --workload web_fig5|sci_fig6_reps|trace_grid|all --seed N \
//!         --seconds S --trace 0|1 [--scale full|smoke]
//! ```
//!
//! Each workload is a fixed batch of simulation jobs submitted at once
//! to a pool of at most `nproc` workers (a closed loop with `nproc`
//! clients). `--trace 0` measures the end-to-end metrics; `--trace 1`
//! runs untraced and traced passes, measures every layer in isolation
//! with the traced pass's captured inputs, and prints the per-layer
//! metrics and the per-request ledger. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. See README.md.

mod checks;
mod layers;
mod probe;
mod spans;
mod sys;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vmprov_json::Json;

use crate::layers::{median, LEDGER_LAYERS};
use crate::spans::Spans;
use crate::workloads::{Inputs, Kind, Pass, Scale, TracedPass};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ns_per_request", "ns"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("des.event.events", "count"),
    ("des.event.pending_p50", "count"),
    ("des.event.pending_max", "count"),
    ("des.event.ns_per_op", "ns"),
    ("des.dist.draws", "count"),
    ("des.dist.ns_per_draw", "ns"),
    ("workloads.arrivals.batches", "count"),
    ("workloads.arrivals.ns_per_request", "ns"),
    ("core.dispatch.offered", "count"),
    ("core.dispatch.reject_share", "share"),
    ("core.dispatch.ns_per_pick", "ns"),
    ("cloudsim.metrics.completions", "count"),
    ("cloudsim.metrics.ns_per_completion", "ns"),
    ("core.modeler.decisions", "count"),
    ("core.modeler.iterations", "count"),
    ("core.modeler.decisions_per_mreq", "1/Mreq"),
    ("core.modeler.ns_per_decision", "ns"),
    ("cloudsim.vm.boots", "count"),
    ("cloudsim.vm.drains", "count"),
    ("cloudsim.vm.destroys", "count"),
    ("cloudsim.sim.setup_us_per_run", "us"),
    ("experiments.runner.job_ms_p50", "ms"),
    ("experiments.runner.job_ms_p99", "ms"),
    ("des.pool.busy_share", "share"),
    ("experiments.cache.stores", "count"),
    ("experiments.cache.store_us", "us"),
    ("experiments.cache.lookup_us", "us"),
    ("experiments.cache.hit_share", "share"),
    ("workloads.dataset.bytes", "B"),
    ("workloads.dataset.scan_s", "s"),
    ("workloads.dataset.decode_ns_per_row", "ns"),
    ("experiments.grid.scan_waves", "count"),
    ("experiments.grid.batches_decoded", "count"),
    ("experiments.grid.scans_per_cell", "share"),
    ("cloudsim.sim.residual_ns_per_request", "ns"),
    ("trace.overhead_share", "share"),
];

/// The seed whose summary digests `digests.json` records.
const DEFAULT_SEED: u64 = 1;

/// Setups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where the benchmark keeps its files, relative to the checkout.
const WORK_DIR: &str = ".vmbench";

const USAGE: &str = "usage: vmbench --workload web_fig5|sci_fig6_reps|trace_grid|all \
--seed N --seconds S --trace 0|1 [--scale full|smoke]";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) =
        (None, None, None, None, Scale::FULL);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(if value == "all" {
                    None
                } else {
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--scale" => {
                scale = Scale::parse(value).ok_or_else(|| format!("unknown scale {value}"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// Removes the run's work directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Recorded summary digests (one per cell group) for the default seed.
fn expected_digests(kind: Kind, scale: Scale) -> Option<Vec<u64>> {
    let recorded =
        Json::parse(include_str!("../digests.json")).expect("digests.json is valid JSON");
    let list = recorded
        .get(&format!("{}/{}", kind.name(), scale.name))?
        .as_array()?;
    list.iter()
        .map(|d| u64::from_str_radix(d.as_str()?, 16).ok())
        .collect()
}

/// Checks one pass's outputs and returns the number of failed jobs.
/// `reference` holds the first pass's group digests; every later pass
/// must reproduce them.
fn failed_jobs(
    inputs: &Inputs,
    pass: &Pass,
    expected: Option<&[u64]>,
    reference: &mut Option<Vec<u64>>,
    notes: &mut Vec<String>,
) -> usize {
    let attempted = Pass::attempted(inputs);
    if let Some(msg) = &pass.panic {
        notes.push(format!("pass panicked: {msg}"));
        return attempted;
    }
    let (groups, reps) = (inputs.scenarios.len(), inputs.reps as usize);
    if pass.cold.len() != groups || pass.cold.iter().any(|g| g.len() != reps) {
        notes.push("pass returned the wrong number of summaries".into());
        return attempted;
    }
    let mut bad = vec![vec![false; reps]; groups];
    for (g, runs) in pass.cold.iter().enumerate() {
        for (r, s) in runs.iter().enumerate() {
            if let Some(v) = checks::invariant_violation(s) {
                notes.push(format!("group {g} rep {r}: {v}"));
                bad[g][r] = true;
            }
        }
    }
    let digests: Vec<u64> = pass.cold.iter().map(checks::digest).collect();
    for (g, &d) in digests.iter().enumerate() {
        let mut mismatch = |what: &str| {
            notes.push(format!(
                "group {g}: digest {d:016x} differs from the {what}"
            ));
            bad[g].iter_mut().for_each(|b| *b = true);
        };
        if expected.is_some_and(|e| e.get(g) != Some(&d)) {
            mismatch("recorded digest");
        }
        if reference.as_ref().is_some_and(|first| first[g] != d) {
            mismatch("first pass");
        }
    }
    reference.get_or_insert(digests);
    if inputs.grid.is_some() {
        // The estimators must have ticked: an estimator cell equal to
        // the oracle cell means Algorithm 1 never saw an estimate.
        let oracle = &pass.cold[0];
        for (g, cells) in pass.cold.iter().enumerate().skip(1) {
            for (r, cell) in cells.iter().enumerate() {
                if checks::canonical(cell) == checks::canonical(&oracle[r]) {
                    notes.push(format!(
                        "group {g} rep {r}: estimator cell equals the oracle cell"
                    ));
                    bad[g][r] = true;
                }
            }
        }
    }
    let mut failed: usize = bad.iter().flatten().filter(|&&b| b).count();
    if inputs.has_warm_pass() {
        match &pass.warm {
            Some(warm) if warm.len() == groups && warm.iter().all(|g| g.len() == reps) => {
                for (g, (warm, cold)) in warm.iter().zip(&pass.cold).enumerate() {
                    for (r, (w, c)) in warm.iter().zip(cold).enumerate() {
                        if checks::canonical(w) != checks::canonical(c) {
                            notes
                                .push(format!("group {g} rep {r}: warm summary differs from cold"));
                            failed += 1;
                        }
                    }
                }
            }
            _ => {
                notes.push("warm pass missing or incomplete".into());
                failed += inputs.jobs();
            }
        }
    }
    failed
}

/// Jobs of the traced pass whose summary differs from the untraced one.
fn traced_mismatches(pass: &Pass, traced: &TracedPass, notes: &mut Vec<String>) -> usize {
    traced
        .jobs
        .iter()
        .filter(|j| {
            let same = pass
                .cold
                .get(j.group)
                .and_then(|g| g.get(j.rep as usize))
                .is_some_and(|s| *s == j.summary);
            if !same {
                notes.push(format!(
                    "group {} rep {}: traced summary differs",
                    j.group, j.rep
                ));
            }
            !same
        })
        .count()
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics = metrics.iter().map(|&(name, unit, value)| {
        (
            name,
            Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
        )
    });
    Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string_compact()
}

fn print_pass(label: &str, p: &Pass) {
    println!(
        "{label}: wall {:.4} s, cpu {:.4} s, {} requests, {:.2} ns/request",
        p.wall,
        p.cpu,
        p.offered,
        1e9 * p.cpu / p.offered.max(1) as f64
    );
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn run_workload(kind: Kind, args: &Args, dir: &Path) -> Outcome {
    let workers = sys::nproc();
    vmprov_des::pool::configure_global_workers(workers);
    let grid_concurrency = if kind == Kind::TraceGrid { workers } else { 0 };
    println!(
        "vmbench {}: seed {}, scale {}, trace {}, nproc {}, pool width {}, grid concurrency {}",
        kind.name(),
        args.seed,
        args.scale.name,
        u8::from(args.trace),
        workers,
        vmprov_des::pool::global().workers(),
        grid_concurrency
    );
    let expected = (args.seed == DEFAULT_SEED)
        .then(|| expected_digests(kind, args.scale))
        .flatten();
    let mut notes = Vec::new();
    let mut reference = None;
    let (mut attempted, mut failed) = (0usize, 0usize);
    let budget = Duration::from_secs(args.seconds);
    let spans: &'static Spans = Box::leak(Box::new(Spans::new()));
    let run_span = spans.begin(format!("run.{}", kind.name()), None);

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for i in 0..setups {
        if let Some(old) = inputs.take() {
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let t = Instant::now();
        let id = spans.begin("setup", Some(run_span));
        inputs = Some(workloads::setup(
            kind,
            args.seed,
            args.scale,
            workers,
            &dir.join(format!("setup-{i}")),
        ));
        spans.end(id);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one setup");
    println!("setup: {} run(s), median {:.4} s", setups, median(&setup_s));

    let mut metrics = Vec::new();
    let start = Instant::now();
    let mut pass_no = 0;
    if !args.trace {
        let mut passes = Vec::new();
        while passes.is_empty() || start.elapsed() < budget {
            let id = spans.begin("pass.untraced", Some(run_span));
            let pass = workloads::run_pass(&inputs, pass_no);
            spans.end(id);
            pass_no += 1;
            print_pass(&format!("pass {pass_no}"), &pass);
            attempted += Pass::attempted(&inputs);
            failed += failed_jobs(
                &inputs,
                &pass,
                expected.as_deref(),
                &mut reference,
                &mut notes,
            );
            passes.push((pass.wall, pass.cpu, pass.offered));
        }
        let walls: Vec<f64> = passes.iter().map(|p| p.0).collect();
        let cpus: Vec<f64> = passes.iter().map(|p| p.1).collect();
        let ns: Vec<f64> = passes
            .iter()
            .map(|p| 1e9 * p.1 / p.2.max(1) as f64)
            .collect();
        metrics.push(("setup_s", median(&setup_s)));
        metrics.push(("wall_s", median(&walls)));
        metrics.push(("cpu_s", median(&cpus)));
        metrics.push(("ns_per_request", median(&ns)));
        metrics.push(("peak_rss_mb", sys::peak_rss_mb()));
    } else {
        let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
        let mut first: Option<(Pass, TracedPass)> = None;
        while first.is_none() || start.elapsed() < budget {
            let id = spans.begin("pass.untraced", Some(run_span));
            let pass = workloads::run_pass(&inputs, pass_no);
            spans.end(id);
            pass_no += 1;
            print_pass(&format!("untraced pass {pass_no}"), &pass);
            attempted += Pass::attempted(&inputs);
            failed += failed_jobs(
                &inputs,
                &pass,
                expected.as_deref(),
                &mut reference,
                &mut notes,
            );
            let traced = workloads::run_traced_pass(&inputs, spans, run_span);
            println!("traced pass {pass_no}: wall {:.4} s", traced.wall);
            attempted += traced.jobs.len();
            failed += traced_mismatches(&pass, &traced, &mut notes);
            if traced.warm_mismatches > 0 {
                notes.push(format!(
                    "{} traced warm lookups differ",
                    traced.warm_mismatches
                ));
                failed += traced.warm_mismatches;
            }
            untraced_walls.push(pass.wall);
            traced_walls.push(traced.wall);
            first.get_or_insert((pass, traced));
        }
        let (pass, traced) = first.expect("at least one traced pass");
        let untraced = median(&untraced_walls);
        let overhead = (median(&traced_walls) - untraced) / untraced;
        let id = spans.begin("layers", Some(run_span));
        let report = layers::measure(&inputs, &pass, &traced, overhead, spans, id);
        spans.end(id);
        print_ledger(&report.ledger);
        metrics = report.metrics.into_iter().collect();
    }
    spans.end(run_span);
    if let Some(r) = &reference {
        let hex: Vec<String> = r.iter().map(|d| format!("\"{d:016x}\"")).collect();
        println!(
            "digests {}/{}: [{}]",
            kind.name(),
            args.scale.name,
            hex.join(", ")
        );
    }
    for n in &notes {
        println!("check failed: {n}");
    }
    println!(
        "fail_rate: {} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    if args.trace {
        let path = Path::new(WORK_DIR).join("spans").join(format!(
            "{}-seed{}.json",
            kind.name(),
            args.seed
        ));
        match spans.write(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let v = metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            println!("{name:<40} {v:>18.6} {unit}");
            (name, unit, v)
        })
        .collect();
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn print_ledger(rows: &[layers::LedgerRow]) {
    let mut head = format!(
        "ledger (ns/request) {:<12} {:>12} {:>9}",
        "cell", "offered", "traced"
    );
    for l in LEDGER_LAYERS {
        head += &format!(" {l:>9}");
    }
    println!("{head} {:>9}", "residual");
    for r in rows {
        let mut line = format!(
            "ledger (ns/request) {:<12} {:>12} {:>9.2}",
            r.cell, r.offered, r.traced
        );
        for v in r.layers {
            line += &format!(" {v:>9.2}");
        }
        println!("{line} {:>9.2}", r.residual());
    }
}

/// `--workload all`: each workload in its own process, so peak RSS and
/// process-global state stay per workload.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for kind in Kind::ALL {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "all")
            .expect("--workload all");
        child_args[at] = kind.name().to_string();
        let out = std::process::Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn a workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let result = match Json::parse(last) {
            Ok(result) if out.status.success() => result,
            _ => {
                eprintln!("vmbench: workload {} failed", kind.name());
                return ExitCode::FAILURE;
            }
        };
        correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(ms)) = result.get("metrics") {
            for (name, m) in ms {
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                metrics.push((format!("{}.{name}", kind.name()), unit, value));
            }
        }
    }
    let refs: Vec<(&str, &str, f64)> = metrics
        .iter()
        .map(|(n, u, v)| (n.as_str(), u.as_str(), *v))
        .collect();
    println!(
        "{}",
        result_line(correct, attempted as usize, failed as usize, &refs)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = args.workload else {
        return run_all(&raw);
    };
    let dir = WorkDir(Path::new(WORK_DIR).join(format!("run-{}", std::process::id())));
    let out = run_workload(kind, &args, &dir.0);
    drop(dir);
    let correct = out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
