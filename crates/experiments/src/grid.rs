//! Shared-scan replay grids: one trace decode fanned out across an
//! analyzer × replication matrix.
//!
//! `repro replay` (PR 7) executed one `(trace, analyzer, rep)` cell per
//! invocation, so comparing the three analyzers over N replications
//! re-read and re-parsed the trace once per cell. A [`ReplayGrid`]
//! instead runs the whole matrix as **one job queue**: cache-first per
//! cell (the keys are exactly the single-run keys — content hash +
//! scenario + rep, schema unchanged), then every miss executes
//! concurrently against a [`SharedTraceScan`] that decodes each chunk
//! exactly once and hands out ref-counted handles
//! ([`TraceSpec::replay_shared`]).
//!
//! Invariants:
//! * **Byte identity** — every cell's [`RunSummary`] is bit-identical
//!   to the single-run path (`replay_once` on the same scenario/rep):
//!   the decoded batches are the same, only I/O and parse work is
//!   amortized. Pinned by the shared-vs-independent grid test across
//!   chunk sizes, analyzers, shard counts, and FEL backends.
//! * **Concurrency** — all consumers of one scan must run at once (a
//!   straggler beyond the window backpressures the rest), so a wave
//!   never exceeds the pool width. The grid spins up its own
//!   [`WorkerPool`] sized to the widest wave: cells are whole
//!   simulations that timeshare fine when the wave exceeds the core
//!   count, and 5 of 6 duplicate parses saved beats perfect core
//!   affinity.
//! * **RSS** — per-cell `peak_rss_kb` is meaningless once cells share
//!   the process, so the grid reports one process-wide peak in
//!   [`GridStats`] and per-cell reports carry none.

use std::time::{Duration, Instant};

use crate::cache::{run_key, Lookup, RunCache};
use crate::replay::{peak_rss_kb, qos_verdict, ReplaySource};
use crate::runner::run_once_warm_with;
use crate::scenario::{AnalyzerSpec, PolicySpec, Scenario};
use vmprov_cloudsim::{RunSummary, StatsMode};
use vmprov_des::pool::WorkerPool;
use vmprov_des::FelBackend;
use vmprov_json::{Json, ToJson};
use vmprov_workloads::TraceSpec;

/// Hard cap on cells per scan wave (= dedicated pool width). Beyond
/// this the grid splits into waves of one scan each — still far cheaper
/// than per-cell scans, and it bounds thread count and live sim state.
pub const MAX_WAVE: usize = 64;

/// An analyzer × replication replay matrix over one scanned trace.
#[derive(Debug, Clone)]
pub struct ReplayGrid {
    /// The scanned trace every cell replays.
    pub spec: TraceSpec,
    /// Analyzer axis (one column of cells each).
    pub analyzers: Vec<AnalyzerSpec>,
    /// Replications per analyzer.
    pub reps: u32,
    /// Intra-run shard count applied to every cell.
    pub shards: Option<u32>,
    /// FEL backend override applied to every cell.
    pub fel: Option<FelBackend>,
    /// Always [`StatsMode::Streaming`], the only stats sink. Kept only
    /// because the frozen benchmark package (`vmbench/`) fills it; the
    /// next benchmark change can drop it.
    pub stats: StatsMode,
    /// Base seed (per-rep seeds derive exactly as in the single path).
    pub seed: u64,
    /// Cells per scan wave; `None` = all misses at once (≤ [`MAX_WAVE`]).
    pub concurrency: Option<usize>,
}

/// One executed grid cell.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// The cell's analyzer.
    pub analyzer: AnalyzerSpec,
    /// The cell's replication index.
    pub rep: u32,
    /// The run summary — byte-identical to the single-run path.
    pub summary: RunSummary,
    /// Whether the cell was computed or answered from the cache.
    pub source: ReplaySource,
}

/// Execution counters of one grid run.
#[derive(Debug, Clone)]
pub struct GridStats {
    /// Total cells (analyzers × reps).
    pub cells: usize,
    /// Cells answered from the run cache.
    pub cache_hits: usize,
    /// Cells computed (fresh or rotten entry).
    pub cache_misses: usize,
    /// Cache entries that existed but were unreadable.
    pub corrupt_entries: usize,
    /// Computed cells whose result could not be stored (the grid still
    /// succeeds).
    pub store_failures: usize,
    /// Shared scans executed (1 when all misses fit one wave).
    pub scan_waves: usize,
    /// Batches decoded across all waves — `batches × scan_waves` when
    /// nothing was cached, i.e. each wave decoded the trace once.
    pub batches_decoded: u64,
    /// Trace file opens during grid execution, counted on this run's
    /// own copy of the spec (the exactly-once probe: equals
    /// `scan_waves`, never the cell count).
    pub trace_file_opens: u64,
    /// High-water mark of the shared chunk window across waves (≤
    /// [`vmprov_workloads::SCAN_DEPTH`] — the backpressure invariant).
    pub max_window: usize,
    /// Process-wide peak RSS after the grid ran — the *only* RSS figure
    /// a pooled grid can honestly report (per-cell values would all
    /// read the same process-wide high-water mark).
    pub peak_rss_kb: Option<u64>,
    /// Wall-clock time of [`ReplayGrid::run`].
    pub wall: Duration,
}

impl ToJson for GridStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cells", Json::from(self.cells)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("corrupt_entries", Json::from(self.corrupt_entries)),
            ("store_failures", Json::from(self.store_failures)),
            ("scan_waves", Json::from(self.scan_waves)),
            ("batches_decoded", Json::from(self.batches_decoded)),
            ("trace_file_opens", Json::from(self.trace_file_opens)),
            ("max_window", Json::from(self.max_window)),
            (
                "peak_rss_kb",
                match self.peak_rss_kb {
                    Some(kb) => Json::from(kb),
                    None => Json::Null,
                },
            ),
            ("wall_secs", Json::from(self.wall.as_secs_f64())),
        ])
    }
}

/// A completed grid: cells analyzer-major, rep-minor, plus counters.
#[derive(Debug)]
pub struct GridOutcome {
    /// Every cell, in (analyzer, rep) order.
    pub cells: Vec<GridCell>,
    /// Execution counters.
    pub stats: GridStats,
}

impl GridOutcome {
    /// The cells of one analyzer, in rep order.
    pub fn column(&self, analyzer: AnalyzerSpec) -> Vec<&GridCell> {
        self.cells
            .iter()
            .filter(|c| c.analyzer == analyzer)
            .collect()
    }
}

impl ReplayGrid {
    /// The scenario of one analyzer column — **identical** to what the
    /// single-run `repro replay` path builds, so cache keys (and hence
    /// warm-grid hits against single-run entries) line up exactly.
    pub fn cell_scenario(&self, analyzer: AnalyzerSpec) -> Scenario {
        self.scenario_on(&self.spec, analyzer)
    }

    /// [`cell_scenario`](Self::cell_scenario) over a given copy of the
    /// spec (the grid run's own open counter).
    fn scenario_on(&self, spec: &TraceSpec, analyzer: AnalyzerSpec) -> Scenario {
        let mut s = Scenario::trace_replay(spec.clone(), PolicySpec::Adaptive, self.seed)
            .with_analyzer(analyzer)
            .with_shards(self.shards);
        if let Some(fel) = self.fel {
            s = s.with_fel_backend(fel);
        }
        s
    }

    /// Executes the grid: cache-first per cell, then each wave of
    /// misses runs concurrently off one shared scan.
    pub fn run(&self, cache: Option<&RunCache>) -> GridOutcome {
        assert!(!self.analyzers.is_empty(), "a grid needs ≥ 1 analyzer");
        assert!(self.reps >= 1, "a grid needs ≥ 1 replication");
        let start = Instant::now();
        // Every open this run makes — the shared scans, and any cell
        // that opened the file itself — lands on this copy's counter.
        let spec = self.spec.with_fresh_open_count();
        let n_cells = self.analyzers.len() * self.reps as usize;

        // Cache pass, analyzer-major / rep-minor (the output layout).
        let mut slots: Vec<Option<(RunSummary, ReplaySource)>> = Vec::with_capacity(n_cells);
        // Each miss carries its cache key, computed once for the lookup
        // and reused by the store.
        let mut misses: Vec<(usize, Option<u64>, Scenario, u32)> = Vec::new();
        let mut hits = 0usize;
        let mut corrupt = 0usize;
        for &analyzer in &self.analyzers {
            let scenario = self.scenario_on(&spec, analyzer);
            for rep in 0..self.reps {
                let slot = slots.len();
                let key = cache.map(|_| run_key(&scenario, rep));
                let cached = cache.zip(key).map(|(c, k)| c.lookup(k));
                match cached {
                    Some(Lookup::Hit(summary)) => {
                        hits += 1;
                        slots.push(Some((*summary, ReplaySource::CacheHit)));
                    }
                    other => {
                        if matches!(other, Some(Lookup::Corrupt)) {
                            corrupt += 1;
                        }
                        slots.push(None);
                        misses.push((slot, key, scenario.clone(), rep));
                    }
                }
            }
        }

        // Waves of misses, one shared scan per wave. Every consumer of
        // a scan must run concurrently, so the dedicated pool is sized
        // to the widest wave (oversubscribing cores is fine: the cells
        // timeshare, determinism is per-cell, and the parse saving is
        // the point).
        let wave_cap = self.concurrency.unwrap_or(MAX_WAVE).clamp(1, MAX_WAVE);
        let widest = misses.len().min(wave_cap);
        let pool = (widest > 1).then(|| WorkerPool::new(widest));
        let miss_source = if cache.is_some() {
            ReplaySource::CacheMiss
        } else {
            ReplaySource::Uncached
        };
        let mut waves = 0usize;
        let mut batches_decoded = 0u64;
        let mut max_window = 0usize;
        let mut store_failures = 0usize;
        let mut queue = misses;
        while !queue.is_empty() {
            let rest = queue.split_off(queue.len().min(wave_cap));
            let wave = std::mem::replace(&mut queue, rest);
            let (scan, replays) = spec
                .replay_shared(wave.len())
                .unwrap_or_else(|e| panic!("trace changed after scan: {e}"));
            let jobs: Vec<_> = wave
                .into_iter()
                .zip(replays)
                .map(|((slot, key, scenario, rep), replay)| (slot, key, scenario, rep, replay))
                .collect();
            let run_cell =
                |_, (slot, key, scenario, rep, replay): (usize, Option<u64>, Scenario, u32, _)| {
                    let summary = run_once_warm_with(
                        &scenario,
                        rep,
                        vmprov_workloads::AnyWorkload::from(replay),
                    );
                    (slot, key, summary)
                };
            let finished = match &pool {
                Some(p) => p.run_batch(jobs, run_cell),
                // ≤ 1 miss: run inline (a lone shared consumer drives
                // its own scan cooperatively, no threads needed).
                None => jobs.into_iter().map(|j| run_cell(0, j)).collect(),
            };
            for (slot, key, summary) in finished {
                if let Some((cache, key)) = cache.zip(key) {
                    // Best-effort but counted, exactly like the campaign.
                    if cache.store(key, &summary).is_err() {
                        store_failures += 1;
                    }
                }
                slots[slot] = Some((summary, miss_source));
            }
            waves += 1;
            let s = scan.stats();
            batches_decoded += s.batches_decoded;
            max_window = max_window.max(s.max_window);
        }

        // Regroup into cells (the slot layout already matches).
        let mut cells = Vec::with_capacity(n_cells);
        let mut cursor = slots.into_iter();
        for &analyzer in &self.analyzers {
            for rep in 0..self.reps {
                let (summary, source) = cursor
                    .next()
                    .flatten()
                    .expect("grid cell missing after execution");
                cells.push(GridCell {
                    analyzer,
                    rep,
                    summary,
                    source,
                });
            }
        }
        let misses_run = n_cells - hits;
        GridOutcome {
            cells,
            stats: GridStats {
                cells: n_cells,
                cache_hits: hits,
                cache_misses: misses_run,
                corrupt_entries: corrupt,
                store_failures,
                scan_waves: waves,
                batches_decoded,
                trace_file_opens: spec.opens.get(),
                max_window,
                peak_rss_kb: peak_rss_kb(),
                wall: start.elapsed(),
            },
        }
    }
}

/// The cross-analyzer QoS comparison table: one row per analyzer,
/// aggregated over its replications.
pub fn grid_table(title: &str, grid: &GridOutcome, analyzers: &[AnalyzerSpec]) -> String {
    let mut out = format!(
        "{title}\n{:<10} {:>4} {:>15} {:>10} {:>10} {:>6} {:>14}\n",
        "analyzer", "reps", "mean resp (s)", "rejected", "qos viol", "lost", "verdicts"
    );
    for &analyzer in analyzers {
        let col = grid.column(analyzer);
        if col.is_empty() {
            continue;
        }
        let n = col.len() as f64;
        let mean_resp: f64 = col
            .iter()
            .map(|c| c.summary.mean_response_time)
            .sum::<f64>()
            / n;
        let rejected: u64 = col.iter().map(|c| c.summary.rejected_requests).sum();
        let viol: u64 = col.iter().map(|c| c.summary.qos_violations).sum();
        let lost: u64 = col
            .iter()
            .map(|c| c.summary.requests_lost_to_failures)
            .sum();
        let met = col
            .iter()
            .filter(|c| qos_verdict(&c.summary).all_met())
            .count();
        out.push_str(&format!(
            "{:<10} {:>4} {:>15.4} {:>10} {:>10} {:>6} {:>10}/{:<3}\n",
            analyzer.label(),
            col.len(),
            mean_resp,
            rejected,
            viol,
            lost,
            met,
            col.len(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_once;

    fn tiny_trace(dir: &std::path::Path) -> TraceSpec {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("grid.csv");
        let file = std::fs::File::create(&path).unwrap();
        vmprov_workloads::generate_poisson_csv(
            file,
            40.0,
            vmprov_des::SimTime::from_secs(400.0),
            9,
        )
        .unwrap();
        TraceSpec::scan(&path, 256).unwrap()
    }

    #[test]
    fn grid_cells_match_single_runs_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!("vmprov_grid_unit_{}", std::process::id()));
        let spec = tiny_trace(&dir);
        let grid = ReplayGrid {
            spec,
            analyzers: vec![AnalyzerSpec::Oracle, AnalyzerSpec::parse("mle").unwrap()],
            reps: 2,
            shards: None,
            fel: None,
            stats: StatsMode::Streaming,
            seed: 123,
            concurrency: None,
        };
        let out = grid.run(None);
        assert_eq!(out.stats.cells, 4);
        assert_eq!(out.stats.scan_waves, 1, "4 cells fit one wave");
        assert_eq!(out.stats.trace_file_opens, 1, "one scan, one open");
        for cell in &out.cells {
            let scenario = grid.cell_scenario(cell.analyzer);
            assert_eq!(
                cell.summary,
                run_once(&scenario, cell.rep),
                "{} rep {} diverged from the single-run path",
                cell.analyzer.label(),
                cell.rep
            );
            assert_eq!(cell.source, ReplaySource::Uncached);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_stats_json_shape() {
        let stats = GridStats {
            cells: 6,
            cache_hits: 2,
            cache_misses: 4,
            corrupt_entries: 0,
            store_failures: 0,
            scan_waves: 1,
            batches_decoded: 100,
            trace_file_opens: 1,
            max_window: 3,
            peak_rss_kb: Some(4096),
            wall: Duration::from_millis(250),
        };
        let j = stats.to_json();
        assert_eq!(j.get("cells").unwrap().as_u64(), Some(6));
        assert_eq!(j.get("trace_file_opens").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("peak_rss_kb").unwrap().as_u64(), Some(4096));
        assert_eq!(j.get("wall_secs").unwrap().as_f64(), Some(0.25));
    }
}
