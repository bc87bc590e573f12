//! Cross-figure batched execution: one job queue for a whole repro
//! invocation.
//!
//! Running each figure through its own `run_policy_set` call puts a
//! barrier at every figure boundary — cores idle while the last
//! replication of figure N finishes, then the pool refills for figure
//! N+1. A [`Campaign`] instead collects the `(scenario, rep)` jobs of
//! *all* figures first, consults the [`RunCache`] (when one is
//! attached), dispatches every miss to the persistent worker pool in a
//! single batch, and only then regroups results per figure.
//!
//! Correctness does not depend on scheduling: each job derives its RNG
//! streams from its own `(scenario, rep)` pair and jobs share no
//! mutable state, so any execution order yields bit-identical
//! summaries (see DESIGN.md §8). Jobs are laid out figure-major,
//! scenario-major, rep-minor, which makes regrouping a single linear
//! chunking pass.

use std::time::Duration;

use crate::cache::{run_key, Lookup, RunCache};
use crate::runner::{run_once_warm, Replicated};
use crate::scenario::Scenario;
use vmprov_cloudsim::RunSummary;
use vmprov_des::pool;
use vmprov_json::{Json, ToJson};

/// Identifies one figure's slice of a [`CampaignResult`].
#[derive(Debug, Clone, Copy)]
pub struct FigureHandle(usize);

/// Execution counters for one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignStats {
    /// Total `(scenario, rep)` jobs across all figures.
    pub jobs: usize,
    /// Jobs answered from the cache.
    pub cache_hits: usize,
    /// Jobs absent from the cache (simulated).
    pub cache_misses: usize,
    /// Cache entries that existed but were unreadable (recomputed and
    /// overwritten; a subset of `cache_misses` is **not** — corrupt
    /// entries are counted here *and* as misses for hit-rate purposes).
    pub corrupt_entries: usize,
    /// Wall-clock time of [`Campaign::run`].
    pub wall: Duration,
}

impl CampaignStats {
    /// Hit fraction in `[0, 1]` (1.0 for an empty campaign).
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            1.0
        } else {
            self.cache_hits as f64 / self.jobs as f64
        }
    }
}

impl ToJson for CampaignStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("jobs", Json::from(self.jobs)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("corrupt_entries", Json::from(self.corrupt_entries)),
            ("hit_rate", Json::from(self.hit_rate())),
            ("wall_secs", Json::from(self.wall.as_secs_f64())),
        ])
    }
}

/// Results of a completed campaign, per figure.
#[derive(Debug)]
pub struct CampaignResult {
    figures: Vec<Option<Vec<Replicated>>>,
    /// Execution counters (jobs, hits, wall-clock).
    pub stats: CampaignStats,
}

impl CampaignResult {
    /// Takes the named figure's aggregated replications (panics if taken
    /// twice or if the handle is from another campaign).
    pub fn take(&mut self, handle: FigureHandle) -> Vec<Replicated> {
        self.figures[handle.0]
            .take()
            .expect("figure already taken from this CampaignResult")
    }
}

/// One figure awaiting execution.
struct FigureSpec {
    scenarios: Vec<Scenario>,
    reps: u32,
}

/// A batch of figures to execute as one pooled, cache-aware job queue.
pub struct Campaign {
    cache: Option<RunCache>,
    figures: Vec<FigureSpec>,
}

impl Campaign {
    /// Starts an empty campaign; pass a [`RunCache`] to answer repeat
    /// jobs from disk.
    pub fn new(cache: Option<RunCache>) -> Self {
        Campaign {
            cache,
            figures: Vec::new(),
        }
    }

    /// Queues one figure: every scenario × `reps` replications.
    pub fn add_figure(&mut self, scenarios: Vec<Scenario>, reps: u32) -> FigureHandle {
        assert!(reps >= 1, "a figure needs at least one replication");
        let handle = FigureHandle(self.figures.len());
        self.figures.push(FigureSpec { scenarios, reps });
        handle
    }

    /// Executes every queued job (cache first, then one pool batch for
    /// the misses) and regroups the results per figure.
    pub fn run(self) -> CampaignResult {
        let start = std::time::Instant::now();
        let n_jobs: usize = self
            .figures
            .iter()
            .map(|f| f.scenarios.len() * f.reps as usize)
            .sum();

        // Lay out all jobs figure-major, scenario-major, rep-minor; the
        // result vector shares this layout, so per-figure regrouping
        // below is sequential chunking, not a scan per scenario.
        let mut slots: Vec<Option<RunSummary>> = Vec::with_capacity(n_jobs);
        let mut to_run: Vec<(usize, Scenario, u32)> = Vec::new();
        let mut hits = 0usize;
        let mut corrupt = 0usize;
        for fig in &self.figures {
            for scenario in &fig.scenarios {
                for rep in 0..fig.reps {
                    let slot = slots.len();
                    let cached = self.cache.as_ref().map(|c| {
                        let key = run_key(scenario, rep);
                        c.lookup(key)
                    });
                    match cached {
                        Some(Lookup::Hit(summary)) => {
                            hits += 1;
                            slots.push(Some(*summary));
                        }
                        other => {
                            if matches!(other, Some(Lookup::Corrupt)) {
                                corrupt += 1;
                            }
                            slots.push(None);
                            to_run.push((slot, scenario.clone(), rep));
                        }
                    }
                }
            }
        }
        let misses = to_run.len();

        // One batch for every miss across every figure: no inter-figure
        // barrier, and workers reuse warm per-thread sim storage.
        let fresh = pool::global().run_batch(to_run, |_, (slot, scenario, rep)| {
            let summary = run_once_warm(&scenario, rep);
            (slot, scenario, rep, summary)
        });
        for (slot, scenario, rep, summary) in fresh {
            if let Some(cache) = &self.cache {
                // Best-effort: a full disk must not fail the campaign.
                let _ = cache.store(run_key(&scenario, rep), &summary);
            }
            slots[slot] = Some(summary);
        }

        // Regroup: the slot layout mirrors the figure specs, so one
        // linear walk rebuilds every figure.
        let mut figures = Vec::with_capacity(self.figures.len());
        let mut cursor = slots.into_iter();
        for fig in &self.figures {
            let mut replicated = Vec::with_capacity(fig.scenarios.len());
            for scenario in &fig.scenarios {
                let runs: Vec<RunSummary> = (0..fig.reps)
                    .map(|_| cursor.next().flatten().expect("campaign job missing"))
                    .collect();
                replicated.push(Replicated {
                    policy: scenario.policy_label(),
                    runs,
                });
            }
            figures.push(Some(replicated));
        }

        CampaignResult {
            figures,
            stats: CampaignStats {
                jobs: n_jobs,
                cache_hits: hits,
                cache_misses: misses,
                corrupt_entries: corrupt,
                wall: start.elapsed(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_once;
    use crate::scenario::PolicySpec;
    use vmprov_des::SimTime;

    fn tiny(policy: PolicySpec) -> Scenario {
        Scenario::web(policy, 77).with_horizon(SimTime::from_secs(120.0))
    }

    #[test]
    fn uncached_campaign_matches_run_once() {
        let scenarios = vec![tiny(PolicySpec::Static(8)), tiny(PolicySpec::Static(12))];
        let mut campaign = Campaign::new(None);
        let h5 = campaign.add_figure(scenarios.clone(), 2);
        let h6 = campaign.add_figure(vec![tiny(PolicySpec::Static(10))], 1);
        let mut result = campaign.run();
        assert_eq!(result.stats.jobs, 5);
        assert_eq!(result.stats.cache_hits, 0);
        assert_eq!(result.stats.cache_misses, 5);

        let f5 = result.take(h5);
        assert_eq!(f5.len(), 2);
        for (sc, rep) in scenarios.iter().zip(&f5) {
            assert_eq!(rep.policy, sc.policy_label());
            assert_eq!(rep.runs.len(), 2);
            for (r, run) in rep.runs.iter().enumerate() {
                assert_eq!(*run, run_once(sc, r as u32), "{}: rep {r}", rep.policy);
            }
        }
        let f6 = result.take(h6);
        assert_eq!(f6.len(), 1);
        assert_eq!(f6[0].runs[0], run_once(&tiny(PolicySpec::Static(10)), 0));
    }

    #[test]
    fn second_campaign_is_all_hits_and_bit_identical() {
        let dir = std::env::temp_dir().join(format!("vmprov_campaign_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scenarios = vec![tiny(PolicySpec::Static(6)), tiny(PolicySpec::Static(9))];

        let mut cold = Campaign::new(Some(RunCache::open(&dir).unwrap()));
        let hc = cold.add_figure(scenarios.clone(), 2);
        let mut cold_result = cold.run();
        assert_eq!(cold_result.stats.cache_hits, 0);
        assert_eq!(cold_result.stats.cache_misses, 4);

        let mut warm = Campaign::new(Some(RunCache::open(&dir).unwrap()));
        let hw = warm.add_figure(scenarios, 2);
        let mut warm_result = warm.run();
        assert_eq!(warm_result.stats.cache_hits, 4);
        assert_eq!(warm_result.stats.cache_misses, 0);
        assert!((warm_result.stats.hit_rate() - 1.0).abs() < f64::EPSILON);

        let a = cold_result.take(hc);
        let b = warm_result.take(hw);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.runs, y.runs, "cache hit diverged from fresh run");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_json_shape() {
        let stats = CampaignStats {
            jobs: 10,
            cache_hits: 9,
            cache_misses: 1,
            corrupt_entries: 1,
            wall: Duration::from_millis(1500),
        };
        let j = stats.to_json();
        assert_eq!(j.get("jobs").unwrap().as_u64(), Some(10));
        assert_eq!(j.get("hit_rate").unwrap().as_f64(), Some(0.9));
        assert_eq!(j.get("wall_secs").unwrap().as_f64(), Some(1.5));
    }
}
