//! Trace-replay support: Fig 5-style QoS verdicts for a replayed run,
//! cache-first execution, and the peak-RSS probe `trace_smoke.sh` uses
//! to assert that ingestion memory stays bounded by the chunk buffer.

use crate::cache::{run_key, Lookup, RunCache};
use crate::runner::run_once;
use crate::scenario::Scenario;
use vmprov_cloudsim::RunSummary;
use vmprov_json::{Json, ToJson};

/// The three QoS verdicts of the paper's evaluation (§V-C), reduced to
/// pass/fail the way Fig. 5 is read: did the policy keep rejections at
/// zero, keep every response inside the QoS bound, and lose nothing to
/// failures?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosVerdict {
    /// No request was rejected at admission.
    pub rejections_met: bool,
    /// No accepted request exceeded the response-time target.
    pub response_met: bool,
    /// No request was lost to instance failures.
    pub nothing_lost: bool,
}

impl QosVerdict {
    /// Whether every verdict passed.
    pub fn all_met(&self) -> bool {
        self.rejections_met && self.response_met && self.nothing_lost
    }
}

impl ToJson for QosVerdict {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rejections_met", Json::from(self.rejections_met)),
            ("response_met", Json::from(self.response_met)),
            ("nothing_lost", Json::from(self.nothing_lost)),
        ])
    }
}

/// Reads the verdicts off a run summary.
pub fn qos_verdict(s: &RunSummary) -> QosVerdict {
    QosVerdict {
        rejections_met: s.rejected_requests == 0,
        response_met: s.qos_violations == 0,
        nothing_lost: s.requests_lost_to_failures == 0,
    }
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable. A
/// streamed 10M-request replay stays tens of MB; materializing the
/// trace would show up here at hundreds — which is exactly the check
/// `trace_smoke.sh` runs against the value `repro replay` prints.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// How a replay run was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySource {
    /// Computed fresh, no cache configured.
    Uncached,
    /// Answered from the run cache.
    CacheHit,
    /// Computed and stored (missing or rotten entry).
    CacheMiss,
}

impl ReplaySource {
    /// Short label for logs.
    pub fn label(&self) -> &'static str {
        match self {
            ReplaySource::Uncached => "uncached",
            ReplaySource::CacheHit => "cache hit",
            ReplaySource::CacheMiss => "cache miss",
        }
    }
}

/// Runs one replication of `scenario`, cache-first when a cache is
/// given — the same content-hash keying the figure campaign uses, so
/// re-replaying an unchanged trace costs one cache-record read.
pub fn replay_once(
    scenario: &Scenario,
    rep: u32,
    cache: Option<&RunCache>,
) -> (RunSummary, ReplaySource) {
    let Some(cache) = cache else {
        return (run_once(scenario, rep), ReplaySource::Uncached);
    };
    let key = run_key(scenario, rep);
    if let Lookup::Hit(summary) = cache.lookup(key) {
        return (*summary, ReplaySource::CacheHit);
    }
    let summary = run_once(scenario, rep);
    if let Err(e) = cache.store(key, &summary) {
        eprintln!("warning: cannot store run cache entry: {e}");
    }
    (summary, ReplaySource::CacheMiss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::PolicySpec;
    use vmprov_des::SimTime;

    #[test]
    fn verdicts_read_the_right_counters() {
        let s = Scenario::web(PolicySpec::Static(60), 7).with_horizon(SimTime::from_secs(600.0));
        let summary = run_once(&s, 0);
        let v = qos_verdict(&summary);
        assert_eq!(v.rejections_met, summary.rejected_requests == 0);
        assert_eq!(v.response_met, summary.qos_violations == 0);
        assert_eq!(v.nothing_lost, summary.requests_lost_to_failures == 0);
        let j = v.to_json();
        assert_eq!(
            j.get("rejections_met").unwrap(),
            &Json::from(v.rejections_met)
        );
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        // On Linux this must produce a sane nonzero figure; elsewhere
        // None is acceptable.
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 100, "suspicious VmHWM {kb} kB");
        }
    }

    #[test]
    fn replay_once_round_trips_through_the_cache() {
        let dir = std::env::temp_dir().join(format!("vmprov_replay_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::open(&dir).unwrap();
        let s = Scenario::web(PolicySpec::Static(5), 31).with_horizon(SimTime::from_secs(60.0));
        let (a, src_a) = replay_once(&s, 0, Some(&cache));
        assert_eq!(src_a, ReplaySource::CacheMiss);
        let (b, src_b) = replay_once(&s, 0, Some(&cache));
        assert_eq!(src_b, ReplaySource::CacheHit);
        assert_eq!(a, b);
        let (c, src_c) = replay_once(&s, 0, None);
        assert_eq!(src_c, ReplaySource::Uncached);
        assert_eq!(a, c);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
