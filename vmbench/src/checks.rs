//! Output checks: accounting invariants of every run summary, and
//! stable digests of the summaries a pass produced.

use vmprov_cloudsim::RunSummary;
use vmprov_des::StableHasher;
use vmprov_json::ToJson;

/// The first accounting invariant `s` breaks, if any.
pub fn invariant_violation(s: &RunSummary) -> Option<String> {
    if s.offered_requests != s.accepted_requests + s.rejected_requests {
        return Some(format!(
            "offered {} != accepted {} + rejected {}",
            s.offered_requests, s.accepted_requests, s.rejected_requests
        ));
    }
    if s.qos_violations > s.accepted_requests {
        return Some(format!(
            "qos_violations {} > accepted {}",
            s.qos_violations, s.accepted_requests
        ));
    }
    if !(0.0..=1.0).contains(&s.utilization) {
        return Some(format!("utilization {} outside [0, 1]", s.utilization));
    }
    let (lo, mean, hi) = (
        f64::from(s.min_instances),
        s.mean_instances,
        f64::from(s.max_instances),
    );
    // The time-weighted mean is accumulated in floating point, so allow
    // it rounding error at the bounds.
    let slack = 1e-9 * hi.max(1.0);
    if !(lo - slack <= mean && mean <= hi + slack) {
        return Some(format!(
            "instances min {lo} <= mean {mean} <= max {hi} fails"
        ));
    }
    None
}

/// Canonical JSON of one summary: the bytes digests and the warm-pass
/// comparison are taken over.
pub fn canonical(s: &RunSummary) -> String {
    s.to_json().to_string_canonical()
}

/// Stable digest of a sequence of summaries, in order.
pub fn digest<'a>(summaries: impl IntoIterator<Item = &'a RunSummary>) -> u64 {
    let mut h = StableHasher::new();
    for s in summaries {
        let text = canonical(s);
        h.write_u64(text.len() as u64);
        h.write(text.as_bytes());
    }
    h.finish()
}
