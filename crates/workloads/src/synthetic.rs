//! Synthetic arrival processes for tests, ablations, and stress cases
//! the production models do not cover: unmodeled shifts (step, flash
//! crowd), smooth trends (ramp), and bursty modulated traffic (MMPP).

use crate::traits::{ArrivalBatch, ArrivalProcess};
use vmprov_des::dist::{Distribution, Exponential};
use vmprov_des::{SimRng, SimTime};

/// Homogeneous Poisson arrivals at `rate` requests/second.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    rate: f64,
    horizon: SimTime,
    cursor: f64,
}

impl PoissonProcess {
    /// Creates the process. `rate > 0`.
    pub fn new(rate: f64, horizon: SimTime) -> Self {
        assert!(rate > 0.0 && rate.is_finite());
        PoissonProcess {
            rate,
            horizon,
            cursor: 0.0,
        }
    }
}

impl ArrivalProcess for PoissonProcess {
    fn next_batch(&mut self, rng: &mut SimRng) -> Option<ArrivalBatch> {
        let gap = Exponential::new(self.rate).sample(rng);
        self.cursor += gap;
        if self.cursor >= self.horizon.as_secs() {
            return None;
        }
        Some(ArrivalBatch {
            time: SimTime::from_secs(self.cursor),
            count: 1,
            spread: 0.0,
        })
    }

    /// Burst override: every batch has `spread = 0`, so the default's
    /// stop-after-spread rule never triggers and a run is simply `max`
    /// consecutive gap draws — generated here in one tight loop (the
    /// exponential is hoisted out) with the exact per-gap draw order of
    /// [`next_batch`](Self::next_batch).
    fn next_batch_run(
        &mut self,
        rng: &mut SimRng,
        max: usize,
        out: &mut Vec<ArrivalBatch>,
    ) -> usize {
        let dist = Exponential::new(self.rate);
        let horizon = self.horizon.as_secs();
        let mut n = 0;
        while n < max {
            self.cursor += dist.sample(rng);
            if self.cursor >= horizon {
                break;
            }
            out.push(ArrivalBatch {
                time: SimTime::from_secs(self.cursor),
                count: 1,
                spread: 0.0,
            });
            n += 1;
        }
        n
    }

    fn model_rate(&self, _t: SimTime) -> f64 {
        self.rate
    }

    fn horizon(&self) -> SimTime {
        self.horizon
    }
}

/// Piecewise-constant rate: a list of `(start_time, rate)` breakpoints.
/// Arrivals are Poisson within each piece. Covers step loads and flash
/// crowds (a tall short piece).
#[derive(Debug, Clone)]
pub struct PiecewiseRateProcess {
    pieces: Vec<(f64, f64)>,
    horizon: SimTime,
    cursor: f64,
}

impl PiecewiseRateProcess {
    /// Creates the process from `(start, rate)` pieces.
    ///
    /// # Panics
    /// Panics unless pieces start at 0, are strictly ordered, and have
    /// non-negative finite rates.
    pub fn new(pieces: Vec<(f64, f64)>, horizon: SimTime) -> Self {
        assert!(
            !pieces.is_empty() && pieces[0].0 == 0.0,
            "must start at t=0"
        );
        for w in pieces.windows(2) {
            assert!(w[0].0 < w[1].0, "breakpoints must increase");
        }
        assert!(pieces.iter().all(|&(_, r)| r >= 0.0 && r.is_finite()));
        PiecewiseRateProcess {
            pieces,
            horizon,
            cursor: 0.0,
        }
    }

    /// A step load: `low` until `step_at`, then `high`.
    pub fn step(low: f64, high: f64, step_at: f64, horizon: SimTime) -> Self {
        Self::new(vec![(0.0, low), (step_at, high)], horizon)
    }

    /// A flash crowd: `base` rate with a burst of `peak` during
    /// `[burst_start, burst_start + burst_len)`.
    pub fn flash_crowd(
        base: f64,
        peak: f64,
        burst_start: f64,
        burst_len: f64,
        horizon: SimTime,
    ) -> Self {
        Self::new(
            vec![
                (0.0, base),
                (burst_start, peak),
                (burst_start + burst_len, base),
            ],
            horizon,
        )
    }

    fn piece_at(&self, t: f64) -> usize {
        match self
            .pieces
            .binary_search_by(|&(s, _)| s.partial_cmp(&t).unwrap())
        {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    fn piece_end(&self, i: usize) -> f64 {
        self.pieces
            .get(i + 1)
            .map_or(self.horizon.as_secs(), |&(s, _)| s)
    }
}

impl ArrivalProcess for PiecewiseRateProcess {
    fn next_batch(&mut self, rng: &mut SimRng) -> Option<ArrivalBatch> {
        // Thin within the current piece; skip zero-rate pieces.
        loop {
            if self.cursor >= self.horizon.as_secs() {
                return None;
            }
            let i = self.piece_at(self.cursor);
            let rate = self.pieces[i].1;
            let end = self.piece_end(i);
            if rate <= 0.0 {
                self.cursor = end;
                continue;
            }
            let gap = Exponential::new(rate).sample(rng);
            let t = self.cursor + gap;
            if t >= end {
                // No arrival in the remainder of this piece; restart the
                // exponential clock at the boundary (memorylessness).
                self.cursor = end;
                continue;
            }
            self.cursor = t;
            if t >= self.horizon.as_secs() {
                return None;
            }
            return Some(ArrivalBatch {
                time: SimTime::from_secs(t),
                count: 1,
                spread: 0.0,
            });
        }
    }

    fn model_rate(&self, t: SimTime) -> f64 {
        self.pieces[self.piece_at(t.as_secs().min(self.horizon.as_secs()))].1
    }

    fn horizon(&self) -> SimTime {
        self.horizon
    }
}

/// Linearly ramping Poisson rate from `start_rate` to `end_rate` over the
/// horizon, generated by thinning against the maximum rate.
#[derive(Debug, Clone)]
pub struct RampProcess {
    start_rate: f64,
    end_rate: f64,
    horizon: SimTime,
    cursor: f64,
}

impl RampProcess {
    /// Creates the ramp. Rates non-negative, at least one positive.
    pub fn new(start_rate: f64, end_rate: f64, horizon: SimTime) -> Self {
        assert!(start_rate >= 0.0 && end_rate >= 0.0);
        assert!(start_rate + end_rate > 0.0);
        RampProcess {
            start_rate,
            end_rate,
            horizon,
            cursor: 0.0,
        }
    }
}

impl ArrivalProcess for RampProcess {
    fn next_batch(&mut self, rng: &mut SimRng) -> Option<ArrivalBatch> {
        let max_rate = self.start_rate.max(self.end_rate);
        loop {
            let gap = Exponential::new(max_rate).sample(rng);
            self.cursor += gap;
            if self.cursor >= self.horizon.as_secs() {
                return None;
            }
            // Thinning: accept with probability rate(t)/max_rate.
            let accept = self.model_rate(SimTime::from_secs(self.cursor)) / max_rate;
            if rng.uniform01() < accept {
                return Some(ArrivalBatch {
                    time: SimTime::from_secs(self.cursor),
                    count: 1,
                    spread: 0.0,
                });
            }
        }
    }

    fn model_rate(&self, t: SimTime) -> f64 {
        let frac = (t.as_secs() / self.horizon.as_secs()).clamp(0.0, 1.0);
        self.start_rate + (self.end_rate - self.start_rate) * frac
    }

    fn horizon(&self) -> SimTime {
        self.horizon
    }
}

/// Two-state Markov-modulated Poisson process: rate `rate_a` in state A,
/// `rate_b` in state B, with exponential sojourns. A standard model of
/// bursty traffic that violates the renewal assumptions of the analytic
/// backends — used to test robustness.
#[derive(Debug, Clone)]
pub struct MmppProcess {
    rate_a: f64,
    rate_b: f64,
    sojourn_a: f64,
    sojourn_b: f64,
    horizon: SimTime,
    cursor: f64,
    in_a: bool,
    state_end: f64,
}

impl MmppProcess {
    /// Creates the process; sojourns are the mean times spent in each
    /// state.
    pub fn new(rate_a: f64, rate_b: f64, sojourn_a: f64, sojourn_b: f64, horizon: SimTime) -> Self {
        assert!(rate_a >= 0.0 && rate_b >= 0.0 && rate_a + rate_b > 0.0);
        assert!(sojourn_a > 0.0 && sojourn_b > 0.0);
        MmppProcess {
            rate_a,
            rate_b,
            sojourn_a,
            sojourn_b,
            horizon,
            cursor: 0.0,
            in_a: true,
            state_end: 0.0,
        }
    }

    /// Long-run average arrival rate.
    pub fn average_rate(&self) -> f64 {
        let wa = self.sojourn_a / (self.sojourn_a + self.sojourn_b);
        wa * self.rate_a + (1.0 - wa) * self.rate_b
    }
}

impl ArrivalProcess for MmppProcess {
    fn next_batch(&mut self, rng: &mut SimRng) -> Option<ArrivalBatch> {
        loop {
            if self.cursor >= self.horizon.as_secs() {
                return None;
            }
            if self.cursor >= self.state_end {
                // Sojourn over: flip state (the very first call keeps the
                // initial state A) and draw the next sojourn length.
                if self.state_end > 0.0 {
                    self.in_a = !self.in_a;
                }
                let mean = if self.in_a {
                    self.sojourn_a
                } else {
                    self.sojourn_b
                };
                self.state_end = self.cursor + Exponential::from_mean(mean).sample(rng);
            }
            let rate = if self.in_a { self.rate_a } else { self.rate_b };
            if rate <= 0.0 {
                self.cursor = self.state_end;
                continue;
            }
            let t = self.cursor + Exponential::new(rate).sample(rng);
            if t >= self.state_end {
                self.cursor = self.state_end;
                continue;
            }
            self.cursor = t;
            if t >= self.horizon.as_secs() {
                return None;
            }
            return Some(ArrivalBatch {
                time: SimTime::from_secs(t),
                count: 1,
                spread: 0.0,
            });
        }
    }

    fn model_rate(&self, _t: SimTime) -> f64 {
        self.average_rate()
    }

    fn horizon(&self) -> SimTime {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprov_des::RngFactory;

    fn drain(p: &mut dyn ArrivalProcess, rng: &mut SimRng) -> Vec<f64> {
        let mut out = vec![];
        while let Some(b) = p.next_batch(rng) {
            assert_eq!(b.count, 1);
            out.push(b.time.as_secs());
        }
        out
    }

    #[test]
    fn poisson_count_matches_rate() {
        let mut p = PoissonProcess::new(5.0, SimTime::from_secs(10_000.0));
        let mut rng = RngFactory::new(1).stream("poisson");
        let times = drain(&mut p, &mut rng);
        let n = times.len() as f64;
        assert!((n - 50_000.0).abs() < 3.0 * 50_000f64.sqrt(), "n = {n}");
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn step_changes_density() {
        let mut p = PiecewiseRateProcess::step(1.0, 10.0, 500.0, SimTime::from_secs(1000.0));
        let mut rng = RngFactory::new(2).stream("step");
        let times = drain(&mut p, &mut rng);
        let before = times.iter().filter(|&&t| t < 500.0).count() as f64;
        let after = times.iter().filter(|&&t| t >= 500.0).count() as f64;
        assert!((before - 500.0).abs() < 100.0, "before {before}");
        assert!((after - 5000.0).abs() < 300.0, "after {after}");
        assert_eq!(p.model_rate(SimTime::from_secs(10.0)), 1.0);
        assert_eq!(p.model_rate(SimTime::from_secs(700.0)), 10.0);
    }

    #[test]
    fn flash_crowd_burst_visible() {
        let mut p =
            PiecewiseRateProcess::flash_crowd(2.0, 50.0, 100.0, 20.0, SimTime::from_secs(300.0));
        let mut rng = RngFactory::new(3).stream("flash");
        let times = drain(&mut p, &mut rng);
        let burst = times
            .iter()
            .filter(|&&t| (100.0..120.0).contains(&t))
            .count() as f64;
        assert!((burst - 1000.0).abs() < 150.0, "burst {burst}");
    }

    #[test]
    fn zero_rate_piece_produces_nothing() {
        let mut p =
            PiecewiseRateProcess::new(vec![(0.0, 0.0), (100.0, 5.0)], SimTime::from_secs(200.0));
        let mut rng = RngFactory::new(4).stream("zero");
        let times = drain(&mut p, &mut rng);
        assert!(times.iter().all(|&t| t >= 100.0));
        assert!(!times.is_empty());
    }

    #[test]
    fn ramp_density_increases() {
        let mut p = RampProcess::new(0.0, 10.0, SimTime::from_secs(1000.0));
        let mut rng = RngFactory::new(5).stream("ramp");
        let times = drain(&mut p, &mut rng);
        let first_half = times.iter().filter(|&&t| t < 500.0).count();
        let second_half = times.len() - first_half;
        // Rates average 2.5 vs 7.5 → roughly 3× more in the second half.
        let ratio = second_half as f64 / first_half.max(1) as f64;
        assert!((2.0..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn mmpp_average_rate() {
        let mut p = MmppProcess::new(10.0, 1.0, 50.0, 50.0, SimTime::from_secs(20_000.0));
        assert!((p.average_rate() - 5.5).abs() < 1e-12);
        let mut rng = RngFactory::new(6).stream("mmpp");
        let times = drain(&mut p, &mut rng);
        let rate = times.len() as f64 / 20_000.0;
        assert!((rate - 5.5).abs() < 0.5, "empirical rate {rate}");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Index of dispersion of counts over windows should exceed 1.
        let horizon = 50_000.0;
        let mut p = MmppProcess::new(10.0, 0.5, 100.0, 100.0, SimTime::from_secs(horizon));
        let mut rng = RngFactory::new(7).stream("burst");
        let times = drain(&mut p, &mut rng);
        let window = 100.0;
        let n_windows = (horizon / window) as usize;
        let mut counts = vec![0f64; n_windows];
        for t in times {
            counts[(t / window) as usize] += 1.0;
        }
        let mean = counts.iter().sum::<f64>() / n_windows as f64;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / n_windows as f64;
        assert!(var / mean > 3.0, "dispersion {}", var / mean);
    }

    #[test]
    #[should_panic(expected = "must start at t=0")]
    fn piecewise_must_start_at_zero() {
        PiecewiseRateProcess::new(vec![(1.0, 2.0)], SimTime::from_secs(10.0));
    }

    #[test]
    fn poisson_gaps_are_bit_identical_to_direct_inversion() {
        // Every gap is -ln(U)/rate drawn straight off the rng.
        let mut p = PoissonProcess::new(5.0, SimTime::from_secs(1_000.0));
        let mut rng = RngFactory::new(11).stream("bitid");
        let mut reference = rng.clone();
        let mut cursor = 0.0;
        while let Some(b) = p.next_batch(&mut rng) {
            cursor += -reference.uniform01_open_left().ln() / 5.0;
            assert_eq!(b.time.as_secs().to_bits(), cursor.to_bits());
        }
    }
}
