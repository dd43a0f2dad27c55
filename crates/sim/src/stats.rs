//! Online statistics used when accumulating figures of merit.

use bce_types::{SimDuration, SimTime};

/// Welford's online mean/variance, plus min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
    pub fn min(&self) -> f64 {
        self.min
    }
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Root-mean-square of a slice.
pub fn rms(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Integrates a piecewise-constant signal over time: `add(x, dt)`
/// accumulates `x·dt`; `time_average()` divides by total time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeWeighted {
    integral: f64,
    total_time: f64,
}

impl TimeWeighted {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, value: f64, dt: SimDuration) {
        let dt = dt.secs();
        debug_assert!(dt >= 0.0);
        self.integral += value * dt;
        self.total_time += dt;
    }

    pub fn integral(&self) -> f64 {
        self.integral
    }

    pub fn total_time(&self) -> f64 {
        self.total_time
    }

    pub fn time_average(&self) -> f64 {
        if self.total_time > 0.0 {
            self.integral / self.total_time
        } else {
            0.0
        }
    }
}

/// An exponentially-weighted average with a configurable half-life — the
/// paper's `REC(P)` estimator (§3.1, global accounting; §5.4 sweeps the
/// half-life `A`).
///
/// Semantics follow BOINC's recent-estimated-credit: the state decays with
/// half-life `A`, and work adds in linearly. `update(now, rate)` accounts
/// a constant accrual `rate` over the span since the last update:
///
/// `V(t+dt) = V(t)·2^(−dt/A) + rate·A/ln2·(1 − 2^(−dt/A))`
///
/// so a constant rate converges to `rate·A/ln2` (a rate-to-level
/// conversion); comparing projects only needs relative values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpAvg {
    half_life: f64,
    value: f64,
    last_update: SimTime,
}

impl ExpAvg {
    pub fn new(half_life: SimDuration) -> Self {
        debug_assert!(half_life.is_positive());
        ExpAvg { half_life: half_life.secs(), value: 0.0, last_update: SimTime::ZERO }
    }

    pub fn value(&self) -> f64 {
        self.value
    }

    /// Decay to `now` and accrue `rate` (units/second) over the interval.
    pub fn update(&mut self, now: SimTime, rate: f64) {
        let dt = (now - self.last_update).secs();
        if dt < 0.0 {
            return;
        }
        let ln2 = std::f64::consts::LN_2;
        let decay = (-ln2 * dt / self.half_life).exp();
        let gain = self.half_life / ln2 * (1.0 - decay);
        self.value = self.value * decay + rate * gain;
        self.last_update = now;
    }

    /// Decay only (no accrual) — equivalent to `update(now, 0.0)`.
    pub fn decay_to(&mut self, now: SimTime) {
        self.update(now, 0.0);
    }
}

/// A fixed-bin histogram over `[lo, hi)` with under/overflow bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo && nbins > 0);
        Histogram { lo, hi, bins: vec![0; nbins], underflow: 0, overflow: 0 }
    }

    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let i = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[i.min(n - 1)] += 1;
        }
    }

    pub fn bins(&self) -> &[u64] {
        &self.bins
    }
    pub fn underflow(&self) -> u64 {
        self.underflow
    }
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn rms_matches_hand_calc() {
        assert_eq!(rms(&[]), 0.0);
        assert!((rms(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new();
        tw.add(1.0, SimDuration::from_secs(10.0));
        tw.add(0.0, SimDuration::from_secs(30.0));
        assert!((tw.time_average() - 0.25).abs() < 1e-12);
        assert_eq!(tw.integral(), 10.0);
        assert_eq!(tw.total_time(), 40.0);
    }

    #[test]
    fn expavg_converges_to_rate_times_hl_over_ln2() {
        let hl = SimDuration::from_secs(100.0);
        let mut e = ExpAvg::new(hl);
        let mut t = SimTime::ZERO;
        for _ in 0..1000 {
            t += SimDuration::from_secs(10.0);
            e.update(t, 2.0);
        }
        let expected = 2.0 * 100.0 / std::f64::consts::LN_2;
        assert!((e.value() / expected - 1.0).abs() < 1e-6, "{} vs {}", e.value(), expected);
    }

    #[test]
    fn expavg_halves_per_half_life() {
        let mut e = ExpAvg::new(SimDuration::from_secs(50.0));
        e.update(SimTime::from_secs(0.0), 0.0);
        // Inject: one interval of rate then decay.
        e.update(SimTime::from_secs(1.0), 100.0);
        let v1 = e.value();
        e.decay_to(SimTime::from_secs(51.0));
        assert!((e.value() / v1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn expavg_update_step_independence() {
        // Updating in one 100 s step or ten 10 s steps gives the same value.
        let hl = SimDuration::from_secs(30.0);
        let mut a = ExpAvg::new(hl);
        let mut b = ExpAvg::new(hl);
        a.update(SimTime::from_secs(100.0), 3.0);
        for i in 1..=10 {
            b.update(SimTime::from_secs(10.0 * i as f64), 3.0);
        }
        assert!((a.value() - b.value()).abs() < 1e-9);
    }

    #[test]
    fn histogram_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 0.0, 0.5, 5.0, 9.99, 10.0, 42.0] {
            h.push(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.total(), 7);
    }
}
