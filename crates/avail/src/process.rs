//! Two-state (on/off) availability processes.
//!
//! §4.3b: "host availability is modeled as a random process in which
//! available and unavailable periods have exponentially distributed
//! lengths." The same machinery also models user activity (for the
//! run-if-user-active preferences), network connectivity, server uptime
//! and work supply.

use bce_sim::{Distribution, Exponential, Rng};
use bce_types::{SimDuration, SimTime};

/// Specification of an on/off process, convertible into a running
/// [`OnOffProcess`] given an RNG stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnOffSpec {
    /// Permanently on.
    AlwaysOn,
    /// Permanently off.
    AlwaysOff,
    /// Alternating exponential periods.
    Exponential {
        up_mean: SimDuration,
        down_mean: SimDuration,
        /// Start in the on state?
        start_on: bool,
    },
}

impl OnOffSpec {
    /// An exponential process with the given availability fraction and mean
    /// cycle (up + down) length, starting on.
    pub fn duty_cycle(on_fraction: f64, cycle_mean: SimDuration) -> Self {
        debug_assert!((0.0..=1.0).contains(&on_fraction));
        if on_fraction >= 1.0 {
            return OnOffSpec::AlwaysOn;
        }
        if on_fraction <= 0.0 {
            return OnOffSpec::AlwaysOff;
        }
        OnOffSpec::Exponential {
            up_mean: cycle_mean * on_fraction,
            down_mean: cycle_mean * (1.0 - on_fraction),
            start_on: true,
        }
    }

    /// Long-run fraction of time in the on state.
    pub(crate) fn on_fraction(&self) -> f64 {
        match *self {
            OnOffSpec::AlwaysOn => 1.0,
            OnOffSpec::AlwaysOff => 0.0,
            OnOffSpec::Exponential { up_mean, down_mean, .. } => {
                up_mean.secs() / (up_mean.secs() + down_mean.secs())
            }
        }
    }

    pub fn instantiate(&self, rng: Rng) -> OnOffProcess {
        OnOffProcess::new(*self, rng)
    }
}

/// A realized on/off process: current state plus the pre-drawn time of the
/// next transition. Transitions are drawn lazily from the process's own RNG
/// stream, so different processes never perturb each other.
#[derive(Debug, Clone)]
pub struct OnOffProcess {
    spec: OnOffSpec,
    rng: Rng,
    state: bool,
    next_transition: SimTime,
}

impl OnOffProcess {
    pub(crate) fn new(spec: OnOffSpec, mut rng: Rng) -> Self {
        let (state, next) = match spec {
            OnOffSpec::AlwaysOn => (true, SimTime::FAR_FUTURE),
            OnOffSpec::AlwaysOff => (false, SimTime::FAR_FUTURE),
            OnOffSpec::Exponential { up_mean, down_mean, start_on } => {
                let mean = if start_on { up_mean } else { down_mean };
                let dt = Exponential::new(mean.secs()).sample(&mut rng);
                (start_on, SimTime::ZERO + SimDuration::from_secs(dt))
            }
        };
        OnOffProcess { spec, rng, state, next_transition: next }
    }

    /// Current state (valid for times < `next_transition()`).
    pub fn state(&self) -> bool {
        self.state
    }

    /// When the state will next flip.
    pub(crate) fn next_transition(&self) -> SimTime {
        self.next_transition
    }

    /// Advance to `now`, applying any transitions scheduled at or before it.
    /// Returns `true` if the state changed.
    pub fn advance(&mut self, now: SimTime) -> bool {
        let before = self.state;
        while self.next_transition <= now {
            self.state = !self.state;
            let mean = match self.spec {
                OnOffSpec::Exponential { up_mean, down_mean, .. } => {
                    if self.state {
                        up_mean
                    } else {
                        down_mean
                    }
                }
                // AlwaysOn/AlwaysOff never get here (next = FAR_FUTURE).
                _ => unreachable!("transition scheduled for constant process"),
            };
            let dt = Exponential::new(mean.secs()).sample(&mut self.rng);
            self.next_transition += SimDuration::from_secs(dt.max(1e-6));
        }
        self.state != before
    }

    pub(crate) fn spec(&self) -> &OnOffSpec {
        &self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_never_transitions() {
        let mut p = OnOffSpec::AlwaysOn.instantiate(Rng::from_seed(1));
        assert!(p.state());
        assert_eq!(p.next_transition(), SimTime::FAR_FUTURE);
        assert!(!p.advance(SimTime::from_secs(1e12)));
        assert!(p.state());
    }

    #[test]
    fn always_off() {
        let p = OnOffSpec::AlwaysOff.instantiate(Rng::from_seed(1));
        assert!(!p.state());
        assert_eq!(OnOffSpec::AlwaysOff.on_fraction(), 0.0);
    }

    #[test]
    fn duty_cycle_fraction() {
        let s = OnOffSpec::duty_cycle(0.25, SimDuration::from_hours(4.0));
        assert!((s.on_fraction() - 0.25).abs() < 1e-12);
        match s {
            OnOffSpec::Exponential { up_mean, down_mean, .. } => {
                assert!((up_mean.secs() - 3600.0).abs() < 1e-9);
                assert!((down_mean.secs() - 3.0 * 3600.0).abs() < 1e-9);
            }
            _ => panic!("expected exponential"),
        }
        assert_eq!(OnOffSpec::duty_cycle(1.0, SimDuration::from_hours(1.0)), OnOffSpec::AlwaysOn);
        assert_eq!(OnOffSpec::duty_cycle(0.0, SimDuration::from_hours(1.0)), OnOffSpec::AlwaysOff);
    }

    #[test]
    fn transitions_alternate() {
        let spec = OnOffSpec::Exponential {
            up_mean: SimDuration::from_secs(100.0),
            down_mean: SimDuration::from_secs(100.0),
            start_on: true,
        };
        let mut p = spec.instantiate(Rng::from_seed(2));
        let mut prev_state = p.state();
        let mut transitions = 0;
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            t = p.next_transition();
            p.advance(t);
            assert_ne!(p.state(), prev_state);
            prev_state = p.state();
            transitions += 1;
        }
        assert_eq!(transitions, 100);
        assert!(t.secs() > 0.0);
    }

    #[test]
    fn long_run_fraction_matches_duty_cycle() {
        let spec = OnOffSpec::duty_cycle(0.7, SimDuration::from_secs(2000.0));
        let mut p = spec.instantiate(Rng::from_seed(3));
        let mut on_time = 0.0;
        let mut now = SimTime::ZERO;
        let end = SimTime::from_secs(3e7);
        while now < end {
            let next = p.next_transition().min(end);
            if p.state() {
                on_time += (next - now).secs();
            }
            now = next;
            p.advance(now);
        }
        let frac = on_time / 3e7;
        assert!((frac - 0.7).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn advance_is_idempotent_between_transitions() {
        let spec = OnOffSpec::duty_cycle(0.5, SimDuration::from_secs(100.0));
        let mut p = spec.instantiate(Rng::from_seed(4));
        let mid = SimTime::from_secs(p.next_transition().secs() / 2.0);
        let next_before = p.next_transition();
        assert!(!p.advance(mid));
        assert_eq!(p.next_transition(), next_before);
    }
}
