//! Recorded availability traces.
//!
//! §3.4 notes that queue parameters "could be derived from availability
//! traces"; traces also let BCE replay a specific volunteer's observed
//! availability pattern instead of a random process. A trace is a sorted
//! list of transitions, each giving the state *from* that instant onward;
//! scenario files carry it as JSON (see `bce_core::spec`).

use bce_types::SimTime;

/// A deterministic availability history.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailTrace {
    /// Initial state before the first transition.
    initial: bool,
    /// Sorted transition instants with the state that begins there.
    transitions: Vec<(SimTime, bool)>,
}

impl AvailTrace {
    pub fn new(initial: bool, transitions: Vec<(SimTime, bool)>) -> Self {
        debug_assert!(transitions.windows(2).all(|w| w[0].0 <= w[1].0), "trace must be sorted");
        AvailTrace { initial, transitions }
    }

    /// State at time `t`.
    pub(crate) fn state_at(&self, t: SimTime) -> bool {
        let idx = self.transitions.partition_point(|&(tt, _)| tt <= t);
        if idx == 0 {
            self.initial
        } else {
            self.transitions[idx - 1].1
        }
    }

    /// The next transition strictly after `t`, if any.
    pub(crate) fn next_transition_after(&self, t: SimTime) -> Option<SimTime> {
        let idx = self.transitions.partition_point(|&(tt, _)| tt <= t);
        self.transitions.get(idx).map(|&(tt, _)| tt)
    }

    /// Fraction of `[start, end)` in the on state.
    pub(crate) fn on_fraction(&self, start: SimTime, end: SimTime) -> f64 {
        if end <= start {
            return 0.0;
        }
        let mut on = 0.0;
        let mut t = start;
        while t < end {
            let next = self.next_transition_after(t).unwrap_or(SimTime::FAR_FUTURE).min(end);
            if self.state_at(t) {
                on += (next - t).secs();
            }
            t = next;
        }
        on / (end - start).secs()
    }

    pub fn transitions(&self) -> &[(SimTime, bool)] {
        &self.transitions
    }

    /// State before the first transition.
    pub fn initial(&self) -> bool {
        self.initial
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn trace(initial: bool, points: &[(f64, bool)]) -> AvailTrace {
        AvailTrace::new(initial, points.iter().map(|&(s, on)| (t(s), on)).collect())
    }

    #[test]
    fn parse_and_lookup() {
        let tr = trace(true, &[(0.0, true), (100.0, false), (250.0, true)]);
        assert!(tr.state_at(t(0.0)));
        assert!(tr.state_at(t(99.9)));
        assert!(!tr.state_at(t(100.0)));
        assert!(tr.state_at(t(250.0)));
        assert_eq!(tr.next_transition_after(t(0.0)), Some(t(100.0)));
        assert_eq!(tr.next_transition_after(t(100.0)), Some(t(250.0)));
        assert_eq!(tr.next_transition_after(t(250.0)), None);
    }

    #[test]
    fn initial_state_defaults_on() {
        let tr = trace(true, &[(50.0, false)]);
        assert!(tr.state_at(t(10.0)));
        assert!(!tr.state_at(t(60.0)));
    }

    #[test]
    fn empty_trace_is_always_on() {
        let tr = trace(true, &[]);
        assert!(tr.state_at(t(1e9)));
        assert_eq!(tr.next_transition_after(t(0.0)), None);
    }

    #[test]
    fn on_fraction() {
        let tr = trace(true, &[(0.0, true), (100.0, false), (200.0, true)]);
        assert!((tr.on_fraction(t(0.0), t(200.0)) - 0.5).abs() < 1e-12);
        assert!((tr.on_fraction(t(0.0), t(400.0)) - 0.75).abs() < 1e-12);
        assert_eq!(tr.on_fraction(t(10.0), t(10.0)), 0.0);
    }
}
