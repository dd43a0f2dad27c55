//! The availability governor: combines the host power process, user
//! activity, network connectivity and the user's preferences into the
//! client's effective run state (§2.2: "BOINC is able to compute only when
//! a) the computer is powered on and BOINC is running, and b) computing is
//! allowed by the preferences").

use crate::process::{OnOffProcess, OnOffSpec};
use crate::trace::AvailTrace;
use bce_sim::Rng;
use bce_types::{Preferences, SimDuration, SimTime, DAY};

/// One availability signal: either a stochastic process or a replayed
/// trace.
#[derive(Debug, Clone)]
pub(crate) enum AvailSource {
    Process(OnOffProcess),
    Trace(AvailTrace),
}

impl AvailSource {
    pub(crate) fn state_at(&self, now: SimTime) -> bool {
        match self {
            AvailSource::Process(p) => p.state(),
            AvailSource::Trace(t) => t.state_at(now),
        }
    }

    pub(crate) fn next_transition_after(&self, now: SimTime) -> SimTime {
        match self {
            AvailSource::Process(p) => p.next_transition(),
            AvailSource::Trace(t) => t.next_transition_after(now).unwrap_or(SimTime::FAR_FUTURE),
        }
    }

    pub(crate) fn advance(&mut self, now: SimTime) {
        if let AvailSource::Process(p) = self {
            p.advance(now);
        }
    }
}

/// Scenario-level description of the three availability signals.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailSpec {
    /// Host powered on and BOINC running.
    pub host: OnOffSpec,
    /// User actively using the computer (affects the *-if-user-active
    /// preferences).
    pub user_active: OnOffSpec,
    /// Network connectivity (gates scheduler RPCs).
    pub network: OnOffSpec,
}

impl AvailSpec {
    pub fn always_on() -> Self {
        AvailSpec {
            host: OnOffSpec::AlwaysOn,
            user_active: OnOffSpec::AlwaysOff,
            network: OnOffSpec::AlwaysOn,
        }
    }

    pub fn instantiate(&self, rng: &mut Rng) -> Governor {
        Governor::new(
            AvailSource::Process(self.host.instantiate(rng.fork("host"))),
            AvailSource::Process(self.user_active.instantiate(rng.fork("user"))),
            AvailSource::Process(self.network.instantiate(rng.fork("net"))),
        )
    }
}

/// The client's effective run state at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRunState {
    /// CPU computing allowed.
    pub can_compute: bool,
    /// GPU computing allowed (implies nothing about `can_compute`; BOINC
    /// suspends GPUs separately).
    pub can_gpu: bool,
    /// Network reachable (scheduler RPCs possible).
    pub net_up: bool,
    /// User currently at the computer (drives the busy/idle RAM limits).
    pub user_active: bool,
}

impl HostRunState {
    pub(crate) const OFF: HostRunState =
        HostRunState { can_compute: false, can_gpu: false, net_up: false, user_active: false };
}

/// Tracks the availability signals and evaluates preference rules.
#[derive(Debug, Clone)]
pub struct Governor {
    host: AvailSource,
    user: AvailSource,
    net: AvailSource,
}

impl Governor {
    pub(crate) fn new(host: AvailSource, user: AvailSource, net: AvailSource) -> Self {
        Governor { host, user, net }
    }

    /// Replace the host-power signal with a recorded trace.
    pub fn with_host_trace(mut self, trace: AvailTrace) -> Self {
        self.host = AvailSource::Trace(trace);
        self
    }

    /// Apply transitions at or before `now`.
    pub fn advance(&mut self, now: SimTime) {
        self.host.advance(now);
        self.user.advance(now);
        self.net.advance(now);
    }

    /// Evaluate the run state at `now` under `prefs`. Call after
    /// [`Governor::advance`].
    pub fn run_state(&self, now: SimTime, prefs: &Preferences) -> HostRunState {
        let powered = self.host.state_at(now);
        let user_active = self.user.state_at(now);
        if !powered {
            return HostRunState { user_active, ..HostRunState::OFF };
        }
        let sec_of_day = now.secs().rem_euclid(DAY);

        let window_ok = prefs.compute_window.is_none_or(|w| w.contains(sec_of_day));
        let can_compute = window_ok && (prefs.run_if_user_active || !user_active);

        let gpu_window_ok = prefs.gpu_window.is_none_or(|w| w.contains(sec_of_day));
        let can_gpu = can_compute && gpu_window_ok && (prefs.gpu_if_user_active || !user_active);

        HostRunState { can_compute, can_gpu, net_up: self.net.state_at(now), user_active }
    }

    /// The earliest future instant at which the run state could change:
    /// the next signal transition or preference-window boundary.
    pub fn next_change_after(&self, now: SimTime, prefs: &Preferences) -> SimTime {
        let mut next = self
            .host
            .next_transition_after(now)
            .min(self.user.next_transition_after(now))
            .min(self.net.next_transition_after(now));
        let sec_of_day = now.secs().rem_euclid(DAY);
        for w in [prefs.compute_window, prefs.gpu_window].into_iter().flatten() {
            next = next.min(now + SimDuration::from_secs(w.next_boundary_after(sec_of_day)));
        }
        next
    }

    /// Long-run fraction of time computing is allowed, used by fetch
    /// policies reasoning about queue sizes (mirrors the client's
    /// "recent-average fraction of time when computing is allowed", §2.2).
    pub fn expected_on_fraction(&self, prefs: &Preferences) -> f64 {
        let host_frac = match &self.host {
            AvailSource::Process(p) => p.spec().on_fraction(),
            AvailSource::Trace(t) => t.on_fraction(SimTime::ZERO, SimTime::from_secs(30.0 * DAY)),
        };
        let user_frac = match &self.user {
            AvailSource::Process(p) => p.spec().on_fraction(),
            AvailSource::Trace(t) => t.on_fraction(SimTime::ZERO, SimTime::from_secs(30.0 * DAY)),
        };
        let pref_frac = if prefs.run_if_user_active { 1.0 } else { 1.0 - user_frac };
        let window_frac = prefs.compute_window.map_or(1.0, |w| w.duty_cycle());
        host_frac * pref_frac * window_frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::DailyWindow;

    fn governor(host: OnOffSpec, user: OnOffSpec, net: OnOffSpec) -> Governor {
        let mut rng = Rng::from_seed(1);
        AvailSpec { host, user_active: user, network: net }.instantiate(&mut rng)
    }

    #[test]
    fn powered_off_means_everything_off() {
        let g = governor(OnOffSpec::AlwaysOff, OnOffSpec::AlwaysOff, OnOffSpec::AlwaysOn);
        let st = g.run_state(SimTime::ZERO, &Preferences::default());
        assert_eq!(st, HostRunState::OFF);
    }

    #[test]
    fn user_active_suspends_gpu_by_default() {
        let g = governor(OnOffSpec::AlwaysOn, OnOffSpec::AlwaysOn, OnOffSpec::AlwaysOn);
        let prefs = Preferences::default(); // run_if_user_active=true, gpu_if_user_active=false
        let st = g.run_state(SimTime::ZERO, &prefs);
        assert!(st.can_compute);
        assert!(!st.can_gpu);
        assert!(st.net_up);
    }

    #[test]
    fn user_active_suspends_cpu_when_pref_off() {
        let g = governor(OnOffSpec::AlwaysOn, OnOffSpec::AlwaysOn, OnOffSpec::AlwaysOn);
        let prefs = Preferences { run_if_user_active: false, ..Default::default() };
        let st = g.run_state(SimTime::ZERO, &prefs);
        assert!(!st.can_compute);
        assert!(!st.can_gpu);
    }

    #[test]
    fn compute_window_gates_computing() {
        let g = governor(OnOffSpec::AlwaysOn, OnOffSpec::AlwaysOff, OnOffSpec::AlwaysOn);
        let prefs =
            Preferences { compute_window: Some(DailyWindow::new(9.0, 17.0)), ..Default::default() };
        let at_8 = g.run_state(SimTime::from_secs(8.0 * 3600.0), &prefs);
        let at_12 = g.run_state(SimTime::from_secs(12.0 * 3600.0), &prefs);
        assert!(!at_8.can_compute);
        assert!(at_12.can_compute);
        // Next change from 08:00 is the 09:00 window opening.
        let next = g.next_change_after(SimTime::from_secs(8.0 * 3600.0), &prefs);
        assert!((next.secs() - 9.0 * 3600.0).abs() < 1e-6);
    }

    #[test]
    fn trace_host_signal() {
        let trace = AvailTrace::new(
            true,
            vec![
                (SimTime::ZERO, true),
                (SimTime::from_secs(100.0), false),
                (SimTime::from_secs(200.0), true),
            ],
        );
        let g = governor(OnOffSpec::AlwaysOn, OnOffSpec::AlwaysOff, OnOffSpec::AlwaysOn)
            .with_host_trace(trace);
        let prefs = Preferences::default();
        assert!(g.run_state(SimTime::from_secs(50.0), &prefs).can_compute);
        assert!(!g.run_state(SimTime::from_secs(150.0), &prefs).can_compute);
        let next = g.next_change_after(SimTime::from_secs(50.0), &prefs);
        assert_eq!(next, SimTime::from_secs(100.0));
    }

    #[test]
    fn expected_on_fraction_composes() {
        let g = governor(
            OnOffSpec::duty_cycle(0.5, SimDuration::from_hours(2.0)),
            OnOffSpec::AlwaysOff,
            OnOffSpec::AlwaysOn,
        );
        let prefs = Preferences::default();
        assert!((g.expected_on_fraction(&prefs) - 0.5).abs() < 1e-12);
        let prefs_window =
            Preferences { compute_window: Some(DailyWindow::new(0.0, 12.0)), ..Default::default() };
        assert!((g.expected_on_fraction(&prefs_window) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn next_change_never_in_past() {
        let g = governor(
            OnOffSpec::duty_cycle(0.5, SimDuration::from_hours(1.0)),
            OnOffSpec::AlwaysOff,
            OnOffSpec::AlwaysOn,
        );
        let now = SimTime::ZERO;
        assert!(g.next_change_after(now, &Preferences::default()) > now);
    }
}
