//! Wall-clock adapters over `bce-faults`' [`RetryPolicy`]/[`RetryState`].
//!
//! The emulator's retry machinery lives in simulated time (`SimTime`);
//! the daemon's transient failures — `EMFILE` bursts in the accept loop,
//! checkpoint writes racing a full disk — live in wall time. Rather than
//! grow a second ad-hoc backoff implementation, this module maps wall
//! seconds onto the same policy arithmetic: one deterministic, tested
//! backoff curve for the whole workspace.

use bce_faults::{RetryPolicy, RetryState, RetryVerdict};
use bce_types::{SimDuration, SimTime};
use std::time::{Duration, Instant};

/// Accept-loop recovery: `EMFILE`/`ENFILE` and friends are almost always
/// transient (a shed burst is holding fds); back off briefly so the
/// burst clears, never give up — an accept loop that stops accepting is
/// an outage.
pub const ACCEPT_RETRY: RetryPolicy = RetryPolicy {
    min_delay: SimDuration::from_secs(0.01),
    max_delay: SimDuration::from_secs(0.5),
    multiplier: 2.0,
    jitter: 0.0,
    give_up_after: None,
};

/// Checkpoint-write recovery: a handful of quick retries, then give up
/// and surface the error (the campaign result is still correct; only
/// crash-safety degrades, and silently looping forever would stall the
/// drain).
pub const CHECKPOINT_RETRY: RetryPolicy = RetryPolicy {
    min_delay: SimDuration::from_secs(0.02),
    max_delay: SimDuration::from_secs(0.25),
    multiplier: 2.0,
    jitter: 0.0,
    give_up_after: Some(4),
};

/// A [`RetryState`] driven by wall-clock time.
pub(crate) struct WallRetry {
    policy: RetryPolicy,
    state: RetryState,
    origin: Instant,
}

impl WallRetry {
    pub(crate) fn new(policy: RetryPolicy) -> Self {
        WallRetry { policy, state: RetryState::new(), origin: Instant::now() }
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs(self.origin.elapsed().as_secs_f64())
    }

    /// Record a failure. Returns the backoff to sleep before the next
    /// attempt, or `None` once the policy's give-up limit is reached.
    pub(crate) fn fail(&mut self) -> Option<Duration> {
        let now = self.now();
        match self.state.fail(now, &self.policy, 0.0) {
            RetryVerdict::RetryAt(until) => {
                Some(Duration::from_secs_f64((until.secs() - now.secs()).max(0.0)))
            }
            RetryVerdict::GiveUp => None,
        }
    }

    /// Record a success: resets the backoff curve.
    pub(crate) fn succeed(&mut self) {
        self.state.succeed();
    }
}

/// Run `op` under `policy`, sleeping the policy's backoff between
/// attempts, until it succeeds or the policy gives up (returning the
/// last error). Used for checkpoint writes; the accept loop drives
/// [`WallRetry`] directly because it must interleave with drain checks.
pub(crate) fn retry_io<T, E>(
    policy: RetryPolicy,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    retry_io_with(policy, &mut op, std::thread::sleep)
}

/// [`retry_io`] with an injectable sleeper, so tests can capture the
/// exact backoff schedule instead of actually sleeping.
pub(crate) fn retry_io_with<T, E>(
    policy: RetryPolicy,
    op: &mut impl FnMut() -> Result<T, E>,
    mut sleep: impl FnMut(Duration),
) -> Result<T, E> {
    let mut retry = WallRetry::new(policy);
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => match retry.fail() {
                Some(delay) => sleep(delay),
                None => return Err(e),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_io_retries_then_succeeds_with_policy_delays() {
        // Regression test for the satellite requirement: the daemon's
        // transient-I/O retries must follow the shared RetryPolicy curve
        // (doubling from min_delay), not ad-hoc sleeps.
        let mut calls = 0;
        let mut delays: Vec<Duration> = Vec::new();
        let result: Result<u32, &str> = retry_io_with(
            CHECKPOINT_RETRY,
            &mut || {
                calls += 1;
                if calls < 3 {
                    Err("transient")
                } else {
                    Ok(7)
                }
            },
            |d| delays.push(d),
        );
        assert_eq!(result, Ok(7));
        assert_eq!(calls, 3);
        assert_eq!(delays.len(), 2);
        // First delay = min_delay, second = doubled (both well under the
        // cap). Allow sub-millisecond slack for the Instant->SimTime map.
        assert!((delays[0].as_secs_f64() - 0.02).abs() < 5e-3, "{delays:?}");
        assert!((delays[1].as_secs_f64() - 0.04).abs() < 5e-3, "{delays:?}");
    }

    #[test]
    fn retry_io_gives_up_after_policy_limit() {
        let mut calls = 0;
        let result: Result<(), String> = retry_io_with(
            CHECKPOINT_RETRY,
            &mut || {
                calls += 1;
                Err(format!("fail {calls}"))
            },
            |_| {},
        );
        // give_up_after 4 = the initial attempt plus 3 retries.
        assert_eq!(calls, 4);
        assert_eq!(result.unwrap_err(), "fail 4");
    }

    #[test]
    fn accept_retry_never_gives_up_and_caps_delay() {
        let mut retry = WallRetry::new(ACCEPT_RETRY);
        let mut last = Duration::ZERO;
        for _ in 0..20 {
            let d = retry.fail().expect("accept retry must never give up");
            assert!(d <= Duration::from_millis(501), "{d:?}");
            last = d;
        }
        assert!(last >= Duration::from_millis(490), "delay should reach the cap, got {last:?}");
        retry.succeed();
        assert_eq!(retry.state, RetryState::new());
        let d = retry.fail().unwrap();
        assert!(d <= Duration::from_millis(11), "reset curve restarts at min_delay, got {d:?}");
    }
}
