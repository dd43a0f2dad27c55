//! The unified retry/backoff policy shared by the scheduler-RPC path and the
//! transfer layer.
//!
//! Policy and state are split so one immutable [`RetryPolicy`] can govern many
//! independent [`RetryState`]s (two per project for RPCs, one per transfer for
//! the network layer). The arithmetic of the scheduler policy is bit-identical
//! to the client's original ad-hoc backoff: delay = `min * multiplier^n`
//! capped at `max`, with the exponent clamped at 16.

use bce_types::{SimDuration, SimTime};

/// How retries back off after consecutive failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay after the first failure.
    pub min_delay: SimDuration,
    /// Cap on any single delay (before jitter; jitter is also re-capped).
    pub max_delay: SimDuration,
    /// Per-consecutive-failure growth factor.
    pub multiplier: f64,
    /// Deterministic jitter amplitude as a fraction of the base delay:
    /// the delay becomes `base * (1 + jitter * (2u - 1))` for a caller-
    /// supplied uniform draw `u` in `[0, 1)`. Zero means no jitter and no
    /// dependence on `u` at all.
    pub jitter: f64,
    /// After this many consecutive failures the operation is abandoned
    /// ([`RetryVerdict::GiveUp`]); `None` retries forever.
    pub give_up_after: Option<u32>,
}

/// Exponent clamp, carried over from the original client backoff (2^16 minutes is
/// already far past any realistic `max_delay`; the clamp only guards `powi`).
const MAX_EXPONENT: u32 = 16;

impl RetryPolicy {
    /// Scheduler-RPC backoff: 1 minute doubling to 4 hours, never gives up.
    /// Matches the BOINC client's scheduler backoff and is arithmetically
    /// identical to the original client backoff (no jitter).
    pub const SCHEDULER_RPC: RetryPolicy = RetryPolicy {
        min_delay: SimDuration::from_secs(60.0),
        max_delay: SimDuration::from_secs(4.0 * 3600.0),
        multiplier: 2.0,
        jitter: 0.0,
        give_up_after: None,
    };

    /// File-transfer retry: same 1 min → 4 h doubling, but with ±50% jitter
    /// (the real client randomizes transfer backoff to avoid thundering
    /// herds) and a give-up limit that errors the job, mirroring BOINC's
    /// `file_xfer` giveup after repeated failures.
    pub const TRANSFER: RetryPolicy = RetryPolicy {
        min_delay: SimDuration::from_secs(60.0),
        max_delay: SimDuration::from_secs(4.0 * 3600.0),
        multiplier: 2.0,
        jitter: 0.5,
        give_up_after: Some(8),
    };

    /// Delay for the `n`-th consecutive failure (0-based), given a uniform
    /// draw in `[0, 1)` for jitter. With `jitter == 0` the draw is ignored.
    pub fn delay_for(&self, consecutive_failures: u32, jitter_u: f64) -> SimDuration {
        let exponent = consecutive_failures.min(MAX_EXPONENT) as i32;
        let base =
            (self.min_delay.secs() * self.multiplier.powi(exponent)).min(self.max_delay.secs());
        let secs = if self.jitter > 0.0 {
            (base * (1.0 + self.jitter * (2.0 * jitter_u - 1.0)))
                .clamp(self.min_delay.secs(), self.max_delay.secs())
        } else {
            base
        };
        SimDuration::from_secs(secs)
    }
}

/// What a failure means for the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryVerdict {
    /// Try again once `RetryState::until` has passed.
    RetryAt(SimTime),
    /// The policy's give-up limit was reached; the operation should be
    /// abandoned and the owning job errored.
    GiveUp,
}

/// Mutable per-operation backoff state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RetryState {
    failures: u32,
    /// Earliest time the next attempt is allowed.
    pub until: SimTime,
}

impl RetryState {
    pub fn new() -> Self {
        RetryState::default()
    }

    /// Record a failure at `now`. Returns when (or whether) to retry.
    /// `jitter_u` must be a uniform draw in `[0, 1)` from a deterministic
    /// stream when the policy uses jitter; pass `0.0` for jitter-free
    /// policies.
    pub fn fail(&mut self, now: SimTime, policy: &RetryPolicy, jitter_u: f64) -> RetryVerdict {
        let delay = policy.delay_for(self.failures, jitter_u);
        self.failures = self.failures.saturating_add(1);
        self.until = now + delay;
        match policy.give_up_after {
            Some(limit) if self.failures >= limit => RetryVerdict::GiveUp,
            _ => RetryVerdict::RetryAt(self.until),
        }
    }

    /// Record a success: clears the backoff entirely.
    pub fn succeed(&mut self) {
        self.failures = 0;
        self.until = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_policy_matches_legacy_backoff() {
        // Replicate the legacy arithmetic by hand and compare bit-for-bit.
        let policy = RetryPolicy::SCHEDULER_RPC;
        let mut legacy_level: u32 = 0;
        let mut state = RetryState::new();
        let now = SimTime::ZERO;
        for _ in 0..24 {
            let legacy_delay = (60.0 * 2f64.powi(legacy_level as i32)).min(4.0 * 3600.0);
            legacy_level = (legacy_level + 1).min(16);
            let before = state.failures;
            state.fail(now, &policy, 0.0);
            let got = state.until.secs() - now.secs();
            assert_eq!(
                got.to_bits(),
                legacy_delay.to_bits(),
                "failure #{before}: {got} != {legacy_delay}"
            );
        }
    }

    #[test]
    fn delays_are_monotone_and_capped() {
        let policy = RetryPolicy::SCHEDULER_RPC;
        let mut prev = SimDuration::ZERO;
        for n in 0..40 {
            let d = policy.delay_for(n, 0.0);
            assert!(d >= prev, "delay shrank at failure {n}");
            assert!(d <= policy.max_delay);
            assert!(d >= policy.min_delay);
            prev = d;
        }
        assert_eq!(policy.delay_for(39, 0.0), policy.max_delay);
    }

    #[test]
    fn jitter_stays_within_caps() {
        let policy = RetryPolicy::TRANSFER;
        for n in 0..12 {
            for u in [0.0, 0.25, 0.5, 0.75, 0.999_999] {
                let d = policy.delay_for(n, u);
                assert!(d >= policy.min_delay, "below min at n={n} u={u}");
                assert!(d <= policy.max_delay, "above max at n={n} u={u}");
            }
        }
        // Jitter actually spreads delays at a fixed failure count.
        let lo = policy.delay_for(3, 0.0);
        let hi = policy.delay_for(3, 0.999);
        assert!(hi > lo);
    }

    #[test]
    fn give_up_after_limit() {
        let policy = RetryPolicy { give_up_after: Some(3), ..RetryPolicy::TRANSFER };
        let mut state = RetryState::new();
        let now = SimTime::ZERO;
        assert_eq!(state.fail(now, &policy, 0.5), RetryVerdict::RetryAt(state.until));
        assert_eq!(state.fail(now, &policy, 0.5), RetryVerdict::RetryAt(state.until));
        assert_eq!(state.fail(now, &policy, 0.5), RetryVerdict::GiveUp);
        // Success resets, so the next failure retries again.
        state.succeed();
        assert_eq!(state.failures, 0);
        assert!(matches!(state.fail(now, &policy, 0.5), RetryVerdict::RetryAt(_)));
    }
}
