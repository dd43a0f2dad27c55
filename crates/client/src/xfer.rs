//! File-transfer modelling (§6.2 future work, implemented here).
//!
//! Jobs with input files only become runnable after their download
//! completes; jobs with output files are only reportable after their upload
//! completes. Active transfers in one direction share the link bandwidth
//! equally. With no network model configured, transfers complete instantly
//! (the paper's base assumption: "jobs are assumed to be runnable
//! immediately after dispatch").
//!
//! Fault injection: a transfer attempt may be planned to fail once a given
//! number of bytes has moved (`enqueue_faulty`). Failed attempts are
//! reported from [`TransferQueue::advance`] so the client can apply its
//! retry policy; a host crash restarts every in-flight transfer from byte
//! zero ([`TransferQueue::restart_all`]).

use bce_types::{JobId, SimDuration, SimTime};

/// Host link speeds in bytes/second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    pub down_bps: f64,
    pub up_bps: f64,
}

impl NetworkModel {
    pub fn symmetric(bps: f64) -> Self {
        NetworkModel { down_bps: bps, up_bps: bps }
    }

    /// Both directions must have positive, finite bandwidth. Returns the
    /// offending field name on failure.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        if !(self.down_bps.is_finite() && self.down_bps > 0.0) {
            return Err("down_bps");
        }
        if !(self.up_bps.is_finite() && self.up_bps > 0.0) {
            return Err("up_bps");
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Transfer {
    job: JobId,
    bytes_remaining: f64,
    total_bytes: f64,
    /// Fault plan: the attempt fails once `bytes_remaining` drops to this
    /// value (always > 0, so failure strictly precedes completion).
    fail_at_remaining: Option<f64>,
}

impl Transfer {
    /// Bytes left until this transfer's next event (failure or completion).
    fn bytes_to_event(&self) -> f64 {
        match self.fail_at_remaining {
            Some(fail_rem) => self.bytes_remaining - fail_rem,
            None => self.bytes_remaining,
        }
    }
}

/// What happened during one [`TransferQueue::advance`] interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct XferEvents {
    /// Jobs whose transfer finished.
    pub(crate) completed: Vec<JobId>,
    /// Jobs whose transfer attempt failed mid-flight (removed from the
    /// queue; the owner decides whether to retry).
    pub(crate) failed: Vec<JobId>,
}

/// A single-direction transfer queue with equal bandwidth sharing.
#[derive(Debug, Clone)]
pub(crate) struct TransferQueue {
    rate_bps: f64,
    active: Vec<Transfer>,
}

impl TransferQueue {
    /// `rate_bps` must be positive and finite — enforced in release builds
    /// too, because a zero/NaN rate silently wedges the event loop (the
    /// next-completion estimate becomes infinite or NaN).
    pub(crate) fn new(rate_bps: f64) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "TransferQueue rate must be positive and finite, got {rate_bps}"
        );
        TransferQueue { rate_bps, active: Vec::new() }
    }

    /// Add a transfer that will fail once `fail_after` bytes have moved
    /// (`None` = runs to completion). `fail_after` is clamped below the
    /// transfer size so a planned failure always fires before completion.
    pub(crate) fn enqueue_faulty(
        &mut self,
        job: JobId,
        bytes: f64,
        fail_after: Option<f64>,
    ) -> bool {
        if bytes <= 0.0 {
            return false;
        }
        let fail_at_remaining = fail_after.map(|sent| (bytes - sent.max(0.0)).max(1e-9));
        self.active.push(Transfer {
            job,
            bytes_remaining: bytes,
            total_bytes: bytes,
            fail_at_remaining,
        });
        true
    }

    /// Progress transfers over `dt` (only while the network is up);
    /// returns jobs whose transfer finished or failed. Failed transfers
    /// are removed — re-enqueue to retry.
    pub(crate) fn advance(&mut self, dt: SimDuration, net_up: bool) -> XferEvents {
        let mut ev = XferEvents::default();
        if !net_up || self.active.is_empty() || !dt.is_positive() {
            return ev;
        }
        // Equal sharing with event cascades inside the interval: each
        // completion (or failure) frees bandwidth for the survivors.
        let mut budget = dt.secs();
        while budget > 1e-12 && !self.active.is_empty() {
            let share = self.rate_bps / self.active.len() as f64;
            // Time until the nearest event (completion or planned failure).
            let min_bytes =
                self.active.iter().map(|t| t.bytes_to_event()).fold(f64::INFINITY, f64::min);
            let t_event = min_bytes.max(0.0) / share;
            let step = t_event.min(budget);
            for t in &mut self.active {
                t.bytes_remaining -= share * step;
            }
            self.active.retain(|t| {
                if let Some(fail_rem) = t.fail_at_remaining {
                    if t.bytes_remaining <= fail_rem + 1e-6 {
                        ev.failed.push(t.job);
                        return false;
                    }
                }
                if t.bytes_remaining <= 1e-6 {
                    ev.completed.push(t.job);
                    false
                } else {
                    true
                }
            });
            budget -= step;
        }
        ev
    }

    /// Time until the next event (completion or planned failure) assuming
    /// the network stays up and the active set is fixed (events only speed
    /// things up, so this is an upper bound — the emulator reschedules
    /// after each event).
    pub(crate) fn next_completion_in(&self) -> Option<SimDuration> {
        if self.active.is_empty() {
            return None;
        }
        let share = self.rate_bps / self.active.len() as f64;
        let min_bytes =
            self.active.iter().map(|t| t.bytes_to_event()).fold(f64::INFINITY, f64::min);
        // Quantize to 1 ms so a microscopic residue (left by a prior
        // partial advance) cannot produce a completion time that rounds
        // to "now" and stalls the event loop.
        Some(SimDuration::from_secs((min_bytes / share).max(1e-3)))
    }

    /// Drop every in-flight transfer (host crash): returns `(job,
    /// total_bytes)` for each so the owner can re-enqueue from byte zero.
    pub(crate) fn restart_all(&mut self) -> Vec<(JobId, f64)> {
        let dropped = self.active.iter().map(|t| (t.job, t.total_bytes)).collect();
        self.active.clear();
        dropped
    }

    pub(crate) fn contains(&self, job: JobId) -> bool {
        self.active.iter().any(|t| t.job == job)
    }
}

/// Both directions plus the completion-time helper the emulator polls.
#[derive(Debug, Clone)]
pub(crate) struct Transfers {
    pub(crate) downloads: TransferQueue,
    pub(crate) uploads: TransferQueue,
}

impl Transfers {
    pub(crate) fn new(model: Option<NetworkModel>) -> Self {
        // "Instant" = effectively infinite bandwidth.
        let m = model.unwrap_or(NetworkModel::symmetric(1e18));
        if let Err(field) = m.validate() {
            panic!("invalid NetworkModel: non-positive or non-finite {field}");
        }
        Transfers {
            downloads: TransferQueue::new(m.down_bps),
            uploads: TransferQueue::new(m.up_bps),
        }
    }

    pub(crate) fn next_event_after(&self, now: SimTime) -> Option<SimTime> {
        let d = self.downloads.next_completion_in();
        let u = self.uploads.next_completion_in();
        match (d, u) {
            (None, None) => None,
            (Some(a), None) => Some(now + a),
            (None, Some(b)) => Some(now + b),
            (Some(a), Some(b)) => Some(now + a.min(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn single_transfer_timing() {
        let mut q = TransferQueue::new(1000.0); // 1000 B/s
        assert!(q.enqueue_faulty(JobId(1), 5000.0, None));
        assert_eq!(q.next_completion_in(), Some(d(5.0)));
        assert!(q.advance(d(4.0), true).completed.is_empty());
        let ev = q.advance(d(1.0), true);
        assert_eq!(ev.completed, vec![JobId(1)]);
        assert!(ev.failed.is_empty());
        assert!(q.active.is_empty());
    }

    #[test]
    fn equal_sharing_halves_rate() {
        let mut q = TransferQueue::new(1000.0);
        q.enqueue_faulty(JobId(1), 1000.0, None);
        q.enqueue_faulty(JobId(2), 1000.0, None);
        // Each gets 500 B/s: 2 s to finish both.
        assert_eq!(q.next_completion_in(), Some(d(2.0)));
        let ev = q.advance(d(2.0), true);
        assert_eq!(ev.completed.len(), 2);
    }

    #[test]
    fn completion_cascade_within_interval() {
        let mut q = TransferQueue::new(1000.0);
        q.enqueue_faulty(JobId(1), 500.0, None);
        q.enqueue_faulty(JobId(2), 2000.0, None);
        // First second: 500 B/s each; J1 done at t=1. Then J2 gets full
        // 1000 B/s: 1500 B remaining → done at t=2.5.
        let ev = q.advance(d(2.5), true);
        assert_eq!(ev.completed, vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn network_down_stalls() {
        let mut q = TransferQueue::new(1000.0);
        q.enqueue_faulty(JobId(1), 100.0, None);
        assert!(q.advance(d(100.0), false).completed.is_empty());
        assert!(q.contains(JobId(1)));
    }

    #[test]
    fn zero_bytes_never_queued() {
        let mut q = TransferQueue::new(1000.0);
        assert!(!q.enqueue_faulty(JobId(1), 0.0, None));
        assert!(q.active.is_empty());
        assert_eq!(q.next_completion_in(), None);
    }

    #[test]
    fn transfers_facade() {
        let mut t = Transfers::new(Some(NetworkModel { down_bps: 100.0, up_bps: 50.0 }));
        t.downloads.enqueue_faulty(JobId(1), 200.0, None);
        t.uploads.enqueue_faulty(JobId(2), 200.0, None);
        let now = SimTime::from_secs(10.0);
        // Download in 2 s, upload in 4 s: next event at 12 s.
        assert_eq!(t.next_event_after(now), Some(SimTime::from_secs(12.0)));
        assert_eq!(Transfers::new(None).next_event_after(now), None);
    }

    #[test]
    fn planned_failure_fires_at_byte_position() {
        let mut q = TransferQueue::new(1000.0);
        // Fails after 1500 of 5000 bytes: at t = 1.5 s.
        q.enqueue_faulty(JobId(1), 5000.0, Some(1500.0));
        assert_eq!(q.next_completion_in(), Some(d(1.5)));
        let ev = q.advance(d(1.0), true);
        assert!(ev.failed.is_empty());
        let ev = q.advance(d(0.5), true);
        assert_eq!(ev.failed, vec![JobId(1)]);
        assert!(ev.completed.is_empty());
        assert!(q.active.is_empty(), "failed transfer leaves the queue");
    }

    #[test]
    fn failure_frees_bandwidth_for_survivors() {
        let mut q = TransferQueue::new(1000.0);
        q.enqueue_faulty(JobId(1), 4000.0, Some(500.0)); // dies at 500 B sent
        q.enqueue_faulty(JobId(2), 2000.0, None);
        // 500 B/s each: J1 fails at t=1 (500 B). J2 then gets 1000 B/s:
        // 1500 B remaining → done at t=2.5.
        let ev = q.advance(d(2.5), true);
        assert_eq!(ev.failed, vec![JobId(1)]);
        assert_eq!(ev.completed, vec![JobId(2)]);
    }

    #[test]
    fn restart_all_reports_totals() {
        let mut q = TransferQueue::new(1000.0);
        q.enqueue_faulty(JobId(1), 4000.0, None);
        q.enqueue_faulty(JobId(2), 1000.0, None);
        q.advance(d(1.0), true); // 500 B each moved
        let dropped = q.restart_all();
        assert_eq!(dropped, vec![(JobId(1), 4000.0), (JobId(2), 1000.0)]);
        assert!(q.active.is_empty());
    }

    #[test]
    fn network_model_validation() {
        assert!(NetworkModel::symmetric(1e6).validate().is_ok());
        assert_eq!(NetworkModel { down_bps: 0.0, up_bps: 1.0 }.validate(), Err("down_bps"));
        assert_eq!(NetworkModel { down_bps: -5.0, up_bps: 1.0 }.validate(), Err("down_bps"));
        assert_eq!(NetworkModel { down_bps: 1.0, up_bps: f64::NAN }.validate(), Err("up_bps"));
        assert_eq!(NetworkModel { down_bps: 1.0, up_bps: f64::INFINITY }.validate(), Err("up_bps"));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_rate_rejected_in_release_builds() {
        let _ = TransferQueue::new(0.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn nan_rate_rejected() {
        let _ = TransferQueue::new(f64::NAN);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128 })]

        /// Transfer queue conserves bytes: total time to drain n transfers at
        /// rate r equals total bytes / r regardless of interleaving.
        #[test]
        fn transfer_queue_conservation(
            rate in 1.0f64..1e6,
            sizes in proptest::collection::vec(1.0f64..1e6, 1..10),
            step in 0.5f64..100.0,
        ) {
            let mut q = TransferQueue::new(rate);
            for (i, &b) in sizes.iter().enumerate() {
                q.enqueue_faulty(JobId(i as u64), b, None);
            }
            let total_bytes: f64 = sizes.iter().sum();
            let expected_drain = total_bytes / rate;
            let mut t = 0.0;
            let mut done = 0;
            while !q.active.is_empty() {
                done += q.advance(SimDuration::from_secs(step), true).completed.len();
                t += step;
                prop_assert!(t < expected_drain + 2.0 * step + 1.0, "queue never drains");
            }
            prop_assert_eq!(done, sizes.len());
            // Drain time within one step of the analytic value.
            prop_assert!(t >= expected_drain - 1e-6);
            prop_assert!(t <= expected_drain + 2.0 * step);
        }
    }
}
