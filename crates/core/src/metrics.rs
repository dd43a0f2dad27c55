//! Figures of merit (§4.2).
//!
//! * **Idle fraction** — fraction of peak-FLOPS capacity idle while the
//!   host was available.
//! * **Wasted fraction** — capacity spent on jobs that missed their
//!   deadline, plus progress lost to checkpoint rollbacks.
//! * **Resource-share violation** — RMS over projects of the difference
//!   between a project's share and the fraction of processing it received.
//! * **Monotony** — the paper leaves this informal ("the extent to which
//!   the system ran jobs of a single project for long periods"); we define
//!   it as the mean over fixed windows of `1 − H/ln N`, where `H` is the
//!   Shannon entropy of the per-project distribution of peak-FLOPS-seconds
//!   inside the window and `N` the number of attached projects. Windows
//!   with no processing are skipped; a single-project host scores 1 by
//!   convention (and monotony is reported as 0 when `N == 1` would make
//!   `ln N = 0`).
//! * **RPCs per job** — scheduler RPCs issued divided by jobs completed.
//!
//! All but RPCs/job lie in `[0, 1]` with 0 good; `scaled()` maps RPCs/job
//! through `x/(1+x)` when a bounded combination is wanted.

use bce_types::{ProjectId, SimDuration, SimTime};

/// The paper's five figures of merit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiguresOfMerit {
    pub idle_fraction: f64,
    pub wasted_fraction: f64,
    pub share_violation: f64,
    pub monotony: f64,
    pub rpcs_per_job: f64,
}

impl FiguresOfMerit {
    /// All five mapped into `[0, 1]` (0 good), RPCs/job via `x/(1+x)`.
    pub(crate) fn scaled(&self) -> [f64; 5] {
        [
            self.idle_fraction,
            self.wasted_fraction,
            self.share_violation,
            self.monotony,
            self.rpcs_per_job / (1.0 + self.rpcs_per_job),
        ]
    }

    /// Subjectively-weighted combination (§4.2: "the overall evaluation of
    /// a policy is a subjectively-weighted combination of the metrics").
    pub fn weighted(&self, weights: [f64; 5]) -> f64 {
        self.scaled().iter().zip(weights).map(|(m, w)| m * w).sum()
    }
}

/// Robustness figures of merit, populated only by fault-injected runs
/// (all-zero otherwise). Kept separate from [`FiguresOfMerit`] so the
/// paper's five metrics — and determinism fingerprints built on them —
/// are untouched by the fault subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultMetrics {
    /// Scheduler RPCs lost in transit (injected transient failures).
    pub transient_rpc_failures: u64,
    /// File-transfer attempts that failed mid-flight.
    pub transfer_failures: u64,
    /// Host crashes injected.
    pub crashes: u64,
    /// Jobs permanently failed (transfer retry budget exhausted).
    pub jobs_errored: u64,
    /// Fraction of available capacity destroyed by faults: crash rollbacks
    /// plus progress on errored jobs, over available FLOPS·s. A subset of
    /// the ordinary wasted fraction, attributing waste to injected faults.
    pub fault_wasted_fraction: f64,
    /// Mean wall-clock seconds from a crash until every task it rolled
    /// back had regained its pre-crash progress (or left the queue).
    pub mean_recovery_secs: f64,
    /// Number of crashes whose recovery completed within the run.
    pub recoveries: u64,
}

impl FaultMetrics {
    /// Did any fault fire during the run?
    pub fn any(&self) -> bool {
        self.transient_rpc_failures > 0
            || self.transfer_failures > 0
            || self.crashes > 0
            || self.jobs_errored > 0
    }
}

/// Runtime performance counters for one emulation run. Not figures of
/// merit — these describe the *emulator's* work (event throughput, RR-sim
/// cache behaviour) and feed the `bce bench` harness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerfStats {
    /// Events popped from the emulator's queue.
    pub events_processed: u64,
    /// Largest simultaneous task-queue size observed.
    pub peak_jobs: usize,
    /// Times a decision point consulted the RR simulation.
    pub rr_queries: u64,
    /// Times the RR simulation actually ran (cache misses).
    pub rr_runs: u64,
    /// RR queries served from the retained snapshot inside the
    /// frozen-progress window (partial refreshes; a subset of hits).
    pub rr_frozen: u64,
    /// Availability transitions absorbed into an earlier one by the
    /// coalescing window (each saved one event-loop pass).
    pub flaps_coalesced: u64,
    /// Availability events whose net run-state delta was zero, skipping
    /// the reschedule/fetch pass entirely.
    pub avail_resched_skipped: u64,
}

impl PerfStats {
    pub(crate) fn rr_hits(&self) -> u64 {
        self.rr_queries - self.rr_runs
    }
    /// Fraction of RR-simulation queries served from the cache.
    pub fn rr_hit_rate(&self) -> f64 {
        if self.rr_queries == 0 {
            0.0
        } else {
            self.rr_hits() as f64 / self.rr_queries as f64
        }
    }
}

/// Per-project outcome summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectReport {
    pub id: ProjectId,
    pub name: String,
    pub share_frac: f64,
    /// Fraction of all delivered processing this project received.
    pub used_frac: f64,
    pub flops_used: f64,
    pub jobs_completed: u64,
    pub jobs_missed_deadline: u64,
    pub rpcs: u64,
}

/// Per-project sums indexed by project slot, with a flag for each slot
/// that has been added to since the last clear. Iterating the present
/// slots in slot order visits projects in ascending id order, as a
/// `BTreeMap<ProjectId, f64>` would.
#[derive(Debug, Clone)]
struct SlotSums {
    value: Vec<f64>,
    present: Vec<bool>,
}

impl SlotSums {
    fn new(nslots: usize) -> Self {
        SlotSums { value: vec![0.0; nslots], present: vec![false; nslots] }
    }

    fn add(&mut self, slot: usize, x: f64) {
        if self.present[slot] {
            self.value[slot] += x;
        } else {
            // `0.0 + x`, as a fresh map entry would have it.
            self.set(slot, 0.0 + x);
        }
    }

    fn set(&mut self, slot: usize, x: f64) {
        self.value[slot] = x;
        self.present[slot] = true;
    }

    fn clear(&mut self) {
        self.present.fill(false);
    }

    /// Present `(slot, value)` pairs in slot order.
    fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.value
            .iter()
            .zip(&self.present)
            .enumerate()
            .filter_map(|(s, (&v, &p))| p.then_some((s, v)))
    }

    fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.iter().map(|(_, v)| v)
    }

    fn get(&self, slot: usize) -> Option<f64> {
        self.present[slot].then_some(self.value[slot])
    }
}

/// Accumulates metrics during an emulation run.
///
/// The discrete counts are plain `u64` counters. The continuous
/// integrals (capacity, usage, monotony windows) are `f64` state whose
/// accumulation order is part of the bit-for-bit determinism contract.
/// Per-project integrals are indexed by *slot*: the project's position in
/// the ascending list of project ids given at construction, the same
/// slots the client's accounting uses.
#[derive(Debug, Clone)]
pub(crate) struct MetricsAccum {
    total_capacity_flops: f64, // peak FLOPS of the host
    monotony_window: SimDuration,
    /// Project ids, ascending and distinct; the index is the slot.
    ids: Vec<ProjectId>,
    // integrals
    capacity_secs: f64,  // capacity × elapsed (FLOPS·s)
    available_secs: f64, // capacity × available time
    used: SlotSums,      // FLOPS·s delivered per project
    wasted_flops: f64,
    // monotony state
    window_used: SlotSums,
    window_end: SimTime,
    monotony_sum: f64,
    monotony_windows: u64,
    nprojects: usize,
    // counters
    rpcs: u64,
    jobs_completed: u64,
    jobs_missed: u64,
    // fault accounting
    fault_wasted_flops: f64,
    transient_rpc_failures: u64,
    transfer_failures: u64,
    crashes: u64,
    jobs_errored: u64,
    recovery_secs_sum: f64,
    recoveries: u64,
}

impl MetricsAccum {
    /// A fresh accumulator for a host attached to `projects`, listed in
    /// any order.
    pub(crate) fn new(
        total_capacity_flops: f64,
        projects: &[ProjectId],
        start: SimTime,
        monotony_window: SimDuration,
    ) -> Self {
        let mut ids = projects.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let n = ids.len();
        MetricsAccum {
            total_capacity_flops,
            monotony_window,
            ids,
            capacity_secs: 0.0,
            available_secs: 0.0,
            used: SlotSums::new(n),
            wasted_flops: 0.0,
            window_used: SlotSums::new(n),
            window_end: start + monotony_window,
            monotony_sum: 0.0,
            monotony_windows: 0,
            nprojects: projects.len(),
            rpcs: 0,
            jobs_completed: 0,
            jobs_missed: 0,
            fault_wasted_flops: 0.0,
            transient_rpc_failures: 0,
            transfer_failures: 0,
            crashes: 0,
            jobs_errored: 0,
            recovery_secs_sum: 0.0,
            recoveries: 0,
        }
    }

    /// Account an interval of constant allocation. `per_slot` lists the
    /// peak FLOPS each project is engaging, by project slot; `available`
    /// is whether the host could compute at all.
    pub(crate) fn advance(
        &mut self,
        from: SimTime,
        to: SimTime,
        per_slot: &[(usize, f64)],
        available: bool,
    ) {
        let dt = (to - from).secs();
        if dt <= 0.0 {
            return;
        }
        self.capacity_secs += self.total_capacity_flops * dt;
        if available {
            self.available_secs += self.total_capacity_flops * dt;
        }
        for &(slot, f) in per_slot {
            self.used.add(slot, f * dt);
            self.window_used.add(slot, f * dt);
        }
        // Close monotony windows crossed by this interval. (Allocation is
        // constant inside the interval, so splitting exactly at window
        // boundaries is unnecessary: usage assigns to the window where it
        // occurred in proportion; we approximate by closing at `to`.)
        while to >= self.window_end {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let total: f64 = self.window_used.values().sum();
        if total > 0.0 && self.nprojects > 1 {
            let ln_n = (self.nprojects as f64).ln();
            let h: f64 = self
                .window_used
                .values()
                .filter(|&v| v > 0.0)
                .map(|v| {
                    let p = v / total;
                    -p * p.ln()
                })
                .sum();
            self.monotony_sum += 1.0 - (h / ln_n).min(1.0);
            self.monotony_windows += 1;
        }
        self.window_used.clear();
        self.window_end += self.monotony_window;
    }

    pub(crate) fn record_rpc(&mut self) {
        self.rpcs += 1;
    }

    /// Record a completed-and-reported job.
    pub(crate) fn record_job_done(&mut self, met_deadline: bool, flops_spent: f64) {
        self.jobs_completed += 1;
        if !met_deadline {
            self.jobs_missed += 1;
            self.wasted_flops += flops_spent;
        }
    }

    /// Record execution seconds lost to a checkpoint rollback.
    pub(crate) fn record_rollback_waste(&mut self, flops: f64) {
        self.wasted_flops += flops;
    }

    /// Record a scheduler RPC lost in transit.
    pub(crate) fn record_transient_rpc_failure(&mut self) {
        self.transient_rpc_failures += 1;
    }

    /// Record a mid-flight transfer failure.
    pub(crate) fn record_transfer_failure(&mut self) {
        self.transfer_failures += 1;
    }

    /// Record a host crash and the FLOPS of progress it destroyed. The
    /// lost FLOPS are fault-attributed only: the generic wasted fraction
    /// picks the same rollback up through [`Self::record_rollback_waste`] when
    /// the task eventually retires.
    pub(crate) fn record_crash(&mut self, lost_flops: f64) {
        self.crashes += 1;
        self.fault_wasted_flops += lost_flops;
    }

    /// Record a permanently-failed job and the FLOPS already sunk into it
    /// (counted both as generic waste and fault-attributed waste).
    pub(crate) fn record_job_errored(&mut self, flops_spent: f64) {
        self.jobs_errored += 1;
        self.wasted_flops += flops_spent;
        self.fault_wasted_flops += flops_spent;
    }

    /// Record a completed crash recovery (wall-clock seconds from the
    /// crash until pre-crash progress was regained).
    pub(crate) fn record_recovery(&mut self, secs: f64) {
        self.recovery_secs_sum += secs;
        self.recoveries += 1;
    }

    /// Snapshot the robustness figures of merit.
    pub(crate) fn fault_metrics(&self) -> FaultMetrics {
        FaultMetrics {
            transient_rpc_failures: self.transient_rpc_failures,
            transfer_failures: self.transfer_failures,
            crashes: self.crashes,
            jobs_errored: self.jobs_errored,
            fault_wasted_fraction: if self.available_secs > 0.0 {
                (self.fault_wasted_flops / self.available_secs).clamp(0.0, 1.0)
            } else {
                0.0
            },
            mean_recovery_secs: if self.recoveries > 0 {
                self.recovery_secs_sum / self.recoveries as f64
            } else {
                0.0
            },
            recoveries: self.recoveries,
        }
    }

    pub(crate) fn jobs_completed(&self) -> u64 {
        self.jobs_completed
    }

    pub(crate) fn jobs_missed(&self) -> u64 {
        self.jobs_missed
    }

    pub(crate) fn flops_used_by(&self, p: ProjectId) -> f64 {
        self.ids.binary_search(&p).ok().and_then(|s| self.used.get(s)).unwrap_or(0.0)
    }

    pub(crate) fn total_flops_used(&self) -> f64 {
        self.used.values().sum()
    }

    pub(crate) fn available_fraction(&self) -> f64 {
        if self.capacity_secs > 0.0 {
            self.available_secs / self.capacity_secs
        } else {
            0.0
        }
    }

    /// Finalize into the five figures of merit. `shares` supplies each
    /// project's configured share fraction.
    pub(crate) fn finalize(&mut self, shares: &[(ProjectId, f64)]) -> FiguresOfMerit {
        // Close the trailing partial window.
        let total_in_window: f64 = self.window_used.values().sum();
        if total_in_window > 0.0 {
            self.close_window();
        }

        let used_total = self.total_flops_used();
        let idle_fraction = if self.available_secs > 0.0 {
            ((self.available_secs - used_total) / self.available_secs).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let wasted_fraction = if self.available_secs > 0.0 {
            (self.wasted_flops / self.available_secs).clamp(0.0, 1.0)
        } else {
            0.0
        };

        let share_sum: f64 = shares.iter().map(|(_, s)| s).sum();
        let mut sq = 0.0;
        for &(p, s) in shares {
            let share_frac = if share_sum > 0.0 { s / share_sum } else { 0.0 };
            let used_frac = if used_total > 0.0 { self.flops_used_by(p) / used_total } else { 0.0 };
            sq += (share_frac - used_frac).powi(2);
        }
        let share_violation =
            if shares.is_empty() { 0.0 } else { (sq / shares.len() as f64).sqrt() };

        let monotony = if self.monotony_windows > 0 {
            self.monotony_sum / self.monotony_windows as f64
        } else {
            0.0
        };
        let rpcs_per_job = if self.jobs_completed > 0 {
            self.rpcs as f64 / self.jobs_completed as f64
        } else {
            self.rpcs as f64
        };

        FiguresOfMerit { idle_fraction, wasted_fraction, share_violation, monotony, rpcs_per_job }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn idle_fraction_half() {
        let mut m = MetricsAccum::new(10.0, &[ProjectId(0)], t(0.0), SimDuration::from_secs(100.0));
        // 100 s at 5 of 10 FLOPS used.
        m.advance(t(0.0), t(100.0), &[(0, 5.0)], true);
        let f = m.finalize(&[(ProjectId(0), 1.0)]);
        assert!((f.idle_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unavailable_time_not_counted_as_available_idle() {
        let mut m =
            MetricsAccum::new(10.0, &[ProjectId(0)], t(0.0), SimDuration::from_secs(1000.0));
        m.advance(t(0.0), t(50.0), &[(0, 10.0)], true);
        m.advance(t(50.0), t(100.0), &[], false);
        let av = m.available_fraction();
        assert!((av - 0.5).abs() < 1e-12);
        let f = m.finalize(&[(ProjectId(0), 1.0)]);
        assert!((f.idle_fraction - 0.0).abs() < 1e-12);
    }

    #[test]
    fn flops_used_by_resolves_ids_listed_out_of_order() {
        // Listed out of order: id 2 is slot 0, id 9 is slot 1.
        let ids = [ProjectId(9), ProjectId(2)];
        let mut m = MetricsAccum::new(10.0, &ids, t(0.0), SimDuration::from_secs(1000.0));
        m.advance(t(0.0), t(10.0), &[(1, 3.0)], true);
        assert_eq!(m.flops_used_by(ProjectId(9)), 30.0);
        assert_eq!(m.flops_used_by(ProjectId(2)), 0.0);
        assert_eq!(m.flops_used_by(ProjectId(5)), 0.0);
    }

    #[test]
    fn share_violation_rms() {
        let mut m = MetricsAccum::new(
            10.0,
            &[ProjectId(0), ProjectId(1)],
            t(0.0),
            SimDuration::from_secs(1000.0),
        );
        // P0 gets everything; shares equal: violation = RMS(0.5, -0.5) = 0.5.
        m.advance(t(0.0), t(100.0), &[(0, 10.0)], true);
        let f = m.finalize(&[(ProjectId(0), 1.0), (ProjectId(1), 1.0)]);
        assert!((f.share_violation - 0.5).abs() < 1e-12);
    }

    #[test]
    fn share_violation_zero_when_fair() {
        let mut m = MetricsAccum::new(
            10.0,
            &[ProjectId(0), ProjectId(1)],
            t(0.0),
            SimDuration::from_secs(1000.0),
        );
        m.advance(t(0.0), t(100.0), &[(0, 7.5), (1, 2.5)], true);
        let f = m.finalize(&[(ProjectId(0), 3.0), (ProjectId(1), 1.0)]);
        assert!(f.share_violation < 1e-12);
    }

    #[test]
    fn monotony_extremes() {
        // Alternating exclusive windows: each window single-project =>
        // monotony 1.
        let mut m = MetricsAccum::new(
            10.0,
            &[ProjectId(0), ProjectId(1)],
            t(0.0),
            SimDuration::from_secs(10.0),
        );
        for i in 0..10 {
            let slot = i % 2;
            m.advance(t(i as f64 * 10.0), t((i + 1) as f64 * 10.0), &[(slot, 10.0)], true);
        }
        let f = m.finalize(&[(ProjectId(0), 1.0), (ProjectId(1), 1.0)]);
        assert!((f.monotony - 1.0).abs() < 1e-9);

        // Evenly mixed within every window => monotony 0.
        let mut m = MetricsAccum::new(
            10.0,
            &[ProjectId(0), ProjectId(1)],
            t(0.0),
            SimDuration::from_secs(10.0),
        );
        m.advance(t(0.0), t(100.0), &[(0, 5.0), (1, 5.0)], true);
        let f = m.finalize(&[(ProjectId(0), 1.0), (ProjectId(1), 1.0)]);
        assert!(f.monotony < 1e-9);
    }

    #[test]
    fn monotony_single_project_is_zero_by_convention() {
        let mut m = MetricsAccum::new(10.0, &[ProjectId(0)], t(0.0), SimDuration::from_secs(10.0));
        m.advance(t(0.0), t(100.0), &[(0, 10.0)], true);
        let f = m.finalize(&[(ProjectId(0), 1.0)]);
        assert_eq!(f.monotony, 0.0);
    }

    #[test]
    fn wasted_and_rpcs() {
        let mut m =
            MetricsAccum::new(10.0, &[ProjectId(0)], t(0.0), SimDuration::from_secs(1000.0));
        m.advance(t(0.0), t(100.0), &[(0, 10.0)], true);
        m.record_rpc();
        m.record_rpc();
        m.record_job_done(true, 300.0);
        m.record_job_done(false, 200.0);
        m.record_rollback_waste(100.0);
        let f = m.finalize(&[(ProjectId(0), 1.0)]);
        assert_eq!(m.jobs_completed(), 2);
        assert_eq!(m.jobs_missed(), 1);
        // wasted = (200 + 100) / (10 * 100)
        assert!((f.wasted_fraction - 0.3).abs() < 1e-12);
        assert!((f.rpcs_per_job - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_metrics_accumulate_separately() {
        let mut m =
            MetricsAccum::new(10.0, &[ProjectId(0)], t(0.0), SimDuration::from_secs(1000.0));
        m.advance(t(0.0), t(100.0), &[(0, 10.0)], true);
        assert!(!m.fault_metrics().any());
        m.record_transient_rpc_failure();
        m.record_transfer_failure();
        m.record_crash(100.0); // fault-attributed only
        m.record_job_errored(200.0); // both generic and fault waste
        m.record_recovery(30.0);
        m.record_recovery(50.0);
        let fm = m.fault_metrics();
        assert!(fm.any());
        assert_eq!(fm.transient_rpc_failures, 1);
        assert_eq!(fm.transfer_failures, 1);
        assert_eq!(fm.crashes, 1);
        assert_eq!(fm.jobs_errored, 1);
        // fault waste = (100 + 200) / (10 × 100)
        assert!((fm.fault_wasted_fraction - 0.3).abs() < 1e-12);
        assert!((fm.mean_recovery_secs - 40.0).abs() < 1e-12);
        assert_eq!(fm.recoveries, 2);
        // Generic wasted fraction only sees the errored job's 200.
        let f = m.finalize(&[(ProjectId(0), 1.0)]);
        assert!((f.wasted_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn scaled_and_weighted() {
        let f = FiguresOfMerit {
            idle_fraction: 0.1,
            wasted_fraction: 0.2,
            share_violation: 0.3,
            monotony: 0.4,
            rpcs_per_job: 1.0,
        };
        let s = f.scaled();
        assert_eq!(s[4], 0.5);
        let w = f.weighted([1.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((w - 0.1).abs() < 1e-12);
    }
}
