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

use bce_obs::{CounterId, MetricsRegistry, MetricsSnapshot};
use bce_types::{JobId, ProjectId, SimDuration, SimTime};
use std::collections::BTreeMap;

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
    pub fn scaled(&self) -> [f64; 5] {
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
    pub fn rr_hits(&self) -> u64 {
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

/// The complete mutable state of a [`MetricsAccum`], captured by a run
/// checkpoint. Counter values are stored positionally in registration
/// order: `rpc.issued`, `rpc.transient_failures`, `jobs.completed`,
/// `jobs.missed_deadline`, `jobs.errored`, `xfer.failures`,
/// `fault.crashes`, `fault.recoveries`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsAccumSnapshot {
    pub capacity_secs: f64,
    pub available_secs: f64,
    pub used: Vec<(ProjectId, f64)>,
    pub wasted_flops: f64,
    pub window_used: Vec<(ProjectId, f64)>,
    pub window_end: SimTime,
    pub monotony_sum: f64,
    pub monotony_windows: u64,
    pub missed_ids: Vec<JobId>,
    pub fault_wasted_flops: f64,
    pub recovery_secs_sum: f64,
    pub counters: [u64; 8],
}

/// Accumulates metrics during an emulation run.
///
/// Since the observability redesign every discrete count lives in a
/// [`bce_obs::MetricsRegistry`] slot (scoped names like `rpc.issued`,
/// `jobs.completed`) addressed through pre-registered [`CounterId`]s, so
/// recording stays an indexed add while the CLI, bench harness and fleet
/// study all export the same `scope.name` schema via
/// [`MetricsAccum::export_snapshot`]. The continuous integrals (capacity,
/// usage, monotony windows) remain plain `f64` state: their accumulation
/// order is part of the bit-for-bit determinism contract.
#[derive(Debug, Clone)]
pub struct MetricsAccum {
    total_capacity_flops: f64, // peak FLOPS of the host
    monotony_window: SimDuration,
    // integrals
    capacity_secs: f64,             // capacity × elapsed (FLOPS·s)
    available_secs: f64,            // capacity × available time
    used: BTreeMap<ProjectId, f64>, // FLOPS·s delivered per project
    wasted_flops: f64,
    // monotony state
    window_used: BTreeMap<ProjectId, f64>,
    window_end: SimTime,
    monotony_sum: f64,
    monotony_windows: u64,
    nprojects: usize,
    // counters (registry slots)
    registry: MetricsRegistry,
    c_rpcs: CounterId,
    c_jobs_completed: CounterId,
    c_jobs_missed: CounterId,
    missed_ids: Vec<JobId>,
    // fault accounting
    fault_wasted_flops: f64,
    c_transient_rpc_failures: CounterId,
    c_transfer_failures: CounterId,
    c_crashes: CounterId,
    c_jobs_errored: CounterId,
    recovery_secs_sum: f64,
    c_recoveries: CounterId,
}

impl MetricsAccum {
    pub fn new(
        total_capacity_flops: f64,
        nprojects: usize,
        start: SimTime,
        monotony_window: SimDuration,
    ) -> Self {
        let mut registry = MetricsRegistry::new();
        let c_rpcs = registry.counter("rpc", "issued");
        let c_transient_rpc_failures = registry.counter("rpc", "transient_failures");
        let c_jobs_completed = registry.counter("jobs", "completed");
        let c_jobs_missed = registry.counter("jobs", "missed_deadline");
        let c_jobs_errored = registry.counter("jobs", "errored");
        let c_transfer_failures = registry.counter("xfer", "failures");
        let c_crashes = registry.counter("fault", "crashes");
        let c_recoveries = registry.counter("fault", "recoveries");
        MetricsAccum {
            total_capacity_flops,
            monotony_window,
            capacity_secs: 0.0,
            available_secs: 0.0,
            used: BTreeMap::new(),
            wasted_flops: 0.0,
            window_used: BTreeMap::new(),
            window_end: start + monotony_window,
            monotony_sum: 0.0,
            monotony_windows: 0,
            nprojects,
            registry,
            c_rpcs,
            c_jobs_completed,
            c_jobs_missed,
            missed_ids: Vec::new(),
            fault_wasted_flops: 0.0,
            c_transient_rpc_failures,
            c_transfer_failures,
            c_crashes,
            c_jobs_errored,
            recovery_secs_sum: 0.0,
            c_recoveries,
        }
    }

    /// Account an interval of constant allocation. `per_project` lists the
    /// peak FLOPS each project is engaging; `available` is whether the
    /// host could compute at all.
    pub fn advance(
        &mut self,
        from: SimTime,
        to: SimTime,
        per_project: &[(ProjectId, f64)],
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
        for &(p, f) in per_project {
            *self.used.entry(p).or_insert(0.0) += f * dt;
            *self.window_used.entry(p).or_insert(0.0) += f * dt;
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
                .filter(|&&v| v > 0.0)
                .map(|&v| {
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

    pub fn record_rpc(&mut self) {
        self.registry.inc(self.c_rpcs);
    }

    /// Record a completed-and-reported job.
    pub fn record_job_done(&mut self, id: JobId, met_deadline: bool, flops_spent: f64) {
        self.registry.inc(self.c_jobs_completed);
        if !met_deadline {
            self.registry.inc(self.c_jobs_missed);
            self.wasted_flops += flops_spent;
            self.missed_ids.push(id);
        }
    }

    /// Record execution seconds lost to a checkpoint rollback.
    pub fn record_rollback_waste(&mut self, flops: f64) {
        self.wasted_flops += flops;
    }

    /// Record a scheduler RPC lost in transit.
    pub fn record_transient_rpc_failure(&mut self) {
        self.registry.inc(self.c_transient_rpc_failures);
    }

    /// Record a mid-flight transfer failure.
    pub fn record_transfer_failure(&mut self) {
        self.registry.inc(self.c_transfer_failures);
    }

    /// Record a host crash and the FLOPS of progress it destroyed. The
    /// lost FLOPS are fault-attributed only: the generic wasted fraction
    /// picks the same rollback up through [`Self::record_rollback_waste`] when
    /// the task eventually retires.
    pub fn record_crash(&mut self, lost_flops: f64) {
        self.registry.inc(self.c_crashes);
        self.fault_wasted_flops += lost_flops;
    }

    /// Record a permanently-failed job and the FLOPS already sunk into it
    /// (counted both as generic waste and fault-attributed waste).
    pub fn record_job_errored(&mut self, flops_spent: f64) {
        self.registry.inc(self.c_jobs_errored);
        self.wasted_flops += flops_spent;
        self.fault_wasted_flops += flops_spent;
    }

    /// Record a completed crash recovery (wall-clock seconds from the
    /// crash until pre-crash progress was regained).
    pub fn record_recovery(&mut self, secs: f64) {
        self.recovery_secs_sum += secs;
        self.registry.inc(self.c_recoveries);
    }

    fn recoveries(&self) -> u64 {
        self.registry.counter_value(self.c_recoveries)
    }

    /// Snapshot the robustness figures of merit.
    pub fn fault_metrics(&self) -> FaultMetrics {
        FaultMetrics {
            transient_rpc_failures: self.registry.counter_value(self.c_transient_rpc_failures),
            transfer_failures: self.registry.counter_value(self.c_transfer_failures),
            crashes: self.registry.counter_value(self.c_crashes),
            jobs_errored: self.registry.counter_value(self.c_jobs_errored),
            fault_wasted_fraction: if self.available_secs > 0.0 {
                (self.fault_wasted_flops / self.available_secs).clamp(0.0, 1.0)
            } else {
                0.0
            },
            mean_recovery_secs: if self.recoveries() > 0 {
                self.recovery_secs_sum / self.recoveries() as f64
            } else {
                0.0
            },
            recoveries: self.recoveries(),
        }
    }

    pub fn jobs_completed(&self) -> u64 {
        self.registry.counter_value(self.c_jobs_completed)
    }

    pub fn jobs_missed(&self) -> u64 {
        self.registry.counter_value(self.c_jobs_missed)
    }

    pub fn missed_ids(&self) -> &[JobId] {
        &self.missed_ids
    }

    pub fn flops_used_by(&self, p: ProjectId) -> f64 {
        self.used.get(&p).copied().unwrap_or(0.0)
    }

    pub fn total_flops_used(&self) -> f64 {
        self.used.values().sum()
    }

    pub fn available_fraction(&self) -> f64 {
        if self.capacity_secs > 0.0 {
            self.available_secs / self.capacity_secs
        } else {
            0.0
        }
    }

    /// Finalize into the five figures of merit. `shares` supplies each
    /// project's configured share fraction.
    pub fn finalize(&mut self, shares: &[(ProjectId, f64)]) -> FiguresOfMerit {
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
        let rpcs = self.registry.counter_value(self.c_rpcs);
        let rpcs_per_job = if self.jobs_completed() > 0 {
            rpcs as f64 / self.jobs_completed() as f64
        } else {
            rpcs as f64
        };

        FiguresOfMerit { idle_fraction, wasted_fraction, share_violation, monotony, rpcs_per_job }
    }

    /// Capture every mutable accumulator field for a checkpoint. The
    /// construction-time constants (capacity, window length, project
    /// count) are not captured: a restore target is always built through
    /// the same scenario and therefore already agrees on them.
    pub fn snapshot(&self) -> MetricsAccumSnapshot {
        MetricsAccumSnapshot {
            capacity_secs: self.capacity_secs,
            available_secs: self.available_secs,
            used: self.used.iter().map(|(&p, &v)| (p, v)).collect(),
            wasted_flops: self.wasted_flops,
            window_used: self.window_used.iter().map(|(&p, &v)| (p, v)).collect(),
            window_end: self.window_end,
            monotony_sum: self.monotony_sum,
            monotony_windows: self.monotony_windows,
            missed_ids: self.missed_ids.clone(),
            fault_wasted_flops: self.fault_wasted_flops,
            recovery_secs_sum: self.recovery_secs_sum,
            counters: [
                self.registry.counter_value(self.c_rpcs),
                self.registry.counter_value(self.c_transient_rpc_failures),
                self.registry.counter_value(self.c_jobs_completed),
                self.registry.counter_value(self.c_jobs_missed),
                self.registry.counter_value(self.c_jobs_errored),
                self.registry.counter_value(self.c_transfer_failures),
                self.registry.counter_value(self.c_crashes),
                self.registry.counter_value(self.c_recoveries),
            ],
        }
    }

    /// Overwrite the mutable state from a snapshot. Must be called on a
    /// freshly-constructed accumulator (all counters zero) so the counter
    /// replay lands on the captured values exactly.
    pub fn restore_snapshot(&mut self, snap: &MetricsAccumSnapshot) {
        self.capacity_secs = snap.capacity_secs;
        self.available_secs = snap.available_secs;
        self.used = snap.used.iter().copied().collect();
        self.wasted_flops = snap.wasted_flops;
        self.window_used = snap.window_used.iter().copied().collect();
        self.window_end = snap.window_end;
        self.monotony_sum = snap.monotony_sum;
        self.monotony_windows = snap.monotony_windows;
        self.missed_ids = snap.missed_ids.clone();
        self.fault_wasted_flops = snap.fault_wasted_flops;
        self.recovery_secs_sum = snap.recovery_secs_sum;
        let ids = [
            self.c_rpcs,
            self.c_transient_rpc_failures,
            self.c_jobs_completed,
            self.c_jobs_missed,
            self.c_jobs_errored,
            self.c_transfer_failures,
            self.c_crashes,
            self.c_recoveries,
        ];
        for (id, &v) in ids.into_iter().zip(&snap.counters) {
            self.registry.add(id, v);
        }
    }

    /// Freeze the run's instruments — the registry counters plus derived
    /// gauges for the figures of merit, fault fractions and emulator perf
    /// counters — into the one deterministic `scope.name` schema every
    /// consumer (CLI, bench harness, fleet study) reads.
    pub fn export_snapshot(
        &mut self,
        merit: &FiguresOfMerit,
        faults: &FaultMetrics,
        perf: &PerfStats,
    ) -> MetricsSnapshot {
        let g = self.registry.gauge("merit", "idle_fraction");
        self.registry.set(g, merit.idle_fraction);
        let g = self.registry.gauge("merit", "wasted_fraction");
        self.registry.set(g, merit.wasted_fraction);
        let g = self.registry.gauge("merit", "share_violation");
        self.registry.set(g, merit.share_violation);
        let g = self.registry.gauge("merit", "monotony");
        self.registry.set(g, merit.monotony);
        let g = self.registry.gauge("merit", "rpcs_per_job");
        self.registry.set(g, merit.rpcs_per_job);
        let g = self.registry.gauge("host", "available_fraction");
        self.registry.set(g, self.available_fraction());
        let g = self.registry.gauge("fault", "wasted_fraction");
        self.registry.set(g, faults.fault_wasted_fraction);
        let g = self.registry.gauge("fault", "mean_recovery_secs");
        self.registry.set(g, faults.mean_recovery_secs);
        let c = self.registry.counter("perf", "events_processed");
        self.registry.add(c, perf.events_processed);
        let c = self.registry.counter("perf", "peak_jobs");
        self.registry.add(c, perf.peak_jobs as u64);
        let c = self.registry.counter("perf", "rr_queries");
        self.registry.add(c, perf.rr_queries);
        let c = self.registry.counter("perf", "rr_runs");
        self.registry.add(c, perf.rr_runs);
        let c = self.registry.counter("perf", "rr_frozen");
        self.registry.add(c, perf.rr_frozen);
        let c = self.registry.counter("perf", "flaps_coalesced");
        self.registry.add(c, perf.flaps_coalesced);
        let c = self.registry.counter("perf", "avail_resched_skipped");
        self.registry.add(c, perf.avail_resched_skipped);
        self.registry.snapshot()
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
        let mut m = MetricsAccum::new(10.0, 1, t(0.0), SimDuration::from_secs(100.0));
        // 100 s at 5 of 10 FLOPS used.
        m.advance(t(0.0), t(100.0), &[(ProjectId(0), 5.0)], true);
        let f = m.finalize(&[(ProjectId(0), 1.0)]);
        assert!((f.idle_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unavailable_time_not_counted_as_available_idle() {
        let mut m = MetricsAccum::new(10.0, 1, t(0.0), SimDuration::from_secs(1000.0));
        m.advance(t(0.0), t(50.0), &[(ProjectId(0), 10.0)], true);
        m.advance(t(50.0), t(100.0), &[], false);
        let av = m.available_fraction();
        assert!((av - 0.5).abs() < 1e-12);
        let f = m.finalize(&[(ProjectId(0), 1.0)]);
        assert!((f.idle_fraction - 0.0).abs() < 1e-12);
    }

    #[test]
    fn share_violation_rms() {
        let mut m = MetricsAccum::new(10.0, 2, t(0.0), SimDuration::from_secs(1000.0));
        // P0 gets everything; shares equal: violation = RMS(0.5, -0.5) = 0.5.
        m.advance(t(0.0), t(100.0), &[(ProjectId(0), 10.0)], true);
        let f = m.finalize(&[(ProjectId(0), 1.0), (ProjectId(1), 1.0)]);
        assert!((f.share_violation - 0.5).abs() < 1e-12);
    }

    #[test]
    fn share_violation_zero_when_fair() {
        let mut m = MetricsAccum::new(10.0, 2, t(0.0), SimDuration::from_secs(1000.0));
        m.advance(t(0.0), t(100.0), &[(ProjectId(0), 7.5), (ProjectId(1), 2.5)], true);
        let f = m.finalize(&[(ProjectId(0), 3.0), (ProjectId(1), 1.0)]);
        assert!(f.share_violation < 1e-12);
    }

    #[test]
    fn monotony_extremes() {
        // Alternating exclusive windows: each window single-project =>
        // monotony 1.
        let mut m = MetricsAccum::new(10.0, 2, t(0.0), SimDuration::from_secs(10.0));
        for i in 0..10 {
            let p = ProjectId(i % 2);
            m.advance(t(i as f64 * 10.0), t((i + 1) as f64 * 10.0), &[(p, 10.0)], true);
        }
        let f = m.finalize(&[(ProjectId(0), 1.0), (ProjectId(1), 1.0)]);
        assert!((f.monotony - 1.0).abs() < 1e-9);

        // Evenly mixed within every window => monotony 0.
        let mut m = MetricsAccum::new(10.0, 2, t(0.0), SimDuration::from_secs(10.0));
        m.advance(t(0.0), t(100.0), &[(ProjectId(0), 5.0), (ProjectId(1), 5.0)], true);
        let f = m.finalize(&[(ProjectId(0), 1.0), (ProjectId(1), 1.0)]);
        assert!(f.monotony < 1e-9);
    }

    #[test]
    fn monotony_single_project_is_zero_by_convention() {
        let mut m = MetricsAccum::new(10.0, 1, t(0.0), SimDuration::from_secs(10.0));
        m.advance(t(0.0), t(100.0), &[(ProjectId(0), 10.0)], true);
        let f = m.finalize(&[(ProjectId(0), 1.0)]);
        assert_eq!(f.monotony, 0.0);
    }

    #[test]
    fn wasted_and_rpcs() {
        let mut m = MetricsAccum::new(10.0, 1, t(0.0), SimDuration::from_secs(1000.0));
        m.advance(t(0.0), t(100.0), &[(ProjectId(0), 10.0)], true);
        m.record_rpc();
        m.record_rpc();
        m.record_job_done(JobId(1), true, 300.0);
        m.record_job_done(JobId(2), false, 200.0);
        m.record_rollback_waste(100.0);
        let f = m.finalize(&[(ProjectId(0), 1.0)]);
        assert_eq!(m.jobs_completed(), 2);
        assert_eq!(m.jobs_missed(), 1);
        assert_eq!(m.missed_ids(), &[JobId(2)]);
        // wasted = (200 + 100) / (10 * 100)
        assert!((f.wasted_fraction - 0.3).abs() < 1e-12);
        assert!((f.rpcs_per_job - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_metrics_accumulate_separately() {
        let mut m = MetricsAccum::new(10.0, 1, t(0.0), SimDuration::from_secs(1000.0));
        m.advance(t(0.0), t(100.0), &[(ProjectId(0), 10.0)], true);
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
