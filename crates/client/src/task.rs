//! Client-side job state.
//!
//! A [`Task`] is a queued or running job. Work is measured in
//! *dedicated-execution seconds*: a task running with its full resource
//! allocation gains one second of progress per second of wall time.
//! Checkpointing (§2.3: "almost all BOINC-based applications do regular
//! checkpointing") happens every `checkpoint_period` execution seconds;
//! preempting a task that is not kept in memory rolls it back to its last
//! checkpoint, and the lost progress is counted as wasted processing.

use bce_types::{JobSpec, SimDuration};

/// Why a task is not currently running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskState {
    /// Waiting for input files.
    Downloading,
    /// Ready to run.
    Queued,
    Running,
    /// Preempted, possibly still in memory.
    Preempted,
    /// Computation finished; output upload may still be pending.
    Completed,
    /// Permanently failed (e.g. transfer retries exhausted); never
    /// runnable again, retired as an errored job.
    Error,
}

/// A job on the client, with its execution progress.
#[derive(Debug, Clone)]
pub struct Task {
    pub spec: JobSpec,
    state: TaskState,
    /// Dedicated-execution seconds completed.
    progress: f64,
    /// Progress as of the last checkpoint.
    checkpointed: f64,
    /// Progress when the task last (re)started running; used for the
    /// "running jobs that have not checkpointed yet" precedence rule.
    run_start_progress: f64,
    /// Still resident in memory while preempted (resumes without rollback).
    in_memory: bool,
    /// Total execution seconds lost to checkpoint rollbacks.
    pub rollback_waste: f64,
}

impl Task {
    pub fn new(spec: JobSpec) -> Self {
        let needs_download = spec.input_bytes > 0.0;
        Task {
            spec,
            state: if needs_download { TaskState::Downloading } else { TaskState::Queued },
            progress: 0.0,
            checkpointed: 0.0,
            run_start_progress: 0.0,
            in_memory: false,
            rollback_waste: 0.0,
        }
    }

    /// Restore a task that already has execution progress (e.g. from an
    /// imported state file). Progress is clamped to the job length and
    /// treated as checkpointed (the real client checkpoints before
    /// writing its state file).
    pub(crate) fn with_progress(spec: JobSpec, progress: SimDuration) -> Self {
        let mut task = Task::new(spec);
        let p = progress.secs().clamp(0.0, task.spec.duration.secs());
        task.progress = p;
        task.checkpointed = p;
        task.run_start_progress = p;
        task
    }

    pub(crate) fn state(&self) -> TaskState {
        self.state
    }

    pub fn is_running(&self) -> bool {
        self.state == TaskState::Running
    }

    pub(crate) fn is_runnable(&self) -> bool {
        matches!(self.state, TaskState::Queued | TaskState::Running | TaskState::Preempted)
    }

    pub fn is_complete(&self) -> bool {
        self.state == TaskState::Completed
    }

    pub fn progress(&self) -> f64 {
        self.progress
    }

    /// Remaining dedicated-execution time (true value).
    pub(crate) fn remaining(&self) -> SimDuration {
        (self.spec.duration - SimDuration::from_secs(self.progress)).clamp_non_negative()
    }

    /// Remaining time as the client estimates it (it only knows
    /// `duration_est`). Never less than zero; an over-run task is assumed
    /// nearly done.
    pub(crate) fn remaining_est(&self) -> SimDuration {
        let est = self.spec.duration_est.secs() - self.progress;
        SimDuration::from_secs(est.max(1.0))
    }

    /// Mark the download finished.
    pub(crate) fn download_done(&mut self) {
        if self.state == TaskState::Downloading {
            self.state = TaskState::Queued;
        }
    }

    /// Start or resume execution.
    pub fn start(&mut self) {
        debug_assert!(self.is_runnable(), "start on non-runnable task");
        if self.state != TaskState::Running {
            if !self.in_memory {
                // Resuming from disk: roll back to the last checkpoint.
                let lost = self.progress - self.checkpointed;
                if lost > 0.0 {
                    self.rollback_waste += lost;
                    self.progress = self.checkpointed;
                }
            }
            self.state = TaskState::Running;
            self.in_memory = true;
            self.run_start_progress = self.progress;
        }
    }

    /// Advance execution by `dt` dedicated seconds; returns `true` on
    /// completion. Checkpoints occur at multiples of the period.
    pub fn advance(&mut self, dt: SimDuration) -> bool {
        debug_assert!(self.is_running());
        self.progress += dt.secs();
        if let Some(cp) = self.spec.checkpoint_period {
            let cp = cp.secs();
            if cp > 0.0 {
                self.checkpointed = (self.progress / cp).floor() * cp;
            }
        }
        if self.progress >= self.spec.duration.secs() - 1e-9 {
            self.progress = self.spec.duration.secs();
            self.checkpointed = self.progress;
            self.state = TaskState::Completed;
            true
        } else {
            false
        }
    }

    /// Stop execution. If `keep_in_memory` is false the task will resume
    /// from its last checkpoint (rollback applied lazily at [`Task::start`]).
    pub(crate) fn preempt(&mut self, keep_in_memory: bool) {
        debug_assert!(self.is_running());
        self.state = TaskState::Preempted;
        self.in_memory = keep_in_memory;
    }

    /// Has this running task checkpointed since it last started? The
    /// scheduler gives uncheckpointed running jobs precedence over all
    /// others (§3.3) to avoid losing their progress.
    pub(crate) fn checkpointed_since_start(&self) -> bool {
        // True when a checkpoint boundary has been crossed since the task
        // (re)started, or it simply hasn't run yet.
        self.progress <= self.run_start_progress
            || self.checkpointed > self.run_start_progress + 1e-9
    }

    /// Mark the task permanently failed (retry budget exhausted).
    pub(crate) fn error(&mut self) {
        self.state = TaskState::Error;
        self.in_memory = false;
    }

    pub fn is_errored(&self) -> bool {
        self.state == TaskState::Error
    }

    /// Host crash: all unsaved progress is lost immediately (the rollback
    /// is applied eagerly, unlike [`Task::preempt`], because the in-memory
    /// image is gone). Running or preempted tasks drop to their last
    /// checkpoint; returns the execution seconds lost.
    pub(crate) fn crash(&mut self) -> f64 {
        if self.state == TaskState::Running {
            self.state = TaskState::Preempted;
        }
        self.in_memory = false;
        let lost = self.progress - self.checkpointed;
        if lost > 0.0 {
            self.rollback_waste += lost;
            self.progress = self.checkpointed;
            self.run_start_progress = self.run_start_progress.min(self.progress);
            lost
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::{AppId, JobId, ProjectId, ResourceUsage, SimTime};
    use proptest::prelude::*;

    fn spec(duration: f64, checkpoint: Option<f64>) -> JobSpec {
        JobSpec {
            id: JobId(1),
            project: ProjectId(0),
            app: AppId(0),
            usage: ResourceUsage::one_cpu(),
            duration: SimDuration::from_secs(duration),
            duration_est: SimDuration::from_secs(duration),
            latency_bound: SimDuration::from_secs(2.0 * duration),
            checkpoint_period: checkpoint.map(SimDuration::from_secs),
            working_set_bytes: 1e8,
            input_bytes: 0.0,
            output_bytes: 0.0,
            received: SimTime::ZERO,
        }
    }

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn runs_to_completion() {
        let mut task = Task::new(spec(100.0, Some(10.0)));
        assert_eq!(task.state(), TaskState::Queued);
        task.start();
        assert!(!task.advance(d(50.0)));
        assert_eq!(task.progress(), 50.0);
        assert!(task.advance(d(50.0)));
        assert!(task.is_complete());
        assert_eq!(task.remaining(), SimDuration::ZERO);
    }

    #[test]
    fn preempt_in_memory_preserves_progress() {
        let mut task = Task::new(spec(100.0, Some(10.0)));
        task.start();
        task.advance(d(15.0));
        task.preempt(true);
        task.start();
        assert_eq!(task.progress(), 15.0);
        assert_eq!(task.rollback_waste, 0.0);
    }

    #[test]
    fn preempt_out_of_memory_rolls_back_to_checkpoint() {
        let mut task = Task::new(spec(100.0, Some(10.0)));
        task.start();
        task.advance(d(17.0));
        task.preempt(false);
        task.start();
        assert_eq!(task.progress(), 10.0); // checkpoint at 10 s
        assert!((task.rollback_waste - 7.0).abs() < 1e-9);
    }

    #[test]
    fn non_checkpointing_app_loses_everything() {
        let mut task = Task::new(spec(100.0, None));
        task.start();
        task.advance(d(60.0));
        task.preempt(false);
        task.start();
        assert_eq!(task.progress(), 0.0);
        assert_eq!(task.rollback_waste, 60.0);
    }

    #[test]
    fn checkpointed_since_start_flag() {
        let mut task = Task::new(spec(100.0, Some(10.0)));
        task.start();
        assert!(task.checkpointed_since_start()); // hasn't run yet
        task.advance(d(5.0));
        assert!(!task.checkpointed_since_start());
        task.advance(d(6.0)); // crosses the 10 s checkpoint
        assert!(task.checkpointed_since_start());
        // Resume after checkpoint: flag resets.
        task.preempt(true);
        task.start();
        task.advance(d(5.0));
        assert!(!task.checkpointed_since_start());
    }

    #[test]
    fn download_gate() {
        let mut s = spec(100.0, Some(10.0));
        s.input_bytes = 1e6;
        let mut task = Task::new(s);
        assert_eq!(task.state(), TaskState::Downloading);
        assert!(!task.is_runnable());
        task.download_done();
        assert_eq!(task.state(), TaskState::Queued);
        assert!(task.is_runnable());
    }

    #[test]
    fn eta_and_estimates() {
        let mut s = spec(100.0, Some(10.0));
        s.duration_est = d(80.0); // underestimate
        let mut task = Task::new(s);
        task.start();
        task.advance(d(90.0));
        // True remaining: 10 s; estimated remaining floors at 1 s.
        assert_eq!(task.remaining(), d(10.0));
        assert_eq!(task.remaining_est(), d(1.0));
    }

    #[test]
    fn crash_rolls_back_to_checkpoint_eagerly() {
        let mut task = Task::new(spec(100.0, Some(10.0)));
        task.start();
        task.advance(d(27.0));
        let lost = task.crash();
        assert!((lost - 7.0).abs() < 1e-9);
        assert_eq!(task.state(), TaskState::Preempted);
        assert_eq!(task.progress(), 20.0); // eager rollback, unlike preempt
        assert!((task.rollback_waste - 7.0).abs() < 1e-9);
        // Resuming does not double-count the rollback.
        task.start();
        assert_eq!(task.progress(), 20.0);
        assert!((task.rollback_waste - 7.0).abs() < 1e-9);
    }

    #[test]
    fn crash_on_queued_task_is_free() {
        let mut task = Task::new(spec(100.0, Some(10.0)));
        assert_eq!(task.crash(), 0.0);
        assert_eq!(task.state(), TaskState::Queued);
        assert!(task.is_runnable());
    }

    #[test]
    fn errored_task_is_not_runnable() {
        let mut task = Task::new(spec(100.0, Some(10.0)));
        task.error();
        assert!(task.is_errored());
        assert!(!task.is_runnable());
        assert!(!task.is_complete());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128 })]

        /// Task execution: progress is conserved across preemption cycles and
        /// rollback waste accounts exactly for lost progress.
        #[test]
        fn task_progress_conservation(
            duration in 100.0f64..10_000.0,
            checkpoint in proptest::option::of(10.0f64..1000.0),
            slices in proptest::collection::vec((1.0f64..500.0, any::<bool>()), 1..20),
        ) {
            let spec = JobSpec {
                id: JobId(1),
                project: ProjectId(0),
                app: AppId(0),
                usage: ResourceUsage::one_cpu(),
                duration: SimDuration::from_secs(duration),
                duration_est: SimDuration::from_secs(duration),
                latency_bound: SimDuration::from_secs(duration * 10.0),
                checkpoint_period: checkpoint.map(SimDuration::from_secs),
                working_set_bytes: 1e8,
                input_bytes: 0.0,
                output_bytes: 0.0,
                received: SimTime::ZERO,
            };
            let mut task = Task::new(spec);
            let mut executed = 0.0; // seconds actually spent executing
            for (dt, keep_mem) in slices {
                if task.is_complete() {
                    break;
                }
                task.start();
                let before = task.progress();
                task.advance(SimDuration::from_secs(dt));
                executed += task.progress() - before;
                if !task.is_complete() {
                    task.preempt(keep_mem);
                }
            }
            if !task.is_complete() {
                task.start(); // apply any pending rollback
            }
            // Conservation: execution time = surviving progress + rollbacks.
            let accounted = task.progress() + task.rollback_waste;
            prop_assert!((accounted - executed).abs() < 1e-6,
                "executed {executed} != progress {} + waste {}",
                task.progress(), task.rollback_waste);
            // Progress never exceeds the job length.
            prop_assert!(task.progress() <= duration + 1e-9);
            // Without checkpoints, progress after an out-of-memory preemption
            // resets entirely (verified by the conservation equation plus the
            // fact that checkpointed == 0 implies progress == executed only
            // when nothing was dropped — covered above).
        }
    }
}
