//! Checkpoint and memory-residence semantics end-to-end (§2.3, §3.3):
//! rollback waste must respond to checkpoint frequency and the
//! leave-apps-in-memory preference exactly as the model says.

use boinc_policy_emu::client::{ClientConfig, JobSchedPolicy};
use boinc_policy_emu::core::{Emulator, EmulatorConfig, Scenario, ScenarioBuilder};
use boinc_policy_emu::types::{AppClass, Hardware, Preferences, ProjectSpec, SimDuration};

/// A preemption-heavy scenario: tight-deadline jobs keep displacing a
/// long-running job, forcing rollbacks when it is not kept in memory.
fn contended(checkpoint_secs: Option<f64>, leave_in_memory: bool) -> Scenario {
    ScenarioBuilder::new("ckpt", Hardware::cpu_only(1, 1e9))
        .seed(67)
        .prefs(Preferences {
            work_buf_min: SimDuration::from_secs(900.0),
            work_buf_extra: SimDuration::from_secs(900.0),
            leave_apps_in_memory: leave_in_memory,
            ..Default::default()
        })
        .project(
            ProjectSpec::new(0, "tight", 100.0).with_app(
                AppClass::cpu(0, SimDuration::from_secs(600.0), SimDuration::from_secs(1200.0))
                    .with_cv(0.0),
            ),
        )
        .project(
            ProjectSpec::new(1, "long", 100.0).with_app(
                AppClass::cpu(1, SimDuration::from_secs(20_000.0), SimDuration::from_days(4.0))
                    .with_cv(0.0)
                    .with_checkpoint(checkpoint_secs.map(SimDuration::from_secs)),
            ),
        )
        .build_unchecked()
}

fn run(s: Scenario) -> boinc_policy_emu::core::EmulationResult {
    let cfg = EmulatorConfig { duration: SimDuration::from_days(1.0), ..Default::default() };
    let client = ClientConfig { sched_policy: JobSchedPolicy::LOCAL, ..Default::default() };
    Emulator::new(s, client, cfg).run()
}

#[test]
fn leave_in_memory_eliminates_rollback_waste() {
    let rollback = run(contended(Some(600.0), false));
    let resident = run(contended(Some(600.0), true));
    // Both make progress on both projects.
    assert!(rollback.jobs_completed > 0 && resident.jobs_completed > 0);
    // With apps left in memory, preemption loses nothing; with 10-minute
    // checkpoints and frequent preemption, waste accumulates.
    assert!(
        resident.merit.wasted_fraction < rollback.merit.wasted_fraction,
        "resident {:.4} vs rollback {:.4}",
        resident.merit.wasted_fraction,
        rollback.merit.wasted_fraction
    );
}

#[test]
fn finer_checkpoints_reduce_rollback_waste() {
    let coarse = run(contended(Some(3000.0), false));
    let fine = run(contended(Some(60.0), false));
    assert!(
        fine.merit.wasted_fraction < coarse.merit.wasted_fraction,
        "fine {:.4} vs coarse {:.4}",
        fine.merit.wasted_fraction,
        coarse.merit.wasted_fraction
    );
}

#[test]
fn never_checkpointing_app_can_starve_itself() {
    // §6.2: "model applications that checkpoint infrequently or never".
    // A 20000 s non-checkpointing job that gets preempted every ~1200 s
    // restarts from zero each time: it may never finish, and its lost
    // work shows up as waste.
    let r = run(contended(None, false));
    let long = &r.projects[1];
    let coarse = run(contended(Some(600.0), false));
    assert!(
        long.jobs_completed <= coarse.projects[1].jobs_completed,
        "non-checkpointing {} vs checkpointing {}",
        long.jobs_completed,
        coarse.projects[1].jobs_completed
    );
    assert!(
        r.merit.wasted_fraction > coarse.merit.wasted_fraction,
        "no-ckpt {:.4} vs ckpt {:.4}",
        r.merit.wasted_fraction,
        coarse.merit.wasted_fraction
    );
}

#[test]
fn uncheckpointed_running_job_keeps_the_cpu() {
    // The §3.3 precedence rule end-to-end: with an enormous checkpoint
    // period the running job is never preemptable mid-run, so tight jobs
    // wait for completions; with quick checkpoints they preempt at the
    // next boundary. Both must still complete work, but the protected
    // variant misses more deadlines.
    let protected = run(contended(Some(30_000.0), false)); // > job length
    let preemptible = run(contended(Some(60.0), false));
    assert!(
        protected.jobs_missed_deadline >= preemptible.jobs_missed_deadline,
        "protected {} vs preemptible {}",
        protected.jobs_missed_deadline,
        preemptible.jobs_missed_deadline
    );
}
