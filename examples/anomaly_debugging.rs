//! The paper's motivating workflow (§1, §4.3): a volunteer reports a
//! scheduling anomaly — "one of my projects never runs!" — and a developer
//! reproduces and diagnoses it deterministically in the emulator.
//!
//! The anomaly staged here is real — and its cause is not the obvious
//! one. A project with tight deadlines keeps missing them and the
//! volunteer perceives "my machine works for nothing". The first guess
//! (the WRR scheduler interleaving projects) turns out to be wrong: the
//! decision trace shows the work-fetch policy pulling 15 tight-deadline jobs
//! in a single RPC to fill the volunteer's 4-hour buffer, and no
//! scheduling policy can save a 1500-second-deadline job that is 14th in
//! line. The fix is the buffer, not the scheduler — exactly the kind of
//! diagnosis the emulator exists to make cheap (§4.3).
//!
//! ```text
//! cargo run --release --example anomaly_debugging
//! ```

use boinc_policy_emu::client::{ClientConfig, FetchPolicy, JobSchedPolicy};
use boinc_policy_emu::core::{
    render_timeline, Emulator, EmulatorConfig, Scenario, ScenarioBuilder,
};
use boinc_policy_emu::types::{AppClass, Hardware, Preferences, ProjectSpec, SimDuration};

fn volunteer_scenario(buf: SimDuration) -> Scenario {
    ScenarioBuilder::new("anomaly-report", Hardware::cpu_only(1, 1e9))
        .seed(20110516) // from the volunteer's state file: replay exactly
        .prefs(Preferences {
            // The volunteer keeps a deep buffer "so the machine never runs dry".
            work_buf_min: buf,
            work_buf_extra: buf,
            ..Default::default()
        })
        .project(ProjectSpec::new(0, "pulsar_search", 100.0).with_app(
            // Tight latency bound: 1500 s for 1000 s jobs.
            AppClass::cpu(0, SimDuration::from_secs(1000.0), SimDuration::from_secs(1500.0)),
        ))
        .project(ProjectSpec::new(1, "protein_fold", 100.0).with_app(AppClass::cpu(
            1,
            SimDuration::from_secs(1000.0),
            SimDuration::from_days(1.0),
        )))
        .build()
        .expect("valid scenario")
}

fn run(policy: JobSchedPolicy, buf: SimDuration) -> boinc_policy_emu::core::EmulationResult {
    let cfg = EmulatorConfig {
        duration: SimDuration::from_days(1.0),
        record_timeline: true,
        trace_capacity: 50_000,
        ..Default::default()
    };
    let client = ClientConfig {
        sched_policy: policy,
        fetch_policy: FetchPolicy::Hysteresis,
        ..Default::default()
    };
    Emulator::new(volunteer_scenario(buf), client, cfg).run()
}

fn main() {
    let deep = SimDuration::from_hours(2.0);
    let shallow = SimDuration::from_mins(5.0);

    // --- Step 1: reproduce exactly what the volunteer's client ran. ---
    let broken = run(JobSchedPolicy::WRR, deep);
    println!("reproduction (JS-WRR, 4 h work buffer — the volunteer's setup):\n{broken}");
    println!(
        ">>> anomaly confirmed: pulsar_search missed {} of {} jobs (wasted {:.0}%)\n",
        broken.projects[0].jobs_missed_deadline,
        broken.projects[0].jobs_completed,
        broken.merit.wasted_fraction * 100.0,
    );

    // --- Step 2: test the obvious hypothesis — "the scheduler is dumb". ---
    let edf_only = run(JobSchedPolicy::GLOBAL, deep);
    println!(
        "hypothesis 1: deadline-aware scheduling (JS-GLOBAL), same buffer -> wasted {:.0}% (no fix!)\n",
        edf_only.merit.wasted_fraction * 100.0,
    );

    // --- Step 3: read the log; the real culprit is work fetch. ---
    println!("scheduling log, first fetch (the smoking gun):");
    for r in broken.trace.records().iter().take(2) {
        println!("  {r}");
    }
    println!("diagnosis: one RPC pulled ~15 tight-deadline jobs to fill the 4 h buffer.");
    println!("A 1500 s-deadline job that is 14th in a serial queue is dead on arrival —");
    println!("no scheduling policy can save it. The buffer is the bug.\n");

    // --- Step 4: verify the real fix (shallow buffer + EDF). ---
    let fixed = run(JobSchedPolicy::GLOBAL, shallow);
    println!("fix: 5 min buffer + JS-GLOBAL:\n{fixed}");
    println!(
        ">>> fixed: pulsar_search missed {} of {} jobs; wasted {:.1}% (was {:.0}%)",
        fixed.projects[0].jobs_missed_deadline,
        fixed.projects[0].jobs_completed,
        fixed.merit.wasted_fraction * 100.0,
        broken.merit.wasted_fraction * 100.0,
    );

    // --- Step 5: the before/after timelines, Figure-2 style. ---
    if let (Some(a), Some(b)) = (&broken.timeline, &fixed.timeline) {
        println!("\nbroken timeline (A = pulsar_search, B = protein_fold):");
        println!("{}", render_timeline(a, 96));
        println!("fixed timeline:");
        println!("{}", render_timeline(b, 96));
    }
}
