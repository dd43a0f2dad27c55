//! End-to-end smoke tests of the emulator loop: jobs must be fetched,
//! executed, completed and reported; metrics must be sane; runs must be
//! deterministic.

use bce_client::{ClientConfig, FetchPolicy, JobSchedPolicy, NetworkModel};
use bce_core::{Emulator, EmulatorConfig, Scenario, ScenarioBuilder, TraceEvent};
use bce_types::{AppClass, Hardware, JobId, Preferences, ProjectSpec, SimDuration};
use std::collections::BTreeSet;

fn one_project_scenario() -> Scenario {
    ScenarioBuilder::new("smoke-1p", Hardware::cpu_only(1, 1e9))
        .seed(7)
        .project(
            ProjectSpec::new(0, "alpha", 100.0).with_app(
                AppClass::cpu(0, SimDuration::from_secs(1000.0), SimDuration::from_hours(6.0))
                    .with_cv(0.0),
            ),
        )
        .build_unchecked()
}

fn two_project_scenario() -> Scenario {
    let mut s = one_project_scenario();
    s.projects.push(ProjectSpec::new(1, "beta", 100.0).with_app(
        AppClass::cpu(0, SimDuration::from_secs(1000.0), SimDuration::from_hours(6.0)).with_cv(0.0),
    ));
    s
}

fn short_cfg(days: f64) -> EmulatorConfig {
    EmulatorConfig { duration: SimDuration::from_days(days), ..Default::default() }
}

#[test]
fn single_project_saturates_cpu() {
    let em = Emulator::new(one_project_scenario(), ClientConfig::default(), short_cfg(1.0));
    let r = em.run();
    // 1 CPU fully available; 1000 s jobs: ~86 jobs/day.
    assert!(r.jobs_completed >= 80, "expected ~86 jobs, got {} (report:\n{r})", r.jobs_completed);
    assert!(r.merit.idle_fraction < 0.05, "idle {:.3}", r.merit.idle_fraction);
    assert_eq!(r.jobs_missed_deadline, 0);
    assert!(r.merit.wasted_fraction < 1e-9);
    assert!(r.merit.rpcs_per_job < 2.0, "rpcs/job {}", r.merit.rpcs_per_job);
}

#[test]
fn two_projects_share_evenly() {
    let em = Emulator::new(two_project_scenario(), ClientConfig::default(), short_cfg(2.0));
    let r = em.run();
    assert!(r.jobs_completed >= 150, "got {}", r.jobs_completed);
    assert!(
        r.merit.share_violation < 0.1,
        "equal shares should balance, violation {:.3}\n{r}",
        r.merit.share_violation
    );
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let em = Emulator::new(two_project_scenario(), ClientConfig::default(), short_cfg(1.0));
        let r = em.run();
        (
            r.jobs_completed,
            r.total_flops_used.to_bits(),
            r.merit.share_violation.to_bits(),
            r.merit.idle_fraction.to_bits(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let run = |seed: u64| {
        let mut s = two_project_scenario();
        s.seed = seed;
        // Give runtimes some variance so the seed matters.
        for p in &mut s.projects {
            for a in &mut p.apps {
                a.runtime_cv = 0.2;
            }
        }
        let r = Emulator::new(s, ClientConfig::default(), short_cfg(1.0)).run();
        // The full-result fingerprint, not `total_flops_used`: a saturated
        // CPU does the same total work under any seed, but the job
        // boundaries and completion counts it hashes still differ.
        r.bit_fingerprint()
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn wrr_vs_edf_on_tight_deadlines() {
    // Scenario-1-like shape: project 0 has tight deadlines.
    let mk = || {
        ScenarioBuilder::new("tight", Hardware::cpu_only(1, 1e9))
            .seed(3)
            .prefs(Preferences {
                // A buffer deep enough to hold jobs from both projects at
                // once: under WRR the tight job then waits behind the
                // loose one and misses; EDF promotes it.
                work_buf_min: SimDuration::from_secs(2000.0),
                work_buf_extra: SimDuration::from_secs(2000.0),
                ..Default::default()
            })
            .project(
                ProjectSpec::new(0, "tight", 100.0).with_app(
                    AppClass::cpu(
                        0,
                        SimDuration::from_secs(1000.0),
                        SimDuration::from_secs(1500.0),
                    )
                    .with_cv(0.0),
                ),
            )
            .project(
                ProjectSpec::new(1, "loose", 100.0).with_app(
                    AppClass::cpu(1, SimDuration::from_secs(1000.0), SimDuration::from_hours(24.0))
                        .with_cv(0.0),
                ),
            )
            .build_unchecked()
    };
    let run = |sched_policy| {
        let client_cfg = ClientConfig {
            sched_policy,
            fetch_policy: FetchPolicy::Hysteresis,
            ..Default::default()
        };
        Emulator::new(mk(), client_cfg, EmulatorConfig::default()).run()
    };
    let edf = run(JobSchedPolicy::LOCAL);
    let wrr = run(JobSchedPolicy::WRR);
    assert!(
        edf.merit.wasted_fraction < wrr.merit.wasted_fraction,
        "EDF {:.4} should waste less than WRR {:.4}",
        edf.merit.wasted_fraction,
        wrr.merit.wasted_fraction
    );
}

#[test]
fn unavailable_host_does_nothing() {
    let mut s = one_project_scenario();
    s.avail.host = bce_avail::OnOffSpec::AlwaysOff;
    let r = Emulator::new(s, ClientConfig::default(), short_cfg(1.0)).run();
    assert_eq!(r.jobs_completed, 0);
    assert_eq!(r.available_fraction, 0.0);
}

#[test]
fn flapping_host_trace_is_coalesced() {
    // A recorded trace that flaps off/on in 50 ms bursts every 10 minutes.
    // Each burst has zero net delta, so under the default 250 ms window the
    // emulator must absorb the whole burst into one availability event and
    // skip the reschedule; with the window disabled every transition fires
    // its own event. (This also regression-tests loop termination: trace
    // sources are pure functions of time that `advance` does not consume,
    // so a cursor-less coalescing scan would spin forever right here.)
    let mk = |window_secs: f64| {
        let mut transitions = Vec::new();
        let mut t = 600.0;
        while t < 86_000.0 {
            transitions.push((bce_types::SimTime::from_secs(t), false));
            transitions.push((bce_types::SimTime::from_secs(t + 0.05), true));
            transitions.push((bce_types::SimTime::from_secs(t + 0.10), false));
            transitions.push((bce_types::SimTime::from_secs(t + 0.15), true));
            t += 600.0;
        }
        let nbursts = transitions.len() / 4;
        let mut s = one_project_scenario();
        s.host_trace = Some(bce_avail::AvailTrace::new(true, transitions));
        let cfg = EmulatorConfig {
            duration: SimDuration::from_days(1.0),
            avail_coalesce_window: SimDuration::from_secs(window_secs),
            ..Default::default()
        };
        (Emulator::new(s, ClientConfig::default(), cfg).run(), nbursts)
    };

    let (coalesced, nbursts) = mk(0.25);
    assert_eq!(
        coalesced.perf.flaps_coalesced as usize,
        3 * nbursts,
        "each 4-transition burst should leave 1 event + 3 absorbed flaps"
    );
    assert_eq!(
        coalesced.perf.avail_resched_skipped as usize, nbursts,
        "net-zero bursts must not trigger a reschedule"
    );
    assert!(coalesced.jobs_completed > 0);

    let (uncoalesced, _) = mk(0.0);
    assert_eq!(uncoalesced.perf.flaps_coalesced, 0, "window 0 disables coalescing");
    // Taking every burst transition literally preempts the running task
    // four times per burst and rolls progress back to its last checkpoint;
    // absorbing the burst keeps that work. Coalescing must never do worse.
    assert!(
        coalesced.jobs_completed >= uncoalesced.jobs_completed,
        "coalesced {} < uncoalesced {}",
        coalesced.jobs_completed,
        uncoalesced.jobs_completed
    );
    assert!(uncoalesced.jobs_completed > 0);

    // Coalescing is deterministic: same scenario, same fingerprint.
    assert_eq!(mk(0.25).0.bit_fingerprint(), coalesced.bit_fingerprint());
}

#[test]
fn network_model_slows_throughput() {
    let mk = |net: Option<NetworkModel>| {
        let mut s = one_project_scenario();
        // 100 MB input per 1000 s job.
        for p in &mut s.projects {
            for a in &mut p.apps {
                a.input_bytes = 1e8;
            }
        }
        s.network = net;
        Emulator::new(s, ClientConfig::default(), short_cfg(1.0)).run()
    };
    let fast = mk(None);
    // 1 MB/s: 100 s download per 1000 s job, queue hides most of it but
    // throughput cannot exceed the no-network case.
    let slow = mk(Some(NetworkModel::symmetric(1e6)));
    assert!(slow.jobs_completed <= fast.jobs_completed);
    assert!(slow.jobs_completed > 0, "transfers must still progress");
}

#[test]
fn timeline_recorded_when_enabled() {
    let cfg = EmulatorConfig {
        duration: SimDuration::from_hours(6.0),
        record_timeline: true,
        ..Default::default()
    };
    let r = Emulator::new(one_project_scenario(), ClientConfig::default(), cfg).run();
    let tl = r.timeline.expect("timeline enabled");
    assert_eq!(tl.tracks().len(), 1);
    assert!(tl.tracks()[0]
        .segments()
        .iter()
        .any(|s| matches!(s.occ, bce_sim::Occupancy::Busy { .. }) && s.end > s.start));
    let rendered = bce_core::render_timeline(&tl, 60);
    assert!(rendered.contains('A'), "{rendered}");
}

#[test]
fn log_records_decisions() {
    let cfg = EmulatorConfig {
        duration: SimDuration::from_hours(2.0),
        trace_capacity: 10_000,
        ..Default::default()
    };
    let r = Emulator::new(one_project_scenario(), ClientConfig::default(), cfg).run();
    let text: String = r.trace.records().iter().map(|r| format!("{r}\n")).collect();
    assert!(text.contains("RPC to P0"), "log:\n{text}");
    assert!(text.contains("scheduled  start"), "log:\n{text}");
    assert!(text.contains("finished"), "log:\n{text}");
}

#[test]
fn empty_reschedule_is_silent() {
    // A reschedule that starts and preempts nothing is not a decision:
    // the trace must hold no `Scheduled` record with both lists empty.
    let cfg = EmulatorConfig { trace_capacity: 100_000, ..short_cfg(1.0) };
    let r = Emulator::new(two_project_scenario(), ClientConfig::default(), cfg).run();
    let scheduled: Vec<_> = r
        .trace
        .records()
        .iter()
        .filter_map(|rec| match &rec.event {
            TraceEvent::Scheduled { started, preempted } => Some((started, preempted)),
            _ => None,
        })
        .collect();
    assert!(scheduled.len() > 5, "a day should reschedule often, got {}", scheduled.len());
    for (started, preempted) in scheduled {
        assert!(!(started.is_empty() && preempted.is_empty()), "empty Scheduled record");
    }
}

#[test]
fn job_ids_are_unique_whatever_the_project_ids() {
    // The two ids agree modulo 2^24, so job ids built from the project id
    // shifted into bits 40 and up would collide.
    let app = || AppClass::cpu(0, SimDuration::from_secs(1000.0), SimDuration::from_hours(6.0));
    let scenario = ScenarioBuilder::new("colliding-ids", Hardware::cpu_only(2, 1e9))
        .seed(3)
        .project(ProjectSpec::new(7_022_592, "a", 100.0).with_app(app()))
        .project(ProjectSpec::new(4_000_000_000, "b", 100.0).with_app(app()))
        .build_unchecked();
    let cfg = EmulatorConfig { trace_capacity: 100_000, ..short_cfg(1.0) };
    let r = Emulator::new(scenario, ClientConfig::default(), cfg).run();
    assert_eq!(r.trace.dropped(), 0);
    let finished: Vec<JobId> = r
        .trace
        .records()
        .iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::JobFinished { job, .. } => Some(job),
            _ => None,
        })
        .collect();
    assert!(finished.len() > 100, "a day on two CPUs finishes ~170 jobs, got {}", finished.len());
    assert_eq!(finished.iter().collect::<BTreeSet<_>>().len(), finished.len(), "duplicate job id");
    assert_eq!(finished.len() as u64, r.jobs_completed);
}

#[test]
fn report_renders() {
    let r = Emulator::new(two_project_scenario(), ClientConfig::default(), short_cfg(0.5)).run();
    let report = format!("{r}");
    assert!(report.contains("figures of merit"));
    assert!(report.contains("alpha"));
    assert!(report.contains("beta"));
}
