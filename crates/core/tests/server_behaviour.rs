//! End-to-end behaviour of the server-side models: downtime, sporadic
//! work supply, finite batches, and the client's RPC backoff.

use bce_client::ClientConfig;
use bce_core::{Emulator, EmulatorConfig, Scenario, ScenarioBuilder};
use bce_types::{
    AppClass, Hardware, ProjectSpec, ServerUptime, SimDuration, SporadicSupply, WorkSupply,
};

fn project(id: u32, name: &str) -> ProjectSpec {
    ProjectSpec::new(id, name, 100.0).with_app(
        AppClass::cpu(0, SimDuration::from_secs(1000.0), SimDuration::from_hours(8.0)).with_cv(0.0),
    )
}

fn scenario(projects: Vec<ProjectSpec>) -> Scenario {
    let mut b = ScenarioBuilder::new("server-behaviour", Hardware::cpu_only(1, 1e9)).seed(23);
    for p in projects {
        b = b.project(p);
    }
    b.build_unchecked()
}

fn cfg(days: f64) -> EmulatorConfig {
    EmulatorConfig { duration: SimDuration::from_days(days), ..Default::default() }
}

#[test]
fn batch_project_runs_dry_and_other_takes_over() {
    let batch = ProjectSpec { supply: WorkSupply::Batch { njobs: 10 }, ..project(0, "batch") };
    let steady = project(1, "steady");
    let r = Emulator::new(scenario(vec![batch, steady]), ClientConfig::default(), cfg(2.0)).run();
    let batch_report = &r.projects[0];
    let steady_report = &r.projects[1];
    assert_eq!(batch_report.jobs_completed, 10, "batch must fully drain");
    // The steady project absorbs the freed capacity: ~160 more jobs.
    assert!(steady_report.jobs_completed > 120, "steady got {}", steady_report.jobs_completed);
    // CPU never idles for long.
    assert!(r.merit.idle_fraction < 0.05, "idle {:.3}", r.merit.idle_fraction);
}

#[test]
fn fully_down_server_yields_nothing_but_client_survives() {
    let down = ProjectSpec {
        uptime: ServerUptime::Sporadic {
            up_mean: SimDuration::from_secs(1.0),
            down_mean: SimDuration::from_secs(1e12),
        },
        ..project(0, "down")
    };
    let steady = project(1, "steady");
    let r = Emulator::new(scenario(vec![down, steady]), ClientConfig::default(), cfg(1.0)).run();
    // The down project provides at most the first RPC's batch (the server
    // starts up and dies ~1 s in).
    assert!(r.projects[0].jobs_completed <= 6, "{}", r.projects[0].jobs_completed);
    assert!(r.projects[1].jobs_completed > 70);
    // Backoff keeps the client from hammering the dead server: the failed
    // RPC count stays far below one per scheduling period (1440/day).
    assert!(
        r.projects[0].rpcs < 100,
        "backoff should bound RPCs to a dead server, got {}",
        r.projects[0].rpcs
    );
}

#[test]
fn sporadic_supply_reduces_but_does_not_kill_throughput() {
    let sporadic = ProjectSpec {
        supply: WorkSupply::Sporadic {
            work_mean: SimDuration::from_hours(2.0),
            dry_mean: SimDuration::from_hours(2.0),
        },
        ..project(0, "sporadic")
    };
    let r_sporadic =
        Emulator::new(scenario(vec![sporadic]), ClientConfig::default(), cfg(2.0)).run();
    let r_steady =
        Emulator::new(scenario(vec![project(0, "steady")]), ClientConfig::default(), cfg(2.0))
            .run();
    assert!(r_sporadic.jobs_completed > 0);
    assert!(
        r_sporadic.jobs_completed < r_steady.jobs_completed,
        "sporadic {} vs steady {}",
        r_sporadic.jobs_completed,
        r_steady.jobs_completed
    );
    // The queue bridges some dry periods: throughput stays above the
    // naive 50% duty cycle.
    assert!(
        r_sporadic.jobs_completed as f64 > 0.5 * r_steady.jobs_completed as f64,
        "queue should bridge dry spells: {} vs {}",
        r_sporadic.jobs_completed,
        r_steady.jobs_completed
    );
}

#[test]
fn flaky_server_recovers_between_outages() {
    let flaky = ProjectSpec {
        uptime: ServerUptime::Sporadic {
            up_mean: SimDuration::from_hours(4.0),
            down_mean: SimDuration::from_hours(1.0),
        },
        ..project(0, "flaky")
    };
    let r = Emulator::new(scenario(vec![flaky]), ClientConfig::default(), cfg(2.0)).run();
    // Still does most of the steady-state work (queue + backoff recovery).
    assert!(r.jobs_completed > 100, "{}", r.jobs_completed);
}

#[test]
fn sporadic_gpu_job_supply_falls_back_to_cpu() {
    // §6.2: "the sporadic availability of particular types of jobs (for
    // example, GPU jobs)". One project supplies CPU jobs always and GPU
    // jobs only half the time; the GPU idles during dry spells but the
    // CPU stays busy.
    use bce_types::ProcType;
    let hw = Hardware::cpu_only(1, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10);
    let mk = |sporadic: bool| {
        let mut gpu_app = AppClass::gpu(
            1,
            ProcType::NvidiaGpu,
            SimDuration::from_secs(500.0),
            SimDuration::from_hours(8.0),
        );
        if sporadic {
            gpu_app.supply = Some(SporadicSupply {
                work_mean: SimDuration::from_hours(1.0),
                dry_mean: SimDuration::from_hours(1.0),
            });
        }
        ScenarioBuilder::new("gpu-supply", hw.clone())
            .seed(31)
            .project(
                ProjectSpec::new(0, "p", 100.0)
                    .with_app(
                        AppClass::cpu(
                            0,
                            SimDuration::from_secs(1000.0),
                            SimDuration::from_hours(8.0),
                        )
                        .with_cv(0.0),
                    )
                    .with_app(gpu_app),
            )
            .build_unchecked()
    };
    let steady = Emulator::new(mk(false), ClientConfig::default(), cfg(2.0)).run();
    let sporadic = Emulator::new(mk(true), ClientConfig::default(), cfg(2.0)).run();
    // GPU dry spells cost jobs overall...
    assert!(
        sporadic.jobs_completed < steady.jobs_completed,
        "sporadic {} vs steady {}",
        sporadic.jobs_completed,
        steady.jobs_completed
    );
    // ...but far more than the CPU-only floor: the GPU still works during
    // supply periods (2 days x ~50% duty on a 10 GF GPU).
    assert!(
        sporadic.total_flops_used > 0.4 * steady.total_flops_used,
        "sporadic {:.2e} vs steady {:.2e}",
        sporadic.total_flops_used,
        steady.total_flops_used
    );
}

#[test]
fn deadline_check_grace_forgives_late_results() {
    // The third policy axis (§4.3): with tight deadlines many jobs finish
    // late. Under DC-STRICT they are wasted; a grace period recovers
    // them; DC-NONE recovers all.
    use bce_server::DeadlineCheckPolicy;
    let tight_scenario = || {
        scenario(vec![
            ProjectSpec::new(0, "tight", 100.0).with_app(
                AppClass::cpu(0, SimDuration::from_secs(1000.0), SimDuration::from_secs(1500.0))
                    .with_cv(0.0),
            ),
            project(1, "loose"),
        ])
    };
    let run = |policy: DeadlineCheckPolicy| {
        let mut emu = cfg(2.0);
        emu.deadline_check = policy;
        Emulator::new(tight_scenario(), ClientConfig::default(), emu).run()
    };
    let strict = run(DeadlineCheckPolicy::Strict);
    let grace = run(DeadlineCheckPolicy::Grace(SimDuration::from_secs(2000.0)));
    let none = run(DeadlineCheckPolicy::None);
    assert!(strict.jobs_missed_deadline > 0, "strict must see misses");
    assert!(
        grace.jobs_missed_deadline < strict.jobs_missed_deadline,
        "grace {} vs strict {}",
        grace.jobs_missed_deadline,
        strict.jobs_missed_deadline
    );
    assert_eq!(none.jobs_missed_deadline, 0, "DC-NONE grants all credit");
    // Residual waste under DC-NONE is checkpoint-rollback only (small).
    assert!(none.merit.wasted_fraction < 0.02, "{}", none.merit.wasted_fraction);
    assert!(grace.merit.wasted_fraction < strict.merit.wasted_fraction);
}
