//! The paper's four evaluation scenarios (§5).
//!
//! * Scenario 1: CPU only, two projects.
//! * Scenario 2: 4 CPUs and 1 GPU, GPU 10× faster than one CPU; two
//!   projects, one with CPU jobs, one with both.
//! * Scenario 3: CPU only; two projects, one with very long low-slack
//!   jobs.
//! * Scenario 4: CPU and GPU; twenty projects with varying job types.
//!
//! Unless otherwise specified the emulation period is 10 days; the
//! concrete job parameters the paper leaves open are fixed here and
//! documented per scenario.

use bce_core::{Scenario, ScenarioBuilder};
use bce_types::{AppClass, Hardware, Preferences, ProcType, ProjectSpec, SimDuration};

/// Preferences used across the paper scenarios: a small work buffer
/// (min 15 minutes + 15 extra) and always-available computing, so policy
/// differences — not buffering artifacts — dominate the figures.
pub(crate) fn paper_prefs() -> Preferences {
    Preferences {
        work_buf_min: SimDuration::from_secs(900.0),
        work_buf_extra: SimDuration::from_secs(900.0),
        ..Default::default()
    }
}

/// Scenario 1 (§5, used for Figure 3): one 1 GFLOPS CPU, two projects
/// with equal shares. Project 0's jobs run 1000 s with the given latency
/// bound (the paper sweeps 1000–2000 s); project 1's jobs are identical
/// but with a loose 24 h bound.
pub fn scenario1(latency_bound: SimDuration) -> Scenario {
    ScenarioBuilder::new("scenario1", Hardware::cpu_only(1, 1e9))
        .seed(101)
        .prefs(Preferences {
            // A shallow queue (~one job in flight per project): deeper
            // queues make every batch-mate of a tight job unsaveable by
            // any scheduling policy, obscuring the EDF-vs-WRR contrast
            // the figure studies.
            work_buf_min: SimDuration::from_secs(450.0),
            work_buf_extra: SimDuration::from_secs(450.0),
            ..Default::default()
        })
        .project(ProjectSpec::new(0, "tight", 100.0).with_app(
            // Mild runtime variance breaks deterministic lock-step
            // resonances between fetch batching and the latency bound.
            AppClass::cpu(0, SimDuration::from_secs(1000.0), latency_bound).with_cv(0.05),
        ))
        .project(
            ProjectSpec::new(1, "loose", 100.0).with_app(
                AppClass::cpu(1, SimDuration::from_secs(1000.0), SimDuration::from_hours(24.0))
                    .with_cv(0.05),
            ),
        )
        .build()
        .expect("scenario1 is valid")
}

/// Scenario 2 (§5, Figure 4): 4 CPUs (1 GFLOPS each) and 1 GPU 10× faster
/// than one CPU. Two equal-share projects: project 0 has CPU jobs only,
/// project 1 has both CPU and GPU jobs.
pub fn scenario2() -> Scenario {
    let hw = Hardware::cpu_only(4, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10);
    ScenarioBuilder::new("scenario2", hw)
        .seed(102)
        .prefs(paper_prefs())
        .project(
            ProjectSpec::new(0, "cpu_only", 100.0).with_app(
                AppClass::cpu(0, SimDuration::from_secs(3000.0), SimDuration::from_hours(24.0))
                    .with_cv(0.05),
            ),
        )
        .project(
            ProjectSpec::new(1, "cpu_gpu", 100.0)
                .with_app(
                    AppClass::cpu(1, SimDuration::from_secs(3000.0), SimDuration::from_hours(24.0))
                        .with_cv(0.05),
                )
                .with_app(
                    AppClass::gpu(
                        2,
                        ProcType::NvidiaGpu,
                        SimDuration::from_secs(1000.0),
                        SimDuration::from_hours(24.0),
                    )
                    .with_cv(0.05),
                ),
        )
        .build()
        .expect("scenario2 is valid")
}

/// Scenario 3 (§5, Figure 6): CPU only (one 1 GFLOPS CPU); project 0 has
/// very long (10⁶ s ≈ 11.6 days) low-slack jobs that are immediately
/// deadline-endangered; project 1 has normal jobs.
pub fn scenario3() -> Scenario {
    ScenarioBuilder::new("scenario3", Hardware::cpu_only(1, 1e9))
        .seed(103)
        .prefs(paper_prefs())
        .project(
            ProjectSpec::new(0, "long_low_slack", 100.0).with_app(
                // Slack 10% of the runtime: the job must run nearly
                // exclusively to meet its deadline.
                AppClass::cpu(0, SimDuration::from_secs(1e6), SimDuration::from_secs(1.1e6))
                    .with_cv(0.0),
            ),
        )
        .project(
            ProjectSpec::new(1, "normal", 100.0).with_app(
                AppClass::cpu(1, SimDuration::from_secs(2000.0), SimDuration::from_hours(24.0))
                    .with_cv(0.05),
            ),
        )
        .build()
        .expect("scenario3 is valid")
}

/// Scenario 4 (§5, Figure 5): CPU and GPU host, twenty projects with
/// varying job types: a mix of CPU-only, GPU-only and mixed projects with
/// varying runtimes and latency bounds. Deterministically generated from
/// the project index.
pub fn scenario4() -> Scenario {
    scenario4_sized(20)
}

/// Scenario 4 with a configurable project count (used by sweeps).
pub fn scenario4_sized(nprojects: u32) -> Scenario {
    let hw = Hardware::cpu_only(4, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10);
    let mut b = ScenarioBuilder::new("scenario4", hw).seed(104).prefs(Preferences {
        // A couple of hours of buffer: enough for hysteresis batching to
        // matter with 20 projects.
        work_buf_min: SimDuration::from_hours(1.0),
        work_buf_extra: SimDuration::from_hours(1.0),
        ..Default::default()
    });
    for i in 0..nprojects {
        // Job mix varies by index: runtimes 500–4000 s, every third
        // project supplies GPU work, every fifth is GPU-only.
        let runtime = 500.0 + 250.0 * (i % 15) as f64;
        let latency = SimDuration::from_hours(12.0 + (i % 5) as f64 * 12.0);
        let mut p = ProjectSpec::new(i, format!("proj{i:02}"), 100.0);
        let gpu_only = i % 5 == 4;
        let has_gpu = gpu_only || i % 3 == 0;
        if !gpu_only {
            p = p.with_app(
                AppClass::cpu(2 * i, SimDuration::from_secs(runtime), latency).with_cv(0.1),
            );
        }
        if has_gpu {
            p = p.with_app(
                AppClass::gpu(
                    2 * i + 1,
                    ProcType::NvidiaGpu,
                    SimDuration::from_secs(runtime / 2.0),
                    latency,
                )
                .with_cv(0.1),
            );
        }
        b = b.project(p);
    }
    // `nprojects` may be zero in degenerate sweeps; the callers that do
    // that never emulate the result, so skip validation here.
    b.build_unchecked()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paper_scenarios_validate() {
        for s in [scenario1(SimDuration::from_secs(1500.0)), scenario2(), scenario3(), scenario4()]
        {
            assert!(s.validate().is_ok(), "{} invalid: {:?}", s.name, s.validate());
        }
    }

    #[test]
    fn scenario1_shape() {
        let s = scenario1(SimDuration::from_secs(1200.0));
        assert_eq!(s.projects.len(), 2);
        assert_eq!(s.hardware.ninstances(ProcType::Cpu), 1);
        assert!(!s.hardware.has_gpu());
        assert_eq!(s.projects[0].apps[0].latency_bound, SimDuration::from_secs(1200.0));
    }

    #[test]
    fn scenario2_shape() {
        let s = scenario2();
        assert_eq!(s.hardware.ninstances(ProcType::Cpu), 4);
        assert_eq!(s.hardware.ninstances(ProcType::NvidiaGpu), 1);
        // GPU 10x one CPU.
        assert_eq!(
            s.hardware.flops_per_inst(ProcType::NvidiaGpu),
            10.0 * s.hardware.flops_per_inst(ProcType::Cpu)
        );
        assert!(!s.projects[0].has_apps_for(ProcType::NvidiaGpu));
        assert!(s.projects[1].has_apps_for(ProcType::NvidiaGpu));
        assert!(s.projects[1].has_apps_for(ProcType::Cpu));
    }

    #[test]
    fn scenario3_shape() {
        let s = scenario3();
        let long = &s.projects[0].apps[0];
        assert_eq!(long.runtime_mean, SimDuration::from_secs(1e6));
        // Low slack: bound only 10% above the runtime.
        assert!(long.latency_bound < long.runtime_mean * 1.2);
    }

    #[test]
    fn scenario4_shape() {
        let s = scenario4();
        assert_eq!(s.projects.len(), 20);
        let gpu_projects =
            s.projects.iter().filter(|p| p.has_apps_for(ProcType::NvidiaGpu)).count();
        let cpu_projects = s.projects.iter().filter(|p| p.has_apps_for(ProcType::Cpu)).count();
        assert!(gpu_projects >= 5, "gpu projects {gpu_projects}");
        assert!(cpu_projects >= 10, "cpu projects {cpu_projects}");
        // Varying job types: not all runtimes equal.
        let r0 = s.projects[0].apps[0].runtime_mean;
        assert!(s.projects.iter().any(|p| p.apps[0].runtime_mean != r0));
    }
}
