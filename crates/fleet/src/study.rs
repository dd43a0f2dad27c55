//! Running a fleet under a share strategy and scoring the volunteer-level
//! outcome: fleet share violation (did the volunteer's intent hold across
//! all their machines?) and total throughput.

use crate::fleet::{assign_shares, host_scenarios, Fleet, ShareStrategy};
use bce_client::ClientConfig;
use bce_controller::{run_streaming, RunSpec};
use bce_core::EmulatorConfig;
use bce_sim::rms;
use bce_types::ProjectId;

/// Fleet-level outcome of one strategy.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// FLOPS delivered to each project across the whole fleet.
    pub per_project_flops: Vec<(ProjectId, f64)>,
    /// RMS deviation between volunteer share fractions and delivered
    /// fractions, fleet-wide.
    pub fleet_share_violation: f64,
    /// Total FLOPS delivered.
    pub total_flops: f64,
}

/// Emulate every host of the fleet under `strategy`.
pub fn run_fleet(
    fleet: &Fleet,
    strategy: ShareStrategy,
    client: ClientConfig,
    emulator: &EmulatorConfig,
    threads: usize,
) -> FleetResult {
    let assignment = assign_shares(fleet, strategy);
    let scenarios = host_scenarios(fleet, &assignment);
    // One shared emulator config for every host; host scenarios are moved
    // into their Arc, so nothing is cloned per spec.
    let emulator = std::sync::Arc::new(emulator.clone());
    let specs: Vec<RunSpec> = scenarios
        .into_iter()
        .filter(|s| !s.projects.is_empty())
        .map(|s| RunSpec::new(s.name.clone(), s, client).with_emulator(emulator.clone()))
        .collect();
    // Aggregate FLOPS per project across hosts, as each host finishes.
    let mut per_project_flops: Vec<(ProjectId, f64)> =
        fleet.projects.iter().map(|p| (p.id, 0.0)).collect();
    run_streaming(&specs, threads, |_, _, result| {
        for pr in &result.projects {
            if let Some((_, acc)) = per_project_flops.iter_mut().find(|(id, _)| *id == pr.id) {
                *acc += pr.flops_used;
            }
        }
    });
    let total_flops: f64 = per_project_flops.iter().map(|(_, f)| f).sum();

    let share_sum: f64 = fleet.projects.iter().map(|p| p.resource_share).sum();
    let deviations: Vec<f64> = fleet
        .projects
        .iter()
        .map(|p| {
            let share_frac = if share_sum > 0.0 { p.resource_share / share_sum } else { 0.0 };
            let used = per_project_flops
                .iter()
                .find(|(id, _)| *id == p.id)
                .map(|(_, f)| *f)
                .unwrap_or(0.0);
            let used_frac = if total_flops > 0.0 { used / total_flops } else { 0.0 };
            share_frac - used_frac
        })
        .collect();

    FleetResult { per_project_flops, fleet_share_violation: rms(&deviations), total_flops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetHost;
    use bce_types::{AppClass, Hardware, ProcType, ProjectSpec, SimDuration};

    fn fleet() -> Fleet {
        // The §6.2 situation: the "mixed" project has both CPU and GPU
        // apps, so under per-host enforcement it claims half of the CPU
        // box *and* the whole GPU — overshooting its fleet-level share.
        // Cross-host assignment dedicates the CPU box to the CPU-only
        // project instead.
        Fleet {
            hosts: vec![
                FleetHost::new("cpu-box", Hardware::cpu_only(8, 2e9)),
                FleetHost::new(
                    "gpu-box",
                    Hardware::cpu_only(2, 1e9).with_group(ProcType::NvidiaGpu, 1, 2e10),
                ),
            ],
            projects: vec![
                ProjectSpec::new(0, "mixed_proj", 100.0)
                    .with_app(AppClass::gpu(
                        0,
                        ProcType::NvidiaGpu,
                        SimDuration::from_secs(1000.0),
                        SimDuration::from_hours(24.0),
                    ))
                    .with_app(AppClass::cpu(
                        1,
                        SimDuration::from_secs(2000.0),
                        SimDuration::from_hours(24.0),
                    )),
                ProjectSpec::new(1, "cpu_proj", 100.0).with_app(AppClass::cpu(
                    2,
                    SimDuration::from_secs(1000.0),
                    SimDuration::from_hours(24.0),
                )),
            ],
            seed: 3,
        }
    }

    fn emu() -> EmulatorConfig {
        EmulatorConfig { duration: SimDuration::from_hours(6.0), ..Default::default() }
    }

    #[test]
    fn cross_host_beats_per_host_on_fleet_violation() {
        let f = fleet();
        let per = run_fleet(&f, ShareStrategy::PerHost, ClientConfig::default(), &emu(), 0);
        let cross = run_fleet(&f, ShareStrategy::CrossHost, ClientConfig::default(), &emu(), 0);
        // Both run all hosts and deliver work.
        assert!(per.total_flops > 0.0 && cross.total_flops > 0.0);
        // The headline §6.2 claim: cross-host assignment tracks the
        // volunteer's shares better without losing throughput.
        assert!(
            cross.fleet_share_violation < per.fleet_share_violation,
            "cross {:.4} vs per {:.4}",
            cross.fleet_share_violation,
            per.fleet_share_violation
        );
        assert!(
            cross.total_flops > 0.9 * per.total_flops,
            "throughput must not collapse: {:.3e} vs {:.3e}",
            cross.total_flops,
            per.total_flops
        );
    }

    #[test]
    fn results_are_deterministic() {
        let f = fleet();
        let a = run_fleet(&f, ShareStrategy::CrossHost, ClientConfig::default(), &emu(), 0);
        let b = run_fleet(&f, ShareStrategy::CrossHost, ClientConfig::default(), &emu(), 0);
        assert_eq!(a.total_flops.to_bits(), b.total_flops.to_bits());
        assert_eq!(a.fleet_share_violation.to_bits(), b.fleet_share_violation.to_bits());
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let f = fleet();
        let base = run_fleet(&f, ShareStrategy::PerHost, ClientConfig::default(), &emu(), 1);
        for threads in [2, 8] {
            let other =
                run_fleet(&f, ShareStrategy::PerHost, ClientConfig::default(), &emu(), threads);
            assert_eq!(base.total_flops.to_bits(), other.total_flops.to_bits());
            assert_eq!(base.fleet_share_violation.to_bits(), other.fleet_share_violation.to_bits());
            let bits = |r: &FleetResult| {
                r.per_project_flops.iter().map(|&(id, f)| (id, f.to_bits())).collect::<Vec<_>>()
            };
            assert_eq!(
                bits(&base),
                bits(&other),
                "per-project FLOPS diverged at {threads} threads"
            );
        }
    }
}
