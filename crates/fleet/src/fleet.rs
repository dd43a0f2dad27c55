//! A volunteer's fleet of hosts and the share-assignment strategies.
//!
//! §6.2: "Increase system throughput by enforcing resource share across a
//! volunteer's hosts, rather than for each host separately. For example,
//! if a particular host is well-suited to a particular project, it could
//! run only that project, and the difference could be made up on other
//! hosts."

use crate::alloc::{fair_alloc, Consumer, Device};
use bce_avail::AvailSpec;
use bce_core::{Scenario, ScenarioBuilder};
use bce_types::{Hardware, Preferences, ProcType, ProjectId, ProjectSpec};

/// One host in the volunteer's fleet (projects are fleet-level).
#[derive(Debug, Clone)]
pub struct FleetHost {
    pub name: String,
    pub(crate) hardware: Hardware,
    pub(crate) prefs: Preferences,
    pub(crate) avail: AvailSpec,
}

impl FleetHost {
    pub fn new(name: impl Into<String>, hardware: Hardware) -> Self {
        FleetHost {
            name: name.into(),
            hardware,
            prefs: Preferences::default(),
            avail: AvailSpec::always_on(),
        }
    }
}

/// A volunteer: several hosts, one set of projects with fleet-level
/// resource shares.
#[derive(Debug, Clone)]
pub struct Fleet {
    pub hosts: Vec<FleetHost>,
    pub projects: Vec<ProjectSpec>,
    pub seed: u64,
}

/// How per-host shares are derived from the volunteer's shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareStrategy {
    /// The baseline BOINC behaviour: every host applies the volunteer's
    /// shares independently.
    PerHost,
    /// The §6.2 proposal: shares are assigned per host so that hosts
    /// specialize in the projects they suit, while the fleet-level totals
    /// track the volunteer's shares.
    CrossHost,
}

impl ShareStrategy {
    pub fn name(&self) -> &'static str {
        match self {
            ShareStrategy::PerHost => "per-host",
            ShareStrategy::CrossHost => "cross-host",
        }
    }
}

/// Per-host share vectors: `assignment[host]` lists `(project, share)`;
/// projects absent from a host's vector are detached there.
pub(crate) type ShareAssignment = Vec<Vec<(ProjectId, f64)>>;

/// Whether `project` can use any processor of `hw`.
fn project_fits(project: &ProjectSpec, hw: &Hardware) -> bool {
    project.apps.iter().any(|a| {
        let t = a.usage.main_proc_type();
        hw.ninstances(t) > 0
    })
}

/// Compute the share assignment for a strategy.
pub fn assign_shares(fleet: &Fleet, strategy: ShareStrategy) -> ShareAssignment {
    match strategy {
        ShareStrategy::PerHost => fleet
            .hosts
            .iter()
            .map(|h| {
                fleet
                    .projects
                    .iter()
                    .filter(|p| project_fits(p, &h.hardware))
                    .map(|p| (p.id, p.resource_share))
                    .collect()
            })
            .collect(),
        ShareStrategy::CrossHost => {
            // Devices: every (host, type) pool; consumers: projects.
            let mut devices = Vec::new();
            let mut device_host = Vec::new();
            for (hi, host) in fleet.hosts.iter().enumerate() {
                for t in ProcType::ALL {
                    let cap = host.hardware.peak_flops(t);
                    if cap <= 0.0 {
                        continue;
                    }
                    let usable_by = fleet
                        .projects
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.has_apps_for(t))
                        .map(|(ci, _)| ci)
                        .collect();
                    devices.push(Device { capacity: cap, usable_by });
                    device_host.push(hi);
                }
            }
            let consumers: Vec<Consumer> =
                fleet.projects.iter().map(|p| Consumer { share: p.resource_share }).collect();
            let alloc = fair_alloc(&devices, &consumers, 32);

            // Translate per-(host,device) FLOPS into per-host share
            // weights: a project's share on a host is proportional to the
            // FLOPS it should receive there.
            (0..fleet.hosts.len())
                .map(|hi| {
                    let mut shares = Vec::new();
                    for (ci, p) in fleet.projects.iter().enumerate() {
                        let flops: f64 = devices
                            .iter()
                            .enumerate()
                            .filter(|(di, _)| device_host[*di] == hi)
                            .map(|(di, _)| alloc.alloc[ci][di])
                            .sum();
                        if flops > 1e-6 {
                            shares.push((p.id, flops));
                        }
                    }
                    shares
                })
                .collect()
        }
    }
}

/// Build the per-host scenario for an assignment (hosts with an empty
/// share vector get a scenario with no projects and are skipped by the
/// runner).
pub fn host_scenarios(fleet: &Fleet, assignment: &ShareAssignment) -> Vec<Scenario> {
    fleet
        .hosts
        .iter()
        .zip(assignment)
        .enumerate()
        .map(|(hi, (host, shares))| {
            let mut b = ScenarioBuilder::new(format!("fleet-{}", host.name), host.hardware.clone())
                .seed(fleet.seed ^ (hi as u64).wrapping_mul(0x9E3779B97F4A7C15))
                .prefs(host.prefs.clone())
                .avail(host.avail.clone());
            for (pid, share) in shares {
                if let Some(spec) = fleet.projects.iter().find(|p| p.id == *pid) {
                    // Keep only apps the host can run (a GPU app on a
                    // CPU-only host would fail validation).
                    let mut spec = spec.clone();
                    spec.resource_share = *share;
                    spec.apps.retain(|a| host.hardware.ninstances(a.usage.main_proc_type()) > 0);
                    if !spec.apps.is_empty() {
                        b = b.project(spec);
                    }
                }
            }
            b.build_unchecked()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::{AppClass, SimDuration};

    fn gpu_project() -> ProjectSpec {
        ProjectSpec::new(0, "gpu_proj", 100.0).with_app(AppClass::gpu(
            0,
            ProcType::NvidiaGpu,
            SimDuration::from_secs(1000.0),
            SimDuration::from_hours(24.0),
        ))
    }

    fn cpu_project() -> ProjectSpec {
        ProjectSpec::new(1, "cpu_proj", 100.0).with_app(AppClass::cpu(
            1,
            SimDuration::from_secs(1000.0),
            SimDuration::from_hours(24.0),
        ))
    }

    fn heterogeneous_fleet() -> Fleet {
        Fleet {
            hosts: vec![
                FleetHost::new("cpu-box", Hardware::cpu_only(4, 2e9)),
                FleetHost::new(
                    "gpu-box",
                    Hardware::cpu_only(2, 1e9).with_group(ProcType::NvidiaGpu, 1, 2e10),
                ),
            ],
            projects: vec![gpu_project(), cpu_project()],
            seed: 7,
        }
    }

    #[test]
    fn per_host_drops_unusable_projects() {
        let fleet = heterogeneous_fleet();
        let a = assign_shares(&fleet, ShareStrategy::PerHost);
        // CPU-only host can't serve the GPU project.
        assert_eq!(a[0], vec![(ProjectId(1), 100.0)]);
        // GPU host serves both at the volunteer's shares.
        assert_eq!(a[1].len(), 2);
    }

    #[test]
    fn cross_host_specializes() {
        let fleet = heterogeneous_fleet();
        let a = assign_shares(&fleet, ShareStrategy::CrossHost);
        // The GPU host's share vector must heavily favour the GPU
        // project (it's the only place GPU work can run, and the CPU box
        // covers the CPU project's entitlement).
        let gpu_host = &a[1];
        let gpu_share =
            gpu_host.iter().find(|(p, _)| *p == ProjectId(0)).map(|(_, s)| *s).unwrap_or(0.0);
        let cpu_share =
            gpu_host.iter().find(|(p, _)| *p == ProjectId(1)).map(|(_, s)| *s).unwrap_or(0.0);
        assert!(
            gpu_share > 3.0 * cpu_share,
            "gpu host should specialize: gpu {gpu_share} vs cpu {cpu_share}"
        );
        // The CPU box runs only the CPU project.
        let cpu_host = &a[0];
        assert!(cpu_host.iter().all(|(p, _)| *p == ProjectId(1)));
    }

    #[test]
    fn host_scenarios_validate() {
        let fleet = heterogeneous_fleet();
        for strategy in [ShareStrategy::PerHost, ShareStrategy::CrossHost] {
            let a = assign_shares(&fleet, strategy);
            for s in host_scenarios(&fleet, &a) {
                assert!(s.validate().is_ok(), "{strategy:?}/{}: {:?}", s.name, s.validate());
            }
        }
    }

    #[test]
    fn per_host_seeds_differ_between_hosts() {
        let fleet = heterogeneous_fleet();
        let a = assign_shares(&fleet, ShareStrategy::PerHost);
        let scenarios = host_scenarios(&fleet, &a);
        assert_ne!(scenarios[0].seed, scenarios[1].seed);
    }
}
