//! Scenario descriptions — the emulator's input (§4.1).
//!
//! A scenario is one point in the space the BOINC client population
//! inhabits: host hardware, availability pattern, preferences, attached
//! projects with their shares and job characteristics. "Each computer
//! constitutes a scenario in which the scheduling policies operate."

use bce_avail::{AvailSpec, AvailTrace};
use bce_client::NetworkModel;
use bce_types::{Hardware, ProjectSpec};
use bce_types::{InitialJob, ModelError, Preferences, ProcType, ScenarioErrors};

/// A complete scenario description.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    /// Root seed for every stochastic element of the run.
    pub seed: u64,
    pub hardware: Hardware,
    pub prefs: Preferences,
    pub projects: Vec<ProjectSpec>,
    pub avail: AvailSpec,
    /// Optional recorded host-power trace overriding `avail.host`.
    pub host_trace: Option<AvailTrace>,
    /// Optional network link model (None = instant transfers).
    pub network: Option<NetworkModel>,
    /// Jobs already in the client's queue when the emulation starts
    /// (imported in-flight results from a state file).
    pub initial_queue: Vec<InitialJob>,
}

impl Scenario {
    pub(crate) fn new(name: impl Into<String>, hardware: Hardware) -> Self {
        Scenario {
            name: name.into(),
            seed: 0,
            hardware,
            prefs: Preferences::default(),
            projects: Vec::new(),
            avail: AvailSpec::always_on(),
            host_trace: None,
            network: None,
            initial_queue: Vec::new(),
        }
    }

    /// Sanity-check the scenario before emulation, reporting *every*
    /// problem found (a typed [`ScenarioErrors`] list), not just the
    /// first. The emulator assumes a validated scenario; feeding it an
    /// invalid one may panic, so [`crate::ScenarioBuilder::build`] and
    /// the `bce scenario validate` subcommand both route through here.
    pub fn validate(&self) -> Result<(), ScenarioErrors> {
        // `true` when `x` is a usable positive finite quantity; NaN and
        // infinities fail (NaN fails every comparison).
        fn positive_finite(x: f64) -> bool {
            x > 0.0 && x.is_finite()
        }

        let mut errors: Vec<ModelError> = Vec::new();
        if self.projects.is_empty() {
            errors.push(ModelError::Empty("projects"));
        }
        if !positive_finite(self.hardware.total_peak_flops()) {
            errors.push(ModelError::OutOfRange {
                what: "total_peak_flops",
                value: self.hardware.total_peak_flops(),
                expected: "> 0 and finite",
            });
        }
        let mut seen = std::collections::HashSet::new();
        for p in &self.projects {
            if !seen.insert(p.id) {
                errors.push(ModelError::DuplicateId(p.id.to_string()));
            }
            if !positive_finite(p.resource_share) {
                errors.push(ModelError::OutOfRange {
                    what: "resource_share",
                    value: p.resource_share,
                    expected: "> 0 and finite",
                });
            }
            if p.apps.is_empty() {
                errors.push(ModelError::Empty("project apps"));
            }
            for app in &p.apps {
                let t = app.usage.main_proc_type();
                if self.hardware.ninstances(t) == 0 && t != ProcType::Cpu {
                    errors.push(ModelError::MissingProcType {
                        project: p.name.clone(),
                        proc_type: t.name(),
                    });
                }
                if !positive_finite(app.runtime_mean.secs()) {
                    errors.push(ModelError::OutOfRange {
                        what: "runtime_mean",
                        value: app.runtime_mean.secs(),
                        expected: "> 0 and finite",
                    });
                }
                if !positive_finite(app.latency_bound.secs()) {
                    errors.push(ModelError::OutOfRange {
                        what: "latency_bound",
                        value: app.latency_bound.secs(),
                        expected: "> 0 and finite",
                    });
                }
                if let Some(cp) = app.checkpoint_period {
                    if !positive_finite(cp.secs()) {
                        errors.push(ModelError::OutOfRange {
                            what: "checkpoint_period",
                            value: cp.secs(),
                            expected: "> 0 and finite when present",
                        });
                    }
                }
            }
        }
        for ij in &self.initial_queue {
            match self.projects.iter().find(|p| p.id == ij.project) {
                None => errors.push(ModelError::DuplicateId(format!(
                    "initial job references unknown project {}",
                    ij.project
                ))),
                Some(project) => {
                    if !project.apps.iter().any(|a| a.id == ij.app) {
                        errors.push(ModelError::DuplicateId(format!(
                            "initial job references unknown app {} of {}",
                            ij.app, ij.project
                        )));
                    }
                }
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(ScenarioErrors(errors))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::{AppClass, SimDuration};

    fn base() -> Scenario {
        crate::ScenarioBuilder::new("t", Hardware::cpu_only(1, 1e9))
            .project(ProjectSpec::new(0, "p", 100.0).with_app(AppClass::cpu(
                0,
                SimDuration::from_secs(100.0),
                SimDuration::from_secs(1000.0),
            )))
            .build_unchecked()
    }

    #[test]
    fn valid_scenario_passes() {
        assert!(base().validate().is_ok());
    }

    fn errors_of(s: &Scenario) -> Vec<ModelError> {
        s.validate().expect_err("expected validation errors").0
    }

    #[test]
    fn empty_projects_rejected() {
        let s = Scenario::new("t", Hardware::cpu_only(1, 1e9));
        assert_eq!(errors_of(&s), vec![ModelError::Empty("projects")]);
    }

    #[test]
    fn gpu_app_without_gpu_rejected() {
        let s = crate::ScenarioBuilder::new("t", Hardware::cpu_only(1, 1e9))
            .project(ProjectSpec::new(0, "p", 100.0).with_app(AppClass::gpu(
                0,
                ProcType::NvidiaGpu,
                SimDuration::from_secs(100.0),
                SimDuration::from_secs(1000.0),
            )))
            .build_unchecked();
        assert!(matches!(errors_of(&s)[..], [ModelError::MissingProcType { .. }]));
    }

    #[test]
    fn duplicate_project_ids_rejected() {
        let mut s = base();
        s.projects.push(s.projects[0].clone());
        assert!(errors_of(&s).iter().any(|e| matches!(e, ModelError::DuplicateId(_))));
    }

    #[test]
    fn nonpositive_or_nonfinite_share_rejected() {
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let mut s = base();
            s.projects[0].resource_share = bad;
            assert!(
                errors_of(&s)
                    .iter()
                    .any(|e| matches!(e, ModelError::OutOfRange { what: "resource_share", .. })),
                "share {bad} must be rejected"
            );
        }
    }

    #[test]
    fn nonfinite_durations_rejected() {
        let mut s = base();
        s.projects[0].apps[0].runtime_mean = SimDuration::from_secs(f64::NAN);
        s.projects[0].apps[0].latency_bound = SimDuration::from_secs(f64::INFINITY);
        let errs = errors_of(&s);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::OutOfRange { what: "runtime_mean", .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::OutOfRange { what: "latency_bound", .. })));
    }

    #[test]
    fn zero_checkpoint_period_rejected_but_none_allowed() {
        let mut s = base();
        s.projects[0].apps[0].checkpoint_period = Some(SimDuration::from_secs(0.0));
        assert!(errors_of(&s)
            .iter()
            .any(|e| matches!(e, ModelError::OutOfRange { what: "checkpoint_period", .. })));
        s.projects[0].apps[0].checkpoint_period = None;
        assert!(s.validate().is_ok(), "a never-checkpointing app is legal");
    }

    #[test]
    fn all_problems_reported_at_once() {
        // One pass must surface every defect, not stop at the first.
        let mut s = base();
        s.projects[0].resource_share = -1.0;
        s.projects[0].apps[0].runtime_mean = SimDuration::from_secs(0.0);
        s.projects.push(s.projects[0].clone());
        let errs = errors_of(&s);
        assert!(errs.len() >= 4, "expected share x2 + runtime x2 + duplicate, got {errs:?}");
        assert!(errs.iter().any(|e| matches!(e, ModelError::DuplicateId(_))));
        let rendered = bce_types::ScenarioErrors(errs).to_string();
        assert!(rendered.contains("problems:"), "{rendered}");
        assert!(rendered.contains("resource_share"), "{rendered}");
    }
}
