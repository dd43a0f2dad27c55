//! Fluent scenario construction.
//!
//! [`ScenarioBuilder`] is the preferred way to assemble a [`Scenario`]:
//! it reads as a description (host, projects, availability, preferences)
//! rather than a struct literal, applies every piece in one expression,
//! and validates on [`ScenarioBuilder::build`] so malformed scenarios
//! fail at construction instead of inside the emulator.
//!
//! ```
//! use bce_core::ScenarioBuilder;
//! use bce_types::{AppClass, Hardware, ProjectSpec, SimDuration};
//!
//! let scenario = ScenarioBuilder::new("doc", Hardware::cpu_only(2, 1e9))
//!     .seed(7)
//!     .project(ProjectSpec::new(0, "alpha", 100.0).with_app(AppClass::cpu(
//!         0,
//!         SimDuration::from_secs(600.0),
//!         SimDuration::from_hours(6.0),
//!     )))
//!     .build()
//!     .expect("valid scenario");
//! assert_eq!(scenario.seed, 7);
//! ```
//!
//! Every in-tree scenario is built here (JSON scenario files too:
//! [`ScenarioSpec::build`](crate::ScenarioSpec::build) lowers onto it).
//! `build_unchecked` exists for tests that construct deliberately-invalid
//! scenarios.

use crate::scenario::Scenario;
use bce_avail::{AvailSpec, AvailTrace};
use bce_client::NetworkModel;
use bce_types::{Hardware, InitialJob, Preferences, ProjectSpec, ScenarioErrors};

/// Fluent builder for [`Scenario`]. See the module docs for an example.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Start from the two things every scenario needs: a name and host
    /// hardware. Everything else has the same defaults as
    /// `Scenario::new`: seed 0, default preferences, always-on
    /// availability, instant network, no projects.
    pub fn new(name: impl Into<String>, hardware: Hardware) -> Self {
        ScenarioBuilder { scenario: Scenario::new(name, hardware) }
    }

    /// Root seed for every stochastic element of the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Set the user preferences (work buffer, scheduling period, usage
    /// limits).
    pub fn prefs(mut self, prefs: Preferences) -> Self {
        self.scenario.prefs = prefs;
        self
    }

    /// Attach a project.
    pub fn project(mut self, p: ProjectSpec) -> Self {
        self.scenario.projects.push(p);
        self
    }

    /// Attach several projects at once.
    pub fn projects(mut self, ps: impl IntoIterator<Item = ProjectSpec>) -> Self {
        self.scenario.projects.extend(ps);
        self
    }

    /// Set the availability model.
    pub fn avail(mut self, avail: AvailSpec) -> Self {
        self.scenario.avail = avail;
        self
    }

    /// Override host power with a recorded trace.
    pub(crate) fn host_trace(mut self, trace: AvailTrace) -> Self {
        self.scenario.host_trace = Some(trace);
        self
    }

    /// Model a finite network link (None/default = instant transfers).
    pub(crate) fn network(mut self, network: NetworkModel) -> Self {
        self.scenario.network = Some(network);
        self
    }

    /// Import several in-flight jobs.
    pub fn initial_jobs(mut self, jobs: impl IntoIterator<Item = InitialJob>) -> Self {
        self.scenario.initial_queue.extend(jobs);
        self
    }

    /// Validate and finish. Fails exactly when [`Scenario::validate`]
    /// would, reporting the full typed error list.
    pub fn build(self) -> Result<Scenario, ScenarioErrors> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }

    /// Finish without validating — for tests of invalid inputs and for
    /// incremental construction where projects arrive later.
    pub fn build_unchecked(self) -> Scenario {
        self.scenario
    }
}

impl From<Scenario> for ScenarioBuilder {
    /// Continue building from an existing scenario (e.g. a preset).
    fn from(scenario: Scenario) -> Self {
        ScenarioBuilder { scenario }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::{AppClass, SimDuration};

    fn app() -> AppClass {
        AppClass::cpu(0, SimDuration::from_secs(100.0), SimDuration::from_secs(1000.0))
    }

    #[test]
    fn build_validates() {
        let err = ScenarioBuilder::new("empty", Hardware::cpu_only(1, 1e9)).build();
        assert_eq!(err.unwrap_err().0, vec![bce_types::ModelError::Empty("projects")]);
        let ok = ScenarioBuilder::new("empty", Hardware::cpu_only(1, 1e9)).build_unchecked();
        assert!(ok.projects.is_empty());
    }

    #[test]
    fn bulk_setters_accumulate() {
        let s = ScenarioBuilder::new("multi", Hardware::cpu_only(4, 1e9))
            .projects(vec![
                ProjectSpec::new(0, "a", 50.0).with_app(app()),
                ProjectSpec::new(1, "b", 50.0).with_app(app()),
            ])
            .build()
            .unwrap();
        assert_eq!(s.projects.len(), 2);
    }

    #[test]
    fn from_scenario_continues_building() {
        let preset = ScenarioBuilder::new("preset", Hardware::cpu_only(1, 1e9))
            .project(ProjectSpec::new(0, "p", 100.0).with_app(app()))
            .build_unchecked();
        let tweaked = ScenarioBuilder::from(preset).seed(99).build().unwrap();
        assert_eq!(tweaked.seed, 99);
        assert_eq!(tweaked.name, "preset");
    }
}
