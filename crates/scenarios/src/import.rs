//! Turning an ingested client state file into a runnable scenario — the
//! paper's web-form workflow (§4.3): an alpha tester pastes their
//! `client_state.xml`, BCE rebuilds their scenario, and the developer
//! reproduces the reported anomaly deterministically.

use bce_avail::{AvailSpec, OnOffSpec};
use bce_core::{Scenario, ScenarioBuilder};
use bce_statefile::{ClientStateDoc, StateFileError};

/// Convert a parsed state document into a scenario. Availability hints
/// (`on_frac`, `active_frac`, `cycle_mean`) become exponential on/off
/// processes with the recorded duty cycles.
pub(crate) fn scenario_from_doc(doc: &ClientStateDoc, name: impl Into<String>) -> Scenario {
    let avail = AvailSpec {
        host: OnOffSpec::duty_cycle(doc.on_frac, doc.cycle_mean),
        user_active: OnOffSpec::duty_cycle(doc.active_frac, doc.cycle_mean / 4.0),
        network: OnOffSpec::AlwaysOn,
    };
    ScenarioBuilder::new(name, doc.hardware.clone())
        .seed(doc.seed)
        .prefs(doc.prefs.clone())
        .avail(avail)
        .projects(doc.projects.iter().cloned())
        .initial_jobs(doc.initial_queue.iter().copied())
        .build_unchecked()
}

/// Parse a state file and build the scenario in one step.
pub fn scenario_from_state_file(xml: &str, name: &str) -> Result<Scenario, StateFileError> {
    let doc = ClientStateDoc::parse_str(xml)?;
    Ok(scenario_from_doc(&doc, name))
}

/// Export a scenario back to the state-file format (lossy: stochastic
/// availability is reduced to its duty cycle; traces and network models
/// are not represented).
pub fn doc_from_scenario(s: &Scenario) -> ClientStateDoc {
    let (on_frac, cycle_mean) = match s.avail.host {
        OnOffSpec::AlwaysOn => (1.0, bce_types::SimDuration::from_days(1.0)),
        OnOffSpec::AlwaysOff => (0.0, bce_types::SimDuration::from_days(1.0)),
        OnOffSpec::Exponential { up_mean, down_mean, .. } => {
            (up_mean.secs() / (up_mean.secs() + down_mean.secs()), up_mean + down_mean)
        }
    };
    let active_frac = match s.avail.user_active {
        OnOffSpec::AlwaysOn => 1.0,
        OnOffSpec::AlwaysOff => 0.0,
        OnOffSpec::Exponential { up_mean, down_mean, .. } => {
            up_mean.secs() / (up_mean.secs() + down_mean.secs())
        }
    };
    ClientStateDoc {
        hardware: s.hardware.clone(),
        prefs: s.prefs.clone(),
        projects: s.projects.clone(),
        initial_queue: s.initial_queue.clone(),
        on_frac,
        active_frac,
        cycle_mean,
        seed: s.seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::scenario2;

    #[test]
    fn scenario_roundtrips_through_state_file() {
        let s = scenario2();
        let doc = doc_from_scenario(&s);
        let xml = doc.render();
        let s2 = scenario_from_state_file(&xml, "reimported").unwrap();
        assert!(s2.validate().is_ok());
        assert_eq!(s2.hardware, s.hardware);
        assert_eq!(s2.projects, s.projects);
        assert_eq!(s2.seed, s.seed);
        assert_eq!(s2.prefs, s.prefs);
    }

    #[test]
    fn bad_xml_is_an_error() {
        assert!(scenario_from_state_file("<client_state", "x").is_err());
    }

    #[test]
    fn availability_hints_become_duty_cycles() {
        let mut doc = doc_from_scenario(&scenario2());
        doc.on_frac = 0.5;
        doc.cycle_mean = bce_types::SimDuration::from_hours(2.0);
        let s = scenario_from_doc(&doc, "avail");
        match s.avail.host {
            OnOffSpec::Exponential { up_mean, down_mean, .. } => {
                assert!((up_mean.secs() - 3600.0).abs() < 1e-6);
                assert!((down_mean.secs() - 3600.0).abs() < 1e-6);
            }
            other => panic!("expected exponential, got {other:?}"),
        }
    }
}
