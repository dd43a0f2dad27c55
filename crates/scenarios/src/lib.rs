//! # bce-scenarios — the scenario library
//!
//! The paper's four evaluation scenarios (§5), the declarative JSON
//! scenario format (re-exported as [`spec`]), the unified
//! [`ScenarioSource`] resolver every CLI command loads through,
//! import/export through the client state-file format (§4.3's web-form
//! workflow), and the Monte-Carlo population sampler of §6.2.

pub(crate) mod import;
pub(crate) mod paper;
pub(crate) mod population;
pub(crate) mod source;

/// The versioned JSON scenario-spec codec (lives in `bce-core`, surfaced
/// here so scenario tooling has one import path).
pub use bce_core::spec;

pub use bce_core::spec::{ScenarioSpec, SpecError};
pub use import::{doc_from_scenario, scenario_from_state_file};
pub use paper::{scenario1, scenario2, scenario3, scenario4, scenario4_sized};
pub use population::{PopulationModel, PopulationSampler};
pub use source::{
    builtin, load_scenario_text, LoadedScenario, ScenarioSource, SourceError, BUILTIN_NAMES,
};
