//! One scenario resolver for every entry point.
//!
//! Each `bce` command used to grow its own ad-hoc scenario flag; this
//! module is the single way a scenario reference becomes a validated
//! [`Scenario`]. A reference is either `builtin:<name>` (or a bare
//! builtin name) or a path to a file, and files are content-sniffed:
//! a JSON scenario spec (see [`bce_core::spec`]) or a `client_state.xml`
//! state file. All loads share one typed error path ([`SourceError`])
//! and end at the same [`Scenario::validate`] gate.

use crate::import::scenario_from_state_file;
use crate::paper::{scenario1, scenario2, scenario3, scenario4};
use bce_core::spec::{ScenarioSpec, SpecError};
use bce_core::{FaultConfig, Scenario};
use bce_statefile::StateFileError;
use bce_types::{ScenarioErrors, SimDuration};
use std::path::{Path, PathBuf};

/// Names accepted by [`ScenarioSource::parse`] without a `builtin:`
/// prefix, in catalogue order.
pub const BUILTIN_NAMES: &[&str] = &["scenario1", "scenario2", "scenario3", "scenario4"];

/// The paper scenario registered under `name`, with its default
/// parameters (scenario1 uses the 1500 s latency bound of the Figure 3
/// midpoint).
pub fn builtin(name: &str) -> Option<Scenario> {
    match name {
        "scenario1" => Some(scenario1(SimDuration::from_secs(1500.0))),
        "scenario2" => Some(scenario2()),
        "scenario3" => Some(scenario3()),
        "scenario4" => Some(scenario4()),
        _ => None,
    }
}

/// A parsed scenario reference: where a scenario comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSource {
    /// A named builtin (`builtin:scenario2`, or bare `scenario2`).
    Builtin(String),
    /// A file on disk: JSON scenario spec or XML state file.
    File(PathBuf),
}

/// A resolved scenario plus the spec-level extras that live outside
/// [`Scenario`] itself.
#[derive(Debug, Clone)]
pub struct LoadedScenario {
    pub scenario: Scenario,
    /// Fault overlay from a spec's `faults` section, to be merged into the
    /// run's `EmulatorConfig` by the caller.
    pub faults: Option<FaultConfig>,
    /// Human-readable origin, for error messages and headers.
    pub origin: String,
}

/// Error from [`ScenarioSource::load`].
#[derive(Debug)]
pub enum SourceError {
    UnknownBuiltin {
        name: String,
    },
    Io {
        path: PathBuf,
        message: String,
    },
    /// A JSON spec failed to parse or validate.
    Spec {
        path: PathBuf,
        error: SpecError,
    },
    /// An XML state file failed to parse.
    StateFile {
        path: PathBuf,
        error: StateFileError,
    },
    /// A loaded scenario failed [`Scenario::validate`].
    Validation {
        origin: String,
        errors: ScenarioErrors,
    },
    /// The file starts with neither `{` (spec) nor `<` (state file).
    Unrecognized {
        path: PathBuf,
    },
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::UnknownBuiltin { name } => {
                write!(f, "unknown builtin scenario {name:?} (have: {})", BUILTIN_NAMES.join(", "))
            }
            SourceError::Io { path, message } => {
                write!(f, "cannot read {}: {message}", path.display())
            }
            SourceError::Spec { path, error } => write!(f, "{}: {error}", path.display()),
            SourceError::StateFile { path, error } => write!(f, "{}: {error}", path.display()),
            SourceError::Validation { origin, errors } => {
                write!(f, "invalid scenario {origin:?}: {errors}")
            }
            SourceError::Unrecognized { path } => write!(
                f,
                "{}: neither a JSON scenario spec (starts with '{{') nor a client_state.xml \
                 (starts with '<')",
                path.display()
            ),
        }
    }
}
impl std::error::Error for SourceError {}

impl ScenarioSource {
    /// Classify a reference. `builtin:<name>` and bare builtin names
    /// resolve to [`ScenarioSource::Builtin`]; anything else is a path.
    pub fn parse(raw: &str) -> ScenarioSource {
        if let Some(name) = raw.strip_prefix("builtin:") {
            ScenarioSource::Builtin(name.to_string())
        } else if BUILTIN_NAMES.contains(&raw) {
            ScenarioSource::Builtin(raw.to_string())
        } else {
            ScenarioSource::File(PathBuf::from(raw))
        }
    }

    /// The origin string used in headers and error messages.
    pub(crate) fn describe(&self) -> String {
        match self {
            ScenarioSource::Builtin(name) => format!("builtin:{name}"),
            ScenarioSource::File(path) => path.display().to_string(),
        }
    }

    /// Resolve to a validated scenario.
    pub fn load(&self) -> Result<LoadedScenario, SourceError> {
        match self {
            ScenarioSource::Builtin(name) => {
                let scenario = builtin(name)
                    .ok_or_else(|| SourceError::UnknownBuiltin { name: name.clone() })?;
                Ok(LoadedScenario { scenario, faults: None, origin: self.describe() })
            }
            ScenarioSource::File(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| SourceError::Io { path: path.clone(), message: e.to_string() })?;
                load_scenario_text(&text, path)
            }
        }
    }
}

/// Sniff and load scenario text that came from `path` (which is only used
/// for naming and errors — the daemon reuses this for POST bodies).
pub fn load_scenario_text(text: &str, path: &Path) -> Result<LoadedScenario, SourceError> {
    let origin = path.display().to_string();
    match text.trim_start().chars().next() {
        Some('{') => {
            let spec = ScenarioSpec::parse(text)
                .map_err(|error| SourceError::Spec { path: path.to_path_buf(), error })?;
            let (scenario, faults) = spec
                .build()
                .map_err(|error| SourceError::Spec { path: path.to_path_buf(), error })?;
            Ok(LoadedScenario { scenario, faults, origin })
        }
        Some('<') => {
            let scenario = scenario_from_state_file(text, &origin)
                .map_err(|error| SourceError::StateFile { path: path.to_path_buf(), error })?;
            scenario
                .validate()
                .map_err(|errors| SourceError::Validation { origin: origin.clone(), errors })?;
            Ok(LoadedScenario { scenario, faults: None, origin })
        }
        _ => Err(SourceError::Unrecognized { path: path.to_path_buf() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of one test's own, `bce-source-<test>-<pid>` in the
    /// temp directory, removed when the test ends (pass or panic).
    struct TmpDir(PathBuf);

    impl TmpDir {
        fn new(test: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("bce-source-{test}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TmpDir(dir)
        }

        fn file(&self, name: &str, contents: &str) -> PathBuf {
            let path = self.0.join(name);
            std::fs::write(&path, contents).unwrap();
            path
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn builtin_names_resolve_with_and_without_prefix() {
        for name in BUILTIN_NAMES {
            let bare = ScenarioSource::parse(name).load().unwrap();
            let prefixed = ScenarioSource::parse(&format!("builtin:{name}")).load().unwrap();
            assert_eq!(bare.scenario.name, prefixed.scenario.name);
            assert!(bare.faults.is_none());
        }
        assert!(matches!(
            ScenarioSource::parse("builtin:nope").load().unwrap_err(),
            SourceError::UnknownBuiltin { .. }
        ));
    }

    #[test]
    fn json_spec_files_load_with_fault_overlay() {
        let spec = ScenarioSpec::from_scenario(&scenario3())
            .with_faults(FaultConfig::with_failure_rate(0.1));
        let dir = TmpDir::new("fault-overlay");
        let path = dir.file("s3.json", &spec.to_canonical_json());
        let loaded = ScenarioSource::parse(path.to_str().unwrap()).load().unwrap();
        assert_eq!(loaded.scenario.name, "scenario3");
        assert_eq!(loaded.faults, Some(FaultConfig::with_failure_rate(0.1)));
        assert_eq!(loaded.scenario.projects, scenario3().projects);
    }

    #[test]
    fn xml_state_files_still_load() {
        let xml = crate::doc_from_scenario(&scenario2()).render();
        let dir = TmpDir::new("xml-state");
        let path = dir.file("s2.xml", &xml);
        let loaded = ScenarioSource::parse(path.to_str().unwrap()).load().unwrap();
        assert_eq!(loaded.scenario.projects, scenario2().projects);
        assert!(loaded.faults.is_none());
    }

    #[test]
    fn error_paths_are_typed() {
        assert!(matches!(
            ScenarioSource::parse("/nonexistent/никогда.json").load().unwrap_err(),
            SourceError::Io { .. }
        ));
        let dir = TmpDir::new("error-paths");
        let path = dir.file("garbage.txt", "plain text");
        assert!(matches!(
            ScenarioSource::parse(path.to_str().unwrap()).load().unwrap_err(),
            SourceError::Unrecognized { .. }
        ));
        let path = dir.file("bad.json", "{\"format\": \"bce-scenario\"");
        assert!(matches!(
            ScenarioSource::parse(path.to_str().unwrap()).load().unwrap_err(),
            SourceError::Spec { error: SpecError::Json(_), .. }
        ));
        let path = dir.file("badxml.xml", "<client_state");
        assert!(matches!(
            ScenarioSource::parse(path.to_str().unwrap()).load().unwrap_err(),
            SourceError::StateFile { .. }
        ));
    }

    #[test]
    fn invalid_spec_scenarios_fail_validation_at_load() {
        let mut s = scenario3();
        s.projects.clear();
        let dir = TmpDir::new("invalid-spec");
        let path = dir.file("empty.json", &ScenarioSpec::from_scenario(&s).to_canonical_json());
        let err = ScenarioSource::parse(path.to_str().unwrap()).load().unwrap_err();
        assert!(
            matches!(&err, SourceError::Spec { error: SpecError::Validation(_), .. }),
            "{err:?}"
        );
    }
}
