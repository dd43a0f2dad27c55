//! Validation errors for scenario construction.

use std::fmt;

/// A problem detected while validating a scenario or its components.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A project references a processor type the host does not have.
    MissingProcType { project: String, proc_type: &'static str },
    /// A numeric field is outside its valid range.
    OutOfRange { what: &'static str, value: f64, expected: &'static str },
    /// A required collection is empty.
    Empty(&'static str),
    /// Duplicate identifier.
    DuplicateId(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::MissingProcType { project, proc_type } => {
                write!(f, "project {project} has {proc_type} apps but the host has no {proc_type}")
            }
            ModelError::OutOfRange { what, value, expected } => {
                write!(f, "{what} = {value} out of range (expected {expected})")
            }
            ModelError::Empty(what) => write!(f, "{what} must not be empty"),
            ModelError::DuplicateId(id) => write!(f, "duplicate identifier {id}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Every problem a scenario validation found, not just the first one —
/// so a user fixing a hand-written state file sees the whole list in one
/// round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioErrors(pub Vec<ModelError>);

impl ScenarioErrors {}

impl fmt::Display for ScenarioErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.as_slice() {
            [] => write!(f, "no errors"),
            [one] => write!(f, "{one}"),
            many => {
                write!(f, "{} problems:", many.len())?;
                for e in many {
                    write!(f, "\n  - {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ScenarioErrors {}

impl From<ModelError> for ScenarioErrors {
    fn from(e: ModelError) -> Self {
        ScenarioErrors(vec![e])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ModelError::OutOfRange { what: "resource_share", value: -1.0, expected: ">= 0" };
        assert!(e.to_string().contains("resource_share"));
        let e = ModelError::Empty("projects");
        assert_eq!(e.to_string(), "projects must not be empty");
        let e = ModelError::DuplicateId("P1".into());
        assert!(e.to_string().contains("P1"));
        let e = ModelError::MissingProcType { project: "x".into(), proc_type: "NVIDIA GPU" };
        assert!(e.to_string().contains("NVIDIA GPU"));
    }
}
