//! Strongly-typed identifiers for the entities in a scenario.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident($inner:ty), $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// Identifies an attached project within a scenario. Scenario builders
    /// assign `0..n`, but spec files and state files may use any distinct
    /// ids, in any order; code that needs a dense index uses the
    /// project's position in the scenario instead.
    ProjectId(u32),
    "P"
);
id_type!(
    /// Identifies a job (a BOINC "result") dispatched by a project server.
    /// Unique across all projects within an emulation run.
    JobId(u64),
    "J"
);
id_type!(
    /// Identifies an application class (a job template) within a project.
    AppId(u32),
    "A"
);

/// Identifies one processor instance on the host, e.g. "CPU 2" or
/// "NVIDIA GPU 0".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId {
    pub proc_type: crate::proc::ProcType,
    pub index: u32,
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.proc_type.short_name(), self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::ProcType;

    #[test]
    fn display_forms() {
        assert_eq!(ProjectId(3).to_string(), "P3");
        assert_eq!(JobId(42).to_string(), "J42");
        assert_eq!(AppId(1).to_string(), "A1");
        let inst = InstanceId { proc_type: ProcType::Cpu, index: 2 };
        assert_eq!(inst.to_string(), "CPU[2]");
    }

    #[test]
    fn ordering_and_index() {
        assert!(JobId(1) < JobId(2));
        let inst = |index| InstanceId { proc_type: ProcType::Cpu, index };
        assert!(inst(1) < inst(2));
        assert_eq!(ProjectId::from(9u32), ProjectId(9));
    }
}
