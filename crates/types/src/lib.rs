//! # bce-types — domain model for the BOINC scheduling-policy emulator
//!
//! The shared vocabulary of the workspace: simulated time, processor types
//! and host hardware (§2.2 of the paper), jobs and their resource usage
//! (§2.3), projects, application classes and resource shares (§2.1), user
//! preferences, and the ideal cross-device share allocation of Figure 1.
//!
//! This crate is dependency-free and purely data + math; all behaviour
//! (event loops, policies, servers) lives in the crates that build on it.

pub(crate) mod error;
pub(crate) mod ids;
pub(crate) mod job;
pub(crate) mod prefs;
pub(crate) mod proc;
pub(crate) mod project;
pub(crate) mod share;
pub(crate) mod time;

pub use error::{ModelError, ScenarioErrors};
pub use ids::{AppId, InstanceId, JobId, ProjectId};
pub use job::{EstErrorModel, InitialJob, JobSpec, ResourceUsage};
pub use prefs::{DailyWindow, Preferences};
pub use proc::{Hardware, ProcMap, ProcType};
pub use project::{AppClass, ProjectSpec, ServerUptime, SporadicSupply, WorkSupply};
pub use share::{ideal_allocation, IdealAllocation, ShareDemand, UsableTypes};
pub use time::{SimDuration, SimTime, DAY};
