//! # bce-emboinc — server-side campaign simulation
//!
//! The paper's companion direction (§6.1): where BCE emulates one client
//! in detail, EmBOINC-style simulation studies the *server* — a project
//! dispatching replicated workunits to a statistical model of the
//! volunteer host population. This crate implements that view: host
//! populations with log-normal speeds and unreliability tails, replication
//! and quorum validation, deadline-timeout reissue, and host-selection
//! policies, with campaign latency and replica-waste as the outputs.

pub(crate) mod model;
pub(crate) mod sim;

pub use model::{HostModel, HostSelection, PopulationSpec, ReplicationPolicy, Workload};
pub use sim::{run_campaign, CampaignResult};
