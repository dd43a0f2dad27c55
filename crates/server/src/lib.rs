//! # bce-server — simulated project servers
//!
//! §4.3c of the paper: "BOINC schedulers are simulated with a simplified
//! model." Each attached project gets a [`ProjectServer`] that answers
//! scheduler RPCs with jobs drawn from the project's application classes,
//! enforces the server-side deadline check (re-issue on miss), and models
//! maintenance downtime and no-work periods.

pub(crate) mod factory;
pub(crate) mod rpc;
pub(crate) mod server;

pub use rpc::{RpcOutcome, SchedulerReply, SchedulerRequest, TypeRequest};
pub use server::{DeadlineCheckPolicy, ProjectServer, ServerConfig, ServerStats};
