//! # bce-client — the emulated BOINC client scheduling machinery
//!
//! The policy content of the paper (§3): round-robin simulation, the
//! job-scheduling variants JS-WRR / JS-LOCAL / JS-GLOBAL, the job-fetch
//! variants JF-ORIG / JF-HYSTERESIS, local-debt and global-REC
//! resource-share accounting, checkpoint-aware task execution, and the
//! file-transfer extension.
//!
//! In the original BCE these components *are* the BOINC client's source
//! code; here they are re-implemented faithfully from the paper's
//! specification.

pub(crate) mod accounting;
pub(crate) mod client;
pub(crate) mod fetch;
pub(crate) mod rr_sim;
pub(crate) mod sched;
pub(crate) mod task;
pub(crate) mod xfer;

#[cfg(test)]
mod plan_differential;

pub use accounting::{Accounting, AccountingKind, AccountingSnapshot};
pub use client::{
    AdvanceEvents, Client, ClientConfig, ClientProject, ClientScratch, Reschedule, RrStats,
};
pub use fetch::{FetchDecision, FetchPolicy, FetchRequest};
pub use rr_sim::{
    simulate as rr_simulate, simulate_into as rr_simulate_into, RrJob, RrOutcome, RrPlatform,
    RrScratch,
};
pub use sched::{
    plan_into, task_slots, DeadlineOrder, JobSchedPolicy, PlanInput, PlanScratch, RunPlan,
};
pub use task::Task;
pub use xfer::NetworkModel;
