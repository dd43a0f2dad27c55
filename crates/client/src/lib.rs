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

pub mod accounting;
pub mod client;
pub mod fetch;
pub mod rr_sim;
pub mod sched;
pub mod task;
pub mod xfer;

pub use accounting::{Accounting, AccountingKind, AccountingSnapshot};
pub use client::{
    AdvanceEvents, Client, ClientConfig, ClientProject, ClientScratch, ClientSnapshot, DirtClass,
    DirtyGroups, ProjectClientSnapshot, Reschedule, RrStats, XferRetrySnapshot,
};
pub use fetch::{would_fetch, Backoff, FetchDecision, FetchPolicy, FetchProject, FetchRequest};
pub use rr_sim::{
    simulate as rr_simulate, simulate_into as rr_simulate_into, RrJob, RrOutcome, RrPlatform,
    RrScratch,
};
pub use sched::{plan, plan_into, DeadlineOrder, JobSchedPolicy, PlanInput, PlanScratch, RunPlan};
pub use task::{Task, TaskSnapshot, TaskState};
pub use xfer::{NetworkModel, TransferQueue, Transfers};
