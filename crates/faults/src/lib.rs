//! Deterministic fault injection for the BOINC client emulator.
//!
//! The paper's emulation treats RPCs and file transfers as reliable, but the
//! platform it models is defined by unreliable volunteer hosts. This crate
//! supplies the three fault processes the real client is built to survive —
//! transient scheduler-RPC failures, mid-flight transfer failures, and host
//! crashes that discard progress since the last checkpoint — plus the
//! unified exponential [`RetryPolicy`] used by every retry path.
//!
//! Design invariants:
//!
//! * **Determinism** — every fault process draws from its own named
//!   `bce-sim` RNG stream derived from the scenario seed, so runs are
//!   bit-for-bit reproducible.
//! * **Zero-fault identity** — with [`FaultConfig::OFF`] no stream is ever
//!   created or sampled and no behaviour changes: metrics match an emulator
//!   without fault plumbing exactly.

pub(crate) mod disk;
mod plan;
mod retry;

pub use disk::{
    DiskFaultConfig, DiskFaultPlan, DiskFaultStats, ReadFault, RenameFault, WriteFault,
};
pub use plan::{CrashProcess, FaultConfig, RpcFaultInjector, TransferFaultModel};
pub use retry::{RetryPolicy, RetryState, RetryVerdict};
