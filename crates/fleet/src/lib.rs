//! # bce-fleet — cross-host resource-share enforcement
//!
//! Implements the §6.2 future-work proposal: "increase system throughput
//! by enforcing resource share across a volunteer's hosts, rather than for
//! each host separately." A volunteer's fleet of heterogeneous hosts is
//! described once; share-assignment strategies derive per-host share
//! vectors (possibly detaching projects from unsuitable hosts); each host
//! runs a full BCE emulation; fleet-level share violation and throughput
//! are compared between the per-host baseline and the cross-host
//! assignment.

pub(crate) mod alloc;
pub(crate) mod fleet;
pub(crate) mod study;

pub use alloc::{fair_alloc, Consumer, Device, FairAlloc};
pub use fleet::{assign_shares, host_scenarios, Fleet, FleetHost, ShareStrategy};
pub use study::{run_fleet, FleetResult};
