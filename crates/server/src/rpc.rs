//! Scheduler-RPC messages (§3.4).
//!
//! BOINC is pull-based: all communication is initiated by the client. A
//! scheduler RPC carries, per processor type, how many instance-seconds of
//! work and how many idle instances the client wants filled; the reply
//! carries jobs and a minimum delay before the next RPC.

use bce_types::{JobSpec, ProcMap, SimDuration};

/// Per-processor-type work request (§3.4): `instances(T)` and `secs(T)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TypeRequest {
    /// Requested instance-seconds of work for this type.
    pub secs: f64,
    /// Number of currently idle instances the client wants covered.
    pub instances: f64,
}

impl TypeRequest {
    pub(crate) fn is_empty(&self) -> bool {
        self.secs <= 0.0 && self.instances <= 0.0
    }
}

/// A work-request message.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedulerRequest {
    pub per_type: ProcMap<TypeRequest>,
}

impl SchedulerRequest {
    pub(crate) fn is_empty(&self) -> bool {
        self.per_type.iter().all(|(_, r)| r.is_empty())
    }
}

/// A scheduler reply.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerReply {
    pub jobs: Vec<JobSpec>,
    /// Don't contact this server again before this much time passes.
    pub delay: SimDuration,
}

/// Outcome of attempting an RPC.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcOutcome {
    Reply(SchedulerReply),
    /// Server unreachable (down for maintenance): a *scheduled* outage,
    /// escalating the client's ordinary per-project backoff.
    Down,
    /// The request was lost in transit (injected fault): a *transient*
    /// failure, taking the client's communication-retry backoff path
    /// rather than the scheduled-downtime one.
    TransientFailure,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::ProcType;

    #[test]
    fn emptiness() {
        let mut req = SchedulerRequest::default();
        assert!(req.is_empty());
        req.per_type[ProcType::Cpu].secs = 100.0;
        assert!(!req.is_empty());
        assert!(!req.per_type[ProcType::Cpu].is_empty());
        assert!(req.per_type[ProcType::NvidiaGpu].is_empty());
    }
}
