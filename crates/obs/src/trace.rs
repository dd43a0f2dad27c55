//! Typed trace events and the [`Tracer`] emission API.
//!
//! A [`TraceEvent`] records one *decision* the emulated client (or the
//! fault layer) made — which tasks were started or preempted, what an RPC
//! returned, why work fetch stayed idle. Events are plain data: no string
//! is formatted at emission time. Rendering happens only at export time
//! ([`crate::to_jsonl`]) or when a human reads the decision log (the
//! `Display` impl of [`TraceRecord`]). The trace is the emulator's only
//! record of its decisions, the paper's "message log" (§4.3).
//!
//! The emission API is designed so that a disabled tracer costs nothing on
//! the hot path:
//!
//! * [`Tracer::emit`] takes a *closure* that builds the event. When the
//!   sink is disabled the closure is never called, so the event — and any
//!   `Vec` it would carry — is never constructed.
//! * [`TraceSink::Noop`] is a fieldless variant; `is_enabled()` is a
//!   discriminant test the optimizer folds away, and the zero-allocation
//!   guarantee is enforced by a counting-allocator test in the `client`
//!   crate's style (see `tests/noop_zero_alloc.rs`).
//!
//! Determinism contract: tracing is *observation only*. An enabled tracer
//! records what happened but must never influence what happens — the
//! emulator consults trace state only to decide whether to build an event.

use bce_types::{JobId, ProjectId, SimTime};
use std::fmt;

/// One typed decision record. Field names double as the JSONL schema (see
/// [`crate::to_jsonl`]); variants carry ids and numbers, never strings.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The job scheduler changed the running set.
    Scheduled { started: Vec<JobId>, preempted: Vec<JobId> },
    /// A job completed and its deadline outcome is known.
    JobFinished { job: JobId, project: ProjectId, met_deadline: bool },
    /// A job failed permanently (transfer retry budget exhausted).
    JobErrored { job: JobId, project: ProjectId },
    /// A scheduler RPC round-trip succeeded.
    RpcReply { project: ProjectId, cpu_secs: f64, gpu_secs: f64, jobs: u64 },
    /// A scheduler RPC hit a scheduled server outage.
    RpcDown { project: ProjectId },
    /// A scheduler RPC was lost to an injected transient fault.
    RpcLost { project: ProjectId },
    /// Work fetch saw a shortfall but every candidate project was backed
    /// off; `until` is when the earliest project becomes eligible again.
    FetchDeferred { project: ProjectId, until: SimTime },
    /// Host availability changed.
    AvailChanged { can_compute: bool, can_gpu: bool, net_up: bool },
    /// A file transfer attempt failed (`upload=false` means download).
    TransferFailed { job: JobId, upload: bool },
    /// An injected host crash rolled back running work.
    Crashed { tasks_rolled_back: u64, exec_secs_lost: f64, transfers_restarted: u64 },
    /// All work lost to the last crash has been re-computed.
    Recovered { secs: f64 },
}

impl TraceEvent {
    /// Stable machine name of the variant; the `"kind"` key in JSONL.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Scheduled { .. } => "scheduled",
            TraceEvent::JobFinished { .. } => "job_finished",
            TraceEvent::JobErrored { .. } => "job_errored",
            TraceEvent::RpcReply { .. } => "rpc_reply",
            TraceEvent::RpcDown { .. } => "rpc_down",
            TraceEvent::RpcLost { .. } => "rpc_lost",
            TraceEvent::FetchDeferred { .. } => "fetch_deferred",
            TraceEvent::AvailChanged { .. } => "avail_changed",
            TraceEvent::TransferFailed { .. } => "transfer_failed",
            TraceEvent::Crashed { .. } => "crashed",
            TraceEvent::Recovered { .. } => "recovered",
        }
    }

    /// Which subsystem emitted the event; the `"component"` key in JSONL.
    pub fn component(&self) -> &'static str {
        match self {
            TraceEvent::Scheduled { .. } => "sched",
            TraceEvent::JobFinished { .. } | TraceEvent::JobErrored { .. } => "task",
            TraceEvent::RpcReply { .. }
            | TraceEvent::RpcDown { .. }
            | TraceEvent::RpcLost { .. }
            | TraceEvent::FetchDeferred { .. } => "fetch",
            TraceEvent::AvailChanged { .. } => "avail",
            TraceEvent::TransferFailed { .. } => "xfer",
            TraceEvent::Crashed { .. } | TraceEvent::Recovered { .. } => "fault",
        }
    }

    /// All kinds the schema defines, for CLI filter validation.
    pub const KINDS: &'static [&'static str] = &[
        "scheduled",
        "job_finished",
        "job_errored",
        "rpc_reply",
        "rpc_down",
        "rpc_lost",
        "fetch_deferred",
        "avail_changed",
        "transfer_failed",
        "crashed",
        "recovered",
    ];

    /// All components the schema defines, for CLI filter validation.
    pub const COMPONENTS: &'static [&'static str] =
        &["sched", "task", "fetch", "avail", "xfer", "fault"];
}

/// A timestamped, sequence-numbered event as stored in a buffer or a
/// JSONL file. `seq` is assigned by the recording sink and is strictly
/// increasing within a run, so ties at equal sim time keep emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    pub seq: u64,
    pub t: SimTime,
    pub event: TraceEvent,
}

/// The one human rendering of a decision, used by `bce trace` and the
/// examples: seq, sim time, component and kind in fixed-width columns,
/// then the event's fields in words.
impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = &self.event;
        write!(
            f,
            "[{:>7} t={:>10.0}s {:>5}] {:>15}  ",
            self.seq,
            self.t.secs(),
            e.component(),
            e.kind()
        )?;
        match e {
            TraceEvent::Scheduled { started, preempted } => {
                f.write_str("start ")?;
                write_job_list(f, started)?;
                f.write_str(", preempt ")?;
                write_job_list(f, preempted)
            }
            TraceEvent::JobFinished { job, project, met_deadline } => {
                let ok = if *met_deadline { "met deadline" } else { "MISSED deadline" };
                write!(f, "{job} of {project} finished ({ok})")
            }
            TraceEvent::JobErrored { job, project } => {
                write!(f, "{job} of {project} errored: transfer retries exhausted")
            }
            TraceEvent::RpcReply { project, cpu_secs, gpu_secs, jobs } => {
                write!(f, "RPC to {project}: asked {cpu_secs:.0}s CPU / {gpu_secs:.0}s GPU, got {jobs} jobs")
            }
            TraceEvent::RpcDown { project } => write!(f, "RPC to {project}: server down"),
            TraceEvent::RpcLost { project } => {
                write!(f, "RPC to {project}: lost in transit (transient)")
            }
            TraceEvent::FetchDeferred { project, until } => write!(
                f,
                "fetch deferred: all projects backed off, {project} eligible at t={:.0}s",
                until.secs()
            ),
            TraceEvent::AvailChanged { can_compute, can_gpu, net_up } => {
                write!(f, "availability: compute={can_compute} gpu={can_gpu} net={net_up}")
            }
            TraceEvent::TransferFailed { job, upload } => {
                let dir = if *upload { "upload" } else { "download" };
                write!(f, "{dir} for {job} failed")
            }
            TraceEvent::Crashed { tasks_rolled_back, exec_secs_lost, transfers_restarted } => {
                write!(
                    f,
                    "host crash: {tasks_rolled_back} task(s) rolled back ({exec_secs_lost:.0} exec-s lost), {transfers_restarted} transfer(s) restarted"
                )
            }
            TraceEvent::Recovered { secs } => {
                write!(f, "recovered crash-lost work after {secs:.0}s")
            }
        }
    }
}

/// `[J0, J1]`: job ids as every other kind prints them.
fn write_job_list(f: &mut fmt::Formatter<'_>, jobs: &[JobId]) -> fmt::Result {
    f.write_str("[")?;
    for (i, job) in jobs.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{job}")?;
    }
    f.write_str("]")
}

/// Emission side of the API. Implemented by [`TraceSink`]; generic code
/// (and tests) can supply their own recorders.
pub trait Tracer {
    /// Cheap gate; callers may use it to skip *computing inputs* to an
    /// event, not just the event itself.
    fn is_enabled(&self) -> bool;

    /// Record an already-built event. Only called when enabled.
    fn record(&mut self, t: SimTime, event: TraceEvent);

    /// Emit an event lazily: `build` runs only when the sink is enabled,
    /// so a disabled sink never constructs the event.
    #[inline(always)]
    fn emit(&mut self, t: SimTime, build: impl FnOnce() -> TraceEvent)
    where
        Self: Sized,
    {
        if self.is_enabled() {
            self.record(t, build());
        }
    }
}

/// Bounded in-memory recorder. When full, further events are counted in
/// `dropped` rather than grown into — population runs must not let a noisy
/// host balloon memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBuffer {
    records: Vec<TraceRecord>,
    capacity: usize,
    dropped: u64,
    next_seq: u64,
}

impl TraceBuffer {
    /// A buffer that keeps at most `capacity` records, recycling a
    /// previously drained record vector (see
    /// [`TraceBuffer::into_records`]; pass `Vec::new()` for a fresh
    /// buffer). The buffer is cleared and `dropped`/`seq` restart at
    /// zero — reuse only recycles the allocation, never prior state.
    pub fn with_buffer(capacity: usize, mut records: Vec<TraceRecord>) -> Self {
        records.clear();
        TraceBuffer { records, capacity, dropped: 0, next_seq: 0 }
    }

    /// Recorded events in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events offered to the buffer (recorded + dropped).
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Surrender the backing vector for reuse. The caller owns the
    /// records; handing the vector back through
    /// [`TraceBuffer::with_buffer`] (which clears it) recycles the
    /// allocation for the next run.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl Tracer for TraceBuffer {
    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&mut self, t: SimTime, event: TraceEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.records.len() < self.capacity {
            self.records.push(TraceRecord { seq, t, event });
        } else {
            self.dropped += 1;
        }
    }
}

/// The sink the emulator threads through a run: either off (the default,
/// provably allocation-free) or an owned bounded buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum TraceSink {
    #[default]
    Noop,
    Buffer(TraceBuffer),
}

impl TraceSink {
    /// Extract the buffer, leaving `Noop` behind. Empty buffer if the
    /// sink never recorded.
    pub fn take_buffer(&mut self) -> TraceBuffer {
        match std::mem::take(self) {
            TraceSink::Noop => TraceBuffer::default(),
            TraceSink::Buffer(b) => b,
        }
    }
}

impl Tracer for TraceSink {
    #[inline(always)]
    fn is_enabled(&self) -> bool {
        matches!(self, TraceSink::Buffer(_))
    }

    #[inline]
    fn record(&mut self, t: SimTime, event: TraceEvent) {
        if let TraceSink::Buffer(b) = self {
            b.record(t, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::JobFinished { job: JobId(i), project: ProjectId(0), met_deadline: true }
    }

    #[test]
    fn buffer_records_in_order_with_seq() {
        let mut b = TraceBuffer::with_buffer(8, Vec::new());
        for i in 0..3 {
            b.emit(SimTime::from_secs(i as f64), || ev(i));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.records()[2].seq, 2);
        assert_eq!(b.records()[2].event, ev(2));
        assert_eq!(b.dropped(), 0);
        assert_eq!(b.emitted(), 3);
    }

    #[test]
    fn buffer_bounds_and_counts_drops() {
        let mut b = TraceBuffer::with_buffer(2, Vec::new());
        for i in 0..5 {
            b.record(SimTime::from_secs(0.0), ev(i));
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped(), 3);
        assert_eq!(b.emitted(), 5);
    }

    #[test]
    fn with_buffer_resets_state_and_reuses_allocation() {
        let mut b = TraceBuffer::with_buffer(4, Vec::new());
        for i in 0..9 {
            b.record(SimTime::from_secs(0.0), ev(i));
        }
        assert!(b.dropped() > 0);
        let recycled = b.into_records();
        let cap = recycled.capacity();
        let b2 = TraceBuffer::with_buffer(4, recycled);
        assert_eq!(b2.len(), 0);
        assert_eq!(b2.dropped(), 0);
        assert_eq!(b2.emitted(), 0);
        assert_eq!(b2.records.capacity(), cap);
    }

    #[test]
    fn noop_sink_never_builds_the_event() {
        let mut sink = TraceSink::Noop;
        let mut built = false;
        sink.emit(SimTime::from_secs(1.0), || {
            built = true;
            ev(0)
        });
        assert!(!built);
        assert!(sink.take_buffer().is_empty());
    }

    #[test]
    fn kind_and_component_cover_every_variant() {
        let samples = vec![
            TraceEvent::Scheduled { started: vec![], preempted: vec![] },
            ev(0),
            TraceEvent::JobErrored { job: JobId(1), project: ProjectId(0) },
            TraceEvent::RpcReply { project: ProjectId(0), cpu_secs: 1.0, gpu_secs: 0.0, jobs: 2 },
            TraceEvent::RpcDown { project: ProjectId(0) },
            TraceEvent::RpcLost { project: ProjectId(0) },
            TraceEvent::FetchDeferred { project: ProjectId(0), until: SimTime::from_secs(5.0) },
            TraceEvent::AvailChanged { can_compute: true, can_gpu: false, net_up: true },
            TraceEvent::TransferFailed { job: JobId(1), upload: true },
            TraceEvent::Crashed {
                tasks_rolled_back: 1,
                exec_secs_lost: 2.0,
                transfers_restarted: 0,
            },
            TraceEvent::Recovered { secs: 10.0 },
        ];
        assert_eq!(samples.len(), TraceEvent::KINDS.len());
        for s in &samples {
            assert!(TraceEvent::KINDS.contains(&s.kind()), "{}", s.kind());
            assert!(TraceEvent::COMPONENTS.contains(&s.component()), "{}", s.component());
        }
    }

    #[test]
    fn display_renders_one_line_per_kind() {
        let p = ProjectId(1);
        let cases = [
            (
                TraceEvent::Scheduled {
                    started: vec![JobId(3), JobId(1 << 40)],
                    preempted: vec![JobId(4)],
                },
                "[      0 t=      3600s sched]       scheduled  start [J3, J1099511627776], preempt [J4]",
            ),
            (
                TraceEvent::JobFinished { job: JobId(3), project: p, met_deadline: false },
                "[      0 t=      3600s  task]    job_finished  J3 of P1 finished (MISSED deadline)",
            ),
            (
                TraceEvent::JobErrored { job: JobId(3), project: p },
                "[      0 t=      3600s  task]     job_errored  J3 of P1 errored: transfer retries exhausted",
            ),
            (
                TraceEvent::RpcReply { project: p, cpu_secs: 8640.4, gpu_secs: 0.0, jobs: 3 },
                "[      0 t=      3600s fetch]       rpc_reply  RPC to P1: asked 8640s CPU / 0s GPU, got 3 jobs",
            ),
            (
                TraceEvent::RpcDown { project: p },
                "[      0 t=      3600s fetch]        rpc_down  RPC to P1: server down",
            ),
            (
                TraceEvent::RpcLost { project: p },
                "[      0 t=      3600s fetch]        rpc_lost  RPC to P1: lost in transit (transient)",
            ),
            (
                TraceEvent::FetchDeferred { project: p, until: SimTime::from_secs(7200.0) },
                "[      0 t=      3600s fetch]  fetch_deferred  fetch deferred: all projects backed off, P1 eligible at t=7200s",
            ),
            (
                TraceEvent::AvailChanged { can_compute: true, can_gpu: false, net_up: true },
                "[      0 t=      3600s avail]   avail_changed  availability: compute=true gpu=false net=true",
            ),
            (
                TraceEvent::TransferFailed { job: JobId(3), upload: false },
                "[      0 t=      3600s  xfer] transfer_failed  download for J3 failed",
            ),
            (
                TraceEvent::Crashed {
                    tasks_rolled_back: 2,
                    exec_secs_lost: 99.6,
                    transfers_restarted: 1,
                },
                "[      0 t=      3600s fault]         crashed  host crash: 2 task(s) rolled back (100 exec-s lost), 1 transfer(s) restarted",
            ),
            (
                TraceEvent::Recovered { secs: 12.0 },
                "[      0 t=      3600s fault]       recovered  recovered crash-lost work after 12s",
            ),
        ];
        assert_eq!(cases.len(), TraceEvent::KINDS.len());
        for (event, line) in cases {
            let r = TraceRecord { seq: 0, t: SimTime::from_secs(3600.0), event };
            assert_eq!(r.to_string(), line);
        }
    }
}
