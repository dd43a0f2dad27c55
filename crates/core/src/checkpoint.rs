//! Crash-safe run checkpoints: the complete deterministic state of an
//! emulation between two event-loop iterations, and a versioned XML
//! serialization of it.
//!
//! A [`CheckpointState`] captures everything [`crate::Emulator`] mutates
//! during a run — the pending event queue with its tie-break sequence,
//! the simulation clock, every RNG stream position (availability
//! processes, server job factories and supply processes, fault plans),
//! the client's tasks/transfers/debts/backoffs including the RR-sim
//! cache, the metric accumulators, and the reproducible observation
//! state (the typed decision trace, timeline segments). Restoring it and
//! running to the end produces a result whose
//! [`crate::EmulationResult::bit_fingerprint`] equals the uninterrupted
//! run's, and whose trace holds the same records, drop count and next
//! sequence number — that identity is the contract this module exists
//! to keep, and the round-trip property tests enforce it.
//!
//! **What is deliberately *not* captured:** wall-clock instruments. The
//! profiler and the exported metrics snapshot are observation-only and
//! excluded from the fingerprint, so a resumed run may report different
//! span timings while remaining bit-identical where it matters.
//!
//! The document format reuses `bce-statefile`'s XML machinery through a
//! `<bce_checkpoint version="5">` envelope; floats are stored as the hex
//! of their IEEE-754 bit pattern so serialization is exact. Trace records
//! are stored as their JSONL lines (`bce_obs::export`), whose integers
//! and shortest-round-trip floats are exact too. Malformed, truncated or
//! hostile input yields a [`CheckpointError`], never a panic.
//!
//! This module is a pure codec: it neither reads nor writes files.
//! Durable storage — CRC framing, fsync, atomic rename, generation
//! rotation — is [`bce_statefile::CheckpointStore`]'s alone.

use crate::emulator::Event;
use crate::metrics::MetricsAccumSnapshot;
use bce_avail::HostRunState;
use bce_client::{
    AccountingSnapshot, ClientSnapshot, ProjectClientSnapshot, RrOutcome, RrStats, TaskSnapshot,
    TaskState, XferRetrySnapshot,
};
use bce_faults::RetryState;
use bce_obs::{parse_record, record_to_json, TraceBuffer};
use bce_server::{ServerSnapshot, ServerStats};
use bce_sim::{Occupancy, Rng, Segment};
use bce_statefile::{
    attr_f64_bits, attr_parse, envelope, fmt_f64_bits, fmt_u64_hex, open_envelope, parse_u64_hex,
    req_attr, req_child, CodecError, IoOp, XmlNode,
};
use bce_types::{
    AppId, InstanceId, JobId, JobSpec, ProcMap, ProcType, ProjectId, ResourceUsage, SimDuration,
    SimTime,
};

/// Current version of the checkpoint document format. Bumped to 2 when
/// the RR dirty-tracking state (`rr_dirty`, `frozen_until`, the `frozen`
/// counter) and the availability coalescing counters joined the capture;
/// v1 documents lack them and cannot resume bit-identically. Bumped to 3
/// when the typed trace (`<trace>`) replaced the message log (`<log>`);
/// a v2 document cannot restore a traced run's decision record. Bumped to
/// 4 when the retired-task history, the missed-deadline id list and the
/// client's RPC count left the capture: per-run state is bounded by the
/// live queue, and a v3 document's layout is not this one. Bumped to 5
/// when the RR dirt became one structural-change flag (`<rr_dirty
/// dirty=..>`, no `<group>` list) and tasks lost `completed_at`: a v4
/// document's dirt class and group list have no reading here.
const VERSION: u32 = 5;
/// Root element name of the checkpoint document.
const ROOT: &str = "bce_checkpoint";

/// Error restoring or decoding a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// The document failed to decode (malformed XML, wrong root, newer
    /// version, missing or malformed field).
    Codec(CodecError),
    /// A filesystem operation failed. Carries which operation and which
    /// path, so a daemon log line is actionable without strace.
    Io { op: IoOp, path: std::path::PathBuf, source: std::io::Error },
    /// The file's checksummed frame failed validation — truncation, bit
    /// rot, or a torn rename. Distinct from [`CheckpointError::Codec`]:
    /// the *storage* is damaged, not the document schema.
    Corrupt { path: std::path::PathBuf, reason: String },
    /// The checkpoint was taken from a different scenario (name or seed
    /// differ); resuming it here could not be bit-identical to anything.
    ScenarioMismatch { expected: String, found: String },
    /// The emulator configuration is incompatible with the checkpoint
    /// (e.g. fault injection on in one and off in the other).
    ConfigMismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Codec(e) => write!(f, "checkpoint decode error: {e}"),
            CheckpointError::Io { op, path, source } => {
                write!(f, "checkpoint i/o error: {op} {}: {source}", path.display())
            }
            CheckpointError::Corrupt { path, reason } => {
                write!(f, "checkpoint corrupt: {}: {reason}", path.display())
            }
            CheckpointError::ScenarioMismatch { expected, found } => {
                write!(f, "checkpoint is for scenario {found}, emulator runs {expected}")
            }
            CheckpointError::ConfigMismatch(what) => {
                write!(f, "checkpoint incompatible with emulator config: {what}")
            }
        }
    }
}
impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

/// The complete deterministic state of one emulation run at an event
/// boundary. Opaque: produced by [`crate::Emulator::checkpoint_at`],
/// consumed by [`crate::Emulator::resume`], and round-tripped through
/// [`CheckpointState::to_xml_string`] / [`CheckpointState::from_xml_str`]
/// for crash-safe persistence.
#[derive(Debug, Clone)]
pub struct CheckpointState {
    pub(crate) scenario_name: String,
    pub(crate) seed: u64,
    pub(crate) duration: SimDuration,
    pub(crate) now: SimTime,
    pub(crate) generation: u64,
    pub(crate) events_processed: u64,
    pub(crate) peak_jobs: u64,
    pub(crate) flaps_coalesced: u64,
    pub(crate) avail_resched_skipped: u64,
    /// The run had already reached its end when captured; resuming only
    /// finalizes.
    pub(crate) finished: bool,
    pub(crate) run_state: HostRunState,
    pub(crate) queue: Vec<(SimTime, u64, Event)>,
    pub(crate) queue_next_seq: u64,
    /// Host, user, network availability sources in [`bce_avail::Governor`]
    /// order; `None` = trace-driven source (immutable, nothing to save).
    pub(crate) avail: [Option<(Rng, bool, SimTime)>; 3],
    pub(crate) servers: Vec<(ProjectId, ServerSnapshot)>,
    pub(crate) client: ClientSnapshot,
    pub(crate) rpc_fault_streams: Option<Vec<(ProjectId, Rng)>>,
    pub(crate) crash_rng: Option<Rng>,
    pub(crate) recoveries: Vec<(SimTime, Vec<(JobId, f64)>)>,
    pub(crate) metrics: MetricsAccumSnapshot,
    /// The recorded trace; `None` when tracing is off.
    pub(crate) trace: Option<TraceBuffer>,
    pub(crate) timeline: Option<Vec<(InstanceId, Vec<Segment>)>>,
    pub(crate) assignment: Vec<(JobId, Vec<InstanceId>)>,
}

impl CheckpointState {
    /// Simulation time of the captured event boundary.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Name of the scenario the checkpoint was taken from.
    pub fn scenario_name(&self) -> &str {
        &self.scenario_name
    }

    /// Seed of the scenario the checkpoint was taken from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` when the captured run had already completed; resuming such
    /// a checkpoint performs no further simulation.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Whether the captured client had a structural change pending since
    /// its last full RR simulation (tests use this to witness that a
    /// checkpoint was taken where the next query may be a frozen hit).
    pub fn rr_dirty(&self) -> bool {
        self.client.rr_dirty
    }

    /// End of the captured client's frozen-progress window.
    pub fn rr_frozen_until(&self) -> SimTime {
        self.client.rr_frozen_until
    }

    /// Serialize to the versioned XML document format.
    pub fn to_xml_string(&self) -> String {
        self.to_xml().render()
    }

    /// Parse a serialized checkpoint. Malformed input of any kind —
    /// truncation, wrong document type, missing fields, bad numbers —
    /// returns an error and never panics.
    pub fn from_xml_str(src: &str) -> Result<Self, CheckpointError> {
        let (v, root) = open_envelope(src, ROOT, VERSION)?;
        if v < VERSION {
            // Every field is required for a faithful resume; v1 documents
            // lack the RR dirty-tracking state, v2 documents carry a
            // message log instead of the trace, v3 documents carry the
            // run's unbounded retired-task history and v4 documents carry
            // a dirt class with a group list, so they are rejected
            // outright rather than resumed with silently reset state.
            let missing = match v {
                0 | 1 => "RR dirty-state tracking",
                2 => "the typed trace",
                3 => "the bounded run state",
                _ => "the one-flag RR dirt",
            };
            return Err(bce_statefile::CodecError::BadVersion(format!(
                "v{v} checkpoint predates {missing} (need v{VERSION})"
            ))
            .into());
        }
        Ok(Self::from_xml(&root)?)
    }

    fn to_xml(&self) -> XmlNode {
        let mut root = envelope(ROOT, VERSION);

        let mut scenario = XmlNode::new("scenario");
        scenario.attrs.push(("name".into(), self.scenario_name.clone()));
        scenario.attrs.push(("seed".into(), self.seed.to_string()));
        root.push(scenario);

        let mut clock = XmlNode::new("clock");
        push_time(&mut clock, "now", self.now);
        clock.attrs.push(("duration".into(), fmt_f64_bits(self.duration.secs())));
        clock.attrs.push(("generation".into(), self.generation.to_string()));
        clock.attrs.push(("events_processed".into(), self.events_processed.to_string()));
        clock.attrs.push(("peak_jobs".into(), self.peak_jobs.to_string()));
        clock.attrs.push(("flaps_coalesced".into(), self.flaps_coalesced.to_string()));
        clock.attrs.push(("avail_resched_skipped".into(), self.avail_resched_skipped.to_string()));
        push_bool(&mut clock, "finished", self.finished);
        root.push(clock);

        root.push(run_state_node("run_state", &self.run_state));

        let mut queue = XmlNode::new("queue");
        queue.attrs.push(("next_seq".into(), self.queue_next_seq.to_string()));
        for (time, seq, event) in &self.queue {
            let mut ev = XmlNode::new("ev");
            push_time(&mut ev, "time", *time);
            ev.attrs.push(("seq".into(), seq.to_string()));
            let (kind, generation) = match event {
                Event::SchedPoint => ("sched", None),
                Event::Client { generation } => ("client", Some(*generation)),
                Event::AvailChange => ("avail", None),
                Event::FetchRetry { generation } => ("fetch", Some(*generation)),
                Event::Crash => ("crash", None),
            };
            ev.attrs.push(("kind".into(), kind.into()));
            if let Some(g) = generation {
                ev.attrs.push(("gen".into(), g.to_string()));
            }
            queue.push(ev);
        }
        root.push(queue);

        let mut avail = XmlNode::new("avail");
        for state in &self.avail {
            avail.push(match state {
                Some((rng, on, next)) => {
                    let mut src = onoff_node("src", rng, *on, *next);
                    src.attrs.insert(0, ("kind".into(), "process".into()));
                    src
                }
                None => {
                    let mut src = XmlNode::new("src");
                    src.attrs.push(("kind".into(), "trace".into()));
                    src
                }
            });
        }
        root.push(avail);

        let mut servers = XmlNode::new("servers");
        for (id, snap) in &self.servers {
            servers.push(server_node(*id, snap));
        }
        root.push(servers);

        root.push(client_node(&self.client));

        if let Some(streams) = &self.rpc_fault_streams {
            let mut rpc = XmlNode::new("rpc_faults");
            for (id, rng) in streams {
                let mut s = XmlNode::new("stream");
                s.attrs.push(("id".into(), id.0.to_string()));
                s.attrs.push(("rng".into(), rng_to_hex(rng)));
                rpc.push(s);
            }
            root.push(rpc);
        }
        if let Some(rng) = &self.crash_rng {
            let mut crash = XmlNode::new("crash");
            crash.attrs.push(("rng".into(), rng_to_hex(rng)));
            root.push(crash);
        }

        let mut recoveries = XmlNode::new("recoveries");
        for (start, targets) in &self.recoveries {
            let mut r = XmlNode::new("recovery");
            push_time(&mut r, "start", *start);
            for (job, progress) in targets {
                let mut t = XmlNode::new("target");
                t.attrs.push(("job".into(), job.0.to_string()));
                t.attrs.push(("progress".into(), fmt_f64_bits(*progress)));
                r.push(t);
            }
            recoveries.push(r);
        }
        root.push(recoveries);

        root.push(metrics_node(&self.metrics));

        if let Some(buf) = &self.trace {
            let mut trace = XmlNode::new("trace");
            trace.attrs.push(("capacity".into(), buf.capacity().to_string()));
            trace.attrs.push(("dropped".into(), buf.dropped().to_string()));
            trace.attrs.push(("next_seq".into(), buf.emitted().to_string()));
            for r in buf.records() {
                trace.push(XmlNode::with_text("rec", record_to_json(r)));
            }
            root.push(trace);
        }

        if let Some(tracks) = &self.timeline {
            let mut timeline = XmlNode::new("timeline");
            for (inst, segments) in tracks {
                let mut track = XmlNode::new("track");
                push_instance(&mut track, *inst);
                for seg in segments {
                    let mut s = XmlNode::new("seg");
                    push_time(&mut s, "start", seg.start);
                    push_time(&mut s, "end", seg.end);
                    match seg.occ {
                        Occupancy::Idle => s.attrs.push(("occ".into(), "idle".into())),
                        Occupancy::Unavailable => s.attrs.push(("occ".into(), "unavail".into())),
                        Occupancy::Busy { project, job } => {
                            s.attrs.push(("occ".into(), "busy".into()));
                            s.attrs.push(("project".into(), project.0.to_string()));
                            s.attrs.push(("job".into(), job.0.to_string()));
                        }
                    }
                    track.push(s);
                }
                timeline.push(track);
            }
            root.push(timeline);
        }

        let mut assignment = XmlNode::new("assignment");
        for (job, insts) in &self.assignment {
            let mut j = XmlNode::new("job");
            j.attrs.push(("id".into(), job.0.to_string()));
            for inst in insts {
                let mut i = XmlNode::new("inst");
                push_instance(&mut i, *inst);
                j.push(i);
            }
            assignment.push(j);
        }
        root.push(assignment);

        root
    }

    fn from_xml(root: &XmlNode) -> Result<Self, CodecError> {
        let scenario = req_child(root, "scenario")?;
        let scenario_name = req_attr(scenario, "name")?.to_string();
        let seed: u64 = attr_parse(scenario, "seed")?;

        let clock = req_child(root, "clock")?;
        let now = time_attr(clock, "now")?;
        let duration = SimDuration::from_secs(attr_f64_bits(clock, "duration")?);
        let generation: u64 = attr_parse(clock, "generation")?;
        let events_processed: u64 = attr_parse(clock, "events_processed")?;
        let peak_jobs: u64 = attr_parse(clock, "peak_jobs")?;
        let flaps_coalesced: u64 = attr_parse(clock, "flaps_coalesced")?;
        let avail_resched_skipped: u64 = attr_parse(clock, "avail_resched_skipped")?;
        let finished = bool_attr(clock, "finished")?;

        let run_state = parse_run_state(req_child(root, "run_state")?)?;

        let queue_el = req_child(root, "queue")?;
        let queue_next_seq: u64 = attr_parse(queue_el, "next_seq")?;
        let mut queue = Vec::new();
        for ev in queue_el.children_named("ev") {
            let time = time_attr(ev, "time")?;
            let seq: u64 = attr_parse(ev, "seq")?;
            let event = match req_attr(ev, "kind")? {
                "sched" => Event::SchedPoint,
                "client" => Event::Client { generation: attr_parse(ev, "gen")? },
                "avail" => Event::AvailChange,
                "fetch" => Event::FetchRetry { generation: attr_parse(ev, "gen")? },
                "crash" => Event::Crash,
                other => return Err(CodecError::Field(format!("unknown event kind {other:?}"))),
            };
            queue.push((time, seq, event));
        }

        let avail_el = req_child(root, "avail")?;
        let srcs: Vec<&XmlNode> = avail_el.children_named("src").collect();
        if srcs.len() != 3 {
            return Err(CodecError::Field(format!(
                "<avail> needs exactly 3 <src> children, found {}",
                srcs.len()
            )));
        }
        let mut avail: [Option<(Rng, bool, SimTime)>; 3] = [None, None, None];
        for (slot, src) in avail.iter_mut().zip(srcs) {
            *slot = match req_attr(src, "kind")? {
                "process" => Some(parse_onoff(src)?),
                "trace" => None,
                other => return Err(CodecError::Field(format!("unknown avail kind {other:?}"))),
            };
        }

        let servers_el = req_child(root, "servers")?;
        let mut servers = Vec::new();
        for s in servers_el.children_named("server") {
            servers.push(parse_server(s)?);
        }

        let client = parse_client(req_child(root, "client")?)?;

        let rpc_fault_streams = match root.child("rpc_faults") {
            Some(rpc) => {
                let mut streams = Vec::new();
                for s in rpc.children_named("stream") {
                    streams.push((ProjectId(attr_parse(s, "id")?), rng_attr(s, "rng")?));
                }
                Some(streams)
            }
            None => None,
        };
        let crash_rng = match root.child("crash") {
            Some(c) => Some(rng_attr(c, "rng")?),
            None => None,
        };

        let mut recoveries = Vec::new();
        for r in req_child(root, "recoveries")?.children_named("recovery") {
            let start = time_attr(r, "start")?;
            let mut targets = Vec::new();
            for t in r.children_named("target") {
                targets.push((JobId(attr_parse(t, "job")?), attr_f64_bits(t, "progress")?));
            }
            recoveries.push((start, targets));
        }

        let metrics = parse_metrics(req_child(root, "metrics")?)?;

        let trace = match root.child("trace") {
            Some(el) => Some(parse_trace(el)?),
            None => None,
        };

        let timeline = match root.child("timeline") {
            Some(tl) => {
                let mut tracks = Vec::new();
                for track in tl.children_named("track") {
                    let inst = parse_instance(track)?;
                    let mut segments = Vec::new();
                    for s in track.children_named("seg") {
                        let occ = match req_attr(s, "occ")? {
                            "idle" => Occupancy::Idle,
                            "unavail" => Occupancy::Unavailable,
                            "busy" => Occupancy::Busy {
                                project: ProjectId(attr_parse(s, "project")?),
                                job: JobId(attr_parse(s, "job")?),
                            },
                            other => {
                                return Err(CodecError::Field(format!(
                                    "unknown occupancy {other:?}"
                                )))
                            }
                        };
                        segments.push(Segment {
                            start: time_attr(s, "start")?,
                            end: time_attr(s, "end")?,
                            occ,
                        });
                    }
                    tracks.push((inst, segments));
                }
                Some(tracks)
            }
            None => None,
        };

        let mut assignment = Vec::new();
        for j in req_child(root, "assignment")?.children_named("job") {
            let job = JobId(attr_parse(j, "id")?);
            let mut insts = Vec::new();
            for i in j.children_named("inst") {
                insts.push(parse_instance(i)?);
            }
            assignment.push((job, insts));
        }

        Ok(CheckpointState {
            scenario_name,
            seed,
            duration,
            now,
            generation,
            events_processed,
            peak_jobs,
            flaps_coalesced,
            avail_resched_skipped,
            finished,
            run_state,
            queue,
            queue_next_seq,
            avail,
            servers,
            client,
            rpc_fault_streams,
            crash_rng,
            recoveries,
            metrics,
            trace,
            timeline,
            assignment,
        })
    }
}

// --- Attribute helpers -------------------------------------------------

fn push_time(node: &mut XmlNode, name: &str, t: SimTime) {
    node.attrs.push((name.into(), fmt_f64_bits(t.secs())));
}

fn time_attr(node: &XmlNode, name: &str) -> Result<SimTime, CodecError> {
    Ok(SimTime::from_secs(attr_f64_bits(node, name)?))
}

fn push_f64(node: &mut XmlNode, name: &str, x: f64) {
    node.attrs.push((name.into(), fmt_f64_bits(x)));
}

fn push_bool(node: &mut XmlNode, name: &str, b: bool) {
    node.attrs.push((name.into(), if b { "1" } else { "0" }.into()));
}

fn bool_attr(node: &XmlNode, name: &str) -> Result<bool, CodecError> {
    match req_attr(node, name)? {
        "1" => Ok(true),
        "0" => Ok(false),
        other => Err(CodecError::Field(format!("<{}> {name}={other:?} is not 0/1", node.name))),
    }
}

fn rng_to_hex(rng: &Rng) -> String {
    rng.state().iter().map(|w| fmt_u64_hex(*w)).collect()
}

fn rng_attr(node: &XmlNode, name: &str) -> Result<Rng, CodecError> {
    let raw = req_attr(node, name)?;
    if raw.len() != 64 || !raw.is_ascii() {
        return Err(CodecError::Field(format!("<{}> {name} is not a 64-hex RNG state", node.name)));
    }
    let mut words = [0u64; 4];
    for (i, w) in words.iter_mut().enumerate() {
        *w = parse_u64_hex(&raw[i * 16..(i + 1) * 16])?;
    }
    Ok(Rng::from_state(words))
}

/// `(rng, on, next-toggle-time)` of an on/off process as one element.
fn onoff_node(name: &str, rng: &Rng, on: bool, next: SimTime) -> XmlNode {
    let mut n = XmlNode::new(name);
    n.attrs.push(("rng".into(), rng_to_hex(rng)));
    push_bool(&mut n, "on", on);
    push_time(&mut n, "next", next);
    n
}

fn parse_onoff(node: &XmlNode) -> Result<(Rng, bool, SimTime), CodecError> {
    Ok((rng_attr(node, "rng")?, bool_attr(node, "on")?, time_attr(node, "next")?))
}

fn run_state_node(name: &str, rs: &HostRunState) -> XmlNode {
    let mut n = XmlNode::new(name);
    push_bool(&mut n, "can_compute", rs.can_compute);
    push_bool(&mut n, "can_gpu", rs.can_gpu);
    push_bool(&mut n, "net_up", rs.net_up);
    push_bool(&mut n, "user_active", rs.user_active);
    n
}

fn parse_run_state(node: &XmlNode) -> Result<HostRunState, CodecError> {
    Ok(HostRunState {
        can_compute: bool_attr(node, "can_compute")?,
        can_gpu: bool_attr(node, "can_gpu")?,
        net_up: bool_attr(node, "net_up")?,
        user_active: bool_attr(node, "user_active")?,
    })
}

fn procmap_node(name: &str, map: &ProcMap<f64>) -> XmlNode {
    let mut n = XmlNode::new(name);
    for (i, v) in map.0.iter().enumerate() {
        push_f64(&mut n, &format!("v{i}"), *v);
    }
    n
}

fn parse_procmap(node: &XmlNode) -> Result<ProcMap<f64>, CodecError> {
    let mut map = ProcMap([0.0; ProcType::COUNT]);
    for (i, v) in map.0.iter_mut().enumerate() {
        *v = attr_f64_bits(node, &format!("v{i}"))?;
    }
    Ok(map)
}

fn push_instance(node: &mut XmlNode, inst: InstanceId) {
    node.attrs.push(("proc".into(), inst.proc_type.index().to_string()));
    node.attrs.push(("index".into(), inst.index.to_string()));
}

fn parse_instance(node: &XmlNode) -> Result<InstanceId, CodecError> {
    let idx: usize = attr_parse(node, "proc")?;
    let proc_type = ProcType::from_index(idx)
        .ok_or_else(|| CodecError::Field(format!("bad proc type index {idx}")))?;
    Ok(InstanceId { proc_type, index: attr_parse(node, "index")? })
}

fn retry_attrs(node: &mut XmlNode, prefix: &str, state: &RetryState) {
    node.attrs.push((format!("{prefix}_failures"), state.consecutive_failures().to_string()));
    push_time(node, &format!("{prefix}_until"), state.until);
}

fn parse_retry(node: &XmlNode, prefix: &str) -> Result<RetryState, CodecError> {
    Ok(RetryState::from_parts(
        attr_parse(node, &format!("{prefix}_failures"))?,
        time_attr(node, &format!("{prefix}_until"))?,
    ))
}

// --- Server ------------------------------------------------------------

fn server_node(id: ProjectId, snap: &ServerSnapshot) -> XmlNode {
    let mut n = XmlNode::new("server");
    n.attrs.push(("id".into(), id.0.to_string()));

    let mut factory = XmlNode::new("factory");
    factory.attrs.push(("next_seq".into(), snap.factory_next_seq.to_string()));
    factory.attrs.push(("rng".into(), rng_to_hex(&snap.factory_rng)));
    n.push(factory);

    if let Some((rng, on, next)) = &snap.uptime {
        n.push(onoff_node("uptime", rng, *on, *next));
    }
    if let Some((rng, on, next)) = &snap.supply {
        n.push(onoff_node("supply", rng, *on, *next));
    }
    let mut app_supply = XmlNode::new("app_supply");
    for (app, (rng, on, next)) in &snap.app_supply {
        let mut a = onoff_node("app", rng, *on, *next);
        a.attrs.insert(0, ("id".into(), app.0.to_string()));
        app_supply.push(a);
    }
    n.push(app_supply);

    if let Some(remaining) = snap.batch_remaining {
        let mut b = XmlNode::new("batch");
        b.attrs.push(("remaining".into(), remaining.to_string()));
        n.push(b);
    }

    let mut in_progress = XmlNode::new("in_progress");
    for (job, deadline) in &snap.in_progress {
        let mut j = XmlNode::new("job");
        j.attrs.push(("id".into(), job.0.to_string()));
        push_time(&mut j, "deadline", *deadline);
        in_progress.push(j);
    }
    n.push(in_progress);

    let mut stats = XmlNode::new("stats");
    let s = &snap.stats;
    for (name, v) in [
        ("rpcs", s.rpcs),
        ("failed_rpcs", s.failed_rpcs),
        ("jobs_dispatched", s.jobs_dispatched),
        ("reported_in_time", s.reported_in_time),
        ("reported_late", s.reported_late),
        ("timed_out", s.timed_out),
        ("errored", s.errored),
    ] {
        stats.attrs.push((name.into(), v.to_string()));
    }
    n.push(stats);
    n
}

fn parse_server(node: &XmlNode) -> Result<(ProjectId, ServerSnapshot), CodecError> {
    let id = ProjectId(attr_parse(node, "id")?);
    let factory = req_child(node, "factory")?;
    let mut app_supply = Vec::new();
    for a in req_child(node, "app_supply")?.children_named("app") {
        app_supply.push((AppId(attr_parse(a, "id")?), parse_onoff(a)?));
    }
    let mut in_progress = Vec::new();
    for j in req_child(node, "in_progress")?.children_named("job") {
        in_progress.push((JobId(attr_parse(j, "id")?), time_attr(j, "deadline")?));
    }
    let stats_el = req_child(node, "stats")?;
    let stats = ServerStats {
        rpcs: attr_parse(stats_el, "rpcs")?,
        failed_rpcs: attr_parse(stats_el, "failed_rpcs")?,
        jobs_dispatched: attr_parse(stats_el, "jobs_dispatched")?,
        reported_in_time: attr_parse(stats_el, "reported_in_time")?,
        reported_late: attr_parse(stats_el, "reported_late")?,
        timed_out: attr_parse(stats_el, "timed_out")?,
        errored: attr_parse(stats_el, "errored")?,
    };
    Ok((
        id,
        ServerSnapshot {
            factory_next_seq: attr_parse(factory, "next_seq")?,
            factory_rng: rng_attr(factory, "rng")?,
            uptime: node.child("uptime").map(parse_onoff).transpose()?,
            supply: node.child("supply").map(parse_onoff).transpose()?,
            app_supply,
            batch_remaining: node.child("batch").map(|b| attr_parse(b, "remaining")).transpose()?,
            in_progress,
            stats,
        },
    ))
}

// --- Client ------------------------------------------------------------

fn spec_node(spec: &JobSpec) -> XmlNode {
    let mut n = XmlNode::new("spec");
    n.attrs.push(("id".into(), spec.id.0.to_string()));
    n.attrs.push(("project".into(), spec.project.0.to_string()));
    n.attrs.push(("app".into(), spec.app.0.to_string()));
    push_f64(&mut n, "avg_cpus", spec.usage.avg_cpus);
    if let Some((t, count)) = spec.usage.coproc {
        n.attrs.push(("coproc_type".into(), t.index().to_string()));
        push_f64(&mut n, "coproc_n", count);
    }
    push_f64(&mut n, "duration", spec.duration.secs());
    push_f64(&mut n, "duration_est", spec.duration_est.secs());
    push_f64(&mut n, "latency_bound", spec.latency_bound.secs());
    if let Some(cp) = spec.checkpoint_period {
        push_f64(&mut n, "checkpoint_period", cp.secs());
    }
    push_f64(&mut n, "working_set_bytes", spec.working_set_bytes);
    push_f64(&mut n, "input_bytes", spec.input_bytes);
    push_f64(&mut n, "output_bytes", spec.output_bytes);
    push_time(&mut n, "received", spec.received);
    n
}

fn parse_spec(n: &XmlNode) -> Result<JobSpec, CodecError> {
    let coproc = match n.attr("coproc_type") {
        Some(_) => {
            let idx: usize = attr_parse(n, "coproc_type")?;
            let t = ProcType::from_index(idx)
                .ok_or_else(|| CodecError::Field(format!("bad coproc type index {idx}")))?;
            Some((t, attr_f64_bits(n, "coproc_n")?))
        }
        None => None,
    };
    Ok(JobSpec {
        id: JobId(attr_parse(n, "id")?),
        project: ProjectId(attr_parse(n, "project")?),
        app: AppId(attr_parse(n, "app")?),
        usage: ResourceUsage { avg_cpus: attr_f64_bits(n, "avg_cpus")?, coproc },
        duration: SimDuration::from_secs(attr_f64_bits(n, "duration")?),
        duration_est: SimDuration::from_secs(attr_f64_bits(n, "duration_est")?),
        latency_bound: SimDuration::from_secs(attr_f64_bits(n, "latency_bound")?),
        checkpoint_period: n
            .attr("checkpoint_period")
            .map(|_| attr_f64_bits(n, "checkpoint_period").map(SimDuration::from_secs))
            .transpose()?,
        working_set_bytes: attr_f64_bits(n, "working_set_bytes")?,
        input_bytes: attr_f64_bits(n, "input_bytes")?,
        output_bytes: attr_f64_bits(n, "output_bytes")?,
        received: time_attr(n, "received")?,
    })
}

fn task_node(name: &str, task: &TaskSnapshot) -> XmlNode {
    let mut n = XmlNode::new(name);
    n.attrs.push(("state".into(), task.state.name().into()));
    push_f64(&mut n, "progress", task.progress);
    push_f64(&mut n, "checkpointed", task.checkpointed);
    push_f64(&mut n, "run_start_progress", task.run_start_progress);
    push_bool(&mut n, "in_memory", task.in_memory);
    push_f64(&mut n, "rollback_waste", task.rollback_waste);
    n.push(spec_node(&task.spec));
    n
}

fn parse_task(n: &XmlNode) -> Result<TaskSnapshot, CodecError> {
    let state = TaskState::from_name(req_attr(n, "state")?)
        .ok_or_else(|| CodecError::Field(format!("unknown task state {:?}", n.attr("state"))))?;
    Ok(TaskSnapshot {
        spec: parse_spec(req_child(n, "spec")?)?,
        state,
        progress: attr_f64_bits(n, "progress")?,
        checkpointed: attr_f64_bits(n, "checkpointed")?,
        run_start_progress: attr_f64_bits(n, "run_start_progress")?,
        in_memory: bool_attr(n, "in_memory")?,
        rollback_waste: attr_f64_bits(n, "rollback_waste")?,
    })
}

/// One serialized in-flight transfer: (job, remaining, total, fail_at).
type XferParts = (JobId, f64, f64, Option<f64>);

fn xfers_node(name: &str, xfers: &[XferParts]) -> XmlNode {
    let mut n = XmlNode::new(name);
    for (job, remaining, total, fail_at) in xfers {
        let mut x = XmlNode::new("xfer");
        x.attrs.push(("job".into(), job.0.to_string()));
        push_f64(&mut x, "remaining", *remaining);
        push_f64(&mut x, "total", *total);
        if let Some(f) = fail_at {
            push_f64(&mut x, "fail_at", *f);
        }
        n.push(x);
    }
    n
}

fn parse_xfers(n: &XmlNode) -> Result<Vec<XferParts>, CodecError> {
    let mut out = Vec::new();
    for x in n.children_named("xfer") {
        out.push((
            JobId(attr_parse(x, "job")?),
            attr_f64_bits(x, "remaining")?,
            attr_f64_bits(x, "total")?,
            x.attr("fail_at").map(|_| attr_f64_bits(x, "fail_at")).transpose()?,
        ));
    }
    Ok(out)
}

fn client_node(c: &ClientSnapshot) -> XmlNode {
    let mut n = XmlNode::new("client");
    push_time(&mut n, "last_advance", c.last_advance);
    n.attrs.push(("state_gen".into(), c.state_gen.to_string()));

    let mut projects = XmlNode::new("projects");
    for p in &c.projects {
        let mut pn = XmlNode::new("project");
        pn.attrs.push(("id".into(), p.id.0.to_string()));
        retry_attrs(&mut pn, "backoff", &p.backoff);
        retry_attrs(&mut pn, "comm", &p.comm_retry);
        push_time(&mut pn, "next_rpc_allowed", p.next_rpc_allowed);
        projects.push(pn);
    }
    n.push(projects);

    let mut tasks = XmlNode::new("tasks");
    for t in &c.tasks {
        tasks.push(task_node("task", t));
    }
    n.push(tasks);

    let mut acc = XmlNode::new("accounting");
    push_time(&mut acc, "rec_updated", c.accounting.rec_updated);
    for (id, map) in &c.accounting.debts {
        let mut d = procmap_node("debt", map);
        d.attrs.insert(0, ("id".into(), id.0.to_string()));
        acc.push(d);
    }
    for (id, map) in &c.accounting.lt_debts {
        let mut d = procmap_node("lt_debt", map);
        d.attrs.insert(0, ("id".into(), id.0.to_string()));
        acc.push(d);
    }
    for (id, v) in &c.accounting.rec {
        let mut r = XmlNode::new("rec");
        r.attrs.push(("id".into(), id.0.to_string()));
        push_f64(&mut r, "v", *v);
        acc.push(r);
    }
    n.push(acc);

    n.push(xfers_node("downloads", &c.downloads));
    n.push(xfers_node("uploads", &c.uploads));

    if let Some(rng) = &c.xfer_faults_rng {
        let mut x = XmlNode::new("xfer_faults");
        x.attrs.push(("rng".into(), rng_to_hex(rng)));
        n.push(x);
    }
    let mut retries = XmlNode::new("xfer_retries");
    for r in &c.xfer_retries {
        let mut rn = XmlNode::new("retry");
        rn.attrs.push(("job".into(), r.job.0.to_string()));
        push_bool(&mut rn, "upload", r.upload);
        push_f64(&mut rn, "bytes", r.bytes);
        retry_attrs(&mut rn, "state", &r.state);
        retries.push(rn);
    }
    n.push(retries);

    let mut rr = XmlNode::new("rr_cache");
    let mut missed = XmlNode::new("missed");
    for id in &c.rr_cache.missed {
        let mut j = XmlNode::new("job");
        j.attrs.push(("id".into(), id.0.to_string()));
        missed.push(j);
    }
    rr.push(missed);
    rr.push(procmap_node("sat", &c.rr_cache.sat.map(|_, d| d.secs())));
    rr.push(procmap_node("shortfall", &c.rr_cache.shortfall));
    let mut finish = XmlNode::new("finish");
    for (id, dt) in &c.rr_cache.finish {
        let mut j = XmlNode::new("job");
        j.attrs.push(("id".into(), id.0.to_string()));
        push_f64(&mut j, "dt", dt.secs());
        finish.push(j);
    }
    rr.push(finish);
    rr.push(procmap_node("busy_now", &c.rr_cache.busy_now));
    n.push(rr);

    if let Some((t, rs, g0, g1)) = &c.rr_key {
        let mut k = run_state_node("rr_key", rs);
        push_time(&mut k, "now", *t);
        k.attrs.push(("g0".into(), g0.to_string()));
        k.attrs.push(("g1".into(), g1.to_string()));
        n.push(k);
    }
    let mut stats = XmlNode::new("rr_stats");
    stats.attrs.push(("queries".into(), c.rr_stats.queries.to_string()));
    stats.attrs.push(("runs".into(), c.rr_stats.runs.to_string()));
    stats.attrs.push(("frozen".into(), c.rr_stats.frozen.to_string()));
    n.push(stats);

    // Dirty-tracking state of the retained snapshot: without it a resumed
    // run would full-resimulate where the uninterrupted run served a
    // frozen hit, skewing the rr_runs counter out of bit-identity.
    let mut dirty = XmlNode::new("rr_dirty");
    push_bool(&mut dirty, "dirty", c.rr_dirty);
    push_time(&mut dirty, "frozen_until", c.rr_frozen_until);
    n.push(dirty);

    n
}

fn parse_client(n: &XmlNode) -> Result<ClientSnapshot, CodecError> {
    let mut projects = Vec::new();
    for p in req_child(n, "projects")?.children_named("project") {
        projects.push(ProjectClientSnapshot {
            id: ProjectId(attr_parse(p, "id")?),
            backoff: parse_retry(p, "backoff")?,
            comm_retry: parse_retry(p, "comm")?,
            next_rpc_allowed: time_attr(p, "next_rpc_allowed")?,
        });
    }
    let mut tasks = Vec::new();
    for t in req_child(n, "tasks")?.children_named("task") {
        tasks.push(parse_task(t)?);
    }

    let acc = req_child(n, "accounting")?;
    let mut debts = Vec::new();
    for d in acc.children_named("debt") {
        debts.push((ProjectId(attr_parse(d, "id")?), parse_procmap(d)?));
    }
    let mut lt_debts = Vec::new();
    for d in acc.children_named("lt_debt") {
        lt_debts.push((ProjectId(attr_parse(d, "id")?), parse_procmap(d)?));
    }
    let mut rec = Vec::new();
    for r in acc.children_named("rec") {
        rec.push((ProjectId(attr_parse(r, "id")?), attr_f64_bits(r, "v")?));
    }
    let accounting =
        AccountingSnapshot { debts, lt_debts, rec, rec_updated: time_attr(acc, "rec_updated")? };

    let mut xfer_retries = Vec::new();
    for r in req_child(n, "xfer_retries")?.children_named("retry") {
        xfer_retries.push(XferRetrySnapshot {
            job: JobId(attr_parse(r, "job")?),
            upload: bool_attr(r, "upload")?,
            bytes: attr_f64_bits(r, "bytes")?,
            state: parse_retry(r, "state")?,
        });
    }

    let rr = req_child(n, "rr_cache")?;
    let mut missed = Vec::new();
    for j in req_child(rr, "missed")?.children_named("job") {
        missed.push(JobId(attr_parse(j, "id")?));
    }
    let mut finish = Vec::new();
    for j in req_child(rr, "finish")?.children_named("job") {
        finish.push((JobId(attr_parse(j, "id")?), SimDuration::from_secs(attr_f64_bits(j, "dt")?)));
    }
    let rr_cache = RrOutcome {
        missed,
        sat: parse_procmap(req_child(rr, "sat")?)?.map(|_, s| SimDuration::from_secs(*s)),
        shortfall: parse_procmap(req_child(rr, "shortfall")?)?,
        finish,
        busy_now: parse_procmap(req_child(rr, "busy_now")?)?,
    };

    let rr_key = match n.child("rr_key") {
        Some(k) => Some((
            time_attr(k, "now")?,
            parse_run_state(k)?,
            attr_parse(k, "g0")?,
            attr_parse(k, "g1")?,
        )),
        None => None,
    };
    let stats = req_child(n, "rr_stats")?;
    let rr_stats = RrStats {
        queries: attr_parse(stats, "queries")?,
        runs: attr_parse(stats, "runs")?,
        frozen: attr_parse(stats, "frozen")?,
    };

    let dirty = req_child(n, "rr_dirty")?;
    let rr_frozen_until = time_attr(dirty, "frozen_until")?;
    let rr_dirty = bool_attr(dirty, "dirty")?;

    Ok(ClientSnapshot {
        projects,
        tasks,
        accounting,
        downloads: parse_xfers(req_child(n, "downloads")?)?,
        uploads: parse_xfers(req_child(n, "uploads")?)?,
        last_advance: time_attr(n, "last_advance")?,
        xfer_faults_rng: n.child("xfer_faults").map(|x| rng_attr(x, "rng")).transpose()?,
        xfer_retries,
        state_gen: attr_parse(n, "state_gen")?,
        rr_cache,
        rr_key,
        rr_stats,
        rr_frozen_until,
        rr_dirty,
    })
}

// --- Metrics -----------------------------------------------------------

fn metrics_node(m: &MetricsAccumSnapshot) -> XmlNode {
    let mut n = XmlNode::new("metrics");
    push_f64(&mut n, "capacity_secs", m.capacity_secs);
    push_f64(&mut n, "available_secs", m.available_secs);
    push_f64(&mut n, "wasted_flops", m.wasted_flops);
    push_time(&mut n, "window_end", m.window_end);
    push_f64(&mut n, "monotony_sum", m.monotony_sum);
    n.attrs.push(("monotony_windows".into(), m.monotony_windows.to_string()));
    push_f64(&mut n, "fault_wasted_flops", m.fault_wasted_flops);
    push_f64(&mut n, "recovery_secs_sum", m.recovery_secs_sum);
    for (i, c) in m.counters.iter().enumerate() {
        n.attrs.push((format!("c{i}"), c.to_string()));
    }
    for (id, v) in &m.used {
        let mut u = XmlNode::new("used");
        u.attrs.push(("id".into(), id.0.to_string()));
        push_f64(&mut u, "v", *v);
        n.push(u);
    }
    for (id, v) in &m.window_used {
        let mut u = XmlNode::new("window_used");
        u.attrs.push(("id".into(), id.0.to_string()));
        push_f64(&mut u, "v", *v);
        n.push(u);
    }
    n
}

/// Decode `<trace>`: one JSONL record per `<rec>`, in emission order. The
/// counters must agree with the records (every emitted event is either
/// kept, while there is room, or dropped), so a spliced or truncated
/// history is refused instead of resumed.
fn parse_trace(n: &XmlNode) -> Result<TraceBuffer, CodecError> {
    let capacity: usize = attr_parse(n, "capacity")?;
    let dropped: u64 = attr_parse(n, "dropped")?;
    let next_seq: u64 = attr_parse(n, "next_seq")?;
    let mut records = Vec::new();
    for (i, rec) in n.children_named("rec").enumerate() {
        let r = parse_record(&rec.text, i + 1)
            .map_err(|e| CodecError::Field(format!("<trace> record {e}")))?;
        if r.seq != i as u64 {
            return Err(CodecError::Field(format!(
                "<trace> record {} has seq {}, expected {i}",
                i + 1,
                r.seq
            )));
        }
        records.push(r);
    }
    let kept = records.len() as u64;
    if capacity == 0
        || records.len() > capacity
        || (dropped > 0 && records.len() < capacity)
        || kept.checked_add(dropped) != Some(next_seq)
    {
        return Err(CodecError::Field(format!(
            "<trace> counters are inconsistent: {kept} records, capacity {capacity}, \
             {dropped} dropped, next seq {next_seq}"
        )));
    }
    Ok(TraceBuffer::restore(capacity, records, dropped, next_seq))
}

fn parse_metrics(n: &XmlNode) -> Result<MetricsAccumSnapshot, CodecError> {
    let mut counters = [0u64; 8];
    for (i, c) in counters.iter_mut().enumerate() {
        *c = attr_parse(n, &format!("c{i}"))?;
    }
    let mut used = Vec::new();
    for u in n.children_named("used") {
        used.push((ProjectId(attr_parse(u, "id")?), attr_f64_bits(u, "v")?));
    }
    let mut window_used = Vec::new();
    for u in n.children_named("window_used") {
        window_used.push((ProjectId(attr_parse(u, "id")?), attr_f64_bits(u, "v")?));
    }
    Ok(MetricsAccumSnapshot {
        capacity_secs: attr_f64_bits(n, "capacity_secs")?,
        available_secs: attr_f64_bits(n, "available_secs")?,
        used,
        wasted_flops: attr_f64_bits(n, "wasted_flops")?,
        window_used,
        window_end: time_attr(n, "window_end")?,
        monotony_sum: attr_f64_bits(n, "monotony_sum")?,
        monotony_windows: attr_parse(n, "monotony_windows")?,
        fault_wasted_flops: attr_f64_bits(n, "fault_wasted_flops")?,
        recovery_secs_sum: attr_f64_bits(n, "recovery_secs_sum")?,
        counters,
    })
}
