//! BCE — the BOINC client emulator (§4.3).
//!
//! Takes a [`Scenario`] plus policy flags, emulates the client over a
//! period of simulated time, and reports the figures of merit, a
//! per-instance usage timeline and a typed trace of its scheduling
//! decisions (the paper's message log).
//!
//! Structure: a discrete-event loop with piecewise-constant allocation.
//! Between events the running set is fixed, so task progress and metrics
//! accrue in closed form. Events: periodic scheduling points, availability
//! transitions, predicted task/transfer completions (generation-stamped so
//! stale predictions are ignored), and fetch-retry wakeups.

use crate::metrics::{FaultMetrics, FiguresOfMerit, MetricsAccum, PerfStats, ProjectReport};
use crate::scenario::Scenario;
use bce_avail::{Governor, HostRunState};
use bce_client::{Client, ClientConfig, ClientProject, ClientScratch, Reschedule};
use bce_faults::{CrashProcess, FaultConfig, RpcFaultInjector, TransferFaultModel};
use bce_obs::{
    ProfileReport, Profiler, SpanId, TraceBuffer, TraceEvent, TraceRecord, TraceSink, Tracer,
};
use bce_server::{DeadlineCheckPolicy, ProjectServer, RpcOutcome, SchedulerRequest, TypeRequest};
use bce_sim::{EventQueue, Fnv64, Occupancy, Rng, Timeline};
use bce_types::{Hardware, InstanceId, JobId, ProcType, ProjectId, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Monotony averaging window: one hour.
const MONOTONY_WINDOW: SimDuration = SimDuration::from_secs(3_600.0);
/// Upper bound on scheduler RPCs issued per decision point.
const MAX_RPCS_PER_POINT: usize = 4;
/// Availability-flap coalescing window: when an availability event fires,
/// any further on/off transitions within this window are absorbed into it
/// and the run state is evaluated once, after all of them. Collapses the
/// reschedule storms a flapping host would otherwise cause. It must stay
/// well below any policy-visible timescale (scheduling period, work-buffer
/// preferences): 0.25 s is ~240x below the 60 s scheduling period.
const AVAIL_COALESCE_WINDOW: SimDuration = SimDuration::from_secs(0.25);

/// Emulator tuning knobs (separate from the client's policy config).
#[derive(Debug, Clone)]
pub struct EmulatorConfig {
    /// Emulated period (default 10 days, as in §5).
    pub duration: SimDuration,
    /// Upper bound between scheduling decisions; events also trigger them.
    pub sched_period: SimDuration,
    /// Record the per-instance timeline? (costs memory on long runs)
    pub record_timeline: bool,
    /// How the project servers judge lateness at report time (§4.3's
    /// third policy axis).
    pub deadline_check: DeadlineCheckPolicy,
    /// Deterministic fault injection; [`FaultConfig::OFF`] (the default)
    /// leaves the emulation bit-identical to one without fault plumbing.
    pub faults: FaultConfig,
    /// Typed-trace buffer capacity (0 = tracing off, the default; the
    /// no-op sink is provably allocation-free). The trace is the run's
    /// decision log. Tracing is observation only: enabling it never
    /// changes a result bit.
    pub trace_capacity: usize,
    /// Record wall-clock profiling spans for this run. Off by
    /// default; span timings are reported out-of-band
    /// ([`EmulationResult::profile`]) and never fingerprinted.
    pub profile: bool,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        EmulatorConfig {
            duration: SimDuration::from_days(10.0),
            sched_period: SimDuration::from_secs(60.0),
            record_timeline: false,
            deadline_check: DeadlineCheckPolicy::Strict,
            faults: FaultConfig::OFF,
            trace_capacity: 0,
            profile: false,
        }
    }
}

/// Events driving the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Periodic scheduling point.
    SchedPoint,
    /// Predicted client event (task or transfer completion); stale when
    /// its generation is outdated.
    Client { generation: u64 },
    /// Availability signal may change here.
    AvailChange,
    /// A project backoff/delay expires; work fetch may unblock.
    FetchRetry { generation: u64 },
    /// Injected host crash (only scheduled when a crash process is
    /// configured).
    Crash,
}

/// The complete result of one emulation run.
#[derive(Debug, Clone)]
pub struct EmulationResult {
    pub(crate) scenario_name: String,
    pub merit: FiguresOfMerit,
    pub projects: Vec<ProjectReport>,
    pub jobs_completed: u64,
    pub jobs_missed_deadline: u64,
    pub(crate) jobs_unfinished: u64,
    pub available_fraction: f64,
    pub total_flops_used: f64,
    pub(crate) duration: SimDuration,
    /// Robustness figures of merit (all zero when faults are off).
    pub faults: FaultMetrics,
    /// Emulator runtime counters (event throughput, RR-sim cache hits).
    pub perf: PerfStats,
    pub timeline: Option<Timeline>,
    /// Typed decision trace, the run's message log (empty unless
    /// `trace_capacity > 0`). Excluded from
    /// [`EmulationResult::bit_fingerprint`] by design: enabling tracing
    /// must leave the fingerprint unchanged.
    pub trace: TraceBuffer,
    /// Profiling spans (present iff `EmulatorConfig::profile`). Contains
    /// wall-clock time and is never part of any determinism contract.
    pub profile: Option<ProfileReport>,
}

impl EmulationResult {
    /// A deterministic FNV-1a digest over every reproducible field of the
    /// result — figures of merit, per-project reports, job counts, fault
    /// and perf counters and the timeline segments — with floats hashed
    /// by their exact bit patterns. Two runs are
    /// bit-identical iff their fingerprints match; the determinism matrix
    /// and the fresh-vs-reused arena tests compare these.
    pub fn bit_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.str(&self.scenario_name);
        for x in [
            self.merit.idle_fraction,
            self.merit.wasted_fraction,
            self.merit.share_violation,
            self.merit.monotony,
            self.merit.rpcs_per_job,
            self.available_fraction,
            self.total_flops_used,
            self.duration.secs(),
        ] {
            h.f64(x);
        }
        for p in &self.projects {
            h.u64(p.id.0 as u64);
            h.str(&p.name);
            h.f64(p.share_frac);
            h.f64(p.used_frac);
            h.f64(p.flops_used);
            h.u64(p.jobs_completed);
            h.u64(p.jobs_missed_deadline);
            h.u64(p.rpcs);
        }
        for x in [self.jobs_completed, self.jobs_missed_deadline, self.jobs_unfinished] {
            h.u64(x);
        }
        h.u64(self.faults.transient_rpc_failures);
        h.u64(self.faults.transfer_failures);
        h.u64(self.faults.crashes);
        h.u64(self.faults.jobs_errored);
        h.f64(self.faults.fault_wasted_fraction);
        h.f64(self.faults.mean_recovery_secs);
        h.u64(self.faults.recoveries);
        h.u64(self.perf.events_processed);
        h.u64(self.perf.peak_jobs as u64);
        h.u64(self.perf.rr_queries);
        h.u64(self.perf.rr_runs);
        h.u64(self.perf.rr_frozen);
        h.u64(self.perf.flaps_coalesced);
        h.u64(self.perf.avail_resched_skipped);
        if let Some(tl) = &self.timeline {
            for track in tl.tracks() {
                h.u64(track.instance.proc_type.index() as u64);
                h.u64(track.instance.index as u64);
                for seg in track.segments() {
                    h.f64(seg.start.secs());
                    h.f64(seg.end.secs());
                    match seg.occ {
                        Occupancy::Idle => h.u64(1),
                        Occupancy::Unavailable => h.u64(2),
                        Occupancy::Busy { project, job } => {
                            h.u64(3);
                            h.u64(project.0 as u64);
                            h.u64(job.0);
                        }
                    }
                }
            }
        }
        // The last word is the drop count of a message log that no longer
        // exists; every fingerprinted run had it disabled, so it was 0.
        // Hashing the constant keeps recorded fingerprints valid.
        h.u64(0);
        h.finish()
    }
}

/// Tracks one crash until every task it rolled back regains its pre-crash
/// progress (or leaves the queue): the span is the crash's recovery time.
struct RecoveryTracker {
    start: SimTime,
    /// `(job, pre-crash progress in execution seconds)`.
    targets: Vec<(JobId, f64)>,
}

/// The emulator.
///
/// ```
/// use bce_client::{ClientConfig, FetchPolicy, JobSchedPolicy};
/// use bce_core::{Emulator, EmulatorConfig, ScenarioBuilder};
/// use bce_types::{AppClass, Hardware, ProjectSpec, SimDuration};
///
/// let scenario = ScenarioBuilder::new("doc", Hardware::cpu_only(2, 1e9))
///     .seed(1)
///     .project(ProjectSpec::new(0, "alpha", 100.0).with_app(
///         AppClass::cpu(0, SimDuration::from_secs(600.0), SimDuration::from_hours(6.0)),
///     ))
///     .build()
///     .unwrap();
/// let cfg = EmulatorConfig { duration: SimDuration::from_hours(4.0), ..Default::default() };
/// let result = Emulator::new(scenario, ClientConfig::default(), cfg).run();
/// assert!(result.jobs_completed > 0);
/// assert!(result.merit.idle_fraction < 0.1);
/// ```
pub struct Emulator {
    scenario: Arc<Scenario>,
    client_cfg: ClientConfig,
    cfg: Arc<EmulatorConfig>,
}

/// Reusable per-worker emulator state: the event queue, the client's
/// internal buffers (task queue, RR-simulation scratch, accounting
/// sample), the per-project FLOPS buffer and the trace's record
/// buffer. One arena per worker thread amortises per-run allocations over
/// a whole population study; [`Emulator::run_in`] clears everything before
/// use, so results are bit-identical to a fresh [`Emulator::run`].
pub struct EmulatorArena {
    queue: EventQueue<Event>,
    client: Option<ClientScratch>,
    per_project: Vec<(usize, f64)>,
    trace_records: Vec<TraceRecord>,
}

impl EmulatorArena {
    /// Initial event-queue capacity; steady-state runs rarely hold more
    /// than a handful of pending events, but the first run should not
    /// regrow from zero.
    const EVENT_CAPACITY: usize = 64;

    pub fn new() -> Self {
        EmulatorArena {
            queue: EventQueue::with_capacity(Self::EVENT_CAPACITY),
            client: None,
            per_project: Vec::new(),
            trace_records: Vec::new(),
        }
    }

    /// Reclaim the buffers of a consumed result (the trace buffer's
    /// record vector). Serial drivers that enable tracing can hand each
    /// result back after reading it so even that allocation is reused
    /// across runs.
    pub fn reclaim(&mut self, result: EmulationResult) {
        let mut records = result.trace.into_records();
        if records.capacity() > self.trace_records.capacity() {
            records.clear();
            self.trace_records = records;
        }
    }
}

impl Default for EmulatorArena {
    fn default() -> Self {
        Self::new()
    }
}

impl Emulator {
    pub fn new(
        scenario: impl Into<Arc<Scenario>>,
        client_cfg: ClientConfig,
        cfg: impl Into<Arc<EmulatorConfig>>,
    ) -> Self {
        Emulator { scenario: scenario.into(), client_cfg, cfg: cfg.into() }
    }

    /// Run the emulation with freshly allocated working state.
    pub fn run(&self) -> EmulationResult {
        self.run_in(&mut EmulatorArena::new())
    }

    /// Run the emulation inside a reusable [`EmulatorArena`]. The arena's
    /// buffers are cleared before use, so the result is bit-identical to
    /// [`Emulator::run`]; population-scale drivers keep one arena per
    /// worker so the event queue, RR scratch, task buffers and trace
    /// buffer are allocated once per worker rather than once per run.
    ///
    /// Panics if the scenario fails [`Scenario::validate`].
    pub fn run_in(&self, arena: &mut EmulatorArena) -> EmulationResult {
        let mut st = self.start_in(arena);
        while st.step(self) {}
        st.finalize(self, arena)
    }

    /// Construct the live [`RunState`] of a fresh run: every component is
    /// built on its own named RNG stream in a fixed order, the event
    /// queue is seeded, and the reusable buffers are taken out of the
    /// arena ([`RunState::finalize`] hands them back).
    ///
    /// The validation runs in every build profile: the emulator has no
    /// defined behaviour for an invalid scenario, and a run that silently
    /// completes with nothing to do would hide the bad input from
    /// supervised executors.
    fn start_in(&self, arena: &mut EmulatorArena) -> RunState {
        let scenario = &*self.scenario;
        if let Err(errors) = scenario.validate() {
            panic!("invalid scenario {:?}: {errors}", scenario.name);
        }
        let mut queue = std::mem::replace(&mut arena.queue, EventQueue::with_capacity(0));
        let client_scratch = arena.client.take();
        let mut per_project = std::mem::take(&mut arena.per_project);
        let trace_records = std::mem::take(&mut arena.trace_records);
        let hw = scenario.hardware.clone();
        let end = SimTime::ZERO + self.cfg.duration;

        // --- Component construction, each with its own RNG stream. ---
        let mut avail_rng = Rng::stream(scenario.seed, "avail");
        let mut governor = scenario.avail.instantiate(&mut avail_rng);
        if let Some(trace) = &scenario.host_trace {
            governor = governor.with_host_trace(trace.clone());
        }
        let on_frac = governor.expected_on_fraction(&scenario.prefs).max(1e-3);

        let mut servers: Vec<ProjectServer> = scenario
            .projects
            .iter()
            .enumerate()
            .map(|(slot, p)| {
                let mut rng = Rng::stream(scenario.seed, &format!("server-{}", p.id));
                ProjectServer::new(p.clone(), slot, self.cfg.deadline_check, &mut rng)
            })
            .collect();

        let client_projects: Vec<ClientProject> = scenario
            .projects
            .iter()
            .map(|p| {
                let types: Vec<ProcType> = p.proc_types().collect();
                Client::project(p.id.0, p.resource_share, &types)
            })
            .collect();
        let mut client = Client::with_scratch(
            hw.clone(),
            scenario.prefs.clone(),
            scenario.network,
            client_projects,
            self.client_cfg,
            client_scratch.unwrap_or_default(),
        );

        // Fault processes, each on its own RNG stream. None is created (or
        // drawn from) when its rate is zero, preserving the zero-fault
        // identity: with `FaultConfig::OFF` this whole block is inert.
        let faults = &self.cfg.faults;
        let project_ids: Vec<ProjectId> = scenario.projects.iter().map(|p| p.id).collect();
        let rpc_faults: Option<RpcFaultInjector> = (faults.rpc_fail_prob > 0.0)
            .then(|| RpcFaultInjector::new(scenario.seed, faults.rpc_fail_prob, &project_ids));
        if faults.transfer_fail_prob > 0.0 {
            client.set_transfer_faults(TransferFaultModel::new(
                scenario.seed,
                faults.transfer_fail_prob,
            ));
        }
        let mut crash_proc: Option<CrashProcess> =
            faults.crash_mtbf.map(|mtbf| CrashProcess::new(scenario.seed, mtbf));
        let recoveries: Vec<RecoveryTracker> = Vec::new();

        // Restore imported in-flight jobs (state-file replay, §4.3).
        for ij in &scenario.initial_queue {
            let server = servers
                .iter_mut()
                .find(|s| s.id() == ij.project)
                .expect("validated initial-queue project");
            let received = SimTime::ZERO - ij.received_ago;
            if let Some(spec) = server.make_initial_job(ij.app, received) {
                client.add_initial_task(spec, ij.progress);
            }
        }

        let shares: Vec<(ProjectId, f64)> =
            scenario.projects.iter().map(|p| (p.id, p.resource_share)).collect();
        // Its slots are the client accounting's: both index the ascending
        // list of the scenario's project ids.
        let metrics =
            MetricsAccum::new(hw.total_peak_flops(), &project_ids, SimTime::ZERO, MONOTONY_WINDOW);
        let trace = if self.cfg.trace_capacity > 0 {
            TraceSink::Buffer(TraceBuffer::with_buffer(self.cfg.trace_capacity, trace_records))
        } else {
            TraceSink::Noop
        };
        let mut prof = if self.cfg.profile { Profiler::enabled() } else { Profiler::disabled() };
        let sp_advance = prof.span("emu.client_advance");
        let sp_resched = prof.span("emu.reschedule");
        let sp_rpc = prof.span("emu.rpc_loop");
        let run_start = self.cfg.profile.then(Instant::now);

        // Timeline instance bookkeeping.
        let instances: Vec<InstanceId> = ProcType::ALL
            .iter()
            .flat_map(|&t| {
                (0..hw.ninstances(t)).map(move |i| InstanceId { proc_type: t, index: i })
            })
            .collect();
        let timeline = self.cfg.record_timeline.then(|| Timeline::new(instances.iter().copied()));
        // job -> assigned instances (for the timeline only).
        let assignment: BTreeMap<JobId, Vec<InstanceId>> = BTreeMap::new();

        // --- Event loop (queue recycled from the arena, emptied with its
        // tie-break sequence restarted so reuse is bit-identical). ---
        queue.reset();
        queue.push(SimTime::ZERO, Event::SchedPoint);
        queue.push(governor.next_change_after(SimTime::ZERO, &scenario.prefs), Event::AvailChange);
        if let Some(cp) = &mut crash_proc {
            let first = cp.next_after(SimTime::ZERO);
            if first < end {
                queue.push(first, Event::Crash);
            }
        }
        governor.advance(SimTime::ZERO);
        let run_state = governor.run_state(SimTime::ZERO, &scenario.prefs);
        let peak_jobs = client.tasks().len();
        per_project.clear();

        RunState {
            hw,
            end,
            on_frac,
            shares,
            instances,
            governor,
            servers,
            client,
            rpc_faults,
            crash_proc,
            recoveries,
            metrics,
            trace,
            prof,
            sp_advance,
            sp_resched,
            sp_rpc,
            run_start,
            timeline,
            assignment,
            queue,
            per_project,
            per_project_gen: None,
            generation: 0,
            now: SimTime::ZERO,
            run_state,
            events_processed: 0,
            peak_jobs,
            flaps_coalesced: 0,
            avail_resched_skipped: 0,
        }
    }
}

/// The live state of one emulation run between event-loop iterations:
/// every component, RNG stream, buffer and counter the loop mutates.
/// [`Emulator::start_in`] builds one, [`RunState::step`] executes one
/// queue pop (one full loop iteration), [`RunState::finalize`] produces
/// the result and returns the reusable buffers to the arena.
struct RunState {
    // Constants resolved at construction.
    hw: Hardware,
    end: SimTime,
    on_frac: f64,
    shares: Vec<(ProjectId, f64)>,
    instances: Vec<InstanceId>,
    // Live components.
    governor: Governor,
    servers: Vec<ProjectServer>,
    client: Client,
    rpc_faults: Option<RpcFaultInjector>,
    crash_proc: Option<CrashProcess>,
    recoveries: Vec<RecoveryTracker>,
    metrics: MetricsAccum,
    /// The run's decision log; every decision is emitted here.
    trace: TraceSink,
    prof: Profiler,
    sp_advance: SpanId,
    sp_resched: SpanId,
    sp_rpc: SpanId,
    run_start: Option<Instant>,
    timeline: Option<Timeline>,
    assignment: BTreeMap<JobId, Vec<InstanceId>>,
    queue: EventQueue<Event>,
    /// Peak FLOPS in use per project slot, as of client running-set
    /// generation `per_project_gen`.
    per_project: Vec<(usize, f64)>,
    per_project_gen: Option<u64>,
    // Loop scalars.
    generation: u64,
    now: SimTime,
    run_state: HostRunState,
    events_processed: u64,
    peak_jobs: usize,
    /// Availability transitions absorbed into an earlier event by the
    /// coalescing window ([`AVAIL_COALESCE_WINDOW`]).
    flaps_coalesced: u64,
    /// Availability events whose net run-state delta was zero, so the
    /// reschedule/fetch pass was skipped entirely.
    avail_resched_skipped: u64,
}

impl RunState {
    /// Execute one event-loop iteration (one queue pop). Returns `false`
    /// when the run is over — queue drained or the horizon reached — and
    /// must not be called again after that.
    fn step(&mut self, emu: &Emulator) -> bool {
        let scenario = &*emu.scenario;
        let cfg = &*emu.cfg;
        let RunState {
            hw,
            end,
            on_frac,
            instances,
            governor,
            servers,
            client,
            rpc_faults,
            crash_proc,
            recoveries,
            metrics,
            trace,
            prof,
            sp_advance,
            sp_resched,
            sp_rpc,
            timeline,
            assignment,
            queue,
            per_project,
            per_project_gen,
            generation,
            now,
            run_state,
            events_processed,
            peak_jobs,
            flaps_coalesced,
            avail_resched_skipped,
            ..
        } = self;
        let end = *end;
        let on_frac = *on_frac;
        let (sp_advance, sp_resched, sp_rpc) = (*sp_advance, *sp_resched, *sp_rpc);

        let Some((t_ev, event)) = queue.pop() else {
            return false;
        };
        *events_processed += 1;
        let t = t_ev.min(end);
        // 1. Account the elapsed interval under the constant allocation.
        if t > *now {
            // Per-project FLOPS change only with the running set.
            if *per_project_gen != Some(client.run_gen()) {
                client.flops_in_use_by_slot_into(per_project);
                *per_project_gen = Some(client.run_gen());
            }
            #[cfg(debug_assertions)]
            {
                let mut fresh = Vec::new();
                client.flops_in_use_by_slot_into(&mut fresh);
                let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
                    v.iter().map(|&(s, f)| (s, f.to_bits())).collect()
                };
                assert_eq!(
                    bits(&fresh),
                    bits(per_project),
                    "stale per-project FLOPS: a running-set change did not bump run_gen"
                );
            }
            metrics.advance(*now, t, per_project, run_state.can_compute);
            if let Some(tl) = timeline {
                record_timeline(tl, client, assignment, *now, t, *run_state, instances);
            }
        }
        let events = prof.time(sp_advance, || client.advance(t, *run_state));
        *now = t;
        let now = t;

        // 2. Report uploaded jobs to their servers and retire them.
        // Whether a result counts is the *server's* verdict: under the
        // default strict deadline check this equals the client-side
        // deadline test; grace/none policies are more forgiving.
        for id in &events.uploaded {
            let task = client.retire(*id).expect("uploaded task exists");
            let project = task.spec.project;
            let met = match servers.iter_mut().find(|s| s.id() == project) {
                Some(server) => {
                    server.check_deadlines(now);
                    server.report_completed(now, *id)
                }
                None => false,
            };
            let peak_flops = task.spec.usage.peak_flops_on(&*hw);
            metrics.record_job_done(
                met,
                if met { 0.0 } else { task.spec.duration.secs() * peak_flops },
            );
            if task.rollback_waste > 0.0 {
                metrics.record_rollback_waste(task.rollback_waste * peak_flops);
            }
            trace.emit(now, || TraceEvent::JobFinished { job: *id, project, met_deadline: met });
            assignment.remove(id);
        }

        // Fault bookkeeping: failed transfer attempts, jobs that
        // exhausted their retry budget, and crash-recovery progress.
        for &(job, upload) in &events.failed_transfers {
            metrics.record_transfer_failure();
            trace.emit(now, || TraceEvent::TransferFailed { job, upload });
        }
        for id in &events.errored {
            let task = client.retire(*id).expect("errored task exists");
            let project = task.spec.project;
            if let Some(server) = servers.iter_mut().find(|s| s.id() == project) {
                server.report_errored(*id);
            }
            metrics.record_job_errored(task.progress() * task.spec.usage.peak_flops_on(&*hw));
            trace.emit(now, || TraceEvent::JobErrored { job: *id, project });
            assignment.remove(id);
        }
        if !recoveries.is_empty() {
            recoveries.retain_mut(|r| {
                r.targets.retain(|&(id, target)| match client.task(id) {
                    // Still recovering only while the task is live,
                    // healthy, and below its pre-crash progress.
                    Some(t) => !t.is_errored() && t.progress() + 1e-9 < target,
                    None => false,
                });
                if r.targets.is_empty() {
                    let secs = (now - r.start).secs();
                    metrics.record_recovery(secs);
                    trace.emit(now, || TraceEvent::Recovered { secs });
                    false
                } else {
                    true
                }
            });
        }

        if now >= end {
            return false;
        }

        // 3. Interpret the event.
        let mut need_sched = !events.computed.is_empty() || !events.ready.is_empty();
        match event {
            Event::SchedPoint => {
                need_sched = true;
                queue.push(now + cfg.sched_period, Event::SchedPoint);
            }
            Event::Client { generation: g } => {
                if g == *generation {
                    need_sched = true;
                }
            }
            Event::AvailChange => {
                governor.advance(now);
                // Flap coalescing: absorb every further transition inside
                // the window into this event and evaluate the run state
                // once, after all of them. A host that flaps on/off n
                // times within the window costs one state evaluation
                // instead of n reschedule passes; a flap with zero net
                // delta then falls through to the skip branch below. The
                // cursor (not `now`) must drive the scan: recorded traces
                // and preference-window boundaries are pure functions of
                // the query time that `advance` does not consume, so
                // re-querying from a fixed `now` would never terminate.
                // With nothing to coalesce the cursor stays at `now` and
                // this arm is bit-identical to the uncoalesced path.
                let horizon = now + AVAIL_COALESCE_WINDOW;
                let mut cursor = now;
                loop {
                    let t_next = governor.next_change_after(cursor, &scenario.prefs);
                    if !(t_next.is_finite() && t_next <= horizon && t_next < end) {
                        break;
                    }
                    governor.advance(t_next);
                    cursor = t_next;
                    *flaps_coalesced += 1;
                }
                let new_state = governor.run_state(cursor, &scenario.prefs);
                if new_state != *run_state {
                    trace.emit(now, || TraceEvent::AvailChanged {
                        can_compute: new_state.can_compute,
                        can_gpu: new_state.can_gpu,
                        net_up: new_state.net_up,
                    });
                    *run_state = new_state;
                    need_sched = true;
                } else {
                    *avail_resched_skipped += 1;
                }
                // Requeue from the cursor, not `now`: transitions the scan
                // absorbed are already reflected in the state above, and
                // re-firing on them would undo the coalescing for pure
                // trace sources.
                let next = governor.next_change_after(cursor, &scenario.prefs);
                if next.is_finite() && next < end {
                    queue.push(next, Event::AvailChange);
                }
            }
            Event::FetchRetry { generation: g } => {
                if g == *generation {
                    need_sched = true;
                }
            }
            Event::Crash => {
                let outcome = client.crash(now);
                let lost_flops: f64 =
                    outcome.lost.iter().map(|&(id, secs)| secs * client.peak_flops_of(id)).sum();
                metrics.record_crash(lost_flops);
                trace.emit(now, || TraceEvent::Crashed {
                    tasks_rolled_back: outcome.lost.len() as u64,
                    exec_secs_lost: outcome.lost.iter().map(|&(_, s)| s).sum::<f64>(),
                    transfers_restarted: outcome.restarted_transfers as u64,
                });
                if !outcome.lost.is_empty() {
                    // Recovery target: the progress each task had at
                    // the instant of the crash (post-rollback progress
                    // plus what the crash destroyed).
                    let targets = outcome
                        .lost
                        .iter()
                        .map(|&(id, lost)| {
                            let p = client.task(id).map(|t| t.progress()).unwrap_or(0.0);
                            (id, p + lost)
                        })
                        .collect();
                    recoveries.push(RecoveryTracker { start: now, targets });
                }
                need_sched = true;
                if let Some(cp) = crash_proc {
                    let next = cp.next_after(now);
                    if next < end {
                        queue.push(next, Event::Crash);
                    }
                }
            }
        }

        if !need_sched {
            return true;
        }
        *generation += 1;

        // 4. Reschedule and run the fetch loop. The first fetch
        //    decision reuses the snapshot the reschedule was based on
        //    (as the pre-cache code did); later iterations refresh it,
        //    which re-runs the simulation only after an RPC actually
        //    changed the queue.
        let resched = prof.time(sp_resched, || client.reschedule(now, *run_state, on_frac));
        emit_scheduled(trace, now, &resched);
        let mut fetched_any = false;
        let mut first_rpc = true;
        prof.time(sp_rpc, || {
            for _ in 0..MAX_RPCS_PER_POINT {
                if !first_rpc {
                    client.rr_refresh(now, *run_state, on_frac);
                }
                first_rpc = false;
                let Some(decision) = client.fetch_decision(now, *run_state, client.rr_snapshot())
                else {
                    // Forensics: the queue wanted work (some type shows
                    // a shortfall) but no project was eligible. A
                    // disabled sink skips even the check.
                    if trace.is_enabled() && run_state.net_up {
                        let rr = client.rr_snapshot();
                        let wants = ProcType::ALL.iter().any(|&pt| rr.shortfall[pt] > 1.0);
                        if wants {
                            if let Some((p, until)) = client.next_fetch_unblock_detail(now) {
                                trace.emit(now, || TraceEvent::FetchDeferred { project: p, until });
                            }
                        }
                    }
                    break;
                };
                let project = decision.project;
                let mut request = SchedulerRequest::default();
                for pt in ProcType::ALL {
                    request.per_type[pt] = TypeRequest {
                        secs: decision.request.secs[pt],
                        instances: decision.request.instances[pt],
                    };
                }
                let server = servers
                    .iter_mut()
                    .find(|s| s.id() == project)
                    .expect("fetch decision for unknown project");
                server.check_deadlines(now);
                metrics.record_rpc();
                // Transient-fault injection: a lost request never reaches
                // the server (its state is untouched). With no injector
                // this is exactly the seed path.
                let lost_in_transit = rpc_faults.as_mut().is_some_and(|inj| inj.rpc_fails(project));
                let outcome = if lost_in_transit {
                    RpcOutcome::TransientFailure
                } else {
                    server.handle_rpc(now, &request)
                };
                match outcome {
                    RpcOutcome::Reply(reply) => {
                        trace.emit(now, || TraceEvent::RpcReply {
                            project,
                            cpu_secs: request.per_type[ProcType::Cpu].secs,
                            gpu_secs: request.per_type[ProcType::NvidiaGpu].secs
                                + request.per_type[ProcType::AtiGpu].secs,
                            jobs: reply.jobs.len() as u64,
                        });
                        let got_jobs = !reply.jobs.is_empty();
                        client.record_reply(now, project, reply.jobs, reply.delay);
                        fetched_any |= got_jobs;
                    }
                    RpcOutcome::Down => {
                        trace.emit(now, || TraceEvent::RpcDown { project });
                        client.record_rpc_failure(now, project);
                    }
                    RpcOutcome::TransientFailure => {
                        trace.emit(now, || TraceEvent::RpcLost { project });
                        let jitter_u = rpc_faults.as_mut().map_or(0.0, |inj| inj.jitter_u(project));
                        client.record_transient_rpc_failure(now, project, jitter_u);
                        metrics.record_transient_rpc_failure();
                    }
                }
            }
        });
        if fetched_any {
            let r2 = prof.time(sp_resched, || client.reschedule(now, *run_state, on_frac));
            emit_scheduled(trace, now, &r2);
        }
        *peak_jobs = (*peak_jobs).max(client.tasks().len());

        // 5. Refresh the timeline instance assignment (only kept up to
        //    date when a timeline is actually recorded) and schedule
        //    the next predicted client event.
        if timeline.is_some() {
            update_assignment(assignment, client, instances);
        }
        if let Some(t_next) = client.next_event_after(now) {
            // Enforce a minimum event granularity: predicted completion
            // times can round to `now` itself in f64 (a sub-picosecond
            // transfer residue at t ~ 10^4 s), which would stall the
            // clock with same-instant events. One millisecond is far
            // below anything the policies can observe.
            let t_next = t_next.max(now + SimDuration::from_secs(1e-3));
            if t_next <= end {
                queue.push(t_next, Event::Client { generation: *generation });
            }
        }
        if let Some(t_unblock) = client.next_fetch_unblock(now) {
            if t_unblock <= end {
                queue.push(t_unblock, Event::FetchRetry { generation: *generation });
            }
        }
        true
    }

    /// Produce the result and hand the reusable buffers (client scratch,
    /// event queue, per-project scratch) back to the arena.
    fn finalize(mut self, emu: &Emulator, arena: &mut EmulatorArena) -> EmulationResult {
        let scenario = &*emu.scenario;
        let merit = self.metrics.finalize(&self.shares);
        let total_used = self.metrics.total_flops_used();
        let projects: Vec<ProjectReport> = scenario
            .projects
            .iter()
            .map(|p| {
                let server = self.servers.iter().find(|s| s.id() == p.id).expect("server");
                let share_sum: f64 = scenario.projects.iter().map(|q| q.resource_share).sum();
                let flops_used = self.metrics.flops_used_by(p.id);
                ProjectReport {
                    id: p.id,
                    name: p.name.clone(),
                    share_frac: if share_sum > 0.0 { p.resource_share / share_sum } else { 0.0 },
                    used_frac: if total_used > 0.0 { flops_used / total_used } else { 0.0 },
                    flops_used,
                    jobs_completed: server.stats().reported_in_time + server.stats().reported_late,
                    jobs_missed_deadline: server.stats().reported_late,
                    rpcs: server.stats().rpcs + server.stats().failed_rpcs,
                }
            })
            .collect();

        let rr = self.client.rr_stats();
        let perf = PerfStats {
            events_processed: self.events_processed,
            peak_jobs: self.peak_jobs,
            rr_queries: rr.queries,
            rr_runs: rr.runs,
            rr_frozen: rr.frozen,
            flaps_coalesced: self.flaps_coalesced,
            avail_resched_skipped: self.avail_resched_skipped,
        };
        let jobs_unfinished =
            self.client.tasks().iter().filter(|t| !t.is_complete()).count() as u64;
        // Hand the working buffers back to the arena for the next run.
        arena.client = Some(self.client.into_scratch());
        arena.queue = self.queue;
        arena.per_project = self.per_project;
        let fault_metrics = self.metrics.fault_metrics();
        if let Some(start) = self.run_start {
            let sp_total = self.prof.span("emu.total");
            self.prof.add_wall_nanos(sp_total, start.elapsed().as_nanos());
        }
        let trace = self.trace.take_buffer();

        EmulationResult {
            scenario_name: scenario.name.clone(),
            merit,
            projects,
            jobs_completed: self.metrics.jobs_completed(),
            jobs_missed_deadline: self.metrics.jobs_missed(),
            jobs_unfinished,
            available_fraction: self.metrics.available_fraction(),
            total_flops_used: total_used,
            duration: emu.cfg.duration,
            faults: fault_metrics,
            perf,
            timeline: self.timeline,
            trace,
            profile: emu.cfg.profile.then(|| self.prof.report()),
        }
    }
}

/// Record a change of the running set. A reschedule that started and
/// preempted nothing is not a decision and emits nothing.
fn emit_scheduled(trace: &mut TraceSink, now: SimTime, r: &Reschedule) {
    if r.started.is_empty() && r.preempted.is_empty() {
        return;
    }
    trace.emit(now, || TraceEvent::Scheduled {
        started: r.started.clone(),
        preempted: r.preempted.clone(),
    });
}

/// Greedy stable instance assignment for the timeline: running jobs keep
/// their instances; new jobs take free ones.
fn update_assignment(
    assignment: &mut BTreeMap<JobId, Vec<InstanceId>>,
    client: &Client,
    instances: &[InstanceId],
) {
    let running: Vec<&bce_client::Task> =
        client.tasks().iter().filter(|t| t.is_running()).collect();
    // Drop assignments of no-longer-running jobs.
    let running_ids: std::collections::BTreeSet<JobId> =
        running.iter().map(|t| t.spec.id).collect();
    assignment.retain(|id, _| running_ids.contains(id));
    let mut taken: std::collections::BTreeSet<InstanceId> =
        assignment.values().flatten().copied().collect();
    for task in running {
        if assignment.contains_key(&task.spec.id) {
            continue;
        }
        let mut want: Vec<(ProcType, u32)> = Vec::new();
        match task.spec.usage.coproc {
            Some((t, n)) => want.push((t, (n.ceil() as u32).max(1))),
            None => want.push((ProcType::Cpu, (task.spec.usage.avg_cpus.round() as u32).max(1))),
        }
        let mut assigned = Vec::new();
        for (t, n) in want {
            let mut taken_count = 0;
            for inst in instances.iter().filter(|i| i.proc_type == t) {
                if taken_count >= n {
                    break;
                }
                if !taken.contains(inst) {
                    taken.insert(*inst);
                    assigned.push(*inst);
                    taken_count += 1;
                }
            }
        }
        assignment.insert(task.spec.id, assigned);
    }
}

/// Record one interval into the timeline.
fn record_timeline(
    timeline: &mut Timeline,
    client: &Client,
    assignment: &BTreeMap<JobId, Vec<InstanceId>>,
    from: SimTime,
    to: SimTime,
    run_state: HostRunState,
    instances: &[InstanceId],
) {
    let mut busy: BTreeMap<InstanceId, (ProjectId, JobId)> = BTreeMap::new();
    for task in client.tasks().iter().filter(|t| t.is_running()) {
        if let Some(assigned) = assignment.get(&task.spec.id) {
            for inst in assigned {
                busy.insert(*inst, (task.spec.project, task.spec.id));
            }
        }
    }
    for inst in instances {
        let occ = match busy.get(inst) {
            Some(&(project, job)) => Occupancy::Busy { project, job },
            None => {
                let allowed =
                    if inst.proc_type.is_gpu() { run_state.can_gpu } else { run_state.can_compute };
                if allowed {
                    Occupancy::Idle
                } else {
                    Occupancy::Unavailable
                }
            }
        };
        if let Some(track) = timeline.track_mut(*inst) {
            track.record(from, to, occ);
        }
    }
}
