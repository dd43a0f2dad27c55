//! The emulated BOINC client: owns the task queue, accounting, transfer
//! queues and policy state, and exposes the operations the emulator's
//! event loop drives (advance time, reschedule, decide fetches, ingest
//! replies).
//!
//! This module is the "emulation" half of BCE (§4.3): job scheduling, job
//! fetch and preference enforcement behave as the real client; job
//! execution, servers and availability are simulated around it.

use crate::accounting::{Accounting, AccountingSnapshot, UsageSample};
use crate::fetch::{self, Backoff, FetchDecision, FetchPolicy, FetchProject};
use crate::rr_sim::{self, RrJob, RrOutcome, RrPlatform, RrScratch};
use crate::sched::{self, JobSchedPolicy, PlanInput, PlanScratch};
use crate::task::{Task, TaskSnapshot, TaskState};
use crate::xfer::{NetworkModel, Transfers};
use bce_avail::HostRunState;
use bce_faults::{RetryPolicy, RetryState, RetryVerdict, TransferFaultModel};
use bce_sim::Rng;
use bce_types::{
    Hardware, JobId, JobSpec, Preferences, ProcMap, ProcType, ProjectId, SimDuration, SimTime,
};

/// Client-wide policy/configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    pub sched_policy: JobSchedPolicy,
    pub fetch_policy: FetchPolicy,
    /// Half-life `A` of the REC average (global accounting; Figure 6).
    pub rec_half_life: SimDuration,
    /// Optional link model; `None` = transfers are instant.
    pub network: Option<NetworkModel>,
}

impl Default for ClientConfig {
    /// The paper's "current" policy set: global accounting with EDF
    /// promotion and hysteresis-based fetch.
    fn default() -> Self {
        ClientConfig {
            sched_policy: JobSchedPolicy::GLOBAL,
            fetch_policy: FetchPolicy::Hysteresis,
            rec_half_life: SimDuration::from_days(10.0),
            network: None,
        }
    }
}

/// Client-side per-project state.
#[derive(Debug, Clone)]
pub struct ClientProject {
    pub id: ProjectId,
    pub name: String,
    pub share: f64,
    /// Which processor types the project supplies jobs for.
    pub supplies: ProcMap<bool>,
    backoff: Backoff,
    /// Backoff for *transient* communication failures (injected faults),
    /// kept separate from `backoff` so scheduled downtime and transient
    /// loss take distinct escalation paths.
    comm_retry: RetryState,
    /// Server-imposed minimum delay until the next RPC.
    next_rpc_allowed: SimTime,
}

impl ClientProject {
    /// Consecutive transient communication failures (for logs/tests).
    pub fn comm_failures(&self) -> u32 {
        self.comm_retry.consecutive_failures()
    }

    /// Earliest time the scheduled-downtime backoff allows another RPC.
    pub fn backoff_until(&self) -> SimTime {
        self.backoff.until()
    }
}

/// Which transfer queue a retry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XferDir {
    Download,
    Upload,
}

/// Backoff state for a failed transfer awaiting its next attempt. The
/// entry persists across attempts (so consecutive-failure counts survive
/// re-enqueues) and is dropped on completion or give-up.
#[derive(Debug, Clone)]
struct XferRetry {
    job: JobId,
    dir: XferDir,
    bytes: f64,
    state: RetryState,
}

/// What changed during [`Client::advance`].
#[derive(Debug, Clone, Default)]
pub struct AdvanceEvents {
    /// Jobs whose computation completed in the interval.
    pub computed: Vec<JobId>,
    /// Jobs whose input download finished (now runnable).
    pub ready: Vec<JobId>,
    /// Jobs whose output upload finished (now reportable).
    pub uploaded: Vec<JobId>,
    /// Jobs permanently failed (transfer retry budget exhausted).
    pub errored: Vec<JobId>,
    /// Transfer attempts that failed mid-flight in the interval (each will
    /// retry unless its job appears in `errored`).
    pub transfer_failures: u64,
    /// Per-attempt detail behind `transfer_failures`: `(job, upload)` for
    /// each failed attempt, in failure order (`upload == false` means a
    /// download). Only populated on fault paths, so the vector never
    /// allocates in fault-free runs.
    pub failed_transfers: Vec<(JobId, bool)>,
}

/// What changed during [`Client::reschedule`]. The RR snapshot the decision
/// was based on is available via [`Client::rr_snapshot`].
#[derive(Debug, Clone, Default)]
pub struct Reschedule {
    pub started: Vec<JobId>,
    pub preempted: Vec<JobId>,
}

/// Counters for the cached RR simulation (see [`Client::rr_refresh`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RrStats {
    /// Times a decision point asked for the RR snapshot.
    pub queries: u64,
    /// Times the simulation actually ran (cache misses).
    pub runs: u64,
    /// Queries served from the retained snapshot inside the frozen-progress
    /// window (partial refreshes; a subset of [`RrStats::hits`]).
    pub frozen: u64,
}

impl RrStats {
    pub fn hits(&self) -> u64 {
        self.queries - self.runs
    }
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hits() as f64 / self.queries as f64
        }
    }
}

/// Severity of the dirt accumulated since the last full RR simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DirtClass {
    /// Nothing relevant changed.
    #[default]
    Clean,
    /// Only running-task progress drifted (monotone remaining-estimate
    /// decay, or a start-rollback to the last task checkpoint). The group
    /// structure of the queue is unchanged.
    Progress,
    /// Structural change: job arrival/removal, task error, crash loss,
    /// share/preference change, or an explicit invalidation. The retained
    /// snapshot may be arbitrarily wrong.
    Global,
}

impl DirtClass {
    pub fn name(&self) -> &'static str {
        match self {
            DirtClass::Clean => "clean",
            DirtClass::Progress => "progress",
            DirtClass::Global => "global",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "clean" => Some(DirtClass::Clean),
            "progress" => Some(DirtClass::Progress),
            "global" => Some(DirtClass::Global),
            _ => None,
        }
    }
}

/// Tracks which `(proc type, project)` groups client mutations touched
/// since the last full RR simulation, and how severe the dirt is. Drives
/// the refresh ladder in [`Client::rr_refresh`]: progress-only dirt inside
/// the frozen window keeps the retained snapshot; global dirt always forces
/// a full re-simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DirtyGroups {
    class: DirtClass,
    /// Dirtied groups, deduped, in first-touch order. Bounded: once more
    /// than [`DirtyGroups::MAX_GROUPS`] distinct groups are touched the
    /// tracker escalates to [`DirtClass::Global`] (a mutation storm that
    /// wide will be re-simulated anyway).
    groups: Vec<(ProcType, ProjectId)>,
}

impl DirtyGroups {
    const MAX_GROUPS: usize = 32;

    /// Record progress-class dirt against one group.
    fn mark_progress(&mut self, pt: ProcType, project: ProjectId) {
        if self.class == DirtClass::Global {
            return;
        }
        if self.class == DirtClass::Clean {
            self.class = DirtClass::Progress;
        }
        if !self.groups.contains(&(pt, project)) {
            if self.groups.len() >= Self::MAX_GROUPS {
                self.class = DirtClass::Global;
                return;
            }
            self.groups.push((pt, project));
        }
    }

    /// Record a structural (cross-group) mutation.
    fn mark_global(&mut self) {
        self.class = DirtClass::Global;
    }

    fn clear(&mut self) {
        self.class = DirtClass::Clean;
        self.groups.clear();
    }

    pub fn class(&self) -> DirtClass {
        self.class
    }

    /// The dirtied groups (meaningful for [`DirtClass::Progress`]).
    pub fn groups(&self) -> &[(ProcType, ProjectId)] {
        &self.groups
    }

    /// Rebuild from captured parts (checkpoint restore).
    pub fn from_parts(class: DirtClass, groups: Vec<(ProcType, ProjectId)>) -> Self {
        DirtyGroups { class, groups }
    }
}

/// Cache key for the RR snapshot: everything `rr_simulate`'s inputs depend
/// on besides client state, plus the client-state generation counter.
type RrKey = (SimTime, HostRunState, u64, u64);

/// The client's reusable heap buffers, extractable after a run and fed
/// back into the next client via [`Client::with_scratch`]. A worker that
/// emulates thousands of scenarios reuses one scratch so the task queue,
/// RR-simulation working state and accounting sample are allocated once
/// per worker instead of once per run. All buffers are cleared on reuse,
/// so a recycled client is bit-identical to a fresh one.
#[derive(Debug, Default)]
pub struct ClientScratch {
    tasks: Vec<Task>,
    finished: Vec<Task>,
    xfer_retries: Vec<XferRetry>,
    rr_jobs: Vec<RrJob>,
    rr_scratch: RrScratch,
    rr_cache: RrOutcome,
    usage_buf: UsageSample,
    plan_scratch: PlanScratch,
}

impl ClientScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Captured per-project client state (checkpointing).
#[derive(Debug, Clone)]
pub struct ProjectClientSnapshot {
    pub id: ProjectId,
    pub backoff: RetryState,
    pub comm_retry: RetryState,
    pub next_rpc_allowed: SimTime,
}

/// Captured backoff entry for one failed transfer awaiting retry.
#[derive(Debug, Clone)]
pub struct XferRetrySnapshot {
    pub job: JobId,
    /// `true` = upload queue, `false` = download queue.
    pub upload: bool,
    pub bytes: f64,
    pub state: RetryState,
}

/// Complete mutable state of the emulated client, for checkpointing.
///
/// Scenario constants (hardware, preferences, shares, policies, fault
/// models) are *not* captured: restore rebuilds the client through the
/// normal construction path and then overwrites the mutable state from
/// this snapshot. The RR cache (`rr_cache`/`rr_key`/`rr_stats`) is part of
/// the capture so the restored run reproduces the exact cache hit/miss
/// sequence — and therefore the `rr_runs` perf counter — of the
/// uninterrupted run.
#[derive(Debug, Clone)]
pub struct ClientSnapshot {
    pub projects: Vec<ProjectClientSnapshot>,
    pub tasks: Vec<TaskSnapshot>,
    pub finished: Vec<TaskSnapshot>,
    pub accounting: AccountingSnapshot,
    pub downloads: Vec<(JobId, f64, f64, Option<f64>)>,
    pub uploads: Vec<(JobId, f64, f64, Option<f64>)>,
    pub last_advance: SimTime,
    pub rpcs_issued: u64,
    /// Transfer-fault stream position; `None` when faults are disabled.
    pub xfer_faults_rng: Option<Rng>,
    pub xfer_retries: Vec<XferRetrySnapshot>,
    pub state_gen: u64,
    pub rr_cache: RrOutcome,
    pub rr_key: Option<(SimTime, HostRunState, u64, u64)>,
    pub rr_stats: RrStats,
    /// End of the retained snapshot's frozen-progress validity window.
    pub rr_frozen_until: SimTime,
    /// Dirt accumulated since the snapshot's last full simulation.
    pub rr_dirty: DirtyGroups,
}

/// The emulated client.
pub struct Client {
    pub cfg: ClientConfig,
    pub hw: Hardware,
    pub prefs: Preferences,
    projects: Vec<ClientProject>,
    tasks: Vec<Task>,
    finished: Vec<Task>,
    accounting: Accounting,
    transfers: Transfers,
    last_advance: SimTime,
    rpcs_issued: u64,
    /// Backoff policy for transient RPC failures (shared across projects).
    rpc_retry_policy: RetryPolicy,
    /// Transfer fault plan source; `None` = transfers never fail.
    xfer_faults: Option<TransferFaultModel>,
    /// Failed transfers awaiting their next attempt.
    xfer_retries: Vec<XferRetry>,
    /// Generation counter of RR-simulation-relevant client state; bumped by
    /// every mutation that can change the simulation's inputs (see the
    /// "Hot path & caching invariants" section of DESIGN.md).
    state_gen: u64,
    /// Reusable platform description: shares are fixed at construction,
    /// `now`/`ninstances`/`on_frac` are refreshed per simulation.
    rr_platform: RrPlatform,
    /// Reusable job-list buffer for the simulation.
    rr_jobs: Vec<RrJob>,
    rr_scratch: RrScratch,
    /// The cached simulation outcome; valid for `rr_key`, or — when only
    /// progress-class dirt accumulated — until `rr_frozen_until`.
    rr_cache: RrOutcome,
    rr_key: Option<RrKey>,
    rr_stats: RrStats,
    /// End of the frozen-progress window opened by the last full
    /// simulation (see `rr_refresh`). `SimTime::from_secs(f64::INFINITY)`
    /// when the simulated queue was empty (the outcome is then
    /// `now`-independent).
    rr_frozen_until: SimTime,
    /// Which groups mutations dirtied since the last full simulation.
    rr_dirty: DirtyGroups,
    /// Reusable accounting sample, refilled each advance.
    usage_buf: UsageSample,
    /// Reusable planner workspace ([`sched::plan_into`]).
    plan_scratch: PlanScratch,
}

/// What a host crash destroyed (see [`Client::crash`]).
#[derive(Debug, Clone, Default)]
pub struct CrashOutcome {
    /// `(job, execution seconds lost)` for every task rolled back to its
    /// last checkpoint.
    pub lost: Vec<(JobId, f64)>,
    /// Number of in-flight transfers restarted from byte zero.
    pub restarted_transfers: usize,
}

impl Client {
    pub fn new(
        hw: Hardware,
        prefs: Preferences,
        projects: Vec<ClientProject>,
        cfg: ClientConfig,
    ) -> Self {
        Self::with_scratch(hw, prefs, projects, cfg, ClientScratch::default())
    }

    /// As [`Client::new`], but recycling the heap buffers of a previous
    /// client (see [`ClientScratch`]). Buffers are cleared before reuse;
    /// behaviour is bit-identical to a freshly allocated client.
    pub fn with_scratch(
        hw: Hardware,
        prefs: Preferences,
        projects: Vec<ClientProject>,
        cfg: ClientConfig,
        scratch: ClientScratch,
    ) -> Self {
        let ClientScratch {
            mut tasks,
            mut finished,
            mut xfer_retries,
            mut rr_jobs,
            rr_scratch,
            rr_cache,
            mut usage_buf,
            plan_scratch,
        } = scratch;
        tasks.clear();
        finished.clear();
        xfer_retries.clear();
        rr_jobs.clear();
        // `rr_scratch` and `rr_cache` are fully overwritten by every
        // simulation call, and `rr_key: None` below guarantees the first
        // snapshot query re-runs the simulation before anything reads the
        // recycled cache contents.
        let accounting = Accounting::new(
            cfg.sched_policy.accounting,
            projects.iter().map(|p| (p.id, p.share)),
            cfg.rec_half_life,
        );
        usage_buf.reset(accounting.num_slots());
        let transfers = Transfers::new(cfg.network);
        let rr_platform = RrPlatform {
            now: SimTime::ZERO,
            ninstances: ProcMap::zero(),
            on_frac: 1.0,
            shares: projects.iter().map(|p| (p.id, p.share)).collect(),
        };
        Client {
            cfg,
            hw,
            prefs,
            projects,
            tasks,
            finished,
            accounting,
            transfers,
            last_advance: SimTime::ZERO,
            rpcs_issued: 0,
            rpc_retry_policy: RetryPolicy::SCHEDULER_RPC,
            xfer_faults: None,
            xfer_retries,
            state_gen: 0,
            rr_platform,
            rr_jobs,
            rr_scratch,
            rr_cache,
            rr_key: None,
            rr_stats: RrStats::default(),
            rr_frozen_until: SimTime::ZERO,
            rr_dirty: DirtyGroups::default(),
            usage_buf,
            plan_scratch,
        }
    }

    /// Tear the client down, handing back its reusable buffers for the
    /// next run (the arena path's per-worker emulator reuse).
    pub fn into_scratch(self) -> ClientScratch {
        ClientScratch {
            tasks: self.tasks,
            finished: self.finished,
            xfer_retries: self.xfer_retries,
            rr_jobs: self.rr_jobs,
            rr_scratch: self.rr_scratch,
            rr_cache: self.rr_cache,
            usage_buf: self.usage_buf,
            plan_scratch: self.plan_scratch,
        }
    }

    /// Override the transient-RPC backoff policy (defaults to
    /// [`RetryPolicy::SCHEDULER_RPC`]).
    pub fn set_rpc_retry_policy(&mut self, policy: RetryPolicy) {
        self.rpc_retry_policy = policy;
    }

    /// Install a transfer fault plan: subsequent transfer attempts may be
    /// planned to fail mid-flight and retry under the model's policy.
    pub fn set_transfer_faults(&mut self, model: TransferFaultModel) {
        self.xfer_faults = Some(model);
    }

    /// Build per-project state from `(id, name, share, supplied types)`.
    pub fn project(
        id: u32,
        name: impl Into<String>,
        share: f64,
        supplies: &[ProcType],
    ) -> ClientProject {
        let mut s = ProcMap::from_fn(|_| false);
        for &t in supplies {
            s[t] = true;
        }
        ClientProject {
            id: ProjectId(id),
            name: name.into(),
            share,
            supplies: s,
            backoff: Backoff::new(),
            comm_retry: RetryState::new(),
            next_rpc_allowed: SimTime::ZERO,
        }
    }

    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    pub fn finished(&self) -> &[Task] {
        &self.finished
    }

    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    pub fn projects(&self) -> &[ClientProject] {
        &self.projects
    }

    pub fn rpcs_issued(&self) -> u64 {
        self.rpcs_issued
    }

    /// Is this job's input download still in flight (or awaiting retry)?
    pub fn transfers_pending_download(&self, id: JobId) -> bool {
        self.transfers.downloads.contains(id)
            || self.xfer_retries.iter().any(|r| r.job == id && r.dir == XferDir::Download)
    }

    fn task_mut(&mut self, id: JobId) -> Option<&mut Task> {
        self.tasks.iter_mut().find(|t| t.spec.id == id)
    }

    pub fn task(&self, id: JobId) -> Option<&Task> {
        self.tasks.iter().find(|t| t.spec.id == id)
    }

    /// RAM budget under the busy/idle preference pair.
    pub fn mem_budget(&self, run_state: HostRunState) -> f64 {
        let frac = if run_state.user_active {
            self.prefs.ram_max_frac_busy
        } else {
            self.prefs.ram_max_frac_idle
        };
        self.hw.mem_bytes * frac
    }

    /// Is `p` one of the projects this client is attached to?
    fn attached(&self, p: ProjectId) -> bool {
        self.accounting.slot_of(p).is_some()
    }

    /// Restore an in-flight job from an imported state file, with its
    /// recorded execution progress.
    ///
    /// # Panics
    /// If the job's project is not attached (a validated scenario's
    /// initial queue names only its own projects).
    pub fn add_initial_task(&mut self, spec: JobSpec, progress: SimDuration) {
        assert!(self.attached(spec.project), "initial task of unattached project {}", spec.project);
        let task = Task::with_progress(spec, progress);
        if task.state() == TaskState::Downloading {
            self.enqueue_transfer(task.spec.id, task.spec.input_bytes, XferDir::Download);
        }
        self.tasks.push(task);
        self.state_gen += 1;
        self.rr_dirty.mark_global();
    }

    /// Queue a transfer attempt, consulting the fault plan (if any) for a
    /// mid-flight failure point.
    fn enqueue_transfer(&mut self, job: JobId, bytes: f64, dir: XferDir) {
        let fail_after = self.xfer_faults.as_mut().and_then(|m| m.plan_attempt(bytes));
        match dir {
            XferDir::Download => self.transfers.downloads.enqueue_faulty(job, bytes, fail_after),
            XferDir::Upload => self.transfers.uploads.enqueue_faulty(job, bytes, fail_after),
        };
    }

    /// Can this job ever run on this host? (The real client errors out
    /// tasks that need more instances than the host has.)
    pub fn job_feasible(&self, spec: &JobSpec) -> bool {
        ProcType::ALL
            .iter()
            .all(|&t| spec.usage.instances_of(t) <= self.hw.ninstances(t) as f64 + 1e-9)
    }

    /// Ingest jobs from a scheduler reply. Infeasible jobs, and jobs of a
    /// project the client is not attached to, are rejected (client-side
    /// error, as in the real client) and their ids returned.
    pub fn add_jobs(&mut self, jobs: Vec<JobSpec>) -> Vec<JobId> {
        let mut rejected = Vec::new();
        let mut accepted_any = false;
        for spec in jobs {
            if !self.job_feasible(&spec) || !self.attached(spec.project) {
                rejected.push(spec.id);
                continue;
            }
            let task = Task::new(spec);
            if task.state() == TaskState::Downloading {
                self.enqueue_transfer(task.spec.id, task.spec.input_bytes, XferDir::Download);
            }
            self.tasks.push(task);
            accepted_any = true;
        }
        if accepted_any {
            self.state_gen += 1;
            self.rr_dirty.mark_global();
        }
        rejected
    }

    /// Progress running tasks, transfers and accounting to `now`. The
    /// running set and run state must be constant over the interval (the
    /// emulator reschedules at every event boundary).
    pub fn advance(&mut self, now: SimTime, run_state: HostRunState) -> AdvanceEvents {
        let mut ev = AdvanceEvents::default();
        let dt = now - self.last_advance;
        if !dt.is_positive() {
            self.last_advance = now;
            return ev;
        }

        // Accounting sees the interval's usage before tasks mutate.
        Self::fill_usage_sample(
            &self.accounting,
            &self.projects,
            &self.tasks,
            &self.hw,
            &mut self.usage_buf,
        );
        self.accounting.update(self.last_advance, now, &self.hw, &self.usage_buf);

        // Transfers progress first: uploads enqueued by completions later
        // in this interval must not receive this interval's bandwidth.
        let dl = self.transfers.downloads.advance(dt, run_state.net_up);
        for &id in &dl.completed {
            if let Some(task) = self.task_mut(id) {
                task.download_done();
                ev.ready.push(id);
            }
        }
        let ul = self.transfers.uploads.advance(dt, run_state.net_up);
        ev.uploaded.extend(ul.completed.iter().copied());
        // Finished transfers clear their retry state.
        if !self.xfer_retries.is_empty() {
            self.xfer_retries.retain(|r| match r.dir {
                XferDir::Download => !dl.completed.contains(&r.job),
                XferDir::Upload => !ul.completed.contains(&r.job),
            });
        }
        for id in dl.failed {
            self.transfer_failed(now, id, XferDir::Download, &mut ev);
        }
        for id in ul.failed {
            self.transfer_failed(now, id, XferDir::Upload, &mut ev);
        }

        let mut progressed = false;
        for task in &mut self.tasks {
            if task.is_running() {
                progressed = true;
                self.rr_dirty.mark_progress(task.spec.usage.main_proc_type(), task.spec.project);
                if task.advance(dt, now) {
                    ev.computed.push(task.spec.id);
                }
            }
        }
        // Completed jobs with output files start uploading; others are
        // immediately reportable (handled by the caller).
        for i in 0..ev.computed.len() {
            let id = ev.computed[i];
            let out_bytes = self.task(id).map(|t| t.spec.output_bytes).unwrap_or(0.0);
            if out_bytes > 0.0 {
                self.enqueue_transfer(id, out_bytes, XferDir::Upload);
            } else {
                ev.uploaded.push(id);
            }
        }

        // Re-attempt transfers whose backoff has expired.
        self.release_due_transfer_retries(now);

        // Running tasks gained progress and errored tasks left the queue,
        // both of which change the RR simulation's inputs. Transfer-only
        // activity does not (downloading tasks are simulated either way).
        if progressed || !ev.errored.is_empty() {
            self.state_gen += 1;
        }
        if !ev.errored.is_empty() {
            self.rr_dirty.mark_global();
        }
        self.last_advance = now;
        ev
    }

    /// A transfer attempt failed: escalate its backoff, or error the job
    /// once the policy's give-up limit is hit.
    fn transfer_failed(&mut self, now: SimTime, job: JobId, dir: XferDir, ev: &mut AdvanceEvents) {
        ev.transfer_failures += 1;
        ev.failed_transfers.push((job, matches!(dir, XferDir::Upload)));
        let bytes = match (dir, self.task(job)) {
            (XferDir::Download, Some(t)) => t.spec.input_bytes,
            (XferDir::Upload, Some(t)) => t.spec.output_bytes,
            (_, None) => return,
        };
        let (policy, jitter_u) = match self.xfer_faults.as_mut() {
            Some(m) => (m.retry, m.jitter_u()),
            None => (RetryPolicy::TRANSFER, 0.0),
        };
        let entry = match self.xfer_retries.iter_mut().find(|r| r.job == job && r.dir == dir) {
            Some(r) => r,
            None => {
                self.xfer_retries.push(XferRetry { job, dir, bytes, state: RetryState::new() });
                self.xfer_retries.last_mut().unwrap()
            }
        };
        match entry.state.fail(now, &policy, jitter_u) {
            RetryVerdict::RetryAt(_) => {}
            RetryVerdict::GiveUp => {
                self.xfer_retries.retain(|r| !(r.job == job && r.dir == dir));
                if let Some(task) = self.task_mut(job) {
                    task.error();
                }
                ev.errored.push(job);
            }
        }
    }

    /// Re-enqueue failed transfers whose backoff window has passed. Each
    /// new attempt gets a fresh fault plan; the retry entry persists so
    /// consecutive-failure counts accumulate toward the give-up limit.
    fn release_due_transfer_retries(&mut self, now: SimTime) {
        for i in 0..self.xfer_retries.len() {
            let (job, dir, bytes, until) = {
                let r = &self.xfer_retries[i];
                (r.job, r.dir, r.bytes, r.state.until)
            };
            if until > now {
                continue;
            }
            let in_flight = match dir {
                XferDir::Download => self.transfers.downloads.contains(job),
                XferDir::Upload => self.transfers.uploads.contains(job),
            };
            if !in_flight {
                self.enqueue_transfer(job, bytes, dir);
            }
        }
    }

    /// Usage/runnability snapshot for accounting, refilled into a reusable
    /// buffer (this runs once per event interval).
    fn fill_usage_sample(
        accounting: &Accounting,
        projects: &[ClientProject],
        tasks: &[Task],
        hw: &Hardware,
        sample: &mut UsageSample,
    ) {
        // Every queued task's project is attached (`add_jobs`,
        // `add_initial_task` and `restore_snapshot` check it), and every
        // attached project has an accounting slot.
        let slot_of = |p: ProjectId| accounting.slot_of(p).expect("attached project has a slot");
        sample.clear();
        for p in projects {
            for t in ProcType::ALL {
                if p.supplies[t] && hw.ninstances(t) > 0 {
                    sample.mark_fetchable(t, slot_of(p.id));
                }
            }
        }
        for task in tasks {
            let running = task.is_running();
            let runnable = !task.is_complete() && !task.is_errored();
            if !running && !runnable {
                continue;
            }
            let slot = slot_of(task.spec.project);
            if running {
                let entry = sample.used_entry(slot);
                entry[ProcType::Cpu] += task.spec.usage.avg_cpus;
                if let Some((t, n)) = task.spec.usage.coproc {
                    entry[t] += n;
                }
            }
            if runnable {
                sample.mark_runnable(task.spec.usage.main_proc_type(), slot);
            }
        }
    }

    /// Usable instances per type under the current run state and
    /// preference limits.
    fn rr_ninstances(&self, run_state: HostRunState) -> ProcMap<f64> {
        ProcMap::from_fn(|t| match t {
            ProcType::Cpu => {
                if run_state.can_compute {
                    self.prefs.usable_cpus(self.hw.ninstances(ProcType::Cpu)) as f64
                } else {
                    0.0
                }
            }
            _ => {
                if run_state.can_gpu {
                    self.hw.ninstances(t) as f64
                } else {
                    0.0
                }
            }
        })
    }

    /// Collect the RR-simulation view of the current queue into `out`.
    /// Includes every uncompleted task (even ones still downloading): they
    /// are committed work for queue-sizing purposes.
    fn collect_rr_jobs(tasks: &[Task], out: &mut Vec<RrJob>) {
        out.clear();
        out.extend(tasks.iter().filter(|t| !t.is_complete() && !t.is_errored()).map(|t| RrJob {
            id: t.spec.id,
            project: t.spec.project,
            proc_type: t.spec.usage.main_proc_type(),
            instances: t.spec.usage.instances_of(t.spec.usage.main_proc_type()),
            remaining: t.remaining_est(),
            deadline: t.spec.deadline(),
        }));
    }

    /// Run the round-robin simulation over the current queue (§3.2), with
    /// the shortfall horizon at `max_queue`. Uncached: allocates fresh
    /// working state per call. Decision paths use [`Client::rr_refresh`] /
    /// [`Client::rr_snapshot`] instead.
    pub fn rr_simulate(&self, now: SimTime, run_state: HostRunState, on_frac: f64) -> RrOutcome {
        let platform = RrPlatform {
            now,
            ninstances: self.rr_ninstances(run_state),
            on_frac,
            shares: self.projects.iter().map(|p| (p.id, p.share)).collect(),
        };
        let mut jobs = Vec::new();
        Self::collect_rr_jobs(&self.tasks, &mut jobs);
        rr_sim::simulate(&platform, &jobs, self.prefs.work_buf_max())
    }

    /// Mark the cached RR snapshot stale. Called internally by every
    /// mutation that changes the simulation's inputs; call it manually
    /// after mutating the public `hw`/`prefs` fields directly.
    pub fn invalidate_rr(&mut self) {
        self.state_gen += 1;
        self.rr_dirty.mark_global();
    }

    /// Current value of the RR-relevant state generation counter.
    pub fn rr_generation(&self) -> u64 {
        self.state_gen
    }

    /// Cache-hit counters for the RR simulation.
    pub fn rr_stats(&self) -> RrStats {
        self.rr_stats
    }

    /// The cached RR snapshot from the last [`Client::rr_refresh`].
    pub fn rr_snapshot(&self) -> &RrOutcome {
        &self.rr_cache
    }

    /// Fraction of the tightest job's deadline slack the frozen-progress
    /// window may cover. Bounds the classification drift of serving a
    /// retained snapshot: a job's endangered/safe verdict can flip at most
    /// ~2τ of slack early or late, i.e. ≤ ~10% of the tightest slack —
    /// small against the latency bounds that set the slack, and further
    /// capped by an eighth of the minimum work buffer below (shortfall
    /// staleness must stay small against the buffer depth that triggers
    /// fetches, or shallow-queue scenarios drift visibly; the paper's
    /// Figure 3 scenario is the sentinel for that regime).
    const FROZEN_SLACK_FRAC: f64 = 0.05;

    /// End of the frozen-progress validity window opened by a full
    /// simulation at `now` over `jobs`: `now + τ` with
    /// `τ = clamp(0.05 · min slack, 0, 0.125 · work_buf_min)`. An empty
    /// queue's outcome is `now`-independent, so its window never closes.
    fn frozen_until(now: SimTime, jobs: &[RrJob], prefs: &Preferences) -> SimTime {
        // True slack — time to the deadline minus the remaining compute —
        // not mere deadline distance: a long job close to its deadline has
        // tiny slack even when the deadline itself is far away, and the
        // endangered/safe verdict drifts on the slack scale.
        let mut min_slack = f64::INFINITY;
        for j in jobs {
            min_slack = min_slack.min((j.deadline - now).secs() - j.remaining.secs());
        }
        if min_slack.is_infinite() {
            return SimTime::from_secs(f64::INFINITY);
        }
        let cap = 0.125 * prefs.work_buf_min.secs();
        let tau = (Self::FROZEN_SLACK_FRAC * min_slack).clamp(0.0, cap.max(0.0));
        now + SimDuration::from_secs(tau)
    }

    /// Ensure the cached RR snapshot is valid for `(now, run_state,
    /// on_frac)` and the current client state, re-running the simulation
    /// only if something relevant changed since the previous call. The
    /// refreshed snapshot is read via [`Client::rr_snapshot`].
    ///
    /// Refresh ladder:
    /// 1. *Pure hit*: the key (including the state generation) matches —
    ///    the snapshot is exact.
    /// 2. *Frozen hit*: only progress-class dirt accumulated since the
    ///    last full simulation, the platform (run state, `on_frac`) is
    ///    unchanged and `now` is still inside the frozen window — the
    ///    retained snapshot is served as-is. Running-task progress only
    ///    drifts job completion estimates by at most the window length τ,
    ///    which `Client::frozen_until` bounds to a small fraction of the
    ///    tightest deadline slack and of the minimum work buffer, so
    ///    endangered-set and fetch-trigger decisions move by at most that
    ///    bounded amount.
    /// 3. *Full run*: anything else (global dirt, platform change, window
    ///    expired) re-simulates from the live queue.
    pub fn rr_refresh(&mut self, now: SimTime, run_state: HostRunState, on_frac: f64) {
        self.rr_stats.queries += 1;
        let key: RrKey = (now, run_state, on_frac.to_bits(), self.state_gen);
        if self.rr_key == Some(key) {
            return;
        }
        if self.rr_dirty.class() != DirtClass::Global
            && now <= self.rr_frozen_until
            && matches!(self.rr_key, Some((k_now, k_rs, k_of, _))
                if k_rs == run_state && k_of == on_frac.to_bits() && k_now <= now)
        {
            self.rr_stats.frozen += 1;
            // Re-key so repeated queries at this instant become pure hits;
            // the frozen window stays anchored at the last full simulation.
            self.rr_key = Some(key);
            return;
        }
        self.rr_stats.runs += 1;
        self.rr_platform.now = now;
        self.rr_platform.ninstances = self.rr_ninstances(run_state);
        self.rr_platform.on_frac = on_frac;
        Self::collect_rr_jobs(&self.tasks, &mut self.rr_jobs);
        rr_sim::simulate_into(
            &self.rr_platform,
            &self.rr_jobs,
            self.prefs.work_buf_max(),
            &mut self.rr_scratch,
            &mut self.rr_cache,
        );
        self.rr_dirty.clear();
        self.rr_frozen_until = Self::frozen_until(now, &self.rr_jobs, &self.prefs);
        self.rr_key = Some(key);
    }

    /// The dirt tracker's current view (observability/tests).
    pub fn rr_dirty(&self) -> &DirtyGroups {
        &self.rr_dirty
    }

    /// Apply the job-scheduling policy (§3.3): start/preempt tasks so the
    /// running set matches the plan.
    pub fn reschedule(
        &mut self,
        now: SimTime,
        run_state: HostRunState,
        on_frac: f64,
    ) -> Reschedule {
        self.rr_refresh(now, run_state, on_frac);
        let plan = {
            let input = PlanInput {
                now,
                tasks: &self.tasks,
                rr: &self.rr_cache,
                accounting: &self.accounting,
                hw: &self.hw,
                prefs: &self.prefs,
                run_state,
                mem_budget: self.mem_budget(run_state),
            };
            sched::plan_into(self.cfg.sched_policy, &input, &mut self.plan_scratch)
        };
        let mut started = Vec::new();
        let mut preempted = Vec::new();
        let mut progress_changed = false;
        let keep_in_memory = self.prefs.leave_apps_in_memory;
        for (i, task) in self.tasks.iter_mut().enumerate() {
            let should_run = plan.contains(i);
            if task.is_running() && !should_run {
                task.preempt(keep_in_memory);
                preempted.push(task.spec.id);
            } else if !task.is_running() && should_run {
                // Starting an evicted task rolls it back to its last
                // checkpoint, which changes its remaining estimate.
                let before = task.progress();
                task.start();
                if task.progress() != before {
                    progress_changed = true;
                    self.rr_dirty
                        .mark_progress(task.spec.usage.main_proc_type(), task.spec.project);
                }
                started.push(task.spec.id);
            }
        }
        if progress_changed {
            self.state_gen += 1;
        }
        Reschedule { started, preempted }
    }

    /// Apply the job-fetch policy (§3.4) to the given RR snapshot.
    pub fn fetch_decision(
        &self,
        now: SimTime,
        run_state: HostRunState,
        rr: &RrOutcome,
    ) -> Option<FetchDecision> {
        if !run_state.net_up {
            return None;
        }
        // No type triggers the policy: skip building the per-project
        // eligibility list (`decide` would return None anyway).
        if !fetch::would_fetch(self.cfg.fetch_policy, rr, &self.hw, &self.prefs, run_state.can_gpu)
        {
            return None;
        }
        let projects: Vec<FetchProject> = self
            .projects
            .iter()
            .map(|p| FetchProject {
                id: p.id,
                share: p.share,
                supplies: p.supplies,
                backoff_until: p.backoff.until().max(p.comm_retry.until).max(p.next_rpc_allowed),
            })
            .collect();
        fetch::decide(
            self.cfg.fetch_policy,
            now,
            rr,
            &self.hw,
            &self.prefs,
            &self.accounting,
            &projects,
            run_state.can_gpu,
        )
    }

    /// Record the result of an RPC: jobs received (or not) and the
    /// server-imposed delay.
    pub fn record_reply(
        &mut self,
        now: SimTime,
        project: ProjectId,
        jobs: Vec<JobSpec>,
        delay: SimDuration,
    ) {
        self.rpcs_issued += 1;
        let njobs = jobs.len();
        let rejected = self.add_jobs(jobs);
        let accepted_any = rejected.len() < njobs;
        if let Some(p) = self.projects.iter_mut().find(|p| p.id == project) {
            p.next_rpc_allowed = now + delay;
            // Any reply at all means communication worked.
            p.comm_retry.succeed();
            // An empty reply, or a reply whose every job was infeasible,
            // backs the project off — otherwise a project supplying only
            // unrunnable jobs would monopolize fetch forever.
            if accepted_any {
                p.backoff.succeed();
            } else {
                p.backoff.fail(now);
            }
        }
    }

    /// Record an RPC that failed to reach the server (scheduled downtime:
    /// escalates the project's ordinary backoff).
    pub fn record_rpc_failure(&mut self, now: SimTime, project: ProjectId) {
        self.rpcs_issued += 1;
        if let Some(p) = self.projects.iter_mut().find(|p| p.id == project) {
            p.backoff.fail(now);
        }
    }

    /// Record a *transient* communication failure (injected fault): the RPC
    /// was lost in transit, so it escalates the project's comm backoff
    /// under [`Client::set_rpc_retry_policy`]'s policy rather than the
    /// scheduled-downtime backoff. `jitter_u` is a uniform draw in
    /// `[0, 1)` for jittered policies (ignored when jitter is zero).
    pub fn record_transient_rpc_failure(
        &mut self,
        now: SimTime,
        project: ProjectId,
        jitter_u: f64,
    ) {
        self.rpcs_issued += 1;
        let policy = self.rpc_retry_policy;
        if let Some(p) = self.projects.iter_mut().find(|p| p.id == project) {
            // Scheduler RPCs are never abandoned: a GiveUp verdict still
            // leaves the backoff in place for the next attempt.
            let _ = p.comm_retry.fail(now, &policy, jitter_u);
        }
    }

    /// Host crash at `now`: every task loses all progress since its last
    /// checkpoint (eager rollback — the in-memory images are gone) and
    /// every in-flight transfer restarts from byte zero with a fresh fault
    /// plan. Backoff and accounting state survive (they model on-disk
    /// client state).
    pub fn crash(&mut self, _now: SimTime) -> CrashOutcome {
        let mut out = CrashOutcome::default();
        for task in &mut self.tasks {
            if task.is_runnable() {
                let lost = task.crash();
                if lost > 0.0 {
                    out.lost.push((task.spec.id, lost));
                }
            }
        }
        let dropped_dl = self.transfers.downloads.restart_all();
        let dropped_ul = self.transfers.uploads.restart_all();
        out.restarted_transfers = dropped_dl.len() + dropped_ul.len();
        for (job, bytes) in dropped_dl {
            self.enqueue_transfer(job, bytes, XferDir::Download);
        }
        for (job, bytes) in dropped_ul {
            self.enqueue_transfer(job, bytes, XferDir::Upload);
        }
        if !out.lost.is_empty() {
            self.state_gen += 1;
            // A crash can roll many tasks back at once across the whole
            // queue; treat it as structural rather than bounding the drift.
            self.rr_dirty.mark_global();
        }
        out
    }

    /// Capture the client's complete mutable state (checkpointing).
    pub fn snapshot(&self) -> ClientSnapshot {
        ClientSnapshot {
            projects: self
                .projects
                .iter()
                .map(|p| ProjectClientSnapshot {
                    id: p.id,
                    backoff: p.backoff.retry_state(),
                    comm_retry: p.comm_retry,
                    next_rpc_allowed: p.next_rpc_allowed,
                })
                .collect(),
            tasks: self.tasks.iter().map(Task::snapshot).collect(),
            finished: self.finished.iter().map(Task::snapshot).collect(),
            accounting: self.accounting.snapshot(),
            downloads: self.transfers.downloads.snapshot(),
            uploads: self.transfers.uploads.snapshot(),
            last_advance: self.last_advance,
            rpcs_issued: self.rpcs_issued,
            xfer_faults_rng: self.xfer_faults.as_ref().map(|m| m.rng().clone()),
            xfer_retries: self
                .xfer_retries
                .iter()
                .map(|r| XferRetrySnapshot {
                    job: r.job,
                    upload: r.dir == XferDir::Upload,
                    bytes: r.bytes,
                    state: r.state,
                })
                .collect(),
            state_gen: self.state_gen,
            rr_cache: self.rr_cache.clone(),
            rr_key: self.rr_key,
            rr_stats: self.rr_stats,
            rr_frozen_until: self.rr_frozen_until,
            rr_dirty: self.rr_dirty.clone(),
        }
    }

    /// Overwrite the client's mutable state from a capture (checkpoint
    /// restore). The client must have been constructed from the same
    /// scenario through the normal path first (same projects, config and
    /// fault models); scenario constants are not restored. A capture whose
    /// tasks or accounting name other projects is refused before anything
    /// changes.
    pub fn restore_snapshot(&mut self, snap: &ClientSnapshot) -> Result<(), String> {
        if let Some(t) = snap.tasks.iter().find(|t| !self.attached(t.spec.project)) {
            return Err(format!("task {} of unattached project {}", t.spec.id, t.spec.project));
        }
        self.accounting.restore_snapshot(&snap.accounting)?;
        for ps in &snap.projects {
            if let Some(p) = self.projects.iter_mut().find(|p| p.id == ps.id) {
                p.backoff = Backoff::from_state(ps.backoff);
                p.comm_retry = ps.comm_retry;
                p.next_rpc_allowed = ps.next_rpc_allowed;
            }
        }
        self.tasks.clear();
        self.tasks.extend(snap.tasks.iter().cloned().map(Task::from_snapshot));
        self.finished.clear();
        self.finished.extend(snap.finished.iter().cloned().map(Task::from_snapshot));
        self.transfers.downloads.restore(&snap.downloads);
        self.transfers.uploads.restore(&snap.uploads);
        self.last_advance = snap.last_advance;
        self.rpcs_issued = snap.rpcs_issued;
        if let (Some(m), Some(rng)) = (self.xfer_faults.as_mut(), snap.xfer_faults_rng.as_ref()) {
            m.restore_rng(rng.clone());
        }
        self.xfer_retries.clear();
        self.xfer_retries.extend(snap.xfer_retries.iter().map(|r| XferRetry {
            job: r.job,
            dir: if r.upload { XferDir::Upload } else { XferDir::Download },
            bytes: r.bytes,
            state: r.state,
        }));
        self.state_gen = snap.state_gen;
        self.rr_cache = snap.rr_cache.clone();
        self.rr_key = snap.rr_key;
        self.rr_stats = snap.rr_stats;
        self.rr_frozen_until = snap.rr_frozen_until;
        self.rr_dirty = snap.rr_dirty.clone();
        Ok(())
    }

    /// Peak FLOPS this job consumes while running (for converting lost
    /// execution seconds into wasted FLOPS).
    pub fn peak_flops_of(&self, id: JobId) -> f64 {
        self.task(id).map_or(0.0, |t| {
            let u = t.spec.usage;
            let mut f = u.avg_cpus * self.hw.flops_per_inst(ProcType::Cpu);
            if let Some((ty, n)) = u.coproc {
                f += n * self.hw.flops_per_inst(ty);
            }
            f
        })
    }

    /// Remove a reported task from the live set (kept in `finished` for
    /// statistics).
    pub fn retire(&mut self, id: JobId) -> Option<&Task> {
        let idx = self.tasks.iter().position(|t| t.spec.id == id)?;
        let task = self.tasks.swap_remove(idx);
        self.finished.push(task);
        self.finished.last()
    }

    /// The earliest future instant at which something happens without
    /// outside intervention: a running task completes or a transfer
    /// finishes.
    pub fn next_event_after(&self, now: SimTime) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        for task in &self.tasks {
            if task.is_running() {
                let eta = now + task.remaining();
                next = Some(next.map_or(eta, |n| n.min(eta)));
            }
        }
        if let Some(t) = self.transfers.next_event_after(now) {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        // Pending transfer retries wake the loop when their backoff ends.
        for r in &self.xfer_retries {
            if r.state.until > now {
                next = Some(next.map_or(r.state.until, |n| n.min(r.state.until)));
            }
        }
        next
    }

    /// Earliest time a currently-blocked fetch could unblock (backoffs /
    /// server delays), used by the emulator to schedule retries.
    pub fn next_fetch_unblock(&self, now: SimTime) -> Option<SimTime> {
        self.next_fetch_unblock_detail(now).map(|(_, t)| t)
    }

    /// Like [`Client::next_fetch_unblock`], but also naming the project
    /// that unblocks first (ties broken by project order). Feeds the
    /// `FetchDeferred` trace event.
    pub fn next_fetch_unblock_detail(&self, now: SimTime) -> Option<(ProjectId, SimTime)> {
        self.projects
            .iter()
            .map(|p| (p.id, p.backoff.until().max(p.comm_retry.until).max(p.next_rpc_allowed)))
            .filter(|&(_, t)| t > now)
            .min_by(|a, b| a.1.cmp(&b.1))
    }

    /// Instances of each type currently in use (for metrics/timeline).
    pub fn instances_in_use(&self) -> ProcMap<f64> {
        let mut used = ProcMap::zero();
        for task in &self.tasks {
            if task.is_running() {
                used[ProcType::Cpu] += task.spec.usage.avg_cpus;
                if let Some((t, n)) = task.spec.usage.coproc {
                    used[t] += n;
                }
            }
        }
        used
    }

    /// Peak FLOPS in use per project right now (for metrics). GPU jobs'
    /// CPU feeder fractions may overcommit the CPU (as in the real
    /// client); for accounting purposes the per-type usage is scaled back
    /// so delivered FLOPS never exceed the hardware's capacity.
    pub fn flops_in_use_by_project(&self) -> Vec<(ProjectId, f64)> {
        let mut by_project = Vec::new();
        self.flops_in_use_by_project_into(&mut by_project);
        by_project
    }

    /// As [`Self::flops_in_use_by_project`], refilling a caller-owned
    /// buffer (the emulator calls this once per event).
    pub fn flops_in_use_by_project_into(&self, by_project: &mut Vec<(ProjectId, f64)>) {
        by_project.clear();
        let used = self.instances_in_use();
        let scale = ProcMap::from_fn(|t| {
            let n = self.hw.ninstances(t) as f64;
            if used[t] > n && used[t] > 0.0 {
                n / used[t]
            } else {
                1.0
            }
        });
        for task in &self.tasks {
            if task.is_running() {
                let u = task.spec.usage;
                let mut f =
                    u.avg_cpus * scale[ProcType::Cpu] * self.hw.flops_per_inst(ProcType::Cpu);
                if let Some((t, n)) = u.coproc {
                    f += n * scale[t] * self.hw.flops_per_inst(t);
                }
                match by_project.iter_mut().find(|(p, _)| *p == task.spec.project) {
                    Some((_, acc)) => *acc += f,
                    None => by_project.push((task.spec.project, f)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::{AppId, ResourceUsage};

    fn run_state() -> HostRunState {
        HostRunState { can_compute: true, can_gpu: true, net_up: true, user_active: false }
    }

    fn spec(id: u64, project: u32, dur: f64, latency: f64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            project: ProjectId(project),
            app: AppId(0),
            usage: ResourceUsage::one_cpu(),
            duration: SimDuration::from_secs(dur),
            duration_est: SimDuration::from_secs(dur),
            latency_bound: SimDuration::from_secs(latency),
            checkpoint_period: Some(SimDuration::from_secs(60.0)),
            working_set_bytes: 1e8,
            input_bytes: 0.0,
            output_bytes: 0.0,
            received: SimTime::ZERO,
        }
    }

    fn client() -> Client {
        Client::new(
            Hardware::cpu_only(1, 1e9),
            Preferences::default(),
            vec![
                Client::project(0, "alpha", 1.0, &[ProcType::Cpu]),
                Client::project(1, "beta", 1.0, &[ProcType::Cpu]),
            ],
            ClientConfig {
                sched_policy: JobSchedPolicy::LOCAL,
                fetch_policy: FetchPolicy::Hysteresis,
                ..Default::default()
            },
        )
    }

    #[test]
    fn lifecycle_run_to_completion() {
        let mut c = client();
        c.add_jobs(vec![spec(1, 0, 100.0, 1000.0)]);
        let rs = run_state();
        let r = c.reschedule(SimTime::ZERO, rs, 1.0);
        assert_eq!(r.started, vec![JobId(1)]);
        let next = c.next_event_after(SimTime::ZERO).unwrap();
        assert_eq!(next, SimTime::from_secs(100.0));
        let ev = c.advance(next, rs);
        assert_eq!(ev.computed, vec![JobId(1)]);
        assert_eq!(ev.uploaded, vec![JobId(1)]); // no output file: instant
        assert!(c.task(JobId(1)).unwrap().met_deadline());
        c.retire(JobId(1));
        assert!(c.tasks().is_empty());
        assert_eq!(c.finished().len(), 1);
    }

    #[test]
    fn reschedule_preempts_for_endangered() {
        let mut c = client();
        c.add_jobs(vec![spec(1, 0, 1000.0, 1e6)]);
        let rs = run_state();
        c.reschedule(SimTime::ZERO, rs, 1.0);
        // Run 120 s so the running task passes a checkpoint.
        c.advance(SimTime::from_secs(120.0), rs);
        // A tight-deadline job arrives from the other project.
        c.add_jobs(vec![spec(2, 1, 500.0, 600.0)]);
        let r = c.reschedule(SimTime::from_secs(120.0), rs, 1.0);
        assert!(c.rr_snapshot().is_endangered(JobId(2)));
        assert_eq!(r.started, vec![JobId(2)]);
        assert_eq!(r.preempted, vec![JobId(1)]);
    }

    #[test]
    fn fetch_blocked_without_network() {
        let c = client();
        let rr = c.rr_simulate(SimTime::ZERO, run_state(), 1.0);
        let mut rs = run_state();
        rs.net_up = false;
        assert!(c.fetch_decision(SimTime::ZERO, rs, &rr).is_none());
    }

    #[test]
    fn fetch_on_empty_queue() {
        let c = client();
        let rs = run_state();
        let rr = c.rr_simulate(SimTime::ZERO, rs, 1.0);
        let d = c.fetch_decision(SimTime::ZERO, rs, &rr).expect("empty queue must fetch");
        // Entire shortfall = max_queue × 1 instance.
        let expected = c.prefs.work_buf_max().secs();
        assert!((d.request.secs[ProcType::Cpu] - expected).abs() < 1.0);
    }

    #[test]
    fn reply_backoff_and_delay() {
        let mut c = client();
        c.record_reply(SimTime::ZERO, ProjectId(0), vec![], SimDuration::from_secs(60.0));
        assert_eq!(c.rpcs_issued(), 1);
        // Empty reply → backoff; next fetch can't pick P0 immediately.
        let rr = c.rr_simulate(SimTime::ZERO, run_state(), 1.0);
        let d = c.fetch_decision(SimTime::from_secs(1.0), run_state(), &rr).unwrap();
        assert_eq!(d.project, ProjectId(1));
        // Unblock time reported.
        assert!(c.next_fetch_unblock(SimTime::from_secs(1.0)).is_some());
    }

    #[test]
    fn usage_accumulates_in_accounting() {
        let mut c = client();
        c.add_jobs(vec![spec(1, 0, 5000.0, 1e6), spec(2, 1, 5000.0, 1e6)]);
        let rs = run_state();
        c.reschedule(SimTime::ZERO, rs, 1.0);
        c.advance(SimTime::from_secs(1000.0), rs);
        // One CPU, both runnable: whoever ran owes debt to the other.
        let d0 = c.accounting().debt_of(ProjectId(0), ProcType::Cpu);
        let d1 = c.accounting().debt_of(ProjectId(1), ProcType::Cpu);
        assert!((d0 + d1).abs() < 1e-6);
        assert!(d0.abs() > 100.0, "imbalance should accrue, d0={d0}");
    }

    #[test]
    fn jobs_of_unattached_projects_are_rejected() {
        let mut c = client();
        let rejected = c.add_jobs(vec![spec(1, 0, 100.0, 1e6), spec(2, 9, 100.0, 1e6)]);
        assert_eq!(rejected, vec![JobId(2)]);
        assert_eq!(c.tasks().len(), 1);
    }

    #[test]
    fn download_gates_execution() {
        let mut c = Client::new(
            Hardware::cpu_only(1, 1e9),
            Preferences::default(),
            vec![Client::project(0, "alpha", 1.0, &[ProcType::Cpu])],
            ClientConfig { network: Some(NetworkModel::symmetric(1000.0)), ..Default::default() },
        );
        let mut s = spec(1, 0, 100.0, 1e6);
        s.input_bytes = 2000.0; // 2 s download at 1000 B/s
        c.add_jobs(vec![s]);
        let rs = run_state();
        let r = c.reschedule(SimTime::ZERO, rs, 1.0);
        assert!(r.started.is_empty(), "not downloaded yet");
        let ev = c.advance(SimTime::from_secs(2.0), rs);
        assert_eq!(ev.ready, vec![JobId(1)]);
        let r = c.reschedule(SimTime::from_secs(2.0), rs, 1.0);
        assert_eq!(r.started, vec![JobId(1)]);
    }

    #[test]
    fn output_upload_delays_reportability() {
        let mut c = Client::new(
            Hardware::cpu_only(1, 1e9),
            Preferences::default(),
            vec![Client::project(0, "alpha", 1.0, &[ProcType::Cpu])],
            ClientConfig { network: Some(NetworkModel::symmetric(1000.0)), ..Default::default() },
        );
        let mut s = spec(1, 0, 10.0, 1e6);
        s.output_bytes = 5000.0;
        c.add_jobs(vec![s]);
        let rs = run_state();
        c.reschedule(SimTime::ZERO, rs, 1.0);
        let ev = c.advance(SimTime::from_secs(10.0), rs);
        assert_eq!(ev.computed, vec![JobId(1)]);
        assert!(ev.uploaded.is_empty());
        // Upload takes 5 s.
        let next = c.next_event_after(SimTime::from_secs(10.0)).unwrap();
        assert_eq!(next, SimTime::from_secs(15.0));
        let ev = c.advance(next, rs);
        assert_eq!(ev.uploaded, vec![JobId(1)]);
    }

    #[test]
    fn flapping_server_gaps_double_and_cap_at_max() {
        // Regression (fault-injection PR): a server that is down at every
        // retry must escalate the per-project backoff — doubling gaps from
        // Backoff::MIN up to the Backoff::MAX cap — and a later successful
        // reply must reset the ladder to the bottom.
        use crate::fetch::Backoff;
        let mut c = client();
        let p = ProjectId(0);
        let mut now = SimTime::ZERO;
        let mut expected = Backoff::MIN.secs();
        for attempt in 0..12 {
            c.record_rpc_failure(now, p);
            let until = c.projects()[0].backoff_until();
            let gap = (until - now).secs();
            assert_eq!(
                gap.to_bits(),
                expected.to_bits(),
                "attempt {attempt}: gap {gap} != expected {expected}"
            );
            // Retry the instant the backoff expires; the server is still down.
            now = until;
            expected = (expected * 2.0).min(Backoff::MAX.secs());
        }
        assert_eq!(expected, Backoff::MAX.secs(), "ladder must have reached the cap");
        // The server comes back and hands over a job: full reset.
        c.record_reply(now, p, vec![spec(50, 0, 100.0, 1e6)], SimDuration::ZERO);
        assert_eq!(c.projects()[0].backoff_until(), SimTime::ZERO);
        c.record_rpc_failure(now, p);
        let gap = (c.projects()[0].backoff_until() - now).secs();
        assert_eq!(gap.to_bits(), Backoff::MIN.secs().to_bits(), "reset ladder restarts at MIN");
    }

    #[test]
    fn transient_rpc_failure_backs_off_separately() {
        let mut c = client();
        c.record_transient_rpc_failure(SimTime::ZERO, ProjectId(0), 0.0);
        assert_eq!(c.rpcs_issued(), 1);
        assert_eq!(c.projects()[0].comm_failures(), 1);
        // Comm backoff gates the fetch decision away from P0.
        let rr = c.rr_simulate(SimTime::ZERO, run_state(), 1.0);
        let d = c.fetch_decision(SimTime::from_secs(1.0), run_state(), &rr).unwrap();
        assert_eq!(d.project, ProjectId(1));
        // A successful reply clears the comm backoff (but the empty reply
        // sets the ordinary work-fetch backoff — that path is separate).
        c.record_reply(SimTime::from_secs(61.0), ProjectId(0), vec![], SimDuration::ZERO);
        assert_eq!(c.projects()[0].comm_failures(), 0);
    }

    #[test]
    fn transfer_failures_retry_then_error_job() {
        use bce_faults::RetryPolicy;
        let mut c = Client::new(
            Hardware::cpu_only(1, 1e9),
            Preferences::default(),
            vec![Client::project(0, "alpha", 1.0, &[ProcType::Cpu])],
            ClientConfig { network: Some(NetworkModel::symmetric(1000.0)), ..Default::default() },
        );
        // Every attempt fails; give up after 2 consecutive failures.
        let policy = RetryPolicy { jitter: 0.0, give_up_after: Some(2), ..RetryPolicy::TRANSFER };
        c.set_transfer_faults(TransferFaultModel::new(99, 1.0, policy));
        let mut s = spec(1, 0, 100.0, 1e6);
        s.input_bytes = 2000.0;
        c.add_jobs(vec![s]);
        let rs = run_state();
        // First attempt fails somewhere inside the 2 s window.
        let ev = c.advance(SimTime::from_secs(2.0), rs);
        assert!(ev.errored.is_empty());
        assert!(ev.ready.is_empty());
        // Backoff (60 s, no jitter), retry, second failure => give up.
        let retry_at = c.next_event_after(SimTime::from_secs(2.0)).expect("retry scheduled");
        let ev = c.advance(retry_at, rs); // re-enqueues the attempt
        assert!(ev.errored.is_empty());
        let ev = c.advance(retry_at + SimDuration::from_secs(2.0), rs);
        assert_eq!(ev.errored, vec![JobId(1)]);
        assert!(c.task(JobId(1)).unwrap().is_errored());
    }

    #[test]
    fn crash_discards_progress_and_restarts_transfers() {
        let mut c = Client::new(
            Hardware::cpu_only(1, 1e9),
            Preferences::default(),
            vec![Client::project(0, "alpha", 1.0, &[ProcType::Cpu])],
            ClientConfig { network: Some(NetworkModel::symmetric(1000.0)), ..Default::default() },
        );
        let mut dl = spec(2, 0, 100.0, 1e6);
        dl.input_bytes = 10_000.0; // 10 s download
        c.add_jobs(vec![spec(1, 0, 1000.0, 1e6), dl]);
        let rs = run_state();
        c.reschedule(SimTime::ZERO, rs, 1.0);
        // Job 1 runs 90 s (checkpoint 60 s); job 2 has 1 s of download left.
        c.advance(SimTime::from_secs(9.0), rs);
        let out = c.crash(SimTime::from_secs(9.0));
        assert_eq!(out.restarted_transfers, 1);
        assert!(out.lost.iter().any(|&(id, lost)| id == JobId(1) && (lost - 9.0).abs() < 1e-6));
        // The download restarts from byte zero: full 10 s again.
        assert!(c.transfers_pending_download(JobId(2)));
        let ev = c.advance(SimTime::from_secs(18.0), rs);
        assert!(ev.ready.is_empty(), "restarted download must not finish early");
        let ev = c.advance(SimTime::from_secs(19.0), rs);
        assert_eq!(ev.ready, vec![JobId(2)]);
        // The crashed task resumes from its checkpoint (progress 0 here).
        assert_eq!(c.task(JobId(1)).unwrap().progress(), 0.0);
    }

    #[test]
    fn instances_in_use_tracks_running() {
        let mut c = client();
        c.add_jobs(vec![spec(1, 0, 100.0, 1e6), spec(2, 1, 100.0, 1e6)]);
        c.reschedule(SimTime::ZERO, run_state(), 1.0);
        // One CPU: exactly one running.
        assert!((c.instances_in_use()[ProcType::Cpu] - 1.0).abs() < 1e-9);
        let by_proj = c.flops_in_use_by_project();
        assert_eq!(by_proj.len(), 1);
        assert!((by_proj[0].1 - 1e9).abs() < 1.0);
    }
}
