//! The emulated BOINC client: owns the task queue, accounting, transfer
//! queues and policy state, and exposes the operations the emulator's
//! event loop drives (advance time, reschedule, decide fetches, ingest
//! replies).
//!
//! This module is the "emulation" half of BCE (§4.3): job scheduling, job
//! fetch and preference enforcement behave as the real client; job
//! execution, servers and availability are simulated around it.

use crate::accounting::{Accounting, UsageSample};
use crate::fetch::{self, FetchDecision, FetchPolicy, FetchProject};
use crate::rr_sim::{self, RrJob, RrOutcome, RrPlatform, RrScratch};
use crate::sched::{self, JobSchedPolicy, PlanInput, PlanScratch};
use crate::task::{Task, TaskState};
use crate::xfer::{NetworkModel, Transfers};
use bce_avail::HostRunState;
use bce_faults::{RetryPolicy, RetryState, RetryVerdict, TransferFaultModel};
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
}

impl Default for ClientConfig {
    /// The paper's "current" policy set: global accounting with EDF
    /// promotion and hysteresis-based fetch.
    fn default() -> Self {
        ClientConfig {
            sched_policy: JobSchedPolicy::GLOBAL,
            fetch_policy: FetchPolicy::Hysteresis,
            rec_half_life: SimDuration::from_days(10.0),
        }
    }
}

/// Client-side per-project state.
#[derive(Debug, Clone)]
pub struct ClientProject {
    pub(crate) id: ProjectId,
    pub(crate) share: f64,
    /// Which processor types the project supplies jobs for.
    pub(crate) supplies: ProcMap<bool>,
    /// Backoff after scheduled downtime or a reply with no usable job,
    /// escalated under [`RetryPolicy::SCHEDULER_RPC`] without jitter.
    backoff: RetryState,
    /// Backoff for *transient* communication failures (injected faults),
    /// kept separate from `backoff` so scheduled downtime and transient
    /// loss take distinct escalation paths.
    comm_retry: RetryState,
    /// Server-imposed minimum delay until the next RPC.
    next_rpc_allowed: SimTime,
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
    pub(crate) transfer_failures: u64,
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
    /// window (partial refreshes; a subset of the `queries - runs` hits).
    pub frozen: u64,
}

/// Cache key for the RR snapshot: everything the simulation's inputs
/// depend on besides client state, plus the client-state generation
/// counter.
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
    task_slots: Vec<usize>,
    xfer_retries: Vec<XferRetry>,
    rr_jobs: Vec<RrJob>,
    rr_scratch: RrScratch,
    rr_cache: RrOutcome,
    usage_buf: UsageSample,
    plan_scratch: PlanScratch,
    run_mask: Vec<bool>,
}

/// The emulated client.
pub struct Client {
    pub(crate) cfg: ClientConfig,
    hw: Hardware,
    prefs: Preferences,
    projects: Vec<ClientProject>,
    tasks: Vec<Task>,
    /// The accounting slot of each task, parallel to `tasks`: resolved
    /// once at admission (and on restore) for the usage sample and the
    /// planner.
    task_slots: Vec<usize>,
    accounting: Accounting,
    transfers: Transfers,
    last_advance: SimTime,
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
    /// The cached simulation outcome; valid for `rr_key`, or — when
    /// nothing structural changed — until `rr_frozen_until`.
    rr_cache: RrOutcome,
    rr_key: Option<RrKey>,
    rr_stats: RrStats,
    /// End of the frozen-progress window opened by the last full
    /// simulation (see `rr_refresh`). `SimTime::from_secs(f64::INFINITY)`
    /// when the simulated queue was empty (the outcome is then
    /// `now`-independent).
    rr_frozen_until: SimTime,
    /// A structural change (arrival, error, crash loss, invalidation)
    /// happened since the last full simulation, so the retained snapshot
    /// may be arbitrarily wrong and the next query must re-simulate.
    rr_dirty: bool,
    /// Generation counter of the running set, the runnable set and the
    /// task order; bumped by every mutation that can change any of them
    /// (see the "Hot path & caching invariants" section of DESIGN.md).
    /// Everything derived from those three alone is cached against it.
    run_gen: u64,
    /// Reusable accounting sample, refilled by an advance only when
    /// `run_gen` moved since `usage_gen`.
    usage_buf: UsageSample,
    usage_gen: Option<u64>,
    /// Reusable planner workspace ([`sched::plan_into`]).
    plan_scratch: PlanScratch,
    /// Reusable "planned to run" flag per task, for applying a plan.
    run_mask: Vec<bool>,
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
    /// A client on `hw` under `prefs`, whose transfers cross `network`
    /// (`None` = transfers are instant).
    pub fn new(
        hw: Hardware,
        prefs: Preferences,
        network: Option<NetworkModel>,
        projects: Vec<ClientProject>,
        cfg: ClientConfig,
    ) -> Self {
        Self::with_scratch(hw, prefs, network, projects, cfg, ClientScratch::default())
    }

    /// As [`Client::new`], but recycling the heap buffers of a previous
    /// client (see [`ClientScratch`]). Buffers are cleared before reuse;
    /// behaviour is bit-identical to a freshly allocated client.
    pub fn with_scratch(
        hw: Hardware,
        prefs: Preferences,
        network: Option<NetworkModel>,
        projects: Vec<ClientProject>,
        cfg: ClientConfig,
        scratch: ClientScratch,
    ) -> Self {
        let ClientScratch {
            mut tasks,
            mut task_slots,
            mut xfer_retries,
            mut rr_jobs,
            rr_scratch,
            rr_cache,
            mut usage_buf,
            plan_scratch,
            run_mask,
        } = scratch;
        tasks.clear();
        task_slots.clear();
        xfer_retries.clear();
        rr_jobs.clear();
        // `rr_scratch` and `rr_cache` are fully overwritten by every
        // simulation call, and `rr_key: None` below guarantees the first
        // snapshot query re-runs the simulation before anything reads the
        // recycled cache contents.
        let mut accounting = Accounting::new(
            cfg.sched_policy.accounting,
            projects.iter().map(|p| (p.id, p.share)),
            cfg.rec_half_life,
        );
        accounting.set_fetchable(&hw, projects.iter().map(|p| (p.id, p.supplies)));
        usage_buf.reset(accounting.num_slots());
        let transfers = Transfers::new(network);
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
            task_slots,
            accounting,
            transfers,
            last_advance: SimTime::ZERO,
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
            rr_dirty: false,
            run_gen: 0,
            usage_buf,
            usage_gen: None,
            plan_scratch,
            run_mask,
        }
    }

    /// Tear the client down, handing back its reusable buffers for the
    /// next run (the arena path's per-worker emulator reuse).
    pub fn into_scratch(self) -> ClientScratch {
        ClientScratch {
            tasks: self.tasks,
            task_slots: self.task_slots,
            xfer_retries: self.xfer_retries,
            rr_jobs: self.rr_jobs,
            rr_scratch: self.rr_scratch,
            rr_cache: self.rr_cache,
            usage_buf: self.usage_buf,
            plan_scratch: self.plan_scratch,
            run_mask: self.run_mask,
        }
    }

    /// Install a transfer fault plan: subsequent transfer attempts may be
    /// planned to fail mid-flight and retry under the model's policy.
    pub fn set_transfer_faults(&mut self, model: TransferFaultModel) {
        self.xfer_faults = Some(model);
    }

    /// Build per-project state from `(id, share, supplied types)`.
    pub fn project(id: u32, share: f64, supplies: &[ProcType]) -> ClientProject {
        let mut s = ProcMap::from_fn(|_| false);
        for &t in supplies {
            s[t] = true;
        }
        ClientProject {
            id: ProjectId(id),
            share,
            supplies: s,
            backoff: RetryState::new(),
            comm_retry: RetryState::new(),
            next_rpc_allowed: SimTime::ZERO,
        }
    }

    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The running-set generation: it moves whenever the running set, the
    /// runnable set or the task order may have changed, and also when the
    /// hardware may have. Anything computed from those alone — say
    /// [`Client::flops_in_use_by_slot_into`] — stays valid while it holds
    /// still.
    pub fn run_gen(&self) -> u64 {
        self.run_gen
    }

    fn task_mut(&mut self, id: JobId) -> Option<&mut Task> {
        self.tasks.iter_mut().find(|t| t.spec.id == id)
    }

    pub fn task(&self, id: JobId) -> Option<&Task> {
        self.tasks.iter().find(|t| t.spec.id == id)
    }

    /// RAM budget under the busy/idle preference pair.
    pub(crate) fn mem_budget(&self, run_state: HostRunState) -> f64 {
        let frac = if run_state.user_active {
            self.prefs.ram_max_frac_busy
        } else {
            self.prefs.ram_max_frac_idle
        };
        self.hw.mem_bytes * frac
    }

    /// Restore an in-flight job from an imported state file, with its
    /// recorded execution progress.
    ///
    /// # Panics
    /// If the job's project is not attached (a validated scenario's
    /// initial queue names only its own projects).
    pub fn add_initial_task(&mut self, spec: JobSpec, progress: SimDuration) {
        let Some(slot) = self.accounting.slot_of(spec.project) else {
            panic!("initial task of unattached project {}", spec.project);
        };
        self.admit(Task::with_progress(spec, progress), slot);
        self.state_gen += 1;
        self.run_gen += 1;
        self.rr_dirty = true;
    }

    /// Queue an accepted task, starting its input download if it has one.
    fn admit(&mut self, task: Task, slot: usize) {
        if task.state() == TaskState::Downloading {
            self.enqueue_transfer(task.spec.id, task.spec.input_bytes, XferDir::Download);
        }
        self.tasks.push(task);
        self.task_slots.push(slot);
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
    pub(crate) fn job_feasible(&self, spec: &JobSpec) -> bool {
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
            match self.accounting.slot_of(spec.project) {
                Some(slot) if self.job_feasible(&spec) => {
                    self.admit(Task::new(spec), slot);
                    accepted_any = true;
                }
                _ => rejected.push(spec.id),
            }
        }
        if accepted_any {
            self.state_gen += 1;
            self.run_gen += 1;
            self.rr_dirty = true;
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
        self.refresh_usage_sample();
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
                if task.advance(dt) {
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
        // Completed and errored tasks left the running or runnable set.
        if !ev.computed.is_empty() || !ev.errored.is_empty() {
            self.run_gen += 1;
        }
        if !ev.errored.is_empty() {
            self.rr_dirty = true;
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

    /// Refill the accounting sample if the running set, the runnable set
    /// or the task order may have changed since it was last filled: the
    /// sample is a pure function of those three.
    fn refresh_usage_sample(&mut self) {
        if self.usage_gen != Some(self.run_gen) {
            Self::fill_usage_sample(&self.tasks, &self.task_slots, &mut self.usage_buf);
            self.usage_gen = Some(self.run_gen);
        }
        #[cfg(debug_assertions)]
        assert!(
            self.usage_sample_is_fresh(),
            "stale usage sample: a running-set change did not bump run_gen"
        );
    }

    /// Usage/runnability snapshot for accounting, refilled into a reusable
    /// buffer; `slots` is the accounting slot of each task.
    fn fill_usage_sample(tasks: &[Task], slots: &[usize], sample: &mut UsageSample) {
        sample.clear();
        for (task, &slot) in tasks.iter().zip(slots) {
            let running = task.is_running();
            let runnable = !task.is_complete() && !task.is_errored();
            if !running && !runnable {
                continue;
            }
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

    /// Do the cached task slots and usage sample equal a recomputation
    /// from the live queue, slots resolved afresh?
    #[cfg(any(test, debug_assertions))]
    fn usage_sample_is_fresh(&self) -> bool {
        // Every queued task's project is attached (`add_jobs` and
        // `add_initial_task` check it).
        let slots: Vec<usize> = self
            .tasks
            .iter()
            .map(|t| self.accounting.slot_of(t.spec.project).expect("attached project"))
            .collect();
        let mut fresh = UsageSample::default();
        fresh.reset(self.accounting.num_slots());
        Self::fill_usage_sample(&self.tasks, &slots, &mut fresh);
        slots == self.task_slots && fresh.same_as(&self.usage_buf)
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

    /// Mark the cached RR snapshot stale and rebuild the per-run caches
    /// (fetchable sets, long-term-debt entitlements), so the next
    /// [`Client::rr_refresh`] runs a full simulation. Every mutation that
    /// changes the simulation's inputs does this internally; callers use it
    /// to force a full RR run (`crates/bench/benches/rr_sim.rs`,
    /// `crates/client/tests/rr_differential.rs`).
    pub fn invalidate_rr(&mut self) {
        self.state_gen += 1;
        self.run_gen += 1;
        self.rr_dirty = true;
        let projects = &self.projects;
        self.accounting.set_fetchable(&self.hw, projects.iter().map(|p| (p.id, p.supplies)));
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
    /// 2. *Frozen hit*: nothing structural changed since the last full
    ///    simulation (only running tasks progressed), the platform (run
    ///    state, `on_frac`) is unchanged and `now` is still inside the
    ///    frozen window — the retained snapshot is served as-is.
    ///    Running-task progress only drifts job completion estimates by
    ///    at most the window length τ, which `Client::frozen_until`
    ///    bounds to a small fraction of the tightest deadline slack and
    ///    of the minimum work buffer, so endangered-set and fetch-trigger
    ///    decisions move by at most that bounded amount.
    /// 3. *Full run*: anything else (a structural change, a platform
    ///    change, an expired window) re-simulates from the live queue.
    pub fn rr_refresh(&mut self, now: SimTime, run_state: HostRunState, on_frac: f64) {
        self.rr_stats.queries += 1;
        let key: RrKey = (now, run_state, on_frac.to_bits(), self.state_gen);
        if self.rr_key == Some(key) {
            return;
        }
        if !self.rr_dirty
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
        self.rr_dirty = false;
        self.rr_frozen_until = Self::frozen_until(now, &self.rr_jobs, &self.prefs);
        self.rr_key = Some(key);
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
                slots: &self.task_slots,
                rr: &self.rr_cache,
                accounting: &self.accounting,
                hw: &self.hw,
                prefs: &self.prefs,
                run_state,
                mem_budget: self.mem_budget(run_state),
            };
            sched::plan_into(self.cfg.sched_policy, &input, &mut self.plan_scratch)
        };
        let run_mask = &mut self.run_mask;
        run_mask.clear();
        run_mask.resize(self.tasks.len(), false);
        for &i in &plan.run {
            run_mask[i] = true;
        }
        let mut started = Vec::new();
        let mut preempted = Vec::new();
        let mut progress_changed = false;
        let keep_in_memory = self.prefs.leave_apps_in_memory;
        for (task, &should_run) in self.tasks.iter_mut().zip(run_mask.iter()) {
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
                }
                started.push(task.spec.id);
            }
        }
        if progress_changed {
            self.state_gen += 1;
        }
        if !started.is_empty() || !preempted.is_empty() {
            self.run_gen += 1;
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
                backoff_until: p.backoff.until.max(p.comm_retry.until).max(p.next_rpc_allowed),
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
                let _ = p.backoff.fail(now, &RetryPolicy::SCHEDULER_RPC, 0.0);
            }
        }
    }

    /// Record an RPC that failed to reach the server (scheduled downtime:
    /// escalates the project's ordinary backoff).
    pub fn record_rpc_failure(&mut self, now: SimTime, project: ProjectId) {
        if let Some(p) = self.projects.iter_mut().find(|p| p.id == project) {
            let _ = p.backoff.fail(now, &RetryPolicy::SCHEDULER_RPC, 0.0);
        }
    }

    /// Record a *transient* communication failure (injected fault): the RPC
    /// was lost in transit, so it escalates the project's comm backoff
    /// rather than the scheduled-downtime backoff, under the same
    /// [`RetryPolicy::SCHEDULER_RPC`]. `jitter_u` is a uniform draw in
    /// `[0, 1)`, ignored while that policy has no jitter.
    pub fn record_transient_rpc_failure(
        &mut self,
        now: SimTime,
        project: ProjectId,
        jitter_u: f64,
    ) {
        if let Some(p) = self.projects.iter_mut().find(|p| p.id == project) {
            // Scheduler RPCs are never abandoned: a GiveUp verdict still
            // leaves the backoff in place for the next attempt.
            let _ = p.comm_retry.fail(now, &RetryPolicy::SCHEDULER_RPC, jitter_u);
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
        // Running tasks were stopped.
        self.run_gen += 1;
        if !out.lost.is_empty() {
            self.state_gen += 1;
            // A crash can roll many tasks back at once across the whole
            // queue; treat it as structural rather than bounding the drift.
            self.rr_dirty = true;
        }
        out
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

    /// Remove a reported task from the live set, handing it back. Retired
    /// tasks are not kept: per-run state is bounded by the live queue.
    pub fn retire(&mut self, id: JobId) -> Option<Task> {
        let idx = self.tasks.iter().position(|t| t.spec.id == id)?;
        let task = self.tasks.swap_remove(idx);
        self.task_slots.swap_remove(idx);
        // The removal, and the last task moving into its place, change the
        // task order the usage sample and the per-project FLOPS sum in.
        self.run_gen += 1;
        Some(task)
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
            .map(|p| (p.id, p.backoff.until.max(p.comm_retry.until).max(p.next_rpc_allowed)))
            .filter(|&(_, t)| t > now)
            .min_by(|a, b| a.1.cmp(&b.1))
    }

    /// Instances of each type currently in use (for metrics/timeline).
    pub(crate) fn instances_in_use(&self) -> ProcMap<f64> {
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

    /// Peak FLOPS in use per project right now (for metrics), as
    /// `(accounting slot, FLOPS)` in order of each project's first running
    /// task, refilling a caller-owned buffer. A project's slot is its
    /// position in the ascending list of attached project ids. GPU jobs'
    /// CPU feeder fractions may overcommit the CPU (as in the real
    /// client); for accounting purposes the per-type usage is scaled back
    /// so delivered FLOPS never exceed the hardware's capacity.
    ///
    /// The result depends only on the running set, the task order and the
    /// hardware, so it stays valid while [`Client::run_gen`] holds still.
    pub fn flops_in_use_by_slot_into(&self, by_slot: &mut Vec<(usize, f64)>) {
        by_slot.clear();
        let used = self.instances_in_use();
        let scale = ProcMap::from_fn(|t| {
            let n = self.hw.ninstances(t) as f64;
            if used[t] > n && used[t] > 0.0 {
                n / used[t]
            } else {
                1.0
            }
        });
        for (task, &slot) in self.tasks.iter().zip(&self.task_slots) {
            if task.is_running() {
                let u = task.spec.usage;
                let mut f =
                    u.avg_cpus * scale[ProcType::Cpu] * self.hw.flops_per_inst(ProcType::Cpu);
                if let Some((t, n)) = u.coproc {
                    f += n * scale[t] * self.hw.flops_per_inst(t);
                }
                match by_slot.iter_mut().find(|(s, _)| *s == slot) {
                    Some((_, acc)) => *acc += f,
                    None => by_slot.push((slot, f)),
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
            None,
            vec![
                Client::project(0, 1.0, &[ProcType::Cpu]),
                Client::project(1, 1.0, &[ProcType::Cpu]),
            ],
            ClientConfig {
                sched_policy: JobSchedPolicy::LOCAL,
                fetch_policy: FetchPolicy::Hysteresis,
                ..Default::default()
            },
        )
    }

    /// The RR outcome of a full simulation of `c`'s live queue at `now`.
    fn fresh_rr(c: &mut Client, now: SimTime, rs: HostRunState) -> RrOutcome {
        let runs = c.rr_stats().runs;
        c.rr_refresh(now, rs, 1.0);
        assert_eq!(c.rr_stats().runs, runs + 1, "the query must run the simulation");
        c.rr_snapshot().clone()
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
        assert!(c.task(JobId(1)).unwrap().is_complete());
        let retired = c.retire(JobId(1)).expect("JobId(1) is live");
        assert_eq!(retired.spec.id, JobId(1));
        assert!(c.tasks().is_empty());
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
        let mut c = client();
        let rr = fresh_rr(&mut c, SimTime::ZERO, run_state());
        let mut rs = run_state();
        rs.net_up = false;
        assert!(c.fetch_decision(SimTime::ZERO, rs, &rr).is_none());
    }

    #[test]
    fn fetch_on_empty_queue() {
        let mut c = client();
        let rs = run_state();
        let rr = fresh_rr(&mut c, SimTime::ZERO, rs);
        let d = c.fetch_decision(SimTime::ZERO, rs, &rr).expect("empty queue must fetch");
        // Entire shortfall = max_queue × 1 instance.
        let expected = c.prefs.work_buf_max().secs();
        assert!((d.request.secs[ProcType::Cpu] - expected).abs() < 1.0);
    }

    #[test]
    fn reply_backoff_and_delay() {
        let mut c = client();
        c.record_reply(SimTime::ZERO, ProjectId(0), vec![], SimDuration::from_secs(60.0));
        // Empty reply → backoff; next fetch can't pick P0 immediately.
        let rr = fresh_rr(&mut c, SimTime::ZERO, run_state());
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
        let d0 = c.accounting.debt_of(ProjectId(0), ProcType::Cpu);
        let d1 = c.accounting.debt_of(ProjectId(1), ProcType::Cpu);
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
            Some(NetworkModel::symmetric(1000.0)),
            vec![Client::project(0, 1.0, &[ProcType::Cpu])],
            ClientConfig::default(),
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
            Some(NetworkModel::symmetric(1000.0)),
            vec![Client::project(0, 1.0, &[ProcType::Cpu])],
            ClientConfig::default(),
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
        // the scheduler-RPC policy's `min_delay` up to its `max_delay` cap —
        // and a later successful reply must reset the ladder to the bottom.
        use bce_faults::RetryPolicy;
        let (min, max) =
            (RetryPolicy::SCHEDULER_RPC.min_delay, RetryPolicy::SCHEDULER_RPC.max_delay);
        let mut c = client();
        let p = ProjectId(0);
        let mut now = SimTime::ZERO;
        let mut expected = min.secs();
        for attempt in 0..12 {
            c.record_rpc_failure(now, p);
            let until = c.projects[0].backoff.until;
            let gap = (until - now).secs();
            assert_eq!(
                gap.to_bits(),
                expected.to_bits(),
                "attempt {attempt}: gap {gap} != expected {expected}"
            );
            // Retry the instant the backoff expires; the server is still down.
            now = until;
            expected = (expected * 2.0).min(max.secs());
        }
        assert_eq!(expected, max.secs(), "ladder must have reached the cap");
        // The server comes back and hands over a job: full reset.
        c.record_reply(now, p, vec![spec(50, 0, 100.0, 1e6)], SimDuration::ZERO);
        assert_eq!(c.projects[0].backoff.until, SimTime::ZERO);
        c.record_rpc_failure(now, p);
        let gap = (c.projects[0].backoff.until - now).secs();
        assert_eq!(gap.to_bits(), min.secs().to_bits(), "reset ladder restarts at MIN");
    }

    #[test]
    fn transient_rpc_failure_backs_off_separately() {
        let mut c = client();
        c.record_transient_rpc_failure(SimTime::ZERO, ProjectId(0), 0.0);
        assert!(c.projects[0].comm_retry.until > SimTime::ZERO);
        // Comm backoff gates the fetch decision away from P0.
        let rr = fresh_rr(&mut c, SimTime::ZERO, run_state());
        let d = c.fetch_decision(SimTime::from_secs(1.0), run_state(), &rr).unwrap();
        assert_eq!(d.project, ProjectId(1));
        // A successful reply clears the comm backoff (but the empty reply
        // sets the ordinary work-fetch backoff — that path is separate).
        c.record_reply(SimTime::from_secs(61.0), ProjectId(0), vec![], SimDuration::ZERO);
        assert_eq!(c.projects[0].comm_retry, RetryState::new());
    }

    #[test]
    fn transfer_failures_retry_then_error_job() {
        use bce_faults::RetryPolicy;
        let mut c = Client::new(
            Hardware::cpu_only(1, 1e9),
            Preferences::default(),
            Some(NetworkModel::symmetric(1000.0)),
            vec![Client::project(0, 1.0, &[ProcType::Cpu])],
            ClientConfig::default(),
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
            Some(NetworkModel::symmetric(1000.0)),
            vec![Client::project(0, 1.0, &[ProcType::Cpu])],
            ClientConfig::default(),
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
        assert!(c.transfers.downloads.contains(JobId(2)));
        let ev = c.advance(SimTime::from_secs(18.0), rs);
        assert!(ev.ready.is_empty(), "restarted download must not finish early");
        let ev = c.advance(SimTime::from_secs(19.0), rs);
        assert_eq!(ev.ready, vec![JobId(2)]);
        // The crashed task resumes from its checkpoint (progress 0 here).
        assert_eq!(c.task(JobId(1)).unwrap().progress(), 0.0);
    }

    /// The per-project FLOPS as the emulator keeps them: recomputed only
    /// when the running-set generation moved.
    #[derive(Default)]
    struct FlopsCache {
        by_slot: Vec<(usize, f64)>,
        gen: Option<u64>,
    }

    /// Refresh the running-set caches the way their users do, then require
    /// them to equal a recomputation from the live queue.
    fn assert_caches_fresh(c: &mut Client, cache: &mut FlopsCache, at: &str) {
        c.refresh_usage_sample();
        assert!(c.usage_sample_is_fresh(), "{at}: stale usage sample");
        if cache.gen != Some(c.run_gen()) {
            c.flops_in_use_by_slot_into(&mut cache.by_slot);
            cache.gen = Some(c.run_gen());
        }
        let mut fresh = Vec::new();
        c.flops_in_use_by_slot_into(&mut fresh);
        assert_eq!(cache.by_slot, fresh, "{at}: stale per-project FLOPS");
    }

    #[test]
    fn running_set_caches_match_a_fresh_recomputation_at_every_bump_point() {
        let projects = || {
            vec![
                Client::project(0, 1.0, &[ProcType::Cpu]),
                Client::project(1, 2.0, &[ProcType::Cpu, ProcType::NvidiaGpu]),
            ]
        };
        let cfg = ClientConfig { sched_policy: JobSchedPolicy::LOCAL, ..Default::default() };
        let net = Some(NetworkModel::symmetric(1000.0));
        let mut c =
            Client::new(Hardware::cpu_only(2, 1e9), Preferences::default(), net, projects(), cfg);
        // Every transfer attempt fails, and the first failure gives up.
        let policy = RetryPolicy { jitter: 0.0, give_up_after: Some(1), ..RetryPolicy::TRANSFER };
        c.set_transfer_faults(TransferFaultModel::new(7, 1.0, policy));
        let rs = run_state();
        let t = SimTime::from_secs;
        let cache = &mut FlopsCache::default();
        assert_caches_fresh(&mut c, cache, "construction");

        c.add_jobs(vec![spec(1, 0, 100.0, 1e6), spec(2, 1, 5000.0, 1e6)]);
        assert_caches_fresh(&mut c, cache, "admission");
        let gen = c.run_gen();
        assert_eq!(c.add_jobs(vec![spec(9, 7, 100.0, 1e6)]), vec![JobId(9)]);
        assert_eq!(c.run_gen(), gen, "an all-rejected reply changes nothing");
        assert_caches_fresh(&mut c, cache, "rejected admission");

        let r = c.reschedule(t(0.0), rs, 1.0);
        assert_eq!(r.started, vec![JobId(1), JobId(2)]);
        assert_caches_fresh(&mut c, cache, "start");
        let ev = c.advance(t(100.0), rs);
        assert_eq!(ev.computed, vec![JobId(1)]);
        assert_caches_fresh(&mut c, cache, "completion");

        c.add_jobs(vec![spec(3, 0, 5000.0, 1e6)]);
        let r = c.reschedule(t(100.0), rs, 1.0);
        assert_eq!(r.started, vec![JobId(3)]);
        assert_caches_fresh(&mut c, cache, "second start");
        // Retiring the finished head moves the last task into its place:
        // the running projects now appear in the other order.
        c.retire(JobId(1));
        let order: Vec<JobId> = c.tasks().iter().map(|t| t.spec.id).collect();
        assert_eq!(order, [JobId(3), JobId(2)]);
        assert_caches_fresh(&mut c, cache, "retire");

        // A tight-deadline job of beta displaces one of the running jobs.
        c.add_jobs(vec![spec(4, 1, 500.0, 600.0)]);
        let r = c.reschedule(t(100.0), rs, 1.0);
        assert_eq!(r.started, vec![JobId(4)]);
        assert_eq!(r.preempted.len(), 1);
        assert_caches_fresh(&mut c, cache, "preempt");
        c.advance(t(160.0), rs);
        assert_caches_fresh(&mut c, cache, "progress");

        c.crash(t(160.0));
        assert!(c.tasks().iter().all(|t| !t.is_running()));
        assert_caches_fresh(&mut c, cache, "crash");
        // Restart after the crash, so the hardware change below has a
        // running set whose FLOPS it changes.
        assert!(!c.reschedule(t(160.0), rs, 1.0).started.is_empty());
        assert_caches_fresh(&mut c, cache, "restart");

        let mut dl = spec(5, 0, 100.0, 1e6);
        dl.input_bytes = 2000.0;
        c.add_jobs(vec![dl]);
        assert_caches_fresh(&mut c, cache, "downloading admission");
        let ev = c.advance(t(162.0), rs);
        assert_eq!(ev.errored, vec![JobId(5)]);
        assert_caches_fresh(&mut c, cache, "transfer give-up");

        // Faster CPUs and a GPU: the FLOPS change, and beta's GPU becomes
        // fetchable.
        let before = cache.by_slot.clone();
        c.hw = Hardware::cpu_only(2, 2e9).with_group(ProcType::NvidiaGpu, 1, 1e10);
        c.invalidate_rr();
        assert_caches_fresh(&mut c, cache, "hw change");
        assert_ne!(cache.by_slot, before);
        let fresh = Client::new(c.hw.clone(), Preferences::default(), net, projects(), cfg);
        for pt in ProcType::ALL {
            assert_eq!(c.accounting.lt_entitled(pt), fresh.accounting.lt_entitled(pt));
        }
        assert_eq!(c.accounting.lt_entitled(ProcType::NvidiaGpu), [1.0]);

        // The queue's first GPU job makes beta runnable on the GPU.
        let mut gpu_job = spec(6, 1, 1000.0, 1e6);
        gpu_job.usage = ResourceUsage::gpu(ProcType::NvidiaGpu, 1.0, 0.1);
        c.add_initial_task(gpu_job, SimDuration::from_secs(10.0));
        assert_caches_fresh(&mut c, cache, "initial task");
    }

    /// Progress is never a structural change, however many `(proc type,
    /// project)` groups it touches: a query inside the frozen window after
    /// 40 groups progressed is a frozen hit.
    #[test]
    fn progress_across_many_groups_stays_a_frozen_hit() {
        let n = 40u32;
        let mut c = Client::new(
            Hardware::cpu_only(n, 1e9),
            Preferences::default(),
            None,
            (0..n).map(|p| Client::project(p, 1.0, &[ProcType::Cpu])).collect(),
            ClientConfig::default(),
        );
        c.add_jobs(
            (0..n)
                .map(|p| {
                    let mut s = spec(p as u64, p, 1e5, 1e7);
                    s.working_set_bytes = 1e6;
                    s
                })
                .collect(),
        );
        let rs = run_state();
        let r = c.reschedule(SimTime::ZERO, rs, 1.0);
        assert_eq!(r.started.len(), n as usize, "every project's job runs");
        let before = c.rr_stats();
        assert_eq!(before.runs, 1);
        // 10 s is well inside the window (τ is capped at 0.125 ·
        // work_buf_min = 225 s by the defaults).
        let now = SimTime::from_secs(10.0);
        c.advance(now, rs);
        c.rr_refresh(now, rs, 1.0);
        let after = c.rr_stats();
        assert_eq!(after.runs, before.runs, "progress alone must not force a full run");
        assert_eq!(after.frozen, before.frozen + 1);
    }

    #[test]
    fn instances_in_use_tracks_running() {
        let mut c = client();
        c.add_jobs(vec![spec(1, 0, 100.0, 1e6), spec(2, 1, 100.0, 1e6)]);
        c.reschedule(SimTime::ZERO, run_state(), 1.0);
        // One CPU: exactly one running.
        assert!((c.instances_in_use()[ProcType::Cpu] - 1.0).abs() < 1e-9);
        let mut by_slot = Vec::new();
        c.flops_in_use_by_slot_into(&mut by_slot);
        assert_eq!(by_slot.len(), 1);
        assert!((by_slot[0].1 - 1e9).abs() < 1.0);
    }
}
