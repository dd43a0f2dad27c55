//! The simplified project-server model (§4.3c: "BOINC schedulers are
//! simulated with a simplified model").
//!
//! Each attached project gets one `ProjectServer`. It answers scheduler
//! RPCs by drawing jobs from the project's app classes, tracks in-progress
//! results with their deadlines, re-issues results whose deadline passes
//! (the server-side deadline check), and models downtime and no-work
//! periods.

use crate::factory::JobFactory;
use crate::rpc::{RpcOutcome, SchedulerReply, SchedulerRequest};
use bce_avail::{OnOffProcess, OnOffSpec};
use bce_sim::Rng;
use bce_types::{
    AppId, JobId, JobSpec, ProcType, ProjectId, ProjectSpec, ServerUptime, SimDuration, SimTime,
    WorkSupply,
};
use std::collections::BTreeMap;

/// The server-side deadline-check policy — one of the three policy axes
/// BCE takes as input ("a set of flags selecting the job scheduling, job
/// fetch, and server deadline-check policies", §4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlineCheckPolicy {
    /// Re-issue the instant the deadline passes; late results get no
    /// credit (the behaviour the paper's figures assume).
    Strict,
    /// Tolerate lateness up to the grace period before re-issuing; late
    /// results inside the grace window still count.
    Grace(SimDuration),
    /// Never re-issue; every completed result counts (wasteful server
    /// side, forgiving client side).
    None,
}

impl DeadlineCheckPolicy {
    /// The instant after which a result with `deadline` is considered
    /// dead by the server.
    pub(crate) fn expiry(&self, deadline: SimTime) -> SimTime {
        match self {
            DeadlineCheckPolicy::Strict => deadline,
            DeadlineCheckPolicy::Grace(g) => deadline + *g,
            DeadlineCheckPolicy::None => SimTime::FAR_FUTURE,
        }
    }
}

/// Upper bound on jobs handed out per RPC (the real scheduler's reply is
/// bounded by its shared-memory job cache).
const MAX_JOBS_PER_RPC: usize = 64;
/// Minimum delay a reply imposes before the next RPC.
const MIN_RPC_DELAY: SimDuration = SimDuration::from_secs(60.0);
/// Delay imposed when the server has no work.
const NO_WORK_DELAY: SimDuration = SimDuration::from_secs(600.0);

/// Dispatch/report counters, used by the figures of merit (RPCs per job)
/// and by tests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// RPCs that reached the server (including empty-handed ones).
    pub rpcs: u64,
    /// RPCs that found the server down.
    pub failed_rpcs: u64,
    pub(crate) jobs_dispatched: u64,
    pub reported_in_time: u64,
    pub reported_late: u64,
    /// Results whose deadline passed server-side (re-issued elsewhere).
    pub(crate) timed_out: u64,
    /// Results the client reported as permanently failed (e.g. transfer
    /// retries exhausted); re-issued elsewhere in a real deployment.
    pub(crate) errored: u64,
}

/// One project's simulated server.
pub struct ProjectServer {
    spec: ProjectSpec,
    /// How lateness is judged at report time (§4.3's third policy axis).
    deadline_check: DeadlineCheckPolicy,
    factory: JobFactory,
    uptime: Option<OnOffProcess>,
    supply: Option<OnOffProcess>,
    /// §6.2: sporadic availability of particular job types.
    app_supply: Vec<(AppId, OnOffProcess)>,
    batch_remaining: Option<u64>,
    in_progress: BTreeMap<JobId, SimTime>,
    stats: ServerStats,
}

impl ProjectServer {
    /// The server of `spec`, the `slot`-th project of its scenario (the
    /// slot keeps its job ids apart from every other project's).
    pub fn new(
        spec: ProjectSpec,
        slot: usize,
        deadline_check: DeadlineCheckPolicy,
        rng: &mut Rng,
    ) -> Self {
        let uptime = match spec.uptime {
            ServerUptime::AlwaysUp => None,
            ServerUptime::Sporadic { up_mean, down_mean } => Some(
                OnOffSpec::Exponential { up_mean, down_mean, start_on: true }
                    .instantiate(rng.fork("uptime")),
            ),
        };
        let (supply, batch_remaining) = match spec.supply {
            WorkSupply::Unlimited => (None, None),
            WorkSupply::Sporadic { work_mean, dry_mean } => (
                Some(
                    OnOffSpec::Exponential {
                        up_mean: work_mean,
                        down_mean: dry_mean,
                        start_on: true,
                    }
                    .instantiate(rng.fork("supply")),
                ),
                None,
            ),
            WorkSupply::Batch { njobs } => (None, Some(njobs)),
        };
        let app_supply: Vec<(AppId, OnOffProcess)> = spec
            .apps
            .iter()
            .filter_map(|a| {
                a.supply.map(|sp| {
                    let proc = OnOffSpec::Exponential {
                        up_mean: sp.work_mean,
                        down_mean: sp.dry_mean,
                        start_on: true,
                    }
                    .instantiate(rng.fork(&format!("app-supply-{}", a.id)));
                    (a.id, proc)
                })
            })
            .collect();
        let factory = JobFactory::new(spec.id, slot, rng.fork("jobs"));
        ProjectServer {
            spec,
            deadline_check,
            factory,
            uptime,
            supply,
            app_supply,
            batch_remaining,
            in_progress: BTreeMap::new(),
            stats: ServerStats::default(),
        }
    }

    pub fn id(&self) -> ProjectId {
        self.spec.id
    }

    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    pub(crate) fn is_up(&mut self, now: SimTime) -> bool {
        match &mut self.uptime {
            None => true,
            Some(p) => {
                p.advance(now);
                p.state()
            }
        }
    }

    fn has_work(&mut self, now: SimTime) -> bool {
        if let Some(rem) = self.batch_remaining {
            if rem == 0 {
                return false;
            }
        }
        match &mut self.supply {
            None => true,
            Some(p) => {
                p.advance(now);
                p.state()
            }
        }
    }

    /// Create a job that was dispatched *before* the emulation started
    /// (an imported in-flight result): sampled from the named app class,
    /// registered in progress with its historical receipt time.
    pub fn make_initial_job(
        &mut self,
        app: bce_types::AppId,
        received: SimTime,
    ) -> Option<JobSpec> {
        let idx = self.spec.apps.iter().position(|a| a.id == app)?;
        let template = self.spec.apps[idx].clone();
        let job = self.factory.make_job(&template, received);
        self.in_progress.insert(job.id, job.deadline());
        self.stats.jobs_dispatched += 1;
        Some(job)
    }

    /// Handle a scheduler RPC (§3: "each RPC can report completed jobs and
    /// request new jobs"). Fills the per-type requested instance-seconds /
    /// idle instances greedily from the project's app classes.
    pub fn handle_rpc(&mut self, now: SimTime, req: &SchedulerRequest) -> RpcOutcome {
        if !self.is_up(now) {
            self.stats.failed_rpcs += 1;
            return RpcOutcome::Down;
        }
        self.stats.rpcs += 1;

        let mut jobs: Vec<JobSpec> = Vec::new();
        if self.has_work(now) {
            // Which app classes supply jobs is fixed for the whole RPC:
            // each process has its own RNG stream, and advancing it to the
            // same `now` again changes nothing.
            for (_, p) in &mut self.app_supply {
                p.advance(now);
            }
            let app_supply = &self.app_supply;
            let supplying = |app: AppId| {
                app_supply.iter().find(|(id, _)| *id == app).is_none_or(|(_, p)| p.state())
            };
            for t in ProcType::ALL {
                let r = req.per_type[t];
                if r.is_empty() {
                    continue;
                }
                let mut secs_filled = 0.0;
                let mut inst_filled = 0.0;
                while (secs_filled < r.secs || inst_filled < r.instances)
                    && jobs.len() < MAX_JOBS_PER_RPC
                {
                    if let Some(rem) = self.batch_remaining {
                        if rem == 0 {
                            break;
                        }
                    }
                    let Some(idx) = self.factory.pick_app(&self.spec.apps, |a| {
                        a.usage.main_proc_type() == t && supplying(a.id)
                    }) else {
                        break;
                    };
                    let job = self.factory.make_job(&self.spec.apps[idx], now);
                    let inst = job.usage.instances_of(t).max(1e-6);
                    secs_filled += job.duration_est.secs() * inst;
                    inst_filled += inst;
                    self.in_progress.insert(job.id, job.deadline());
                    if let Some(rem) = &mut self.batch_remaining {
                        *rem -= 1;
                    }
                    jobs.push(job);
                }
            }
        }

        self.stats.jobs_dispatched += jobs.len() as u64;
        let delay = if jobs.is_empty() && !req.is_empty() {
            // Nothing to give: back the client off harder.
            NO_WORK_DELAY
        } else {
            MIN_RPC_DELAY
        };
        RpcOutcome::Reply(SchedulerReply { jobs, delay })
    }

    /// Client reports a completed result. Returns whether the server
    /// grants credit under its deadline-check policy (a result past its
    /// expiry — or already re-issued — gets none).
    pub fn report_completed(&mut self, now: SimTime, job: JobId) -> bool {
        match self.in_progress.remove(&job) {
            Some(deadline) if now <= self.deadline_check.expiry(deadline) => {
                self.stats.reported_in_time += 1;
                true
            }
            _ => {
                self.stats.reported_late += 1;
                false
            }
        }
    }

    /// Client reports a permanent job failure (retry budget exhausted):
    /// the result is abandoned; a real server would issue a new instance
    /// to another host.
    pub fn report_errored(&mut self, job: JobId) {
        if self.in_progress.remove(&job).is_some() {
            self.stats.errored += 1;
        }
    }

    /// Server-side deadline check: drop and count results whose expiry
    /// (deadline plus any grace) has passed. The real server would issue a
    /// new instance to another host; in a single-host emulation the work
    /// is simply counted wasted. Returns how many results expired.
    pub fn check_deadlines(&mut self, now: SimTime) -> u64 {
        let policy = self.deadline_check;
        let before = self.in_progress.len();
        self.in_progress.retain(|_, &mut dl| policy.expiry(dl) >= now);
        let expired = (before - self.in_progress.len()) as u64;
        self.stats.timed_out += expired;
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::{AppClass, SimDuration};

    fn spec() -> ProjectSpec {
        ProjectSpec::new(0, "p", 100.0).with_app(AppClass::cpu(
            0,
            SimDuration::from_secs(1000.0),
            SimDuration::from_hours(2.0),
        ))
    }

    fn req_cpu(secs: f64, instances: f64) -> SchedulerRequest {
        let mut r = SchedulerRequest::default();
        r.per_type[ProcType::Cpu] = crate::rpc::TypeRequest { secs, instances };
        r
    }

    fn server(spec: ProjectSpec) -> ProjectServer {
        ProjectServer::new(spec, 0, DeadlineCheckPolicy::Strict, &mut Rng::from_seed(9))
    }

    #[test]
    fn fills_requested_seconds() {
        let mut s = server(spec());
        let out = s.handle_rpc(SimTime::ZERO, &req_cpu(3500.0, 0.0));
        let RpcOutcome::Reply(reply) = out else { panic!("down?") };
        // ~1000 s jobs: needs 4 to cover 3500 instance-seconds.
        assert_eq!(reply.jobs.len(), 4);
        assert_eq!(s.stats().jobs_dispatched, 4);
        assert_eq!(s.in_progress.len(), 4);
    }

    #[test]
    fn fills_requested_instances() {
        let mut s = server(spec());
        let RpcOutcome::Reply(reply) = s.handle_rpc(SimTime::ZERO, &req_cpu(0.0, 2.0)) else {
            panic!()
        };
        assert_eq!(reply.jobs.len(), 2);
    }

    #[test]
    fn empty_request_gets_no_jobs() {
        let mut s = server(spec());
        let RpcOutcome::Reply(reply) = s.handle_rpc(SimTime::ZERO, &SchedulerRequest::default())
        else {
            panic!()
        };
        assert!(reply.jobs.is_empty());
        assert_eq!(reply.delay, MIN_RPC_DELAY);
    }

    #[test]
    fn max_jobs_per_rpc_caps_reply() {
        // ~1000 s jobs: a 1e9-second request wants far more than the cap.
        let mut s = server(spec());
        let RpcOutcome::Reply(reply) = s.handle_rpc(SimTime::ZERO, &req_cpu(1e9, 0.0)) else {
            panic!()
        };
        assert_eq!(reply.jobs.len(), MAX_JOBS_PER_RPC);
    }

    #[test]
    fn no_apps_for_requested_type() {
        let mut s = server(spec());
        let mut r = SchedulerRequest::default();
        r.per_type[ProcType::NvidiaGpu] = crate::rpc::TypeRequest { secs: 1000.0, instances: 1.0 };
        let RpcOutcome::Reply(reply) = s.handle_rpc(SimTime::ZERO, &r) else { panic!() };
        assert!(reply.jobs.is_empty());
        // Non-empty request unfilled => no-work backoff delay.
        assert_eq!(reply.delay, NO_WORK_DELAY);
    }

    #[test]
    fn batch_supply_runs_dry() {
        let mut s = server(ProjectSpec { supply: WorkSupply::Batch { njobs: 2 }, ..spec() });
        let RpcOutcome::Reply(r1) = s.handle_rpc(SimTime::ZERO, &req_cpu(1e5, 0.0)) else {
            panic!()
        };
        assert_eq!(r1.jobs.len(), 2);
        let RpcOutcome::Reply(r2) = s.handle_rpc(SimTime::ZERO, &req_cpu(1e5, 0.0)) else {
            panic!()
        };
        assert!(r2.jobs.is_empty());
    }

    #[test]
    fn downtime_fails_rpcs() {
        let s = ProjectSpec {
            uptime: ServerUptime::Sporadic {
                up_mean: SimDuration::from_secs(1.0),
                down_mean: SimDuration::from_secs(1e9),
            },
            ..spec()
        };
        let mut srv = server(s);
        // Advance far: with up_mean 1 s and down_mean 1e9 s the server is
        // almost surely down at t = 1e6.
        let out = srv.handle_rpc(SimTime::from_secs(1e6), &req_cpu(10.0, 0.0));
        assert_eq!(out, RpcOutcome::Down);
        assert_eq!(srv.stats().failed_rpcs, 1);
    }

    #[test]
    fn deadline_check_expires_results() {
        let mut s = server(spec());
        let RpcOutcome::Reply(reply) = s.handle_rpc(SimTime::ZERO, &req_cpu(1000.0, 0.0)) else {
            panic!()
        };
        let id = reply.jobs[0].id;
        let dl = reply.jobs[0].deadline();
        assert_eq!(s.in_progress.values().copied().min(), Some(dl));
        let expired = s.check_deadlines(dl + SimDuration::from_secs(1.0));
        assert!(!s.in_progress.contains_key(&id));
        assert!(expired >= 1);
        assert_eq!(s.stats().timed_out, expired);
        // Late report after expiry is counted late.
        assert!(!s.report_completed(dl + SimDuration::from_secs(2.0), id));
        assert_eq!(s.stats().reported_late, 1);
    }

    #[test]
    fn errored_report_abandons_result() {
        let mut s = server(spec());
        let RpcOutcome::Reply(reply) = s.handle_rpc(SimTime::ZERO, &req_cpu(1000.0, 0.0)) else {
            panic!()
        };
        let id = reply.jobs[0].id;
        s.report_errored(id);
        assert_eq!(s.stats().errored, 1);
        assert_eq!(s.in_progress.len(), reply.jobs.len() - 1);
        // Double-report is a no-op.
        s.report_errored(id);
        assert_eq!(s.stats().errored, 1);
    }

    #[test]
    fn in_time_report() {
        let mut s = server(spec());
        let RpcOutcome::Reply(reply) = s.handle_rpc(SimTime::ZERO, &req_cpu(1000.0, 0.0)) else {
            panic!()
        };
        let id = reply.jobs[0].id;
        assert!(s.report_completed(SimTime::from_secs(100.0), id));
        assert_eq!(s.stats().reported_in_time, 1);
        assert_eq!(s.in_progress.len(), reply.jobs.len() - 1);
    }
}
