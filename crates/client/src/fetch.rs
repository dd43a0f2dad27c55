//! Client job-fetch policy (§3.4): when to issue a scheduler RPC, which
//! project to ask, and how much work to request.
//!
//! Both policies work from the round-robin simulation's outputs:
//!
//! * **JF-ORIG**: whenever `SHORTFALL(T) > 0` for some type, ask the
//!   highest-`PRIO_fetch` project with jobs of that type for
//!   `X·SHORTFALL(T)` instance-seconds, where `X` is that project's
//!   fractional resource share among projects with jobs of type `T`.
//! * **JF-HYSTERESIS**: only when `SAT(T) < min_queue`, and then ask a
//!   *single* project for the *entire* shortfall (computed to the
//!   `max_queue` horizon).
//!
//! The two distinctions (hysteresis trigger; single-project whole-shortfall
//! requests) are exactly what Figure 5 evaluates: fewer scheduler RPCs at
//! the cost of more monotonous execution.

use crate::accounting::Accounting;
use crate::rr_sim::RrOutcome;
use bce_types::{Hardware, Preferences, ProcMap, ProcType, ProjectId, SimTime};

/// Which fetch policy is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchPolicy {
    Orig,
    Hysteresis,
}

impl FetchPolicy {
    /// Parse the spelling every front end accepts (`--fetch`, manifest
    /// `"fetch"`, `?fetch=`): `orig`, or `hysteresis` / `hyst`.
    pub fn from_flag(name: &str) -> Option<Self> {
        match name {
            "orig" => Some(FetchPolicy::Orig),
            "hysteresis" | "hyst" => Some(FetchPolicy::Hysteresis),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            FetchPolicy::Orig => "JF-ORIG",
            FetchPolicy::Hysteresis => "JF-HYSTERESIS",
        }
    }
}

/// Per-project fetch eligibility snapshot, assembled by the client.
#[derive(Debug, Clone)]
pub(crate) struct FetchProject {
    pub(crate) id: ProjectId,
    pub(crate) share: f64,
    /// Which processor types this project supplies jobs for.
    pub(crate) supplies: ProcMap<bool>,
    /// Project is backed off / unreachable until this time.
    pub(crate) backoff_until: SimTime,
}

/// What to request from one project.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FetchRequest {
    /// Instance-seconds per type.
    pub secs: ProcMap<f64>,
    /// Idle instances per type right now.
    pub instances: ProcMap<f64>,
}

/// The fetch decision: at most one project per decision point (the real
/// client issues one RPC at a time).
#[derive(Debug, Clone, PartialEq)]
pub struct FetchDecision {
    pub project: ProjectId,
    pub request: FetchRequest,
}

/// Minimum request worth an RPC, in instance-seconds; avoids chattering
/// on microscopic shortfalls.
const MIN_REQUEST_SECS: f64 = 1.0;

/// Cheap necessary condition for [`decide`] returning a decision: does any
/// processor type trigger the policy at all? Exactly replicates the
/// per-type trigger tests, so callers can skip assembling the per-project
/// eligibility list when no fetch can happen — the common case at most
/// decision points.
pub(crate) fn would_fetch(
    policy: FetchPolicy,
    rr: &RrOutcome,
    hw: &Hardware,
    prefs: &Preferences,
    gpu_allowed: bool,
) -> bool {
    let min_queue = prefs.work_buf_min;
    ProcType::ALL.iter().any(|&t| {
        hw.ninstances(t) > 0
            && (!t.is_gpu() || gpu_allowed)
            && rr.shortfall[t] > MIN_REQUEST_SECS
            && match policy {
                FetchPolicy::Orig => true,
                FetchPolicy::Hysteresis => rr.sat[t] < min_queue,
            }
    })
}

/// Decide whether to fetch, from which project, and how much.
///
/// `rr` must have been computed with the `max_queue` buffer window (its
/// `shortfall` is the amount needed to fill the queue to `max_queue`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide(
    policy: FetchPolicy,
    now: SimTime,
    rr: &RrOutcome,
    hw: &Hardware,
    prefs: &Preferences,
    accounting: &Accounting,
    projects: &[FetchProject],
    gpu_allowed: bool,
) -> Option<FetchDecision> {
    let min_queue = prefs.work_buf_min;
    let mut chosen: Option<(ProjectId, FetchRequest, f64)> = None;

    for t in ProcType::ALL {
        if hw.ninstances(t) == 0 {
            continue;
        }
        if t.is_gpu() && !gpu_allowed {
            continue;
        }
        let shortfall = rr.shortfall[t];
        let triggered = match policy {
            FetchPolicy::Orig => shortfall > MIN_REQUEST_SECS,
            FetchPolicy::Hysteresis => rr.sat[t] < min_queue && shortfall > MIN_REQUEST_SECS,
        };
        if !triggered {
            continue;
        }
        // Projects that can supply type t and aren't backed off.
        let eligible: Vec<&FetchProject> =
            projects.iter().filter(|p| p.supplies[t] && p.backoff_until <= now).collect();
        if eligible.is_empty() {
            continue;
        }
        // Highest PRIO_fetch wins; ties break on project id for
        // determinism.
        let best = eligible
            .iter()
            .max_by(|a, b| {
                let pa = accounting.prio_fetch(a.id, hw);
                let pb = accounting.prio_fetch(b.id, hw);
                pa.partial_cmp(&pb).unwrap_or(std::cmp::Ordering::Equal).then(b.id.cmp(&a.id))
            })
            .expect("non-empty eligible set");

        let amount = match policy {
            FetchPolicy::Orig => {
                // X = fractional resource share of P among projects with
                // jobs of type T.
                let total: f64 = projects.iter().filter(|p| p.supplies[t]).map(|p| p.share).sum();
                let x = if total > 0.0 { best.share / total } else { 0.0 };
                x * shortfall
            }
            FetchPolicy::Hysteresis => shortfall,
        };
        if amount < MIN_REQUEST_SECS {
            continue;
        }
        let idle_now = (hw.ninstances(t) as f64 - rr.busy_now[t]).max(0.0);
        let prio = accounting.prio_fetch(best.id, hw);

        match &mut chosen {
            // Same project already chosen for another type: extend the
            // request (one RPC can ask for several types).
            Some((pid, req, _)) if *pid == best.id => {
                req.secs[t] = amount;
                req.instances[t] = idle_now;
            }
            // Keep the candidate whose chosen project has higher fetch
            // priority; its request covers its types.
            Some((_, _, best_prio)) if prio <= *best_prio => {}
            _ => {
                let mut req = FetchRequest::default();
                req.secs[t] = amount;
                req.instances[t] = idle_now;
                chosen = Some((best.id, req, prio));
            }
        }
    }

    chosen.map(|(project, request, _)| FetchDecision { project, request })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::AccountingKind;
    use bce_faults::{RetryPolicy, RetryState};
    use bce_types::SimDuration;

    fn hw() -> Hardware {
        Hardware::cpu_only(4, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10)
    }

    fn acct(shares: &[(u32, f64)]) -> Accounting {
        Accounting::new(
            AccountingKind::Local,
            shares.iter().map(|&(p, s)| (ProjectId(p), s)),
            SimDuration::from_days(10.0),
        )
    }

    fn rr(shortfall_cpu: f64, sat_cpu: f64) -> RrOutcome {
        let mut shortfall = ProcMap::zero();
        shortfall[ProcType::Cpu] = shortfall_cpu;
        RrOutcome {
            missed: Default::default(),
            sat: ProcMap::from_fn(|t| {
                if t == ProcType::Cpu {
                    SimDuration::from_secs(sat_cpu)
                } else {
                    SimDuration::ZERO
                }
            }),
            shortfall,
            finish: vec![],
            busy_now: ProcMap::zero(),
        }
    }

    fn cpu_project(id: u32, share: f64) -> FetchProject {
        let mut supplies = ProcMap::from_fn(|_| false);
        supplies[ProcType::Cpu] = true;
        FetchProject { id: ProjectId(id), share, supplies, backoff_until: SimTime::ZERO }
    }

    fn prefs() -> Preferences {
        Preferences {
            work_buf_min: SimDuration::from_secs(1800.0),
            work_buf_extra: SimDuration::from_secs(1800.0),
            ..Default::default()
        }
    }

    #[test]
    fn orig_requests_share_fraction() {
        let projects = [cpu_project(0, 1.0), cpu_project(1, 3.0)];
        let a = acct(&[(0, 1.0), (1, 3.0)]);
        // Equal priorities: tie-break lowest id => P0; X = 1/4.
        let d = decide(
            FetchPolicy::Orig,
            SimTime::ZERO,
            &rr(4000.0, 3000.0),
            &hw(),
            &prefs(),
            &a,
            &projects,
            true,
        )
        .expect("must fetch");
        assert_eq!(d.project, ProjectId(0));
        assert!((d.request.secs[ProcType::Cpu] - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn hysteresis_waits_for_min_queue() {
        let projects = [cpu_project(0, 1.0)];
        let a = acct(&[(0, 1.0)]);
        // Saturated beyond min_queue (1800): no fetch despite shortfall.
        let d = decide(
            FetchPolicy::Hysteresis,
            SimTime::ZERO,
            &rr(4000.0, 2500.0),
            &hw(),
            &prefs(),
            &a,
            &projects,
            true,
        );
        assert!(d.is_none());
        // Saturation below min_queue: fetch the whole shortfall.
        let d = decide(
            FetchPolicy::Hysteresis,
            SimTime::ZERO,
            &rr(4000.0, 100.0),
            &hw(),
            &prefs(),
            &a,
            &projects,
            true,
        )
        .expect("must fetch");
        assert!((d.request.secs[ProcType::Cpu] - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn orig_fetches_on_any_shortfall() {
        let projects = [cpu_project(0, 1.0)];
        let a = acct(&[(0, 1.0)]);
        let d = decide(
            FetchPolicy::Orig,
            SimTime::ZERO,
            &rr(50.0, 2500.0),
            &hw(),
            &prefs(),
            &a,
            &projects,
            true,
        );
        assert!(d.is_some(), "ORIG ignores saturation");
    }

    #[test]
    fn highest_prio_project_chosen() {
        let projects = [cpu_project(0, 1.0), cpu_project(1, 1.0)];
        let mut a = acct(&[(0, 1.0), (1, 1.0)]);
        // P1 starved on CPU => higher debt => chosen.
        let mut sample = crate::accounting::UsageSample::default();
        sample.reset(2);
        sample.used_entry(0)[ProcType::Cpu] = 4.0;
        for slot in [0, 1] {
            sample.mark_runnable(ProcType::Cpu, slot);
        }
        a.set_fetchable(&hw(), projects.iter().map(|p| (p.id, p.supplies)));
        a.update(SimTime::ZERO, SimTime::from_secs(100.0), &hw(), &sample);
        let d = decide(
            FetchPolicy::Hysteresis,
            SimTime::from_secs(100.0),
            &rr(4000.0, 0.0),
            &hw(),
            &prefs(),
            &a,
            &projects,
            true,
        )
        .unwrap();
        assert_eq!(d.project, ProjectId(1));
    }

    #[test]
    fn backoff_excludes_project() {
        let mut p0 = cpu_project(0, 1.0);
        p0.backoff_until = SimTime::from_secs(1e6);
        let projects = [p0, cpu_project(1, 1.0)];
        let a = acct(&[(0, 1.0), (1, 1.0)]);
        let d = decide(
            FetchPolicy::Hysteresis,
            SimTime::ZERO,
            &rr(4000.0, 0.0),
            &hw(),
            &prefs(),
            &a,
            &projects,
            true,
        )
        .unwrap();
        assert_eq!(d.project, ProjectId(1));
    }

    #[test]
    fn no_projects_supply_type() {
        let projects = [cpu_project(0, 1.0)];
        let a = acct(&[(0, 1.0)]);
        // Only GPU shortfall; no project supplies GPU work.
        let mut out = rr(0.0, 1e9);
        out.shortfall[ProcType::NvidiaGpu] = 5000.0;
        out.sat[ProcType::NvidiaGpu] = SimDuration::ZERO;
        let d = decide(
            FetchPolicy::Hysteresis,
            SimTime::ZERO,
            &out,
            &hw(),
            &prefs(),
            &a,
            &projects,
            true,
        );
        assert!(d.is_none());
    }

    #[test]
    fn gpu_fetch_suppressed_when_gpu_disallowed() {
        let mut p = cpu_project(0, 1.0);
        p.supplies[ProcType::NvidiaGpu] = true;
        let projects = [p];
        let a = acct(&[(0, 1.0)]);
        let mut out = rr(0.0, 1e9);
        out.shortfall[ProcType::NvidiaGpu] = 5000.0;
        out.sat[ProcType::NvidiaGpu] = SimDuration::ZERO;
        let d = decide(
            FetchPolicy::Hysteresis,
            SimTime::ZERO,
            &out,
            &hw(),
            &prefs(),
            &a,
            &projects,
            false,
        );
        assert!(d.is_none());
    }

    #[test]
    fn multi_type_request_merges_for_same_project() {
        let mut p = cpu_project(0, 1.0);
        p.supplies[ProcType::NvidiaGpu] = true;
        let projects = [p];
        let a = acct(&[(0, 1.0)]);
        let mut out = rr(3000.0, 0.0);
        out.shortfall[ProcType::NvidiaGpu] = 500.0;
        out.sat[ProcType::NvidiaGpu] = SimDuration::ZERO;
        let d = decide(
            FetchPolicy::Hysteresis,
            SimTime::ZERO,
            &out,
            &hw(),
            &prefs(),
            &a,
            &projects,
            true,
        )
        .unwrap();
        assert!(d.request.secs[ProcType::Cpu] > 0.0);
        assert!(d.request.secs[ProcType::NvidiaGpu] > 0.0);
    }

    #[test]
    fn backoff_doubles_and_resets() {
        // The client's per-project backoff: a `RetryState` failed under the
        // scheduler-RPC policy without jitter.
        let mut b = RetryState::new();
        let fail = |b: &mut RetryState, now| b.fail(now, &RetryPolicy::SCHEDULER_RPC, 0.0);
        assert_eq!(b.until, SimTime::ZERO);
        fail(&mut b, SimTime::ZERO);
        let first = b.until;
        assert!((first.secs() - 60.0).abs() < 1e-9);
        fail(&mut b, first);
        assert!((b.until.secs() - first.secs() - 120.0).abs() < 1e-9);
        for _ in 0..20 {
            let now = b.until;
            fail(&mut b, now);
            assert!((b.until - now).secs() <= 4.0 * 3600.0 + 1e-9);
        }
        b.succeed();
        assert_eq!(b.until, SimTime::ZERO);
    }

    #[test]
    fn idle_instances_requested() {
        let projects = [cpu_project(0, 1.0)];
        let a = acct(&[(0, 1.0)]);
        let mut out = rr(4000.0, 0.0);
        out.busy_now[ProcType::Cpu] = 1.0; // 3 of 4 CPUs idle
        let d = decide(
            FetchPolicy::Hysteresis,
            SimTime::ZERO,
            &out,
            &hw(),
            &prefs(),
            &a,
            &projects,
            true,
        )
        .unwrap();
        assert!((d.request.instances[ProcType::Cpu] - 3.0).abs() < 1e-9);
    }
}
