//! Differential tests for the round-robin simulation fast path.
//!
//! `simulate` / `simulate_into` (grouped, allocation-free) must be
//! *bit-identical* to `simulate_reference`, the original per-call-allocating
//! implementation, kept below as a private oracle. Three angles:
//!
//! 1. One-shot equivalence over randomized multi-project, multi-proc-type
//!    workloads (shares, on_frac, instance counts, fractional demands),
//!    from two strategies: a wide one (up to 32 jobs over 6 projects,
//!    continuous values) and a deep, tie-heavy one (up to 96 jobs over
//!    1–3 projects, values from small sets, so several jobs and several
//!    groups finish in one step).
//! 2. Scratch-reuse equivalence: a single `RrScratch`/`RrOutcome` pair
//!    driven through a *sequence* of differently-shaped workloads must
//!    produce the same results as fresh per-call state.
//! 3. Client-level cache coherence: `rr_refresh`/`rr_snapshot` through
//!    repeated hit/miss sequences must always agree with an uncached
//!    `rr_simulate` of the same state, built here from the client's
//!    public queue.

use bce_avail::HostRunState;
use bce_client::{
    rr_simulate, rr_simulate_into, Client, ClientConfig, RrJob, RrOutcome, RrPlatform, RrScratch,
};
use bce_types::{
    AppId, Hardware, JobId, JobSpec, Preferences, ProcMap, ProcType, ProjectId, ResourceUsage,
    SimDuration, SimTime,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// An `RrOutcome` with its missed set spelled out: `RrOutcome` exposes it
/// only through `is_endangered`, and every missed job also has a finish
/// time, so the set is recovered from the finish list.
#[derive(Debug, Clone)]
struct Outcome {
    missed: Vec<JobId>,
    sat: ProcMap<SimDuration>,
    shortfall: ProcMap<f64>,
    finish: Vec<(JobId, SimDuration)>,
    busy_now: ProcMap<f64>,
}

impl From<&RrOutcome> for Outcome {
    fn from(o: &RrOutcome) -> Self {
        let mut missed: Vec<JobId> =
            o.finish.iter().map(|&(id, _)| id).filter(|&id| o.is_endangered(id)).collect();
        missed.sort_unstable();
        Outcome {
            missed,
            sat: o.sat,
            shortfall: o.shortfall,
            finish: o.finish.clone(),
            busy_now: o.busy_now,
        }
    }
}

/// The original per-call-allocating implementation of the round-robin
/// simulation, kept verbatim (apart from its result type) as the
/// differential-testing oracle for `rr_simulate` / `rr_simulate_into`.
fn simulate_reference(platform: &RrPlatform, jobs: &[RrJob], buf_window: SimDuration) -> Outcome {
    // Mutable remaining work; simulation proceeds between job-completion
    // events with piecewise-constant rates.
    let mut remaining: Vec<f64> = jobs.iter().map(|j| j.remaining.secs().max(0.0)).collect();
    let mut done: Vec<bool> = remaining.iter().map(|&r| r <= 0.0).collect();
    let mut missed = HashSet::new();
    let mut finish: Vec<(JobId, SimDuration)> = Vec::with_capacity(jobs.len());
    let mut sat = ProcMap::from_fn(|_| SimDuration::ZERO);
    let mut sat_open = ProcMap::from_fn(|t| platform.ninstances[t] > 0.0);
    let mut shortfall = ProcMap::zero();
    let mut busy_now = ProcMap::zero();

    let on_frac = platform.on_frac.clamp(1e-6, 1.0);
    let horizon = buf_window.secs().max(0.0);
    let mut t = 0.0f64; // offset from now
    let mut first_step = true;

    loop {
        // Per-type, per-project allocation under weighted round robin.
        // rate[i] = fraction of dedicated speed job i runs at.
        let mut rates: Vec<f64> = vec![0.0; jobs.len()];
        let mut busy = ProcMap::zero();

        for pt in ProcType::ALL {
            let ninst = platform.ninstances[pt];
            if ninst <= 0.0 {
                continue;
            }
            // Projects with unfinished jobs of this type, with their total
            // instance demand.
            let mut proj: Vec<(ProjectId, f64, f64)> = Vec::new(); // (id, share, demand)
            for (i, j) in jobs.iter().enumerate() {
                if done[i] || j.proc_type != pt {
                    continue;
                }
                let demand = j.instances.max(1e-9);
                match proj.iter_mut().find(|(id, _, _)| *id == j.project) {
                    Some(entry) => entry.2 += demand,
                    None => {
                        let share = platform
                            .shares
                            .iter()
                            .find(|(id, _)| *id == j.project)
                            .map_or(0.0, |(_, s)| *s);
                        proj.push((j.project, share, demand))
                    }
                }
            }
            if proj.is_empty() {
                continue;
            }
            // Share-weighted instance allocation with redistribution of
            // surplus from projects whose demand is below their share.
            let mut alloc: Vec<f64> = vec![0.0; proj.len()];
            let mut capacity = ninst;
            let mut active: Vec<usize> = (0..proj.len()).collect();
            for _ in 0..proj.len() + 1 {
                let wsum: f64 = active.iter().map(|&k| proj[k].1).sum();
                if wsum <= 0.0 || capacity <= 1e-12 || active.is_empty() {
                    break;
                }
                let mut next_active = Vec::new();
                let mut used = 0.0;
                for &k in &active {
                    let fair = capacity * proj[k].1 / wsum;
                    let need = proj[k].2 - alloc[k];
                    if need <= fair + 1e-12 {
                        alloc[k] += need.max(0.0);
                        used += need.max(0.0);
                    } else {
                        alloc[k] += fair;
                        used += fair;
                        next_active.push(k);
                    }
                }
                capacity -= used;
                if next_active.len() == active.len() {
                    break; // nobody saturated; no surplus to redistribute
                }
                active = next_active;
            }
            // Distribute each project's allocation over its jobs
            // (proportional to per-job demand).
            for (k, &(pid, _, demand)) in proj.iter().enumerate() {
                let frac = (alloc[k] / demand).min(1.0);
                for (i, j) in jobs.iter().enumerate() {
                    if !done[i] && j.proc_type == pt && j.project == pid {
                        rates[i] = frac * on_frac;
                        busy[pt] += frac * j.instances;
                    }
                }
            }
        }

        if first_step {
            busy_now = busy;
            first_step = false;
        }

        // Next completion event.
        let mut dt = f64::INFINITY;
        for i in 0..jobs.len() {
            if !done[i] && rates[i] > 0.0 {
                dt = dt.min(remaining[i] / rates[i]);
            }
        }

        // Accrue saturation and shortfall over [t, t+dt).
        let seg_end = if dt.is_finite() { t + dt } else { t };
        for pt in ProcType::ALL {
            let ninst = platform.ninstances[pt];
            if ninst <= 0.0 {
                continue;
            }
            if sat_open[pt] && busy[pt] < ninst - 1e-9 {
                sat[pt] = SimDuration::from_secs(t);
                sat_open[pt] = false;
            }
            // Idle instance-seconds within the buffer window.
            let w_end = seg_end.min(horizon);
            if w_end > t {
                shortfall[pt] += (ninst - busy[pt]).max(0.0) * (w_end - t);
            }
        }

        if !dt.is_finite() {
            // Nothing runnable: remaining window is pure shortfall.
            for pt in ProcType::ALL {
                let ninst = platform.ninstances[pt];
                if ninst > 0.0 {
                    if sat_open[pt] {
                        sat[pt] = SimDuration::from_secs(t);
                        sat_open[pt] = false;
                    }
                    if horizon > t {
                        shortfall[pt] += ninst * (horizon - t);
                    }
                }
            }
            break;
        }

        // Advance to the event.
        t += dt;
        for i in 0..jobs.len() {
            if done[i] || rates[i] <= 0.0 {
                continue;
            }
            remaining[i] -= rates[i] * dt;
            if remaining[i] <= 1e-6 {
                done[i] = true;
                let fin = SimDuration::from_secs(t);
                finish.push((jobs[i].id, fin));
                if jobs[i].deadline < platform.now + fin {
                    missed.insert(jobs[i].id);
                }
            }
        }
        if done.iter().all(|&d| d) {
            for pt in ProcType::ALL {
                let ninst = platform.ninstances[pt];
                if ninst > 0.0 {
                    if sat_open[pt] {
                        sat[pt] = SimDuration::from_secs(t);
                        sat_open[pt] = false;
                    }
                    if horizon > t {
                        shortfall[pt] += ninst * (horizon - t);
                    }
                }
            }
            break;
        }
        if t > 3650.0 * 86_400.0 {
            // Safety valve: pathological workloads (e.g. zero rates from
            // extreme preference limits) must not hang the emulator.
            break;
        }
    }

    let mut missed: Vec<JobId> = missed.into_iter().collect();
    missed.sort_unstable();
    Outcome { missed, sat, shortfall, finish, busy_now }
}

/// Randomized workload description: host shape plus a job list spanning
/// several projects and processor types.
#[derive(Debug, Clone)]
struct Workload {
    ncpus: f64,
    ngpus: f64,
    on_frac: f64,
    window: f64,
    /// `(project, gpu?, remaining, deadline, instances)` per job.
    jobs: Vec<(u32, bool, f64, f64, f64)>,
    /// Per-project resource shares (projects 0..6 wide, 0..3 deep).
    shares: Vec<f64>,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        1.0f64..16.0,
        prop_oneof![Just(0.0f64), 1.0f64..4.0],
        0.1f64..1.0,
        0.0f64..200_000.0,
        proptest::collection::vec(
            (
                0u32..6,            // project
                any::<bool>(),      // gpu job?
                1.0f64..50_000.0,   // remaining secs
                50.0f64..500_000.0, // deadline secs
                0.25f64..3.0,       // fractional instance demand
            ),
            0..32,
        ),
        proptest::collection::vec(0.0f64..10.0, 6),
    )
        .prop_map(|(ncpus, ngpus, on_frac, window, jobs, shares)| Workload {
            ncpus,
            ngpus,
            on_frac,
            window,
            jobs,
            shares,
        })
}

/// One of a handful of values: ties in remaining work, demands and shares
/// make several jobs (and several groups) finish in the same step.
fn pick(values: &'static [f64]) -> impl Strategy<Value = f64> {
    (0..values.len()).prop_map(move |i| values[i])
}

/// A GPU job one time in five.
fn gpu_job() -> impl Strategy<Value = bool> {
    (0u32..5).prop_map(|x| x == 0)
}

const DEEP_REMAINING: &[f64] = &[60.0, 300.0, 1000.0, 3600.0, 7200.0];
const DEEP_DEADLINE: &[f64] = &[2_000.0, 10_000.0, 50_000.0, 200_000.0];
const DEEP_INSTANCES: &[f64] = &[1.0, 0.5, 0.05];
const DEEP_SHARES: &[f64] = &[0.0, 1.0, 2.0];

/// Deep, tie-heavy workloads: the population-host shape of a few
/// (type, project) groups holding tens of jobs each, on a host where a
/// processor type sometimes has no instances.
fn deep_workload() -> impl Strategy<Value = Workload> {
    (
        pick(&[0.0, 1.0, 2.0, 4.0, 8.0, 16.0]),
        pick(&[0.0, 0.0, 1.0, 2.0]),
        pick(&[1.0, 0.5, 0.3]),
        pick(&[0.0, 1800.0, 20_000.0, 200_000.0]),
        1u32..4,
        proptest::collection::vec(
            (0u32..3, gpu_job(), pick(DEEP_REMAINING), pick(DEEP_DEADLINE), pick(DEEP_INSTANCES)),
            0..96,
        ),
        proptest::collection::vec(pick(DEEP_SHARES), 3),
    )
        .prop_map(|(ncpus, ngpus, on_frac, window, nprojects, mut jobs, mut shares)| {
            for job in &mut jobs {
                job.0 %= nprojects;
            }
            shares.truncate(nprojects as usize);
            Workload { ncpus, ngpus, on_frac, window, jobs, shares }
        })
}

fn build(w: &Workload) -> (RrPlatform, Vec<RrJob>) {
    let mut ninstances = ProcMap::zero();
    ninstances[ProcType::Cpu] = w.ncpus;
    ninstances[ProcType::NvidiaGpu] = w.ngpus;
    let platform = RrPlatform {
        now: SimTime::from_secs(1234.5),
        ninstances,
        on_frac: w.on_frac,
        shares: w.shares.iter().enumerate().map(|(p, &s)| (ProjectId(p as u32), s)).collect(),
    };
    let jobs: Vec<RrJob> = w
        .jobs
        .iter()
        .enumerate()
        .map(|(i, &(project, gpu, remaining, deadline, instances))| RrJob {
            id: JobId(i as u64),
            project: ProjectId(project),
            proc_type: if gpu { ProcType::NvidiaGpu } else { ProcType::Cpu },
            instances,
            remaining: SimDuration::from_secs(remaining),
            deadline: SimTime::from_secs(deadline),
        })
        .collect();
    (platform, jobs)
}

/// Bit-exact comparison: `PartialEq` on f64 is exactly what we want here —
/// the fast path must not change results even in the last ulp.
fn assert_identical(fast: &RrOutcome, oracle: &Outcome) {
    let fast = Outcome::from(fast);
    assert_eq!(fast.missed, oracle.missed, "missed sets differ");
    assert_eq!(fast.finish, oracle.finish, "finish times differ");
    for t in ProcType::ALL {
        assert_eq!(fast.sat[t], oracle.sat[t], "sat[{t:?}] differs");
        assert_eq!(
            fast.shortfall[t].to_bits(),
            oracle.shortfall[t].to_bits(),
            "shortfall[{t:?}] differs: {} vs {}",
            fast.shortfall[t],
            oracle.shortfall[t]
        );
        assert_eq!(
            fast.busy_now[t].to_bits(),
            oracle.busy_now[t].to_bits(),
            "busy_now[{t:?}] differs"
        );
    }
}

/// `simulate` over `w` is bit-identical to the reference implementation.
fn check_one_shot(w: &Workload) {
    let (platform, jobs) = build(w);
    let window = SimDuration::from_secs(w.window);
    let fast = rr_simulate(&platform, &jobs, window);
    let oracle = simulate_reference(&platform, &jobs, window);
    assert_identical(&fast, &oracle);
}

/// One `RrScratch`/`RrOutcome` pair fed a sequence of differently-shaped
/// workloads (stale capacities, stale group tables) matches fresh
/// reference runs at every step.
fn check_scratch_reuse(ws: &[Workload]) {
    let mut scratch = RrScratch::new();
    let mut out = RrOutcome::default();
    for w in ws {
        let (platform, jobs) = build(w);
        let window = SimDuration::from_secs(w.window);
        rr_simulate_into(&platform, &jobs, window, &mut scratch, &mut out);
        let oracle = simulate_reference(&platform, &jobs, window);
        assert_identical(&out, &oracle);
    }
}

/// `w0` evolved in place by `ops`, with one scratch carried across every
/// step, matches a fresh reference run after each step.
fn check_evolving(w0: Workload, ops: Vec<Mutation>) {
    let mut w = w0;
    let mut scratch = RrScratch::new();
    let mut out = RrOutcome::default();
    for op in ops {
        match op {
            Mutation::Decay(i, frac) => {
                if !w.jobs.is_empty() {
                    let i = i % w.jobs.len();
                    w.jobs[i].2 *= frac;
                }
            }
            Mutation::Remove(i) => {
                if !w.jobs.is_empty() {
                    let i = i % w.jobs.len();
                    w.jobs.remove(i);
                }
            }
            Mutation::Add(p, gpu, rem, dl, inst) => w.jobs.push((p, gpu, rem, dl, inst)),
            Mutation::OnFrac(f) => w.on_frac = f,
            Mutation::Gpus(n) => w.ngpus = n,
            Mutation::Share(p, s) => {
                let n = w.shares.len();
                w.shares[p % n] = s;
            }
        }
        let (platform, jobs) = build(&w);
        let window = SimDuration::from_secs(w.window);
        rr_simulate_into(&platform, &jobs, window, &mut scratch, &mut out);
        let oracle = simulate_reference(&platform, &jobs, window);
        assert_identical(&out, &oracle);
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        // Decay one job's remaining time (running-task progress).
        (0usize..64, 0.01f64..0.99).prop_map(|(i, f)| Mutation::Decay(i, f)),
        // Remove one job (completion).
        (0usize..64).prop_map(Mutation::Remove),
        // A new arrival.
        (0u32..6, any::<bool>(), 1.0f64..50_000.0, 50.0f64..500_000.0, 0.25f64..3.0)
            .prop_map(|(p, g, r, d, i)| Mutation::Add(p, g, r, d, i)),
        // Host availability / duty-cycle drift.
        (0.1f64..1.0).prop_map(Mutation::OnFrac),
        // GPU appears or disappears (run-state flip).
        prop_oneof![Just(0.0f64), 1.0f64..4.0].prop_map(Mutation::Gpus),
        // A project's resource share changes.
        (0usize..6, 0.0f64..10.0).prop_map(|(p, s)| Mutation::Share(p, s)),
    ]
}

/// [`mutation`] with every value drawn from the deep strategy's small
/// sets, so evolved queues keep their ties.
fn deep_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..96, pick(&[0.5, 0.25])).prop_map(|(i, f)| Mutation::Decay(i, f)),
        (0usize..96).prop_map(Mutation::Remove),
        (0u32..3, gpu_job(), pick(DEEP_REMAINING), pick(DEEP_DEADLINE), pick(DEEP_INSTANCES))
            .prop_map(|(p, g, r, d, i)| Mutation::Add(p, g, r, d, i)),
        pick(&[1.0, 0.5, 0.3]).prop_map(Mutation::OnFrac),
        pick(&[0.0, 1.0, 2.0]).prop_map(Mutation::Gpus),
        (0usize..3, pick(DEEP_SHARES)).prop_map(|(p, s)| Mutation::Share(p, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192 })]

    /// One-shot: `simulate` over a random workload is bit-identical to the
    /// reference implementation.
    #[test]
    fn simulate_matches_reference(w in workload()) {
        check_one_shot(&w);
    }

    /// The one-shot check on deep, tie-heavy workloads.
    #[test]
    fn deep_simulate_matches_reference(w in deep_workload()) {
        check_one_shot(&w);
    }

    /// Scratch reuse: one `RrScratch`/`RrOutcome` pair fed a sequence of
    /// differently-shaped workloads (stale capacities, stale group tables)
    /// must match fresh reference runs at every step.
    #[test]
    fn scratch_reuse_matches_reference(ws in proptest::collection::vec(workload(), 1..6)) {
        check_scratch_reuse(&ws);
    }

    /// Scratch reuse across deep, tie-heavy workloads, mixed with wide ones
    /// so group tables shrink and grow between calls.
    #[test]
    fn deep_scratch_reuse_matches_reference(
        ws in proptest::collection::vec(prop_oneof![deep_workload(), workload()], 1..6),
    ) {
        check_scratch_reuse(&ws);
    }

    /// Adversarial dirty sequences: one workload *evolved in place* by
    /// small deltas — progress decay, single-job removal and arrival,
    /// platform flips — with the scratch carried across every step. Small
    /// deltas are the dangerous case for reused state: most of the
    /// scratch's previous contents stay plausible, so stale entries are
    /// reachable in a way that fresh random workloads never exercise.
    #[test]
    fn evolving_workload_matches_reference(
        w0 in workload(),
        ops in proptest::collection::vec(mutation(), 1..24),
    ) {
        check_evolving(w0, ops);
    }

    /// The evolving check on deep, tie-heavy workloads.
    #[test]
    fn deep_evolving_workload_matches_reference(
        w0 in deep_workload(),
        ops in proptest::collection::vec(deep_mutation(), 1..24),
    ) {
        check_evolving(w0, ops);
    }
}

/// Jobs of two groups on eight CPUs that finish in the same step, several
/// per group, are reported in job order, interleaved across the groups
/// as the reference's full scan finds them.
#[test]
fn same_step_finishers_across_groups_are_reported_in_job_order() {
    let w = Workload {
        ncpus: 8.0,
        ngpus: 0.0,
        on_frac: 1.0,
        window: 1800.0,
        jobs: vec![
            (0, false, 300.0, 10_000.0, 1.0),
            (1, false, 300.0, 10_000.0, 1.0),
            (0, false, 1000.0, 10_000.0, 1.0),
            (1, false, 300.0, 200.0, 1.0),
            (0, false, 300.0, 10_000.0, 1.0),
            (1, false, 1000.0, 10_000.0, 1.0),
        ],
        shares: vec![1.0, 1.0],
    };
    check_one_shot(&w);
    let (platform, jobs) = build(&w);
    let out = rr_simulate(&platform, &jobs, SimDuration::from_secs(w.window));
    let first: Vec<u64> = out.finish[..4].iter().map(|(id, _)| id.0).collect();
    assert_eq!(first, [0, 1, 3, 4]);
    assert!(out.finish[..4].iter().all(|&(_, t)| t == out.finish[0].1));
    let missed: Vec<JobId> =
        out.finish.iter().map(|&(id, _)| id).filter(|&id| out.is_endangered(id)).collect();
    assert_eq!(missed, [JobId(3)]);
}

/// One evolution step of [`evolving_workload_matches_reference`].
#[derive(Debug, Clone)]
enum Mutation {
    Decay(usize, f64),
    Remove(usize),
    Add(u32, bool, f64, f64, f64),
    OnFrac(f64),
    Gpus(f64),
    Share(usize, f64),
}

// ---------------------------------------------------------------------------
// Client-level cache coherence.
// ---------------------------------------------------------------------------

fn run_state() -> HostRunState {
    HostRunState { can_compute: true, can_gpu: true, net_up: true, user_active: false }
}

fn spec(id: u64, project: u32, dur: f64, latency: f64, gpu: bool) -> JobSpec {
    JobSpec {
        id: JobId(id),
        project: ProjectId(project),
        app: AppId(0),
        usage: if gpu {
            ResourceUsage::gpu(ProcType::NvidiaGpu, 1.0, 0.1)
        } else {
            ResourceUsage::one_cpu()
        },
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

/// An uncached simulation of `c`'s live queue, derived from its public
/// state and the [`cache_client`] set-up alone: every task neither
/// completed nor errored, at its estimated remaining time (the client only
/// knows `duration_est`; an over-run task is assumed nearly done), on the
/// instances `rs` lets compute.
fn uncached(c: &Client, now: SimTime, rs: HostRunState, on_frac: f64) -> RrOutcome {
    let (hw, prefs) = (cache_hardware(), Preferences::default());
    let platform = RrPlatform {
        now,
        ninstances: ProcMap::from_fn(|t| match t {
            ProcType::Cpu if rs.can_compute => prefs.usable_cpus(hw.ninstances(t)) as f64,
            ProcType::Cpu => 0.0,
            _ if rs.can_gpu => hw.ninstances(t) as f64,
            _ => 0.0,
        }),
        on_frac,
        shares: CACHE_SHARES.iter().map(|&(id, share)| (ProjectId(id), share)).collect(),
    };
    let jobs: Vec<RrJob> = c
        .tasks()
        .iter()
        .filter(|t| !t.is_complete() && !t.is_errored())
        .map(|t| {
            let pt = t.spec.usage.main_proc_type();
            RrJob {
                id: t.spec.id,
                project: t.spec.project,
                proc_type: pt,
                instances: t.spec.usage.instances_of(pt),
                remaining: SimDuration::from_secs(
                    (t.spec.duration_est.secs() - t.progress()).max(1.0),
                ),
                deadline: t.spec.deadline(),
            }
        })
        .collect();
    rr_simulate(&platform, &jobs, prefs.work_buf_max())
}

/// `(project id, resource share)` of [`cache_client`]'s projects.
const CACHE_SHARES: [(u32, f64); 3] = [(0, 2.0), (1, 1.0), (2, 0.5)];

fn cache_hardware() -> Hardware {
    Hardware::cpu_only(4, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10).with_vram(2e9)
}

fn cache_client() -> Client {
    Client::new(
        cache_hardware(),
        Preferences::default(),
        None,
        vec![
            Client::project(0, CACHE_SHARES[0].1, &[ProcType::Cpu, ProcType::NvidiaGpu]),
            Client::project(1, CACHE_SHARES[1].1, &[ProcType::Cpu]),
            Client::project(2, CACHE_SHARES[2].1, &[ProcType::Cpu]),
        ],
        ClientConfig::default(),
    )
}

/// The cached snapshot always agrees with an uncached simulation of the
/// same `(now, run_state, on_frac)` — across job arrivals, time advances,
/// run-state flips, and repeated same-key queries.
#[test]
fn cached_snapshot_matches_uncached_through_mutations() {
    let mut c = cache_client();
    let rs = run_state();
    let check = |c: &mut Client, now: SimTime, rs: HostRunState, on_frac: f64| {
        c.rr_refresh(now, rs, on_frac);
        let fresh = uncached(c, now, rs, on_frac);
        assert_identical(c.rr_snapshot(), &Outcome::from(&fresh));
    };

    check(&mut c, SimTime::ZERO, rs, 1.0);
    // Job arrivals invalidate.
    c.add_jobs(vec![
        spec(1, 0, 4000.0, 20_000.0, false),
        spec(2, 1, 2000.0, 8_000.0, false),
        spec(3, 0, 9000.0, 90_000.0, true),
    ]);
    check(&mut c, SimTime::ZERO, rs, 1.0);
    // Same key again: pure hit, still identical.
    check(&mut c, SimTime::ZERO, rs, 1.0);
    // A different on_frac at the same instant is a distinct key.
    check(&mut c, SimTime::ZERO, rs, 0.6);
    // Scheduling + advancing changes task state.
    c.reschedule(SimTime::ZERO, rs, 1.0);
    c.advance(SimTime::from_secs(500.0), rs);
    check(&mut c, SimTime::from_secs(500.0), rs, 1.0);
    // Run-state flip (GPU unusable) changes the platform, not the queue.
    let mut no_gpu = rs;
    no_gpu.can_gpu = false;
    check(&mut c, SimTime::from_secs(500.0), no_gpu, 1.0);
    // More arrivals mid-run, then another advance.
    c.add_jobs(vec![spec(4, 2, 600.0, 3_000.0, false), spec(5, 1, 1200.0, 5_000.0, false)]);
    check(&mut c, SimTime::from_secs(500.0), rs, 1.0);
    c.reschedule(SimTime::from_secs(500.0), rs, 1.0);
    c.advance(SimTime::from_secs(2500.0), rs);
    check(&mut c, SimTime::from_secs(2500.0), rs, 1.0);
}

/// One step of [`client_ladder_serves_exact_or_retained_snapshots`].
#[derive(Debug, Clone)]
enum ClientOp {
    /// New arrivals: a structural change, must force a full rerun.
    Add(u8),
    /// Advance time (progress if anything is running).
    Advance(f64),
    /// Apply the scheduling policy (starts/preempts tasks).
    Reschedule,
    /// GPU availability flips (platform change).
    Gpu(bool),
    /// Duty-cycle estimate drifts (platform change).
    OnFrac(f64),
    /// Explicit invalidation.
    Invalidate,
}

fn client_op() -> impl Strategy<Value = ClientOp> {
    prop_oneof![
        (1u8..4).prop_map(ClientOp::Add),
        (1.0f64..2_000.0).prop_map(ClientOp::Advance),
        Just(ClientOp::Reschedule),
        any::<bool>().prop_map(ClientOp::Gpu),
        (0.3f64..1.0).prop_map(ClientOp::OnFrac),
        Just(ClientOp::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// The refresh ladder's exactness contract under adversarial mutation
    /// sequences: every query is served either by a *fresh* simulation of
    /// the live state (bit-identical to an uncached run) or by the
    /// *unmodified* retained outcome of the last full simulation — never
    /// by anything in between. Mutations must not leak into a retained
    /// snapshot, and a fresh run must never start from a corrupted
    /// scratch.
    #[test]
    fn client_ladder_serves_exact_or_retained_snapshots(
        ops in proptest::collection::vec(client_op(), 1..40),
    ) {
        let mut c = cache_client();
        let mut rs = run_state();
        let mut on_frac = 1.0f64;
        let mut now = SimTime::ZERO;
        let mut next_id = 1_000u64;
        c.rr_refresh(now, rs, on_frac);
        let mut last_full = c.rr_snapshot().clone();
        let mut last_runs = c.rr_stats().runs;
        for op in ops {
            match op {
                ClientOp::Add(n) => {
                    let base = now.secs();
                    c.add_jobs(
                        (0..n as u64)
                            .map(|i| {
                                next_id += 1;
                                spec(
                                    next_id,
                                    (next_id % 3) as u32,
                                    500.0 + 700.0 * i as f64,
                                    20_000.0 + base,
                                    next_id.is_multiple_of(4),
                                )
                            })
                            .collect(),
                    );
                }
                ClientOp::Advance(dt) => {
                    now += SimDuration::from_secs(dt);
                    c.advance(now, rs);
                }
                ClientOp::Reschedule => {
                    c.reschedule(now, rs, on_frac);
                }
                ClientOp::Gpu(g) => rs.can_gpu = g,
                ClientOp::OnFrac(f) => on_frac = f,
                ClientOp::Invalidate => c.invalidate_rr(),
            }
            c.rr_refresh(now, rs, on_frac);
            if c.rr_stats().runs != last_runs {
                // A full run: must be bit-identical to an uncached
                // simulation of the same live state.
                last_runs = c.rr_stats().runs;
                let fresh = uncached(&c, now, rs, on_frac);
                assert_identical(c.rr_snapshot(), &Outcome::from(&fresh));
                last_full = c.rr_snapshot().clone();
            } else {
                // A pure or frozen hit: must be the retained outcome,
                // untouched by any mutation since.
                assert_identical(c.rr_snapshot(), &Outcome::from(&last_full));
            }
        }
    }
}

/// Hit/miss accounting under the refresh ladder: same-key refreshes are
/// pure hits; progress drift inside the frozen window is a frozen hit
/// (no rerun); structural mutations, platform changes and window
/// expiry each force exactly one rerun.
#[test]
fn refresh_hit_miss_accounting() {
    let mut c = cache_client();
    let rs = run_state();
    c.add_jobs(vec![spec(1, 0, 4000.0, 20_000.0, false)]);

    c.rr_refresh(SimTime::ZERO, rs, 1.0);
    let after_first = c.rr_stats();
    assert_eq!(after_first.runs, 1);

    // Ten same-key queries: all pure hits.
    for _ in 0..10 {
        c.rr_refresh(SimTime::ZERO, rs, 1.0);
    }
    let s = c.rr_stats();
    assert_eq!(s.runs, 1, "same-key refreshes must not rerun");
    assert_eq!(s.frozen, 0, "same-key refreshes are pure, not frozen, hits");
    assert_eq!(s.queries, after_first.queries + 10);

    // Time moves inside the frozen window (slack 20 000 − 4 000 = 16 000 s
    // ⇒ 5% is 800 s, clamped to the 0.125·work_buf_min = 225 s cap):
    // frozen hit, no rerun.
    c.rr_refresh(SimTime::from_secs(10.0), rs, 1.0);
    assert_eq!(c.rr_stats().runs, 1);
    assert_eq!(c.rr_stats().frozen, 1);
    // Same new key again: pure hit (the frozen hit re-keyed the cache).
    c.rr_refresh(SimTime::from_secs(10.0), rs, 1.0);
    assert_eq!(c.rr_stats().runs, 1);
    assert_eq!(c.rr_stats().frozen, 1);

    // A platform change (different on_frac) cannot be served frozen.
    c.rr_refresh(SimTime::from_secs(10.0), rs, 0.5);
    assert_eq!(c.rr_stats().runs, 2);

    // Time beyond the window (10 + τ(225) < 1000): rerun.
    c.rr_refresh(SimTime::from_secs(1000.0), rs, 0.5);
    assert_eq!(c.rr_stats().runs, 3);

    // Queue mutation is structural: rerun even at the same instant.
    c.add_jobs(vec![spec(2, 1, 100.0, 2_500.0, false)]);
    c.rr_refresh(SimTime::from_secs(1000.0), rs, 0.5);
    assert_eq!(c.rr_stats().runs, 4);

    // Manual invalidation behaves like any other structural mutation.
    c.invalidate_rr();
    c.rr_refresh(SimTime::from_secs(1000.0), rs, 0.5);
    assert_eq!(c.rr_stats().runs, 5);

    // And the snapshot still matches an uncached run.
    let fresh = uncached(&c, SimTime::from_secs(1000.0), rs, 0.5);
    assert_identical(c.rr_snapshot(), &Outcome::from(&fresh));
}
