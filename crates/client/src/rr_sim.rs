//! Round-robin simulation (§3.2).
//!
//! The client's policies predict the behaviour of the system under
//! weighted round-robin using a *continuous approximation*: rather than
//! modelling individual timeslices, each project's unfinished jobs of a
//! processor type receive a fraction of that type's instances proportional
//! to the project's resource share. The simulation outputs:
//!
//! * which jobs are projected to miss their deadlines
//!   ("deadline-endangered"),
//! * per processor type, how long the type stays saturated — `SAT(T)`,
//! * per processor type, the idle instance-seconds within the work-buffer
//!   window — `SHORTFALL(T)`.
//!
//! # Hot path
//!
//! The simulation runs at every scheduling decision point, so there are two
//! entry points: [`simulate`], which allocates its working state per call,
//! and [`simulate_into`], which reuses a caller-owned [`RrScratch`] and an
//! existing [`RrOutcome`] so that steady-state calls perform no heap
//! allocation at all. Both are bit-identical to the original
//! straightforward implementation, which `tests/rr_differential.rs` keeps
//! as its private oracle: every floating-point accumulation happens in
//! exactly the same order, so results match down to the last ulp.

use bce_types::{JobId, ProcMap, ProcType, ProjectId, SimDuration, SimTime};

/// One job as seen by the simulation.
#[derive(Debug, Clone, Copy)]
pub struct RrJob {
    pub id: JobId,
    pub project: ProjectId,
    /// The processor type whose instances bound this job.
    pub proc_type: ProcType,
    /// Instances of `proc_type` the job occupies while running.
    pub instances: f64,
    /// Estimated remaining dedicated-execution seconds.
    pub remaining: SimDuration,
    pub deadline: SimTime,
}

/// Static description of the simulated platform.
#[derive(Debug, Clone)]
pub struct RrPlatform {
    /// The simulation's "now": deadlines are absolute, the simulated
    /// clock is an offset from this instant.
    pub now: SimTime,
    /// Usable instances per type (after preference limits).
    pub ninstances: ProcMap<f64>,
    /// Long-run fraction of time computing is allowed — scales effective
    /// execution rates like the real client's `on_frac` correction.
    pub on_frac: f64,
    /// `(project, share)` pairs; shares are relative weights.
    pub shares: Vec<(ProjectId, f64)>,
}

impl RrPlatform {
    fn share_of(&self, p: ProjectId) -> f64 {
        self.shares.iter().find(|(id, _)| *id == p).map_or(0.0, |(_, s)| *s)
    }
}

/// Simulation outputs (§3.2, Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct RrOutcome {
    /// Jobs projected to miss their deadline under WRR, sorted by id
    /// (binary-searched by [`RrOutcome::is_endangered`]).
    pub missed: Vec<JobId>,
    /// For each type, how long all its instances stay busy from now.
    pub sat: ProcMap<SimDuration>,
    /// For each type, idle instance-seconds within the buffer window.
    pub shortfall: ProcMap<f64>,
    /// Projected completion offset of each job (from now).
    pub finish: Vec<(JobId, SimDuration)>,
    /// Instances of each type busy at the start (the present workload).
    pub busy_now: ProcMap<f64>,
}

impl Default for RrOutcome {
    fn default() -> Self {
        RrOutcome {
            missed: Vec::new(),
            sat: ProcMap::from_fn(|_| SimDuration::ZERO),
            shortfall: ProcMap::zero(),
            finish: Vec::new(),
            busy_now: ProcMap::zero(),
        }
    }
}

impl RrOutcome {
    pub fn is_endangered(&self, id: JobId) -> bool {
        self.missed.binary_search(&id).is_ok()
    }
}

/// A `(proc_type, project)` job group; built once per simulation call.
#[derive(Debug, Clone, Copy)]
struct Group {
    project: ProjectId,
    /// The project's resource share (resolved once, not per step).
    share: f64,
}

/// Reusable workspace for [`simulate_into`]. All vectors retain their
/// capacity across calls, so repeated simulations over similarly-sized
/// workloads perform zero heap allocations.
#[derive(Debug, Default)]
pub struct RrScratch {
    // Per-job state.
    remaining: Vec<f64>,
    done: Vec<bool>,
    rates: Vec<f64>,
    /// Unfinished job indices, ascending. The event loop's per-step scans
    /// (next completion, work advance) walk this instead of every job;
    /// ascending order keeps completion discovery — and therefore the
    /// `finish`/`missed` output order — identical to the full scan.
    alive_idx: Vec<u32>,
    /// Group index of each job.
    job_group: Vec<u32>,
    // Per-group index, built once per call.
    groups: Vec<Group>,
    /// Group ids per processor type, in order of first appearance.
    pt_groups: [Vec<u32>; ProcType::COUNT],
    /// Job indices, counting-sorted by group (original order within each
    /// group).
    group_jobs: Vec<u32>,
    /// Start offset of each group's slice in `group_jobs` (len = groups+1).
    group_start: Vec<u32>,
    /// First possibly-alive offset within each group's slice. Monotonic:
    /// only ever advances past finished jobs.
    group_cursor: Vec<u32>,
    // Per-step state.
    /// Active groups of the current type, ordered by first unfinished job
    /// index — the same order the reference implementation discovers
    /// projects in, which fixes the floating-point summation order.
    order: Vec<u32>,
    /// Instance demand per group in `order` (parallel to `order`).
    demand: Vec<f64>,
    /// Allocated instances per group in `order`.
    alloc: Vec<f64>,
    /// Positions into `order` still competing for instances.
    active: Vec<u32>,
    next_active: Vec<u32>,
}

impl RrScratch {
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, njobs: usize) {
        self.remaining.clear();
        self.done.clear();
        self.rates.clear();
        self.rates.resize(njobs, 0.0);
        self.alive_idx.clear();
        self.job_group.clear();
        self.groups.clear();
        for list in &mut self.pt_groups {
            list.clear();
        }
        self.group_jobs.clear();
        self.group_start.clear();
        self.group_cursor.clear();
        self.order.clear();
        self.demand.clear();
        self.alloc.clear();
        self.active.clear();
        self.next_active.clear();
    }
}

/// Run the round-robin simulation over `jobs` on `platform`, evaluating
/// shortfall within `buf_window` (the `max_queue` horizon, §3.4).
///
/// ```
/// use bce_client::{rr_simulate, RrJob, RrPlatform};
/// use bce_types::{JobId, ProcMap, ProcType, ProjectId, SimDuration, SimTime};
///
/// let mut ninstances = ProcMap::zero();
/// ninstances[ProcType::Cpu] = 1.0;
/// let platform = RrPlatform {
///     now: SimTime::ZERO,
///     ninstances,
///     on_frac: 1.0,
///     shares: vec![(ProjectId(0), 1.0), (ProjectId(1), 1.0)],
/// };
/// // Two 1000 s jobs share the CPU: both projected to finish at 2000 s,
/// // so the 1500 s deadline is endangered.
/// let job = |id, project, deadline: f64| RrJob {
///     id: JobId(id), project: ProjectId(project), proc_type: ProcType::Cpu,
///     instances: 1.0, remaining: SimDuration::from_secs(1000.0),
///     deadline: SimTime::from_secs(deadline),
/// };
/// let out = rr_simulate(&platform, &[job(1, 0, 1500.0), job(2, 1, 86_400.0)],
///                       SimDuration::from_hours(1.0));
/// assert!(out.is_endangered(JobId(1)));
/// assert!(!out.is_endangered(JobId(2)));
/// ```
pub fn simulate(platform: &RrPlatform, jobs: &[RrJob], buf_window: SimDuration) -> RrOutcome {
    let mut scratch = RrScratch::new();
    let mut out = RrOutcome::default();
    simulate_into(platform, jobs, buf_window, &mut scratch, &mut out);
    out
}

/// Allocation-free variant of [`simulate`]: reuses `scratch` and writes the
/// result into `out`, clearing any previous contents. In steady state (same
/// workload shape as a previous call) this performs zero heap allocations.
///
/// Bit-identical to the oracle in `tests/rr_differential.rs`: the
/// job-group index only changes *how* each floating-point sum is located,
/// never the order its terms are added in.
pub fn simulate_into(
    platform: &RrPlatform,
    jobs: &[RrJob],
    buf_window: SimDuration,
    scratch: &mut RrScratch,
    out: &mut RrOutcome,
) {
    let s = scratch;
    s.reset(jobs.len());
    out.missed.clear();
    out.finish.clear();
    out.sat = ProcMap::from_fn(|_| SimDuration::ZERO);
    out.shortfall = ProcMap::zero();
    out.busy_now = ProcMap::zero();

    // Build the (proc_type, project) group index: group ids in order of
    // first appearance, per-type group lists, and jobs counting-sorted by
    // group while preserving original job order within each group.
    let mut alive = 0usize;
    for (i, j) in jobs.iter().enumerate() {
        let r = j.remaining.secs().max(0.0);
        s.remaining.push(r);
        let done = r <= 0.0;
        s.done.push(done);
        if !done {
            alive += 1;
            s.alive_idx.push(i as u32);
        }
        let pt_list = &mut s.pt_groups[j.proc_type.index()];
        let gid = match pt_list.iter().find(|&&g| s.groups[g as usize].project == j.project) {
            Some(&g) => g,
            None => {
                let g = s.groups.len() as u32;
                s.groups.push(Group { project: j.project, share: platform.share_of(j.project) });
                pt_list.push(g);
                g
            }
        };
        s.job_group.push(gid);
    }
    let ngroups = s.groups.len();
    s.group_start.resize(ngroups + 1, 0);
    for &g in &s.job_group {
        s.group_start[g as usize + 1] += 1;
    }
    for g in 0..ngroups {
        s.group_start[g + 1] += s.group_start[g];
    }
    s.group_cursor.resize(ngroups, 0);
    s.group_jobs.resize(jobs.len(), 0);
    // Fill group slices using the cursor vector as a temporary fill pointer,
    // then zero it back for its real role (skipping finished jobs).
    for (i, &g) in s.job_group.iter().enumerate() {
        let slot = s.group_start[g as usize] + s.group_cursor[g as usize];
        s.group_jobs[slot as usize] = i as u32;
        s.group_cursor[g as usize] += 1;
    }
    s.group_cursor.fill(0);

    let on_frac = platform.on_frac.clamp(1e-6, 1.0);
    let horizon = buf_window.secs().max(0.0);
    let mut sat_open = ProcMap::from_fn(|pt| platform.ninstances[pt] > 0.0);
    let mut t = 0.0f64; // offset from now
    let mut first_step = true;

    // Per-type step cache: a type's allocation (and therefore every job
    // rate and the busy total) only changes when one of *its* jobs
    // completes, so between completions the previous step's values are
    // reused verbatim. Reusing a value is trivially bit-identical to
    // recomputing it from unchanged inputs.
    let mut type_dirty = [true; ProcType::COUNT];
    let mut busy = ProcMap::zero();

    loop {
        // Per-type, per-project allocation under weighted round robin.
        // rate[i] = fraction of dedicated speed job i runs at.
        for pt in ProcType::ALL {
            let ninst = platform.ninstances[pt];
            if ninst <= 0.0 {
                continue;
            }
            if !type_dirty[pt.index()] {
                continue;
            }
            type_dirty[pt.index()] = false;
            // Every alive job of this type gets its rate reassigned below
            // (all alive groups enter `order`); finished jobs' stale rates
            // are never read thanks to the `done` guards.
            busy[pt] = 0.0;
            // Groups of this type with unfinished jobs, ordered by first
            // unfinished job index (the discovery order of the reference
            // scan), with their total instance demand summed in job order.
            s.order.clear();
            for gi in 0..s.pt_groups[pt.index()].len() {
                let g = s.pt_groups[pt.index()][gi];
                let (start, end) = (s.group_start[g as usize], s.group_start[g as usize + 1]);
                let mut cur = s.group_cursor[g as usize];
                while start + cur < end && s.done[s.group_jobs[(start + cur) as usize] as usize] {
                    cur += 1;
                }
                s.group_cursor[g as usize] = cur;
                if start + cur < end {
                    s.order.push(g);
                }
            }
            s.order.sort_unstable_by_key(|&g| {
                s.group_jobs[(s.group_start[g as usize] + s.group_cursor[g as usize]) as usize]
            });
            if s.order.is_empty() {
                continue;
            }
            s.demand.clear();
            for &g in &s.order {
                let (start, end) = (s.group_start[g as usize], s.group_start[g as usize + 1]);
                let mut demand = 0.0;
                for &i in &s.group_jobs[(start + s.group_cursor[g as usize]) as usize..end as usize]
                {
                    if !s.done[i as usize] {
                        demand += jobs[i as usize].instances.max(1e-9);
                    }
                }
                s.demand.push(demand);
            }
            // Share-weighted instance allocation with redistribution of
            // surplus from projects whose demand is below their share.
            s.alloc.clear();
            s.alloc.resize(s.order.len(), 0.0);
            let mut capacity = ninst;
            s.active.clear();
            s.active.extend(0..s.order.len() as u32);
            for _ in 0..s.order.len() + 1 {
                let wsum: f64 =
                    s.active.iter().map(|&k| s.groups[s.order[k as usize] as usize].share).sum();
                if wsum <= 0.0 || capacity <= 1e-12 || s.active.is_empty() {
                    break;
                }
                s.next_active.clear();
                let mut used = 0.0;
                for &k in &s.active {
                    let fair = capacity * s.groups[s.order[k as usize] as usize].share / wsum;
                    let need = s.demand[k as usize] - s.alloc[k as usize];
                    if need <= fair + 1e-12 {
                        s.alloc[k as usize] += need.max(0.0);
                        used += need.max(0.0);
                    } else {
                        s.alloc[k as usize] += fair;
                        used += fair;
                        s.next_active.push(k);
                    }
                }
                capacity -= used;
                if s.next_active.len() == s.active.len() {
                    break; // nobody saturated; no surplus to redistribute
                }
                std::mem::swap(&mut s.active, &mut s.next_active);
            }
            // Distribute each group's allocation over its jobs
            // (proportional to per-job demand).
            for k in 0..s.order.len() {
                let g = s.order[k] as usize;
                let frac = (s.alloc[k] / s.demand[k]).min(1.0);
                let (start, end) = (s.group_start[g], s.group_start[g + 1]);
                for &i in &s.group_jobs[(start + s.group_cursor[g]) as usize..end as usize] {
                    let i = i as usize;
                    if !s.done[i] {
                        s.rates[i] = frac * on_frac;
                        busy[pt] += frac * jobs[i].instances;
                    }
                }
            }
        }

        if first_step {
            out.busy_now = busy;
            first_step = false;
        }

        // Next completion event. Only unfinished jobs are scanned; the
        // division sequence is the one the reference performs on the
        // same operands (done jobs contribute nothing to the min).
        let mut dt = f64::INFINITY;
        for &i in &s.alive_idx {
            let i = i as usize;
            if s.rates[i] > 0.0 {
                dt = dt.min(s.remaining[i] / s.rates[i]);
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
                out.sat[pt] = SimDuration::from_secs(t);
                sat_open[pt] = false;
            }
            // Idle instance-seconds within the buffer window.
            let w_end = seg_end.min(horizon);
            if w_end > t {
                out.shortfall[pt] += (ninst - busy[pt]).max(0.0) * (w_end - t);
            }
        }

        if !dt.is_finite() {
            // Nothing runnable: remaining window is pure shortfall.
            for pt in ProcType::ALL {
                let ninst = platform.ninstances[pt];
                if ninst > 0.0 {
                    if sat_open[pt] {
                        out.sat[pt] = SimDuration::from_secs(t);
                        sat_open[pt] = false;
                    }
                    if horizon > t {
                        out.shortfall[pt] += ninst * (horizon - t);
                    }
                }
            }
            break;
        }

        // Advance to the event, compacting completed jobs out of the
        // alive list in place (ascending order is preserved, so
        // same-step completions are discovered in job order exactly as
        // the reference's full scan does).
        t += dt;
        let mut w = 0usize;
        for r in 0..s.alive_idx.len() {
            let iu = s.alive_idx[r];
            let i = iu as usize;
            if s.rates[i] <= 0.0 {
                s.alive_idx[w] = iu;
                w += 1;
                continue;
            }
            s.remaining[i] -= s.rates[i] * dt;
            if s.remaining[i] <= 1e-6 {
                let job = &jobs[i];
                s.done[i] = true;
                alive -= 1;
                type_dirty[job.proc_type.index()] = true;
                let fin = SimDuration::from_secs(t);
                out.finish.push((job.id, fin));
                if job.deadline < platform.now + fin {
                    out.missed.push(job.id);
                }
            } else {
                s.alive_idx[w] = iu;
                w += 1;
            }
        }
        s.alive_idx.truncate(w);
        if alive == 0 {
            for pt in ProcType::ALL {
                let ninst = platform.ninstances[pt];
                if ninst > 0.0 {
                    if sat_open[pt] {
                        out.sat[pt] = SimDuration::from_secs(t);
                        sat_open[pt] = false;
                    }
                    if horizon > t {
                        out.shortfall[pt] += ninst * (horizon - t);
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

    out.missed.sort_unstable();
}
