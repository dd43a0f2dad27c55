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
//!
//! The kernel steps per `(proc_type, project)` group rather than per job.
//! All alive jobs of a group run at one rate, so each subtracts the same
//! `rate × dt` and the order of their remaining work never changes; and
//! division by a common positive rate is monotone, so a group's next
//! completion is its least-remaining job's. A step therefore costs one
//! division per group and one branch-free subtract per job, and only a
//! group whose least job finishes is scanned for finishers.
//!
//! Two pieces of per-step state are carried across steps instead of being
//! rebuilt: the group table holds only the groups that can still run (a
//! group leaves in the step where it empties), and each processor type
//! keeps its groups in allocation order, repaired only when one of them
//! loses its first job. Neither touches a floating-point operand.

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
    pub(crate) missed: Vec<JobId>,
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
/// Its alive jobs occupy slots `start..start + len` of the scratch's
/// group-major arrays, in ascending job order; its first slot holds its
/// first alive job.
#[derive(Debug, Clone, Copy)]
struct Group {
    project: ProjectId,
    proc_type: ProcType,
    /// The project's resource share (resolved once, not per step).
    share: f64,
    start: u32,
    len: u32,
    /// The rate every alive job of the group runs at (`frac × on_frac`);
    /// 0 until the group's type is allocated.
    rate: f64,
    /// Instance demand of the alive jobs, summed in job order; re-summed
    /// only when the group loses a job.
    demand: f64,
    /// Slot of the group's least-remaining alive job.
    min: u32,
}

/// `job_group` entry of a job that cannot run: it has no remaining work,
/// or its type has no usable instances.
const NO_GROUP: u32 = u32::MAX;

/// Reusable workspace for [`simulate_into`]. All vectors retain their
/// capacity across calls, so repeated simulations over similarly-sized
/// workloads perform zero heap allocations.
#[derive(Debug, Default)]
pub struct RrScratch {
    /// The live groups: those that can still run, because their type has
    /// usable instances and they have work left. A group that empties is
    /// swap-removed at the end of its step, so each step's scan and
    /// advance walk only live groups.
    groups: Vec<Group>,
    /// Per processor type, the ids of its live groups in allocation order:
    /// by first alive job index, the order the reference implementation
    /// discovers projects in, which fixes the floating-point summation
    /// order. Built in order of first appearance, which is that order; an
    /// emptied group is dropped (the group moved into its place keeps its
    /// position under its new id), and [`repair_order`] re-sorts a type
    /// only after one of its groups loses its head job.
    pt_groups: [Vec<u32>; ProcType::COUNT],
    /// Group of each job, [`NO_GROUP`] for a job that cannot run.
    job_group: Vec<u32>,
    // Group-major slots: each group's alive jobs, compacted in place as
    // they finish, so a group's remaining work is one contiguous run.
    /// Job index per slot.
    slot_job: Vec<u32>,
    /// Remaining dedicated-execution seconds per slot.
    slot_rem: Vec<f64>,
    /// Instances the slot's job occupies.
    slot_inst: Vec<f64>,
    // Per-step state.
    /// Allocated instances per group of the type being allocated, in
    /// `pt_groups` order.
    alloc: Vec<f64>,
    /// Positions into that order still competing for instances.
    active: Vec<u32>,
    next_active: Vec<u32>,
    /// Job indices that finished in the current step.
    finished: Vec<u32>,
    /// Live groups that emptied in the current step, ascending.
    emptied: Vec<u32>,
}

impl RrScratch {
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self) {
        self.groups.clear();
        for list in &mut self.pt_groups {
            list.clear();
        }
        self.job_group.clear();
        self.slot_job.clear();
        self.slot_rem.clear();
        self.slot_inst.clear();
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
/// group-major layout only changes *where* each floating-point operand is
/// found, never an operand or the order a sum's terms are added in.
pub fn simulate_into(
    platform: &RrPlatform,
    jobs: &[RrJob],
    buf_window: SimDuration,
    scratch: &mut RrScratch,
    out: &mut RrOutcome,
) {
    let s = scratch;
    s.reset();
    out.missed.clear();
    out.finish.clear();
    out.sat = ProcMap::from_fn(|_| SimDuration::ZERO);
    out.shortfall = ProcMap::zero();
    out.busy_now = ProcMap::zero();

    // Build the (proc_type, project) group index over jobs that can run:
    // they have work left and their type has usable instances. Group ids
    // in order of first appearance, per-type group lists, and each
    // group's size.
    for j in jobs {
        if j.remaining.secs().max(0.0) <= 0.0 || platform.ninstances[j.proc_type] <= 0.0 {
            s.job_group.push(NO_GROUP);
            continue;
        }
        let pt_list = &mut s.pt_groups[j.proc_type.index()];
        let gid = match pt_list.iter().find(|&&g| s.groups[g as usize].project == j.project) {
            Some(&g) => g,
            None => {
                let g = s.groups.len() as u32;
                s.groups.push(Group {
                    project: j.project,
                    proc_type: j.proc_type,
                    share: platform.share_of(j.project),
                    start: 0,
                    len: 0,
                    rate: 0.0,
                    demand: 0.0,
                    min: 0,
                });
                pt_list.push(g);
                g
            }
        };
        s.groups[gid as usize].len += 1;
        s.job_group.push(gid);
    }
    let mut alive = 0u32;
    for g in &mut s.groups {
        g.start = alive;
        alive += g.len;
        g.len = 0;
    }
    // Counting-sort the jobs into their group's slots. Each group fills in
    // job order, so its demand is summed in the reference's order.
    s.slot_job.resize(alive as usize, 0);
    s.slot_rem.resize(alive as usize, 0.0);
    s.slot_inst.resize(alive as usize, 0.0);
    for (i, &gid) in s.job_group.iter().enumerate() {
        if gid == NO_GROUP {
            continue;
        }
        let g = &mut s.groups[gid as usize];
        let k = (g.start + g.len) as usize;
        let rem = jobs[i].remaining.secs();
        s.slot_job[k] = i as u32;
        s.slot_rem[k] = rem;
        s.slot_inst[k] = jobs[i].instances;
        g.demand += jobs[i].instances.max(1e-9);
        if g.len == 0 || rem < s.slot_rem[g.min as usize] {
            g.min = k as u32;
        }
        g.len += 1;
    }

    let on_frac = platform.on_frac.clamp(1e-6, 1.0);
    let horizon = buf_window.secs().max(0.0);
    let mut sat_open = ProcMap::from_fn(|pt| platform.ninstances[pt] > 0.0);
    let mut t = 0.0f64; // offset from now
    let mut first_step = true;

    // Per-type step cache: a type's allocation (and therefore its group
    // rates and busy total) only changes when one of *its* jobs
    // completes, so between completions the previous step's values are
    // reused verbatim. Reusing a value is trivially bit-identical to
    // recomputing it from unchanged inputs.
    let mut type_dirty = [true; ProcType::COUNT];
    // Types whose `pt_groups` order needs `repair_order` before their next
    // allocation.
    let mut reorder = [false; ProcType::COUNT];
    let mut busy = ProcMap::zero();

    loop {
        // Per-type, per-project allocation under weighted round robin.
        // A group's rate is the fraction of dedicated speed each of its
        // jobs runs at.
        for pt in ProcType::ALL {
            let ninst = platform.ninstances[pt];
            if ninst <= 0.0 || !type_dirty[pt.index()] {
                continue;
            }
            type_dirty[pt.index()] = false;
            busy[pt] = 0.0;
            if reorder[pt.index()] {
                reorder[pt.index()] = false;
                repair_order(&mut s.pt_groups[pt.index()], &s.groups, &s.slot_job);
            }
            let order = &s.pt_groups[pt.index()];
            if order.is_empty() {
                continue;
            }
            // Share-weighted instance allocation with redistribution of
            // surplus from projects whose demand is below their share.
            s.alloc.clear();
            s.alloc.resize(order.len(), 0.0);
            let mut capacity = ninst;
            s.active.clear();
            s.active.extend(0..order.len() as u32);
            for _ in 0..order.len() + 1 {
                let wsum: f64 =
                    s.active.iter().map(|&k| s.groups[order[k as usize] as usize].share).sum();
                if wsum <= 0.0 || capacity <= 1e-12 || s.active.is_empty() {
                    break;
                }
                s.next_active.clear();
                let mut used = 0.0;
                for &k in &s.active {
                    let g = &s.groups[order[k as usize] as usize];
                    let fair = capacity * g.share / wsum;
                    let need = g.demand - s.alloc[k as usize];
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
            // Each group's allocation is spread over its jobs in proportion
            // to their demand. The busy total is read only while `sat` is
            // open or the step starts inside the buffer window; `t` never
            // decreases, so once both fail it is never read again.
            let need_busy = sat_open[pt] || t < horizon;
            for (k, &g) in order.iter().enumerate() {
                let g = &mut s.groups[g as usize];
                let frac = (s.alloc[k] / g.demand).min(1.0);
                g.rate = frac * on_frac;
                if need_busy {
                    for &inst in &s.slot_inst[g.start as usize..(g.start + g.len) as usize] {
                        busy[pt] += frac * inst;
                    }
                }
            }
        }

        if first_step {
            out.busy_now = busy;
            first_step = false;
        }

        // Next completion event. Every job of a group runs at the group's
        // rate, and division by a common positive rate is monotone, so the
        // group's earliest completion is its least-remaining job's.
        let mut dt = f64::INFINITY;
        for g in &s.groups {
            if g.rate > 0.0 {
                dt = dt.min(s.slot_rem[g.min as usize] / g.rate);
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

        // Advance to the event. Every job of a group subtracts the same
        // `rate × dt`, which keeps the group's order of remaining work, so
        // only a group whose least-remaining job is done holds finishers.
        // Such a group is compacted in place, its demand re-summed in job
        // order and its minimum found again. Groups are independent here
        // and same-step finishers are sorted below, so the order groups
        // are walked in does not matter.
        t += dt;
        s.finished.clear();
        s.emptied.clear();
        let mut finishing_groups = 0;
        for (gid, g) in s.groups.iter_mut().enumerate() {
            if g.rate <= 0.0 {
                continue;
            }
            let (a, b) = (g.start as usize, (g.start + g.len) as usize);
            let step = g.rate * dt;
            for rem in &mut s.slot_rem[a..b] {
                *rem -= step;
            }
            if s.slot_rem[g.min as usize] > 1e-6 {
                continue;
            }
            finishing_groups += 1;
            // Slots keep job order, so the group's first alive job changes
            // only if the job in its first slot finished.
            let head_lost = s.slot_rem[a] <= 1e-6;
            let mut w = a;
            let mut demand = 0.0;
            let mut min_rem = f64::INFINITY;
            for k in a..b {
                let rem = s.slot_rem[k];
                if rem <= 1e-6 {
                    s.finished.push(s.slot_job[k]);
                    continue;
                }
                s.slot_job[w] = s.slot_job[k];
                s.slot_rem[w] = rem;
                s.slot_inst[w] = s.slot_inst[k];
                demand += s.slot_inst[w].max(1e-9);
                if rem < min_rem {
                    min_rem = rem;
                    g.min = w as u32;
                }
                w += 1;
            }
            g.len = (w - a) as u32;
            g.demand = demand;
            let pt = g.proc_type.index();
            type_dirty[pt] = true;
            if g.len == 0 {
                s.emptied.push(gid as u32);
            } else if head_lost && s.pt_groups[pt].len() > 1 {
                reorder[pt] = true;
            }
        }
        // Same-step completions are reported in job order, as the
        // reference's full scan discovers them.
        if finishing_groups > 1 {
            s.finished.sort_unstable();
        }
        alive -= s.finished.len() as u32;
        let fin = SimDuration::from_secs(t);
        for &i in &s.finished {
            let job = &jobs[i as usize];
            out.finish.push((job.id, fin));
            if job.deadline < platform.now + fin {
                out.missed.push(job.id);
            }
        }
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
        // Emptied groups leave, last first: each is dropped from its type's
        // order, and the last group moves into its place and is renamed in
        // its own type's order. This runs after the exits above, so the
        // final step skips it.
        for &gid in s.emptied.iter().rev() {
            s.pt_groups[s.groups[gid as usize].proc_type.index()].retain(|&g| g != gid);
            let last = (s.groups.len() - 1) as u32;
            s.groups.swap_remove(gid as usize);
            if gid != last {
                let order = &mut s.pt_groups[s.groups[gid as usize].proc_type.index()];
                *order.iter_mut().find(|g| **g == last).unwrap() = gid;
            }
        }
    }

    out.missed.sort_unstable();
}

/// Restore a type's `pt_groups` order after some of its groups lost their
/// head job: re-sort by first alive job index. A group's first job only
/// ever moves later, so the list is nearly sorted and an insertion sort is
/// linear in it.
#[inline]
fn repair_order(order: &mut [u32], groups: &[Group], slot_job: &[u32]) {
    let head = |g: u32| slot_job[groups[g as usize].start as usize];
    for i in 1..order.len() {
        let g = order[i];
        let key = head(g);
        let mut j = i;
        while j > 0 && head(order[j - 1]) > key {
            order[j] = order[j - 1];
            j -= 1;
        }
        order[j] = g;
    }
}
