//! Client job scheduling (§3.3): given the runnable jobs, decide which to
//! run, which to preempt.
//!
//! The default policy: run round-robin simulation; build an ordered job
//! list in which running-but-uncheckpointed jobs come first, then
//! deadline-endangered jobs (earliest deadline first), then the rest in
//! order of `PRIO_sched(P,T)`; GPU jobs have precedence over CPU jobs.
//! Scan the list, allocating instances and memory; skip jobs that do not
//! fit; stop when the processors are fully utilized.
//!
//! Policy variants compared in the paper:
//! * `JS-WRR`    — local accounting, deadlines ignored (pure weighted RR),
//! * `JS-LOCAL`  — local accounting + EDF promotion,
//! * `JS-GLOBAL` — global (REC) accounting + EDF promotion.
//!
//! As §6.2 extensions, the deadline tier can also be ordered by least
//! laxity or deadline density instead of EDF.

use crate::accounting::{Accounting, AccountingKind};
use crate::rr_sim::RrOutcome;
use crate::task::Task;
use bce_avail::HostRunState;
use bce_types::{Hardware, Preferences, ProcMap, ProcType, SimTime};

/// How deadline-endangered jobs are ordered among themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineOrder {
    /// Earliest deadline first (BOINC's choice; optimal on uniprocessors).
    Edf,
    /// Least laxity first (deadline − now − remaining estimate).
    Llf,
    /// Highest deadline density (remaining / time-to-deadline) first.
    Density,
}

/// A job-scheduling policy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSchedPolicy {
    pub accounting: AccountingKind,
    /// Promote deadline-endangered jobs? (false = pure WRR)
    pub use_deadlines: bool,
    pub deadline_order: DeadlineOrder,
}

impl JobSchedPolicy {
    /// The paper's JS-WRR variant.
    pub const WRR: JobSchedPolicy = JobSchedPolicy {
        accounting: AccountingKind::Local,
        use_deadlines: false,
        deadline_order: DeadlineOrder::Edf,
    };
    /// The paper's JS-LOCAL variant.
    pub const LOCAL: JobSchedPolicy = JobSchedPolicy {
        accounting: AccountingKind::Local,
        use_deadlines: true,
        deadline_order: DeadlineOrder::Edf,
    };
    /// The paper's JS-GLOBAL variant.
    pub const GLOBAL: JobSchedPolicy = JobSchedPolicy {
        accounting: AccountingKind::Global,
        use_deadlines: true,
        deadline_order: DeadlineOrder::Edf,
    };

    /// Parse the spelling every front end accepts (`--sched`, manifest
    /// `"sched"`, `?sched=`): `wrr`, `local`, `global`, `local-llf` or
    /// `global-dd`.
    pub fn from_flag(name: &str) -> Option<Self> {
        Some(match name {
            "wrr" => Self::WRR,
            "local" => Self::LOCAL,
            "global" => Self::GLOBAL,
            "local-llf" => JobSchedPolicy { deadline_order: DeadlineOrder::Llf, ..Self::LOCAL },
            "global-dd" => {
                JobSchedPolicy { deadline_order: DeadlineOrder::Density, ..Self::GLOBAL }
            }
            _ => return None,
        })
    }

    pub fn name(&self) -> String {
        if !self.use_deadlines {
            return "JS-WRR".into();
        }
        let base = match self.accounting {
            AccountingKind::Local => "JS-LOCAL",
            AccountingKind::Global => "JS-GLOBAL",
        };
        match self.deadline_order {
            DeadlineOrder::Edf => base.to_string(),
            DeadlineOrder::Llf => format!("{base}+LLF"),
            DeadlineOrder::Density => format!("{base}+DD"),
        }
    }
}

/// Everything the planner looks at.
pub struct PlanInput<'a> {
    pub now: SimTime,
    pub tasks: &'a [Task],
    /// The accounting slot of each task's project, parallel to `tasks`
    /// (see [`task_slots`]).
    pub slots: &'a [usize],
    pub rr: &'a RrOutcome,
    pub accounting: &'a Accounting,
    pub hw: &'a Hardware,
    pub prefs: &'a Preferences,
    pub run_state: HostRunState,
    /// RAM available to tasks right now (depends on user activity).
    pub mem_budget: f64,
}

/// The planner's decision: indices into `tasks` that should be running.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunPlan {
    pub run: Vec<usize>,
    /// Runnable jobs skipped because memory would be exceeded (§3.3).
    pub(crate) skipped_mem: usize,
}

impl RunPlan {
    pub(crate) fn contains(&self, idx: usize) -> bool {
        self.run.contains(&idx)
    }
}

/// One class-2 candidate, with every round-invariant part of its
/// selection key resolved up front.
#[derive(Debug, Clone, Copy)]
struct Cand {
    idx: usize,
    /// Index into [`PlanScratch::slots`] for this candidate's
    /// (project, type) pair, which holds its priority key.
    slot: usize,
    /// `ord(-received)`: the receive-order tiebreak.
    recv: u64,
    /// Debt delta applied to the slot's `adj` when this candidate places.
    delta: f64,
    /// This candidate's entry in [`PlanScratch::gpu_tier`], or `CPU_JOB`.
    tier: usize,
}

const CPU_JOB: usize = usize::MAX;

/// One distinct (project, processor type) pair among the class-2
/// candidates, with its share-derived constants resolved once.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// `PRIO_sched(project, pt)` — frozen for the duration of a plan.
    base: f64,
    ninst: f64,
    share: f64,
    /// Anticipated debt claimed so far by this slot's placements.
    adj: f64,
    /// `ord(base + adj)`: the priority part of the selection key, shared
    /// by every candidate of the slot.
    key: u64,
}

/// Map a finite `f64` to a `u64` in the same order, folding −0.0 onto
/// +0.0 because `partial_cmp` holds them equal.
fn ord(x: f64) -> u64 {
    debug_assert!(x.is_finite(), "class-2 selection key {x} is not finite");
    let bits = if x == 0.0 { 0 } else { x.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Reusable workspace for [`plan_into`], which also holds the plan it
/// returns. All vectors retain their capacity across calls, so
/// steady-state planning performs no heap allocation. The client owns
/// one and reuses it at every scheduling point.
#[derive(Debug, Default)]
pub struct PlanScratch {
    classes: [Vec<usize>; 3],
    slots: Vec<Slot>,
    /// Index into `slots` of each (accounting slot, processor type) pair,
    /// at `accounting slot * ProcType::COUNT + type index`; `NO_SLOT` until
    /// the pair's first candidate. Reset per plan.
    slot_index: Vec<usize>,
    remaining: Vec<Cand>,
    /// Positions in `remaining` of the GPU candidates, in no particular
    /// order; `Cand::tier` points back into it.
    gpu_tier: Vec<usize>,
    plan: RunPlan,
}

impl PlanScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// The accounting slot of each task's project, for [`PlanInput::slots`].
/// The client resolves a task's slot once, when it admits the task; this
/// resolves them all at once for planner inputs built outside a client.
///
/// # Panics
/// If a task's project holds no share in `accounting`.
pub fn task_slots(accounting: &Accounting, tasks: &[Task]) -> Vec<usize> {
    tasks
        .iter()
        .map(|t| accounting.slot_of(t.spec.project).expect("planned task's project holds a share"))
        .collect()
}

/// Build the run plan in a caller-owned workspace; the plan is held in
/// `scratch` until the next call. Deterministic: a class-2 tie (equal
/// priority and receive time) goes to the candidate at the lowest current
/// position in the candidate list, which starts in task order and is
/// permuted by the `swap_remove` of every pick.
pub fn plan_into<'s>(
    policy: JobSchedPolicy,
    input: &PlanInput<'_>,
    scratch: &'s mut PlanScratch,
) -> &'s RunPlan {
    debug_assert_eq!(input.slots.len(), input.tasks.len(), "one slot per task");
    let hw = input.hw;
    let mut free = ProcMap::from_fn(|t| match t {
        ProcType::Cpu => {
            if input.run_state.can_compute {
                input.prefs.usable_cpus(hw.ninstances(ProcType::Cpu)) as f64
            } else {
                0.0
            }
        }
        _ => {
            if input.run_state.can_gpu {
                hw.ninstances(t) as f64
            } else {
                0.0
            }
        }
    });
    let mut mem_left = input.mem_budget;
    let plan = &mut scratch.plan;
    plan.run.clear();
    plan.skipped_mem = 0;
    if !input.run_state.can_compute && !input.run_state.can_gpu {
        return &scratch.plan;
    }

    // Candidate indices, classed. Class 0: running & uncheckpointed.
    // Class 1: deadline-endangered. Class 2: the rest.
    let classes = &mut scratch.classes;
    for c in classes.iter_mut() {
        c.clear();
    }
    for (i, task) in input.tasks.iter().enumerate() {
        if !task.is_runnable() {
            continue;
        }
        if task.is_running() && !task.checkpointed_since_start() {
            classes[0].push(i);
        } else if policy.use_deadlines && input.rr.is_endangered(task.spec.id) {
            classes[1].push(i);
        } else {
            classes[2].push(i);
        }
    }

    // Class-1 order: GPU before CPU, then the configured deadline order.
    let now = input.now;
    classes[1].sort_by(|&a, &b| {
        let (ta, tb) = (&input.tasks[a], &input.tasks[b]);
        let gpu_a = ta.spec.usage.is_gpu_job();
        let gpu_b = tb.spec.usage.is_gpu_job();
        gpu_b.cmp(&gpu_a).then_with(|| {
            let key = |t: &Task| -> f64 {
                match policy.deadline_order {
                    DeadlineOrder::Edf => t.spec.deadline().secs(),
                    DeadlineOrder::Llf => {
                        (t.spec.deadline() - now).secs() - t.remaining_est().secs()
                    }
                    DeadlineOrder::Density => {
                        let ttd = (t.spec.deadline() - now).secs().max(1.0);
                        -(t.remaining_est().secs() / ttd)
                    }
                }
            };
            key(ta).partial_cmp(&key(tb)).unwrap_or(std::cmp::Ordering::Equal)
        })
    });

    // Allocation helper: try to place task `i`.
    let try_place = |i: usize, free: &mut ProcMap<f64>, mem_left: &mut f64, plan: &mut RunPlan| {
        let task = &input.tasks[i];
        let usage = task.spec.usage;
        // Device feasibility.
        if let Some((gt, n)) = usage.coproc {
            if free[gt] + 1e-9 < n {
                return false;
            }
            // GPU jobs may overcommit the CPU by their (small) CPU
            // fraction, as the real client does.
        } else if free[ProcType::Cpu] + 1e-9 < usage.avg_cpus {
            return false;
        }
        if task.spec.working_set_bytes > *mem_left + 1e-6 {
            plan.skipped_mem += 1;
            return false;
        }
        if let Some((gt, n)) = usage.coproc {
            // The GPU job's small CPU feeder fraction overcommits the CPU
            // rather than displacing CPU jobs, as in the real client.
            free[gt] -= n;
        } else {
            free[ProcType::Cpu] -= usage.avg_cpus;
        }
        *mem_left -= task.spec.working_set_bytes;
        plan.run.push(i);
        true
    };

    // Class 0 and class 1 go in list order.
    for &i in classes[0].iter().chain(classes[1].iter()) {
        try_place(i, &mut free, &mut mem_left, plan);
    }

    // Class 2: repeated argmax of the key (gpu, base + adj, -received),
    // with an anticipated-debt adjustment so a single scan interleaves
    // projects instead of letting whichever project is microscopically
    // ahead fill every instance.
    //
    // Everything but the debt adjustment is invariant across rounds —
    // the accounting state is frozen for the duration of a plan — so
    // each candidate's slot, receive-order key and post-placement delta
    // are computed once up front, and the accounting lookups happen once
    // per distinct (project, type) slot rather than once per candidate
    // per round. The priority part `base + adj` is the same for every
    // candidate of a slot, so it lives in the slot and a placement
    // recomputes only its own slot's key.
    //
    // The floats are compared as `ord` integers, which is exact because
    // every key is finite: local debts are finite, the divisions in
    // `global_prio` and `share_frac_at` are guarded against a zero
    // total, `delta` divides by `ninst >= 1` and `share >= 1e-6`, and
    // `received` is a finite time.
    //
    // Positions in `remaining` are semantics, not bookkeeping: among
    // equal keys the lowest position wins, and `swap_remove` permutes
    // the positions after every pick.
    const ADJ_SLICE: f64 = 3600.0;
    const NO_SLOT: usize = usize::MAX;
    let slots = &mut scratch.slots;
    let remaining = &mut scratch.remaining;
    let slot_index = &mut scratch.slot_index;
    let gpu_tier = &mut scratch.gpu_tier;
    slots.clear();
    remaining.clear();
    gpu_tier.clear();
    slot_index.clear();
    slot_index.resize(input.accounting.num_slots() * ProcType::COUNT, NO_SLOT);
    for &i in classes[2].iter() {
        // The classes are disjoint and `plan.run` holds only class-0 and
        // class-1 indices so far.
        debug_assert!(!plan.contains(i));
        let task = &input.tasks[i];
        let pt = task.spec.usage.main_proc_type();
        let acct_slot = input.slots[i];
        let index = &mut slot_index[acct_slot * ProcType::COUNT + pt.index()];
        if *index == NO_SLOT {
            *index = slots.len();
            let base = input.accounting.prio_sched_at(acct_slot, pt);
            slots.push(Slot {
                base,
                ninst: input.hw.ninstances(pt).max(1) as f64,
                share: input.accounting.share_frac_at(acct_slot).max(1e-6),
                adj: 0.0,
                // `ord(base + 0.0)`: adding +0.0 only turns −0.0 into +0.0,
                // which `ord` folds anyway.
                key: ord(base),
            });
        }
        let slot = *index;
        let s = &slots[slot];
        let tier = if task.spec.usage.is_gpu_job() {
            gpu_tier.push(remaining.len());
            gpu_tier.len() - 1
        } else {
            CPU_JOB
        };
        // Anticipated-debt delta: the project claims a slice of this
        // type, so its effective priority drops — scaled inversely by
        // its share so the single scan interleaves projects in share
        // proportion (a project with 3x the share gets 3x the slots
        // before parity).
        remaining.push(Cand {
            idx: i,
            slot,
            recv: ord(-task.spec.received.secs()),
            delta: task.spec.usage.instances_of(pt) / s.ninst * ADJ_SLICE / s.share,
            tier,
        });
    }
    while !remaining.is_empty() {
        // Stop early if nothing can fit at all.
        let cpu_space = free[ProcType::Cpu] > 1e-9;
        let gpu_space = ProcType::ALL.iter().any(|&t| t.is_gpu() && free[t] > 1e-9);
        if !cpu_space && !gpu_space {
            break;
        }
        let key = |c: &Cand| (slots[c.slot].key, c.recv);
        let pos = if let Some((&first, rest)) = gpu_tier.split_first() {
            // `gpu` leads the key, so while any GPU candidate remains the
            // winner is one: scan the tier alone, ties to the lowest
            // position as the full scan would.
            let (mut best, mut best_key) = (first, key(&remaining[first]));
            for &p in rest {
                let k = key(&remaining[p]);
                if k > best_key || (k == best_key && p < best) {
                    (best, best_key) = (p, k);
                }
            }
            best
        } else {
            // CPU candidates only: first maximum in position order.
            let (mut best, mut best_key) = (0, key(&remaining[0]));
            for (p, c) in remaining.iter().enumerate().skip(1) {
                let k = key(c);
                if k > best_key {
                    (best, best_key) = (p, k);
                }
            }
            best
        };
        let c = remaining.swap_remove(pos);
        // The last candidate moved into `pos`; keep the tier index exact.
        if let Some(moved) = remaining.get(pos) {
            if moved.tier != CPU_JOB {
                gpu_tier[moved.tier] = pos;
            }
        }
        if c.tier != CPU_JOB {
            gpu_tier.swap_remove(c.tier);
            if let Some(&p) = gpu_tier.get(c.tier) {
                remaining[p].tier = c.tier;
            }
        }
        if try_place(c.idx, &mut free, &mut mem_left, plan) {
            let s = &mut slots[c.slot];
            s.adj -= c.delta;
            s.key = ord(s.base + s.adj);
        }
    }

    &scratch.plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr_sim::{simulate, RrJob, RrPlatform};
    use bce_types::{AppId, JobId, JobSpec, ProjectId, ResourceUsage, SimDuration};

    fn plan(policy: JobSchedPolicy, input: &PlanInput<'_>) -> RunPlan {
        let mut scratch = PlanScratch::new();
        plan_into(policy, input, &mut scratch);
        scratch.plan
    }

    #[test]
    fn flag_names_parse_to_the_paper_variants() {
        let names: Vec<String> = ["wrr", "local", "global", "local-llf", "global-dd"]
            .iter()
            .map(|f| JobSchedPolicy::from_flag(f).unwrap().name())
            .collect();
        assert_eq!(names, ["JS-WRR", "JS-LOCAL", "JS-GLOBAL", "JS-LOCAL+LLF", "JS-GLOBAL+DD"]);
        assert_eq!(JobSchedPolicy::from_flag("edf"), None);
        assert_eq!(crate::FetchPolicy::from_flag("hyst"), Some(crate::FetchPolicy::Hysteresis));
        assert_eq!(crate::FetchPolicy::from_flag("none"), None);
    }

    fn spec(
        id: u64,
        project: u32,
        usage: ResourceUsage,
        dur: f64,
        latency: f64,
        recv: f64,
    ) -> JobSpec {
        JobSpec {
            id: JobId(id),
            project: ProjectId(project),
            app: AppId(0),
            usage,
            duration: SimDuration::from_secs(dur),
            duration_est: SimDuration::from_secs(dur),
            latency_bound: SimDuration::from_secs(latency),
            checkpoint_period: Some(SimDuration::from_secs(60.0)),
            working_set_bytes: 1e8,
            input_bytes: 0.0,
            output_bytes: 0.0,
            received: SimTime::from_secs(recv),
        }
    }

    fn rr_for(tasks: &[Task], hw: &Hardware, shares: &[(u32, f64)]) -> RrOutcome {
        let platform = RrPlatform {
            now: SimTime::ZERO,
            ninstances: ProcMap::from_fn(|t| hw.ninstances(t) as f64),
            on_frac: 1.0,
            shares: shares.iter().map(|&(p, s)| (ProjectId(p), s)).collect(),
        };
        let jobs: Vec<RrJob> = tasks
            .iter()
            .map(|t| RrJob {
                id: t.spec.id,
                project: t.spec.project,
                proc_type: t.spec.usage.main_proc_type(),
                instances: t.spec.usage.instances_of(t.spec.usage.main_proc_type()),
                remaining: t.remaining_est(),
                deadline: t.spec.deadline(),
            })
            .collect();
        simulate(&platform, &jobs, SimDuration::from_secs(3600.0))
    }

    fn accounting(shares: &[(u32, f64)]) -> Accounting {
        Accounting::new(
            AccountingKind::Local,
            shares.iter().map(|&(p, s)| (ProjectId(p), s)),
            SimDuration::from_days(10.0),
        )
    }

    fn run_plan(
        policy: JobSchedPolicy,
        tasks: &[Task],
        hw: &Hardware,
        shares: &[(u32, f64)],
        acct: &Accounting,
    ) -> RunPlan {
        let rr = rr_for(tasks, hw, shares);
        let input = PlanInput {
            now: SimTime::ZERO,
            tasks,
            slots: &task_slots(acct, tasks),
            rr: &rr,
            accounting: acct,
            hw,
            prefs: &Preferences::default(),
            run_state: HostRunState {
                can_compute: true,
                can_gpu: true,
                net_up: true,
                user_active: false,
            },
            mem_budget: 4e9,
        };
        plan(policy, &input)
    }

    #[test]
    fn fills_all_cpus() {
        let hw = Hardware::cpu_only(2, 1e9);
        let shares = [(0, 1.0)];
        let tasks: Vec<Task> = (0..4)
            .map(|i| Task::new(spec(i, 0, ResourceUsage::one_cpu(), 1000.0, 1e6, i as f64)))
            .collect();
        let p = run_plan(JobSchedPolicy::LOCAL, &tasks, &hw, &shares, &accounting(&shares));
        assert_eq!(p.run.len(), 2);
        // FIFO among equal priorities.
        assert!(p.contains(0) && p.contains(1));
    }

    #[test]
    fn edf_promotes_endangered_job() {
        let hw = Hardware::cpu_only(1, 1e9);
        let shares = [(0, 1.0), (1, 1.0)];
        // Task 0: plenty of slack, received earlier. Task 1: tight deadline.
        let tasks = vec![
            Task::new(spec(0, 0, ResourceUsage::one_cpu(), 1000.0, 1e6, 0.0)),
            Task::new(spec(1, 1, ResourceUsage::one_cpu(), 1000.0, 1100.0, 1.0)),
        ];
        let p = run_plan(JobSchedPolicy::LOCAL, &tasks, &hw, &shares, &accounting(&shares));
        assert_eq!(p.run, vec![1], "endangered job must run first");
        // Same scenario under WRR ignores deadlines: FIFO/priority order.
        let p_wrr = run_plan(JobSchedPolicy::WRR, &tasks, &hw, &shares, &accounting(&shares));
        assert_eq!(p_wrr.run.len(), 1);
        assert_eq!(p_wrr.run, vec![0]);
    }

    #[test]
    fn gpu_jobs_precede_cpu_jobs() {
        let hw = Hardware::cpu_only(1, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10);
        let shares = [(0, 1.0)];
        let tasks = vec![
            Task::new(spec(0, 0, ResourceUsage::one_cpu(), 1000.0, 1e6, 0.0)),
            Task::new(spec(
                1,
                0,
                ResourceUsage::gpu(ProcType::NvidiaGpu, 1.0, 0.1),
                1000.0,
                1e6,
                5.0,
            )),
        ];
        let p = run_plan(JobSchedPolicy::LOCAL, &tasks, &hw, &shares, &accounting(&shares));
        // Both fit (GPU job overcommits CPU slightly); GPU selected first.
        assert_eq!(p.run[0], 1);
        assert!(p.contains(0));
    }

    #[test]
    fn scan_interleaves_projects() {
        // 4 CPUs, 2 projects with equal shares and 4 queued jobs each:
        // the anticipated-debt adjustment must pick 2 of each, not 4 of
        // whichever has epsilon-higher debt.
        let hw = Hardware::cpu_only(4, 1e9);
        let shares = [(0, 1.0), (1, 1.0)];
        let mut tasks = Vec::new();
        for i in 0..4 {
            tasks.push(Task::new(spec(i, 0, ResourceUsage::one_cpu(), 1000.0, 1e6, i as f64)));
        }
        for i in 4..8 {
            tasks.push(Task::new(spec(i, 1, ResourceUsage::one_cpu(), 1000.0, 1e6, i as f64)));
        }
        let p = run_plan(JobSchedPolicy::LOCAL, &tasks, &hw, &shares, &accounting(&shares));
        assert_eq!(p.run.len(), 4);
        let p0 = p.run.iter().filter(|&&i| tasks[i].spec.project == ProjectId(0)).count();
        assert_eq!(p0, 2, "expected 2 jobs from each project, run={:?}", p.run);
    }

    #[test]
    fn share_weighted_interleaving() {
        // 4 CPUs; shares 3:1 → 3 jobs from P0, 1 from P1.
        let hw = Hardware::cpu_only(4, 1e9);
        let shares = [(0, 3.0), (1, 1.0)];
        let mut tasks = Vec::new();
        for i in 0..4 {
            tasks.push(Task::new(spec(i, 0, ResourceUsage::one_cpu(), 1000.0, 1e6, i as f64)));
        }
        for i in 4..8 {
            tasks.push(Task::new(spec(i, 1, ResourceUsage::one_cpu(), 1000.0, 1e6, i as f64)));
        }
        let p = run_plan(JobSchedPolicy::LOCAL, &tasks, &hw, &shares, &accounting(&shares));
        let p0 = p.run.iter().filter(|&&i| tasks[i].spec.project == ProjectId(0)).count();
        assert_eq!(p0, 3, "run={:?}", p.run);
    }

    #[test]
    fn memory_limit_skips_jobs() {
        let hw = Hardware::cpu_only(4, 1e9);
        let shares = [(0, 1.0)];
        let mut tasks: Vec<Task> = (0..3)
            .map(|i| Task::new(spec(i, 0, ResourceUsage::one_cpu(), 1000.0, 1e6, i as f64)))
            .collect();
        // Make each working set 1 GB with a 2 GB budget: only 2 fit.
        for t in &mut tasks {
            // rebuild with bigger working set
            let mut s = t.spec.clone();
            s.working_set_bytes = 1e9;
            *t = Task::new(s);
        }
        let rr = rr_for(&tasks, &hw, &shares);
        let acct = accounting(&shares);
        let input = PlanInput {
            now: SimTime::ZERO,
            tasks: &tasks,
            slots: &task_slots(&acct, &tasks),
            rr: &rr,
            accounting: &acct,
            hw: &hw,
            prefs: &Preferences::default(),
            run_state: HostRunState {
                can_compute: true,
                can_gpu: true,
                net_up: true,
                user_active: false,
            },
            mem_budget: 2e9,
        };
        let p = plan(JobSchedPolicy::LOCAL, &input);
        assert_eq!(p.run.len(), 2);
        assert_eq!(p.skipped_mem, 1);
    }

    #[test]
    fn gpu_suspended_runs_cpu_only() {
        let hw = Hardware::cpu_only(1, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10);
        let shares = [(0, 1.0)];
        let tasks = vec![
            Task::new(spec(
                0,
                0,
                ResourceUsage::gpu(ProcType::NvidiaGpu, 1.0, 0.1),
                1000.0,
                1e6,
                0.0,
            )),
            Task::new(spec(1, 0, ResourceUsage::one_cpu(), 1000.0, 1e6, 1.0)),
        ];
        let rr = rr_for(&tasks, &hw, &shares);
        let acct = accounting(&shares);
        let input = PlanInput {
            now: SimTime::ZERO,
            tasks: &tasks,
            slots: &task_slots(&acct, &tasks),
            rr: &rr,
            accounting: &acct,
            hw: &hw,
            prefs: &Preferences::default(),
            run_state: HostRunState {
                can_compute: true,
                can_gpu: false,
                net_up: true,
                user_active: false,
            },
            mem_budget: 4e9,
        };
        let p = plan(JobSchedPolicy::LOCAL, &input);
        assert_eq!(p.run, vec![1]);
    }

    #[test]
    fn nothing_runs_when_suspended() {
        let hw = Hardware::cpu_only(4, 1e9);
        let shares = [(0, 1.0)];
        let tasks = vec![Task::new(spec(0, 0, ResourceUsage::one_cpu(), 1000.0, 1e6, 0.0))];
        let rr = rr_for(&tasks, &hw, &shares);
        let acct = accounting(&shares);
        let input = PlanInput {
            now: SimTime::ZERO,
            tasks: &tasks,
            slots: &task_slots(&acct, &tasks),
            rr: &rr,
            accounting: &acct,
            hw: &hw,
            prefs: &Preferences::default(),
            run_state: HostRunState {
                can_compute: false,
                can_gpu: false,
                net_up: false,
                user_active: false,
            },
            mem_budget: 4e9,
        };
        assert!(plan(JobSchedPolicy::LOCAL, &input).run.is_empty());
    }

    #[test]
    fn running_uncheckpointed_keeps_cpu() {
        let hw = Hardware::cpu_only(1, 1e9);
        let shares = [(0, 1.0), (1, 1.0)];
        let mut tasks = vec![
            Task::new(spec(0, 0, ResourceUsage::one_cpu(), 1000.0, 1e6, 0.0)),
            Task::new(spec(1, 1, ResourceUsage::one_cpu(), 1000.0, 2000.0, 1.0)),
        ];
        // Task 0 is running and has progressed past no checkpoint (30 s in,
        // checkpoints every 60 s).
        tasks[0].start();
        tasks[0].advance(SimDuration::from_secs(30.0));
        assert!(!tasks[0].checkpointed_since_start());
        let p = run_plan(JobSchedPolicy::LOCAL, &tasks, &hw, &shares, &accounting(&shares));
        // Even though task 1 is deadline-endangered, task 0 keeps the CPU.
        assert_eq!(p.run, vec![0]);
    }

    #[test]
    fn ord_agrees_with_partial_cmp() {
        let subnormal = f64::from_bits(1);
        let values = [
            0.0,
            -0.0,
            subnormal,
            -subnormal,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::MIN_POSITIVE,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
            -3600.0,
            2.5e-7,
        ];
        for a in values {
            for b in values {
                assert_eq!(ord(a).cmp(&ord(b)), a.partial_cmp(&b).unwrap(), "{a:e} vs {b:e}");
            }
        }
        assert_eq!(ord(-0.0), ord(0.0));
    }

    #[test]
    fn policy_names() {
        assert_eq!(JobSchedPolicy::WRR.name(), "JS-WRR");
        assert_eq!(JobSchedPolicy::LOCAL.name(), "JS-LOCAL");
        assert_eq!(JobSchedPolicy::GLOBAL.name(), "JS-GLOBAL");
        let llf = JobSchedPolicy { deadline_order: DeadlineOrder::Llf, ..JobSchedPolicy::LOCAL };
        assert_eq!(llf.name(), "JS-LOCAL+LLF");
        let dd =
            JobSchedPolicy { deadline_order: DeadlineOrder::Density, ..JobSchedPolicy::GLOBAL };
        assert_eq!(dd.name(), "JS-GLOBAL+DD");
    }
}
