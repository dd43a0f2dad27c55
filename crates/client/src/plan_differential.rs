//! Differential tests for the planner's class-2 selection.
//!
//! `plan_into` picks class-2 jobs by an integer-keyed argmax that scans
//! the GPU candidates alone while any remain. `reference_plan` below is
//! the straightforward version it replaced: every round scans every
//! remaining candidate and compares `(gpu, priority, -received)` with
//! `partial_cmp`. Positions in the `swap_remove`-permuted candidate list
//! break exact key ties, so the generators lean on ties: shared receive
//! times (0.0 included), equal debts, and several jobs per project.
//! Both planners must return the same `run` list, in the same order, and
//! the same `skipped_mem`.

use crate::{
    plan_into, task_slots, Accounting, AccountingKind, AccountingSnapshot, DeadlineOrder,
    JobSchedPolicy, PlanInput, PlanScratch, RrOutcome, RunPlan, Task,
};
use bce_avail::HostRunState;
use bce_types::{
    AppId, Hardware, JobId, JobSpec, Preferences, ProcMap, ProcType, ProjectId, ResourceUsage,
    SimDuration, SimTime,
};
use proptest::prelude::*;

/// The class-2 loop as it was before positions were tracked: a full
/// ascending scan per round with a strict `>` on the `partial_cmp` tuple
/// order. Classes 0 and 1 are unchanged and copied as they are.
fn reference_plan(policy: JobSchedPolicy, input: &PlanInput<'_>) -> RunPlan {
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
    let mut plan = RunPlan::default();
    if !input.run_state.can_compute && !input.run_state.can_gpu {
        return plan;
    }

    let mut classes: [Vec<usize>; 3] = Default::default();
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

    let try_place = |i: usize, free: &mut ProcMap<f64>, mem_left: &mut f64, plan: &mut RunPlan| {
        let task = &input.tasks[i];
        let usage = task.spec.usage;
        if let Some((gt, n)) = usage.coproc {
            if free[gt] + 1e-9 < n {
                return false;
            }
        } else if free[ProcType::Cpu] + 1e-9 < usage.avg_cpus {
            return false;
        }
        if task.spec.working_set_bytes > *mem_left + 1e-6 {
            plan.skipped_mem += 1;
            return false;
        }
        if let Some((gt, n)) = usage.coproc {
            free[gt] -= n;
        } else {
            free[ProcType::Cpu] -= usage.avg_cpus;
        }
        *mem_left -= task.spec.working_set_bytes;
        plan.run.push(i);
        true
    };

    for &i in classes[0].iter().chain(classes[1].iter()) {
        try_place(i, &mut free, &mut mem_left, &mut plan);
    }

    struct Cand {
        idx: usize,
        gpu: bool,
        base: f64,
        neg_recv: f64,
        slot: usize,
        delta: f64,
    }
    const ADJ_SLICE: f64 = 3600.0;
    // (project, type) -> slot; first appearance order, as in `plan_into`.
    let mut slot_keys: Vec<(ProjectId, ProcType)> = Vec::new();
    let mut remaining: Vec<Cand> = Vec::new();
    for &i in classes[2].iter() {
        let task = &input.tasks[i];
        let pt = task.spec.usage.main_proc_type();
        let p = task.spec.project;
        let slot = match slot_keys.iter().position(|&k| k == (p, pt)) {
            Some(s) => s,
            None => {
                slot_keys.push((p, pt));
                slot_keys.len() - 1
            }
        };
        let ninst = input.hw.ninstances(pt).max(1) as f64;
        let share = input.accounting.share_frac(p).max(1e-6);
        remaining.push(Cand {
            idx: i,
            gpu: task.spec.usage.is_gpu_job(),
            base: input.accounting.prio_sched(p, pt),
            neg_recv: -task.spec.received.secs(),
            slot,
            delta: task.spec.usage.instances_of(pt) / ninst * ADJ_SLICE / share,
        });
    }
    let mut adj = vec![0.0; slot_keys.len()];
    while !remaining.is_empty() {
        let cpu_space = free[ProcType::Cpu] > 1e-9;
        let gpu_space = ProcType::ALL.iter().any(|&t| t.is_gpu() && free[t] > 1e-9);
        if !cpu_space && !gpu_space {
            break;
        }
        let mut best: Option<(usize, (bool, f64, f64))> = None;
        for (pos, c) in remaining.iter().enumerate() {
            let key = (c.gpu, c.base + adj[c.slot], c.neg_recv);
            let better = match &best {
                None => true,
                Some((_, bk)) => {
                    key.0
                        .cmp(&bk.0)
                        .then(key.1.partial_cmp(&bk.1).unwrap_or(std::cmp::Ordering::Equal))
                        .then(key.2.partial_cmp(&bk.2).unwrap_or(std::cmp::Ordering::Equal))
                        == std::cmp::Ordering::Greater
                }
            };
            if better {
                best = Some((pos, key));
            }
        }
        let Some((pos, _)) = best else { break };
        let c = remaining.swap_remove(pos);
        if try_place(c.idx, &mut free, &mut mem_left, &mut plan) {
            adj[c.slot] -= c.delta;
        }
    }
    plan
}

const MAX_PROJECTS: usize = 5;

/// One generated job: (project, kind, receive class, random receive
/// time, working-set class, task state, endangered).
type JobDesc = (usize, u8, u8, f64, u8, u8, bool);

fn job() -> impl Strategy<Value = JobDesc> {
    (0usize..MAX_PROJECTS, 0u8..8, 0u8..5, 0.0f64..1e4, 0u8..3, 0u8..6, 0u8..4)
        .prop_map(|(p, kind, rc, r, ws, state, e)| (p, kind, rc, r, ws, state, e == 0))
}

/// Host and run state: (GPU types 0–2, CPUs, GPUs per type, can_compute,
/// can_gpu, memory class, a class-0 job holding the NVIDIA GPU).
type HostDesc = (u8, u32, u32, bool, bool, u8, bool);

fn host() -> impl Strategy<Value = HostDesc> {
    (0u8..3, 1u32..7, 1u32..3, 0u8..5, 0u8..4, 0u8..5, any::<bool>())
        .prop_map(|(g, cpus, gpus, cc, cg, mem, hold)| (g, cpus, gpus, cc != 0, cg != 0, mem, hold))
}

/// Accounting: (kind, shares class, per-(project, type) debt classes,
/// per-project REC classes, scheduling policy).
type AcctDesc = (bool, Vec<u8>, Vec<u8>, Vec<u8>, u8);

fn acct() -> impl Strategy<Value = AcctDesc> {
    (
        any::<bool>(),
        proptest::collection::vec(0u8..4, MAX_PROJECTS),
        proptest::collection::vec(0u8..4, MAX_PROJECTS * ProcType::COUNT),
        proptest::collection::vec(0u8..3, MAX_PROJECTS),
        0u8..5,
    )
}

fn usage(kind: u8) -> ResourceUsage {
    match kind {
        0 | 1 => ResourceUsage::one_cpu(),
        2 => ResourceUsage::cpus(0.5),
        3 => ResourceUsage::cpus(2.0),
        4 | 5 => ResourceUsage::gpu(ProcType::NvidiaGpu, 1.0, 0.1),
        6 => ResourceUsage::gpu(ProcType::NvidiaGpu, 0.5, 0.1),
        _ => ResourceUsage::gpu(ProcType::AtiGpu, 1.0, 0.2),
    }
}

fn task(id: u64, project: usize, usage: ResourceUsage, received: f64, ws: f64, state: u8) -> Task {
    let mut t = Task::new(JobSpec {
        id: JobId(id),
        project: ProjectId(project as u32),
        app: AppId(0),
        usage,
        duration: SimDuration::from_secs(5_000.0 + id as f64 * 13.0),
        duration_est: SimDuration::from_secs(5_000.0),
        latency_bound: SimDuration::from_secs(50_000.0 + id as f64 * 97.0),
        checkpoint_period: Some(SimDuration::from_secs(60.0)),
        working_set_bytes: ws,
        input_bytes: 0.0,
        output_bytes: 0.0,
        received: SimTime::from_secs(received),
    });
    match state {
        // Running, not checkpointed since it started: class 0.
        3 => {
            t.start();
            t.advance(SimDuration::from_secs(30.0));
        }
        // Running past a checkpoint: an ordinary candidate.
        4 => {
            t.start();
            t.advance(SimDuration::from_secs(90.0));
        }
        5 => {
            t.start();
            t.advance(SimDuration::from_secs(30.0));
            t.preempt(false);
        }
        _ => {}
    }
    t
}

fn check(host: HostDesc, jobs: Vec<JobDesc>, acct: AcctDesc) -> Result<(), String> {
    let (gpu_types, cpus, gpus, can_compute, can_gpu, mem, hold) = host;
    let mut hw = Hardware::cpu_only(cpus, 1e9);
    if gpu_types >= 1 {
        hw = hw.with_group(ProcType::NvidiaGpu, gpus, 1e10);
    }
    if gpu_types >= 2 {
        hw = hw.with_group(ProcType::AtiGpu, gpus, 8e9);
    }

    let mut tasks = Vec::new();
    if hold {
        tasks.push(task(1_000, 0, ResourceUsage::gpu(ProcType::NvidiaGpu, 1.0, 0.1), 0.0, 1e8, 3));
    }
    let mut missed = Vec::new();
    for (i, &(p, kind, rc, r, ws, state, endangered)) in jobs.iter().enumerate() {
        let received = match rc {
            0 | 1 => 0.0,
            2 | 3 => 100.0,
            _ => r,
        };
        let ws = [1e8, 5e8, 1e9][ws as usize];
        tasks.push(task(i as u64, p, usage(kind), received, ws, state));
        if endangered {
            missed.push(JobId(i as u64));
        }
    }
    let rr = RrOutcome { missed, ..RrOutcome::default() };

    let (global, share_class, debt_class, rec_class, policy) = acct;
    let kind = if global { AccountingKind::Global } else { AccountingKind::Local };
    let shares = (0..MAX_PROJECTS)
        .map(|p| (ProjectId(p as u32), [1.0, 2.0, 0.5, 0.0][share_class[p] as usize]));
    let mut accounting = Accounting::new(kind, shares, SimDuration::from_days(10.0));
    let ids = || (0..MAX_PROJECTS).map(|p| ProjectId(p as u32));
    // A small value set makes equal debts (and equal REC) common.
    let debt = |c: u8| [0.0, -0.0, -250.0, 1e3][c as usize];
    accounting
        .restore_snapshot(&AccountingSnapshot {
            debts: ids()
                .map(|p| {
                    let d = &debt_class[p.0 as usize * ProcType::COUNT..];
                    (p, ProcMap::from_fn(|t| debt(d[t.index()])))
                })
                .collect(),
            lt_debts: ids().map(|p| (p, ProcMap::zero())).collect(),
            rec: ids().map(|p| (p, [0.0, 10.0, 40.0][rec_class[p.0 as usize] as usize])).collect(),
            rec_updated: SimTime::ZERO,
        })
        .map_err(|e| e.to_string())?;
    let policy = JobSchedPolicy::from_flag(
        ["wrr", "local", "global", "local-llf", "global-dd"][policy as usize],
    )
    .unwrap();

    let input = PlanInput {
        now: SimTime::from_secs(200.0),
        tasks: &tasks,
        slots: &task_slots(&accounting, &tasks),
        rr: &rr,
        accounting: &accounting,
        hw: &hw,
        prefs: &Preferences::default(),
        run_state: HostRunState { can_compute, can_gpu, net_up: true, user_active: false },
        mem_budget: [4e9, 1.5e9, 6e8, 2e8, 0.0][mem as usize],
    };
    let want = reference_plan(policy, &input);
    let mut scratch = PlanScratch::new();
    let got = plan_into(policy, &input, &mut scratch).clone();
    prop_assert_eq!(&got.run, &want.run);
    prop_assert_eq!(got.skipped_mem, want.skipped_mem);
    // A reused workspace gives the same answer as a fresh one.
    prop_assert_eq!(plan_into(policy, &input, &mut scratch), &want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512 })]

    /// Tie-heavy queues on hosts with 0, 1 and 2 GPU types, with and
    /// without a class-0 job holding the GPU, under every memory budget,
    /// run state and scheduling policy.
    #[test]
    fn class2_selection_matches_the_full_scan(
        host in host(),
        jobs in proptest::collection::vec(job(), 0..40),
        acct in acct(),
    ) {
        check(host, jobs, acct)?;
    }

    /// Deep queues on a GPU host that is already saturated: most rounds
    /// are failed GPU placements, the case the tier scan is for.
    #[test]
    fn gpu_saturated_queues_match_the_full_scan(
        cpus in 1u32..7,
        jobs in proptest::collection::vec(job(), 20..60),
        acct in acct(),
        mem in 0u8..3,
    ) {
        check((2, cpus, 1, true, true, mem, true), jobs, acct)?;
    }
}
