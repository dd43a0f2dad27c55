//! Steady-state allocation checks for the client's per-decision paths.
//!
//! `simulate_into` and `plan_into` promise zero heap allocations once
//! their scratch vectors have grown to the workload's size. This binary
//! installs a counting global allocator and asserts the promises hold —
//! the whole point of the scratch-based APIs is that the emulator's inner
//! loop stops exercising the allocator.
//!
//! The count is kept per thread, so the tests here can run concurrently
//! without seeing each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bce_avail::HostRunState;
use bce_client::{
    plan_into, rr_simulate_into, task_slots, Accounting, AccountingKind, AccountingSnapshot,
    Client, ClientConfig, JobSchedPolicy, PlanInput, PlanScratch, RrJob, RrOutcome, RrPlatform,
    RrScratch, Task,
};
use bce_types::{
    AppId, Hardware, JobId, JobSpec, Preferences, ProcMap, ProcType, ProjectId, ResourceUsage,
    SimDuration, SimTime,
};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

fn jobs(n: usize) -> Vec<RrJob> {
    (0..n)
        .map(|i| RrJob {
            id: JobId(i as u64),
            project: ProjectId((i % 7) as u32),
            proc_type: if i % 4 == 0 { ProcType::NvidiaGpu } else { ProcType::Cpu },
            instances: 1.0 + (i % 3) as f64 * 0.5,
            remaining: SimDuration::from_secs(100.0 + (i as f64) * 37.0),
            deadline: SimTime::from_secs(5_000.0 + (i as f64) * 91.0),
        })
        .collect()
}

#[test]
fn simulate_into_is_allocation_free_in_steady_state() {
    let mut ninstances = ProcMap::zero();
    ninstances[ProcType::Cpu] = 4.0;
    ninstances[ProcType::NvidiaGpu] = 1.0;
    let platform = RrPlatform {
        now: SimTime::ZERO,
        ninstances,
        on_frac: 1.0,
        shares: (0..7).map(|p| (ProjectId(p), 1.0 + p as f64)).collect(),
    };
    let js = jobs(200);
    let window = SimDuration::from_hours(8.0);

    let mut scratch = RrScratch::new();
    let mut out = RrOutcome::default();
    // Warm-up: lets every scratch vector (and the outcome's finish/missed
    // vectors) reach its steady-state capacity.
    rr_simulate_into(&platform, &js, window, &mut scratch, &mut out);
    rr_simulate_into(&platform, &js, window, &mut scratch, &mut out);

    let before = allocs();
    for _ in 0..50 {
        rr_simulate_into(&platform, &js, window, &mut scratch, &mut out);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "simulate_into allocated {} times over 50 warm calls",
        after - before
    );

    // Shrinking the workload must stay allocation-free too (capacity is
    // retained, never released).
    let small = jobs(10);
    rr_simulate_into(&platform, &small, window, &mut scratch, &mut out);
    let before = allocs();
    for _ in 0..50 {
        rr_simulate_into(&platform, &small, window, &mut scratch, &mut out);
    }
    assert_eq!(allocs() - before, 0, "shrunk workload allocated");

    // Partial refreshes through the client's frozen-progress ladder are
    // zero-alloc per query too: a frozen hit is a key compare and two
    // counter bumps, never a re-simulation.
    let mut c = Client::new(
        Hardware::cpu_only(4, 1e9),
        Preferences::default(),
        vec![Client::project(0, 2.0, &[ProcType::Cpu]), Client::project(1, 1.0, &[ProcType::Cpu])],
        ClientConfig::default(),
    );
    let rs = HostRunState { can_compute: true, can_gpu: true, net_up: true, user_active: false };
    c.add_jobs(
        (0..8)
            .map(|i| JobSpec {
                id: JobId(i),
                project: ProjectId((i % 2) as u32),
                app: AppId(0),
                usage: ResourceUsage::one_cpu(),
                duration: SimDuration::from_secs(4_000.0),
                duration_est: SimDuration::from_secs(4_000.0),
                latency_bound: SimDuration::from_secs(20_000.0),
                checkpoint_period: None,
                working_set_bytes: 1e8,
                input_bytes: 0.0,
                output_bytes: 0.0,
                received: SimTime::ZERO,
            })
            .collect(),
    );
    // Full run at t=0 anchors the frozen window (slack 16 000 s ⇒ τ is
    // capped at 0.125 · work_buf_min = 225 s for default preferences).
    c.rr_refresh(SimTime::ZERO, rs, 1.0);
    let runs_before = c.rr_stats().runs;
    let frozen_before = c.rr_stats().frozen;
    let before = allocs();
    for t in 1..=100 {
        c.rr_refresh(SimTime::from_secs(t as f64), rs, 1.0);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "frozen refresh allocated {} times", after - before);
    assert_eq!(c.rr_stats().runs, runs_before, "sweep left the frozen window and re-simulated");
    assert_eq!(c.rr_stats().frozen, frozen_before + 100, "sweep was not served frozen");
}

#[test]
fn plan_into_is_allocation_free_in_steady_state() {
    // 4 CPUs and one GPU, held by a running class-0 job; 12 queued GPU
    // and 22 CPU candidates over 20 projects, so most class-2 rounds are
    // failed GPU placements.
    let hw = Hardware::cpu_only(4, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10);
    let spec = |id: u64, project: u32, usage: ResourceUsage| JobSpec {
        id: JobId(id),
        project: ProjectId(project),
        app: AppId(0),
        usage,
        duration: SimDuration::from_secs(4_000.0),
        duration_est: SimDuration::from_secs(4_000.0),
        latency_bound: SimDuration::from_secs(1e6),
        checkpoint_period: Some(SimDuration::from_secs(60.0)),
        working_set_bytes: 1e8,
        input_bytes: 0.0,
        output_bytes: 0.0,
        received: SimTime::from_secs((id / 4) as f64),
    };
    let gpu = ResourceUsage::gpu(ProcType::NvidiaGpu, 1.0, 0.1);
    let mut holder = Task::new(spec(0, 0, gpu));
    holder.start();
    holder.advance(SimDuration::from_secs(30.0));
    let mut tasks = vec![holder];
    tasks.extend((1..=12).map(|i| Task::new(spec(i, i as u32 % 20, gpu))));
    tasks.extend((13..=34).map(|i| Task::new(spec(i, i as u32 % 20, ResourceUsage::one_cpu()))));

    let ids = || (0..20).map(ProjectId);
    let mut accounting = Accounting::new(
        AccountingKind::Local,
        ids().map(|p| (p, 1.0)),
        SimDuration::from_days(10.0),
    );
    accounting
        .restore_snapshot(&AccountingSnapshot {
            debts: ids()
                .map(|p| (p, ProcMap::from_fn(|t| (p.0 % 3) as f64 * 100.0 - t.index() as f64)))
                .collect(),
            lt_debts: ids().map(|p| (p, ProcMap::zero())).collect(),
            rec: ids().map(|p| (p, 0.0)).collect(),
            rec_updated: SimTime::ZERO,
        })
        .unwrap();
    let rr = RrOutcome::default();
    let input = PlanInput {
        now: SimTime::from_secs(30.0),
        tasks: &tasks,
        slots: &task_slots(&accounting, &tasks),
        rr: &rr,
        accounting: &accounting,
        hw: &hw,
        prefs: &Preferences::default(),
        run_state: HostRunState {
            can_compute: true,
            can_gpu: true,
            net_up: true,
            user_active: false,
        },
        mem_budget: 4e9,
    };

    let mut scratch = PlanScratch::new();
    let first = plan_into(JobSchedPolicy::LOCAL, &input, &mut scratch).clone();
    assert_eq!(first.run.len(), 5, "the GPU holder and four CPU jobs run: {first:?}");
    assert_eq!(first.run[0], 0);

    let before = allocs();
    for _ in 0..50 {
        assert_eq!(plan_into(JobSchedPolicy::LOCAL, &input, &mut scratch), &first);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "plan_into allocated {} times over 50 warm calls",
        after - before
    );
}
