//! Round-robin simulation cost vs. queue depth. The RR simulation runs at
//! every scheduling decision (§3.2), so its cost bounds emulator speed —
//! especially in many-project scenarios like Scenario 4.

use bce_avail::HostRunState;
use bce_client::{
    plan_into, rr_simulate, rr_simulate_into, task_slots, Accounting, AccountingKind,
    AccountingSnapshot, Client, ClientConfig, JobSchedPolicy, PlanInput, PlanScratch, RrJob,
    RrOutcome, RrPlatform, RrScratch, Task,
};
use bce_sim::Rng;
use bce_types::{
    AppId, Hardware, JobId, JobSpec, Preferences, ProcMap, ProcType, ProjectId, ResourceUsage,
    SimDuration, SimTime,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn make_jobs(njobs: usize, nprojects: usize, rng: &mut Rng) -> Vec<RrJob> {
    (0..njobs)
        .map(|i| {
            let gpu = i % 5 == 0;
            RrJob {
                id: JobId(i as u64),
                project: ProjectId((i % nprojects) as u32),
                proc_type: if gpu { ProcType::NvidiaGpu } else { ProcType::Cpu },
                instances: 1.0,
                remaining: SimDuration::from_secs(rng.range(100.0, 5000.0)),
                deadline: SimTime::from_secs(rng.range(5_000.0, 100_000.0)),
            }
        })
        .collect()
}

fn bench_rr(c: &mut Criterion) {
    let mut g = c.benchmark_group("rr_sim");
    for (njobs, nprojects) in [(8usize, 2usize), (32, 4), (128, 20), (512, 50)] {
        let mut rng = Rng::from_seed(42);
        let jobs = make_jobs(njobs, nprojects, &mut rng);
        let mut ninstances = ProcMap::zero();
        ninstances[ProcType::Cpu] = 4.0;
        ninstances[ProcType::NvidiaGpu] = 1.0;
        let platform = RrPlatform {
            now: SimTime::ZERO,
            ninstances,
            on_frac: 1.0,
            shares: (0..nprojects).map(|p| (ProjectId(p as u32), 1.0)).collect(),
        };
        g.bench_with_input(
            BenchmarkId::new("jobs_projects", format!("{njobs}x{nprojects}")),
            &jobs,
            |b, jobs| {
                b.iter(|| {
                    black_box(rr_simulate(&platform, black_box(jobs), SimDuration::from_hours(2.0)))
                })
            },
        );
    }
    g.finish();
}

/// Scratch-vs-alloc: the same simulation through the per-call-allocating
/// entry point (`simulate`) and the reusable-scratch fast path
/// (`simulate_into`), at queue depths bracketing real workloads.
fn bench_scratch_vs_alloc(c: &mut Criterion) {
    let mut g = c.benchmark_group("rr_sim_scratch_vs_alloc");
    for njobs in [10usize, 100, 1000] {
        let mut rng = Rng::from_seed(7);
        let nprojects = (njobs / 8).clamp(2, 40);
        let jobs = make_jobs(njobs, nprojects, &mut rng);
        let mut ninstances = ProcMap::zero();
        ninstances[ProcType::Cpu] = 4.0;
        ninstances[ProcType::NvidiaGpu] = 1.0;
        let platform = RrPlatform {
            now: SimTime::ZERO,
            ninstances,
            on_frac: 1.0,
            shares: (0..nprojects).map(|p| (ProjectId(p as u32), 1.0)).collect(),
        };
        let window = SimDuration::from_hours(2.0);
        g.bench_with_input(BenchmarkId::new("alloc", njobs), &jobs, |b, jobs| {
            b.iter(|| black_box(rr_simulate(&platform, black_box(jobs), window)))
        });
        g.bench_with_input(BenchmarkId::new("scratch", njobs), &jobs, |b, jobs| {
            let mut scratch = RrScratch::new();
            let mut out = RrOutcome::default();
            b.iter(|| {
                rr_simulate_into(&platform, black_box(jobs), window, &mut scratch, &mut out);
                black_box(out.finish.len())
            })
        });
    }
    g.finish();
}

/// `njobs` jobs of one project on one processor type: `(project,
/// proc_type, njobs)`.
type Block = (u32, ProcType, usize);

/// Jobs laid out in blocks, interleaved round-robin across blocks the way
/// successive RPCs fill a queue.
fn shape_jobs(blocks: &[Block], rng: &mut Rng) -> Vec<RrJob> {
    let mut left: Vec<usize> = blocks.iter().map(|b| b.2).collect();
    let mut jobs = Vec::new();
    while left.iter().any(|&n| n > 0) {
        for (b, &(project, proc_type, _)) in blocks.iter().enumerate() {
            if left[b] == 0 {
                continue;
            }
            left[b] -= 1;
            jobs.push(RrJob {
                id: JobId(jobs.len() as u64),
                project: ProjectId(project),
                proc_type,
                instances: 1.0,
                remaining: SimDuration::from_secs(rng.range(100.0, 20_000.0)),
                deadline: SimTime::from_secs(rng.range(5_000.0, 400_000.0)),
            });
        }
    }
    jobs
}

/// Per-shape kernel cost: `simulate_into` with a reused scratch on the
/// three queue shapes the emulator meets. Scenarios 1–3 queue ~3 jobs
/// over 1–2 projects (fixed per-call set-up dominates); scenario 4 spreads
/// 1–3 jobs over each of 20 projects (many small groups); population hosts
/// sampled from `boinc2019` hold a few (type, project) groups of tens of
/// jobs each (per-step work over long groups dominates).
fn bench_shape(c: &mut Criterion) {
    use ProcType::{Cpu, NvidiaGpu};
    let mut g = c.benchmark_group("rr_sim_shape");
    let scen4: Vec<Block> = (0..20u32)
        .flat_map(|p| {
            let cpu = (p, Cpu, 1 + p as usize % 3);
            let gpu = (p % 4 == 0).then_some((p, NvidiaGpu, 1));
            std::iter::once(cpu).chain(gpu)
        })
        .collect();
    let shapes: [(&str, f64, f64, usize, Vec<Block>); 3] = [
        ("scen1_3", 1.0, 0.0, 2, vec![(0, Cpu, 2), (1, Cpu, 1)]),
        ("scen4", 4.0, 1.0, 20, scen4),
        (
            "population",
            8.0,
            1.0,
            4,
            vec![(0, Cpu, 40), (1, Cpu, 25), (2, Cpu, 10), (3, Cpu, 18), (1, NvidiaGpu, 12)],
        ),
    ];
    for (name, ncpus, ngpus, nprojects, blocks) in shapes {
        let mut rng = Rng::from_seed(31);
        let jobs = shape_jobs(&blocks, &mut rng);
        let mut ninstances = ProcMap::zero();
        ninstances[ProcType::Cpu] = ncpus;
        ninstances[ProcType::NvidiaGpu] = ngpus;
        let platform = RrPlatform {
            now: SimTime::ZERO,
            ninstances,
            on_frac: 0.9,
            shares: (0..nprojects).map(|p| (ProjectId(p as u32), 1.0 + (p % 3) as f64)).collect(),
        };
        let window = SimDuration::from_secs(1800.0);
        let mut scratch = RrScratch::new();
        let mut out = RrOutcome::default();
        g.bench_function(BenchmarkId::new("simulate_into", name), |b| {
            b.iter(|| {
                rr_simulate_into(&platform, black_box(&jobs), window, &mut scratch, &mut out);
                black_box(out.finish.len())
            })
        });
    }
    g.finish();
}

fn bench_client(njobs: usize) -> Client {
    let nprojects = (njobs / 8).clamp(2, 40) as u32;
    let mut c = Client::new(
        Hardware::cpu_only(4, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10).with_vram(4e9),
        Preferences::default(),
        None,
        (0..nprojects)
            .map(|p| Client::project(p, 1.0, &[ProcType::Cpu, ProcType::NvidiaGpu]))
            .collect(),
        ClientConfig::default(),
    );
    let mut rng = Rng::from_seed(11);
    c.add_jobs(
        (0..njobs)
            .map(|i| JobSpec {
                id: JobId(i as u64),
                project: ProjectId(i as u32 % nprojects),
                app: AppId(0),
                usage: if i % 5 == 0 {
                    ResourceUsage::gpu(ProcType::NvidiaGpu, 1.0, 0.1)
                } else {
                    ResourceUsage::one_cpu()
                },
                duration: SimDuration::from_secs(rng.range(100.0, 5000.0)),
                duration_est: SimDuration::from_secs(rng.range(100.0, 5000.0)),
                latency_bound: SimDuration::from_secs(rng.range(5_000.0, 100_000.0)),
                checkpoint_period: Some(SimDuration::from_secs(60.0)),
                working_set_bytes: 1e8,
                input_bytes: 0.0,
                output_bytes: 0.0,
                received: SimTime::ZERO,
            })
            .collect(),
    );
    c
}

/// Cached-vs-uncached: repeated same-instant queries through the client's
/// generation-keyed snapshot cache (`rr_refresh`, hits after the first)
/// against a full simulation per query (`invalidate_rr` first) — the
/// before/after of the decision-point hot path.
fn bench_cached_vs_uncached(c: &mut Criterion) {
    let mut g = c.benchmark_group("rr_sim_cached_vs_uncached");
    let rs = HostRunState { can_compute: true, can_gpu: true, net_up: true, user_active: false };
    for njobs in [10usize, 100, 1000] {
        let mut client = bench_client(njobs);
        g.bench_function(BenchmarkId::new("uncached", njobs), |b| {
            b.iter(|| {
                client.invalidate_rr();
                client.rr_refresh(SimTime::ZERO, rs, 1.0);
                black_box(client.rr_snapshot().finish.len())
            })
        });
        let mut client = bench_client(njobs);
        client.rr_refresh(SimTime::ZERO, rs, 1.0); // prime: every iter is a hit
        g.bench_function(BenchmarkId::new("cached", njobs), |b| {
            b.iter(|| {
                client.rr_refresh(SimTime::ZERO, rs, 1.0);
                black_box(client.rr_snapshot().finish.len())
            })
        });
    }
    g.finish();
}

/// A client for the progress bench: `nrunning` CPU instances over 16
/// projects and 128 very long jobs, so `reschedule` keeps `nrunning`
/// tasks running, and neither completions nor deadline misses perturb
/// the queue over millions of bench iterations.
fn progress_bench_client(nrunning: u32) -> Client {
    let nprojects = 16u32;
    let mut c = Client::new(
        Hardware::cpu_only(nrunning, 1e9),
        Preferences::default(),
        None,
        (0..nprojects).map(|p| Client::project(p, 1.0, &[ProcType::Cpu])).collect(),
        ClientConfig::default(),
    );
    let mut rng = Rng::from_seed(23);
    c.add_jobs(
        (0..128)
            .map(|i| JobSpec {
                id: JobId(i as u64),
                project: ProjectId(i as u32 % nprojects),
                app: AppId(0),
                usage: ResourceUsage::one_cpu(),
                duration: SimDuration::from_secs(rng.range(1e7, 2e7)),
                duration_est: SimDuration::from_secs(rng.range(1e7, 2e7)),
                latency_bound: SimDuration::from_secs(1e8),
                checkpoint_period: Some(SimDuration::from_secs(60.0)),
                working_set_bytes: 1e8,
                input_bytes: 0.0,
                output_bytes: 0.0,
                received: SimTime::ZERO,
            })
            .collect(),
    );
    c
}

/// Frozen-window refresh vs. full re-simulation, per decision point, with
/// 1 / 4 / 16 tasks running. Each "incremental"/"full_resim" iteration
/// advances the running tasks by a small step and then asks for the
/// snapshot: the ladder serves the retained outcome until the frozen
/// window expires (then re-anchors with one real run), while
/// "full_resim" invalidates first, so every query re-simulates. The
/// incremental bars should be flat in the running count; the full bars
/// scale with queue size.
fn bench_incremental_refresh(c: &mut Criterion) {
    let mut g = c.benchmark_group("rr_sim_incremental");
    let rs = HostRunState { can_compute: true, can_gpu: true, net_up: true, user_active: false };
    let step = SimDuration::from_secs(0.05);
    for nrunning in [1u32, 4, 16] {
        for (name, invalidate) in [("incremental", false), ("full_resim", true)] {
            let mut client = progress_bench_client(nrunning);
            client.reschedule(SimTime::ZERO, rs, 1.0);
            let mut now = SimTime::ZERO;
            g.bench_function(BenchmarkId::new(name, nrunning), |b| {
                b.iter(|| {
                    now += step;
                    client.advance(now, rs);
                    if invalidate {
                        client.invalidate_rr();
                    }
                    client.rr_refresh(now, rs, 1.0);
                    black_box(client.rr_snapshot().finish.len())
                })
            });
        }
    }
    g.finish();
}

/// A client in scenario 4's shape: 20 equal-share projects, 60 queued
/// jobs (every fifth a GPU job), 4 CPUs + 1 GPU. The jobs are far longer
/// than any bench run advances the clock, so every iteration sees the
/// same queue.
fn per_decision_client(sched_policy: JobSchedPolicy) -> Client {
    let nprojects = 20u32;
    let mut c = Client::new(
        Hardware::cpu_only(4, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10).with_vram(4e9),
        Preferences::default(),
        None,
        (0..nprojects)
            .map(|p| Client::project(p, 1.0, &[ProcType::Cpu, ProcType::NvidiaGpu]))
            .collect(),
        ClientConfig { sched_policy, ..ClientConfig::default() },
    );
    let mut rng = Rng::from_seed(29);
    c.add_jobs(
        (0..60)
            .map(|i| JobSpec {
                id: JobId(i as u64),
                project: ProjectId(i as u32 % nprojects),
                app: AppId(0),
                usage: if i % 5 == 0 {
                    ResourceUsage::gpu(ProcType::NvidiaGpu, 1.0, 0.1)
                } else {
                    ResourceUsage::one_cpu()
                },
                duration: SimDuration::from_secs(rng.range(1e7, 2e7)),
                duration_est: SimDuration::from_secs(rng.range(1e7, 2e7)),
                latency_bound: SimDuration::from_secs(rng.range(5e7, 2e8)),
                checkpoint_period: Some(SimDuration::from_secs(60.0)),
                working_set_bytes: 1e8,
                input_bytes: 0.0,
                output_bytes: 0.0,
                received: SimTime::from_secs(i as f64),
            })
            .collect(),
    );
    c
}

/// A GPU-saturated planner input: 4 CPUs and one GPU held by a running,
/// uncheckpointed (class-0) GPU job; 12 queued GPU and 22 queued CPU jobs
/// over 20 projects. Jobs arrive four to an RPC (shared `received`) and
/// debts take three values, so the class-2 argmax sees exact key ties.
fn gpu_saturated_queue() -> (Hardware, Vec<Task>, Accounting) {
    let nprojects = 20u32;
    let hw = Hardware::cpu_only(4, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10);
    let spec = |id: u64, usage: ResourceUsage| JobSpec {
        id: JobId(id),
        project: ProjectId(id as u32 % nprojects),
        app: AppId(0),
        usage,
        duration: SimDuration::from_secs(5e4),
        duration_est: SimDuration::from_secs(5e4),
        latency_bound: SimDuration::from_secs(1e7),
        checkpoint_period: Some(SimDuration::from_secs(600.0)),
        working_set_bytes: 1e8,
        input_bytes: 0.0,
        output_bytes: 0.0,
        received: SimTime::from_secs((id / 4) as f64 * 3600.0),
    };
    let gpu = ResourceUsage::gpu(ProcType::NvidiaGpu, 1.0, 0.1);
    let mut holder = Task::new(spec(0, gpu));
    holder.start();
    holder.advance(SimDuration::from_secs(60.0));
    let mut tasks = vec![holder];
    // GPU and CPU jobs interleave in the queue, as successive RPCs do.
    for i in 1..=34u64 {
        let usage = if i % 3 == 1 { gpu } else { ResourceUsage::one_cpu() };
        tasks.push(Task::new(spec(i, usage)));
    }
    assert_eq!(tasks.iter().filter(|t| t.spec.usage.is_gpu_job()).count(), 1 + 12);
    let ids = || (0..nprojects).map(ProjectId);
    let mut accounting = Accounting::new(
        AccountingKind::Local,
        ids().map(|p| (p, 1.0 + (p.0 % 4) as f64)),
        SimDuration::from_days(10.0),
    );
    accounting
        .restore_snapshot(&AccountingSnapshot {
            debts: ids()
                .map(|p| {
                    (p, ProcMap::from_fn(|t| [0.0, -500.0, 800.0][(p.0 as usize + t.index()) % 3]))
                })
                .collect(),
            lt_debts: ids().map(|p| (p, ProcMap::zero())).collect(),
            rec: ids().map(|p| (p, 0.0)).collect(),
            rec_updated: SimTime::ZERO,
        })
        .expect("snapshot lists every project");
    (hw, tasks, accounting)
}

/// Per-decision client cost outside the RR kernel: one `advance` (usage
/// sample + resource-share accounting) and one `reschedule` (RR refresh,
/// mostly served from the frozen window, + planner) per iteration, under
/// local debts (JS-LOCAL) and global REC (JS-GLOBAL) accounting; and the
/// planner alone on a GPU-saturated queue, where most class-2 rounds are
/// failed GPU placements.
fn bench_per_decision(c: &mut Criterion) {
    let mut g = c.benchmark_group("client_per_decision");
    let rs = HostRunState { can_compute: true, can_gpu: true, net_up: true, user_active: false };
    let step = SimDuration::from_secs(0.05);
    for (name, policy) in
        [("js_local", JobSchedPolicy::LOCAL), ("js_global", JobSchedPolicy::GLOBAL)]
    {
        let mut client = per_decision_client(policy);
        client.reschedule(SimTime::ZERO, rs, 1.0);
        let mut now = SimTime::ZERO;
        g.bench_function(BenchmarkId::new("advance_reschedule", name), |b| {
            b.iter(|| {
                now += step;
                black_box(client.advance(now, rs));
                black_box(client.reschedule(now, rs, 1.0))
            })
        });
    }
    let (hw, tasks, accounting) = gpu_saturated_queue();
    let rr = RrOutcome::default();
    let input = PlanInput {
        now: SimTime::from_secs(60.0),
        tasks: &tasks,
        slots: &task_slots(&accounting, &tasks),
        rr: &rr,
        accounting: &accounting,
        hw: &hw,
        prefs: &Preferences::default(),
        run_state: rs,
        mem_budget: 4e9,
    };
    let mut scratch = PlanScratch::new();
    g.bench_function("plan_gpu_saturated", |b| {
        b.iter(|| black_box(plan_into(JobSchedPolicy::LOCAL, &input, &mut scratch).run.len()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rr,
    bench_scratch_vs_alloc,
    bench_shape,
    bench_cached_vs_uncached,
    bench_incremental_refresh,
    bench_per_decision
);
criterion_main!(benches);
