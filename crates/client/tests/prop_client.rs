//! Property tests for the client's core machinery: the round-robin
//! simulation, the transfer queue, and the task state machine.

use bce_client::{rr_simulate, RrJob, RrPlatform, Task, TransferQueue};
use bce_types::{
    AppId, JobId, JobSpec, ProcMap, ProcType, ProjectId, ResourceUsage, SimDuration, SimTime,
};
use proptest::prelude::*;

fn rr_case() -> impl Strategy<Value = (f64, Vec<(u32, f64, f64, f64)>)> {
    (
        1.0f64..8.0, // ncpus
        proptest::collection::vec(
            (
                0u32..4,             // project
                10.0f64..10_000.0,   // remaining
                100.0f64..100_000.0, // deadline
                0.5f64..2.0,         // instances
            ),
            1..24,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    /// RR simulation invariants: all jobs eventually finish (positive
    /// rates), busy never exceeds instances, shortfall bounded by
    /// window x instances, saturation consistent with shortfall.
    #[test]
    fn rr_sim_invariants((ncpus, jobs_desc) in rr_case(), window in 0.0f64..50_000.0) {
        let mut ninstances = ProcMap::zero();
        ninstances[ProcType::Cpu] = ncpus;
        let platform = RrPlatform {
            now: SimTime::ZERO,
            ninstances,
            on_frac: 1.0,
            shares: (0..4).map(|p| (ProjectId(p), 1.0)).collect(),
        };
        let jobs: Vec<RrJob> = jobs_desc
            .iter()
            .enumerate()
            .map(|(i, &(project, remaining, deadline, instances))| RrJob {
                id: JobId(i as u64),
                project: ProjectId(project),
                proc_type: ProcType::Cpu,
                instances,
                remaining: SimDuration::from_secs(remaining),
                deadline: SimTime::from_secs(deadline),
            })
            .collect();
        let out = rr_simulate(&platform, &jobs, SimDuration::from_secs(window));

        // Every job finishes (all have positive rates on a CPU host).
        prop_assert_eq!(out.finish.len(), jobs.len());
        // Completion no earlier than dedicated execution would allow.
        for (id, fin) in &out.finish {
            let job = &jobs[id.0 as usize];
            prop_assert!(fin.secs() >= job.remaining.secs() - 1e-6,
                "{id} finished at {} < remaining {}", fin.secs(), job.remaining.secs());
            // Endangered flag consistent with projected finish.
            let projected_miss = job.deadline.secs() < fin.secs();
            prop_assert_eq!(out.is_endangered(*id), projected_miss);
        }
        // Busy-now bounded by instance count.
        prop_assert!(out.busy_now[ProcType::Cpu] <= ncpus + 1e-9);
        // Shortfall bounded by the whole window being idle.
        prop_assert!(out.shortfall[ProcType::Cpu] <= ncpus * window + 1e-6);
        prop_assert!(out.shortfall[ProcType::Cpu] >= -1e-9);
        // If the CPU is saturated through the whole window, shortfall ~ 0.
        if out.sat[ProcType::Cpu].secs() >= window {
            prop_assert!(out.shortfall[ProcType::Cpu] < 1e-6 * ncpus * window.max(1.0));
        }
    }

    /// Transfer queue conserves bytes: total time to drain n transfers at
    /// rate r equals total bytes / r regardless of interleaving.
    #[test]
    fn transfer_queue_conservation(
        rate in 1.0f64..1e6,
        sizes in proptest::collection::vec(1.0f64..1e6, 1..10),
        step in 0.5f64..100.0,
    ) {
        let mut q = TransferQueue::new(rate);
        for (i, &b) in sizes.iter().enumerate() {
            q.enqueue(JobId(i as u64), b);
        }
        let total_bytes: f64 = sizes.iter().sum();
        let expected_drain = total_bytes / rate;
        let mut t = 0.0;
        let mut done = 0;
        while !q.is_empty() {
            done += q.advance(SimDuration::from_secs(step), true).completed.len();
            t += step;
            prop_assert!(t < expected_drain + 2.0 * step + 1.0, "queue never drains");
        }
        prop_assert_eq!(done, sizes.len());
        // Drain time within one step of the analytic value.
        prop_assert!(t >= expected_drain - 1e-6);
        prop_assert!(t <= expected_drain + 2.0 * step);
    }

    /// Task execution: progress is conserved across preemption cycles and
    /// rollback waste accounts exactly for lost progress.
    #[test]
    fn task_progress_conservation(
        duration in 100.0f64..10_000.0,
        checkpoint in proptest::option::of(10.0f64..1000.0),
        slices in proptest::collection::vec((1.0f64..500.0, any::<bool>()), 1..20),
    ) {
        let spec = JobSpec {
            id: JobId(1),
            project: ProjectId(0),
            app: AppId(0),
            usage: ResourceUsage::one_cpu(),
            duration: SimDuration::from_secs(duration),
            duration_est: SimDuration::from_secs(duration),
            latency_bound: SimDuration::from_secs(duration * 10.0),
            checkpoint_period: checkpoint.map(SimDuration::from_secs),
            working_set_bytes: 1e8,
            input_bytes: 0.0,
            output_bytes: 0.0,
            received: SimTime::ZERO,
        };
        let mut task = Task::new(spec);
        let mut executed = 0.0; // seconds actually spent executing
        for (dt, keep_mem) in slices {
            if task.is_complete() {
                break;
            }
            task.start();
            let before = task.progress();
            task.advance(SimDuration::from_secs(dt));
            executed += task.progress() - before;
            if !task.is_complete() {
                task.preempt(keep_mem);
            }
        }
        if !task.is_complete() {
            task.start(); // apply any pending rollback
        }
        // Conservation: execution time = surviving progress + rollbacks.
        let accounted = task.progress() + task.rollback_waste;
        prop_assert!((accounted - executed).abs() < 1e-6,
            "executed {executed} != progress {} + waste {}",
            task.progress(), task.rollback_waste);
        // Progress never exceeds the job length.
        prop_assert!(task.progress() <= duration + 1e-9);
        // Without checkpoints, progress after an out-of-memory preemption
        // resets entirely (verified by the conservation equation plus the
        // fact that checkpointed == 0 implies progress == executed only
        // when nothing was dropped — covered above).
    }
}
