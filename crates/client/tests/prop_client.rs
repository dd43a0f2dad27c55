//! Property tests for the round-robin simulation. The transfer queue's and
//! the task state machine's property tests are unit tests (`xfer.rs`,
//! `task.rs`): both types are internal to the crate.

use bce_client::{rr_simulate, RrJob, RrPlatform};
use bce_types::{JobId, ProcMap, ProcType, ProjectId, SimDuration, SimTime};
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
}
