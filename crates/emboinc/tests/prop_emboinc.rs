//! Property tests for the server-side campaign simulation: conservation
//! laws must hold under arbitrary populations and every replication
//! policy.

use bce_emboinc::{
    run_campaign, HostModel, HostSelection, PopulationSpec, ReplicationPolicy, Workload,
};
use bce_sim::{Rng, Uniform};
use bce_types::SimDuration;
use proptest::prelude::*;

/// 3–29 hosts of 1e8–1e10 FLOPS, with error and vanish probabilities up to
/// 0.4 and mean queue delays of 100 s – 1e5 s.
fn hosts_strategy() -> impl Strategy<Value = Vec<HostModel>> {
    (3usize..30, 0.0f64..0.4, 0.0f64..0.4, any::<u64>()).prop_map(
        |(nhosts, error_hi, vanish_hi, seed)| {
            PopulationSpec {
                nhosts,
                flops_median: 1e9,
                flops_sigma: 0.5,
                error_prob: Uniform { lo: 0.0, hi: error_hi.max(1e-9) },
                vanish_prob: Uniform { lo: 0.0, hi: vanish_hi.max(1e-9) },
                queue_delay: Uniform { lo: 100.0, hi: 1e5 },
            }
            .sample(&mut Rng::from_seed(seed))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    #[test]
    fn campaign_conservation(
        hosts in hosts_strategy(),
        nworkunits in 1usize..40,
        policy in 0usize..3,
        seed in any::<u64>(),
    ) {
        // Each public replication policy with its quorum and replica cap.
        let (replication, quorum, max_total) = [
            (ReplicationPolicy::REDUNDANT, 2u32, 8u32),
            (ReplicationPolicy::SINGLE, 1, 6),
            (ReplicationPolicy::EAGER, 1, 8),
        ][policy];
        let workload = Workload {
            nworkunits,
            flops_per_wu: 1e12,
            latency_bound: SimDuration::from_days(5.0),
        };
        let r = run_campaign(&hosts, &workload, replication, HostSelection::Random, seed);

        // Every workunit ends validated or failed; none lost.
        prop_assert_eq!(r.completed + r.failed, nworkunits);
        // Replica accounting: at least `quorum` per completed workunit,
        // bounded by max_total per workunit.
        prop_assert!(r.replicas_issued >= (r.completed as u64) * quorum as u64);
        prop_assert!(
            r.replicas_issued <= (nworkunits as u64) * max_total as u64,
            "issued {} > cap {}",
            r.replicas_issued,
            (nworkunits as u64) * max_total as u64
        );
        prop_assert!((0.0..=1.0).contains(&r.waste_fraction()));
        // Makespan stats cover exactly the completed workunits.
        prop_assert_eq!(r.makespan.count(), r.completed as u64);
        if r.completed > 0 {
            prop_assert!(r.makespan_p95 <= r.makespan.max() + 1e-9);
            prop_assert!(r.makespan_p95 >= r.makespan.min() - 1e-9);
        }
    }

    #[test]
    fn campaign_deterministic(seed in any::<u64>()) {
        let hosts = PopulationSpec { nhosts: 10, ..Default::default() }.sample(&mut Rng::from_seed(7));
        let wl = Workload {
            nworkunits: 20,
            flops_per_wu: 1e12,
            latency_bound: SimDuration::from_days(3.0),
        };
        let run = || {
            let r = run_campaign(&hosts, &wl, ReplicationPolicy::REDUNDANT,
                                 HostSelection::Random, seed);
            (r.completed, r.failed, r.replicas_issued, r.makespan.mean().to_bits())
        };
        prop_assert_eq!(run(), run());
    }
}
