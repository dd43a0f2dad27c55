//! The server-side discrete-event simulation: dispatch replicated
//! workunits to the modelled host population, apply the validation
//! quorum, reissue on error/timeout, and measure campaign latency and
//! waste.

use crate::model::{HostModel, HostSelection, ReplicationPolicy, Workload};
use bce_sim::{Distribution, EventQueue, Exponential, OnlineStats, Rng};
use bce_types::{SimDuration, SimTime};
use std::collections::VecDeque;

/// What the simulation reports.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Workunits validated (reached quorum).
    pub completed: usize,
    /// Workunits that exhausted `max_total` replicas without quorum.
    pub failed: usize,
    /// Per-workunit makespan (release → quorum) statistics, seconds.
    pub makespan: OnlineStats,
    pub makespan_p95: f64,
    /// Wall time until the last workunit validated.
    pub(crate) campaign_secs: f64,
    /// Replicas dispatched in total.
    pub replicas_issued: u64,
    /// Replicas that produced no credit toward a quorum (errors, timeouts,
    /// and successes beyond the quorum).
    pub(crate) replicas_wasted: u64,
}

impl CampaignResult {
    /// Fraction of dispatched replicas that were wasted.
    pub fn waste_fraction(&self) -> f64 {
        if self.replicas_issued == 0 {
            0.0
        } else {
            self.replicas_wasted as f64 / self.replicas_issued as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A replica resolves: success, error, or timeout.
    ReplicaResolved { wu: usize, host: usize, outcome: Outcome },
    /// A host finishes (or abandons) its current replica and asks for work.
    HostFree { host: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Success,
    Error,
    Timeout,
}

#[derive(Debug, Clone, Default)]
struct WuState {
    successes: u32,
    /// Replicas actually dispatched.
    issued: u32,
    /// Dispatched and not yet resolved.
    outstanding: u32,
    /// Queued for dispatch but not yet handed to a host.
    pending: u32,
    done_at: Option<SimTime>,
    dead: bool,
}

/// Run one campaign.
pub fn run_campaign(
    hosts: &[HostModel],
    workload: &Workload,
    replication: ReplicationPolicy,
    selection: HostSelection,
    seed: u64,
) -> CampaignResult {
    assert!(replication.quorum >= 1 && replication.initial >= 1);
    assert!(replication.max_total >= replication.initial);
    let mut rng = Rng::stream(seed, "emboinc");
    let mut queue: EventQueue<Event> = EventQueue::with_capacity(hosts.len() * 2);
    let mut wus: Vec<WuState> = vec![WuState::default(); workload.nworkunits];

    // Replica demand queue: each entry is a workunit index wanting one
    // more replica. Initially `initial` per workunit, interleaved FIFO so
    // every workunit gets its first replica before any gets its second.
    let mut demand: VecDeque<usize> = VecDeque::new();
    for _round in 0..replication.initial {
        for wu in 0..workload.nworkunits {
            demand.push_back(wu);
        }
    }
    for s in wus.iter_mut() {
        s.pending = replication.initial;
    }

    let mut idle: Vec<usize> = (0..hosts.len()).collect();
    let mut makespans: Vec<f64> = Vec::with_capacity(workload.nworkunits);
    let mut stats = CampaignResult {
        completed: 0,
        failed: 0,
        makespan: OnlineStats::new(),
        makespan_p95: 0.0,
        campaign_secs: 0.0,
        replicas_issued: 0,
        replicas_wasted: 0,
    };

    let mut now = SimTime::ZERO;

    // Dispatch as many (host, wu) pairs as possible at `now`.
    let dispatch = |now: SimTime,
                    idle: &mut Vec<usize>,
                    demand: &mut VecDeque<usize>,
                    wus: &mut [WuState],
                    queue: &mut EventQueue<Event>,
                    rng: &mut Rng,
                    stats: &mut CampaignResult| {
        while !idle.is_empty() {
            // Skip demand entries for workunits that finished or died.
            let wu = loop {
                match demand.pop_front() {
                    None => return,
                    Some(w) => {
                        wus[w].pending -= 1;
                        if wus[w].done_at.is_none() && !wus[w].dead {
                            break w;
                        }
                    }
                }
            };
            // Pick a host per the selection policy.
            let pos = match selection {
                HostSelection::Random => rng.below(idle.len()),
                HostSelection::FastestFirst => idle
                    .iter()
                    .enumerate()
                    .max_by(|a, b| hosts[*a.1].flops.partial_cmp(&hosts[*b.1].flops).unwrap())
                    .map(|(i, _)| i)
                    .unwrap(),
                HostSelection::ReliableFirst => idle
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        let ra = hosts[*a.1].error_prob + hosts[*a.1].vanish_prob;
                        let rb = hosts[*b.1].error_prob + hosts[*b.1].vanish_prob;
                        ra.partial_cmp(&rb).unwrap()
                    })
                    .map(|(i, _)| i)
                    .unwrap(),
            };
            let host = idle.swap_remove(pos);
            let h = &hosts[host];
            stats.replicas_issued += 1;
            wus[wu].issued += 1;
            wus[wu].outstanding += 1;

            let deadline = now + workload.latency_bound;
            let vanished = rng.chance(h.vanish_prob);
            if vanished {
                // Nothing comes back; the server learns at the deadline,
                // and the host rejoins the pool then (modelling churn).
                queue
                    .push(deadline, Event::ReplicaResolved { wu, host, outcome: Outcome::Timeout });
                queue.push(deadline, Event::HostFree { host });
                continue;
            }
            let delay = Exponential::new(h.queue_delay_mean).sample(rng);
            let exec = workload.flops_per_wu / h.flops;
            let arrival = now + SimDuration::from_secs(delay + exec);
            if arrival > deadline {
                // The server times the replica out at the deadline; the
                // host still grinds through the worthless work and only
                // asks again when it finishes.
                queue
                    .push(deadline, Event::ReplicaResolved { wu, host, outcome: Outcome::Timeout });
                queue.push(arrival, Event::HostFree { host });
                continue;
            }
            let outcome = if rng.chance(h.error_prob) { Outcome::Error } else { Outcome::Success };
            queue.push(arrival, Event::ReplicaResolved { wu, host, outcome });
        }
    };

    dispatch(now, &mut idle, &mut demand, &mut wus, &mut queue, &mut rng, &mut stats);

    while let Some((t, event)) = queue.pop() {
        now = t;
        match event {
            Event::HostFree { host } => {
                idle.push(host);
            }
            Event::ReplicaResolved { wu, host, outcome } => {
                let state = &mut wus[wu];
                state.outstanding -= 1;
                // Timeout events for vanished hosts return the host at the
                // deadline; executed replicas already queued HostFree.
                match outcome {
                    Outcome::Success => {
                        idle.push(host);
                        if state.done_at.is_some() {
                            // Beyond-quorum success: wasted redundancy.
                            stats.replicas_wasted += 1;
                        } else {
                            state.successes += 1;
                            if state.successes >= replication.quorum {
                                state.done_at = Some(now);
                                stats.completed += 1;
                                let m = now.secs();
                                stats.makespan.push(m);
                                makespans.push(m);
                                stats.campaign_secs = stats.campaign_secs.max(m);
                            }
                        }
                    }
                    Outcome::Error => {
                        idle.push(host);
                        stats.replicas_wasted += 1;
                    }
                    Outcome::Timeout => {
                        // The host's return to the pool is scheduled
                        // separately (it may still be grinding).
                        stats.replicas_wasted += 1;
                    }
                }
                // Reissue if the quorum is out of reach with the replicas
                // still in flight or queued.
                let state = &wus[wu];
                if state.done_at.is_none() && !state.dead {
                    let needed = replication.quorum.saturating_sub(state.successes);
                    let in_flight = state.outstanding + state.pending;
                    if needed > in_flight {
                        let want = needed - in_flight;
                        let budget =
                            replication.max_total.saturating_sub(state.issued + state.pending);
                        let add = want.min(budget);
                        for _ in 0..add {
                            demand.push_back(wu);
                        }
                        wus[wu].pending += add;
                        if add < want && in_flight + add == 0 {
                            wus[wu].dead = true;
                            stats.failed += 1;
                        }
                    }
                }
            }
        }
        dispatch(now, &mut idle, &mut demand, &mut wus, &mut queue, &mut rng, &mut stats);
    }

    makespans.sort_by(|a, b| a.partial_cmp(b).unwrap());
    stats.makespan_p95 = if makespans.is_empty() {
        0.0
    } else {
        makespans[((makespans.len() as f64 * 0.95) as usize).min(makespans.len() - 1)]
    };
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PopulationSpec;

    fn hosts(n: usize, seed: u64) -> Vec<HostModel> {
        let mut rng = Rng::stream(seed, "hosts");
        PopulationSpec { nhosts: n, ..Default::default() }.sample(&mut rng)
    }

    fn reliable_hosts(n: usize) -> Vec<HostModel> {
        (0..n)
            .map(|_| HostModel {
                flops: 2e9,
                error_prob: 0.0,
                vanish_prob: 0.0,
                queue_delay_mean: 3600.0,
            })
            .collect()
    }

    fn small_workload() -> Workload {
        Workload { nworkunits: 50, flops_per_wu: 4e12, latency_bound: SimDuration::from_days(7.0) }
    }

    #[test]
    fn reliable_population_completes_everything() {
        let r = run_campaign(
            &reliable_hosts(20),
            &small_workload(),
            ReplicationPolicy::SINGLE,
            HostSelection::Random,
            1,
        );
        assert_eq!(r.completed, 50);
        assert_eq!(r.failed, 0);
        assert_eq!(r.replicas_issued, 50);
        assert_eq!(r.replicas_wasted, 0);
        assert!(r.makespan.mean() > 0.0);
        assert!(r.makespan_p95 >= r.makespan.mean());
    }

    #[test]
    fn quorum_doubles_replicas() {
        let single = run_campaign(
            &reliable_hosts(20),
            &small_workload(),
            ReplicationPolicy::SINGLE,
            HostSelection::Random,
            1,
        );
        let redundant = run_campaign(
            &reliable_hosts(20),
            &small_workload(),
            ReplicationPolicy::REDUNDANT,
            HostSelection::Random,
            1,
        );
        assert_eq!(redundant.replicas_issued, 2 * single.replicas_issued);
        assert_eq!(redundant.completed, 50);
    }

    #[test]
    fn unreliable_hosts_cause_waste_and_reissue() {
        let mut hosts = reliable_hosts(20);
        for h in &mut hosts {
            h.error_prob = 0.3;
        }
        let r = run_campaign(
            &hosts,
            &small_workload(),
            ReplicationPolicy::SINGLE,
            HostSelection::Random,
            2,
        );
        assert_eq!(r.completed, 50, "reissue must recover errors");
        assert!(r.replicas_issued > 50, "issued {}", r.replicas_issued);
        assert!(r.waste_fraction() > 0.1, "waste {:.3}", r.waste_fraction());
    }

    #[test]
    fn vanishing_hosts_recovered_via_deadline() {
        let mut hosts = reliable_hosts(30);
        for h in &mut hosts {
            h.vanish_prob = 0.4;
        }
        let wl = Workload {
            nworkunits: 30,
            flops_per_wu: 4e12,
            latency_bound: SimDuration::from_days(1.0),
        };
        let r = run_campaign(&hosts, &wl, ReplicationPolicy::SINGLE, HostSelection::Random, 3);
        assert_eq!(r.completed + r.failed, 30);
        assert!(r.completed > 20, "most should eventually validate: {}", r.completed);
        // Timeouts push p95 makespan past the 1-day deadline.
        assert!(r.makespan_p95 > 86_400.0, "p95 {:.0}", r.makespan_p95);
    }

    #[test]
    fn fastest_first_cuts_makespan_when_hosts_outnumber_work() {
        let hosts = hosts(100, 7);
        let wl = Workload {
            nworkunits: 40,
            flops_per_wu: 4e12,
            latency_bound: SimDuration::from_days(14.0),
        };
        let rand = run_campaign(&hosts, &wl, ReplicationPolicy::SINGLE, HostSelection::Random, 5);
        let fast =
            run_campaign(&hosts, &wl, ReplicationPolicy::SINGLE, HostSelection::FastestFirst, 5);
        assert!(
            fast.makespan.mean() < rand.makespan.mean(),
            "fastest-first {:.0}s vs random {:.0}s",
            fast.makespan.mean(),
            rand.makespan.mean()
        );
    }

    #[test]
    fn deterministic() {
        let hosts = hosts(50, 9);
        let run = || {
            let r = run_campaign(
                &hosts,
                &small_workload(),
                ReplicationPolicy::REDUNDANT,
                HostSelection::Random,
                11,
            );
            (r.completed, r.replicas_issued, r.makespan.mean().to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn eager_replication_trades_waste_for_latency() {
        let mut hosts = hosts(100, 13);
        // Make turnaround highly variable so redundancy pays.
        for h in &mut hosts {
            h.queue_delay_mean *= 4.0;
        }
        let wl = Workload {
            nworkunits: 60,
            flops_per_wu: 4e12,
            latency_bound: SimDuration::from_days(14.0),
        };
        let single =
            run_campaign(&hosts, &wl, ReplicationPolicy::SINGLE, HostSelection::Random, 17);
        let eager = run_campaign(&hosts, &wl, ReplicationPolicy::EAGER, HostSelection::Random, 17);
        assert!(
            eager.makespan.mean() < single.makespan.mean(),
            "eager {:.0}s vs single {:.0}s",
            eager.makespan.mean(),
            single.makespan.mean()
        );
        assert!(eager.waste_fraction() > single.waste_fraction());
    }
}
