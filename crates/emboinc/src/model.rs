//! The server-side model: a volunteer host population abstracted by
//! turnaround behaviour, workunits with replication and quorum, and the
//! server's dispatch policies.
//!
//! This is the EmBOINC direction the paper points to (§6.1: Estrada et
//! al.'s system "used a simulator (driven by either traces or by an
//! analytic model) of a dynamic population of volunteer hosts, and used
//! emulation of the BOINC server. It complements the current work."):
//! instead of emulating one client in detail, the *server* is the subject
//! and hosts are statistical processes.

use bce_sim::{Distribution, LogNormal, Rng, Uniform};
use bce_types::SimDuration;

/// One volunteer host as the server sees it.
#[derive(Debug, Clone)]
pub struct HostModel {
    /// Effective speed in FLOPS (already discounted by availability).
    pub(crate) flops: f64,
    /// Probability a replica errors out (crash, bad result).
    pub(crate) error_prob: f64,
    /// Probability a replica is simply never returned (host vanished) —
    /// the server only learns via the deadline.
    pub(crate) vanish_prob: f64,
    /// Extra turnaround beyond execution: the client-side queue wait,
    /// in seconds (mean of an exponential).
    pub(crate) queue_delay_mean: f64,
}

/// Knobs of the synthetic host population, shaped like published
/// SETI@home characterizations (log-normal speeds, a small unreliable
/// tail).
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    pub nhosts: usize,
    pub flops_median: f64,
    pub flops_sigma: f64,
    pub error_prob: Uniform,
    pub vanish_prob: Uniform,
    pub queue_delay: Uniform,
}

impl Default for PopulationSpec {
    fn default() -> Self {
        PopulationSpec {
            nhosts: 200,
            flops_median: 2e9,
            flops_sigma: 0.6,
            error_prob: Uniform { lo: 0.0, hi: 0.1 },
            vanish_prob: Uniform { lo: 0.0, hi: 0.08 },
            queue_delay: Uniform { lo: 600.0, hi: 4.0 * 86_400.0 },
        }
    }
}

impl PopulationSpec {
    pub fn sample(&self, rng: &mut Rng) -> Vec<HostModel> {
        let speed = LogNormal::from_median(self.flops_median, self.flops_sigma);
        (0..self.nhosts)
            .map(|_| HostModel {
                flops: speed.sample(rng),
                error_prob: self.error_prob.sample(rng),
                vanish_prob: self.vanish_prob.sample(rng),
                queue_delay_mean: self.queue_delay.sample(rng),
            })
            .collect()
    }
}

/// Replication/validation policy: a workunit is complete once `quorum`
/// successful results are in; `initial` replicas are issued up front and
/// failures/timeouts trigger reissue until `max_total` is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationPolicy {
    pub(crate) initial: u32,
    pub(crate) quorum: u32,
    pub(crate) max_total: u32,
}

impl ReplicationPolicy {
    /// BOINC's classic redundant validation: 2 results, 2 must agree.
    pub const REDUNDANT: ReplicationPolicy =
        ReplicationPolicy { initial: 2, quorum: 2, max_total: 8 };
    /// Adaptive/trusted single replication.
    pub const SINGLE: ReplicationPolicy = ReplicationPolicy { initial: 1, quorum: 1, max_total: 6 };
    /// Eager over-replication to cut latency at a waste cost.
    pub const EAGER: ReplicationPolicy = ReplicationPolicy { initial: 3, quorum: 1, max_total: 8 };

    pub fn name(&self) -> String {
        format!("R{}/Q{}", self.initial, self.quorum)
    }
}

/// How the server picks a host for a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostSelection {
    /// Uniformly random among idle hosts (BOINC's effective behaviour:
    /// whoever asks).
    Random,
    /// Prefer the fastest idle host.
    FastestFirst,
    /// Prefer the most reliable idle host (lowest error+vanish).
    ReliableFirst,
}

impl HostSelection {
    pub fn name(&self) -> &'static str {
        match self {
            HostSelection::Random => "random",
            HostSelection::FastestFirst => "fastest-first",
            HostSelection::ReliableFirst => "reliable-first",
        }
    }
}

/// The workload: `nworkunits` of `flops_per_wu` each, all available at
/// t=0 (a batch campaign), each with the given latency bound for replicas.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub nworkunits: usize,
    pub flops_per_wu: f64,
    pub latency_bound: SimDuration,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            nworkunits: 500,
            flops_per_wu: 4e12, // ~2000 s on the median host
            latency_bound: SimDuration::from_days(7.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_sampling_is_reasonable() {
        let mut rng = Rng::stream(1, "pop");
        let hosts = PopulationSpec::default().sample(&mut rng);
        assert_eq!(hosts.len(), 200);
        assert!(hosts.iter().all(|h| h.flops > 0.0));
        assert!(hosts.iter().all(|h| (0.0..=0.1).contains(&h.error_prob)));
        // Log-normal spread: fastest should be much faster than slowest.
        let max = hosts.iter().map(|h| h.flops).fold(0.0f64, f64::max);
        let min = hosts.iter().map(|h| h.flops).fold(f64::INFINITY, f64::min);
        assert!(max / min > 3.0, "spread {:.1}", max / min);
    }

    #[test]
    fn policy_names() {
        assert_eq!(ReplicationPolicy::REDUNDANT.name(), "R2/Q2");
        assert_eq!(ReplicationPolicy::SINGLE.name(), "R1/Q1");
        assert_eq!(HostSelection::FastestFirst.name(), "fastest-first");
    }
}
