//! Deterministic fault processes.
//!
//! Every process draws from its own named `bce-sim` RNG stream, so fault
//! sequences are (a) reproducible for a given scenario seed and (b)
//! independent of each other and of every other stochastic element of the
//! emulation — enabling the zero-fault identity guarantee: with all rates at
//! zero, no stream is ever created or drawn from, and the emulation is
//! bit-identical to one with no fault plumbing at all.

use bce_sim::{Distribution, Exponential, Rng};
use bce_types::{ProjectId, SimDuration, SimTime};

/// All fault-injection knobs for one emulation run. `FaultConfig::OFF`
/// (the `Default`) disables everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that any given scheduler RPC fails in transit (the
    /// request never reaches the server), independent per RPC.
    pub rpc_fail_prob: f64,
    /// Probability that any given file-transfer attempt fails mid-flight at
    /// a uniformly random byte position.
    pub transfer_fail_prob: f64,
    /// Mean time between host crashes (exponential inter-arrivals). A crash
    /// discards all running-task progress since the last checkpoint and
    /// restarts in-flight transfers from byte zero. `None` disables crashes.
    pub crash_mtbf: Option<SimDuration>,
}

impl FaultConfig {
    /// Everything disabled: the emulator behaves bit-identically to one
    /// without fault plumbing.
    pub const OFF: FaultConfig =
        FaultConfig { rpc_fail_prob: 0.0, transfer_fail_prob: 0.0, crash_mtbf: None };

    /// Convenience: the same transient-failure probability for RPCs and
    /// transfers, no crashes.
    pub fn with_failure_rate(rate: f64) -> FaultConfig {
        assert!((0.0..=1.0).contains(&rate), "failure rate must be in [0, 1], got {rate}");
        FaultConfig { rpc_fail_prob: rate, transfer_fail_prob: rate, ..FaultConfig::OFF }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::OFF
    }
}

/// Per-project transient scheduler-RPC failure process.
///
/// Each project gets its own stream (`fault-rpc-<id>`), so adding a project
/// to a scenario cannot perturb another project's fault sequence.
#[derive(Debug, Clone)]
pub struct RpcFaultInjector {
    prob: f64,
    streams: Vec<(ProjectId, Rng)>,
}

impl RpcFaultInjector {
    pub fn new(seed: u64, prob: f64, projects: &[ProjectId]) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "RPC failure probability must be in [0, 1], got {prob}"
        );
        let streams = projects
            .iter()
            .map(|&p| (p, Rng::stream(seed, &format!("fault-rpc-{}", p.0))))
            .collect();
        RpcFaultInjector { prob, streams }
    }

    /// Draw whether this RPC attempt fails in transit.
    pub fn rpc_fails(&mut self, project: ProjectId) -> bool {
        if self.prob <= 0.0 {
            return false;
        }
        let rng = self
            .streams
            .iter_mut()
            .find(|(p, _)| *p == project)
            .map(|(_, rng)| rng)
            .expect("project not registered with RpcFaultInjector");
        rng.chance(self.prob)
    }

    /// Uniform draw from the project's stream, for jittered comm backoff.
    pub fn jitter_u(&mut self, project: ProjectId) -> f64 {
        let rng = self
            .streams
            .iter_mut()
            .find(|(p, _)| *p == project)
            .map(|(_, rng)| rng)
            .expect("project not registered with RpcFaultInjector");
        rng.uniform()
    }
}

/// Mid-flight transfer failure process, shared by the download and upload
/// queues (one stream: transfer order is already deterministic).
#[derive(Debug, Clone)]
pub struct TransferFaultModel {
    prob: f64,
    rng: Rng,
}

impl TransferFaultModel {
    /// Failed attempts are retried under
    /// [`RetryPolicy::TRANSFER`](crate::RetryPolicy::TRANSFER).
    pub fn new(seed: u64, prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "transfer failure probability must be in [0, 1], got {prob}"
        );
        TransferFaultModel { prob, rng: Rng::stream(seed, "fault-xfer") }
    }

    /// Plan one transfer attempt of `bytes`: `Some(fail_after_bytes)` if this
    /// attempt will fail once that many bytes have moved, `None` if it will
    /// run to completion.
    pub fn plan_attempt(&mut self, bytes: f64) -> Option<f64> {
        if self.prob <= 0.0 {
            return None;
        }
        if self.rng.chance(self.prob) {
            Some(self.rng.uniform() * bytes)
        } else {
            None
        }
    }

    /// Uniform draw for the retry policy's jitter.
    pub fn jitter_u(&mut self) -> f64 {
        self.rng.uniform()
    }
}

/// Host-crash arrival process: exponential inter-arrival times.
#[derive(Debug, Clone)]
pub struct CrashProcess {
    dist: Exponential,
    rng: Rng,
}

impl CrashProcess {
    pub fn new(seed: u64, mtbf: SimDuration) -> Self {
        assert!(
            mtbf.secs() > 0.0 && mtbf.secs().is_finite(),
            "crash MTBF must be positive and finite, got {}",
            mtbf.secs()
        );
        CrashProcess { dist: Exponential::new(mtbf.secs()), rng: Rng::stream(seed, "fault-crash") }
    }

    /// Sample the next crash time strictly after `now`.
    pub fn next_after(&mut self, now: SimTime) -> SimTime {
        // Guard against a zero draw so crash events always advance time.
        let gap = self.dist.sample(&mut self.rng).max(1e-3);
        now + SimDuration::from_secs(gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_is_inert() {
        let cfg = FaultConfig::default();
        assert_eq!(cfg, FaultConfig::OFF);
        assert_eq!(cfg, FaultConfig::with_failure_rate(0.0));
    }

    #[test]
    fn rpc_injector_is_deterministic_and_per_project() {
        let projects = [ProjectId(0), ProjectId(1)];
        let mut a = RpcFaultInjector::new(42, 0.3, &projects);
        let mut b = RpcFaultInjector::new(42, 0.3, &projects);
        let seq_a: Vec<bool> = (0..64).map(|_| a.rpc_fails(ProjectId(0))).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.rpc_fails(ProjectId(0))).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&f| f), "rate 0.3 over 64 draws should fail at least once");
        assert!(!seq_a.iter().all(|&f| f));
        // Draining project 0's stream must not affect project 1's.
        let mut c = RpcFaultInjector::new(42, 0.3, &projects);
        let direct: Vec<bool> = (0..16).map(|_| c.rpc_fails(ProjectId(1))).collect();
        let after: Vec<bool> = (0..16).map(|_| a.rpc_fails(ProjectId(1))).collect();
        assert_eq!(direct, after);
    }

    #[test]
    fn zero_rate_injector_never_draws() {
        // With prob 0 the answer is always false and no stream state advances,
        // preserving determinism of anything sharing the seed.
        let mut inj = RpcFaultInjector::new(7, 0.0, &[ProjectId(0)]);
        assert!((0..100).all(|_| !inj.rpc_fails(ProjectId(0))));
        let mut xf = TransferFaultModel::new(7, 0.0);
        assert!((0..100).all(|_| xf.plan_attempt(1e6).is_none()));
    }

    #[test]
    fn transfer_fail_point_is_within_bounds() {
        let mut xf = TransferFaultModel::new(3, 1.0);
        for _ in 0..100 {
            let point = xf.plan_attempt(5000.0).expect("prob 1.0 always fails");
            assert!((0.0..5000.0).contains(&point));
        }
    }

    #[test]
    fn crash_arrivals_advance_and_average_near_mtbf() {
        let mut cp = CrashProcess::new(11, SimDuration::from_secs(3600.0));
        let mut now = SimTime::ZERO;
        let mut gaps = Vec::new();
        for _ in 0..2000 {
            let next = cp.next_after(now);
            assert!(next > now);
            gaps.push(next.secs() - now.secs());
            now = next;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 3600.0).abs() < 3600.0 * 0.15, "mean gap {mean} too far from MTBF");
    }
}
