//! Jobs and their resource usage (§2.3 of the paper).

use crate::ids::{AppId, JobId, ProjectId};
use crate::proc::{Hardware, ProcType};
use crate::time::{SimDuration, SimTime};

/// The processing resources a job occupies while running (§2.3):
/// a (possibly fractional) number of CPUs, plus optionally a (possibly
/// fractional) number of instances of one GPU type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceUsage {
    /// Number of CPUs used, typically the number of CPU-intensive threads.
    /// May be fractional.
    pub avg_cpus: f64,
    /// GPU usage: `(type, instances)`. Fractional instances mean the job
    /// uses at most that fraction of the GPU's cores and memory.
    pub coproc: Option<(ProcType, f64)>,
}

impl ResourceUsage {
    /// A single-threaded CPU job.
    pub fn one_cpu() -> Self {
        ResourceUsage { avg_cpus: 1.0, coproc: None }
    }

    /// A multi-thread CPU job.
    pub fn cpus(n: f64) -> Self {
        ResourceUsage { avg_cpus: n, coproc: None }
    }

    /// A GPU job: `ninst` instances of `gpu` plus a small CPU fraction for
    /// the feeding thread.
    pub fn gpu(gpu: ProcType, ninst: f64, avg_cpus: f64) -> Self {
        debug_assert!(gpu.is_gpu());
        ResourceUsage { avg_cpus, coproc: Some((gpu, ninst)) }
    }

    /// Is this a GPU job in the paper's sense ("if J uses a GPU, we call it
    /// a GPU job")?
    pub fn is_gpu_job(&self) -> bool {
        self.coproc.is_some()
    }

    /// The type whose instances bound this job's execution: the GPU type
    /// for GPU jobs, CPU otherwise.
    pub fn main_proc_type(&self) -> ProcType {
        match self.coproc {
            Some((t, _)) => t,
            None => ProcType::Cpu,
        }
    }

    /// Instances of `t` occupied while running.
    pub fn instances_of(&self, t: ProcType) -> f64 {
        match t {
            ProcType::Cpu => self.avg_cpus,
            _ => match self.coproc {
                Some((ct, n)) if ct == t => n,
                _ => 0.0,
            },
        }
    }

    /// Peak FLOPS this job engages when running on `hw` — the paper's unit
    /// of resource accounting. GPU jobs count both their GPU share and their
    /// CPU fraction.
    pub fn peak_flops_on(&self, hw: &Hardware) -> f64 {
        let mut f = self.avg_cpus * hw.flops_per_inst(ProcType::Cpu);
        if let Some((t, n)) = self.coproc {
            f += n * hw.flops_per_inst(t);
        }
        f
    }
}

impl Default for ResourceUsage {
    fn default() -> Self {
        ResourceUsage::one_cpu()
    }
}

/// How a-priori runtime estimates relate to actual runtimes
/// (§4.1: "errors (random or systematic) in a priori job runtime
/// estimates"; modelling them is a §6.2 future-work item we implement).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EstErrorModel {
    /// Estimates are exact.
    #[default]
    Exact,
    /// Systematic error: estimate = actual × factor.
    Systematic { factor: f64 },
    /// Random error: estimate = actual × exp(N(0, sigma²)) — log-normal
    /// multiplicative noise.
    LogNormal { sigma: f64 },
}

/// A concrete job instance, as dispatched by a project server to the client.
///
/// Work is measured in *dedicated seconds*: `duration` is the wall time the
/// job needs when it holds its full resource allocation continuously. The
/// emulator converts to FLOPs via [`ResourceUsage::peak_flops_on`] when
/// computing figures of merit.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub id: JobId,
    pub project: ProjectId,
    pub app: AppId,
    pub usage: ResourceUsage,
    /// True runtime at full allocation. Unknown to the client's policies;
    /// they must rely on `duration_est`.
    pub duration: SimDuration,
    /// The server-supplied runtime estimate the client schedules with.
    pub duration_est: SimDuration,
    /// Completion must occur within this span of the dispatch time
    /// (the "latency bound"; local deadline = `received` + bound).
    pub latency_bound: SimDuration,
    /// Checkpoint interval in dedicated-execution seconds; `None` means the
    /// application never checkpoints (preemption loses all progress).
    pub checkpoint_period: Option<SimDuration>,
    /// Working-set size while running, for memory-aware scheduling.
    pub working_set_bytes: f64,
    /// Input / output file sizes, for the file-transfer model.
    pub input_bytes: f64,
    pub output_bytes: f64,
    /// When the client received this job.
    pub received: SimTime,
}

impl JobSpec {
    /// The local deadline (§2.3): dispatch time plus latency bound.
    pub fn deadline(&self) -> SimTime {
        self.received + self.latency_bound
    }
}

/// A job already in the client's queue at the start of the emulation —
/// state files carry the volunteer's in-flight results, and replaying a
/// reported anomaly requires restoring them (§4.3). The concrete
/// [`JobSpec`] is drawn from the named app class when the emulation
/// starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InitialJob {
    pub project: ProjectId,
    pub app: AppId,
    /// How long before the emulation start the job was received
    /// (its deadline is `-received_ago + latency_bound`).
    pub received_ago: SimDuration,
    /// Dedicated-execution seconds already completed.
    pub progress: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(usage: ResourceUsage) -> JobSpec {
        JobSpec {
            id: JobId(1),
            project: ProjectId(0),
            app: AppId(0),
            usage,
            duration: SimDuration::from_secs(1000.0),
            duration_est: SimDuration::from_secs(1000.0),
            latency_bound: SimDuration::from_secs(1500.0),
            checkpoint_period: Some(SimDuration::from_secs(60.0)),
            working_set_bytes: 1e8,
            input_bytes: 0.0,
            output_bytes: 0.0,
            received: SimTime::from_secs(500.0),
        }
    }

    #[test]
    fn deadline_is_receipt_plus_latency_bound() {
        let j = job(ResourceUsage::one_cpu());
        assert_eq!(j.deadline(), SimTime::from_secs(2000.0));
    }

    #[test]
    fn cpu_job_usage() {
        let u = ResourceUsage::cpus(2.0);
        assert!(!u.is_gpu_job());
        assert_eq!(u.main_proc_type(), ProcType::Cpu);
        assert_eq!(u.instances_of(ProcType::Cpu), 2.0);
        assert_eq!(u.instances_of(ProcType::NvidiaGpu), 0.0);
    }

    #[test]
    fn gpu_job_usage() {
        let u = ResourceUsage::gpu(ProcType::NvidiaGpu, 0.5, 0.2);
        assert!(u.is_gpu_job());
        assert_eq!(u.main_proc_type(), ProcType::NvidiaGpu);
        assert_eq!(u.instances_of(ProcType::NvidiaGpu), 0.5);
        assert_eq!(u.instances_of(ProcType::AtiGpu), 0.0);
        assert_eq!(u.instances_of(ProcType::Cpu), 0.2);
    }

    #[test]
    fn peak_flops_counts_both_resources() {
        let hw = Hardware::cpu_only(4, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10);
        let u = ResourceUsage::gpu(ProcType::NvidiaGpu, 1.0, 0.5);
        assert_eq!(u.peak_flops_on(&hw), 1e10 + 0.5e9);
        let c = ResourceUsage::one_cpu();
        assert_eq!(c.peak_flops_on(&hw), 1e9);
    }
}
