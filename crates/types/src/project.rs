//! Projects, application classes, and server-side supply models (§2.1, §2.3).

use crate::ids::{AppId, ProjectId};
use crate::job::{EstErrorModel, ResourceUsage};
use crate::time::SimDuration;

/// A job template: one kind of job a project supplies. Servers draw concrete
/// [`crate::job::JobSpec`]s from these (runtimes are normally distributed,
/// §4.3a).
#[derive(Debug, Clone, PartialEq)]
pub struct AppClass {
    pub id: AppId,
    pub name: String,
    pub usage: ResourceUsage,
    /// Mean actual runtime at full allocation.
    pub runtime_mean: SimDuration,
    /// Coefficient of variation of the (truncated) normal runtime
    /// distribution. Zero makes runtimes deterministic.
    pub runtime_cv: f64,
    /// How the server's runtime estimate deviates from the truth.
    pub est_error: EstErrorModel,
    /// Latency bound assigned to jobs of this class.
    pub latency_bound: SimDuration,
    /// Checkpoint interval; `None` = the application never checkpoints.
    pub checkpoint_period: Option<SimDuration>,
    pub working_set_bytes: f64,
    pub input_bytes: f64,
    pub output_bytes: f64,
    /// Relative weight of this class in the project's job mix.
    pub weight: f64,
    /// Sporadic availability of this particular job type (§6.2: "the
    /// sporadic availability of particular types of jobs (for example,
    /// GPU jobs)"): alternating exponential have-work / dry periods.
    /// `None` = always available while the project has work.
    pub supply: Option<SporadicSupply>,
}

/// Alternating exponential availability of one job class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SporadicSupply {
    pub work_mean: SimDuration,
    pub dry_mean: SimDuration,
}

impl AppClass {
    /// A plain CPU application with sensible defaults, for tests and
    /// builders.
    pub fn cpu(id: u32, runtime: SimDuration, latency_bound: SimDuration) -> Self {
        AppClass {
            id: AppId(id),
            name: format!("app{id}"),
            usage: ResourceUsage::one_cpu(),
            runtime_mean: runtime,
            runtime_cv: 0.05,
            est_error: EstErrorModel::Exact,
            latency_bound,
            checkpoint_period: Some(SimDuration::from_secs(60.0)),
            working_set_bytes: 1e8,
            input_bytes: 0.0,
            output_bytes: 0.0,
            weight: 1.0,
            supply: None,
        }
    }

    /// A GPU application variant of [`AppClass::cpu`].
    pub fn gpu(
        id: u32,
        gpu: crate::proc::ProcType,
        runtime: SimDuration,
        latency_bound: SimDuration,
    ) -> Self {
        let mut a = AppClass::cpu(id, runtime, latency_bound);
        a.name = format!("gpu_app{id}");
        a.usage = ResourceUsage::gpu(gpu, 1.0, 0.05);
        a
    }

    pub fn with_cv(mut self, cv: f64) -> Self {
        self.runtime_cv = cv;
        self
    }

    pub fn with_checkpoint(mut self, p: Option<SimDuration>) -> Self {
        self.checkpoint_period = p;
        self
    }

    pub fn with_est_error(mut self, e: EstErrorModel) -> Self {
        self.est_error = e;
        self
    }

    pub fn with_working_set(mut self, bytes: f64) -> Self {
        self.working_set_bytes = bytes;
        self
    }
}

/// How much work a project's server can hand out (§4.1: "there may be
/// periods when a given project has no jobs available").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WorkSupply {
    /// The server always has jobs of every app class.
    #[default]
    Unlimited,
    /// The server alternates between having work (mean `work_mean`) and
    /// being dry (mean `dry_mean`); both exponential.
    Sporadic { work_mean: SimDuration, dry_mean: SimDuration },
    /// The server has a finite batch of jobs and is dry afterwards.
    Batch { njobs: u64 },
}

/// Server reachability (§6.2: "some projects are sporadically down for
/// maintenance").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ServerUptime {
    #[default]
    AlwaysUp,
    /// Exponential up/down alternation.
    Sporadic { up_mean: SimDuration, down_mean: SimDuration },
}

/// One attached project (§2.1): a resource share plus the kinds of jobs its
/// server supplies.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectSpec {
    pub id: ProjectId,
    pub name: String,
    /// Volunteer-specified share of the host's aggregate processing
    /// resources. Shares are relative weights, not fractions.
    pub resource_share: f64,
    pub apps: Vec<AppClass>,
    pub supply: WorkSupply,
    pub uptime: ServerUptime,
}

impl ProjectSpec {
    pub fn new(id: u32, name: impl Into<String>, resource_share: f64) -> Self {
        ProjectSpec {
            id: ProjectId(id),
            name: name.into(),
            resource_share,
            apps: Vec::new(),
            supply: WorkSupply::Unlimited,
            uptime: ServerUptime::AlwaysUp,
        }
    }

    pub fn with_app(mut self, app: AppClass) -> Self {
        self.apps.push(app);
        self
    }

    /// Processor types this project has applications for.
    pub fn proc_types(&self) -> impl Iterator<Item = crate::proc::ProcType> + '_ {
        crate::proc::ProcType::ALL
            .into_iter()
            .filter(|&t| self.apps.iter().any(|a| a.usage.main_proc_type() == t))
    }

    pub fn has_apps_for(&self, t: crate::proc::ProcType) -> bool {
        self.apps.iter().any(|a| a.usage.main_proc_type() == t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::ProcType;

    #[test]
    fn proc_types_reflect_apps() {
        let p = ProjectSpec::new(0, "alpha", 100.0)
            .with_app(AppClass::cpu(
                0,
                SimDuration::from_secs(1000.0),
                SimDuration::from_hours(6.0),
            ))
            .with_app(AppClass::gpu(
                1,
                ProcType::NvidiaGpu,
                SimDuration::from_secs(500.0),
                SimDuration::from_hours(6.0),
            ));
        let types: Vec<_> = p.proc_types().collect();
        assert_eq!(types, vec![ProcType::Cpu, ProcType::NvidiaGpu]);
        assert!(p.has_apps_for(ProcType::Cpu));
        assert!(!p.has_apps_for(ProcType::AtiGpu));
    }

    #[test]
    fn builders_chain() {
        let app = AppClass::cpu(0, SimDuration::from_secs(100.0), SimDuration::from_secs(200.0))
            .with_cv(0.0)
            .with_checkpoint(None)
            .with_working_set(5e8);
        assert_eq!(app.runtime_cv, 0.0);
        assert_eq!(app.checkpoint_period, None);
        assert_eq!(app.working_set_bytes, 5e8);
    }
}
