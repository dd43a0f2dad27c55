//! Job generation: turns an [`AppClass`] template into concrete jobs with
//! normally-distributed runtimes (§4.3a) and modelled estimate errors.

use bce_sim::{Distribution, Normal, Rng, TruncatedNormal};
use bce_types::{AppClass, EstErrorModel, JobId, JobSpec, ProjectId, SimDuration, SimTime};

/// Stateful generator of jobs for one project.
#[derive(Debug, Clone)]
pub(crate) struct JobFactory {
    project: ProjectId,
    /// The project's slot shifted into the job id's upper bits.
    id_base: u64,
    next_seq: u64,
    rng: Rng,
}

impl JobFactory {
    /// A generator for `project`, the `slot`-th project of its scenario.
    /// Job ids carry the slot in bits 40 and up and a per-project sequence
    /// number below, so they are unique across the whole emulation
    /// without central coordination, whatever the project ids are.
    pub(crate) fn new(project: ProjectId, slot: usize, rng: Rng) -> Self {
        assert!(slot < 1 << 24, "project slot {slot} does not fit in a job id");
        JobFactory { project, id_base: (slot as u64) << 40, next_seq: 0, rng }
    }

    fn next_id(&mut self) -> JobId {
        let id = self.id_base | self.next_seq;
        self.next_seq += 1;
        JobId(id)
    }

    /// Draw one job from `app`, received by the client at `now`.
    pub(crate) fn make_job(&mut self, app: &AppClass, now: SimTime) -> JobSpec {
        let mean = app.runtime_mean.secs();
        let actual = if app.runtime_cv > 0.0 {
            TruncatedNormal::positive(mean, app.runtime_cv * mean).sample(&mut self.rng)
        } else {
            mean
        };
        let est = match app.est_error {
            EstErrorModel::Exact => actual,
            EstErrorModel::Systematic { factor } => actual * factor,
            EstErrorModel::LogNormal { sigma } => {
                actual * (sigma * Normal::std_sample(&mut self.rng)).exp()
            }
        };
        JobSpec {
            id: self.next_id(),
            project: self.project,
            app: app.id,
            usage: app.usage,
            duration: SimDuration::from_secs(actual),
            duration_est: SimDuration::from_secs(est.max(1e-3)),
            latency_bound: app.latency_bound,
            checkpoint_period: app.checkpoint_period,
            working_set_bytes: app.working_set_bytes,
            input_bytes: app.input_bytes,
            output_bytes: app.output_bytes,
            received: now,
        }
    }

    /// Pick an app class by weight among those matching a predicate.
    /// Returns the index into `apps`.
    pub(crate) fn pick_app(
        &mut self,
        apps: &[AppClass],
        pred: impl Fn(&AppClass) -> bool,
    ) -> Option<usize> {
        let candidates = apps.iter().enumerate().filter(|(_, a)| pred(a) && a.weight > 0.0);
        // No candidate means no pick and no draw from the RNG stream.
        candidates.clone().next()?;
        let k = self.rng.pick_weighted(candidates.clone().map(|(_, a)| a.weight));
        candidates.map(|(i, _)| i).nth(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::ProcType;

    fn factory() -> JobFactory {
        JobFactory::new(ProjectId(3), 2, Rng::from_seed(42))
    }

    fn app() -> AppClass {
        AppClass::cpu(0, SimDuration::from_secs(1000.0), SimDuration::from_hours(6.0))
    }

    #[test]
    fn ids_unique_and_carry_project() {
        let mut f = factory();
        let a = app();
        let j1 = f.make_job(&a, SimTime::ZERO);
        let j2 = f.make_job(&a, SimTime::ZERO);
        assert_ne!(j1.id, j2.id);
        assert_eq!(j1.id.0 >> 40, 2);
        assert_eq!(j1.project, ProjectId(3));
    }

    #[test]
    fn runtimes_follow_distribution() {
        let mut f = factory();
        let a = app().with_cv(0.1);
        let durations: Vec<f64> =
            (0..2000).map(|_| f.make_job(&a, SimTime::ZERO).duration.secs()).collect();
        let mean = durations.iter().sum::<f64>() / durations.len() as f64;
        assert!((mean - 1000.0).abs() < 20.0, "mean {mean}");
        assert!(durations.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn zero_cv_is_deterministic() {
        let mut f = factory();
        let a = app().with_cv(0.0);
        for _ in 0..10 {
            assert_eq!(f.make_job(&a, SimTime::ZERO).duration.secs(), 1000.0);
        }
    }

    #[test]
    fn exact_estimates_match_actual() {
        let mut f = factory();
        let a = app().with_cv(0.2);
        for _ in 0..100 {
            let j = f.make_job(&a, SimTime::ZERO);
            assert_eq!(j.duration, j.duration_est);
        }
    }

    #[test]
    fn systematic_estimate_error() {
        let mut f = factory();
        let a = app().with_est_error(EstErrorModel::Systematic { factor: 2.0 });
        let j = f.make_job(&a, SimTime::ZERO);
        assert!((j.duration_est.secs() / j.duration.secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_estimate_error_is_unbiased_in_log() {
        let mut f = factory();
        let a = app().with_est_error(EstErrorModel::LogNormal { sigma: 0.3 });
        let ratios: Vec<f64> = (0..5000)
            .map(|_| {
                let j = f.make_job(&a, SimTime::ZERO);
                (j.duration_est.secs() / j.duration.secs()).ln()
            })
            .collect();
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean.abs() < 0.02, "log-ratio mean {mean}");
    }

    #[test]
    fn weighted_app_pick() {
        let mut f = factory();
        let apps = vec![
            app(),
            AppClass {
                weight: 3.0,
                ..AppClass::gpu(
                    1,
                    ProcType::NvidiaGpu,
                    SimDuration::from_secs(10.0),
                    SimDuration::from_secs(100.0),
                )
            },
        ];
        let mut gpu_picks = 0;
        for _ in 0..1000 {
            let i = f.pick_app(&apps, |_| true).unwrap();
            if apps[i].usage.is_gpu_job() {
                gpu_picks += 1;
            }
        }
        assert!((600..900).contains(&gpu_picks), "gpu_picks {gpu_picks}");
        // Predicate filtering
        let only_cpu = f.pick_app(&apps, |a| !a.usage.is_gpu_job()).unwrap();
        assert_eq!(only_cpu, 0);
        assert!(f.pick_app(&apps, |_| false).is_none());
    }

    #[test]
    fn received_time_propagates() {
        let mut f = factory();
        let t = SimTime::from_secs(777.0);
        let j = f.make_job(&app(), t);
        assert_eq!(j.received, t);
        assert_eq!(j.deadline(), t + SimDuration::from_hours(6.0));
    }
}
