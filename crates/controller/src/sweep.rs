//! Parameter sweeps: "do a parameter sweep over a scenario parameter"
//! (§4.3). A sweep evaluates one or more policy configurations at each
//! value of a scenario parameter and collects the figures of merit as
//! series ready for plotting/tabulation — this is what regenerates
//! Figures 3 and 6. A policy comparison ("compare scheduling policies
//! across one or more scenarios") is a sweep at one point: `bce compare`
//! and Figures 4–5 render its per-policy merit table and bars.

use crate::plot::{bar_chart, Series};
use crate::run::{run_streaming, RunSpec};
use crate::table::{f, Table};
use bce_client::ClientConfig;
use bce_core::{EmulationResult, EmulatorConfig, FiguresOfMerit, Scenario};
use std::sync::Arc;

/// Which figure of merit a series extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    Idle,
    Wasted,
    ShareViolation,
    Monotony,
    RpcsPerJob,
}

impl Metric {
    pub(crate) fn extract(&self, m: &FiguresOfMerit) -> f64 {
        match self {
            Metric::Idle => m.idle_fraction,
            Metric::Wasted => m.wasted_fraction,
            Metric::ShareViolation => m.share_violation,
            Metric::Monotony => m.monotony,
            Metric::RpcsPerJob => m.rpcs_per_job,
        }
    }

    pub(crate) fn name(&self) -> &'static str {
        match self {
            Metric::Idle => "idle",
            Metric::Wasted => "wasted",
            Metric::ShareViolation => "share_violation",
            Metric::Monotony => "monotony",
            Metric::RpcsPerJob => "rpcs_per_job",
        }
    }

    pub(crate) const ALL: [Metric; 5] = [
        Metric::Idle,
        Metric::Wasted,
        Metric::ShareViolation,
        Metric::Monotony,
        Metric::RpcsPerJob,
    ];
}

/// Results of a sweep: for each policy, for each parameter value, the full
/// emulation result.
pub struct SweepResult {
    pub(crate) param_name: String,
    pub(crate) params: Vec<f64>,
    /// Name of the scenario built for each parameter value.
    pub(crate) scenario_names: Vec<String>,
    /// One row per policy: `(label, results by param index)`.
    pub by_policy: Vec<(String, Vec<EmulationResult>)>,
}

impl SweepResult {
    /// The result of policy `label` at parameter index `point`.
    pub fn get(&self, label: &str, point: usize) -> Option<&EmulationResult> {
        self.by_policy.iter().find(|(l, _)| l == label).map(|(_, results)| &results[point])
    }

    /// Table with one row per policy and one column per figure of merit,
    /// at parameter index `point`.
    pub fn merit_table(&self, point: usize) -> Table {
        let mut t = Table::new(&[
            "policy",
            "idle",
            "wasted",
            "share_viol",
            "monotony",
            "rpcs/job",
            "jobs",
            "missed",
        ]);
        for (label, results) in &self.by_policy {
            let r = &results[point];
            t.row(&[
                label.clone(),
                f(r.merit.idle_fraction),
                f(r.merit.wasted_fraction),
                f(r.merit.share_violation),
                f(r.merit.monotony),
                format!("{:.3}", r.merit.rpcs_per_job),
                r.jobs_completed.to_string(),
                r.jobs_missed_deadline.to_string(),
            ]);
        }
        t
    }

    /// Bar chart of one metric across the policies at parameter index
    /// `point`.
    pub fn bars(&self, point: usize, metric: Metric, width: usize) -> String {
        let bars: Vec<(String, f64)> = self
            .by_policy
            .iter()
            .map(|(label, results)| (label.clone(), metric.extract(&results[point].merit)))
            .collect();
        let title = format!("{} — {}", self.scenario_names[point], metric.name());
        bar_chart(&title, &bars, width)
    }

    /// One plot series per policy for the given metric.
    pub fn series(&self, metric: Metric) -> Vec<Series> {
        self.by_policy
            .iter()
            .map(|(label, results)| {
                Series::new(
                    label.clone(),
                    self.params
                        .iter()
                        .zip(results)
                        .map(|(&x, r)| (x, metric.extract(&r.merit)))
                        .collect(),
                )
            })
            .collect()
    }

    /// Table: one row per parameter value, one column per policy.
    pub fn table(&self, metric: Metric) -> Table {
        let mut header: Vec<&str> = vec![self.param_name.as_str()];
        let labels: Vec<&str> = self.by_policy.iter().map(|(l, _)| l.as_str()).collect();
        header.extend(&labels);
        let mut t = Table::new(&header);
        for (i, &p) in self.params.iter().enumerate() {
            let mut row = vec![f(p)];
            for (_, results) in &self.by_policy {
                row.push(f(metric.extract(&results[i].merit)));
            }
            t.row(&row);
        }
        t
    }
}

/// Run a sweep. `make_scenario(param)` builds the scenario for a value;
/// each `(label, config)` policy is evaluated at every value.
pub fn sweep(
    param_name: &str,
    params: &[f64],
    policies: &[(String, ClientConfig)],
    emulator: &EmulatorConfig,
    threads: usize,
    make_scenario: impl Fn(f64) -> Scenario,
) -> SweepResult {
    // Build each parameter's scenario exactly once; every policy shares it.
    let scenarios: Vec<Arc<Scenario>> =
        params.iter().map(|&p| Arc::new(make_scenario(p))).collect();
    let emulator = Arc::new(emulator.clone());
    let mut specs = Vec::new();
    for (label, client) in policies {
        for (&p, scenario) in params.iter().zip(&scenarios) {
            specs.push(
                RunSpec::new(format!("{label}@{p}"), scenario.clone(), *client)
                    .with_emulator(emulator.clone()),
            );
        }
    }
    let mut results = Vec::with_capacity(specs.len());
    run_streaming(&specs, threads, |_, _, r| results.push(r));
    let mut results = results.into_iter();
    let by_policy = policies
        .iter()
        .map(|(label, _)| (label.clone(), results.by_ref().take(params.len()).collect()))
        .collect();
    SweepResult {
        param_name: param_name.to_string(),
        params: params.to_vec(),
        scenario_names: scenarios.iter().map(|s| s.name.clone()).collect(),
        by_policy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_client::{FetchPolicy, JobSchedPolicy};
    use bce_types::{AppClass, Hardware, ProjectSpec, SimDuration};

    fn scenario(runtime: f64) -> Scenario {
        bce_core::ScenarioBuilder::new("sweep-test", Hardware::cpu_only(1, 1e9))
            .seed(9)
            .project(ProjectSpec::new(0, "p", 100.0).with_app(AppClass::cpu(
                0,
                SimDuration::from_secs(runtime),
                SimDuration::from_hours(8.0),
            )))
            .build_unchecked()
    }

    #[test]
    fn sweep_shapes() {
        let policies = vec![
            (
                "GLOBAL".to_string(),
                ClientConfig { sched_policy: JobSchedPolicy::GLOBAL, ..Default::default() },
            ),
            (
                "ORIG".to_string(),
                ClientConfig { fetch_policy: FetchPolicy::Orig, ..Default::default() },
            ),
        ];
        let emu = EmulatorConfig { duration: SimDuration::from_hours(2.0), ..Default::default() };
        let params = [500.0, 1000.0];
        let r = sweep("runtime", &params, &policies, &emu, 0, scenario);
        assert_eq!(r.by_policy.len(), 2);
        assert_eq!(r.by_policy[0].1.len(), 2);
        let series = r.series(Metric::Idle);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].points.len(), 2);
        assert_eq!(series[0].points[0].0, 500.0);
        let rendered = r.table(Metric::RpcsPerJob).render();
        // Header, rule, and one row per parameter value.
        assert_eq!(rendered.lines().count(), 4, "{rendered}");
        assert!(rendered.contains("GLOBAL"));
        assert!(rendered.contains("runtime"));
    }

    #[test]
    fn comparison_runs_and_renders() {
        let policies = vec![
            (
                "JS-LOCAL".to_string(),
                ClientConfig { sched_policy: JobSchedPolicy::LOCAL, ..Default::default() },
            ),
            (
                "JS-GLOBAL".to_string(),
                ClientConfig { sched_policy: JobSchedPolicy::GLOBAL, ..Default::default() },
            ),
        ];
        let emu = EmulatorConfig { duration: SimDuration::from_hours(3.0), ..Default::default() };
        let c = sweep("scenario", &[0.0], &policies, &emu, 0, |_| scenario(600.0));
        assert_eq!(c.by_policy.len(), 2);
        assert!(c.get("JS-LOCAL", 0).is_some());
        assert!(c.get("nope", 0).is_none());
        let table = c.merit_table(0).render();
        assert!(table.contains("JS-LOCAL") && table.contains("JS-GLOBAL"));
        let bars = c.bars(0, Metric::Idle, 30);
        assert!(bars.contains("sweep-test — idle"));
    }

    #[test]
    fn metric_extraction() {
        let m = FiguresOfMerit {
            idle_fraction: 0.1,
            wasted_fraction: 0.2,
            share_violation: 0.3,
            monotony: 0.4,
            rpcs_per_job: 5.0,
        };
        assert_eq!(Metric::Idle.extract(&m), 0.1);
        assert_eq!(Metric::Wasted.extract(&m), 0.2);
        assert_eq!(Metric::ShareViolation.extract(&m), 0.3);
        assert_eq!(Metric::Monotony.extract(&m), 0.4);
        assert_eq!(Metric::RpcsPerJob.extract(&m), 5.0);
        for m2 in Metric::ALL {
            assert!(!m2.name().is_empty());
        }
    }
}
