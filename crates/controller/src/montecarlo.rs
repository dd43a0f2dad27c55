//! Monte-Carlo population studies (§6.2 future work): evaluate policies
//! over a whole sampled population of scenarios rather than hand-picked
//! points, and aggregate the figures-of-merit distributions.
//!
//! A study runs as a campaign ([`population_campaign`](crate::campaign::population_campaign),
//! reached through [`run_manifest`](crate::run_manifest)). It streams: the
//! policy × scenario matrix is distributed as `Arc`-shared specs (no
//! scenario is ever cloned) and every `EmulationResult` is folded into
//! the per-policy accumulators here the moment it completes, so memory
//! stays O(policies × metrics) plus one retained `f64` per run per
//! metric for the exact p95 — not O(runs × results).

use crate::run::RunSpec;
use crate::sweep::Metric;
use crate::table::Table;
use bce_client::{ClientConfig, FetchPolicy, JobSchedPolicy};
use bce_core::{EmulatorConfig, Scenario};
use bce_sim::OnlineStats;
use std::sync::Arc;

/// Aggregated distribution of one metric over the population.
#[derive(Debug, Clone)]
pub struct MetricStats {
    pub(crate) metric: Metric,
    pub stats: OnlineStats,
    /// 95th percentile (exact, from the retained sample).
    pub p95: f64,
}

/// Population-level outcome for one policy.
#[derive(Debug, Clone)]
pub struct PopulationOutcome {
    pub label: String,
    pub(crate) per_metric: Vec<MetricStats>,
    pub scenarios_run: usize,
}

impl PopulationOutcome {
    pub fn metric(&self, m: Metric) -> &MetricStats {
        self.per_metric.iter().find(|s| s.metric == m).expect("all metrics present")
    }
}

/// Streaming accumulator for one policy: the sample of each metric in
/// submission order. The moments and the exact p95 are computed from it
/// in [`PolicyAccum::finish`]. `pub(crate)` so the campaign module can
/// checkpoint and restore it.
pub(crate) struct PolicyAccum {
    pub(crate) values: Vec<Vec<f64>>,
}

impl PolicyAccum {
    pub(crate) fn new(expected_runs: usize) -> Self {
        PolicyAccum { values: vec![Vec::with_capacity(expected_runs); Metric::ALL.len()] }
    }

    /// Fold one run's figures of merit into every metric's accumulator.
    pub(crate) fn push(&mut self, merit: &bce_core::FiguresOfMerit) {
        for (k, metric) in Metric::ALL.iter().enumerate() {
            self.values[k].push(metric.extract(merit));
        }
    }

    pub(crate) fn finish(mut self, label: &str, scenarios_run: usize) -> PopulationOutcome {
        let per_metric = Metric::ALL
            .iter()
            .enumerate()
            .map(|(k, &metric)| {
                let values = &mut self.values[k];
                // Moments fold in submission order, before the sort.
                let mut stats = OnlineStats::new();
                for &v in values.iter() {
                    stats.push(v);
                }
                values.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let p95 = if values.is_empty() {
                    0.0
                } else {
                    values[((values.len() as f64 * 0.95) as usize).min(values.len() - 1)]
                };
                MetricStats { metric, stats, p95 }
            })
            .collect();
        PopulationOutcome { label: label.to_string(), per_metric, scenarios_run }
    }
}

/// The policy × scenario spec matrix of a population study, in the
/// submission order the resumable campaign runner relies on: all of
/// policy 0's scenarios, then policy 1's, …
pub(crate) fn population_specs(
    scenarios: &[Arc<Scenario>],
    policies: &[(String, ClientConfig)],
    emulator: &EmulatorConfig,
) -> Vec<RunSpec> {
    let emulator = Arc::new(emulator.clone());
    policies
        .iter()
        .flat_map(|(label, client)| {
            let emulator = emulator.clone();
            scenarios.iter().map(move |s| {
                RunSpec::new(format!("{label}/{}", s.name), s.clone(), *client)
                    .with_emulator(emulator.clone())
            })
        })
        .collect()
}

/// The standard policy pair of the population study: the paper's
/// recommended combination (GLOBAL scheduling + hysteresis fetch)
/// against the original BOINC baseline (LOCAL + ORIG).
pub(crate) fn standard_policies() -> Vec<(String, ClientConfig)> {
    vec![
        ("GLOBAL+HYST".to_string(), ClientConfig::default()),
        (
            "LOCAL+ORIG".to_string(),
            ClientConfig {
                sched_policy: JobSchedPolicy::LOCAL,
                fetch_policy: FetchPolicy::Orig,
                ..Default::default()
            },
        ),
    ]
}

/// The six policies `bce compare` runs: the paper's job-scheduling
/// policies {WRR, LOCAL, GLOBAL} × its work-fetch policies {ORIG,
/// HYSTERESIS}, labelled `"<sched>+<fetch>"`.
pub fn paper_policies() -> Vec<(String, ClientConfig)> {
    let mut v = Vec::new();
    for sched in [JobSchedPolicy::WRR, JobSchedPolicy::LOCAL, JobSchedPolicy::GLOBAL] {
        for fetch in [FetchPolicy::Orig, FetchPolicy::Hysteresis] {
            v.push((
                format!("{}+{}", sched.name(), fetch.name()),
                ClientConfig { sched_policy: sched, fetch_policy: fetch, ..Default::default() },
            ));
        }
    }
    v
}

/// The one-line header every population report starts with. Shared so
/// table-diffing scripts see the same bytes from the CLI and the daemon.
pub fn population_header(hosts: usize, days: f64, seed: u64) -> String {
    format!("population study: {hosts} hosts x {days} days (seed {seed})\n\n")
}

/// Summary table: one row per (policy, metric) with mean/sd/min/max/p95.
/// A policy with no completed run (a budget-stopped campaign) has no
/// moments: its cells read `-`, as `summary_json` writes `null`.
pub(crate) fn population_table(outcomes: &[PopulationOutcome]) -> Table {
    let mut t = Table::new(&["policy", "metric", "mean", "sd", "min", "max", "p95"]);
    for o in outcomes {
        for ms in &o.per_metric {
            let s = &ms.stats;
            let cell = |x: f64| if s.count() == 0 { "-".to_string() } else { format!("{x:.4}") };
            t.row(&[
                o.label.clone(),
                ms.metric.name().to_string(),
                cell(s.mean()),
                cell(s.std_dev()),
                cell(s.min()),
                cell(s.max()),
                cell(ms.p95),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{population_campaign, CampaignOptions};
    use bce_scenarios::{PopulationModel, PopulationSampler};
    use bce_types::SimDuration;

    fn study(
        scenarios: &[Arc<Scenario>],
        policies: &[(String, ClientConfig)],
        emu: &EmulatorConfig,
        threads: usize,
    ) -> Vec<PopulationOutcome> {
        population_campaign(scenarios, policies, emu, threads, &CampaignOptions::default())
            .expect("no checkpoint, nothing to fail")
            .outcomes
    }

    fn small_population(n: usize) -> Vec<Arc<Scenario>> {
        let mut sampler = PopulationSampler::new(PopulationModel::default(), 3);
        sampler.sample_many(n).into_iter().map(Arc::new).collect()
    }

    #[test]
    fn study_over_small_population() {
        let scenarios = small_population(4);
        let policies = vec![("default".to_string(), ClientConfig::default())];
        let emu = EmulatorConfig { duration: SimDuration::from_hours(2.0), ..Default::default() };
        let outcomes = study(&scenarios, &policies, &emu, 0);
        assert_eq!(outcomes.len(), 1);
        let o = &outcomes[0];
        assert_eq!(o.scenarios_run, 4);
        assert_eq!(o.per_metric.len(), 5);
        let idle = o.metric(Metric::Idle);
        assert_eq!(idle.stats.count(), 4);
        assert!(idle.stats.mean() >= 0.0 && idle.stats.mean() <= 1.0);
        assert!(idle.p95 >= idle.stats.min() && idle.p95 <= idle.stats.max());
        let table = population_table(&outcomes).render();
        assert!(table.contains("default"));
        assert!(table.contains("monotony"));
        // Sharing, not cloning: each scenario is still referenced only by
        // the caller once the study returns.
        for s in &scenarios {
            assert_eq!(Arc::strong_count(s), 1);
        }
    }

    #[test]
    fn empty_population_yields_empty_stats() {
        let policies = vec![("default".to_string(), ClientConfig::default())];
        let emu = EmulatorConfig { duration: SimDuration::from_hours(1.0), ..Default::default() };
        let outcomes = study(&[], &policies, &emu, 2);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].scenarios_run, 0);
        assert_eq!(outcomes[0].metric(Metric::Idle).stats.count(), 0);
    }

    #[test]
    fn budget_stopped_policy_renders_dashes_not_infinities() {
        // One run of a two-policy campaign: the second policy has no
        // completed run, so it has no moments to show.
        let scenarios = small_population(2);
        let emu = EmulatorConfig { duration: SimDuration::from_hours(1.0), ..Default::default() };
        let opts = CampaignOptions { stop_after_runs: Some(1), ..Default::default() };
        let outcomes = population_campaign(&scenarios, &standard_policies(), &emu, 1, &opts)
            .expect("no checkpoint, nothing to fail")
            .outcomes;
        assert_eq!(outcomes[1].metric(Metric::Idle).stats.count(), 0);
        let table = population_table(&outcomes).render();
        assert!(!table.contains("inf"), "non-finite moment rendered:\n{table}");
        let empty_rows: Vec<&str> = table.lines().filter(|l| l.starts_with("LOCAL+ORIG")).collect();
        assert_eq!(empty_rows.len(), Metric::ALL.len(), "{table}");
        for row in empty_rows {
            let cells: Vec<&str> = row.split_whitespace().collect();
            assert_eq!(cells[2..], ["-"; 5], "{row}");
        }
        let ran = table.lines().find(|l| l.starts_with("GLOBAL+HYST")).expect("ran policy row");
        assert!(!ran.contains(" - "), "a policy that ran shows its moments: {ran}");
    }
}
