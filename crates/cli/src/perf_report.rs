//! `bce bench` — the scenario benchmark CI's bench-smoke job gates on.
//!
//! Runs the standard scenario set through the emulator and records, per
//! scenario, wall time, event throughput and the engine's deterministic
//! counters (events processed, RR-simulation queries/runs/frozen hits,
//! peak queue depth, jobs completed). The result is rendered as JSON; CI
//! compares a quick-mode report against the committed
//! `BENCH_7_quick.json`. The repository's benchmark proper, with
//! population, daemon and per-layer numbers, is `perfbench/`.

use bce_client::{ClientConfig, JobSchedPolicy};
use bce_core::{EmulationResult, Emulator, EmulatorConfig, Scenario};
use bce_scenarios::{scenario1, scenario2, scenario3, scenario4};
use bce_statefile::JsonValue;
use bce_types::SimDuration;

/// One benchmark scenario's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    pub name: String,
    pub days: f64,
    pub wall_ms: f64,
    pub events: u64,
    pub events_per_sec: f64,
    pub rr_queries: u64,
    pub rr_runs: u64,
    /// Queries served from the retained snapshot inside the frozen-progress
    /// window (see the dirty-group refresh ladder in `bce-client`).
    pub rr_frozen: u64,
    pub cache_hit_rate: f64,
    pub peak_jobs: usize,
    pub jobs_completed: u64,
}

/// Full `bce bench` report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub quick: bool,
    pub scenarios: Vec<BenchRecord>,
}

/// The standard benchmark set: the four paper scenarios, with scenario 3
/// run over the fig6 60-day horizon (the heaviest workload in the repo).
/// Quick mode shrinks horizons for CI smoke runs.
fn standard_set(quick: bool) -> Vec<(String, Scenario, f64, ClientConfig)> {
    let d = |full: f64, q: f64| if quick { q } else { full };
    vec![
        (
            "scenario1_tight_deadlines".into(),
            scenario1(SimDuration::from_secs(1500.0)),
            d(10.0, 0.5),
            ClientConfig::default(),
        ),
        ("scenario2_cpu_gpu".into(), scenario2(), d(10.0, 0.5), ClientConfig::default()),
        (
            "scenario3_fig6_60d".into(),
            scenario3(),
            d(60.0, 2.0),
            ClientConfig {
                sched_policy: JobSchedPolicy::GLOBAL,
                rec_half_life: SimDuration::from_secs(1e6),
                ..Default::default()
            },
        ),
        ("scenario4_availability".into(), scenario4(), d(10.0, 0.5), ClientConfig::default()),
    ]
}

fn measure(name: &str, scenario: Scenario, days: f64, cfg: ClientConfig) -> BenchRecord {
    let emu = EmulatorConfig { duration: SimDuration::from_days(days), ..Default::default() };
    let start = std::time::Instant::now();
    let r: EmulationResult = Emulator::new(scenario, cfg, emu).run();
    let wall = start.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    let events = r.perf.events_processed;
    BenchRecord {
        name: name.to_string(),
        days,
        wall_ms,
        events,
        events_per_sec: if wall_ms > 0.0 { events as f64 / (wall_ms / 1e3) } else { 0.0 },
        rr_queries: r.perf.rr_queries,
        rr_runs: r.perf.rr_runs,
        rr_frozen: r.perf.rr_frozen,
        cache_hit_rate: r.perf.rr_hit_rate(),
        peak_jobs: r.perf.peak_jobs,
        jobs_completed: r.jobs_completed,
    }
}

/// Run the standard scenario set; `extra` appends one user-referenced
/// scenario to the measured set.
pub fn run_bench(quick: bool, extra: Option<(String, Scenario)>) -> BenchReport {
    let mut set = standard_set(quick);
    if let Some((name, s)) = extra {
        let days = if quick { 0.5 } else { 10.0 };
        set.push((name, s, days, ClientConfig::default()));
    }
    let scenarios = set.into_iter().map(|(n, s, d, c)| measure(&n, s, d, c)).collect();
    BenchReport { quick, scenarios }
}

impl BenchRecord {
    /// Every value is finite: rates are guarded against a zero divisor.
    fn to_json(&self) -> JsonValue {
        let n = |x: u64| JsonValue::Num(x as f64);
        JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str(self.name.clone())),
            ("days".into(), JsonValue::Num(self.days)),
            ("wall_ms".into(), JsonValue::Num(self.wall_ms)),
            ("events".into(), n(self.events)),
            ("events_per_sec".into(), JsonValue::Num(self.events_per_sec)),
            ("rr_sim_queries".into(), n(self.rr_queries)),
            ("rr_sim_runs".into(), n(self.rr_runs)),
            ("rr_sim_frozen".into(), n(self.rr_frozen)),
            ("cache_hit_rate".into(), JsonValue::Num(self.cache_hit_rate)),
            ("peak_jobs".into(), n(self.peak_jobs as u64)),
            ("jobs_completed".into(), n(self.jobs_completed)),
        ])
    }
}

/// Render the benchmark report as JSON.
pub fn to_json(report: &BenchReport) -> String {
    JsonValue::Obj(vec![
        ("bench".into(), JsonValue::Str("bce".into())),
        ("quick".into(), JsonValue::Bool(report.quick)),
        (
            "scenarios".into(),
            JsonValue::Arr(report.scenarios.iter().map(|r| r.to_json()).collect()),
        ),
    ])
    .render()
}

/// Human-readable summary of a benchmark run.
pub fn summary(report: &BenchReport) -> String {
    let mut t = bce_controller::Table::new(&[
        "scenario",
        "days",
        "wall_ms",
        "events",
        "events/s",
        "rr runs",
        "frozen",
        "hit rate",
        "peak jobs",
    ]);
    for r in &report.scenarios {
        t.row(&[
            r.name.clone(),
            format!("{:.1}", r.days),
            format!("{:.1}", r.wall_ms),
            r.events.to_string(),
            format!("{:.0}", r.events_per_sec),
            format!("{}/{}", r.rr_runs, r.rr_queries),
            r.rr_frozen.to_string(),
            format!("{:.3}", r.cache_hit_rate),
            r.peak_jobs.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bce_statefile::parse_json;

    /// The keys of one scenario record, in order. CI's perf regression
    /// gate reads `name`, `events`, `events_per_sec`, `rr_sim_queries`,
    /// `rr_sim_runs`, `rr_sim_frozen`, `cache_hit_rate`, `peak_jobs` and
    /// `jobs_completed`.
    const RECORD_KEYS: [&str; 11] = [
        "name",
        "days",
        "wall_ms",
        "events",
        "events_per_sec",
        "rr_sim_queries",
        "rr_sim_runs",
        "rr_sim_frozen",
        "cache_hit_rate",
        "peak_jobs",
        "jobs_completed",
    ];

    /// Assert a rendered report has exactly the top-level keys `bench`,
    /// `quick` and `scenarios`, and every record exactly [`RECORD_KEYS`];
    /// returns the parsed report.
    pub(crate) fn assert_report_shape(json: &str) -> JsonValue {
        let v = parse_json(json).expect("report is valid JSON");
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "quick", "scenarios"]);
        for s in v.get("scenarios").and_then(JsonValue::as_arr).unwrap() {
            let keys: Vec<&str> = s.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, RECORD_KEYS);
        }
        v
    }

    #[test]
    fn quick_bench_produces_records() {
        let report = run_bench(true, None);
        assert_eq!(report.scenarios.len(), 4);
        for r in &report.scenarios {
            assert!(r.events > 0, "{}: no events", r.name);
            assert!(r.rr_queries >= r.rr_runs, "{}: runs exceed queries", r.name);
            assert!(
                r.rr_frozen <= r.rr_queries - r.rr_runs,
                "{}: frozen hits must be a subset of hits",
                r.name
            );
        }
        // Scenario 3's jobs outlast the quick horizon, so completions are
        // only guaranteed suite-wide.
        assert!(
            report.scenarios.iter().map(|r| r.jobs_completed).sum::<u64>() > 0,
            "no jobs anywhere"
        );
        // The fetch loop re-queries the snapshot at every decision point,
        // so some hits must occur.
        assert!(report.scenarios.iter().any(|r| r.cache_hit_rate > 0.0), "no cache hits anywhere");
    }

    fn fake_report(name: &str) -> BenchReport {
        BenchReport {
            quick: true,
            scenarios: vec![BenchRecord {
                name: name.into(),
                days: 1.0,
                wall_ms: 12.5,
                events: 100,
                events_per_sec: 8000.0,
                rr_queries: 10,
                rr_runs: 4,
                rr_frozen: 3,
                cache_hit_rate: 0.6,
                peak_jobs: 7,
                jobs_completed: 3,
            }],
        }
    }

    #[test]
    fn json_is_well_formed() {
        let v = assert_report_shape(&to_json(&fake_report("x")));
        assert_eq!(v.get("bench").and_then(JsonValue::as_str), Some("bce"));
        assert_eq!(v.get("quick").and_then(JsonValue::as_bool), Some(true));
        let r = &v.get("scenarios").and_then(JsonValue::as_arr).unwrap()[0];
        let num = |k: &str| r.get(k).and_then(JsonValue::as_f64).unwrap();
        assert_eq!(num("wall_ms"), 12.5);
        assert_eq!(num("events"), 100.0);
        assert_eq!(num("events_per_sec"), 8000.0);
        assert_eq!(num("rr_sim_queries"), 10.0);
        assert_eq!(num("rr_sim_runs"), 4.0);
        assert_eq!(num("rr_sim_frozen"), 3.0);
        assert_eq!(num("cache_hit_rate"), 0.6);
        assert_eq!(num("peak_jobs"), 7.0);
        assert_eq!(num("jobs_completed"), 3.0);
    }

    #[test]
    fn json_escapes_scenario_names() {
        let name = r#"we"ird\dir/x.json"#;
        let v = assert_report_shape(&to_json(&fake_report(name)));
        let r = &v.get("scenarios").and_then(JsonValue::as_arr).unwrap()[0];
        assert_eq!(r.get("name").and_then(JsonValue::as_str), Some(name));
    }
}
