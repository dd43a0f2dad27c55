//! Integration tests for the experiment controller against real
//! emulations: sweeps produce plottable series, comparisons produce
//! consistent tables, and text artifacts land on disk.

use bce_client::{ClientConfig, JobSchedPolicy};
use bce_controller::{
    line_chart, run_manifest, run_streaming, save_text, sweep, CampaignManifest, CampaignOptions,
    Metric, RunSpec, Series, SweepResult,
};
use bce_core::{Emulator, EmulatorConfig, Scenario, ScenarioBuilder};
use bce_scenarios::{PopulationModel, PopulationSampler};
use bce_types::{AppClass, Hardware, ProjectSpec, SimDuration};
use std::sync::Arc;

fn scenario(runtime: f64) -> Scenario {
    ScenarioBuilder::new("ctl", Hardware::cpu_only(2, 1e9))
        .seed(77)
        .project(ProjectSpec::new(0, "a", 100.0).with_app(AppClass::cpu(
            0,
            SimDuration::from_secs(runtime),
            SimDuration::from_hours(6.0),
        )))
        .build_unchecked()
}

fn emu() -> EmulatorConfig {
    EmulatorConfig { duration: SimDuration::from_hours(2.0), ..Default::default() }
}

/// A policy comparison: a sweep at one point.
fn compare(policies: &[(String, ClientConfig)], threads: usize) -> SweepResult {
    sweep("scenario", &[0.0], policies, &emu(), threads, |_| scenario(600.0))
}

#[test]
fn sweep_series_and_csv_roundtrip() {
    let policies = vec![("G".to_string(), ClientConfig::default())];
    let r = sweep("runtime", &[400.0, 800.0], &policies, &emu(), 2, scenario);
    // More jobs complete with shorter runtimes.
    let jobs_short = r.by_policy[0].1[0].jobs_completed;
    let jobs_long = r.by_policy[0].1[1].jobs_completed;
    assert!(jobs_short > jobs_long, "{jobs_short} vs {jobs_long}");
    // Tables carry one row per parameter and render to CSV.
    let t = r.table(Metric::Idle);
    let csv = t.to_csv();
    assert_eq!(csv.lines().count(), 3); // header + 2 rows
    assert!(csv.starts_with("runtime,G"));
    // Chart renders without panicking on real data.
    let chart = line_chart("idle", &r.series(Metric::Idle), 40, 10);
    assert!(chart.contains("= G"));
}

#[test]
fn comparison_table_is_consistent_with_results() {
    let policies = vec![
        (
            "LOCAL".to_string(),
            ClientConfig { sched_policy: JobSchedPolicy::LOCAL, ..Default::default() },
        ),
        (
            "WRR".to_string(),
            ClientConfig { sched_policy: JobSchedPolicy::WRR, ..Default::default() },
        ),
    ];
    let c = compare(&policies, 0);
    let rendered = c.merit_table(0).render();
    for (label, results) in &c.by_policy {
        assert!(rendered.contains(label.as_str()));
        assert!(rendered.contains(&results[0].jobs_completed.to_string()));
    }
}

#[test]
fn save_text_creates_directories() {
    // A root of this test's own, removed before the assert so a failure
    // leaves nothing behind either.
    let root =
        std::env::temp_dir().join(format!("bce-controller-save-text-{}", std::process::id()));
    let path = root.join("nested").join("out.csv");
    save_text(&path, "a,b\n1,2\n").unwrap();
    let content = std::fs::read_to_string(&path);
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(content.unwrap(), "a,b\n1,2\n");
}

#[test]
fn chart_handles_single_point_series() {
    let s = Series::new("solo", vec![(1.0, 0.5)]);
    let out = line_chart("one point", &[s], 30, 8);
    assert!(out.contains('*'));
}

// ---------------------------------------------------------------------------
// Determinism matrix: every experiment driver must produce bit-identical
// output at any thread count, and the streaming reducer must see exactly
// what a straight emulation of each spec produces. This is the executor's core contract — the
// figure pipeline may be sharded across any number of workers without
// changing a single output bit.
// ---------------------------------------------------------------------------

const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

fn two_policies() -> Vec<(String, ClientConfig)> {
    vec![
        ("GLOBAL".to_string(), ClientConfig::default()),
        (
            "LOCAL".to_string(),
            ClientConfig { sched_policy: JobSchedPolicy::LOCAL, ..Default::default() },
        ),
    ]
}

#[test]
fn population_study_bit_identical_across_threads() {
    let manifest = CampaignManifest::sampled_population(6, 17, 2.0 / 24.0);
    // `Debug` prints every f64 in its shortest round-tripping form, so equal
    // text means bit-identical moments and p95s.
    let fingerprint = |threads: usize| {
        let out = run_manifest(&manifest, threads, &CampaignOptions::default(), None).unwrap();
        format!("{:?}", out.report.outcomes)
    };
    let base = fingerprint(THREAD_MATRIX[0]);
    for &threads in &THREAD_MATRIX[1..] {
        assert_eq!(base, fingerprint(threads), "population study diverged at {threads} threads");
    }
}

#[test]
fn sweep_bit_identical_across_threads() {
    let policies = two_policies();
    let params = [400.0, 700.0, 1000.0];
    let fingerprint = |threads: usize| {
        let r = sweep("runtime", &params, &policies, &emu(), threads, scenario);
        r.by_policy
            .iter()
            .flat_map(|(_, results)| results.iter().map(|res| res.bit_fingerprint()))
            .collect::<Vec<u64>>()
    };
    let base = fingerprint(THREAD_MATRIX[0]);
    for &threads in &THREAD_MATRIX[1..] {
        assert_eq!(base, fingerprint(threads), "sweep diverged at {threads} threads");
    }
}

#[test]
fn compare_bit_identical_across_threads() {
    let fingerprint = |threads: usize| {
        compare(&two_policies(), threads)
            .by_policy
            .iter()
            .map(|(l, results)| (l.clone(), results[0].bit_fingerprint()))
            .collect::<Vec<_>>()
    };
    let base = fingerprint(THREAD_MATRIX[0]);
    for &threads in &THREAD_MATRIX[1..] {
        assert_eq!(base, fingerprint(threads), "compare diverged at {threads} threads");
    }
}

#[test]
fn streaming_reducer_bit_identical_across_threads() {
    let mut sampler = PopulationSampler::new(PopulationModel::default(), 23);
    let scenarios: Vec<Arc<Scenario>> = sampler.sample_many(5).into_iter().map(Arc::new).collect();
    let emu_cfg = Arc::new(emu());
    let specs: Vec<RunSpec> = scenarios
        .iter()
        .map(|s| {
            RunSpec::new(s.name.clone(), s.clone(), ClientConfig::default())
                .with_emulator(emu_cfg.clone())
        })
        .collect();
    let straight: Vec<u64> = specs
        .iter()
        .map(|s| {
            Emulator::new(s.scenario.clone(), s.client, s.emulator.clone()).run().bit_fingerprint()
        })
        .collect();
    for &threads in &THREAD_MATRIX {
        let mut streamed: Vec<u64> = Vec::new();
        run_streaming(&specs, threads, |_, _, r| streamed.push(r.bit_fingerprint()));
        assert_eq!(straight, streamed, "streaming diverged at {threads} threads");
    }
}
