//! End-to-end tests of the resumable, panic-tolerant campaign runner.
//!
//! The crash-safety contract: a campaign killed mid-flight and resumed
//! from its checkpoint reports outcomes bit-identical to the
//! uninterrupted study, and a single panicking run is quarantined as a
//! structured `RunError` while every other run completes. Kills are
//! emulated deterministically with `CampaignOptions::stop_after_runs`,
//! whose on-disk state is exactly what a SIGKILL at that point leaves
//! (the real-signal variant lives in CI's resume-smoke job).
//!
//! The reference every campaign is held to is [`population_study`], an
//! oracle private to these tests: the plain streaming executor over the
//! same policy × scenario matrix, reduced here with `OnlineStats` and a
//! p95 of its own rather than the campaign runner's accumulators.

use super::population_campaign;
use crate::manifest::summary_json;
use crate::montecarlo::{population_table, standard_policies};
use crate::{
    run_manifest, run_streaming, CampaignCheckpoint, CampaignError, CampaignManifest,
    CampaignOptions, Metric, MetricStats, PopulationOutcome, RunSpec,
};
use bce_client::{ClientConfig, JobSchedPolicy};
use bce_core::{EmulatorConfig, FaultConfig, Scenario};
use bce_scenarios::{PopulationModel, PopulationSampler};
use bce_sim::{fnv64, OnlineStats};
use bce_types::{Hardware, ProjectSpec, SimDuration};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The independent population-study reference: every policy over every
/// scenario, in the campaign's submission order (all of policy 0's
/// scenarios, then policy 1's, …), each figure of merit folded into an
/// `OnlineStats` in that order, plus the exact p95 of its sample.
fn population_study(
    scenarios: &[Arc<Scenario>],
    policies: &[(String, ClientConfig)],
    emulator: &EmulatorConfig,
    threads: usize,
) -> Vec<PopulationOutcome> {
    let emulator = Arc::new(emulator.clone());
    let specs: Vec<RunSpec> = policies
        .iter()
        .flat_map(|(label, client)| {
            let emulator = emulator.clone();
            scenarios.iter().map(move |s| {
                RunSpec::new(format!("{label}/{}", s.name), s.clone(), *client)
                    .with_emulator(emulator.clone())
            })
        })
        .collect();
    let mut samples = vec![vec![Vec::new(); Metric::ALL.len()]; policies.len()];
    run_streaming(&specs, threads, |i, _, result| {
        for (k, metric) in Metric::ALL.iter().enumerate() {
            samples[i / scenarios.len()][k].push(metric.extract(&result.merit));
        }
    });
    policies
        .iter()
        .zip(samples)
        .map(|((label, _), per_metric)| PopulationOutcome {
            label: label.clone(),
            scenarios_run: scenarios.len(),
            per_metric: Metric::ALL
                .iter()
                .zip(per_metric)
                .map(|(&metric, values)| {
                    let mut stats = OnlineStats::new();
                    values.iter().for_each(|&v| stats.push(v));
                    MetricStats { metric, stats, p95: p95(values) }
                })
                .collect(),
        })
        .collect()
}

/// The sample value at rank ⌊0.95 n⌋ (the largest for small samples);
/// 0 for an empty sample.
fn p95(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("figures of merit are never NaN"));
    let rank = (values.len() as f64 * 0.95) as usize;
    values.get(rank.min(values.len().saturating_sub(1))).copied().unwrap_or(0.0)
}

fn population(n: usize) -> Vec<Arc<Scenario>> {
    let mut sampler = PopulationSampler::new(PopulationModel::default(), 11);
    sampler.sample_many(n).into_iter().map(Arc::new).collect()
}

fn policies() -> Vec<(String, ClientConfig)> {
    vec![
        ("current".to_string(), ClientConfig::default()),
        (
            "wrr".to_string(),
            ClientConfig { sched_policy: JobSchedPolicy::WRR, ..ClientConfig::default() },
        ),
    ]
}

fn emu() -> EmulatorConfig {
    EmulatorConfig { duration: SimDuration::from_hours(2.0), ..Default::default() }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bce-campaign-{}-{name}.ckpt", std::process::id()))
}

/// Remove every generation and the manifest of the store at `path`.
fn clear(path: &Path) {
    bce_statefile::CheckpointStore::with_real_io(path, 3).clear().expect("clear the store");
}

fn assert_outcomes_identical(a: &[PopulationOutcome], b: &[PopulationOutcome]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.label, y.label);
        assert_eq!(x.scenarios_run, y.scenarios_run);
        for m in Metric::ALL {
            let (mx, my) = (x.metric(m), y.metric(m));
            assert_eq!(mx.stats.count(), my.stats.count(), "{m:?}");
            assert_eq!(mx.stats.mean().to_bits(), my.stats.mean().to_bits(), "{m:?}");
            assert_eq!(mx.stats.std_dev().to_bits(), my.stats.std_dev().to_bits(), "{m:?}");
            assert_eq!(mx.stats.min().to_bits(), my.stats.min().to_bits(), "{m:?}");
            assert_eq!(mx.stats.max().to_bits(), my.stats.max().to_bits(), "{m:?}");
            assert_eq!(mx.p95.to_bits(), my.p95.to_bits(), "{m:?}");
        }
    }
}

#[test]
fn campaign_without_checkpointing_matches_population_study() {
    let scenarios = population(6);
    let report =
        population_campaign(&scenarios, &policies(), &emu(), 2, &CampaignOptions::default())
            .unwrap();
    assert!(report.errors.is_empty());
    assert_eq!(report.resumed_runs, 0);
    assert_eq!(report.completed_runs, 12);
    assert_eq!(report.total_runs, 12);
    let study = population_study(&scenarios, &policies(), &emu(), 1);
    assert_outcomes_identical(&report.outcomes, &study);
}

#[test]
fn killed_and_resumed_campaign_is_bit_identical() {
    let scenarios = population(8);
    let path = tmp("kill-resume");
    clear(&path);
    let opts = CampaignOptions {
        checkpoint_path: Some(path.clone()),
        checkpoint_every_runs: 1,
        resume: false,
        stop_after_runs: None,
        ..Default::default()
    };
    let reference = population_study(&scenarios, &policies(), &emu(), 1);

    // "Kill" the campaign after 5 of its 16 runs. Mid-policy-0, so the
    // resumed half crosses a policy boundary too.
    let partial = population_campaign(
        &scenarios,
        &policies(),
        &emu(),
        2,
        &CampaignOptions { stop_after_runs: Some(5), ..opts.clone() },
    )
    .unwrap();
    assert_eq!(partial.completed_runs, 5);
    assert_eq!(partial.total_runs, 16);
    let ckpt = CampaignCheckpoint::read_from(&path).unwrap();
    assert_eq!(ckpt.completed, 5);
    assert!(ckpt.completed < ckpt.total);

    // Resume — with a different thread count, which must not matter.
    let resumed = population_campaign(
        &scenarios,
        &policies(),
        &emu(),
        4,
        &CampaignOptions { resume: true, ..opts.clone() },
    )
    .unwrap();
    assert_eq!(resumed.resumed_runs, 5);
    assert_eq!(resumed.completed_runs, 16);
    assert!(resumed.errors.is_empty());
    assert_outcomes_identical(&resumed.outcomes, &reference);

    // A second resume sees the complete checkpoint and re-derives the
    // same outcomes without emulating anything.
    let again = population_campaign(
        &scenarios,
        &policies(),
        &emu(),
        1,
        &CampaignOptions { resume: true, ..opts },
    )
    .unwrap();
    assert_eq!(again.resumed_runs, 16);
    assert_outcomes_identical(&again.outcomes, &reference);
    clear(&path);
}

#[test]
fn resume_after_newest_generation_corruption_is_bit_identical() {
    // The durability headline: kill a checkpointing campaign, corrupt
    // the newest on-disk generation (torn rename / bit rot), and resume.
    // The store must fall back to the previous generation, report the
    // recovery, and the finished campaign must still be bit-identical
    // to the uninterrupted study.
    let scenarios = population(6);
    let path = tmp("gen-fallback");
    let store = bce_statefile::CheckpointStore::with_real_io(&path, 3);
    store.clear().unwrap();
    let opts = CampaignOptions {
        checkpoint_path: Some(path.clone()),
        checkpoint_every_runs: 1,
        resume: false,
        stop_after_runs: Some(5),
        ..Default::default()
    };
    let reference = population_study(&scenarios, &policies(), &emu(), 1);

    let partial = population_campaign(&scenarios, &policies(), &emu(), 2, &opts).unwrap();
    assert_eq!(partial.completed_runs, 5);

    // Checkpoint-every-run left several generations; zero-fill a chunk
    // of the newest one.
    let gens = store.generations_on_disk().unwrap();
    assert!(gens.len() >= 2, "expected rotation to keep multiple generations, got {gens:?}");
    let newest = store.generation_path(*gens.last().unwrap());
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    let end = (mid + 64).min(bytes.len());
    for b in &mut bytes[mid..end] {
        *b = 0;
    }
    std::fs::write(&newest, &bytes).unwrap();

    let resumed = population_campaign(
        &scenarios,
        &policies(),
        &emu(),
        4,
        &CampaignOptions { resume: true, stop_after_runs: None, ..opts.clone() },
    )
    .unwrap();
    let recovery = resumed.recovery.expect("resume must report how the checkpoint was opened");
    assert!(recovery.recovered(), "corrupt newest generation must trigger fallback");
    // One rejected generation, then the one before the newest opened.
    let described = recovery.describe();
    let (newest, prev) = (gens[gens.len() - 1], gens[gens.len() - 2]);
    let head = format!("opened generation {prev} after rejecting gen {newest} (");
    assert!(described.starts_with(&head) && !described.contains("), gen "), "{described}");
    // The rejected generation held run 5, so the fallback re-runs it.
    assert_eq!(resumed.resumed_runs, 4);
    assert_eq!(resumed.completed_runs, 12);
    assert!(resumed.errors.is_empty());
    assert_outcomes_identical(&resumed.outcomes, &reference);
    store.clear().unwrap();
}

#[test]
fn repeated_kill_resume_cycles_converge_to_the_reference() {
    // Crash-loop discipline: kill after every 3 runs until done; the
    // final aggregate must still be bit-identical.
    let scenarios = population(5);
    let policies = &policies()[..1];
    let path = tmp("crashloop");
    clear(&path);
    let reference = population_study(&scenarios, policies, &emu(), 1);

    let mut resume = false;
    let final_report = loop {
        let report = population_campaign(
            &scenarios,
            policies,
            &emu(),
            1,
            &CampaignOptions {
                checkpoint_path: Some(path.clone()),
                checkpoint_every_runs: 1,
                resume,
                stop_after_runs: Some(3),
                ..Default::default()
            },
        )
        .unwrap();
        resume = true;
        if report.completed_runs == report.total_runs {
            break report;
        }
    };
    assert_outcomes_identical(&final_report.outcomes, &reference);
    clear(&path);
}

#[test]
fn poison_run_in_campaign_is_quarantined_and_checkpoint_stays_resumable() {
    // 100 runs; scenario 42 is poisoned (a zero-app project, which
    // validation would reject — modelling a corrupt input) and panics
    // inside the emulator.
    let mut scenarios = population(100);
    scenarios[42] = Arc::new(
        bce_core::ScenarioBuilder::new("poisoned", Hardware::cpu_only(1, 1e9))
            .project(ProjectSpec::new(0, "p", 100.0))
            .build_unchecked(),
    );
    let policies = &policies()[..1];
    let path = tmp("poison");
    clear(&path);
    let opts = CampaignOptions {
        checkpoint_path: Some(path.clone()),
        checkpoint_every_runs: 10,
        resume: false,
        stop_after_runs: None,
        ..Default::default()
    };

    let report = population_campaign(&scenarios, policies, &emu(), 4, &opts).unwrap();
    assert_eq!(report.total_runs, 100);
    assert_eq!(report.errors.len(), 1, "exactly one quarantined run");
    assert_eq!(report.errors[0].index, 42);
    assert!(report.errors[0].label.contains("poisoned"));
    assert!(!report.errors[0].message.is_empty());
    // The other 99 runs all completed and were aggregated.
    assert_eq!(report.outcomes[0].scenarios_run, 99);
    assert_eq!(report.outcomes[0].metric(Metric::Idle).stats.count(), 99);

    // The checkpoint left behind is complete, parseable and resumable —
    // and the resume reproduces the outcomes AND the recorded error
    // without re-running anything.
    let ckpt = CampaignCheckpoint::read_from(&path).unwrap();
    assert!(ckpt.completed >= ckpt.total);
    let resumed = population_campaign(
        &scenarios,
        policies,
        &emu(),
        2,
        &CampaignOptions { resume: true, ..opts },
    )
    .unwrap();
    assert_eq!(resumed.errors.len(), 1);
    assert_eq!(resumed.errors[0].index, 42);
    assert_outcomes_identical(&resumed.outcomes, &report.outcomes);
    clear(&path);
}

#[test]
fn campaign_checkpoint_xml_round_trips() {
    let scenarios = population(5);
    let path = tmp("roundtrip");
    clear(&path);
    let opts = CampaignOptions {
        checkpoint_path: Some(path.clone()),
        checkpoint_every_runs: 0,
        resume: false,
        stop_after_runs: Some(4),
        ..Default::default()
    };
    let _ = population_campaign(&scenarios, &policies(), &emu(), 1, &opts).unwrap();
    let ckpt = CampaignCheckpoint::read_from(&path).unwrap();
    assert_eq!(ckpt.completed, 4);
    let again = CampaignCheckpoint::from_xml_str(&ckpt.to_xml_string()).unwrap();
    assert_eq!(again.completed, ckpt.completed);
    assert_eq!(again.total, ckpt.total);
    assert_eq!(again.to_xml_string(), ckpt.to_xml_string(), "stable serialization");
    clear(&path);
}

#[test]
fn mismatched_checkpoint_is_rejected_not_silently_restarted() {
    let scenarios = population(4);
    let path = tmp("mismatch");
    clear(&path);
    let opts = CampaignOptions {
        checkpoint_path: Some(path.clone()),
        checkpoint_every_runs: 0,
        resume: false,
        stop_after_runs: None,
        ..Default::default()
    };
    let _ = population_campaign(&scenarios, &policies(), &emu(), 1, &opts).unwrap();

    // Different population → different fingerprint → Mismatch.
    let others = population(3);
    let err = population_campaign(
        &others,
        &policies(),
        &emu(),
        1,
        &CampaignOptions { resume: true, ..opts.clone() },
    )
    .unwrap_err();
    assert!(matches!(err, CampaignError::Mismatch(_)), "{err}");

    // Different emulation horizon → Mismatch too.
    let longer = EmulatorConfig { duration: SimDuration::from_hours(3.0), ..Default::default() };
    let err = population_campaign(
        &scenarios,
        &policies(),
        &longer,
        1,
        &CampaignOptions { resume: true, ..opts.clone() },
    )
    .unwrap_err();
    assert!(matches!(err, CampaignError::Mismatch(_)), "{err}");

    // Inputs edited under unchanged names and seeds → Mismatch: a
    // scenario's content, a policy's tuning, the fault overlay.
    let mut edited = Scenario::clone(&scenarios[1]);
    edited.projects[0].resource_share *= 9.0;
    let mut edited_scenarios = scenarios.clone();
    edited_scenarios[1] = Arc::new(edited);
    let mut retuned = policies();
    retuned[0].1.rec_half_life = SimDuration::from_days(1.0);
    let faulty =
        EmulatorConfig { faults: FaultConfig { rpc_fail_prob: 0.1, ..FaultConfig::OFF }, ..emu() };
    let (same_policies, same_emu) = (policies(), emu());
    for (scenarios, policies, emu) in [
        (&edited_scenarios, &same_policies, &same_emu),
        (&scenarios, &retuned, &same_emu),
        (&scenarios, &same_policies, &faulty),
    ] {
        let err = population_campaign(
            scenarios,
            policies,
            emu,
            1,
            &CampaignOptions { resume: true, ..opts.clone() },
        )
        .unwrap_err();
        assert!(
            matches!(&err, CampaignError::Mismatch(what) if what.contains("fingerprint")),
            "{err}"
        );
    }

    // Fewer policies → shape mismatch even before any label check.
    let err = population_campaign(
        &scenarios,
        &policies()[..1],
        &emu(),
        1,
        &CampaignOptions { resume: true, ..opts.clone() },
    )
    .unwrap_err();
    assert!(matches!(err, CampaignError::Mismatch(_)), "{err}");

    // Resume without a path is an error, not a silent fresh start.
    let err = population_campaign(
        &scenarios,
        &policies(),
        &emu(),
        1,
        &CampaignOptions {
            checkpoint_path: None,
            checkpoint_every_runs: 0,
            resume: true,
            stop_after_runs: None,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, CampaignError::Mismatch(_)), "{err}");
    clear(&path);
}

#[test]
fn sampled_manifest_fingerprint_matches_population_reference() {
    // The acceptance cross-check: a manifest over the standard sampled
    // population must fingerprint to the same table as the independent
    // population study over the same sampler draws and standard_policies.
    let src = r#"{"format": "bce-campaign", "version": 1, "name": "t", "days": 0.05,
        "scenarios": [{"sampled": {"hosts": 3, "seed": 1}}], "policies": "standard"}"#;
    let m = CampaignManifest::parse(src, Path::new(".")).unwrap();
    let out = run_manifest(&m, 0, &CampaignOptions::default(), None).unwrap();

    let scenarios: Vec<Arc<Scenario>> = PopulationSampler::new(PopulationModel::default(), 1)
        .sample_many(3)
        .into_iter()
        .map(Arc::new)
        .collect();
    let emulator = EmulatorConfig { duration: SimDuration::from_days(0.05), ..Default::default() };
    let reference =
        population_table(&population_study(&scenarios, &standard_policies(), &emulator, 0))
            .render();
    assert_eq!(out.table, reference);
    assert_eq!(out.table_fingerprint, fnv64(reference.as_bytes()));
    let summary = summary_json(&m, 3, &out.report, out.table_fingerprint);
    assert!(summary.contains(&format!("{:016x}", out.table_fingerprint)));
    assert!(summary.contains("\"total_runs\": 6"));

    // The typed constructor is the same campaign as the document.
    let built = CampaignManifest::sampled_population(3, 1, 0.05);
    let built = run_manifest(&built, 0, &CampaignOptions::default(), None).unwrap();
    assert_eq!(built.table, out.table);
}

#[test]
fn corrupt_campaign_checkpoint_errors_cleanly() {
    for garbage in [
        "",
        "not xml at all",
        "<bce_campaign version=\"1\"></bce_campaign>",
        "<wrong_root version=\"1\"/>",
        "<bce_campaign version=\"99\"/>",
    ] {
        assert!(CampaignCheckpoint::from_xml_str(garbage).is_err(), "{garbage:?}");
    }

    let scenarios = population(3);
    let policies = &policies()[..1];
    let path = tmp("corrupt");
    clear(&path);
    let opts = CampaignOptions {
        checkpoint_path: Some(path.clone()),
        checkpoint_every_runs: 0,
        resume: false,
        stop_after_runs: None,
        ..Default::default()
    };
    let _ = population_campaign(&scenarios, policies, &emu(), 1, &opts).unwrap();
    // The on-disk generation is framed binary; exercise the parser on
    // the serialized XML it round-trips to.
    let good = CampaignCheckpoint::read_from(&path).unwrap().to_xml_string();

    // Truncation at every prefix must error (or, for a prefix that is
    // itself well-formed, parse) — never panic.
    for cut in 0..good.len() {
        let _ = CampaignCheckpoint::from_xml_str(&good[..cut]);
    }

    // Rewind the completed count without touching the bitmap: the
    // prefix-consistency check must reject the document.
    let tampered = good.replacen("completed=\"3\"", "completed=\"2\"", 1);
    assert_ne!(tampered, good, "fixture assumes completed=\"3\" appears");
    assert!(matches!(CampaignCheckpoint::from_xml_str(&tampered), Err(CampaignError::Mismatch(_))));

    // Drop one value from the first metric's sample: the metrics of a
    // policy must agree on how many runs succeeded.
    let at = good.find("<metric>").expect("a metric sample") + "<metric>".len();
    let first_value_len = good[at..].find(' ').expect("three values") + 1;
    let short = format!("{}{}", &good[..at], &good[at + first_value_len..]);
    assert!(matches!(
        CampaignCheckpoint::from_xml_str(&short),
        Err(CampaignError::Mismatch(m)) if m.contains("different lengths")
    ));
    clear(&path);
}

#[test]
fn v1_campaign_checkpoint_is_refused_as_predating() {
    let scenarios = population(2);
    let policies = &policies()[..1];
    let path = tmp("v1");
    let opts = CampaignOptions { checkpoint_path: Some(path.clone()), ..Default::default() };
    let _ = population_campaign(&scenarios, policies, &emu(), 1, &opts).unwrap();
    let v2 = CampaignCheckpoint::read_from(&path).unwrap().to_xml_string();
    assert!(v2.contains("<bce_campaign version=\"2\""), "format version changed; update this test");
    // v2 metrics hold the sample only; v1 also carried Welford parts.
    assert!(!v2.contains(" m2="), "{v2}");
    let v1 = v2.replacen("version=\"2\"", "version=\"1\"", 1);
    let err = CampaignCheckpoint::from_xml_str(&v1).unwrap_err();
    assert!(err.to_string().contains("predates"), "{err}");
    // A store holding only v1 generations is intact but unusable: a
    // mismatch that says what to do, not a corruption report.
    let store = bce_statefile::CheckpointStore::with_real_io(&path, 3);
    store.clear().unwrap();
    store.write(v1.as_bytes()).unwrap();
    store.write(v1.as_bytes()).unwrap();
    match CampaignCheckpoint::read_from(&path) {
        Err(CampaignError::Mismatch(m)) => {
            assert!(m.contains("gen 2: ") && m.contains("gen 1: "), "{m}");
            assert!(m.contains("v1 campaign checkpoint predates"), "{m}");
            assert!(m.contains("rerun without --resume"), "{m}");
        }
        other => panic!("expected a format mismatch, got {other:?}"),
    }
    store.clear().unwrap();
}
