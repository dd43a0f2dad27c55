//! The golden fingerprint corpus: a checked-in regression baseline of
//! emulation and campaign fingerprints.
//!
//! `tests/golden/fingerprints.json` pins
//!
//! * the `bit_fingerprint` of each paper scenario under each of the six
//!   `bce compare` policies (`paper_policies`);
//! * the `bit_fingerprint` of every committed `scenarios/*.json` family
//!   (fault overlay applied) under the default policy;
//!
//! all over a 12-hour horizon; and
//! * the `table_fingerprint` of every committed `campaigns/*.json`
//!   manifest (at its own horizon) and of an in-memory
//!   sampled-population manifest.
//!
//! Refactors and deletions must leave the corpus byte-identical. A
//! deliberate change to decision logic rewrites it in the same change:
//! on a mismatch the test prints the full replacement document.

use boinc_policy_emu::client::ClientConfig;
use boinc_policy_emu::controller::{
    paper_policies, run_manifest, run_streaming, CampaignManifest, RunSpec,
};
use boinc_policy_emu::core::{EmulatorConfig, FaultConfig};
use boinc_policy_emu::scenarios::ScenarioSource;
use boinc_policy_emu::statefile::JsonValue;
use boinc_policy_emu::types::SimDuration;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Emulated horizon of the per-scenario fingerprints.
const HOURS: f64 = 12.0;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Sorted `*.json` file names in `dir` under the repository root.
fn json_files(dir: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root().join(dir))
        .unwrap_or_else(|e| panic!("read {dir}/: {e}"))
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    names
}

fn hex(fp: u64) -> JsonValue {
    JsonValue::Str(format!("{fp:016x}"))
}

/// Run `specs` and pair each label with its result's `bit_fingerprint`.
fn fingerprints(specs: Vec<RunSpec>) -> Vec<(String, JsonValue)> {
    let mut fps = vec![0u64; specs.len()];
    run_streaming(&specs, 0, |i, _, result| fps[i] = result.bit_fingerprint());
    specs.iter().zip(fps).map(|(s, fp)| (s.label.clone(), hex(fp))).collect()
}

fn emulator(faults: FaultConfig) -> Arc<EmulatorConfig> {
    Arc::new(EmulatorConfig {
        duration: SimDuration::from_hours(HOURS),
        faults,
        ..Default::default()
    })
}

fn paper_matrix() -> JsonValue {
    let mut specs = Vec::new();
    for n in 1..=4 {
        let name = format!("scenario{n}");
        let scenario = Arc::new(ScenarioSource::parse(&name).load().unwrap().scenario);
        for (label, client) in paper_policies() {
            specs.push(
                RunSpec::new(format!("{name}/{label}"), scenario.clone(), client)
                    .with_emulator(emulator(FaultConfig::OFF)),
            );
        }
    }
    JsonValue::Obj(fingerprints(specs))
}

fn scenario_files() -> JsonValue {
    let specs = json_files("scenarios")
        .into_iter()
        .map(|file| {
            let path = root().join("scenarios").join(&file);
            let loaded =
                ScenarioSource::File(path).load().unwrap_or_else(|e| panic!("{file}: {e}"));
            RunSpec::new(file, Arc::new(loaded.scenario), ClientConfig::default())
                .with_emulator(emulator(loaded.faults.unwrap_or(FaultConfig::OFF)))
        })
        .collect();
    JsonValue::Obj(fingerprints(specs))
}

fn table_fingerprint(manifest: CampaignManifest) -> JsonValue {
    let outcome = run_manifest(&manifest, 0, &Default::default(), None).unwrap();
    assert_eq!(outcome.report.completed_runs, outcome.report.total_runs);
    assert!(outcome.report.errors.is_empty(), "{:?}", outcome.report.errors);
    hex(outcome.table_fingerprint)
}

fn campaigns() -> JsonValue {
    let mut entries: Vec<(String, JsonValue)> = json_files("campaigns")
        .into_iter()
        .map(|file| {
            let path = root().join("campaigns").join(&file);
            let m = CampaignManifest::read_from(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
            (file, table_fingerprint(m))
        })
        .collect();
    let sampled = r#"{"format": "bce-campaign", "version": 1, "name": "sampled",
        "days": 1, "policies": "standard",
        "scenarios": [{"sampled": {"model": "default", "hosts": 6, "seed": 7}}]}"#;
    let m = CampaignManifest::parse(sampled, Path::new(".")).unwrap();
    entries.push(("sampled:default/6/seed7".into(), table_fingerprint(m)));
    JsonValue::Obj(entries)
}

#[test]
fn golden_fingerprints_are_unchanged() {
    let actual = JsonValue::Obj(vec![
        ("format".into(), JsonValue::Str("bce-golden-fingerprints".into())),
        ("version".into(), JsonValue::Num(1.0)),
        ("hours".into(), JsonValue::Num(HOURS)),
        ("paper_policies".into(), paper_matrix()),
        ("scenario_files".into(), scenario_files()),
        ("campaign_tables".into(), campaigns()),
    ])
    .render();
    let path = root().join("tests/golden/fingerprints.json");
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(
        expected == actual,
        "golden fingerprints differ from {}; if the change in decision logic is \
         deliberate, replace the file with:\n{actual}",
        path.display()
    );
}
