//! Integration tests for the unified scenario-loading surface: the
//! `scenario` and `campaign` subcommands, the one `--scenario` flag every
//! command shares, and the single error path behind them.

use bce_cli::dispatch;

fn run(args: &[&str]) -> Result<String, String> {
    dispatch(args.iter().map(|s| s.to_string())).map_err(|e| e.to_string())
}

fn repo_file(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn scenario_list_names_builtins_and_files() {
    let out = run(&["scenario", "list"]).unwrap();
    for name in ["builtin:scenario1", "builtin:scenario4"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn scenario_print_is_canonical_and_revalidates() {
    let printed = run(&["scenario", "print", "builtin:scenario2"]).unwrap();
    let spec = bce_scenarios::ScenarioSpec::parse(&printed).expect("print output parses");
    assert_eq!(spec.to_canonical_json(), printed, "print output must be canonical");
    spec.build().expect("print output validates");
}

#[test]
fn scenario_validate_accepts_goldens_and_reports_overlay() {
    let ok = run(&["scenario", "validate", &repo_file("scenarios/scenario3.json")]).unwrap();
    assert!(ok.contains("OK"), "{ok}");
    let faulty =
        run(&["scenario", "validate", &repo_file("scenarios/unreliable_hosts.json")]).unwrap();
    assert!(faulty.contains("fault overlay"), "{faulty}");
}

#[test]
fn scenario_unknown_action_is_an_error() {
    let err = run(&["scenario", "frobnicate"]).unwrap_err();
    assert!(err.contains("frobnicate"), "{err}");
}

#[test]
fn run_from_spec_file_matches_builtin_byte_for_byte() {
    let from_builtin = run(&["run", "builtin:scenario1", "--days", "0.2"]).unwrap();
    let from_file = run(&["run", &repo_file("scenarios/scenario1.json"), "--days", "0.2"]).unwrap();
    assert_eq!(from_builtin, from_file);
}

#[test]
fn one_error_path_for_every_bad_reference() {
    // No reference at all.
    let err = run(&["run"]).unwrap_err();
    assert!(err.contains("expected a scenario reference"), "{err}");
    // Unknown builtin.
    let err = run(&["run", "builtin:scenario9"]).unwrap_err();
    assert!(err.contains("scenario9"), "{err}");
    // Positional and flag at once.
    let err = run(&["run", "scenario1", "--scenario", "scenario2"]).unwrap_err();
    assert!(err.contains("scenario given twice"), "{err}");
    // Missing file.
    let err = run(&["compare", "no/such/file.json"]).unwrap_err();
    assert!(err.contains("no/such/file.json"), "{err}");
}

#[test]
fn fault_overlay_is_rejected_where_it_cannot_apply() {
    let path = repo_file("scenarios/unreliable_hosts.json");
    let err = run(&["fig", "3", "--quick", "--scenario", &path]).unwrap_err();
    assert!(err.contains("fault overlay"), "{err}");
    let err = run(&["export", &path]).unwrap_err();
    assert!(err.contains("fault overlay"), "{err}");
}

#[test]
fn computed_figures_reject_scenario_overrides() {
    let err = run(&["fig", "1", "--quick", "--scenario", "builtin:scenario2"]).unwrap_err();
    assert!(err.contains("figures 3-6"), "{err}");
}

#[test]
fn population_scenario_flag_conflicts_with_hosts() {
    let err = run(&["population", "--scenario", "scenario1", "--hosts", "4"]).unwrap_err();
    assert!(err.contains("conflict"), "{err}");
}

#[test]
fn campaign_runs_a_manifest_and_writes_summary() {
    let dir = std::env::temp_dir().join(format!("bce-cli-campaign-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("tiny.json");
    std::fs::write(
        &manifest,
        r#"{
  "format": "bce-campaign",
  "version": 1,
  "name": "tiny",
  "days": 0.05,
  "scenarios": ["builtin:scenario2"],
  "policies": [{"label": "GLOBAL+HYST", "sched": "global", "fetch": "hysteresis"}],
  "seeds": [1, 2]
}"#,
    )
    .unwrap();
    let out_dir = dir.join("out");
    let out = run(&[
        "campaign",
        manifest.to_str().unwrap(),
        "--threads",
        "2",
        "--out",
        out_dir.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("2/2 runs"), "{out}");
    assert!(out.contains("table fingerprint:"), "{out}");
    let summary = std::fs::read_to_string(out_dir.join("summary.json")).unwrap();
    assert!(summary.contains("\"bce-campaign-summary\""), "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_rejects_a_bad_manifest() {
    let dir = std::env::temp_dir().join(format!("bce-cli-campaign-bad-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("bad.json");
    std::fs::write(
        &manifest,
        r#"{"format": "bce-campaign", "version": 1, "name": "bad", "days": 1, "scenarios": [], "policies": "standard", "typo": 1}"#,
    )
    .unwrap();
    let err = run(&["campaign", manifest.to_str().unwrap()]).unwrap_err();
    assert!(err.contains("typo") || err.contains("unknown"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
