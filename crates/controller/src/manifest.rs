//! Campaign manifests: scenario refs × policies × seed ranges, executed
//! through the resumable [`population_campaign`] runner.
//!
//! A manifest is the one way a campaign is assembled and run. `bce
//! campaign` parses it from a JSON file; `bce population`, `bce chaos`
//! and the daemon's `/campaign` endpoint build one in memory with
//! [`CampaignManifest::sampled_population`] or
//! [`CampaignManifest::single_scenario`], and every front end then calls
//! [`run_manifest`] with its own [`CampaignOptions`].
//!
//! Scenario refs use the same [`ScenarioSource`] syntax as every CLI
//! `--scenario` flag (`builtin:<name>` or a path, resolved relative to
//! the manifest), plus a `{"sampled": ...}` form that draws hosts from a
//! named [`PopulationModel`]. Running a manifest can emit `summary.json`
//! into a run directory: the aggregated figures of merit, the quarantine
//! report, and a `table_fingerprint` (FNV-1a of the rendered population
//! table).

use crate::campaign::{population_campaign, CampaignError, CampaignOptions, CampaignReport};
use crate::montecarlo::{population_table, standard_policies};
use bce_client::{ClientConfig, FetchPolicy, JobSchedPolicy};
use bce_core::{EmulatorConfig, FaultConfig, Scenario, ScenarioBuilder};
use bce_scenarios::{
    LoadedScenario, PopulationModel, PopulationSampler, ScenarioSource, SourceError,
};
use bce_sim::fnv64;
use bce_statefile::{parse_json, Echo, JsonError, JsonValue};
use bce_types::SimDuration;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Manifest document `format` tag.
pub(crate) const MANIFEST_FORMAT: &str = "bce-campaign";
/// Highest manifest `version` this build understands.
pub(crate) const MANIFEST_VERSION: u32 = 1;

/// Error parsing or expanding a campaign manifest.
#[derive(Debug)]
pub enum ManifestError {
    Json(JsonError),
    /// A structural problem, located by a dotted path into the document.
    Invalid {
        path: String,
        message: String,
    },
    /// A scenario ref failed to load.
    Source(SourceError),
    /// Two scenario refs carry conflicting fault overlays. A campaign
    /// runs every scenario under one `EmulatorConfig`, so overlays must
    /// agree.
    FaultConflict,
    /// Running the expanded campaign failed.
    Campaign(CampaignError),
    Io(std::io::Error),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Json(e) => write!(f, "manifest: {e}"),
            ManifestError::Invalid { path, message } => write!(f, "manifest {path}: {message}"),
            ManifestError::Source(e) => write!(f, "manifest scenario: {e}"),
            ManifestError::FaultConflict => write!(
                f,
                "manifest scenarios carry conflicting fault overlays; a campaign needs one"
            ),
            ManifestError::Campaign(e) => write!(f, "{e}"),
            ManifestError::Io(e) => write!(f, "manifest i/o: {e}"),
        }
    }
}
impl std::error::Error for ManifestError {}
impl From<JsonError> for ManifestError {
    fn from(e: JsonError) -> Self {
        ManifestError::Json(e)
    }
}
impl From<SourceError> for ManifestError {
    fn from(e: SourceError) -> Self {
        ManifestError::Source(e)
    }
}
impl From<CampaignError> for ManifestError {
    fn from(e: CampaignError) -> Self {
        ManifestError::Campaign(e)
    }
}
impl From<std::io::Error> for ManifestError {
    fn from(e: std::io::Error) -> Self {
        ManifestError::Io(e)
    }
}

/// One scenario reference in a manifest.
#[derive(Debug, Clone)]
enum ScenarioRef {
    /// `"builtin:scenario3"` or a path (relative to the manifest).
    Source(String),
    /// `{"sampled": {"model": ..., "hosts": N, "seed": S}}`.
    Sampled { model: String, hosts: usize, seed: u64 },
    /// A scenario a front end already resolved (in-memory manifests
    /// only; see [`CampaignManifest::single_scenario`]).
    Loaded { scenario: Arc<Scenario>, faults: Option<FaultConfig> },
}

/// A parsed campaign manifest.
#[derive(Debug, Clone)]
pub struct CampaignManifest {
    pub name: String,
    /// Emulated days per run.
    pub days: f64,
    /// Policy label/config pairs, in document order.
    pub policies: Vec<(String, ClientConfig)>,
    /// Seed overrides: each scenario ref is instantiated once per seed.
    /// Empty = one instance per ref with its own seed.
    pub(crate) seeds: Vec<u64>,
    refs: Vec<ScenarioRef>,
    /// Directory scenario paths resolve against.
    base_dir: PathBuf,
}

fn invalid(path: &str, message: impl Into<String>) -> ManifestError {
    ManifestError::Invalid { path: path.to_string(), message: message.into() }
}

fn as_obj<'a>(v: &'a JsonValue, path: &str) -> Result<&'a [(String, JsonValue)], ManifestError> {
    v.as_obj().ok_or_else(|| invalid(path, format!("expected object, found {}", v.type_name())))
}

fn get_req<'a>(
    entries: &'a [(String, JsonValue)],
    path: &str,
    key: &str,
) -> Result<&'a JsonValue, ManifestError> {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| invalid(path, format!("missing required key {key:?}")))
}

fn get_opt<'a>(entries: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn reject_unknown(
    entries: &[(String, JsonValue)],
    path: &str,
    known: &[&str],
) -> Result<(), ManifestError> {
    for (k, _) in entries {
        if !known.contains(&k.as_str()) {
            return Err(invalid(path, format!("unknown key {}", Echo(k))));
        }
    }
    Ok(())
}

fn req_str<'a>(
    entries: &'a [(String, JsonValue)],
    path: &str,
    key: &str,
) -> Result<&'a str, ManifestError> {
    let v = get_req(entries, path, key)?;
    v.as_str().ok_or_else(|| {
        invalid(&format!("{path}.{key}"), format!("expected string, found {}", v.type_name()))
    })
}

fn as_f64(v: &JsonValue, path: &str) -> Result<f64, ManifestError> {
    v.as_f64().ok_or_else(|| invalid(path, format!("expected number, found {}", v.type_name())))
}

fn as_u64(v: &JsonValue, path: &str) -> Result<u64, ManifestError> {
    let n = as_f64(v, path)?;
    if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
        return Err(invalid(path, format!("expected non-negative integer, got {n}")));
    }
    Ok(n as u64)
}

fn parse_policy(v: &JsonValue, path: &str) -> Result<(String, ClientConfig), ManifestError> {
    let entries = as_obj(v, path)?;
    reject_unknown(entries, path, &["label", "sched", "fetch", "half_life_secs"])?;
    let label = req_str(entries, path, "label")?.to_string();
    let mut cfg = ClientConfig::default();
    if let Some(s) = get_opt(entries, "sched") {
        let p = format!("{path}.sched");
        let name = s.as_str().ok_or_else(|| invalid(&p, "expected string"))?;
        cfg.sched_policy = JobSchedPolicy::from_flag(name)
            .ok_or_else(|| invalid(&p, format!("unknown scheduling policy {}", Echo(name))))?;
    }
    if let Some(fv) = get_opt(entries, "fetch") {
        let p = format!("{path}.fetch");
        let name = fv.as_str().ok_or_else(|| invalid(&p, "expected string"))?;
        cfg.fetch_policy = FetchPolicy::from_flag(name)
            .ok_or_else(|| invalid(&p, format!("unknown fetch policy {}", Echo(name))))?;
    }
    if let Some(hl) = get_opt(entries, "half_life_secs") {
        let p = format!("{path}.half_life_secs");
        let secs = as_f64(hl, &p)?;
        if !secs.is_finite() || secs <= 0.0 {
            return Err(invalid(&p, "must be positive"));
        }
        cfg.rec_half_life = SimDuration::from_secs(secs);
    }
    Ok((label, cfg))
}

fn parse_ref(v: &JsonValue, path: &str) -> Result<ScenarioRef, ManifestError> {
    if let Some(s) = v.as_str() {
        return Ok(ScenarioRef::Source(s.to_string()));
    }
    let entries = as_obj(v, path)?;
    reject_unknown(entries, path, &["sampled"])?;
    let sampled = get_req(entries, path, "sampled")?;
    let spath = format!("{path}.sampled");
    let entries = as_obj(sampled, &spath)?;
    reject_unknown(entries, &spath, &["model", "hosts", "seed"])?;
    let model = match get_opt(entries, "model") {
        Some(m) => m
            .as_str()
            .ok_or_else(|| invalid(&format!("{spath}.model"), "expected string"))?
            .to_string(),
        None => "default".to_string(),
    };
    if PopulationModel::named(&model).is_none() {
        return Err(invalid(&format!("{spath}.model"), format!("unknown model {}", Echo(&model))));
    }
    let hosts = as_u64(get_req(entries, &spath, "hosts")?, &format!("{spath}.hosts"))? as usize;
    if hosts == 0 {
        return Err(invalid(&format!("{spath}.hosts"), "must be at least 1"));
    }
    let seed = match get_opt(entries, "seed") {
        Some(s) => as_u64(s, &format!("{spath}.seed"))?,
        None => 1,
    };
    Ok(ScenarioRef::Sampled { model, hosts, seed })
}

impl CampaignManifest {
    /// The standard sampled population: `hosts` hosts drawn from the
    /// default model with `seed`, under `standard_policies` — the same
    /// campaign as a parsed manifest with `"scenarios": [{"sampled":
    /// {"model": "default", "hosts": hosts, "seed": seed}}]` and
    /// `"policies": "standard"`.
    pub fn sampled_population(hosts: usize, seed: u64, days: f64) -> Self {
        CampaignManifest {
            name: "population".to_string(),
            days,
            policies: standard_policies(),
            seeds: Vec::new(),
            refs: vec![ScenarioRef::Sampled { model: "default".to_string(), hosts, seed }],
            base_dir: PathBuf::from("."),
        }
    }

    /// One already-resolved scenario (its fault overlay included) under
    /// `standard_policies`.
    pub fn single_scenario(loaded: LoadedScenario, days: f64) -> Self {
        CampaignManifest {
            name: loaded.scenario.name.clone(),
            days,
            policies: standard_policies(),
            seeds: Vec::new(),
            refs: vec![ScenarioRef::Loaded {
                scenario: Arc::new(loaded.scenario),
                faults: loaded.faults,
            }],
            base_dir: PathBuf::from("."),
        }
    }

    /// Parse a manifest document. `base_dir` is the directory scenario
    /// paths resolve against (normally the manifest file's parent).
    pub fn parse(src: &str, base_dir: &Path) -> Result<Self, ManifestError> {
        let doc = parse_json(src)?;
        let entries = as_obj(&doc, "manifest")?;
        reject_unknown(
            entries,
            "manifest",
            &["format", "version", "name", "days", "scenarios", "policies", "seeds"],
        )?;
        let format = req_str(entries, "manifest", "format")?;
        if format != MANIFEST_FORMAT {
            return Err(invalid(
                "manifest.format",
                format!("expected {MANIFEST_FORMAT:?}, found {}", Echo(format)),
            ));
        }
        let version = as_u64(get_req(entries, "manifest", "version")?, "manifest.version")?;
        if version == 0 || version > MANIFEST_VERSION as u64 {
            return Err(invalid(
                "manifest.version",
                format!("unsupported version {version} (this build reads <= {MANIFEST_VERSION})"),
            ));
        }
        let name = req_str(entries, "manifest", "name")?.to_string();
        let days = as_f64(get_req(entries, "manifest", "days")?, "manifest.days")?;
        if !(days > 0.0 && days.is_finite()) {
            return Err(invalid("manifest.days", "must be a positive finite number"));
        }

        let sv = get_req(entries, "manifest", "scenarios")?;
        let refs: Vec<ScenarioRef> = sv
            .as_arr()
            .ok_or_else(|| invalid("manifest.scenarios", "expected array"))?
            .iter()
            .enumerate()
            .map(|(i, v)| parse_ref(v, &format!("manifest.scenarios[{i}]")))
            .collect::<Result<_, _>>()?;
        if refs.is_empty() {
            return Err(invalid("manifest.scenarios", "must not be empty"));
        }

        let policies = match get_req(entries, "manifest", "policies")? {
            JsonValue::Str(s) if s == "standard" => standard_policies(),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    return Err(invalid("manifest.policies", "must not be empty"));
                }
                items
                    .iter()
                    .enumerate()
                    .map(|(i, v)| parse_policy(v, &format!("manifest.policies[{i}]")))
                    .collect::<Result<_, _>>()?
            }
            other => {
                return Err(invalid(
                    "manifest.policies",
                    format!("expected \"standard\" or an array, found {}", other.type_name()),
                ))
            }
        };

        let seeds = match get_opt(entries, "seeds") {
            None => Vec::new(),
            Some(JsonValue::Arr(items)) => items
                .iter()
                .enumerate()
                .map(|(i, v)| as_u64(v, &format!("manifest.seeds[{i}]")))
                .collect::<Result<_, _>>()?,
            Some(other) => {
                let entries = as_obj(other, "manifest.seeds")?;
                reject_unknown(entries, "manifest.seeds", &["start", "count"])?;
                let start =
                    as_u64(get_req(entries, "manifest.seeds", "start")?, "manifest.seeds.start")?;
                let count =
                    as_u64(get_req(entries, "manifest.seeds", "count")?, "manifest.seeds.count")?;
                if count == 0 || count > 100_000 {
                    return Err(invalid("manifest.seeds.count", "must be in 1..=100000"));
                }
                (0..count).map(|i| start.wrapping_add(i)).collect()
            }
        };

        Ok(CampaignManifest { name, days, policies, seeds, refs, base_dir: base_dir.to_path_buf() })
    }

    /// Read and parse a manifest file; paths resolve against its parent
    /// directory.
    pub fn read_from(path: &Path) -> Result<Self, ManifestError> {
        let src = std::fs::read_to_string(path)?;
        let base = path.parent().unwrap_or_else(|| Path::new("."));
        Self::parse(&src, base)
    }

    /// Expand scenario refs × seeds into the concrete scenario list, plus
    /// the single fault overlay the campaign runs under (refs with
    /// conflicting overlays are an error).
    pub fn expand_scenarios(&self) -> Result<(Vec<Arc<Scenario>>, FaultConfig), ManifestError> {
        let mut scenarios = Vec::new();
        let mut faults: Option<FaultConfig> = None;
        for r in &self.refs {
            let (scenario, overlay) = match r {
                ScenarioRef::Source(raw) => {
                    let source = match ScenarioSource::parse(raw) {
                        ScenarioSource::File(p) if p.is_relative() => {
                            ScenarioSource::File(self.base_dir.join(p))
                        }
                        other => other,
                    };
                    let loaded = source.load()?;
                    (Arc::new(loaded.scenario), loaded.faults)
                }
                ScenarioRef::Loaded { scenario, faults } => (scenario.clone(), *faults),
                ScenarioRef::Sampled { model, hosts, seed } => {
                    let m = PopulationModel::named(model).expect("validated at parse");
                    let seeds: &[u64] = if self.seeds.is_empty() { &[*seed] } else { &self.seeds };
                    for &s in seeds {
                        let mut sampler = PopulationSampler::new(m.clone(), s);
                        scenarios.extend(sampler.sample_many(*hosts).into_iter().map(Arc::new));
                    }
                    continue;
                }
            };
            if let Some(f) = overlay {
                match faults {
                    Some(prev) if prev != f => return Err(ManifestError::FaultConflict),
                    _ => faults = Some(f),
                }
            }
            if self.seeds.is_empty() {
                scenarios.push(scenario);
            } else {
                for &seed in &self.seeds {
                    let name = format!("{}@s{seed}", scenario.name);
                    let s = ScenarioBuilder::from(Scenario::clone(&scenario))
                        .seed(seed)
                        .build_unchecked();
                    scenarios.push(Arc::new(Scenario { name, ..s }));
                }
            }
        }
        Ok((scenarios, faults.unwrap_or(FaultConfig::OFF)))
    }

    /// The emulator configuration every run of this campaign shares:
    /// the manifest's horizon under the expanded fault overlay.
    pub(crate) fn emulator(&self, faults: FaultConfig) -> EmulatorConfig {
        EmulatorConfig { duration: SimDuration::from_days(self.days), faults, ..Default::default() }
    }
}

/// What [`run_manifest`] produced: the campaign report plus the rendered
/// table and its fingerprint (the `bce population` cross-check).
#[derive(Debug, Clone)]
pub struct ManifestOutcome {
    pub report: CampaignReport,
    /// `population_table` over the outcomes, rendered.
    pub table: String,
    /// FNV-1a of `table`.
    pub table_fingerprint: u64,
}

/// Execute a manifest through `population_campaign` and assemble the
/// summary document. If `out_dir` is given, writes `summary.json` there
/// (creating the directory) and defaults the campaign checkpoint into it
/// when `opts` names none.
pub fn run_manifest(
    manifest: &CampaignManifest,
    threads: usize,
    opts: &CampaignOptions,
    out_dir: Option<&Path>,
) -> Result<ManifestOutcome, ManifestError> {
    let (scenarios, faults) = manifest.expand_scenarios()?;
    let emulator = manifest.emulator(faults);

    let mut opts = opts.clone();
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)?;
        if opts.checkpoint_path.is_none() {
            opts.checkpoint_path = Some(dir.join("campaign.ckpt"));
        }
    }

    let report = population_campaign(&scenarios, &manifest.policies, &emulator, threads, &opts)?;
    let table = population_table(&report.outcomes).render();
    let table_fingerprint = fnv64(table.as_bytes());
    if let Some(dir) = out_dir {
        let summary = summary_json(manifest, scenarios.len(), &report, table_fingerprint);
        std::fs::write(dir.join("summary.json"), summary)?;
        std::fs::write(dir.join("table.txt"), &table)?;
    }
    Ok(ManifestOutcome { report, table, table_fingerprint })
}

/// Render the `summary.json` document for a completed (or budget-stopped)
/// campaign.
pub(crate) fn summary_json(
    manifest: &CampaignManifest,
    nscenarios: usize,
    report: &CampaignReport,
    table_fingerprint: u64,
) -> String {
    let outcomes = report
        .outcomes
        .iter()
        .map(|o| {
            let metrics = o
                .per_metric
                .iter()
                .map(|ms| {
                    // A policy with no completed run (a budget-stopped
                    // campaign) has non-finite moments: null in JSON.
                    let num =
                        |x: f64| if x.is_finite() { JsonValue::Num(x) } else { JsonValue::Null };
                    JsonValue::Obj(vec![
                        ("metric".into(), JsonValue::Str(ms.metric.name().to_string())),
                        ("mean".into(), num(ms.stats.mean())),
                        ("sd".into(), num(ms.stats.std_dev())),
                        ("min".into(), num(ms.stats.min())),
                        ("max".into(), num(ms.stats.max())),
                        ("p95".into(), num(ms.p95)),
                    ])
                })
                .collect();
            JsonValue::Obj(vec![
                ("label".into(), JsonValue::Str(o.label.clone())),
                ("scenarios_run".into(), JsonValue::Num(o.scenarios_run as f64)),
                ("metrics".into(), JsonValue::Arr(metrics)),
            ])
        })
        .collect();
    let quarantined = report
        .errors
        .iter()
        .map(|e| {
            JsonValue::Obj(vec![
                ("index".into(), JsonValue::Num(e.index as f64)),
                ("label".into(), JsonValue::Str(e.label.clone())),
                ("message".into(), JsonValue::Str(e.message.clone())),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("format".into(), JsonValue::Str("bce-campaign-summary".into())),
        ("version".into(), JsonValue::Num(1.0)),
        ("name".into(), JsonValue::Str(manifest.name.clone())),
        ("days".into(), JsonValue::Num(manifest.days)),
        ("scenarios".into(), JsonValue::Num(nscenarios as f64)),
        ("total_runs".into(), JsonValue::Num(report.total_runs as f64)),
        ("completed_runs".into(), JsonValue::Num(report.completed_runs as f64)),
        ("resumed_runs".into(), JsonValue::Num(report.resumed_runs as f64)),
        ("quarantined".into(), JsonValue::Arr(quarantined)),
        ("outcomes".into(), JsonValue::Arr(outcomes)),
        ("table_fingerprint".into(), JsonValue::Str(format!("{table_fingerprint:016x}"))),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignCheckpoint;

    fn minimal(scenarios: &str, extra: &str) -> String {
        format!(
            "{{\n  \"format\": \"bce-campaign\",\n  \"version\": 1,\n  \"name\": \"t\",\n  \
             \"days\": 0.05,\n  \"scenarios\": {scenarios},\n  \"policies\": \"standard\"{extra}\n}}"
        )
    }

    #[test]
    fn parses_the_full_grammar() {
        let src = r#"{
  "format": "bce-campaign",
  "version": 1,
  "name": "nightly",
  "days": 2,
  "scenarios": ["builtin:scenario2", {"sampled": {"model": "boinc2019", "hosts": 3, "seed": 9}}],
  "policies": [
    {"label": "tuned", "sched": "global-dd", "fetch": "hyst", "half_life_secs": 86400},
    {"label": "base", "sched": "local", "fetch": "orig"}
  ],
  "seeds": {"start": 5, "count": 3}
}"#;
        let m = CampaignManifest::parse(src, Path::new(".")).unwrap();
        assert_eq!(m.name, "nightly");
        assert_eq!(m.policies.len(), 2);
        assert_eq!(m.policies[0].0, "tuned");
        assert_eq!(m.seeds, vec![5, 6, 7]);
        let (scenarios, faults) = m.expand_scenarios().unwrap();
        // scenario2 × 3 seeds + sampled 3 hosts × 3 seeds.
        assert_eq!(scenarios.len(), 3 + 9);
        assert_eq!(faults, FaultConfig::OFF);
        assert_eq!(scenarios[0].name, "scenario2@s5");
        assert_eq!(scenarios[0].seed, 5);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        let bad = [
            ("{\"format\": \"bce-campaign\"}", "missing"),
            (&minimal("[\"builtin:scenario2\"]", ", \"extra\": 1"), "unknown key"),
            (&minimal("[]", ""), "must not be empty"),
            (&minimal("[\"builtin:scenario2\"]", ", \"seeds\": {\"start\": 1}"), "missing"),
            (&minimal("[{\"sampled\": {\"model\": \"nope\", \"hosts\": 2}}]", ""), "unknown model"),
        ];
        for (src, needle) in bad {
            let err = CampaignManifest::parse(src, Path::new(".")).unwrap_err().to_string();
            assert!(err.contains(needle), "{src} -> {err}");
        }
        let wrong_format = minimal("[\"builtin:scenario2\"]", "").replace("bce-campaign", "x");
        assert!(CampaignManifest::parse(&wrong_format, Path::new(".")).is_err());
    }

    #[test]
    fn relative_paths_resolve_against_the_manifest_dir() {
        let dir = std::env::temp_dir().join(format!("bce-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = bce_scenarios::ScenarioSpec::from_scenario(&bce_scenarios::scenario2());
        std::fs::write(dir.join("s2.json"), spec.to_canonical_json()).unwrap();
        let m = CampaignManifest::parse(&minimal("[\"s2.json\"]", ""), &dir).unwrap();
        let (scenarios, _) = m.expand_scenarios().unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].projects, bce_scenarios::scenario2().projects);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_scenario_manifest_carries_scenario_and_overlay() {
        let mut loaded = ScenarioSource::parse("scenario2").load().unwrap();
        loaded.scenario.seed = 7;
        let faults = FaultConfig { rpc_fail_prob: 0.1, ..FaultConfig::OFF };
        loaded.faults = Some(faults);
        let m = CampaignManifest::single_scenario(loaded, 0.05);
        assert_eq!(m.policies, standard_policies());
        let (scenarios, overlay) = m.expand_scenarios().unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!((scenarios[0].name.as_str(), scenarios[0].seed), ("scenario2", 7));
        assert_eq!(overlay, faults);
        let out = run_manifest(&m, 1, &CampaignOptions::default(), None).unwrap();
        assert_eq!(out.report.total_runs, 2);
    }

    #[test]
    fn run_manifest_writes_the_run_directory() {
        let dir = std::env::temp_dir().join(format!("bce-manifest-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = minimal("[\"builtin:scenario2\"]", ", \"seeds\": [4, 5]");
        let m = CampaignManifest::parse(&src, Path::new(".")).unwrap();
        let out = run_manifest(&m, 0, &CampaignOptions::default(), Some(&dir)).unwrap();
        assert_eq!(out.report.total_runs, 4);
        assert_eq!(out.report.completed_runs, 4);
        let summary = std::fs::read_to_string(dir.join("summary.json")).unwrap();
        let parsed = parse_json(&summary).unwrap();
        assert_eq!(parsed.get("format").and_then(|v| v.as_str()), Some("bce-campaign-summary"));
        // Rotation writes generation files, not the bare base path.
        assert!(dir.join("campaign.ckpt.1").exists());
        assert!(CampaignCheckpoint::read_from(&dir.join("campaign.ckpt")).is_ok());
        assert!(dir.join("table.txt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
