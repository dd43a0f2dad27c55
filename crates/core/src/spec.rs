//! The declarative scenario format: `ScenarioSpec`, a versioned JSON
//! document that lowers onto [`ScenarioBuilder`] / [`Scenario::validate`].
//!
//! Design rules (see `docs/SCENARIO_FORMAT.md`):
//!
//! - **Strict**: unknown keys, duplicate keys, wrong types, and documents
//!   nested deeper than the JSON reader's 128 levels are hard typed
//!   errors, never warnings. A file that parses means every byte of it was
//!   understood.
//! - **Deterministic**: canonical output renders finite `f64`s with Rust's
//!   shortest-round-trip formatting (bit-exact by construction) and
//!   non-finite values as `"bits:<16 hex>"` strings, so a parse → print
//!   cycle is a byte-stable golden file and a spec round-trip preserves
//!   `bit_fingerprint`s.
//! - **Same validation as code**: parsing checks structure only; semantic
//!   checks go through the one [`Scenario::validate`] path, so file-defined
//!   scenarios can express exactly what code-defined ones can — no more,
//!   no less.
//!
//! The document also carries an optional `faults` overlay (a
//! [`FaultConfig`]) so unreliable-host scenario families live in the same
//! file format; the emulator keeps faults in [`crate::EmulatorConfig`], so
//! the overlay is returned alongside the scenario rather than inside it.

use crate::builder::ScenarioBuilder;
use crate::scenario::Scenario;
use bce_avail::{AvailSpec, AvailTrace, OnOffSpec};
use bce_client::NetworkModel;
use bce_faults::FaultConfig;
use bce_statefile::json::{self, JsonValue};
use bce_statefile::{fmt_f64_bits, parse_f64_bits, Echo, JsonError};
use bce_types::{
    AppClass, AppId, DailyWindow, EstErrorModel, Hardware, InitialJob, Preferences, ProcType,
    ProjectId, ProjectSpec, ResourceUsage, ScenarioErrors, ServerUptime, SimDuration, SimTime,
    SporadicSupply, WorkSupply,
};

/// Value of the required top-level `"format"` key.
pub(crate) const FORMAT: &str = "bce-scenario";
/// Newest scenario-spec version this build reads and writes.
pub(crate) const VERSION: u32 = 1;

/// A scenario as described by a spec document: the assembled (but not yet
/// validated) [`Scenario`] plus the optional fault overlay.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    scenario: Scenario,
    /// Fault overlay to apply to the run's `EmulatorConfig`.
    pub(crate) faults: Option<FaultConfig>,
}

/// Error from [`ScenarioSpec::parse`]. Every variant names the JSON path
/// it occurred at (`scenario`, `scenario.projects[2].apps[0]`, ...).
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not well-formed JSON.
    Json(JsonError),
    /// The `"format"` key is missing or names a different format.
    WrongFormat { found: String },
    /// The `"version"` key is missing or not a positive integer.
    BadVersion(String),
    /// The document is from a future format version.
    UnsupportedVersion { found: u32, max: u32 },
    /// A required key is absent.
    Missing { path: String, key: &'static str },
    /// A key this version does not define (strict mode: hard error).
    UnknownKey { path: String, key: String },
    /// A value has the wrong JSON type.
    WrongType { path: String, expected: &'static str, found: &'static str },
    /// A value parsed but is structurally unusable (bad enum tag, bad bit
    /// pattern, out-of-range integer...).
    Invalid { path: String, message: String },
    /// The assembled scenario failed [`Scenario::validate`].
    Validation(ScenarioErrors),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "{e}"),
            SpecError::WrongFormat { found } => {
                write!(f, "not a scenario spec: format {} (expected {FORMAT:?})", Echo(found))
            }
            SpecError::BadVersion(found) => {
                write!(f, "bad version {} (expected a positive integer)", Echo(found))
            }
            SpecError::UnsupportedVersion { found, max } => {
                write!(f, "unsupported spec version {found} (this build reads up to {max})")
            }
            SpecError::Missing { path, key } => write!(f, "{path}: missing required key {key:?}"),
            SpecError::UnknownKey { path, key } => {
                write!(f, "{path}: unknown key {} (unknown keys are errors)", Echo(key))
            }
            SpecError::WrongType { path, expected, found } => {
                write!(f, "{path}: expected {expected}, found {found}")
            }
            SpecError::Invalid { path, message } => write!(f, "{path}: {message}"),
            SpecError::Validation(errs) => write!(f, "{errs}"),
        }
    }
}
impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl ScenarioSpec {
    /// Wrap an assembled scenario (no fault overlay).
    pub fn new(scenario: Scenario) -> Self {
        ScenarioSpec { scenario, faults: None }
    }

    /// Snapshot an existing scenario into spec form, e.g. to print it as a
    /// golden file.
    pub fn from_scenario(scenario: &Scenario) -> Self {
        ScenarioSpec::new(scenario.clone())
    }

    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Validate via the one true path and return the scenario plus the
    /// fault overlay.
    pub fn build(self) -> Result<(Scenario, Option<FaultConfig>), SpecError> {
        let faults = self.faults;
        let scenario =
            ScenarioBuilder::from(self.scenario).build().map_err(SpecError::Validation)?;
        Ok((scenario, faults))
    }

    /// Parse a spec document. Structural errors only; call
    /// [`ScenarioSpec::build`] to validate.
    pub fn parse(src: &str) -> Result<ScenarioSpec, SpecError> {
        let doc = json::parse(src)?;
        let mut root = Obj::new(Path::Root("scenario"), &doc)?;

        match root.take("format") {
            Some(JsonValue::Str(s)) if s == FORMAT => {}
            Some(JsonValue::Str(s)) => return Err(SpecError::WrongFormat { found: s.clone() }),
            Some(v) => return Err(SpecError::WrongFormat { found: v.type_name().to_string() }),
            None => return Err(SpecError::WrongFormat { found: "<missing>".to_string() }),
        }
        match root.take("version") {
            Some(JsonValue::Num(n)) if *n >= 1.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                let v = *n as u32;
                if v > VERSION {
                    return Err(SpecError::UnsupportedVersion { found: v, max: VERSION });
                }
            }
            Some(v) => return Err(SpecError::BadVersion(format!("{v:?}"))),
            None => return Err(SpecError::BadVersion("<missing>".to_string())),
        }

        let name = root.req_str("name")?.to_string();
        let seed = match root.take("seed") {
            Some(v) => read_u64(root.sub("seed"), v)?,
            None => 0,
        };
        let hardware_v = root.req("hardware")?;
        let hardware = read_hardware(root.sub("hardware"), hardware_v)?;
        let prefs = match root.take("prefs") {
            Some(v) => read_prefs(root.sub("prefs"), v)?,
            None => Preferences::default(),
        };
        let projects_v = root.req("projects")?;
        let projects_path = root.sub("projects");
        let projects_arr = as_arr(projects_path, projects_v)?;
        let mut projects = Vec::with_capacity(projects_arr.len());
        for (i, pv) in projects_arr.iter().enumerate() {
            projects.push(read_project(projects_path.index(i), pv)?);
        }
        let avail = match root.take("availability") {
            Some(v) => read_avail(root.sub("availability"), v)?,
            None => AvailSpec::always_on(),
        };
        let host_trace = match root.take("host_trace") {
            Some(v) => Some(read_trace(root.sub("host_trace"), v)?),
            None => None,
        };
        let network = match root.take("network") {
            Some(v) => Some(read_network(root.sub("network"), v)?),
            None => None,
        };
        let faults = match root.take("faults") {
            Some(v) => Some(read_faults(root.sub("faults"), v)?),
            None => None,
        };
        let initial_queue = match root.take("initial_queue") {
            Some(v) => {
                let path = root.sub("initial_queue");
                let arr = as_arr(path, v)?;
                let mut q = Vec::with_capacity(arr.len());
                for (i, jv) in arr.iter().enumerate() {
                    q.push(read_initial_job(path.index(i), jv)?);
                }
                q
            }
            None => Vec::new(),
        };
        root.reject_unknown()?;

        let mut builder = ScenarioBuilder::new(name, hardware)
            .seed(seed)
            .prefs(prefs)
            .projects(projects)
            .avail(avail)
            .initial_jobs(initial_queue);
        if let Some(t) = host_trace {
            builder = builder.host_trace(t);
        }
        if let Some(n) = network {
            builder = builder.network(n);
        }
        Ok(ScenarioSpec { scenario: builder.build_unchecked(), faults })
    }

    /// Render the canonical JSON document: fixed key order, explicit
    /// defaults, shortest-round-trip numbers, trailing newline. Output is a
    /// fixed point of `parse` ∘ `to_canonical_json`.
    pub fn to_canonical_json(&self) -> String {
        let s = &self.scenario;
        let mut root: Vec<(String, JsonValue)> = vec![
            ("format".into(), JsonValue::Str(FORMAT.into())),
            ("version".into(), JsonValue::Num(VERSION as f64)),
            ("name".into(), JsonValue::Str(s.name.clone())),
            ("seed".into(), write_u64(s.seed)),
            ("hardware".into(), write_hardware(&s.hardware)),
            ("prefs".into(), write_prefs(&s.prefs)),
            ("projects".into(), JsonValue::Arr(s.projects.iter().map(write_project).collect())),
            ("availability".into(), write_avail(&s.avail)),
        ];
        if let Some(t) = &s.host_trace {
            root.push(("host_trace".into(), write_trace(t)));
        }
        if let Some(n) = &s.network {
            root.push((
                "network".into(),
                obj([("down_bps", num(n.down_bps)), ("up_bps", num(n.up_bps))]),
            ));
        }
        if let Some(fc) = &self.faults {
            let mut fv = vec![
                ("rpc_fail_prob".to_string(), num(fc.rpc_fail_prob)),
                ("transfer_fail_prob".to_string(), num(fc.transfer_fail_prob)),
            ];
            if let Some(mtbf) = fc.crash_mtbf {
                fv.push(("crash_mtbf_s".to_string(), num(mtbf.secs())));
            }
            root.push(("faults".into(), JsonValue::Obj(fv)));
        }
        if !s.initial_queue.is_empty() {
            root.push((
                "initial_queue".into(),
                JsonValue::Arr(
                    s.initial_queue
                        .iter()
                        .map(|ij| {
                            obj([
                                ("project", JsonValue::Num(ij.project.0 as f64)),
                                ("app", JsonValue::Num(ij.app.0 as f64)),
                                ("received_ago_s", num(ij.received_ago.secs())),
                                ("progress_s", num(ij.progress.secs())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        JsonValue::Obj(root).render()
    }
}

// ---------------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------------

/// Encode an `f64`: JSON number when finite (shortest-round-trip printing
/// is bit-exact), `"bits:<16 hex>"` otherwise.
fn num(x: f64) -> JsonValue {
    if x.is_finite() {
        JsonValue::Num(x)
    } else {
        JsonValue::Str(format!("bits:{}", fmt_f64_bits(x)))
    }
}

fn obj<const N: usize>(entries: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Encode a `u64`: JSON number when exactly representable in an `f64`
/// (≤ 2^53), decimal string otherwise.
fn write_u64(x: u64) -> JsonValue {
    if x <= (1u64 << 53) {
        JsonValue::Num(x as f64)
    } else {
        JsonValue::Str(x.to_string())
    }
}

fn proc_key(t: ProcType) -> &'static str {
    match t {
        ProcType::Cpu => "cpu",
        ProcType::NvidiaGpu => "nvidia_gpu",
        ProcType::AtiGpu => "ati_gpu",
    }
}

fn write_hardware(hw: &Hardware) -> JsonValue {
    let mut entries = Vec::new();
    for t in ProcType::ALL {
        if hw.ninstances(t) > 0 {
            entries.push((
                proc_key(t).to_string(),
                obj([
                    ("count", JsonValue::Num(hw.ninstances(t) as f64)),
                    ("flops_per_inst", num(hw.flops_per_inst(t))),
                ]),
            ));
        }
    }
    entries.push(("mem_bytes".to_string(), num(hw.mem_bytes)));
    entries.push(("vram_bytes".to_string(), num(hw.vram_bytes)));
    JsonValue::Obj(entries)
}

fn write_window(w: &DailyWindow) -> JsonValue {
    obj([("start_sec", num(w.start_sec)), ("end_sec", num(w.end_sec))])
}

fn write_prefs(p: &Preferences) -> JsonValue {
    let mut entries = vec![
        ("work_buf_min_s".to_string(), num(p.work_buf_min.secs())),
        ("work_buf_extra_s".to_string(), num(p.work_buf_extra.secs())),
        ("run_if_user_active".to_string(), JsonValue::Bool(p.run_if_user_active)),
        ("gpu_if_user_active".to_string(), JsonValue::Bool(p.gpu_if_user_active)),
        ("max_ncpus_frac".to_string(), num(p.max_ncpus_frac)),
        ("ram_max_frac_busy".to_string(), num(p.ram_max_frac_busy)),
        ("ram_max_frac_idle".to_string(), num(p.ram_max_frac_idle)),
    ];
    if let Some(w) = &p.compute_window {
        entries.push(("compute_window".to_string(), write_window(w)));
    }
    if let Some(w) = &p.gpu_window {
        entries.push(("gpu_window".to_string(), write_window(w)));
    }
    entries.push(("leave_apps_in_memory".to_string(), JsonValue::Bool(p.leave_apps_in_memory)));
    JsonValue::Obj(entries)
}

fn write_est_error(e: &EstErrorModel) -> JsonValue {
    match e {
        EstErrorModel::Exact => obj([("kind", JsonValue::Str("exact".into()))]),
        EstErrorModel::Systematic { factor } => {
            obj([("kind", JsonValue::Str("systematic".into())), ("factor", num(*factor))])
        }
        EstErrorModel::LogNormal { sigma } => {
            obj([("kind", JsonValue::Str("log_normal".into())), ("sigma", num(*sigma))])
        }
    }
}

fn write_app(a: &AppClass) -> JsonValue {
    let mut entries = vec![
        ("id".to_string(), JsonValue::Num(a.id.0 as f64)),
        ("name".to_string(), JsonValue::Str(a.name.clone())),
        ("proc".to_string(), JsonValue::Str(proc_key(a.usage.main_proc_type()).into())),
    ];
    if let Some((_, ninst)) = a.usage.coproc {
        entries.push(("gpu_instances".to_string(), num(ninst)));
    }
    entries.push(("avg_cpus".to_string(), num(a.usage.avg_cpus)));
    entries.push(("runtime_mean_s".to_string(), num(a.runtime_mean.secs())));
    entries.push(("runtime_cv".to_string(), num(a.runtime_cv)));
    entries.push(("est_error".to_string(), write_est_error(&a.est_error)));
    entries.push(("latency_bound_s".to_string(), num(a.latency_bound.secs())));
    entries.push((
        "checkpoint_s".to_string(),
        match a.checkpoint_period {
            Some(d) => num(d.secs()),
            None => JsonValue::Null,
        },
    ));
    entries.push(("working_set_bytes".to_string(), num(a.working_set_bytes)));
    entries.push(("input_bytes".to_string(), num(a.input_bytes)));
    entries.push(("output_bytes".to_string(), num(a.output_bytes)));
    entries.push(("weight".to_string(), num(a.weight)));
    if let Some(sp) = &a.supply {
        entries.push((
            "supply".to_string(),
            obj([
                ("work_mean_s", num(sp.work_mean.secs())),
                ("dry_mean_s", num(sp.dry_mean.secs())),
            ]),
        ));
    }
    JsonValue::Obj(entries)
}

fn write_project(p: &ProjectSpec) -> JsonValue {
    let supply = match p.supply {
        WorkSupply::Unlimited => obj([("kind", JsonValue::Str("unlimited".into()))]),
        WorkSupply::Sporadic { work_mean, dry_mean } => obj([
            ("kind", JsonValue::Str("sporadic".into())),
            ("work_mean_s", num(work_mean.secs())),
            ("dry_mean_s", num(dry_mean.secs())),
        ]),
        WorkSupply::Batch { njobs } => {
            obj([("kind", JsonValue::Str("batch".into())), ("njobs", write_u64(njobs))])
        }
    };
    let uptime = match p.uptime {
        ServerUptime::AlwaysUp => obj([("kind", JsonValue::Str("always_up".into()))]),
        ServerUptime::Sporadic { up_mean, down_mean } => obj([
            ("kind", JsonValue::Str("sporadic".into())),
            ("up_mean_s", num(up_mean.secs())),
            ("down_mean_s", num(down_mean.secs())),
        ]),
    };
    obj([
        ("id", JsonValue::Num(p.id.0 as f64)),
        ("name", JsonValue::Str(p.name.clone())),
        ("resource_share", num(p.resource_share)),
        ("supply", supply),
        ("uptime", uptime),
        ("apps", JsonValue::Arr(p.apps.iter().map(write_app).collect())),
    ])
}

fn write_onoff(s: &OnOffSpec) -> JsonValue {
    match s {
        OnOffSpec::AlwaysOn => obj([("kind", JsonValue::Str("always_on".into()))]),
        OnOffSpec::AlwaysOff => obj([("kind", JsonValue::Str("always_off".into()))]),
        OnOffSpec::Exponential { up_mean, down_mean, start_on } => obj([
            ("kind", JsonValue::Str("exponential".into())),
            ("up_mean_s", num(up_mean.secs())),
            ("down_mean_s", num(down_mean.secs())),
            ("start_on", JsonValue::Bool(*start_on)),
        ]),
    }
}

fn write_avail(a: &AvailSpec) -> JsonValue {
    obj([
        ("host", write_onoff(&a.host)),
        ("user_active", write_onoff(&a.user_active)),
        ("network", write_onoff(&a.network)),
    ])
}

fn write_trace(t: &AvailTrace) -> JsonValue {
    obj([
        ("initial", JsonValue::Bool(t.initial())),
        (
            "transitions",
            JsonValue::Arr(
                t.transitions()
                    .iter()
                    .map(|(tt, s)| JsonValue::Arr(vec![num(tt.secs()), JsonValue::Bool(*s)]))
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Decoding helpers
// ---------------------------------------------------------------------------

/// Where a value sits in the document: a chain of borrowed segments that
/// renders as `scenario.projects[2].apps[0]`. Reading a valid document
/// builds no path text; a [`SpecError`] renders it once, when it is made.
#[derive(Clone, Copy)]
enum Path<'p> {
    Root(&'static str),
    Key(&'p Path<'p>, &'p str),
    Index(&'p Path<'p>, usize),
}

impl Path<'_> {
    fn index(&self, i: usize) -> Path<'_> {
        Path::Index(self, i)
    }
}

impl std::fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Path::Root(name) => f.write_str(name),
            Path::Key(parent, key) => write!(f, "{parent}.{key}"),
            Path::Index(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// An object reader that tracks which keys were consumed, so anything left
/// over is reported as an [`SpecError::UnknownKey`].
struct Obj<'a, 'p> {
    path: Path<'p>,
    entries: &'a [(String, JsonValue)],
    taken: Vec<bool>,
}

impl<'a, 'p> Obj<'a, 'p> {
    fn new(path: Path<'p>, v: &'a JsonValue) -> Result<Self, SpecError> {
        match v {
            JsonValue::Obj(entries) => Ok(Obj { path, taken: vec![false; entries.len()], entries }),
            other => Err(SpecError::WrongType {
                path: path.to_string(),
                expected: "object",
                found: other.type_name(),
            }),
        }
    }

    fn sub<'s>(&'s self, key: &'s str) -> Path<'s> {
        Path::Key(&self.path, key)
    }

    fn take(&mut self, key: &str) -> Option<&'a JsonValue> {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if k == key {
                self.taken[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn req(&mut self, key: &'static str) -> Result<&'a JsonValue, SpecError> {
        self.take(key).ok_or_else(|| SpecError::Missing { path: self.path.to_string(), key })
    }

    fn req_str(&mut self, key: &'static str) -> Result<&'a str, SpecError> {
        let v = self.req(key)?;
        as_str(self.sub(key), v)
    }

    fn f64_or(&mut self, key: &str, default: f64) -> Result<f64, SpecError> {
        match self.take(key) {
            Some(v) => read_f64(self.sub(key), v),
            None => Ok(default),
        }
    }

    fn dur_or(&mut self, key: &str, default_secs: f64) -> Result<SimDuration, SpecError> {
        Ok(SimDuration::from_secs(self.f64_or(key, default_secs)?))
    }

    fn req_f64(&mut self, key: &'static str) -> Result<f64, SpecError> {
        let v = self.req(key)?;
        read_f64(self.sub(key), v)
    }

    fn req_dur(&mut self, key: &'static str) -> Result<SimDuration, SpecError> {
        Ok(SimDuration::from_secs(self.req_f64(key)?))
    }

    fn bool_or(&mut self, key: &str, default: bool) -> Result<bool, SpecError> {
        match self.take(key) {
            Some(v) => as_bool(self.sub(key), v),
            None => Ok(default),
        }
    }

    fn req_u32(&mut self, key: &'static str) -> Result<u32, SpecError> {
        let v = self.req(key)?;
        read_u32(self.sub(key), v)
    }

    fn reject_unknown(&self) -> Result<(), SpecError> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if !self.taken[i] {
                return Err(SpecError::UnknownKey { path: self.path.to_string(), key: k.clone() });
            }
        }
        Ok(())
    }
}

fn as_str<'a>(path: Path<'_>, v: &'a JsonValue) -> Result<&'a str, SpecError> {
    v.as_str().ok_or_else(|| SpecError::WrongType {
        path: path.to_string(),
        expected: "string",
        found: v.type_name(),
    })
}

fn as_bool(path: Path<'_>, v: &JsonValue) -> Result<bool, SpecError> {
    v.as_bool().ok_or_else(|| SpecError::WrongType {
        path: path.to_string(),
        expected: "bool",
        found: v.type_name(),
    })
}

fn as_arr<'a>(path: Path<'_>, v: &'a JsonValue) -> Result<&'a [JsonValue], SpecError> {
    v.as_arr().ok_or_else(|| SpecError::WrongType {
        path: path.to_string(),
        expected: "array",
        found: v.type_name(),
    })
}

/// Read an f64 as either a JSON number or a `"bits:<16 hex>"` string.
fn read_f64(path: Path<'_>, v: &JsonValue) -> Result<f64, SpecError> {
    match v {
        JsonValue::Num(n) => Ok(*n),
        JsonValue::Str(s) => match s.strip_prefix("bits:") {
            Some(hex) => parse_f64_bits(hex).map_err(|_| SpecError::Invalid {
                path: path.to_string(),
                message: format!("bad f64 bit pattern {}", Echo(hex)),
            }),
            None => Err(SpecError::WrongType {
                path: path.to_string(),
                expected: "number or \"bits:<16 hex>\"",
                found: "string",
            }),
        },
        other => Err(SpecError::WrongType {
            path: path.to_string(),
            expected: "number or \"bits:<16 hex>\"",
            found: other.type_name(),
        }),
    }
}

fn read_u64(path: Path<'_>, v: &JsonValue) -> Result<u64, SpecError> {
    let bad = |message: String| SpecError::Invalid { path: path.to_string(), message };
    match v {
        JsonValue::Num(n) => {
            if *n < 0.0 || n.fract() != 0.0 || *n > (1u64 << 53) as f64 {
                Err(bad(format!("{n} is not an unsigned integer ≤ 2^53 (use a decimal string)")))
            } else {
                Ok(*n as u64)
            }
        }
        JsonValue::Str(s) => {
            s.parse::<u64>().map_err(|_| bad(format!("bad unsigned integer {}", Echo(s))))
        }
        other => Err(SpecError::WrongType {
            path: path.to_string(),
            expected: "unsigned integer (number or decimal string)",
            found: other.type_name(),
        }),
    }
}

fn read_u32(path: Path<'_>, v: &JsonValue) -> Result<u32, SpecError> {
    let x = read_u64(path, v)?;
    u32::try_from(x).map_err(|_| SpecError::Invalid {
        path: path.to_string(),
        message: format!("{x} does not fit in 32 bits"),
    })
}

fn read_proc(path: Path<'_>, v: &JsonValue) -> Result<ProcType, SpecError> {
    match as_str(path, v)? {
        "cpu" => Ok(ProcType::Cpu),
        "nvidia_gpu" => Ok(ProcType::NvidiaGpu),
        "ati_gpu" => Ok(ProcType::AtiGpu),
        other => Err(SpecError::Invalid {
            path: path.to_string(),
            message: format!("unknown processor type {} (cpu | nvidia_gpu | ati_gpu)", Echo(other)),
        }),
    }
}

fn read_hardware(path: Path<'_>, v: &JsonValue) -> Result<Hardware, SpecError> {
    let mut o = Obj::new(path, v)?;
    let mut hw = Hardware::cpu_only(0, 0.0);
    for t in ProcType::ALL {
        let (count, flops) = match o.take(proc_key(t)) {
            Some(gv) => {
                let mut g = Obj::new(o.sub(proc_key(t)), gv)?;
                let count = g.req_u32("count")?;
                let flops = g.req_f64("flops_per_inst")?;
                g.reject_unknown()?;
                (count, flops)
            }
            None => (0, 0.0),
        };
        hw = hw.with_group(t, count, flops);
    }
    hw = hw.with_mem(o.f64_or("mem_bytes", 8e9)?).with_vram(o.f64_or("vram_bytes", 0.0)?);
    o.reject_unknown()?;
    Ok(hw)
}

fn read_window(path: Path<'_>, v: &JsonValue) -> Result<DailyWindow, SpecError> {
    let mut o = Obj::new(path, v)?;
    let w = DailyWindow { start_sec: o.req_f64("start_sec")?, end_sec: o.req_f64("end_sec")? };
    o.reject_unknown()?;
    Ok(w)
}

fn read_prefs(path: Path<'_>, v: &JsonValue) -> Result<Preferences, SpecError> {
    let mut o = Obj::new(path, v)?;
    let d = Preferences::default();
    let p = Preferences {
        work_buf_min: o.dur_or("work_buf_min_s", d.work_buf_min.secs())?,
        work_buf_extra: o.dur_or("work_buf_extra_s", d.work_buf_extra.secs())?,
        run_if_user_active: o.bool_or("run_if_user_active", d.run_if_user_active)?,
        gpu_if_user_active: o.bool_or("gpu_if_user_active", d.gpu_if_user_active)?,
        max_ncpus_frac: o.f64_or("max_ncpus_frac", d.max_ncpus_frac)?,
        ram_max_frac_busy: o.f64_or("ram_max_frac_busy", d.ram_max_frac_busy)?,
        ram_max_frac_idle: o.f64_or("ram_max_frac_idle", d.ram_max_frac_idle)?,
        compute_window: match o.take("compute_window") {
            Some(wv) => Some(read_window(o.sub("compute_window"), wv)?),
            None => None,
        },
        gpu_window: match o.take("gpu_window") {
            Some(wv) => Some(read_window(o.sub("gpu_window"), wv)?),
            None => None,
        },
        leave_apps_in_memory: o.bool_or("leave_apps_in_memory", d.leave_apps_in_memory)?,
    };
    o.reject_unknown()?;
    Ok(p)
}

fn read_est_error(path: Path<'_>, v: &JsonValue) -> Result<EstErrorModel, SpecError> {
    let mut o = Obj::new(path, v)?;
    let kind = o.req_str("kind")?.to_string();
    let e = match kind.as_str() {
        "exact" => EstErrorModel::Exact,
        "systematic" => EstErrorModel::Systematic { factor: o.req_f64("factor")? },
        "log_normal" => EstErrorModel::LogNormal { sigma: o.req_f64("sigma")? },
        other => {
            return Err(SpecError::Invalid {
                path: path.to_string(),
                message: format!(
                    "unknown est_error kind {} (exact | systematic | log_normal)",
                    Echo(other)
                ),
            })
        }
    };
    o.reject_unknown()?;
    Ok(e)
}

fn read_app(path: Path<'_>, v: &JsonValue) -> Result<AppClass, SpecError> {
    let mut o = Obj::new(path, v)?;
    let id = o.req_u32("id")?;
    let proc = match o.take("proc") {
        Some(pv) => read_proc(o.sub("proc"), pv)?,
        None => ProcType::Cpu,
    };
    let default_name = if proc.is_gpu() { format!("gpu_app{id}") } else { format!("app{id}") };
    let name = match o.take("name") {
        Some(nv) => as_str(o.sub("name"), nv)?.to_string(),
        None => default_name,
    };
    let gpu_instances = o.take("gpu_instances");
    let usage = if proc.is_gpu() {
        let ninst = match gpu_instances {
            Some(gv) => read_f64(o.sub("gpu_instances"), gv)?,
            None => 1.0,
        };
        ResourceUsage { avg_cpus: o.f64_or("avg_cpus", 0.05)?, coproc: Some((proc, ninst)) }
    } else {
        if gpu_instances.is_some() {
            return Err(SpecError::Invalid {
                path: path.to_string(),
                message: "gpu_instances requires a GPU \"proc\"".to_string(),
            });
        }
        ResourceUsage { avg_cpus: o.f64_or("avg_cpus", 1.0)?, coproc: None }
    };
    let app = AppClass {
        id: AppId(id),
        name,
        usage,
        runtime_mean: o.req_dur("runtime_mean_s")?,
        runtime_cv: o.f64_or("runtime_cv", 0.05)?,
        est_error: match o.take("est_error") {
            Some(ev) => read_est_error(o.sub("est_error"), ev)?,
            None => EstErrorModel::Exact,
        },
        latency_bound: o.req_dur("latency_bound_s")?,
        checkpoint_period: match o.take("checkpoint_s") {
            Some(JsonValue::Null) => None,
            Some(cv) => Some(SimDuration::from_secs(read_f64(o.sub("checkpoint_s"), cv)?)),
            None => Some(SimDuration::from_secs(60.0)),
        },
        working_set_bytes: o.f64_or("working_set_bytes", 1e8)?,
        input_bytes: o.f64_or("input_bytes", 0.0)?,
        output_bytes: o.f64_or("output_bytes", 0.0)?,
        weight: o.f64_or("weight", 1.0)?,
        supply: match o.take("supply") {
            Some(sv) => {
                let mut so = Obj::new(o.sub("supply"), sv)?;
                let sp = SporadicSupply {
                    work_mean: so.req_dur("work_mean_s")?,
                    dry_mean: so.req_dur("dry_mean_s")?,
                };
                so.reject_unknown()?;
                Some(sp)
            }
            None => None,
        },
    };
    o.reject_unknown()?;
    Ok(app)
}

fn read_project(path: Path<'_>, v: &JsonValue) -> Result<ProjectSpec, SpecError> {
    let mut o = Obj::new(path, v)?;
    let id = o.req_u32("id")?;
    let name = match o.take("name") {
        Some(nv) => as_str(o.sub("name"), nv)?.to_string(),
        None => format!("project{id}"),
    };
    let resource_share = o.req_f64("resource_share")?;
    let supply = match o.take("supply") {
        Some(sv) => {
            let spath = o.sub("supply");
            let mut so = Obj::new(spath, sv)?;
            let kind = so.req_str("kind")?.to_string();
            let s = match kind.as_str() {
                "unlimited" => WorkSupply::Unlimited,
                "sporadic" => WorkSupply::Sporadic {
                    work_mean: so.req_dur("work_mean_s")?,
                    dry_mean: so.req_dur("dry_mean_s")?,
                },
                "batch" => {
                    let njobs = so.req("njobs")?;
                    WorkSupply::Batch { njobs: read_u64(so.sub("njobs"), njobs)? }
                }
                other => {
                    return Err(SpecError::Invalid {
                        path: spath.to_string(),
                        message: format!(
                            "unknown supply kind {} (unlimited | sporadic | batch)",
                            Echo(other)
                        ),
                    })
                }
            };
            so.reject_unknown()?;
            s
        }
        None => WorkSupply::Unlimited,
    };
    let uptime = match o.take("uptime") {
        Some(uv) => {
            let upath = o.sub("uptime");
            let mut uo = Obj::new(upath, uv)?;
            let kind = uo.req_str("kind")?.to_string();
            let u = match kind.as_str() {
                "always_up" => ServerUptime::AlwaysUp,
                "sporadic" => ServerUptime::Sporadic {
                    up_mean: uo.req_dur("up_mean_s")?,
                    down_mean: uo.req_dur("down_mean_s")?,
                },
                other => {
                    return Err(SpecError::Invalid {
                        path: upath.to_string(),
                        message: format!(
                            "unknown uptime kind {} (always_up | sporadic)",
                            Echo(other)
                        ),
                    })
                }
            };
            uo.reject_unknown()?;
            u
        }
        None => ServerUptime::AlwaysUp,
    };
    let apps_v = o.req("apps")?;
    let apps_path = o.sub("apps");
    let apps_arr = as_arr(apps_path, apps_v)?;
    let mut apps = Vec::with_capacity(apps_arr.len());
    for (i, av) in apps_arr.iter().enumerate() {
        apps.push(read_app(apps_path.index(i), av)?);
    }
    o.reject_unknown()?;
    Ok(ProjectSpec { id: ProjectId(id), name, resource_share, apps, supply, uptime })
}

fn read_onoff(path: Path<'_>, v: &JsonValue) -> Result<OnOffSpec, SpecError> {
    let mut o = Obj::new(path, v)?;
    let kind = o.req_str("kind")?.to_string();
    let s = match kind.as_str() {
        "always_on" => OnOffSpec::AlwaysOn,
        "always_off" => OnOffSpec::AlwaysOff,
        "exponential" => OnOffSpec::Exponential {
            up_mean: o.req_dur("up_mean_s")?,
            down_mean: o.req_dur("down_mean_s")?,
            start_on: o.bool_or("start_on", true)?,
        },
        // Decode-only sugar; canonical output writes the lowered form.
        "duty_cycle" => {
            let frac = o.req_f64("on_fraction")?;
            let cycle = o.req_dur("cycle_s")?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(SpecError::Invalid {
                    path: path.to_string(),
                    message: format!("on_fraction {frac} outside [0, 1]"),
                });
            }
            OnOffSpec::duty_cycle(frac, cycle)
        }
        other => {
            return Err(SpecError::Invalid {
                path: path.to_string(),
                message: format!(
                    "unknown kind {} (always_on | always_off | exponential | duty_cycle)",
                    Echo(other)
                ),
            })
        }
    };
    o.reject_unknown()?;
    Ok(s)
}

fn read_avail(path: Path<'_>, v: &JsonValue) -> Result<AvailSpec, SpecError> {
    let mut o = Obj::new(path, v)?;
    let d = AvailSpec::always_on();
    let a = AvailSpec {
        host: match o.take("host") {
            Some(hv) => read_onoff(o.sub("host"), hv)?,
            None => d.host,
        },
        user_active: match o.take("user_active") {
            Some(uv) => read_onoff(o.sub("user_active"), uv)?,
            None => d.user_active,
        },
        network: match o.take("network") {
            Some(nv) => read_onoff(o.sub("network"), nv)?,
            None => d.network,
        },
    };
    o.reject_unknown()?;
    Ok(a)
}

fn read_trace(path: Path<'_>, v: &JsonValue) -> Result<AvailTrace, SpecError> {
    let mut o = Obj::new(path, v)?;
    let initial = o.bool_or("initial", true)?;
    let trans_v = o.req("transitions")?;
    let tpath = o.sub("transitions");
    let arr = as_arr(tpath, trans_v)?;
    let mut transitions = Vec::with_capacity(arr.len());
    let mut last = f64::NEG_INFINITY;
    for (i, tv) in arr.iter().enumerate() {
        let ipath = tpath.index(i);
        let pair = as_arr(ipath, tv)?;
        if pair.len() != 2 {
            return Err(SpecError::Invalid {
                path: ipath.to_string(),
                message: format!("expected [time_s, state] pair, found {} items", pair.len()),
            });
        }
        let t = read_f64(ipath.index(0), &pair[0])?;
        let s = as_bool(ipath.index(1), &pair[1])?;
        if t < last {
            return Err(SpecError::Invalid {
                path: ipath.to_string(),
                message: "transition times must be non-decreasing".to_string(),
            });
        }
        last = t;
        transitions.push((SimTime::from_secs(t), s));
    }
    o.reject_unknown()?;
    Ok(AvailTrace::new(initial, transitions))
}

fn read_network(path: Path<'_>, v: &JsonValue) -> Result<NetworkModel, SpecError> {
    let mut o = Obj::new(path, v)?;
    let n = NetworkModel { down_bps: o.req_f64("down_bps")?, up_bps: o.req_f64("up_bps")? };
    o.reject_unknown()?;
    Ok(n)
}

fn read_faults(path: Path<'_>, v: &JsonValue) -> Result<FaultConfig, SpecError> {
    let mut o = Obj::new(path, v)?;
    let fc = FaultConfig {
        rpc_fail_prob: o.f64_or("rpc_fail_prob", 0.0)?,
        transfer_fail_prob: o.f64_or("transfer_fail_prob", 0.0)?,
        crash_mtbf: match o.take("crash_mtbf_s") {
            Some(JsonValue::Null) | None => None,
            Some(cv) => Some(SimDuration::from_secs(read_f64(o.sub("crash_mtbf_s"), cv)?)),
        },
        ..FaultConfig::OFF
    };
    for (key, prob) in
        [("rpc_fail_prob", fc.rpc_fail_prob), ("transfer_fail_prob", fc.transfer_fail_prob)]
    {
        if !(0.0..=1.0).contains(&prob) {
            return Err(SpecError::Invalid {
                path: o.sub(key).to_string(),
                message: format!("probability {prob} outside [0, 1]"),
            });
        }
    }
    o.reject_unknown()?;
    Ok(fc)
}

fn read_initial_job(path: Path<'_>, v: &JsonValue) -> Result<InitialJob, SpecError> {
    let mut o = Obj::new(path, v)?;
    let ij = InitialJob {
        project: ProjectId(o.req_u32("project")?),
        app: AppId(o.req_u32("app")?),
        received_ago: o.req_dur("received_ago_s")?,
        progress: o.dur_or("progress_s", 0.0)?,
    };
    o.reject_unknown()?;
    Ok(ij)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::Preferences;

    /// A scenario exercising every optional feature of the format.
    fn kitchen_sink() -> Scenario {
        ScenarioBuilder::new(
            "sink",
            Hardware::cpu_only(4, 2.5e9)
                .with_group(ProcType::NvidiaGpu, 1, 1e10)
                .with_mem(16e9)
                .with_vram(2e9),
        )
        .seed(42)
        .prefs(Preferences {
            work_buf_min: SimDuration::from_secs(600.0),
            compute_window: Some(DailyWindow::new(9.0, 17.0)),
            gpu_window: Some(DailyWindow::new(22.0, 6.0)),
            leave_apps_in_memory: true,
            ..Preferences::default()
        })
        .project(ProjectSpec {
            supply: WorkSupply::Sporadic {
                work_mean: SimDuration::from_hours(20.0),
                dry_mean: SimDuration::from_hours(4.0),
            },
            uptime: ServerUptime::Sporadic {
                up_mean: SimDuration::from_hours(100.0),
                down_mean: SimDuration::from_hours(2.0),
            },
            ..ProjectSpec::new(0, "alpha", 100.0).with_app(AppClass {
                input_bytes: 1e6,
                output_bytes: 2e6,
                supply: Some(SporadicSupply {
                    work_mean: SimDuration::from_hours(4.0),
                    dry_mean: SimDuration::from_hours(1.0),
                }),
                ..AppClass::cpu(0, SimDuration::from_secs(900.0), SimDuration::from_hours(6.0))
                    .with_cv(0.1)
                    .with_est_error(EstErrorModel::LogNormal { sigma: 0.3 })
            })
        })
        .project(ProjectSpec {
            supply: WorkSupply::Batch { njobs: 500 },
            ..ProjectSpec::new(1, "beta", 300.0).with_app(AppClass {
                weight: 2.0,
                ..AppClass::gpu(
                    1,
                    ProcType::NvidiaGpu,
                    SimDuration::from_secs(300.0),
                    SimDuration::from_hours(12.0),
                )
                .with_checkpoint(None)
                .with_est_error(EstErrorModel::Systematic { factor: 1.5 })
            })
        })
        .avail(AvailSpec {
            host: OnOffSpec::duty_cycle(0.8, SimDuration::from_hours(8.0)),
            user_active: OnOffSpec::Exponential {
                up_mean: SimDuration::from_hours(2.0),
                down_mean: SimDuration::from_hours(6.0),
                start_on: false,
            },
            network: OnOffSpec::AlwaysOn,
        })
        .host_trace(AvailTrace::new(
            true,
            vec![(SimTime::from_secs(100.0), false), (SimTime::from_secs(350.5), true)],
        ))
        .network(NetworkModel { down_bps: 1e7, up_bps: 1e6 })
        .initial_jobs([InitialJob {
            project: ProjectId(0),
            app: AppId(0),
            received_ago: SimDuration::from_secs(120.0),
            progress: SimDuration::from_secs(30.0),
        }])
        .build()
        .expect("kitchen sink is valid")
    }

    fn roundtrip(spec: &ScenarioSpec) -> ScenarioSpec {
        ScenarioSpec::parse(&spec.to_canonical_json()).expect("canonical output reparses")
    }

    #[test]
    fn kitchen_sink_roundtrips() {
        let spec = ScenarioSpec::from_scenario(&kitchen_sink()).with_faults(FaultConfig {
            rpc_fail_prob: 0.01,
            transfer_fail_prob: 0.02,
            crash_mtbf: Some(SimDuration::from_days(3.0)),
            ..FaultConfig::OFF
        });
        let back = roundtrip(&spec);
        // Canonical form is a fixed point...
        assert_eq!(back.to_canonical_json(), spec.to_canonical_json());
        // ...and every component is value-identical.
        let (a, b) = (spec.scenario, back.scenario);
        assert_eq!(a.name, b.name);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.hardware, b.hardware);
        assert_eq!(a.prefs, b.prefs);
        assert_eq!(a.projects, b.projects);
        assert_eq!(a.avail, b.avail);
        assert_eq!(a.host_trace, b.host_trace);
        assert_eq!(a.network, b.network);
        assert_eq!(a.initial_queue, b.initial_queue);
        assert_eq!(spec.faults, back.faults);
    }

    #[test]
    fn nonfinite_f64s_transport_as_bits() {
        let mut s = kitchen_sink();
        s.projects[0].resource_share = f64::INFINITY;
        s.hardware = s.hardware.with_mem(f64::NAN);
        let spec = ScenarioSpec::from_scenario(&s);
        let text = spec.to_canonical_json();
        assert!(text.contains("\"bits:7ff0000000000000\""), "{text}");
        let back = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(back.scenario.projects[0].resource_share, f64::INFINITY);
        assert!(back.scenario.hardware.mem_bytes.is_nan());
        assert_eq!(back.scenario.hardware.mem_bytes.to_bits(), s.hardware.mem_bytes.to_bits());
    }

    #[test]
    fn large_seed_roundtrips_via_string() {
        let mut s = kitchen_sink();
        s.seed = u64::MAX - 7;
        let spec = ScenarioSpec::from_scenario(&s);
        let back = roundtrip(&spec);
        assert_eq!(back.scenario.seed, u64::MAX - 7);
    }

    fn minimal_doc() -> String {
        r#"{
  "format": "bce-scenario",
  "version": 1,
  "name": "mini",
  "hardware": {"cpu": {"count": 1, "flops_per_inst": 1e9}},
  "projects": [
    {"id": 0, "resource_share": 100,
     "apps": [{"id": 0, "runtime_mean_s": 1000, "latency_bound_s": 86400}]}
  ]
}"#
        .to_string()
    }

    #[test]
    fn minimal_doc_gets_documented_defaults() {
        let spec = ScenarioSpec::parse(&minimal_doc()).unwrap();
        let (s, faults) = spec.build().unwrap();
        assert_eq!(s.seed, 0);
        assert_eq!(s.prefs, Preferences::default());
        assert_eq!(s.avail, AvailSpec::always_on());
        assert_eq!(s.projects[0].name, "project0");
        let app = &s.projects[0].apps[0];
        assert_eq!(app.name, "app0");
        assert_eq!(app.runtime_cv, 0.05);
        assert_eq!(app.checkpoint_period, Some(SimDuration::from_secs(60.0)));
        assert_eq!(faults, None);
    }

    #[test]
    fn unknown_keys_are_hard_errors_at_every_level() {
        for (inject, needle) in [
            ("\"name\": \"mini\",", "\"name\": \"mini\", \"surprise\": 1,"),
            ("\"count\": 1,", "\"count\": 1, \"ghz\": 3,"),
            ("\"id\": 0, \"resource_share\"", "\"id\": 0, \"color\": \"red\", \"resource_share\""),
            ("{\"id\": 0, \"runtime_mean_s\"", "{\"id\": 0, \"runtime\": 5, \"runtime_mean_s\""),
        ] {
            let doc = minimal_doc().replace(inject, needle);
            assert_ne!(doc, minimal_doc(), "injection must apply");
            let err = ScenarioSpec::parse(&doc).unwrap_err();
            assert!(
                matches!(err, SpecError::UnknownKey { .. }),
                "expected UnknownKey, got {err:?}"
            );
        }
    }

    #[test]
    fn unknown_key_error_names_the_path() {
        let doc = minimal_doc()
            .replace("\"runtime_mean_s\": 1000,", "\"runtime_mean_s\": 1000, \"nope\": 1,");
        let err = ScenarioSpec::parse(&doc).unwrap_err();
        match err {
            SpecError::UnknownKey { path, key } => {
                assert_eq!(path, "scenario.projects[0].apps[0]");
                assert_eq!(key, "nope");
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
    }

    #[test]
    fn error_texts_name_nested_keys_and_indices() {
        // Three good projects ahead of a bad one, so it sits at index 3.
        let good = r#"{"id": 9, "resource_share": 1, "apps": []}, "#;
        let doc = minimal_doc()
            .replace("\"runtime_mean_s\": 1000", "\"runtime_mean_s\": [1]")
            .replace("\"projects\": [", &format!("\"projects\": [{}", good.repeat(3)));
        for (doc, want) in [
            (
                doc,
                "scenario.projects[3].apps[0].runtime_mean_s: expected number or \"bits:<16 hex>\", \
                 found array",
            ),
            (
                minimal_doc().replace(
                    "\"projects\":",
                    "\"host_trace\": {\"transitions\": [[0, true], [5, \"off\"]]},\n  \"projects\":",
                ),
                "scenario.host_trace.transitions[1][1]: expected bool, found string",
            ),
            (
                minimal_doc().replace(
                    "\"resource_share\": 100,",
                    "\"resource_share\": 100, \"supply\": {\"kind\": \"batch\", \"njobs\": 5, \"x\": 1},",
                ),
                "scenario.projects[0].supply: unknown key \"x\" (unknown keys are errors)",
            ),
            (
                minimal_doc().replace("\"count\": 1,", "\"count\": -1,"),
                "scenario.hardware.cpu.count: -1 is not an unsigned integer ≤ 2^53 \
                 (use a decimal string)",
            ),
        ] {
            assert_eq!(ScenarioSpec::parse(&doc).unwrap_err().to_string(), want);
        }
    }

    #[test]
    fn wrong_types_are_rejected() {
        let doc = minimal_doc().replace("\"name\": \"mini\"", "\"name\": 7");
        assert!(matches!(ScenarioSpec::parse(&doc).unwrap_err(), SpecError::WrongType { .. }));
        let doc = minimal_doc().replace("\"runtime_mean_s\": 1000", "\"runtime_mean_s\": [1]");
        assert!(matches!(ScenarioSpec::parse(&doc).unwrap_err(), SpecError::WrongType { .. }));
    }

    #[test]
    fn missing_required_keys_are_reported() {
        let doc = minimal_doc().replace("\"latency_bound_s\": 86400", "\"weight\": 1");
        match ScenarioSpec::parse(&doc).unwrap_err() {
            SpecError::Missing { path, key } => {
                assert_eq!(path, "scenario.projects[0].apps[0]");
                assert_eq!(key, "latency_bound_s");
            }
            other => panic!("expected Missing, got {other:?}"),
        }
    }

    #[test]
    fn format_and_version_are_enforced() {
        let doc = minimal_doc().replace("bce-scenario", "bce-campaign");
        assert!(matches!(ScenarioSpec::parse(&doc).unwrap_err(), SpecError::WrongFormat { .. }));
        let doc = minimal_doc().replace("\"version\": 1", "\"version\": 99");
        assert_eq!(
            ScenarioSpec::parse(&doc).unwrap_err(),
            SpecError::UnsupportedVersion { found: 99, max: VERSION }
        );
        let doc = minimal_doc().replace("\"version\": 1", "\"version\": 1.5");
        assert!(matches!(ScenarioSpec::parse(&doc).unwrap_err(), SpecError::BadVersion(_)));
    }

    #[test]
    fn hostile_depth_is_rejected() {
        let deep = format!(
            "{{\"format\": \"bce-scenario\", \"version\": 1, \"name\": {}1{}}}",
            "[".repeat(200),
            "]".repeat(200)
        );
        assert!(matches!(ScenarioSpec::parse(&deep).unwrap_err(), SpecError::Json(_)));
    }

    #[test]
    fn duty_cycle_sugar_lowers_to_exponential() {
        let doc = minimal_doc().replace(
            "\"projects\":",
            "\"availability\": {\"host\": {\"kind\": \"duty_cycle\", \"on_fraction\": 0.25, \"cycle_s\": 14400}},\n  \"projects\":",
        );
        let spec = ScenarioSpec::parse(&doc).unwrap();
        assert_eq!(
            spec.scenario.avail.host,
            OnOffSpec::duty_cycle(0.25, SimDuration::from_hours(4.0))
        );
        // Canonical output writes the lowered exponential form.
        assert!(spec.to_canonical_json().contains("\"kind\": \"exponential\""));
    }

    #[test]
    fn validation_goes_through_the_one_true_path() {
        let doc = minimal_doc().replace("\"resource_share\": 100", "\"resource_share\": -5");
        let spec = ScenarioSpec::parse(&doc).expect("structurally fine");
        let err = spec.build().unwrap_err();
        assert!(matches!(err, SpecError::Validation(_)), "{err}");
        assert!(err.to_string().contains("resource_share"), "{err}");
    }

    #[test]
    fn from_spec_matches_builder() {
        let s = kitchen_sink();
        let (got, _) = ScenarioSpec::from_scenario(&s).build().unwrap();
        assert_eq!(got.projects, s.projects);
        assert_eq!(got.seed, s.seed);
    }

    #[test]
    fn gpu_instances_on_cpu_app_rejected() {
        let doc = minimal_doc().replace(
            "\"runtime_mean_s\": 1000,",
            "\"runtime_mean_s\": 1000, \"gpu_instances\": 1,",
        );
        // Key order puts gpu_instances after runtime_mean_s; still rejected.
        let err = ScenarioSpec::parse(&doc).unwrap_err();
        assert!(matches!(err, SpecError::Invalid { .. }), "{err:?}");
    }
}
