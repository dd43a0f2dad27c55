//! `bce` subcommand implementations. Each returns its output as a string
//! so tests can assert on it; the binary prints it.

use crate::args::{ArgError, Args};
use bce_client::{ClientConfig, FetchPolicy, JobSchedPolicy};
use bce_controller::{
    paper_policies, population_header, run_manifest, sweep, CampaignError, CampaignManifest,
    CampaignOptions, CheckpointError, ManifestError, Metric, Table,
};
use bce_core::{render_timeline, Emulator, EmulatorConfig, FaultConfig, Scenario};
use bce_emboinc::{run_campaign, HostSelection, PopulationSpec, ReplicationPolicy, Workload};
use bce_fleet::{assign_shares, host_scenarios, run_fleet, Fleet, FleetHost, ShareStrategy};
use bce_obs::TraceEvent;
use bce_scenarios::{
    doc_from_scenario, scenario1, scenario2, scenario3, scenario4, LoadedScenario, ScenarioSource,
    ScenarioSpec, BUILTIN_NAMES,
};
use bce_sim::Rng;
use bce_types::{AppClass, Hardware, ProcType, ProjectId, ProjectSpec, SimDuration};

pub(crate) const HELP: &str = "\
bce — BOINC client emulator (reproduction of Anderson, 'Emulating
Volunteer Computing Scheduling Policies', 2011)

USAGE:
  Every command that emulates takes one scenario reference, positionally
  or as --scenario REF, resolved the same way everywhere: a builtin name
  (scenario1..scenario4, optionally prefixed builtin:), a JSON scenario
  spec (*.json, see docs/SCENARIO_FORMAT.md), or a client_state.xml
  dump. Spec files may carry a fault overlay, which the command applies.

  bce run <scenario-ref> [options]
      --days N        emulated days (default 10)
      --sched P       wrr | local | global | local-llf | global-dd
      --fetch P       orig | hysteresis
      --half-life S   REC half-life in seconds (global accounting)
      --deadline-check P   strict | grace:SECS | none (server-side, §4.3)
      --timeline      print the per-instance usage timeline
      --seed N        override the scenario seed

  bce compare <scenario-ref> [--days N] [--threads N]
      run every scheduling x fetch policy combination and tabulate

  bce scenario list | validate <ref> | print <ref>
      list        builtin scenarios plus *.json files under scenarios/
      validate    load a scenario ref and report every validation error
      print       emit the canonical JSON spec (usable as a golden file)

  bce campaign <manifest.json> [--threads N] [--out DIR]
      run a declarative campaign manifest (scenario refs x policies x
      seeds) through the resumable campaign runner; --out writes
      summary.json, table.txt and campaign.ckpt into DIR

  bce population [--hosts N] [--days N] [--seed N] [--threads N]
      Monte-Carlo policy study over a sampled host population
      (--threads 0, the default, uses one worker per CPU)
      --scenario REF         study this one scenario instead of the
                             sampled population (conflicts with --hosts)
      --checkpoint FILE      run crash-safe: write a resumable campaign
                             checkpoint (atomically) to FILE
      --checkpoint-every N   also write it every N completed runs
      --resume FILE          resume a killed campaign from FILE
                             (implies --checkpoint FILE)
      --max-runs N           stop after N runs, checkpoint, and exit
                             (budgeted execution; finish with --resume)

  bce export <scenario-ref> [--out FILE]
      write the scenario as a client_state.xml template

  bce fleet [--days N] [--threads N] [--scenario REF]
      cross-host share-enforcement study on a demo heterogeneous fleet:
      each strategy's share assignment, then its fleet share violation,
      throughput and per-project split; --scenario replaces the demo
      projects and seed with the referenced scenario's

  bce emboinc [--quick]
      server-side campaign study (EmBOINC direction): replication policy
      x host selection over a sampled volunteer population; --quick
      shrinks the campaign to 100 workunits on 60 hosts

  bce faults <scenario-ref> [options]
      sweep transient failure rate x {JS, JF} policy and tabulate the
      graceful degradation of the figures of merit; a rate-0 point must
      be bit-identical to a fault-free run (exit 1 otherwise).
      scenarios/scenario2_transfers.json has file transfers, so its
      sweep also exercises transfer faults
      --days N        emulated days (default 2)
      --rates LIST    comma-separated failure rates (default 0,0.05,0.1,0.2)
      --mtbf S        also inject host crashes with this mean time between
                      failures, in seconds
      --seed N        override the scenario seed

  bce bench [--quick] [--out FILE] [--scenario REF]
      run the standard benchmark scenario set and report, per scenario,
      wall time, event throughput, RR-simulation counters and cache hit
      rate, peak queue depth and jobs completed as JSON (the report CI's
      bench gate compares against BENCH_7_quick.json; --out writes the
      JSON and prints a summary table instead; --scenario REF benchmarks
      that scenario alongside the standard set)

  bce fig <1-6> [--days N] [--quick] [--json FILE] [--scenario REF]
      regenerate one of the paper's figures (CSVs under target/figures);
      --scenario REF replaces the figure's base scenario (figures 3-6)

  bce serve [options]
      run the hardened emulation daemon (HTTP/1.1 on a bounded worker
      pool; overload is shed with 503 + Retry-After; SIGTERM drains
      gracefully, parking campaigns as resumable checkpoints)
      --addr A:P          listen address (default 127.0.0.1:7070; port 0
                          picks a free port)
      --workers N         worker threads (default 4; 0 = one per CPU)
      --queue-depth N     admission queue capacity (default 64)
      --max-body-kib N    request body cap in KiB (default 1024)
      --deadline-secs N   per-campaign wall budget (default 120)
      --max-days D        emulated-days cap per request (default 60)
      --checkpoint-dir D  campaign checkpoint directory
      --chunk N           runs per campaign chunk (default 8)
      --scenario REF      default scenario for /run requests that give
                          neither ?scenario= nor a body

  bce chaos [options]
      prove checkpoint durability: run the standard population campaign
      under a seeded disk-fault schedule (short writes, EIO, ENOSPC,
      torn renames, power-cut truncation) with deterministic corruption
      of the newest checkpoint generation between segments, then assert
      the recovered final table is bit-identical to a fault-free
      uninterrupted reference run (exit 1 on mismatch, 3 on I/O failure)
      --hosts N           population size (default 6)
      --days N            emulated days (default 1)
      --seed N            population seed (default 1)
      --threads N         worker threads (0 = one per CPU)
      --chaos-seed N      disk-fault schedule seed (default 42)
      --segments N        kill/resume segments (default 4)
      --keep-generations N  checkpoint generations to keep (default 3)
      --torn-rename P     torn-rename probability   (default 0.25)
      --enospc P          ENOSPC probability        (default 0.25)
      --eio P             write-EIO probability     (default 0)
      --power-cut P       power-cut truncation prob (default 0)
      --read-eio P        read-EIO probability      (default 0)
      --corrupt P         per-segment probability of corrupting the
                          newest generation on disk (default 0.5)
      --dir D             scratch directory (default target/chaos)

  bce trace <scenario-ref> [options]
      run with tracing enabled and print the scheduling decision log
      (the typed trace; `bce trace my_client_state.xml` replays a
      volunteer's state file)
      --days N        emulated days (default 1)
      --sched P / --fetch P / --half-life S / --seed N   as for `run`
      --kind LIST     only these event kinds (comma-separated)
      --component LIST   only these components (sched,task,fetch,avail,xfer,fault)
      --since S       only events at sim time >= S seconds
      --until S       only events at sim time <= S seconds (not below --since)
      --limit N       print at most the first N matching events
      --capacity N    trace buffer capacity (default 1000000)
      --jsonl FILE    also write the matching events as JSON Lines

  bce help
";

/// A command error carrying the message to print on stderr and the
/// process exit code, so scripts and CI distinguish failure classes
/// without grepping stderr:
///
/// * `1` — generic failure (bad usage, mismatch, assertion failure)
/// * `2` — validation failure (the input is wrong)
/// * `3` — I/O failure (the input may be fine; the filesystem is not)
#[derive(Debug)]
pub struct CliError {
    pub(crate) message: String,
    pub exit_code: i32,
}

impl CliError {
    /// Generic failure (exit code 1).
    pub(crate) fn msg(message: String) -> Self {
        CliError { message, exit_code: 1 }
    }

    /// Validation failure (exit code 2): the input itself is wrong.
    pub(crate) fn validation(message: String) -> Self {
        CliError { message, exit_code: 2 }
    }

    /// I/O failure (exit code 3): the filesystem failed, not the input.
    pub(crate) fn io(message: String) -> Self {
        CliError { message, exit_code: 3 }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::msg(e.to_string())
    }
}

const VALUE_OPTS: &[&str] = &[
    "days",
    "sched",
    "fetch",
    "half-life",
    "deadline-check",
    "seed",
    "hosts",
    "out",
    "width",
    "rates",
    "mtbf",
    "threads",
    "json",
    "kind",
    "component",
    "since",
    "until",
    "limit",
    "capacity",
    "jsonl",
    "checkpoint",
    "checkpoint-every",
    "resume",
    "max-runs",
    "addr",
    "workers",
    "queue-depth",
    "max-body-kib",
    "deadline-secs",
    "max-days",
    "checkpoint-dir",
    "chunk",
    "scenario",
    "chaos-seed",
    "segments",
    "keep-generations",
    "torn-rename",
    "enospc",
    "eio",
    "power-cut",
    "read-eio",
    "corrupt",
    "dir",
];

/// Parse and run a full command line (without the program name). Returns
/// the text to print.
pub fn dispatch<I: IntoIterator<Item = String>>(raw: I) -> Result<String, CliError> {
    let args = Args::parse(raw, VALUE_OPTS)?;
    let cmd = args.positional.first().map(String::as_str).unwrap_or("help");
    // Each verb calls `Args::reject_unknown` once it has read its
    // options, before it emulates or writes anything.
    match cmd {
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "scenario" => cmd_scenario(&args),
        "campaign" => cmd_campaign(&args),
        "population" => cmd_population(&args),
        "export" => cmd_export(&args),
        "fleet" => cmd_fleet(&args),
        "faults" => cmd_faults(&args),
        "emboinc" => cmd_emboinc(&args),
        "bench" => cmd_bench(&args),
        "fig" => cmd_fig(&args),
        "trace" => cmd_trace(&args),
        "serve" => cmd_serve(&args),
        "chaos" => cmd_chaos(&args),
        "help" | "--help" => Ok(HELP.to_string()),
        other => Err(CliError::msg(format!("unknown command {other:?}\n\n{HELP}"))),
    }
}

/// The one scenario-reference grammar shared by every command: a builtin
/// name (`scenario1..scenario4`, optionally `builtin:`-prefixed), a JSON
/// scenario-spec path, or a `client_state.xml` path. `raw` resolves
/// through [`ScenarioSource`], so every command shares one error path.
fn load_source(raw: &str) -> Result<LoadedScenario, CliError> {
    ScenarioSource::parse(raw).load().map_err(|e| match e {
        // Classify for the exit code: a filesystem failure is not the
        // scenario's fault (exit 3); everything else is the input being
        // wrong (exit 2).
        bce_scenarios::SourceError::Io { .. } => CliError::io(e.to_string()),
        _ => CliError::validation(e.to_string()),
    })
}

/// Resolve a command's scenario from `--scenario REF` or the positional
/// reference (exactly one of the two), then apply `--seed`.
fn resolve_scenario(args: &Args) -> Result<LoadedScenario, CliError> {
    let raw = match (args.positional.get(1).map(String::as_str), args.opt("scenario")) {
        (Some(p), Some(f)) => {
            return Err(CliError::msg(format!(
                "scenario given twice: positional {p:?} and --scenario {f:?}"
            )));
        }
        (Some(p), None) => p,
        (None, Some(f)) => f,
        (None, None) => {
            return Err(CliError::msg(
                "expected a scenario reference: a builtin name (scenario1..scenario4), \
                 a JSON scenario spec, or a client_state.xml path"
                    .into(),
            ));
        }
    };
    let mut loaded = load_source(raw)?;
    if let Some(seed) = args.opt_parse::<u64>("seed")? {
        loaded.scenario.seed = seed;
    }
    Ok(loaded)
}

/// Like [`resolve_scenario`], but for commands whose positionals mean
/// something else (`fig <n>`): only `--scenario REF` is consulted.
fn resolve_scenario_flag_only(args: &Args) -> Result<LoadedScenario, CliError> {
    let raw =
        args.opt("scenario").ok_or_else(|| CliError::msg("expected --scenario REF".into()))?;
    let mut loaded = load_source(raw)?;
    if let Some(seed) = args.opt_parse::<u64>("seed")? {
        loaded.scenario.seed = seed;
    }
    Ok(loaded)
}

/// For commands that run their own fault schedule (or none at all): a
/// spec-carried fault overlay would be silently ignored, so refuse it.
fn reject_fault_overlay(loaded: &LoadedScenario, why: &str) -> Result<(), CliError> {
    if loaded.faults.is_some() {
        return Err(CliError::msg(format!(
            "{} carries a fault overlay, but {why}; drop the \"faults\" section",
            loaded.origin
        )));
    }
    Ok(())
}

/// Gate a batch of scenarios on the typed validator before any emulation
/// starts: the full `ScenarioErrors` list (every problem at once, not
/// just the first) comes back as the command error.
fn validate_all<'a>(scenarios: impl IntoIterator<Item = &'a Scenario>) -> Result<(), CliError> {
    for s in scenarios {
        s.validate().map_err(|e| CliError::msg(format!("invalid scenario {:?}: {e}", s.name)))?;
    }
    Ok(())
}

fn client_config(args: &Args) -> Result<ClientConfig, CliError> {
    let mut cfg = ClientConfig::default();
    if let Some(s) = args.opt("sched") {
        cfg.sched_policy = JobSchedPolicy::from_flag(s)
            .ok_or_else(|| CliError::msg(format!("unknown scheduling policy {s:?}")))?;
    }
    if let Some(f) = args.opt("fetch") {
        cfg.fetch_policy = FetchPolicy::from_flag(f)
            .ok_or_else(|| CliError::msg(format!("unknown fetch policy {f:?}")))?;
    }
    if let Some(hl) = args.opt_parse::<f64>("half-life")? {
        if hl <= 0.0 {
            return Err(CliError::msg("--half-life must be positive".into()));
        }
        cfg.rec_half_life = SimDuration::from_secs(hl);
    }
    Ok(cfg)
}

fn parse_deadline_check(v: &str) -> Result<bce_server::DeadlineCheckPolicy, CliError> {
    use bce_server::DeadlineCheckPolicy as DC;
    if v == "strict" {
        return Ok(DC::Strict);
    }
    if v == "none" {
        return Ok(DC::None);
    }
    if let Some(secs) = v.strip_prefix("grace:") {
        let g: f64 = secs
            .parse()
            .map_err(|_| CliError::msg(format!("--deadline-check grace:SECS, got {v:?}")))?;
        if g < 0.0 {
            return Err(CliError::msg("--deadline-check grace must be non-negative".into()));
        }
        return Ok(DC::Grace(SimDuration::from_secs(g)));
    }
    Err(CliError::msg(format!("unknown deadline-check policy {v:?}")))
}

/// `--days` as every emulating verb reads it: `default` when absent
/// (figure 2's is 0: it emulates nothing), otherwise a finite, positive
/// number of days. This is the rule the manifest parser and the daemon's
/// `days` parameter apply; anything else is a validation failure (exit
/// 2), not a run with a nonsense horizon (an infinite one never ends).
fn days_opt(args: &Args, default: f64) -> Result<f64, CliError> {
    match args.opt_parse::<f64>("days")? {
        None => Ok(default),
        Some(days) if days.is_finite() && days > 0.0 => Ok(days),
        Some(days) => Err(CliError::validation(format!(
            "--days must be a positive finite number, got {days}"
        ))),
    }
}

fn cmd_run(args: &Args) -> Result<String, CliError> {
    let LoadedScenario { scenario, faults, .. } = resolve_scenario(args)?;
    let client = client_config(args)?;
    let days = days_opt(args, 10.0)?;
    let want_timeline = args.flag("timeline");
    let width: usize = if want_timeline { args.opt_or("width", 96usize)? } else { 0 };
    let mut emu = EmulatorConfig {
        duration: SimDuration::from_days(days),
        record_timeline: want_timeline,
        faults: faults.unwrap_or(FaultConfig::OFF),
        ..Default::default()
    };
    if let Some(dc) = args.opt("deadline-check") {
        emu.deadline_check = parse_deadline_check(dc)?;
    }
    args.reject_unknown()?;
    let result = Emulator::new(scenario, client, emu).run();
    let mut out = format!("{result}");
    if let Some(tl) = &result.timeline {
        out.push('\n');
        out.push_str(&render_timeline(tl, width));
    }
    Ok(out)
}

fn cmd_compare(args: &Args) -> Result<String, CliError> {
    let LoadedScenario { scenario, faults, .. } = resolve_scenario(args)?;
    let days = days_opt(args, 10.0)?;
    let threads: usize = args.opt_or("threads", 0usize)?;
    args.reject_unknown()?;
    let emu = EmulatorConfig {
        duration: SimDuration::from_days(days),
        faults: faults.unwrap_or(FaultConfig::OFF),
        ..Default::default()
    };
    // A comparison is a sweep at one point.
    let cmp = sweep("scenario", &[0.0], &paper_policies(), &emu, threads, |_| scenario.clone());
    let mut out = format!("policy comparison on {} ({days} days):\n\n", scenario.name);
    out.push_str(&cmp.merit_table(0).render());
    out.push('\n');
    out.push_str(&cmp.bars(0, Metric::ShareViolation, 40));
    out.push_str(&cmp.bars(0, Metric::RpcsPerJob, 40));
    Ok(out)
}

/// `bce scenario list | validate <ref> | print <ref>` — the scenario
/// toolbox around the declarative JSON format.
fn cmd_scenario(args: &Args) -> Result<String, CliError> {
    let action = args.positional.get(1).map(String::as_str).unwrap_or("list");
    args.reject_unknown()?;
    match action {
        "list" => {
            let mut out = String::from("builtin scenarios:\n");
            for name in BUILTIN_NAMES {
                out.push_str(&format!("  builtin:{name}\n"));
            }
            let dir = std::path::Path::new("scenarios");
            let mut files: Vec<String> = match std::fs::read_dir(dir) {
                Ok(entries) => entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "json"))
                    .map(|p| p.display().to_string())
                    .collect(),
                Err(_) => Vec::new(),
            };
            files.sort();
            if !files.is_empty() {
                out.push_str("\nscenario files:\n");
                for f in &files {
                    out.push_str(&format!("  {f}\n"));
                }
            }
            Ok(out)
        }
        "validate" => {
            let raw = args.positional.get(2).ok_or_else(|| {
                CliError::msg("scenario validate: expected a scenario reference".into())
            })?;
            let loaded = load_source(raw)?;
            let s = &loaded.scenario;
            Ok(format!(
                "{}: OK — {} projects, {} initial jobs, host {:.1} GFLOPS, seed {}{}\n",
                loaded.origin,
                s.projects.len(),
                s.initial_queue.len(),
                s.hardware.total_peak_flops() / 1e9,
                s.seed,
                if loaded.faults.is_some() { ", fault overlay" } else { "" },
            ))
        }
        "print" => {
            let raw = args.positional.get(2).ok_or_else(|| {
                CliError::msg("scenario print: expected a scenario reference".into())
            })?;
            let loaded = load_source(raw)?;
            let mut spec = ScenarioSpec::new(loaded.scenario);
            if let Some(f) = loaded.faults {
                spec = spec.with_faults(f);
            }
            Ok(spec.to_canonical_json())
        }
        other => Err(CliError::msg(format!(
            "unknown scenario action {other:?} (expected list, validate or print)"
        ))),
    }
}

/// `bce campaign <manifest.json>` — run a declarative campaign manifest
/// through the resumable campaign runner.
fn cmd_campaign(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::msg("expected a campaign manifest path".into()))?;
    let threads: usize = args.opt_or("threads", 0usize)?;
    let out_dir = args.opt("out").map(std::path::PathBuf::from);
    args.reject_unknown()?;
    let manifest = CampaignManifest::read_from(std::path::Path::new(path))
        .map_err(|e| CliError::msg(e.to_string()))?;
    let opts = CampaignOptions::default();
    let outcome = run_manifest(&manifest, threads, &opts, out_dir.as_deref())
        .map_err(|e| CliError::msg(e.to_string()))?;
    let mut out = format!(
        "campaign {:?}: {} days, {} policies, {}/{} runs\n",
        manifest.name,
        manifest.days,
        manifest.policies.len(),
        outcome.report.completed_runs,
        outcome.report.total_runs,
    );
    for e in &outcome.report.errors {
        out.push_str(&format!("# quarantined: {e}\n"));
    }
    out.push('\n');
    out.push_str(&outcome.table);
    out.push_str(&format!("\ntable fingerprint: {:016x}\n", outcome.table_fingerprint));
    if let Some(dir) = &out_dir {
        out.push_str(&format!("wrote {}\n", dir.join("summary.json").display()));
    }
    Ok(out)
}

/// `bce population` — a thin builder: the flags become an in-memory
/// manifest (the standard sampled population, or one `--scenario`),
/// and the campaign runs through [`run_manifest`] like every other
/// front end. All status lines start with "# " so scripts comparing
/// tables can strip them.
fn cmd_population(args: &Args) -> Result<String, CliError> {
    let days = days_opt(args, 2.0)?;
    let threads: usize = args.opt_or("threads", 0usize)?;
    let resume_path = args.opt("resume").map(std::path::PathBuf::from);
    let checkpoint_path =
        args.opt("checkpoint").map(std::path::PathBuf::from).or_else(|| resume_path.clone());
    let checkpoint_every: usize = args.opt_or("checkpoint-every", 0usize)?;
    let max_runs: Option<usize> = args.opt_parse("max-runs")?;
    let (manifest, mut out) = if args.opt("scenario").is_some() {
        // Single-scenario study through the unified resolver.
        if args.opt("hosts").is_some() {
            return Err(CliError::msg(
                "--scenario and --hosts conflict: a referenced scenario \
                                 replaces the sampled population"
                    .into(),
            ));
        }
        let loaded = resolve_scenario(args)?;
        let header = format!(
            "population study: scenario {} x {days} days (seed {})\n\n",
            loaded.scenario.name, loaded.scenario.seed
        );
        (CampaignManifest::single_scenario(loaded, days), header)
    } else {
        let hosts: usize = args.opt_or("hosts", 16usize)?;
        let seed: u64 = args.opt_or("seed", 1u64)?;
        (
            CampaignManifest::sampled_population(hosts, seed, days),
            population_header(hosts, days, seed),
        )
    };
    args.reject_unknown()?;
    let opts = CampaignOptions {
        checkpoint_path: checkpoint_path.clone(),
        checkpoint_every_runs: checkpoint_every,
        resume: resume_path.is_some(),
        stop_after_runs: max_runs,
        ..Default::default()
    };
    let outcome = run_manifest(&manifest, threads, &opts, None).map_err(manifest_cli_error)?;
    let report = &outcome.report;
    if let Some(rec) = report.recovery.as_ref().filter(|r| r.recovered()) {
        out.push_str(&format!("# checkpoint recovery: {}\n", rec.describe()));
    }
    if report.resumed_runs > 0 {
        out.push_str(&format!(
            "# resumed: {}/{} runs restored from checkpoint\n",
            report.resumed_runs, report.total_runs
        ));
    }
    for e in &report.errors {
        out.push_str(&format!("# quarantined: {e}\n"));
    }
    if report.completed_runs < report.total_runs {
        out.push_str(&format!(
            "# stopped after {}/{} runs (--max-runs); finish with --resume\n",
            report.completed_runs, report.total_runs
        ));
    }
    out.push_str(&outcome.table);
    if let Some(p) = &checkpoint_path {
        out.push_str(&format!("# checkpoint: {}\n", p.display()));
    }
    Ok(out)
}

/// Classify a manifest-run failure for the exit code: campaign failures
/// as [`campaign_cli_error`], anything else generic.
fn manifest_cli_error(e: ManifestError) -> CliError {
    match e {
        ManifestError::Campaign(e) => campaign_cli_error(e),
        e => CliError::msg(e.to_string()),
    }
}

/// Classify a campaign failure for the exit code: filesystem and
/// corruption failures are I/O (exit 3); mismatches and malformed
/// documents are generic (exit 1) — the disk is fine, the request isn't.
fn campaign_cli_error(e: CampaignError) -> CliError {
    match &e {
        CampaignError::Checkpoint(CheckpointError::Io { .. } | CheckpointError::Corrupt { .. }) => {
            CliError::io(e.to_string())
        }
        _ => CliError::msg(e.to_string()),
    }
}

/// `bce chaos` — prove the checkpoint store recovers under a seeded
/// disk-fault schedule.
///
/// The harness builds the standard sampled-population manifest and runs
/// it through [`run_manifest`] twice: once fault-free and uninterrupted,
/// with no checkpoint store at all (the reference), then again in
/// segments over a fault-injecting I/O backend, with deterministic
/// corruption of the newest checkpoint generation between segments. If
/// rotation + CRC fallback work, the recovered campaign's final table
/// is bit-identical to the reference — asserted by FNV fingerprint.
fn cmd_chaos(args: &Args) -> Result<String, CliError> {
    let hosts: usize = args.opt_or("hosts", 6usize)?;
    let days = days_opt(args, 1.0)?;
    let seed: u64 = args.opt_or("seed", 1u64)?;
    let threads: usize = args.opt_or("threads", 0usize)?;
    let chaos_seed: u64 = args.opt_or("chaos-seed", 42u64)?;
    let segments: usize = args.opt_or("segments", 4usize)?.max(1);
    let keep: usize = args.opt_or("keep-generations", 3usize)?;
    let fault_cfg = bce_faults::DiskFaultConfig {
        write_eio_prob: args.opt_or("eio", 0.0)?,
        write_enospc_prob: args.opt_or("enospc", 0.25)?,
        power_cut_prob: args.opt_or("power-cut", 0.0)?,
        torn_rename_prob: args.opt_or("torn-rename", 0.25)?,
        read_eio_prob: args.opt_or("read-eio", 0.0)?,
    };
    let corrupt_prob: f64 = args.opt_or("corrupt", 0.5)?;
    for (name, p) in [
        ("--eio", fault_cfg.write_eio_prob),
        ("--enospc", fault_cfg.write_enospc_prob),
        ("--power-cut", fault_cfg.power_cut_prob),
        ("--torn-rename", fault_cfg.torn_rename_prob),
        ("--read-eio", fault_cfg.read_eio_prob),
        ("--corrupt", corrupt_prob),
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(CliError::validation(format!("{name} must be in [0, 1], got {p}")));
        }
    }
    let scratch = std::path::PathBuf::from(args.opt("dir").unwrap_or("target/chaos").to_string())
        .join(format!("run-{chaos_seed}"));
    args.reject_unknown()?;

    let manifest = CampaignManifest::sampled_population(hosts, seed, days);

    let mut out = format!(
        "# chaos: {hosts} hosts x {} policies x {days} days (seed {seed}), \
         chaos seed {chaos_seed}, {segments} segments\n\
         # faults: eio {} enospc {} power-cut {} torn-rename {} read-eio {} corrupt {}\n",
        manifest.policies.len(),
        fault_cfg.write_eio_prob,
        fault_cfg.write_enospc_prob,
        fault_cfg.power_cut_prob,
        fault_cfg.torn_rename_prob,
        fault_cfg.read_eio_prob,
        corrupt_prob,
    );

    // Fault-free, uninterrupted reference: the same manifest with no
    // checkpoint store, so no disk I/O the faults could touch.
    let reference = run_manifest(&manifest, threads, &CampaignOptions::default(), None)
        .map_err(manifest_cli_error)?;
    let ref_fp = reference.table_fingerprint;
    out.push_str(&format!("# reference fingerprint: {ref_fp:016x}\n"));

    // Fresh scratch store under the fault-injecting backend.
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| CliError::io(format!("cannot create {}: {e}", scratch.display())))?;
    let base = scratch.join("campaign.ckpt");
    let faulty = std::sync::Arc::new(bce_statefile::FaultyIo::new(
        bce_statefile::RealIo,
        bce_faults::DiskFaultPlan::new(chaos_seed, fault_cfg),
    ));
    let io: bce_statefile::SharedIo = faulty.clone();
    // Un-faulted probe for the harness's own bookkeeping (resume
    // detection, between-segment corruption) — harness I/O must not
    // consume fault-schedule draws.
    let probe = bce_statefile::CheckpointStore::with_real_io(&base, keep);
    let mut corrupt_rng = bce_sim::Rng::stream(chaos_seed, "chaos-corrupt");

    let total = reference.report.total_runs;
    let per_segment = total.div_ceil(segments).max(1);
    let max_attempts = segments * 10 + 20;
    let mut attempts = 0usize;
    let mut recoveries = 0u64;
    let mut write_failures = 0u64;
    let mut pruned = 0u64;

    let outcome = loop {
        attempts += 1;
        if attempts > max_attempts {
            return Err(CliError::io(format!(
                "chaos campaign did not complete within {max_attempts} attempts — \
                 the fault schedule starves every checkpoint write; lower the rates"
            )));
        }
        let opts = CampaignOptions {
            checkpoint_path: Some(base.clone()),
            checkpoint_every_runs: 1,
            resume: probe.any_checkpoint_present(),
            stop_after_runs: Some(per_segment),
            keep_generations: keep,
            io: Some(io.clone()),
        };
        match run_manifest(&manifest, threads, &opts, None) {
            Ok(outcome) => {
                let r = &outcome.report;
                write_failures += r.checkpoint_write_failures;
                pruned += r.generations_pruned;
                if let Some(rec) = r.recovery.as_ref().filter(|x| x.recovered()) {
                    recoveries += 1;
                    out.push_str(&format!("# recovery: {}\n", rec.describe()));
                }
                if r.completed_runs >= r.total_runs {
                    break outcome;
                }
                // Between segments: bit rot strikes the newest
                // generation, seeded and replayable.
                if corrupt_prob > 0.0 && corrupt_rng.chance(corrupt_prob) {
                    corrupt_newest_generation(&probe, &mut corrupt_rng, &mut out)?;
                }
            }
            Err(ManifestError::Campaign(CampaignError::Checkpoint(e))) => {
                // A failed checkpoint write or read: note it and retry
                // the segment from the last good generation. If every
                // generation is corrupt the store refuses to guess —
                // the harness restarts the campaign *explicitly*.
                out.push_str(&format!("# checkpoint failure (segment retried): {e}\n"));
                if bce_controller::CampaignCheckpoint::read_from(&base).is_err()
                    && probe.any_checkpoint_present()
                {
                    out.push_str(
                        "# every generation corrupt: clearing store, restarting campaign\n",
                    );
                    probe
                        .clear()
                        .map_err(|e| CliError::io(format!("cannot clear the store: {e}")))?;
                }
            }
            Err(e) => return Err(CliError::msg(format!("chaos campaign failed: {e}"))),
        }
    };

    let fp = outcome.table_fingerprint;
    let stats = faulty.stats();
    out.push_str(&format!(
        "# injected: {stats}\n\
         # recoveries: {recoveries}, checkpoint write failures: {write_failures}, \
         generations pruned: {pruned}, attempts: {attempts}\n"
    ));
    out.push_str(&outcome.table);
    if fp == ref_fp {
        out.push_str(&format!(
            "# chaos: PASS — recovered fingerprint {fp:016x} matches fault-free reference\n"
        ));
        Ok(out)
    } else {
        Err(CliError::msg(format!(
            "chaos: FAIL — recovered table fingerprint {fp:016x} != fault-free \
             reference {ref_fp:016x}\n{out}"
        )))
    }
}

/// Damage the newest on-disk generation in a seeded, replayable way:
/// truncate it, flip one bit, or zero-fill a range. Only strikes when a
/// fallback generation exists — all-corrupt liveness is exercised by the
/// store's own tests, not the end-to-end fingerprint harness.
fn corrupt_newest_generation(
    probe: &bce_statefile::CheckpointStore,
    rng: &mut bce_sim::Rng,
    out: &mut String,
) -> Result<(), CliError> {
    let gens = probe
        .generations_on_disk()
        .map_err(|e| CliError::io(format!("cannot list checkpoint generations: {e}")))?;
    let Some(&newest) = gens.last() else { return Ok(()) };
    if gens.len() < 2 {
        return Ok(());
    }
    let path = probe.generation_path(newest);
    let mut bytes = std::fs::read(&path)
        .map_err(|e| CliError::io(format!("cannot read {}: {e}", path.display())))?;
    if bytes.is_empty() {
        return Ok(());
    }
    let what = match rng.below(3) {
        0 => {
            let cut = rng.below(bytes.len());
            bytes.truncate(cut);
            format!("truncated gen {newest} to {cut} bytes")
        }
        1 => {
            let i = rng.below(bytes.len());
            let bit = rng.below(8) as u8;
            bytes[i] ^= 1 << bit;
            format!("flipped bit {bit} of byte {i} in gen {newest}")
        }
        _ => {
            let from = rng.below(bytes.len());
            let to = (from + 1 + rng.below(bytes.len() - from)).min(bytes.len());
            bytes[from..to].fill(0);
            format!("zero-filled bytes {from}..{to} of gen {newest}")
        }
    };
    std::fs::write(&path, &bytes)
        .map_err(|e| CliError::io(format!("cannot corrupt {}: {e}", path.display())))?;
    out.push_str(&format!("# corruption: {what}\n"));
    Ok(())
}

fn cmd_export(args: &Args) -> Result<String, CliError> {
    let loaded = resolve_scenario(args)?;
    reject_fault_overlay(&loaded, "client_state.xml cannot express faults")?;
    let out = args.opt("out");
    args.reject_unknown()?;
    let xml = doc_from_scenario(&loaded.scenario).render();
    match out {
        Some(path) => {
            std::fs::write(path, &xml)
                .map_err(|e| CliError::msg(format!("cannot write {path}: {e}")))?;
            Ok(format!("wrote {path} ({} bytes)\n", xml.len()))
        }
        None => Ok(xml),
    }
}

fn demo_fleet() -> Fleet {
    Fleet {
        hosts: vec![
            FleetHost::new("cpu-box", Hardware::cpu_only(8, 2e9)),
            FleetHost::new(
                "gpu-box",
                Hardware::cpu_only(2, 1e9).with_group(ProcType::NvidiaGpu, 1, 2e10),
            ),
            FleetHost::new("laptop", Hardware::cpu_only(2, 1.5e9)),
        ],
        projects: vec![
            ProjectSpec::new(0, "mixed", 100.0)
                .with_app(AppClass::gpu(
                    0,
                    ProcType::NvidiaGpu,
                    SimDuration::from_secs(1000.0),
                    SimDuration::from_hours(24.0),
                ))
                .with_app(AppClass::cpu(
                    1,
                    SimDuration::from_secs(2000.0),
                    SimDuration::from_hours(24.0),
                )),
            ProjectSpec::new(1, "cpu_only", 100.0).with_app(AppClass::cpu(
                2,
                SimDuration::from_secs(1000.0),
                SimDuration::from_hours(24.0),
            )),
        ],
        seed: 11,
    }
}

fn cmd_fleet(args: &Args) -> Result<String, CliError> {
    let days = days_opt(args, 1.0)?;
    let threads: usize = args.opt_or("threads", 0usize)?;
    let mut fleet = demo_fleet();
    if args.opt("scenario").is_some() {
        // The referenced scenario supplies the project mix and seed; the
        // demo hosts stay (the study is about cross-host shares).
        let loaded = resolve_scenario(args)?;
        reject_fault_overlay(&loaded, "the fleet study does not inject faults")?;
        fleet.projects = loaded.scenario.projects.clone();
        fleet.seed = loaded.scenario.seed;
    }
    args.reject_unknown()?;
    let emu = EmulatorConfig { duration: SimDuration::from_days(days), ..Default::default() };
    let name_of = |p: ProjectId| &fleet.projects.iter().find(|q| q.id == p).unwrap().name;
    let mut out = format!(
        "cross-host share enforcement (§6.2): {} hosts, {} projects, {days} days/host\n\n",
        fleet.hosts.len(),
        fleet.projects.len()
    );
    let mut table =
        Table::new(&["strategy", "fleet share violation", "total TFLOP-days", "per-project split"]);
    for strategy in [ShareStrategy::PerHost, ShareStrategy::CrossHost] {
        let assignment = assign_shares(&fleet, strategy);
        validate_all(host_scenarios(&fleet, &assignment).iter())?;
        out.push_str(&format!("{} share assignment:\n", strategy.name()));
        for (host, shares) in fleet.hosts.iter().zip(&assignment) {
            let total: f64 = shares.iter().map(|(_, s)| s).sum();
            let detail: Vec<String> = shares
                .iter()
                .map(|&(p, s)| format!("{} {:.0}%", name_of(p), 100.0 * s / total.max(1e-9)))
                .collect();
            out.push_str(&format!("  {:<8} {}\n", host.name, detail.join(", ")));
        }
        out.push('\n');
        let r = run_fleet(&fleet, strategy, ClientConfig::default(), &emu, threads);
        let split: Vec<String> = r
            .per_project_flops
            .iter()
            .map(|&(p, f)| format!("{} {:.1}%", name_of(p), 100.0 * f / r.total_flops.max(1e-9)))
            .collect();
        table.row(&[
            strategy.name().to_string(),
            format!("{:.4}", r.fleet_share_violation),
            format!("{:.2}", r.total_flops / 1e12 / 86_400.0),
            split.join(", "),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nexpected: cross-host violates the volunteer's 50/50 intent far less,\n\
         at equal (or better) total throughput.\n",
    );
    Ok(out)
}

/// The {JS} x {JF} grid swept by `bce faults`: the `bce compare` grid
/// without WRR, i.e. LOCAL/GLOBAL scheduling crossed with ORIG/HYSTERESIS
/// fetch (WRR shares the LOCAL fetch path and only pads the table).
fn fault_policies() -> Vec<(String, ClientConfig)> {
    paper_policies().into_iter().filter(|(_, c)| c.sched_policy != JobSchedPolicy::WRR).collect()
}

fn parse_rates(args: &Args) -> Result<Vec<f64>, CliError> {
    let rates: Vec<f64> = match args.opt("rates") {
        Some(list) => list
            .split(',')
            .map(|r| {
                r.trim()
                    .parse::<f64>()
                    .map_err(|_| CliError::msg(format!("--rates: not a number: {r:?}")))
            })
            .collect::<Result<_, _>>()?,
        None => vec![0.0, 0.05, 0.1, 0.2],
    };
    if rates.is_empty() {
        return Err(CliError::msg("--rates: expected at least one rate".into()));
    }
    for &r in &rates {
        if !(0.0..=1.0).contains(&r) {
            return Err(CliError::msg(format!("--rates: rate {r} outside [0, 1]")));
        }
    }
    Ok(rates)
}

fn cmd_faults(args: &Args) -> Result<String, CliError> {
    let loaded = resolve_scenario(args)?;
    reject_fault_overlay(&loaded, "the faults command sweeps its own fault rates")?;
    let scenario = loaded.scenario;
    let days = days_opt(args, 2.0)?;
    let rates = parse_rates(args)?;
    let mtbf = match args.opt_parse::<f64>("mtbf")? {
        Some(m) if m <= 0.0 => return Err(CliError::msg("--mtbf must be positive".into())),
        m => m.map(SimDuration::from_secs),
    };
    args.reject_unknown()?;
    let duration = SimDuration::from_days(days);

    let mut table = Table::new(&[
        "policy",
        "rate",
        "jobs",
        "errored",
        "RPCs/job",
        "RPC fail",
        "xfer fail",
        "crashes",
        "recovery",
        "fault-waste",
        "wasted",
        "idle",
    ]);
    let mut identity: Option<bool> = None;
    for (name, cfg) in fault_policies() {
        for &rate in &rates {
            let mut faults = FaultConfig::with_failure_rate(rate);
            faults.crash_mtbf = mtbf;
            let emu = EmulatorConfig { duration, faults, ..Default::default() };
            let r = Emulator::new(scenario.clone(), cfg, emu).run();
            if rate == 0.0 && mtbf.is_none() {
                // Zero-fault identity: a rate-0 sweep point must be
                // bit-identical to a run that never mentions faults at all.
                let plain = EmulatorConfig { duration, ..Default::default() };
                let base = Emulator::new(scenario.clone(), cfg, plain).run();
                let same = base.bit_fingerprint() == r.bit_fingerprint();
                identity = Some(identity.unwrap_or(true) && same);
            }
            let fm = &r.faults;
            table.row(&[
                name.clone(),
                format!("{rate:.2}"),
                r.jobs_completed.to_string(),
                fm.jobs_errored.to_string(),
                format!("{:.3}", r.merit.rpcs_per_job),
                fm.transient_rpc_failures.to_string(),
                fm.transfer_failures.to_string(),
                fm.crashes.to_string(),
                if fm.recoveries > 0 {
                    format!("{:.0}s", fm.mean_recovery_secs)
                } else {
                    "-".to_string()
                },
                format!("{:.4}", fm.fault_wasted_fraction),
                format!("{:.4}", r.merit.wasted_fraction),
                format!("{:.4}", r.merit.idle_fraction),
            ]);
        }
    }

    let mut out = format!(
        "graceful degradation under injected faults: {} ({days} days{})\n\n",
        scenario.name,
        match mtbf {
            Some(m) => format!(", crash MTBF {m}"),
            None => String::new(),
        }
    );
    out.push_str(&table.render());
    match identity {
        Some(true) => out.push_str(
            "\nzero-fault identity: OK (rate 0 reproduces the no-fault baseline bit-for-bit)\n",
        ),
        Some(false) => {
            return Err(CliError::msg(format!(
                "zero-fault identity: MISMATCH — fault plumbing perturbs the baseline\n{out}"
            )));
        }
        None => {}
    }
    Ok(out)
}

/// The EmBOINC-direction campaign (§6.1): one project runs a workunit
/// campaign against a sampled volunteer population under every
/// replication policy x host-selection strategy.
fn cmd_emboinc(args: &Args) -> Result<String, CliError> {
    let (nhosts, nwus) = if args.flag("quick") { (60, 100) } else { (200, 500) };
    args.reject_unknown()?;
    let mut rng = Rng::stream(2011, "population");
    let hosts = PopulationSpec { nhosts, ..Default::default() }.sample(&mut rng);
    let workload = Workload { nworkunits: nwus, ..Default::default() };
    let mut table = Table::new(&[
        "replication",
        "selection",
        "validated",
        "failed",
        "mean makespan (d)",
        "p95 (d)",
        "replicas",
        "waste frac",
    ]);
    for replication in
        [ReplicationPolicy::SINGLE, ReplicationPolicy::REDUNDANT, ReplicationPolicy::EAGER]
    {
        for selection in
            [HostSelection::Random, HostSelection::FastestFirst, HostSelection::ReliableFirst]
        {
            let r = run_campaign(&hosts, &workload, replication, selection, 7);
            table.row(&[
                replication.name(),
                selection.name().to_string(),
                r.completed.to_string(),
                r.failed.to_string(),
                format!("{:.2}", r.makespan.mean() / 86_400.0),
                format!("{:.2}", r.makespan_p95 / 86_400.0),
                r.replicas_issued.to_string(),
                format!("{:.3}", r.waste_fraction()),
            ]);
        }
    }
    Ok(format!(
        "EmBOINC-style server campaign: {nwus} workunits on {nhosts} hosts\n\
         (log-normal speeds; error/vanish tails; 7-day replica deadline)\n\n\
         {}\n\
         expected shapes: R2/Q2 doubles replicas for validation; eager R3/Q1 cuts\n\
         latency at a waste cost; reliable-first reduces waste, fastest-first\n\
         reduces makespan while hosts outnumber outstanding replicas.\n",
        table.render()
    ))
}

fn cmd_bench(args: &Args) -> Result<String, CliError> {
    let quick = args.flag("quick");
    let out = args.opt("out");
    // `--scenario REF` benchmarks that scenario alongside the standard
    // set, through the same resolver as every other command.
    let extra = match args.opt("scenario") {
        Some(_) => {
            let loaded = resolve_scenario(args)?;
            reject_fault_overlay(&loaded, "the benchmark measures fault-free throughput")?;
            Some((loaded.origin, loaded.scenario))
        }
        None => None,
    };
    args.reject_unknown()?;
    // The bench scenario set is built-in, but it goes through the same
    // validation gate as user submissions before any emulation starts.
    validate_all(&[
        scenario1(SimDuration::from_secs(1500.0)),
        scenario2(),
        scenario3(),
        scenario4(),
    ])?;
    let report = crate::perf_report::run_bench(quick, extra);
    let json = crate::perf_report::to_json(&report);
    match out {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| CliError::msg(format!("cannot write {path}: {e}")))?;
            Ok(format!(
                "benchmark suite ({} mode):\n\n{}\nwrote {path}\n",
                if quick { "quick" } else { "full" },
                crate::perf_report::summary(&report)
            ))
        }
        None => Ok(json),
    }
}

fn cmd_fig(args: &Args) -> Result<String, CliError> {
    let n: u32 = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::msg("expected a figure number (1-6)".into()))?
        .parse()
        .map_err(|_| CliError::msg("expected a figure number (1-6)".into()))?;
    let quick = args.flag("quick");
    let mut days = days_opt(args, bce_bench::figs::default_days(n))?;
    if quick {
        // Quick mode is a smoke run: at most one emulated day.
        days = days.min(1.0);
    }
    let json = args.opt("json").map(std::path::PathBuf::from);
    // `--scenario REF` replaces the figure's base scenario (figures 3-6).
    let scenario = match args.opt("scenario") {
        Some(_) => {
            let loaded = resolve_scenario_flag_only(args)?;
            reject_fault_overlay(&loaded, "figures run fault-free")?;
            Some(loaded.scenario)
        }
        None => None,
    };
    args.reject_unknown()?;
    let opts = bce_bench::FigOpts { days, quick, json, scenario };
    // Figures run on the paper's built-in scenarios; validate them with
    // the same typed gate as user submissions before any emulation.
    validate_all(&[
        scenario1(SimDuration::from_secs(1500.0)),
        scenario2(),
        scenario3(),
        scenario4(),
    ])?;
    bce_bench::figs::run_fig(n, &opts).map_err(CliError::msg)
}

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    use std::io::Write as _;

    let mut cfg = bce_serve::ServeConfig::default();
    if let Some(addr) = args.opt("addr") {
        cfg.addr = addr.to_string();
    }
    cfg.workers = args.opt_or("workers", cfg.workers)?;
    cfg.queue_depth = args.opt_or("queue-depth", cfg.queue_depth)?;
    if cfg.queue_depth == 0 {
        return Err(CliError::msg("--queue-depth must be positive".into()));
    }
    if let Some(kib) = args.opt_parse::<usize>("max-body-kib")? {
        cfg.max_body_bytes = kib.saturating_mul(1024).max(1);
    }
    if let Some(secs) = args.opt_parse::<u64>("deadline-secs")? {
        cfg.request_deadline = std::time::Duration::from_secs(secs.max(1));
    }
    cfg.max_days = args.opt_or("max-days", cfg.max_days)?;
    if !cfg.max_days.is_finite() || cfg.max_days <= 0.0 {
        return Err(CliError::msg("--max-days must be positive".into()));
    }
    if let Some(dir) = args.opt("checkpoint-dir") {
        cfg.checkpoint_dir = std::path::PathBuf::from(dir);
    }
    cfg.campaign_chunk_runs = args.opt_or("chunk", cfg.campaign_chunk_runs)?.max(1);
    if let Some(src) = args.opt("scenario") {
        // Resolve once at startup so a bad default fails here, loudly,
        // not on the first defaulted request.
        load_source(src)?;
        cfg.default_scenario = Some(src.to_string());
    }
    args.reject_unknown()?;

    let server = bce_serve::Server::bind(cfg)
        .map_err(|e| CliError::msg(format!("cannot bind the listener: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::msg(format!("cannot resolve the bound address: {e}")))?;
    // `run` blocks until drained; announce readiness first so wrappers
    // (and the CI smoke job) can poll for this line. A closed stdout
    // must not stop the daemon, so write errors are ignored.
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "bce-serve listening on http://{addr} (SIGTERM or SIGINT drains)")
        .and_then(|()| stdout.flush());
    let summary = server.run();
    Ok(format!("{summary}\n"))
}

/// Parse a comma-separated `--kind`/`--component` filter, validating each
/// entry against the schema's closed vocabulary so typos fail loudly.
fn parse_name_filter(
    args: &Args,
    opt: &str,
    allowed: &[&str],
) -> Result<Option<Vec<String>>, CliError> {
    let Some(list) = args.opt(opt) else { return Ok(None) };
    let names: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
    for n in &names {
        if !allowed.contains(&n.as_str()) {
            return Err(CliError::msg(format!(
                "--{opt}: unknown value {n:?} (expected one of: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(Some(names))
}

fn cmd_trace(args: &Args) -> Result<String, CliError> {
    use bce_obs::export::{record_to_json, to_jsonl};

    let LoadedScenario { scenario, faults, .. } = resolve_scenario(args)?;
    let client = client_config(args)?;
    let days = days_opt(args, 1.0)?;
    let capacity: usize = args.opt_or("capacity", 1_000_000usize)?;
    if capacity == 0 {
        return Err(CliError::msg("--capacity must be positive".into()));
    }
    let kinds = parse_name_filter(args, "kind", TraceEvent::KINDS)?;
    let components = parse_name_filter(args, "component", TraceEvent::COMPONENTS)?;
    let since: Option<f64> = args.opt_parse("since")?;
    let until: Option<f64> = args.opt_parse("until")?;
    if let (Some(s), Some(u)) = (since, until) {
        if s > u {
            return Err(CliError::validation(format!(
                "--since {s} is after --until {u}: the window is empty"
            )));
        }
    }
    let limit: Option<usize> = args.opt_parse("limit")?;
    let jsonl_path = args.opt("jsonl");
    args.reject_unknown()?;

    let emu = EmulatorConfig {
        duration: SimDuration::from_days(days),
        trace_capacity: capacity,
        faults: faults.unwrap_or(FaultConfig::OFF),
        ..Default::default()
    };
    let result = Emulator::new(scenario.clone(), client, emu).run();

    let matches = |r: &&bce_obs::TraceRecord| {
        kinds.as_ref().is_none_or(|ks| ks.iter().any(|k| k == r.event.kind()))
            && components.as_ref().is_none_or(|cs| cs.iter().any(|c| c == r.event.component()))
            && since.is_none_or(|s| r.t.secs() >= s)
            && until.is_none_or(|u| r.t.secs() <= u)
    };
    let selected: Vec<&bce_obs::TraceRecord> =
        result.trace.records().iter().filter(matches).take(limit.unwrap_or(usize::MAX)).collect();

    if let Some(path) = jsonl_path {
        let jsonl = to_jsonl(selected.iter().copied());
        std::fs::write(path, &jsonl)
            .map_err(|e| CliError::msg(format!("cannot write {path}: {e}")))?;
    }

    let mut out =
        format!("trace of {} ({days} days): {} events recorded", scenario.name, result.trace.len());
    if result.trace.dropped() > 0 {
        out.push_str(&format!(" (+{} dropped at capacity)", result.trace.dropped()));
    }
    out.push_str(&format!(", {} matching\n\n", selected.len()));
    for r in &selected {
        out.push_str(&format!("{r}\n"));
    }
    if let Some(path) = jsonl_path {
        out.push_str(&format!("\nwrote {} events to {path}\n", selected.len()));
        // Round-trip sanity: what we wrote must parse back to the same
        // records. Cheap relative to the emulation, and it keeps the
        // exporter honest in the face of schema drift.
        let parsed =
            bce_obs::export::parse_jsonl(&to_jsonl(selected.iter().copied())).map_err(|e| {
                CliError::msg(format!("internal: exported trace does not re-parse: {e}"))
            })?;
        debug_assert_eq!(parsed.len(), selected.len());
        if parsed.len() != selected.len()
            || !parsed.iter().zip(&selected).all(|(a, &b)| record_to_json(a) == record_to_json(b))
        {
            return Err(CliError::msg("internal: exported trace does not round-trip".into()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(cmd: &str) -> Result<String, CliError> {
        dispatch(cmd.split_whitespace().map(String::from))
    }

    /// A directory of one test's own, `bce-cli-<test>-<pid>` in the temp
    /// directory, removed when the test ends (pass or panic).
    struct TmpDir(PathBuf);

    impl TmpDir {
        fn new(test: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("bce-cli-{test}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TmpDir(dir)
        }

        fn join(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn help_and_unknown() {
        assert!(run("help").unwrap().contains("USAGE"));
        assert!(run("").unwrap().contains("USAGE"));
        assert!(run("frobnicate").is_err());
    }

    #[test]
    fn run_paper_scenario() {
        let out = run("run scenario1 --days 0.2 --sched local --fetch hysteresis").unwrap();
        assert!(out.contains("figures of merit"), "{out}");
        assert!(out.contains("tight"), "{out}");
    }

    #[test]
    fn run_with_timeline() {
        let out = run("run scenario2 --days 0.05 --timeline").unwrap();
        assert!(out.contains("timeline:"), "{out}");
        // The decision log is `bce trace`'s; `run --log` is gone.
        let e = run("run scenario2 --days 0.05 --log").unwrap_err();
        assert!(e.to_string().contains("unknown option --log"), "{e}");
    }

    #[test]
    fn days_opt_accepts_only_finite_positive_days() {
        let parse = |v: &str| {
            let args = Args::parse(["run", "--days", v].map(String::from), VALUE_OPTS).unwrap();
            days_opt(&args, 10.0)
        };
        for bad in ["inf", "-inf", "nan", "0", "-1"] {
            assert_eq!(parse(bad).unwrap_err().exit_code, 2, "--days {bad}");
        }
        assert_eq!(parse("0.5").unwrap(), 0.5);
        let none = Args::parse(["run"].map(String::from), VALUE_OPTS).unwrap();
        assert_eq!(days_opt(&none, 10.0).unwrap(), 10.0);
    }

    #[test]
    fn every_days_verb_rejects_a_negative_horizon() {
        for cmd in [
            "run scenario1",
            "compare scenario1",
            "population --hosts 2",
            "chaos --hosts 2",
            "fleet",
            "faults scenario1",
            "fig 1",
            "trace scenario1",
        ] {
            let e = run(&format!("{cmd} --days -1")).unwrap_err();
            assert_eq!(e.exit_code, 2, "{cmd}: {e}");
        }
    }

    #[test]
    fn bad_policy_is_error() {
        assert!(run("run scenario1 --sched bogus").is_err());
        assert!(run("run scenario1 --fetch bogus").is_err());
        assert!(run("run scenario1 --half-life -5").is_err());
    }

    #[test]
    fn unknown_option_is_error() {
        let e = run("run scenario1 --days 0.1 --wibble").unwrap_err();
        assert!(e.to_string().contains("wibble"));
    }

    #[test]
    fn compare_runs() {
        let out = run("compare scenario1 --days 0.1").unwrap();
        assert!(out.contains("JS-WRR+JF-ORIG"), "{out}");
        assert!(out.contains("JS-GLOBAL+JF-HYSTERESIS"), "{out}");
    }

    #[test]
    fn export_validate_run_cycle() {
        let dir = TmpDir::new("export-validate-run");
        let path = dir.join("s2.xml");
        let p = path.to_str().unwrap();
        let out = run(&format!("export scenario2 --out {p}")).unwrap();
        assert!(out.contains("wrote"), "{out}");
        let out = run(&format!("scenario validate {p}")).unwrap();
        assert!(out.contains("OK"), "{out}");
        let out = run(&format!("run {p} --days 0.1")).unwrap();
        assert!(out.contains("figures of merit"), "{out}");
    }

    #[test]
    fn validate_rejects_garbage() {
        let dir = TmpDir::new("validate-garbage");
        let path = dir.join("bad.xml");
        std::fs::write(&path, "<client_state><project/></client_state>").unwrap();
        assert!(run(&format!("scenario validate {}", path.to_str().unwrap())).is_err());
    }

    #[test]
    fn deadline_check_option() {
        assert!(run("run scenario1 --days 0.1 --deadline-check none").is_ok());
        assert!(run("run scenario1 --days 0.1 --deadline-check grace:3600").is_ok());
        assert!(run("run scenario1 --days 0.1 --deadline-check bogus").is_err());
        assert!(run("run scenario1 --days 0.1 --deadline-check grace:-5").is_err());
    }

    #[test]
    fn fleet_demo() {
        let out = run("fleet --days 0.05").unwrap();
        assert!(out.contains("per-host"), "{out}");
        assert!(out.contains("cross-host"), "{out}");
        assert!(out.contains("gpu-box"), "{out}");
        // The strategy table follows the assignment blocks.
        let table = &out[out.find("fleet share violation").expect("strategy table")..];
        assert!(table.contains("per-project split"), "{out}");
        assert!(table.contains("mixed") && table.contains("cpu_only"), "{out}");
    }

    #[test]
    fn emboinc_tabulates_replication_by_selection() {
        let out = run("emboinc --quick").unwrap();
        assert!(out.contains("100 workunits on 60 hosts"), "{out}");
        for replication in ["R1/Q1", "R2/Q2", "R3/Q1"] {
            assert_eq!(out.lines().filter(|l| l.starts_with(replication)).count(), 3, "{out}");
        }
        assert!(run("emboinc --days 3").is_err());
    }

    #[test]
    fn population_small() {
        let out = run("population --hosts 2 --days 0.05").unwrap();
        assert!(out.contains("GLOBAL+HYST"), "{out}");
        assert!(out.contains("monotony"), "{out}");
    }

    #[test]
    fn faults_degradation_table_renders() {
        let out = run("faults scenario1 --days 0.1 --rates 0,0.3").unwrap();
        assert!(out.contains("graceful degradation"), "{out}");
        assert!(out.contains("fault-waste"), "{out}");
        assert!(out.contains("JS-LOCAL+JF-ORIG"), "{out}");
        assert!(out.contains("JS-GLOBAL+JF-HYSTERESIS"), "{out}");
        assert!(out.contains("0.30"), "{out}");
        assert!(out.contains("recovery") && out.contains("idle"), "{out}");
        assert!(
            out.contains("zero-fault identity: OK"),
            "rate-0 run must match the no-fault baseline: {out}"
        );
    }

    #[test]
    fn faults_with_crashes() {
        let out = run("faults scenario1 --days 0.1 --rates 0.1 --mtbf 3600").unwrap();
        assert!(out.contains("crash MTBF"), "{out}");
        // No rate-0 point when crashes are on, so no identity line.
        assert!(!out.contains("zero-fault identity"), "{out}");
    }

    #[test]
    fn faults_rejects_bad_options() {
        assert!(run("faults scenario1 --rates 1.5").is_err());
        assert!(run("faults scenario1 --rates abc").is_err());
        assert!(run("faults scenario1 --rates ").is_err());
        assert!(run("faults scenario1 --mtbf -10").is_err());
        assert!(run("faults").is_err());
    }

    #[test]
    fn bench_quick_emits_json() {
        use crate::perf_report::tests::assert_report_shape;
        let out = run("bench --quick").unwrap();
        assert!(out.contains("scenario3_fig6_60d"), "{out}");
        assert_report_shape(&out);
        let dir = TmpDir::new("bench-quick");
        let p = dir.join("bench.json");
        let out = run(&format!("bench --quick --out {}", p.to_str().unwrap())).unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("events/s"), "{out}");
        assert_report_shape(&std::fs::read_to_string(&p).unwrap());
    }

    #[test]
    fn bench_rejects_removed_options() {
        for cmd in ["bench --population 4", "bench --threads 2"] {
            let err = run(cmd).unwrap_err().to_string();
            assert!(err.contains("unknown option"), "{cmd}: {err}");
        }
    }

    #[test]
    fn fig_runs_through_shared_runner() {
        let out = run("fig 2").unwrap();
        assert!(out.contains("Figure 2 — round-robin simulation"), "{out}");
        assert!(out.contains("SHORTFALL(T)"), "{out}");
        assert!(run("fig 9").is_err());
        assert!(run("fig").is_err());
        assert!(run("fig two").is_err());
    }

    #[test]
    fn trace_prettyprints_decisions() {
        let out = run("trace scenario1 --days 0.1").unwrap();
        assert!(out.contains("events recorded"), "{out}");
        assert!(out.contains("rpc_reply"), "{out}");
        assert!(out.contains("scheduled"), "{out}");
    }

    #[test]
    fn trace_filters_narrow_output() {
        let all = run("trace scenario1 --days 0.1").unwrap();
        let fetch_only = run("trace scenario1 --days 0.1 --component fetch").unwrap();
        assert!(fetch_only.len() < all.len());
        assert!(!fetch_only.contains(" scheduled "), "{fetch_only}");
        let limited = run("trace scenario1 --days 0.1 --limit 3").unwrap();
        assert!(limited.contains("3 matching"), "{limited}");
        let windowed = run("trace scenario1 --days 0.1 --since 100 --until 200").unwrap();
        assert!(windowed.contains("matching"), "{windowed}");
    }

    #[test]
    fn trace_rejects_bad_filters() {
        assert!(run("trace scenario1 --days 0.1 --kind bogus").is_err());
        assert!(run("trace scenario1 --days 0.1 --component bogus").is_err());
        assert!(run("trace scenario1 --days 0.1 --capacity 0").is_err());
        assert!(run("trace").is_err());
        let e = run("trace scenario1 --days 0.1 --since 200 --until 100").unwrap_err();
        assert_eq!(e.exit_code, 2, "{e}");
        assert!(run("trace scenario1 --days 0.1 --since 100 --until 100").is_ok());
    }

    #[test]
    fn trace_jsonl_round_trips() {
        let dir = TmpDir::new("trace-jsonl");
        let p = dir.join("trace.jsonl");
        let out =
            run(&format!("trace scenario1 --days 0.1 --jsonl {}", p.to_str().unwrap())).unwrap();
        assert!(out.contains("wrote"), "{out}");
        let text = std::fs::read_to_string(&p).unwrap();
        let records = bce_obs::parse_jsonl(&text).unwrap();
        assert!(!records.is_empty());
        assert!(text.lines().all(|l| l.starts_with("{\"seq\":")));
    }

    #[test]
    fn population_threads_flag_is_deterministic() {
        let a = run("population --hosts 4 --days 0.2 --threads 1").unwrap();
        let b = run("population --hosts 4 --days 0.2 --threads 8").unwrap();
        assert_eq!(a, b, "population table must not depend on thread count");
    }

    #[test]
    fn population_kill_and_resume_matches_straight_run() {
        let dir = TmpDir::new("population-resume");
        let ck = dir.join("pop.ckpt");
        let ck_s = ck.to_str().unwrap();

        let reference = run("population --hosts 3 --days 0.2").unwrap();
        // "Kill" after 2 of the 6 runs (budgeted stop leaves exactly the
        // on-disk state a SIGKILL there would).
        let partial = run(&format!(
            "population --hosts 3 --days 0.2 --checkpoint {ck_s} --checkpoint-every 1 --max-runs 2"
        ))
        .unwrap();
        assert!(partial.contains("# stopped after 2/6 runs"), "{partial}");
        // Resume with a different thread count; status lines are "# "
        // prefixed so the table itself must match the straight run.
        let resumed =
            run(&format!("population --hosts 3 --days 0.2 --threads 2 --resume {ck_s}")).unwrap();
        assert!(resumed.contains("# resumed: 2/6"), "{resumed}");
        let table: String =
            resumed.lines().filter(|l| !l.starts_with("# ")).collect::<Vec<_>>().join("\n");
        assert_eq!(table.trim_end(), reference.trim_end());
    }

    #[test]
    fn population_resume_errors_are_loud() {
        // Missing file: error, not a silent fresh start.
        assert!(run("population --hosts 3 --days 0.2 --resume /nonexistent/x.ckpt").is_err());
        // Mismatched campaign (different hosts): rejected.
        let dir = TmpDir::new("population-mismatch");
        let ck = dir.join("pop.ckpt");
        let ck_s = ck.to_str().unwrap();
        run(&format!("population --hosts 3 --days 0.2 --checkpoint {ck_s}")).unwrap();
        let err = run(&format!("population --hosts 4 --days 0.2 --resume {ck_s}")).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn seed_override_changes_results() {
        let a = run("run scenario1 --days 0.3 --seed 1").unwrap();
        let b = run("run scenario1 --days 0.3 --seed 2").unwrap();
        let c = run("run scenario1 --days 0.3 --seed 1").unwrap();
        assert_eq!(a, c, "same seed same output");
        assert_ne!(a, b, "different seed different output");
    }
}
