//! Request routing and the endpoint implementations.
//!
//! Every handler returns a [`Response`]; none may panic by contract
//! (the worker additionally wraps routing in `catch_unwind`, and the
//! emulator itself runs under the supervised executor). Untrusted input
//! — query strings, XML state files — maps to typed `4xx` responses.

use crate::http::{Request, Response};
use crate::server::Shared;
use crate::wall::{retry_io, WallRetry, CHECKPOINT_RETRY};
use bce_client::{ClientConfig, FetchPolicy, JobSchedPolicy};
use bce_controller::{
    population_header, run_manifest, run_supervised, CampaignError, CampaignManifest,
    CampaignOptions, ManifestError, RunSpec,
};
use bce_core::{EmulatorConfig, FaultConfig, Scenario};
use bce_obs::to_jsonl;
use bce_scenarios::{builtin, load_scenario_text};
use bce_types::SimDuration;
use std::time::{Duration, Instant};

const INDEX: &str = "bce-serve: volunteer-computing emulation daemon\n\
\n\
  GET  /healthz                liveness\n\
  GET  /readyz                 readiness (503 while draining)\n\
  GET  /metrics[?format=json]  daemon metrics\n\
  GET  /trace                  typed trace of the last /run (JSONL)\n\
  POST /run?scenario=..&days=..&sched=..&fetch=..&seed=..\n\
       (or POST a JSON scenario spec or client_state.xml body)\n\
       one supervised emulation\n\
  POST /campaign?id=..&hosts=..&days=..&seed=..&threads=..\n\
       resumable population campaign; re-POST to resume after a drain\n";

/// Route one parsed request. Infallible by construction: every branch
/// produces a `Response`.
pub(crate) fn route(req: &Request, shared: &Shared) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") => Response::text(200, INDEX),
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if shared.is_draining() {
                Response::unavailable("draining", shared.cfg.retry_after_secs)
            } else {
                Response::text(200, "ready\n")
            }
        }
        ("GET", "/metrics") => metrics(req, shared),
        ("GET", "/trace") => trace(shared),
        ("POST", "/run") => run(req, shared),
        ("POST", "/campaign") => campaign(req, shared),
        ("GET" | "POST", _) => Response::text(404, "no such endpoint\n"),
        _ => Response::text(405, "method not allowed\n"),
    }
}

fn metrics(req: &Request, shared: &Shared) -> Response {
    shared.set_gauge(shared.ids.uptime_seconds, shared.started.elapsed().as_secs_f64());
    let snap = shared.metrics_snapshot();
    match req.param("format") {
        Some("json") => Response::json(200, snap.to_json()),
        None | Some("text") => Response::text(200, snap.render()),
        Some(other) => Response::text(400, format!("unknown metrics format {other:?}\n")),
    }
}

fn trace(shared: &Shared) -> Response {
    let records = shared.last_trace.lock().expect("trace poisoned");
    if records.is_empty() {
        return Response::text(404, "no trace recorded yet; POST /run first\n");
    }
    Response::text(200, to_jsonl(records.iter()))
}

/// A typed-400 shortcut for parameter problems.
fn bad(msg: impl Into<String>) -> Response {
    let mut m = msg.into();
    if !m.ends_with('\n') {
        m.push('\n');
    }
    Response::text(400, m)
}

fn parse_days(req: &Request, default: f64, max_days: f64) -> Result<f64, Response> {
    let days: f64 = req.param_parse("days").map_err(bad)?.unwrap_or(default);
    if !days.is_finite() || days <= 0.0 {
        return Err(bad(format!("days must be a positive number, got {days}")));
    }
    if days > max_days {
        // 422: syntactically fine, semantically over budget.
        return Err(Response::text(
            422,
            format!("days={days} exceeds this daemon's budget of {max_days} emulated days\n"),
        ));
    }
    Ok(days)
}

/// Resolve the scenario for `/run`: a named builtin via `?scenario=`, or
/// a posted body (JSON scenario spec or `client_state.xml`, sniffed by
/// the shared [`load_scenario_text`] resolver) — exactly one of the two.
/// A request with neither falls back to the daemon's configured default
/// scenario, if any. A spec body may carry a fault overlay, returned
/// alongside.
fn resolve_scenario(
    req: &Request,
    default: Option<&str>,
) -> Result<(Scenario, Option<FaultConfig>), Response> {
    let named = req.param("scenario");
    let has_body = !req.body.is_empty();
    let (mut scenario, faults) = match (named, has_body) {
        (Some(_), true) => {
            return Err(bad("give either ?scenario= or a scenario body, not both"));
        }
        (None, false) => {
            let Some(src) = default else {
                return Err(bad(
                    "give a scenario: ?scenario=scenario1..4 or POST a JSON spec / client_state.xml",
                ));
            };
            let loaded = bce_scenarios::ScenarioSource::parse(src)
                .load()
                .map_err(|e| Response::text(500, format!("default scenario broken: {e}\n")))?;
            (loaded.scenario, loaded.faults)
        }
        (Some(name), _) => match builtin(name) {
            Some(s) => (s, None),
            None => return Err(bad(format!("unknown builtin scenario {name:?}"))),
        },
        (None, true) => {
            let text = std::str::from_utf8(&req.body)
                .map_err(|_| bad("scenario body is not valid UTF-8"))?;
            let loaded = load_scenario_text(text, std::path::Path::new("posted-scenario"))
                .map_err(|e| Response::text(422, format!("scenario rejected: {e}\n")))?;
            (loaded.scenario, loaded.faults)
        }
    };
    if let Some(seed) = req.param_parse::<u64>("seed").map_err(bad)? {
        scenario.seed = seed;
    }
    // The typed validator gates every entry point; the full error list
    // (every problem at once) comes back in one response.
    scenario.validate().map_err(|e| Response::text(422, format!("invalid scenario:\n{e}\n")))?;
    Ok((scenario, faults))
}

/// `POST /run` — one supervised emulation of a validated scenario.
fn run(req: &Request, shared: &Shared) -> Response {
    let (scenario, faults) = match resolve_scenario(req, shared.cfg.default_scenario.as_deref()) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let days = match parse_days(req, 10.0, shared.cfg.max_days) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    let mut client = ClientConfig::default();
    if let Some(s) = req.param("sched") {
        match JobSchedPolicy::from_flag(s) {
            Some(p) => client.sched_policy = p,
            None => return bad(format!("unknown scheduling policy {s:?}")),
        }
    }
    if let Some(f) = req.param("fetch") {
        match FetchPolicy::from_flag(f) {
            Some(p) => client.fetch_policy = p,
            None => return bad(format!("unknown fetch policy {f:?}")),
        }
    }
    let emu = EmulatorConfig {
        duration: SimDuration::from_days(days),
        trace_capacity: shared.cfg.trace_capacity,
        faults: faults.unwrap_or(FaultConfig::OFF),
        ..Default::default()
    };
    let label = scenario.name.clone();
    let spec =
        RunSpec::new(label.clone(), scenario, client).with_emulator(std::sync::Arc::new(emu));

    // The supervised executor quarantines an emulator panic into a typed
    // RunError; the worker and the daemon survive any scenario.
    let mut outcome = None;
    run_supervised(std::slice::from_ref(&spec), 1, |_, _, o| outcome = Some(o));
    match outcome {
        Some(Ok(mut result)) => {
            // The response renders `result` without its trace, so the
            // buffer moves into the store instead of being copied.
            *shared.last_trace.lock().expect("trace poisoned") =
                std::mem::take(&mut result.trace).into_records();
            shared.inc(shared.ids.runs_completed);
            shared.add(shared.ids.emu_rr_runs, result.perf.rr_runs);
            shared.add(shared.ids.emu_rr_frozen, result.perf.rr_frozen);
            shared.add(shared.ids.emu_flaps_coalesced, result.perf.flaps_coalesced);
            shared.add(shared.ids.emu_avail_resched_skipped, result.perf.avail_resched_skipped);
            let body = format!(
                "# run {label}: ok\n# fingerprint: {:016x}\n{result}",
                result.bit_fingerprint()
            );
            Response::text(200, body)
        }
        Some(Err(e)) => {
            shared.inc(shared.ids.panics_quarantined);
            Response::text(500, format!("run quarantined: {e}\n"))
        }
        None => Response::text(500, "executor returned no outcome\n"),
    }
}

/// Removes a campaign id from the in-flight set on scope exit, panics
/// included (the worker's `catch_unwind` still unwinds through this).
struct InFlight<'a> {
    shared: &'a Shared,
    id: String,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.shared.campaigns_in_flight.lock().expect("in-flight set poisoned").remove(&self.id);
    }
}

fn valid_campaign_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// `POST /campaign` — a resumable population campaign: the query
/// string becomes the standard sampled-population manifest, run through
/// [`run_manifest`] like every other campaign front end.
///
/// The campaign executes in chunks of `campaign_chunk_runs` supervised
/// runs; between chunks the handler observes the wall deadline and the
/// drain flag. Each chunk ends with the campaign checkpoint persisted
/// (atomic rename, retried on the shared backoff policy), so a parked or
/// drained campaign resumes bit-identically when the same request is
/// POSTed again — to this process or a restarted one.
fn campaign(req: &Request, shared: &Shared) -> Response {
    let id = match req.param("id") {
        Some(id) if valid_campaign_id(id) => id.to_string(),
        Some(id) => return bad(format!("campaign id {id:?} must be 1-64 chars of [A-Za-z0-9_-]")),
        None => return bad("campaign needs an ?id= to name its checkpoint"),
    };
    let hosts: usize = match req.param_parse("hosts") {
        Ok(h) => h.unwrap_or(16),
        Err(e) => return bad(e),
    };
    if hosts == 0 || hosts > 4096 {
        return bad(format!("hosts={hosts} out of range 1..=4096"));
    }
    let days = match parse_days(req, 2.0, shared.cfg.max_days) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    let seed: u64 = match req.param_parse("seed") {
        Ok(s) => s.unwrap_or(1),
        Err(e) => return bad(e),
    };
    let threads: usize = match req.param_parse("threads") {
        Ok(t) => t.unwrap_or(0),
        Err(e) => return bad(e),
    };
    let chunk: usize = match req.param_parse("chunk") {
        Ok(c) => c.unwrap_or(shared.cfg.campaign_chunk_runs).max(1),
        Err(e) => return bad(e),
    };
    let deadline_ms: u64 = match req.param_parse("deadline_ms") {
        Ok(d) => d.unwrap_or(shared.cfg.request_deadline.as_millis() as u64),
        Err(e) => return bad(e),
    };
    let budget = Duration::from_millis(deadline_ms).min(shared.cfg.request_deadline);

    // One executor per checkpoint file: a concurrent POST for the same id
    // is answered 409 instead of racing the resume protocol.
    {
        let mut inflight = shared.campaigns_in_flight.lock().expect("in-flight set poisoned");
        if !inflight.insert(id.clone()) {
            return Response::text(409, format!("campaign {id:?} is already running here\n"))
                .with_header("Retry-After", shared.cfg.retry_after_secs.to_string());
        }
    }
    let _guard = InFlight { shared, id: id.clone() };

    if let Err(e) =
        retry_io(CHECKPOINT_RETRY, || std::fs::create_dir_all(&shared.cfg.checkpoint_dir))
    {
        return Response::text(500, format!("cannot create checkpoint dir: {e}\n"));
    }
    let ckpt = shared.cfg.checkpoint_dir.join(format!("{id}.ckpt"));

    let manifest = CampaignManifest::sampled_population(hosts, seed, days);

    let deadline = Instant::now() + budget;
    let mut first_resumed = None;
    let outcome = loop {
        let opts = CampaignOptions {
            checkpoint_path: Some(ckpt.clone()),
            checkpoint_every_runs: 0,
            resume: false,
            stop_after_runs: Some(chunk),
            ..Default::default()
        };
        // Resume iff the generation store holds anything — including a
        // corrupt newest generation (the store falls back).
        let store = opts.store().expect("checkpoint path was just set");
        let opts = CampaignOptions { resume: store.any_checkpoint_present(), ..opts };
        // A failed checkpoint *write* (CampaignError::Checkpoint on I/O)
        // is retried on the shared policy: the chunk re-runs from the
        // last good checkpoint — which rotation keeps several generations
        // of, so a torn newest generation still resumes. Mismatch is
        // never retried — it means the id is being reused for different
        // parameters.
        let mut retry = WallRetry::new(CHECKPOINT_RETRY);
        let chunk_outcome = loop {
            match run_manifest(&manifest, threads, &opts, None) {
                Ok(r) => break Ok(r),
                Err(ManifestError::Campaign(CampaignError::Mismatch(what))) => {
                    return Response::text(
                        409,
                        format!(
                            "campaign id {id:?} already holds a different study: {what}\n\
                             pick a new id or delete {}\n",
                            ckpt.display()
                        ),
                    );
                }
                Err(e @ ManifestError::Campaign(CampaignError::Checkpoint(_))) => {
                    // The typed error names the operation and path, so
                    // the daemon log is actionable without strace.
                    eprintln!("bce-serve: campaign {id}: {e}; retrying");
                    match retry.fail() {
                        Some(delay) => std::thread::sleep(delay),
                        None => break Err(e),
                    }
                }
                Err(e) => break Err(e),
            }
        };
        let chunk_outcome = match chunk_outcome {
            Ok(r) => r,
            Err(e) => return Response::text(500, format!("campaign failed: {e}\n")),
        };
        let chunk_report = &chunk_outcome.report;
        shared.inc(shared.ids.campaign_chunks);
        shared.add(shared.ids.ckpt_write_failures, chunk_report.checkpoint_write_failures);
        shared.add(shared.ids.ckpt_generations_pruned, chunk_report.generations_pruned);
        if let Some(rec) = chunk_report.recovery.as_ref().filter(|r| r.recovered()) {
            shared.inc(shared.ids.ckpt_recoveries);
            eprintln!("bce-serve: campaign {id}: checkpoint recovery: {}", rec.describe());
        }
        if first_resumed.is_none() {
            first_resumed = Some(chunk_report.resumed_runs);
        }
        if chunk_report.completed_runs >= chunk_report.total_runs {
            break chunk_outcome;
        }
        if shared.is_draining() || crate::signal::termination_requested() {
            shared.inc(shared.ids.campaigns_parked);
            return parked(shared, &id, &ckpt, chunk_report, "daemon draining");
        }
        if Instant::now() >= deadline {
            shared.inc(shared.ids.campaigns_parked);
            return parked(shared, &id, &ckpt, chunk_report, "request deadline reached");
        }
    };
    let report = &outcome.report;

    shared.inc(shared.ids.campaigns_completed);
    let mut body = format!("# campaign {id}: complete ({} runs)\n", report.total_runs);
    if let Some(resumed) = first_resumed.filter(|&r| r > 0) {
        body.push_str(&format!(
            "# resumed: {resumed}/{} runs restored from checkpoint\n",
            report.total_runs
        ));
    }
    for e in &report.errors {
        body.push_str(&format!("# quarantined: {e}\n"));
    }
    body.push_str(&format!("# fingerprint: {:016x}\n", outcome.table_fingerprint));
    body.push_str(&population_header(hosts, days, seed));
    body.push_str(&outcome.table);
    Response::text(200, body)
}

/// The partial-campaign response: the checkpoint is on disk, the client
/// re-POSTs the identical request to continue. `503 + Retry-After`
/// mirrors the shed contract so clients need one retry policy.
fn parked(
    shared: &Shared,
    id: &str,
    ckpt: &std::path::Path,
    report: &bce_controller::CampaignReport,
    why: &str,
) -> Response {
    Response::text(
        503,
        format!(
            "# campaign {id}: parked after {}/{} runs ({why})\n\
             # checkpoint: {}\n\
             # re-POST the same request to resume\n",
            report.completed_runs,
            report.total_runs,
            ckpt.display()
        ),
    )
    .with_header("Retry-After", shared.cfg.retry_after_secs.to_string())
}
