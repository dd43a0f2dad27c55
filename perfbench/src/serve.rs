//! `serve_open_loop`: an in-process `bce-serve` daemon (default config,
//! one worker) on loopback, driven by one generator thread that keeps at
//! most `nproc` connections in flight.
//!
//! * Open loop, the first 90% of the budget: seeded Poisson arrivals at
//!   one fixed rate, below the closed-loop rate. Exactly
//!   `RATE × open seconds` arrivals, placed as a Poisson process
//!   conditioned on that count, so the offered rate is exact and sends
//!   never phase-lock with the acceptor's poll. Each request is timed
//!   from when it was due, so a stalled generator shows as latency and
//!   as `serve.generator_late_p99_ms`.
//! * Closed loop, the rest: `nproc` requests always in flight, the
//!   scenarios taking turns. `max_rps` is the completions after the
//!   first over the time from the first completion to the last.
//!
//! The request mix is synthetic, built from the `/run` requests the
//! repository documents (README "Running it as a service", the CI serve
//! smoke): a random policy and the three ways to give the scenario —
//! `?scenario=`, a posted JSON spec, or a posted `client_state.xml`. It
//! departs from them in three ways, each because the request's service
//! time, not the daemon, would otherwise set the p99 and move it from
//! seed to seed: requests emulate 0.1 days instead of 0.5–2, scenario 4
//! is left out, and there are no `/campaign` requests, one of which runs
//! for seconds on the single worker (the campaign path is what
//! `population_campaign` measures). See README.md, "The serve request
//! mix".
//! After the timed phase every 200 response's fingerprint is checked
//! against an in-process emulation of the same request.

use crate::stats::{ms, peak_rss_mb, HostSpeed, Rng, SetupTimes, Tail};
use crate::{Ctx, Outcome};
use bce_client::{ClientConfig, FetchPolicy, JobSchedPolicy};
use bce_controller::{run_streaming, RunSpec};
use bce_core::{EmulatorConfig, FaultConfig};
use bce_scenarios::{builtin, doc_from_scenario, load_scenario_text};
use bce_serve::{ServeConfig, ServeSummary, Server, ServerHandle};
use bce_statefile::{parse_json, JsonValue};
use bce_types::SimDuration;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered open-loop rate, requests per second. Set where the closed
/// loop leaves headroom and the open loop still gives at least 1 000
/// samples (see README.md, "Noise control").
const RATE: f64 = 40.0;
/// Share of the budget spent in the open loop; the rest is closed loop.
/// At the benchmark's 28 s this gives 1 008 arrivals, enough for a p99
/// with ten samples beyond it.
const OPEN_SHARE: f64 = 0.9;
/// Paper scenarios requests draw from (`scenario1`..). Scenario 4 is
/// left out (see README.md, "The serve request mix").
const SCENARIOS: usize = 3;
/// Emulated days per request: shorter than the documented 0.5–2 days,
/// so that the accept poll, not service time, sets the p99 (see
/// README.md, "The serve request mix").
const DAYS: [f64; 1] = [0.1];
/// Of every eight requests, one posts a JSON spec and one a
/// `client_state.xml`; the rest name a builtin.
const BODY_SHARE_EIGHTHS: usize = 1;
/// The latency limit the p99 is held to; failed, shed and timed-out
/// requests count as exceeding it.
const P99_LIMIT_MS: f64 = 100.0;
/// A request not answered within this is a failure.
const TIMEOUT: Duration = Duration::from_secs(5);
/// Generator wake-up period while waiting on responses.
const POLL: Duration = Duration::from_micros(200);
const SETUP_REPS: usize = 9;
const SCHEDS: [&str; 3] = ["wrr", "local", "global"];
const FETCHES: [&str; 2] = ["orig", "hysteresis"];

/// How a `/run` request gives its scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// `?scenario=scenarioN`, a builtin.
    Named,
    /// A posted JSON scenario spec.
    Spec,
    /// A posted `client_state.xml`.
    StateFile,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    /// Paper scenario index, 0-based.
    scenario: usize,
    seed: u32,
    sched: usize,
    fetch: usize,
    /// Index into `DAYS`.
    days: usize,
    form: Form,
}

/// The scenario texts requests post, per paper scenario.
struct Bodies {
    spec: Vec<String>,
    state_file: Vec<String>,
}

impl Bodies {
    fn text(&self, req: &Req) -> &str {
        match req.form {
            Form::Named => "",
            Form::Spec => &self.spec[req.scenario],
            Form::StateFile => &self.state_file[req.scenario],
        }
    }
}

impl Req {
    fn draw(rng: &mut Rng) -> Req {
        Req {
            scenario: rng.below(SCENARIOS),
            seed: rng.next_u64() as u32,
            sched: rng.below(SCHEDS.len()),
            fetch: rng.below(FETCHES.len()),
            days: rng.below(DAYS.len()),
            form: match rng.below(8) {
                k if k < BODY_SHARE_EIGHTHS => Form::Spec,
                k if k < 2 * BODY_SHARE_EIGHTHS => Form::StateFile,
                _ => Form::Named,
            },
        }
    }

    fn http(&self, bodies: &Bodies) -> Vec<u8> {
        let mut target = format!(
            "/run?days={}&seed={}&sched={}&fetch={}",
            DAYS[self.days], self.seed, SCHEDS[self.sched], FETCHES[self.fetch]
        );
        if self.form == Form::Named {
            target.push_str(&format!("&scenario=scenario{}", self.scenario + 1));
        }
        let body = bodies.text(self).as_bytes();
        let mut out = format!(
            "POST {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body);
        out
    }

    /// The emulation the daemon runs for this request, built in-process.
    fn spec(&self, bodies: &Bodies) -> Result<RunSpec, String> {
        let (mut scenario, faults) = if self.form == Form::Named {
            let name = format!("scenario{}", self.scenario + 1);
            (builtin(&name).ok_or(format!("no builtin {name}"))?, None)
        } else {
            let loaded = load_scenario_text(bodies.text(self), Path::new("posted-scenario"))
                .map_err(|e| e.to_string())?;
            (loaded.scenario, loaded.faults)
        };
        scenario.seed = self.seed as u64;
        let client = ClientConfig {
            sched_policy: [JobSchedPolicy::WRR, JobSchedPolicy::LOCAL, JobSchedPolicy::GLOBAL]
                [self.sched],
            fetch_policy: [FetchPolicy::Orig, FetchPolicy::Hysteresis][self.fetch],
            ..Default::default()
        };
        let emu = EmulatorConfig {
            duration: SimDuration::from_days(DAYS[self.days]),
            faults: faults.unwrap_or(FaultConfig::OFF),
            ..Default::default()
        };
        Ok(RunSpec::new(scenario.name.clone(), scenario, client).with_emulator(emu))
    }
}

/// The generated inputs: the posted scenario texts, the open-loop
/// arrival offsets and requests, and the stream the closed loop draws
/// from.
struct Plan {
    bodies: Bodies,
    arrivals: Vec<Duration>,
    open: Vec<Req>,
    closed: Rng,
}

fn plan(ctx: &Ctx) -> Result<Plan, String> {
    let mut bodies = Bodies { spec: Vec::new(), state_file: Vec::new() };
    for k in 1..=SCENARIOS {
        let path = format!("scenarios/scenario{k}.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let loaded = load_scenario_text(&text, Path::new(&path)).map_err(|e| e.to_string())?;
        // The state file a volunteer with this scenario's host would
        // post; it must load and validate as the daemon will load it.
        let xml = doc_from_scenario(&loaded.scenario).render();
        load_scenario_text(&xml, Path::new("posted-scenario"))
            .map_err(|e| format!("{path} as client_state.xml: {e}"))?;
        bodies.spec.push(text);
        bodies.state_file.push(xml);
    }
    let open_s = ctx.measure.as_secs_f64() * OPEN_SHARE;
    let n = ((RATE * open_s).round() as usize).max(1);
    let mut rng = Rng::new(ctx.seed, 0x5e7e);
    let mut offsets: Vec<f64> = (0..n).map(|_| rng.unit() * open_s).collect();
    offsets.sort_by(f64::total_cmp);
    let arrivals = offsets.into_iter().map(Duration::from_secs_f64).collect();
    let open = (0..n).map(|_| Req::draw(&mut rng)).collect();
    Ok(Plan { bodies, arrivals, open, closed: Rng::new(ctx.seed, 0xc105ed) })
}

struct Daemon {
    handle: ServerHandle,
    addr: SocketAddr,
    thread: JoinHandle<ServeSummary>,
}

impl Daemon {
    fn start(ctx: &Ctx) -> Result<Daemon, String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            checkpoint_dir: ctx.work.join("serve-checkpoints"),
            ..Default::default()
        };
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { handle, addr, thread })
    }

    fn stop(self) -> ServeSummary {
        self.handle.drain();
        self.thread.join().expect("daemon thread panicked")
    }
}

#[derive(Debug)]
struct Record {
    req: Req,
    /// HTTP status; 0 when the connection failed or timed out.
    status: u16,
    fingerprint: Option<u64>,
    due: Instant,
    sent: Instant,
    done: Instant,
}

impl Record {
    fn ok(&self) -> bool {
        self.status == 200 && self.fingerprint.is_some()
    }

    /// Latency from when the request was due; a failure counts as the
    /// timeout, beyond any limit.
    fn latency_ms(&self) -> f64 {
        if self.ok() {
            ms(self.done - self.due)
        } else {
            ms(TIMEOUT)
        }
    }
}

struct Conn {
    req: Req,
    due: Instant,
    sent: Instant,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr, req: Req, due: Instant, bodies: &Bodies) -> Result<Conn, Record> {
        let sent = Instant::now();
        let connect = || -> std::io::Result<TcpStream> {
            let mut s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.write_all(&req.http(bodies))?;
            s.set_nonblocking(true)?;
            Ok(s)
        };
        match connect() {
            Ok(stream) => Ok(Conn { req, due, sent, stream, buf: Vec::new() }),
            Err(_) => {
                Err(Record { req, status: 0, fingerprint: None, due, sent, done: Instant::now() })
            }
        }
    }

    /// Read what has arrived; `Some(ok)` once the daemon closed the
    /// connection (it closes after every response) or it failed.
    fn poll(&mut self) -> Option<bool> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Some(true),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Some(false),
            }
        }
    }

    fn finish(self, ok: bool) -> Record {
        let done = Instant::now();
        let text = String::from_utf8_lossy(&self.buf);
        let status =
            if ok { text.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap_or(0) } else { 0 };
        let fingerprint = text
            .split_once("# fingerprint: ")
            .and_then(|(_, rest)| rest.get(..16))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok());
        Record { req: self.req, status, fingerprint, due: self.due, sent: self.sent, done }
    }
}

/// Collect every finished or timed-out connection.
fn pump(inflight: &mut Vec<Conn>, records: &mut Vec<Record>) {
    let mut i = 0;
    while i < inflight.len() {
        let state = inflight[i].poll();
        match state {
            Some(ok) => records.push(inflight.swap_remove(i).finish(ok)),
            None if inflight[i].sent.elapsed() > TIMEOUT => {
                records.push(inflight.swap_remove(i).finish(false))
            }
            None => i += 1,
        }
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Open loop: send each request when due, or as soon after as a slot
/// frees. Returns the records and the loop's start.
fn open_loop(addr: SocketAddr, plan: &Plan, cap: usize) -> (Vec<Record>, Instant) {
    let (mut inflight, mut records) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut next = 0;
    while next < plan.open.len() || !inflight.is_empty() {
        pump(&mut inflight, &mut records);
        while next < plan.open.len() && inflight.len() < cap {
            let due = start + plan.arrivals[next];
            if due > Instant::now() {
                break;
            }
            match Conn::open(addr, plan.open[next], due, &plan.bodies) {
                Ok(c) => inflight.push(c),
                Err(r) => records.push(r),
            }
            next += 1;
        }
        let mut wake = Instant::now() + POLL;
        if next < plan.open.len() && inflight.len() < cap {
            wake = wake.min(start + plan.arrivals[next]);
        }
        sleep_until(wake);
    }
    (records, start)
}

/// Closed loop: keep `cap` requests in flight for `budget`. Scenarios
/// take turns, so every closed loop serves the same mix of service
/// times whatever the seed; the rest of each request is drawn.
fn closed_loop(addr: SocketAddr, plan: &mut Plan, cap: usize, budget: Duration) -> Vec<Record> {
    let (mut inflight, mut records) = (Vec::new(), Vec::new());
    let until = Instant::now() + budget;
    let mut sent = 0;
    loop {
        pump(&mut inflight, &mut records);
        let now = Instant::now();
        if now < until {
            while inflight.len() < cap {
                let req = Req { scenario: sent % SCENARIOS, ..Req::draw(&mut plan.closed) };
                sent += 1;
                match Conn::open(addr, req, now, &plan.bodies) {
                    Ok(c) => inflight.push(c),
                    Err(r) => records.push(r),
                }
            }
        } else if inflight.is_empty() {
            break;
        }
        sleep_until(now + POLL);
    }
    records
}

/// `GET /metrics?format=json`, parsed.
fn scrape(addr: SocketAddr) -> Result<JsonValue, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;
    s.write_all(b"GET /metrics?format=json HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut buf = String::new();
    s.read_to_string(&mut buf).map_err(|e| e.to_string())?;
    let (_, body) = buf.split_once("\r\n\r\n").ok_or("metrics: no body")?;
    parse_json(body).map_err(|e| e.to_string())
}

fn counter(m: &JsonValue, key: &str) -> f64 {
    m.get("counters").and_then(|c| c.get(key)).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// A quantile of a bucketed histogram, interpolated linearly inside the
/// bucket that holds it (the overflow bucket reports its lower bound).
fn histogram_quantile(h: &JsonValue, q: f64) -> f64 {
    let nums = |k| -> Vec<f64> {
        h.get(k)
            .and_then(JsonValue::as_arr)
            .map(|a| a.iter().filter_map(JsonValue::as_f64).collect())
            .unwrap_or_default()
    };
    let (bounds, counts) = (nums("bounds"), nums("counts"));
    let rank = q * counts.iter().sum::<f64>();
    let mut below = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0.0 && below + c >= rank {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let hi = bounds.get(i).copied().unwrap_or(lo);
            return lo + (hi - lo) * (rank - below) / c;
        }
        below += c;
    }
    0.0
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cap = ctx.nproc;

    // --- Set-up: read and validate the posted scenario texts, generate
    // the request plan, bind the daemon and spawn it, and a warm-up run
    // of each scenario on the in-process reference path. The warm-up
    // requests are fixed, not drawn from the seed, so every seed sets up
    // the same work. Repeated back to back, since a daemon set up between
    // the loops would disturb them; the last daemon is kept. The
    // daemon's first accept (a 0–20 ms poll phase) is not waited on.
    let mut speed = HostSpeed::new();
    let mut setup = SetupTimes::new(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let (plan, daemon) = setup.time(&mut speed, || -> Result<_, String> {
            let plan = plan(ctx)?;
            let daemon = Daemon::start(ctx)?;
            for scenario in 0..SCENARIOS {
                let warm =
                    Req { scenario, seed: 1, sched: 0, fetch: 0, days: 0, form: Form::Named }
                        .spec(&plan.bodies)?;
                let emu = bce_core::Emulator::new(warm.scenario, warm.client, warm.emulator);
                std::hint::black_box(emu.run());
            }
            Ok((plan, daemon))
        })?;
        if rep + 1 < SETUP_REPS {
            daemon.stop();
        } else {
            kept = Some((plan, daemon));
        }
    }
    let (mut plan, daemon) = kept.expect("at least one set-up repetition");

    // --- Timed phase.
    let (open, open_start) = open_loop(daemon.addr, &plan, cap);
    let metrics = scrape(daemon.addr);
    let closed_budget = ctx.measure.mul_f64(1.0 - OPEN_SHARE);
    let closed = closed_loop(daemon.addr, &mut plan, cap, closed_budget);
    let rss = peak_rss_mb();
    let summary = daemon.stop();
    let metrics = metrics?;

    // --- Output checks: every 200's fingerprint against an in-process
    // emulation of the same request.
    let all: Vec<&Record> = open.iter().chain(&closed).collect();
    let ok: Vec<&Record> = all.iter().copied().filter(|r| r.ok()).collect();
    let specs = ok.iter().map(|r| r.req.spec(&plan.bodies)).collect::<Result<Vec<_>, _>>()?;
    let mut expected = vec![0u64; specs.len()];
    run_streaming(&specs, ctx.nproc, |i, _, r| expected[i] = r.bit_fingerprint());
    for (r, want) in ok.iter().zip(&expected) {
        out.check(r.fingerprint == Some(*want), || {
            format!(
                "{:?}: daemon fingerprint {:016x?}, in-process {want:016x}",
                r.req, r.fingerprint
            )
        });
    }
    for r in all.iter().filter(|r| !r.ok()) {
        out.check(false, || format!("{:?}: status {}", r.req, r.status));
    }
    out.check(summary.workers_abandoned == 0, || format!("daemon stop: {summary}"));

    let open_ok: Vec<&Record> = open.iter().filter(|r| r.ok()).collect();
    let open_end = open.iter().map(|r| r.done).max().unwrap_or(open_start);
    let mut closed_done: Vec<Instant> = closed.iter().filter(|r| r.ok()).map(|r| r.done).collect();
    closed_done.sort();
    let lat = Tail::of(&open.iter().map(Record::latency_ms).collect::<Vec<_>>());
    let late = Tail::of(&open.iter().map(|r| ms(r.sent - r.due)).collect::<Vec<_>>());
    out.e2e("setup_s", setup.median(&speed));
    let open_days: f64 = open_ok.iter().map(|r| DAYS[r.req.days]).sum();
    out.e2e("sim_days_per_s", open_days / (open_end - open_start).as_secs_f64());
    out.e2e("latency_p50_ms", lat.p50);
    out.e2e("latency_p99_ms", lat.p99);
    let closed_span = match (closed_done.first(), closed_done.last()) {
        (Some(first), Some(last)) => (*last - *first).as_secs_f64(),
        _ => 0.0,
    };
    out.e2e("max_rps", closed_done.len().saturating_sub(1) as f64 / closed_span);
    out.e2e("peak_rss_mb", rss);
    out.notes.push(format!(
        "open loop: {} requests at {RATE}/s Poisson, {} in flight at most, {DAYS:?} days, \
         scenarios 1-{SCENARIOS}, {BODY_SHARE_EIGHTHS} in 8 with a JSON spec body and \
         {BODY_SHARE_EIGHTHS} in 8 with a client_state.xml body; closed loop: {} requests, \
         {cap} in flight",
        open.len(),
        cap,
        closed.len()
    ));
    out.notes.push(lat.describe("request latency from due time"));
    if lat.p99 > P99_LIMIT_MS {
        out.notes.push(format!("p99 {:.3} ms exceeds the {P99_LIMIT_MS} ms limit", lat.p99));
    }
    out.notes.push(late.describe("generator lateness"));

    // --- Per-layer: the daemon's own counters and request_ms histogram
    // as of the end of the open loop, against client-side timing.
    let hist = metrics.get("histograms").and_then(|h| h.get("serve.request_ms"));
    let service_mean = hist
        .map(|h| {
            let f = |k| h.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            f("sum") / f("count").max(1.0)
        })
        .unwrap_or(0.0);
    let on_wire: Vec<f64> = open_ok.iter().map(|r| ms(r.done - r.sent)).collect();
    let on_wire_mean = on_wire.iter().sum::<f64>() / on_wire.len().max(1) as f64;
    out.layer("serve.service_p50_ms", hist.map_or(0.0, |h| histogram_quantile(h, 0.5)));
    out.layer("serve.service_p99_ms", hist.map_or(0.0, |h| histogram_quantile(h, 0.99)));
    out.layer("serve.wait_mean_ms", on_wire_mean - service_mean);
    out.layer("serve.accepted", counter(&metrics, "serve.accepted_total"));
    out.layer("serve.responses_2xx", counter(&metrics, "serve.responses_2xx"));
    out.layer("serve.responses_5xx", counter(&metrics, "serve.responses_5xx"));
    out.layer(
        "serve.shed",
        counter(&metrics, "serve.shed_queue_full") + counter(&metrics, "serve.shed_draining"),
    );
    out.layer("serve.generator_late_p99_ms", late.p99);
    out.layer("serve.emu_rr_runs", counter(&metrics, "emulation.rr_runs"));
    Ok(out)
}
