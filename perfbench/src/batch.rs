//! `paper_sweep`: the paper's four scenarios (§5) under each of the six
//! sched × fetch policies `bce compare` uses, at the 10-day horizon, run
//! back to back in one reused `EmulatorArena`. Deep queues: RR
//! simulation, scheduling, fetch and server RPC do most of the work,
//! scenario 4's re-anchors most of all; the event loop and
//! `Client::advance` are measured here too.

use crate::stats::{median, ms, peak_rss_mb, HostSpeed, SetupTimes, Span, Tail};
use crate::{Ctx, Outcome};
use bce_client::{ClientConfig, FetchPolicy, JobSchedPolicy};
use bce_core::{EmulationResult, Emulator, EmulatorArena, EmulatorConfig, Scenario};
use bce_scenarios::ScenarioSource;
use bce_types::SimDuration;
use std::sync::Arc;
use std::time::Instant;

const FILES: &[&str] = &[
    "scenarios/scenario1.json",
    "scenarios/scenario2.json",
    "scenarios/scenario3.json",
    "scenarios/scenario4.json",
];
const DAYS: f64 = 10.0;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 9;
/// Scenario seed of the set-up's warm-up run: fixed, so that every
/// workload seed sets up the same work.
const WARM_UP_SEED: u64 = 1;

const NPOLICIES: usize = 6;

/// The six policy combinations of `bce compare`.
fn policies() -> Vec<ClientConfig> {
    let mut v = Vec::new();
    for sched in [JobSchedPolicy::WRR, JobSchedPolicy::LOCAL, JobSchedPolicy::GLOBAL] {
        for fetch in [FetchPolicy::Orig, FetchPolicy::Hysteresis] {
            v.push(ClientConfig { sched_policy: sched, fetch_policy: fetch, ..Default::default() });
        }
    }
    v
}

/// Load, seed and validate the workload's scenario files. The seed is
/// the only thing the benchmark changes in them.
fn load(files: &[&str], seed: u64) -> Result<Vec<Arc<Scenario>>, String> {
    files
        .iter()
        .enumerate()
        .map(|(k, f)| {
            let mut s = ScenarioSource::parse(f).load().map_err(|e| e.to_string())?.scenario;
            s.seed = crate::stats::Rng::new(seed, k as u64).next_u64();
            s.validate().map_err(|e| format!("{f}: {e}"))?;
            Ok(Arc::new(s))
        })
        .collect()
}

/// One emulator per (scenario, policy), scenario-major.
fn emulators(scenarios: &[Arc<Scenario>], cfg: &Arc<EmulatorConfig>) -> Vec<Emulator> {
    let policies = policies();
    scenarios
        .iter()
        .flat_map(|s| policies.iter().map(move |p| Emulator::new(s.clone(), *p, cfg.clone())))
        .collect()
}

/// `core.run_ms.<scenario>` key for a paper scenario name.
fn run_ms_key(name: &str) -> Option<&'static str> {
    Some(match name {
        "scenario1" => "core.run_ms.scenario1",
        "scenario2" => "core.run_ms.scenario2",
        "scenario3" => "core.run_ms.scenario3",
        "scenario4" => "core.run_ms.scenario4",
        _ => return None,
    })
}

pub fn paper_sweep(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg =
        Arc::new(EmulatorConfig { duration: SimDuration::from_days(DAYS), ..Default::default() });

    // --- Set-up: load + validate + build + one warm-up run in a fresh
    // arena. The warm-up runs the first scenario and policy with a fixed
    // seed. Repeated, spread over the timed phase; the first
    // repetition's state is the one used.
    let set_up = || -> Result<_, String> {
        let scenarios = load(FILES, ctx.seed)?;
        let emus = emulators(&scenarios, &cfg);
        let mut arena = EmulatorArena::new();
        let mut warm_up = (*scenarios[0]).clone();
        warm_up.seed = WARM_UP_SEED;
        let warm = Emulator::new(Arc::new(warm_up), policies()[0], cfg.clone()).run_in(&mut arena);
        arena.reclaim(warm);
        Ok((scenarios, emus, arena))
    };
    let mut speed = HostSpeed::new();
    let mut setup = SetupTimes::new(SETUP_REPS);
    let (scenarios, emus, mut arena) = setup.time(&mut speed, set_up)?;
    let days_per_rep = DAYS * emus.len() as f64;

    // --- Timed phase: whole sweeps while another one fits the budget.
    let budget = ctx.measure.as_secs_f64();
    let start = Instant::now();
    let mut rep_s: Vec<f64> = Vec::new();
    let mut spans: Vec<Vec<Span>> = vec![Vec::new(); emus.len()];
    let mut fingerprints: Vec<Vec<u64>> = vec![Vec::new(); emus.len()];
    while rep_s.last().is_none_or(|last| start.elapsed().as_secs_f64() + last <= budget) {
        let t_rep = Instant::now();
        for (i, emu) in emus.iter().enumerate() {
            let (result, span) = speed.time(|| emu.run_in(&mut arena));
            speed.sample();
            spans[i].push(span);
            fingerprints[i].push(result.bit_fingerprint());
            arena.reclaim(result);
        }
        rep_s.push(t_rep.elapsed().as_secs_f64());
        if setup.due(start.elapsed().as_secs_f64(), budget) {
            setup.time(&mut speed, set_up)?;
        }
    }
    let rss = peak_rss_mb();
    for _ in 0..setup.missing() {
        setup.time(&mut speed, set_up)?;
    }
    let raw_ms: Vec<Vec<f64>> =
        spans.iter().map(|v| v.iter().map(|s| s.raw_s * 1e3).collect()).collect();
    let run_ms: Vec<Vec<f64>> =
        spans.iter().map(|v| v.iter().map(|s| speed.normalized(*s) * 1e3).collect()).collect();

    // Each (scenario, policy) run is one class of deterministic work; its
    // time is the median of its normalised repetitions. A sweep's time is
    // the sum over classes, and the latency percentiles are over the
    // fixed mix of classes (see README.md, "Latency in batch workloads").
    let class_ms: Vec<f64> = run_ms.iter().map(|v| median(v)).collect();
    let rep = class_ms.iter().sum::<f64>() / 1e3;
    let raw_rep = raw_ms.iter().map(|v| median(v)).sum::<f64>() / 1e3;
    let lat = Tail::of(&class_ms);
    out.e2e("setup_s", setup.median(&speed));
    out.e2e("sim_days_per_s", days_per_rep / rep);
    out.e2e("max_rps", emus.len() as f64 / rep);
    out.e2e("peak_rss_mb", rss);
    out.e2e("latency_p50_ms", lat.p50);
    out.e2e("latency_p99_ms", lat.p99);
    out.notes.push(format!(
        "{} sweeps of {} runs x {} days; sweep {rep:.3} s normalised, {raw_rep:.3} s of \
         wall time (sums of per-run medians); set-up median of {SETUP_REPS} reps",
        rep_s.len(),
        emus.len(),
        DAYS,
    ));
    out.notes.push(format!(
        "per-run latency over {} run classes, each the median of {} runs: p50 {:.3} ms, \
         p99 {:.3} ms (slowest class)",
        lat.n,
        rep_s.len(),
        lat.p50,
        lat.p99
    ));
    for (k, s) in scenarios.iter().enumerate() {
        if let Some(key) = run_ms_key(&s.name) {
            out.layer(key, class_ms[k * NPOLICIES..(k + 1) * NPOLICIES].iter().sum());
        }
    }

    // --- Traced pass: the same inputs, fresh arenas, profiling spans on.
    // Its fingerprints are the reference the untraced runs must match.
    let traced_cfg = Arc::new(EmulatorConfig { profile: true, ..(*cfg).clone() });
    let wall = Instant::now();
    let t = Instant::now();
    let traced_scenarios = load(FILES, ctx.seed)?;
    let load_ms = ms(t.elapsed());
    let mut totals = RunTotals::default();
    let mut reference = Vec::with_capacity(emus.len());
    for emu in emulators(&traced_scenarios, &traced_cfg) {
        let r = emu.run();
        totals.add(&r);
        reference.push(r.bit_fingerprint());
    }
    let wall_ms = ms(wall.elapsed());

    // --- Output checks: every untraced run (reused arena) must be
    // bit-identical to the fresh-arena traced run of the same inputs.
    for (i, fps) in fingerprints.iter().enumerate() {
        for (rep, fp) in fps.iter().enumerate() {
            out.check(*fp == reference[i], || {
                format!(
                    "{} policy {} sweep {rep}: fingerprint {fp:016x}, fresh traced run {:016x}",
                    scenarios[i / NPOLICIES].name,
                    i % NPOLICIES,
                    reference[i]
                )
            });
        }
    }

    totals.record(&mut out);
    out.layer("scenarios.load_ms", load_ms);
    out.layer("core.ns_per_event", raw_rep * 1e9 / totals.events.max(1) as f64);
    out.layer("core.profile_overhead_frac", (wall_ms - load_ms) / (raw_rep * 1e3) - 1.0);
    out.table = vec![
        ("scenarios.load", load_ms),
        ("client.advance", totals.advance),
        ("client.reschedule", totals.resched),
        ("server.rpc_loop", totals.rpc),
        ("core.loop_self", totals.loop_self()),
    ];
    out.close_table(wall_ms);
    Ok(out)
}

/// Per-layer totals over a set of profiled runs: span wall times from
/// `EmulationResult::profile` and the counters each result carries.
#[derive(Debug, Default)]
pub struct RunTotals {
    /// Σ `emu.total`: whole-run wall time inside the emulator.
    pub total: f64,
    pub advance: f64,
    pub resched: f64,
    pub rpc: f64,
    pub events: u64,
    queries: u64,
    rr_runs: u64,
    frozen: u64,
    peak_jobs: usize,
    rpcs: u64,
    flaps: u64,
    skipped: u64,
}

impl RunTotals {
    pub fn add(&mut self, r: &EmulationResult) {
        let span = |name| r.profile.as_ref().and_then(|p| p.span(name)).map_or(0.0, |s| s.wall_ms);
        self.total += span("emu.total");
        self.advance += span("emu.client_advance");
        self.resched += span("emu.reschedule");
        self.rpc += span("emu.rpc_loop");
        self.events += r.perf.events_processed;
        self.queries += r.perf.rr_queries;
        self.rr_runs += r.perf.rr_runs;
        self.frozen += r.perf.rr_frozen;
        self.peak_jobs = self.peak_jobs.max(r.perf.peak_jobs);
        self.rpcs += r.projects.iter().map(|p| p.rpcs).sum::<u64>();
        self.flaps += r.perf.flaps_coalesced;
        self.skipped += r.perf.avail_resched_skipped;
    }

    /// Event-loop self time: `emu.total` minus its child spans.
    pub fn loop_self(&self) -> f64 {
        self.total - self.advance - self.resched - self.rpc
    }

    pub fn record(&self, out: &mut Outcome) {
        out.layer("core.events", self.events as f64);
        out.layer("core.loop_self_ms", self.loop_self());
        out.layer("client.advance_ms", self.advance);
        out.layer("client.reschedule_ms", self.resched);
        out.layer("client.rr_queries", self.queries as f64);
        out.layer("client.rr_runs", self.rr_runs as f64);
        out.layer("client.rr_frozen", self.frozen as f64);
        out.layer("client.rr_hit_rate", 1.0 - self.rr_runs as f64 / self.queries.max(1) as f64);
        out.layer("client.peak_jobs", self.peak_jobs as f64);
        out.layer("server.rpc_loop_ms", self.rpc);
        out.layer("server.rpcs", self.rpcs as f64);
        out.layer("avail.flaps_coalesced", self.flaps as f64);
        out.layer("avail.resched_skipped", self.skipped as f64);
    }
}
