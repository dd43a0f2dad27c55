//! `population_campaign`: a campaign manifest the benchmark writes — a
//! fixed `boinc2019` host sample, each host a JSON scenario spec with an
//! emulation seed drawn from the workload seed, under the standard
//! policies at a 2-day horizon — run through `run_manifest` with
//! `threads = nproc` and
//! rotated checkpoint generations every few runs. Many short runs give
//! the executor, the submission-order reduction, and checkpoint encoding
//! plus fsync'd framed writes a share of the time they never get in the
//! serial sweep.

use crate::batch::RunTotals;
use crate::stats::{median, ms, peak_rss_mb, HostSpeed, Rng, SetupTimes, Span};
use crate::{Ctx, Outcome};
use bce_controller::{
    run_manifest, run_supervised, run_supervised_profiled, CampaignCheckpoint, CampaignManifest,
    CampaignOptions, RunSpec,
};
use bce_core::{EmulatorConfig, Profiler, Scenario};
use bce_scenarios::{PopulationModel, PopulationSampler, ScenarioSpec};
use bce_statefile::{CheckpointStore, RealIo, StateIo, DEFAULT_KEEP_GENERATIONS};
use bce_types::SimDuration;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sampled hosts per campaign; with two policies, 128 runs.
const HOSTS: usize = 64;
/// Sampling seed of the hosts: fixed. Every workload seed runs the same
/// hosts, each with its own emulation seed drawn from the workload seed.
/// Hosts sampled with the workload seed made a campaign's cost vary by
/// about ±15% with the hosts drawn; a few costly hosts set much of it,
/// and 256 hosts did not average it out (see README.md, "Noise control").
const SAMPLE_SEED: u64 = 2019;
const DAYS: f64 = 2.0;
/// A checkpoint generation every this many completed runs.
const CKPT_EVERY: usize = 16;
const SETUP_REPS: usize = 9;
/// Runs in each set-up's warm-up.
const WARM_UP_RUNS: usize = 8;
/// Sampling seed of the warm-up hosts, run through a manifest's
/// `sampled` block: fixed, so that every workload seed sets up the same
/// work.
const WARM_UP_SEED: u64 = 1;
/// Repetitions behind each traced checkpoint/statefile timing.
const IO_REPS: usize = 5;

/// A manifest of `scenarios` (a JSON array body) under the standard
/// policies.
fn manifest_text(scenarios: &str) -> String {
    format!(
        "{{\"format\": \"bce-campaign\", \"version\": 1, \"name\": \"perfbench-population\", \
         \"days\": {DAYS}, \"policies\": \"standard\", \"scenarios\": [{scenarios}]}}"
    )
}

/// A `sampled` block of `n` `boinc2019` hosts drawn with `seed`.
fn sampled(n: usize, seed: u64) -> String {
    format!("{{\"sampled\": {{\"model\": \"boinc2019\", \"hosts\": {n}, \"seed\": {seed}}}}}")
}

/// Write the workload's inputs into `dir`: the `HOSTS` hosts sampled
/// with `SAMPLE_SEED`, each as a JSON scenario spec whose emulation seed
/// is drawn from the workload seed, and a manifest that lists them.
/// Returns the manifest's path.
fn write_inputs(dir: &Path, seed: u64) -> Result<PathBuf, String> {
    let model = PopulationModel::named("boinc2019").ok_or("no boinc2019 population model")?;
    let hosts = PopulationSampler::new(model, SAMPLE_SEED).sample_many(HOSTS);
    let mut refs = Vec::with_capacity(hosts.len());
    for (k, mut host) in hosts.into_iter().enumerate() {
        host.seed = Rng::new(seed, k as u64).next_u64();
        let file = format!("host-{k:03}.json");
        let spec = ScenarioSpec::from_scenario(&host).to_canonical_json();
        std::fs::write(dir.join(&file), spec).map_err(|e| format!("{file}: {e}"))?;
        refs.push(format!("\"{file}\""));
    }
    let path = dir.join("population.json");
    std::fs::write(&path, manifest_text(&refs.join(", "))).map_err(|e| e.to_string())?;
    Ok(path)
}

/// The runs `population_campaign` makes of a manifest, policy-major.
fn specs(manifest: &CampaignManifest, scenarios: &[Arc<Scenario>], profile: bool) -> Vec<RunSpec> {
    let cfg = Arc::new(EmulatorConfig {
        duration: SimDuration::from_days(manifest.days),
        profile,
        ..Default::default()
    });
    manifest
        .policies
        .iter()
        .flat_map(|(label, client)| {
            let cfg = cfg.clone();
            scenarios.iter().map(move |s| {
                RunSpec::new(format!("{label}/{}", s.name), s.clone(), *client)
                    .with_emulator(cfg.clone())
            })
        })
        .collect()
}

/// The real filesystem, counting the checkpoint generations and bytes
/// the store writes durably (manifest hints excluded).
#[derive(Debug, Default)]
struct CountingIo {
    writes: AtomicU64,
    bytes: AtomicU64,
}

impl StateIo for CountingIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealIo.read(path)
    }
    fn write_durable(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let hint = path.file_name().is_some_and(|n| n.to_string_lossy().contains(".manifest"));
        if !hint {
            self.writes.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        RealIo.write_durable(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealIo.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        RealIo.sync_dir(dir)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealIo.remove_file(path)
    }
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        RealIo.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        RealIo.list_dir(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        RealIo.exists(path)
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let manifest_path = write_inputs(&ctx.work, ctx.seed)?;

    // --- Set-up: read + parse + expand the manifest (loading and
    // validating the host specs it lists), build the run specs, and
    // warm-up runs. `run_manifest`
    // builds its worker arenas afresh on every call, so the warm-up can
    // only warm the process. It runs `WARM_UP_RUNS` hosts on one thread,
    // so that one unusually cheap or costly host does not set the
    // figure. The warm-up hosts are sampled with a fixed seed, before the
    // set-up is timed, so that the set-up's work does not depend on the
    // workload seed. Repeated, spread over the timed phase; the first
    // repetition's manifest is the one used.
    let warm_up = {
        let m = CampaignManifest::parse(
            &manifest_text(&sampled(WARM_UP_RUNS, WARM_UP_SEED)),
            &ctx.work,
        )
        .map_err(|e| e.to_string())?;
        let (scenarios, _) = m.expand_scenarios().map_err(|e| e.to_string())?;
        specs(&m, &scenarios, false).into_iter().take(WARM_UP_RUNS).collect::<Vec<_>>()
    };
    let set_up = || -> Result<_, String> {
        let m = CampaignManifest::read_from(&manifest_path).map_err(|e| e.to_string())?;
        let (scenarios, _) = m.expand_scenarios().map_err(|e| e.to_string())?;
        std::hint::black_box(specs(&m, &scenarios, false));
        let mut warm_ok = true;
        run_supervised(&warm_up, 1, |_, _, o| warm_ok &= o.is_ok());
        Ok((m, warm_ok))
    };
    let mut speed = HostSpeed::new();
    let mut setup = SetupTimes::new(SETUP_REPS);
    let mut warm_ups_ok = true;
    let (manifest, ok) = setup.time(&mut speed, set_up)?;
    warm_ups_ok &= ok;

    // --- Timed phase: whole campaigns, each into a fresh checkpoint
    // store, while another one fits the budget. Campaign times are
    // normalised by calibration units run on `nproc` threads at once:
    // the one-thread unit the sweep uses does not track two busy threads
    // (see README.md, "Noise control").
    let start = Instant::now();
    let mut parallel = HostSpeed::parallel(ctx.nproc);
    let mut campaign_spans: Vec<Span> = Vec::new();
    let mut runs_per_campaign = 0;
    let mut tables = Vec::new();
    let mut io_counts = None;
    let first_store = ctx.work.join("campaign-0").join("campaign.ckpt");
    let budget = ctx.measure.as_secs_f64();
    while campaign_spans
        .last()
        .is_none_or(|last| start.elapsed().as_secs_f64() + last.raw_s <= budget)
    {
        let i = campaign_spans.len();
        let dir = ctx.work.join(format!("campaign-{i}"));
        let io = Arc::new(CountingIo::default());
        let opts = CampaignOptions {
            checkpoint_path: Some(dir.join("campaign.ckpt")),
            checkpoint_every_runs: CKPT_EVERY,
            io: Some(io.clone()),
            ..Default::default()
        };
        let (outcome, span) = parallel.time(|| run_manifest(&manifest, ctx.nproc, &opts, None));
        let outcome = outcome.map_err(|e| e.to_string())?;
        parallel.sample();
        campaign_spans.push(span);
        let r = &outcome.report;
        runs_per_campaign = r.total_runs;
        out.check(
            r.completed_runs == r.total_runs
                && r.errors.is_empty()
                && r.checkpoint_write_failures == 0,
            || {
                format!(
                    "campaign {i}: {}/{} runs, {} quarantined, {} checkpoint write failures",
                    r.completed_runs,
                    r.total_runs,
                    r.errors.len(),
                    r.checkpoint_write_failures
                )
            },
        );
        tables.push(outcome.table_fingerprint);
        if i == 0 {
            io_counts = Some((io.writes.load(Ordering::Relaxed), io.bytes.load(Ordering::Relaxed)));
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
        // The host's speed, for the set-ups spread over the timed phase.
        speed.sample();
        if setup.due(start.elapsed().as_secs_f64(), budget) {
            warm_ups_ok &= setup.time(&mut speed, set_up)?.1;
        }
    }
    let rss = peak_rss_mb();
    for _ in 0..setup.missing() {
        warm_ups_ok &= setup.time(&mut speed, set_up)?.1;
    }
    out.check(warm_ups_ok, || "a set-up's warm-up run was quarantined".into());

    // --- Output check: every campaign's table equals a single-threaded,
    // checkpoint-free rerun of the same manifest.
    let reference = run_manifest(&manifest, 1, &CampaignOptions::default(), None)
        .map_err(|e| e.to_string())?
        .table_fingerprint;
    for (i, fp) in tables.iter().enumerate() {
        out.check(*fp == reference, || {
            format!("campaign {i}: table fingerprint {fp:016x}, threads=1 rerun {reference:016x}")
        });
    }

    let days = runs_per_campaign as f64 * manifest.days;
    // The request is the whole campaign, one class of deterministic work:
    // both percentiles are its median latency (see README.md, "Latency in
    // batch workloads").
    let campaign_s: Vec<f64> = campaign_spans.iter().map(|s| parallel.normalized(*s)).collect();
    let campaign = median(&campaign_s);
    let raw = median(&campaign_spans.iter().map(|s| s.raw_s).collect::<Vec<_>>());
    let latency_ms = campaign * 1e3;
    out.e2e("setup_s", setup.median(&speed));
    out.e2e("sim_days_per_s", days / campaign);
    out.e2e("max_rps", runs_per_campaign as f64 / campaign);
    out.e2e("peak_rss_mb", rss);
    out.e2e("latency_p50_ms", latency_ms);
    out.e2e("latency_p99_ms", latency_ms);
    out.notes.push(format!(
        "{} campaigns of {runs_per_campaign} runs x {} days on {} threads, checkpoint every \
         {CKPT_EVERY} runs; set-up median of {SETUP_REPS} reps",
        campaign_s.len(),
        manifest.days,
        ctx.nproc
    ));
    out.notes.push(format!(
        "campaign latency: median {latency_ms:.3} ms normalised, {:.3} ms of wall time, \
         of {} campaigns",
        raw * 1e3,
        campaign_s.len()
    ));
    let (writes, bytes) = io_counts.expect("at least one campaign");
    out.layer("controller.ckpt_writes", writes as f64);
    out.layer("controller.ckpt_bytes", bytes as f64);

    if ctx.trace {
        traced(ctx, &manifest_path, &first_store, &mut out)?;
    }
    Ok(out)
}

/// The traced pass: the manifest expansion, the executor under
/// `run_supervised_profiled` with per-run profiling, and the checkpoint
/// codec and store on the campaign's own final checkpoint, each timed
/// at its public entry point.
fn traced(ctx: &Ctx, manifest_path: &Path, store: &Path, out: &mut Outcome) -> Result<(), String> {
    let text = std::fs::read_to_string(manifest_path).map_err(|e| e.to_string())?;
    let base = manifest_path.parent().unwrap_or(Path::new("."));

    // Untraced baseline of the same executor call, for the overhead.
    let m = CampaignManifest::parse(&text, base).map_err(|e| e.to_string())?;
    let (scenarios, _) = m.expand_scenarios().map_err(|e| e.to_string())?;
    let plain = specs(&m, &scenarios, false);
    let t = Instant::now();
    run_supervised(&plain, ctx.nproc, |_, _, _| {});
    let plain_ms = ms(t.elapsed());

    let wall = Instant::now();
    let t = Instant::now();
    let m = CampaignManifest::parse(&text, base).map_err(|e| e.to_string())?;
    let (scenarios, _) = m.expand_scenarios().map_err(|e| e.to_string())?;
    let expand_ms = ms(t.elapsed());

    let specs = specs(&m, &scenarios, true);
    let mut prof = Profiler::enabled();
    let mut totals = RunTotals::default();
    let mut quarantined = 0;
    let t = Instant::now();
    run_supervised_profiled(&specs, ctx.nproc, &mut prof, |_, _, outcome| match outcome {
        Ok(r) => totals.add(&r),
        Err(_) => quarantined += 1,
    });
    let exec_ms = ms(t.elapsed());
    out.check(quarantined == 0, || format!("traced executor pass: {quarantined} quarantined"));
    let report = prof.report();
    let span = |name| report.span(name).map_or(0.0, |s| s.wall_ms);
    // `exec.emulate` is on the consuming thread only when one worker
    // runs everything serially; otherwise emulation hides in recv_wait.
    let (recv_wait, serial, reduce) =
        (span("exec.recv_wait"), span("exec.emulate"), span("exec.reduce"));

    let ckpt = CampaignCheckpoint::read_from(store).map_err(|e| e.to_string())?;
    let mut encode = Vec::new();
    let mut payload = String::new();
    for _ in 0..IO_REPS {
        let t = Instant::now();
        payload = std::hint::black_box(ckpt.to_xml_string());
        encode.push(ms(t.elapsed()));
    }
    let sf = CheckpointStore::with_real_io(
        ctx.work.join("statefile").join("bench.ckpt"),
        DEFAULT_KEEP_GENERATIONS,
    );
    let (mut write, mut read) = (Vec::new(), Vec::new());
    for _ in 0..IO_REPS {
        let t = Instant::now();
        sf.write(payload.as_bytes()).map_err(|e| e.to_string())?;
        write.push(ms(t.elapsed()));
        let t = Instant::now();
        let (bytes, _) = sf.read_latest().map_err(|e| e.to_string())?;
        read.push(ms(t.elapsed()));
        out.check(bytes == payload.as_bytes(), || "statefile read-back differs".into());
    }
    let wall_ms = ms(wall.elapsed());

    totals.record(out);
    let workers = ctx.nproc.min(specs.len()) as f64;
    out.layer("controller.manifest_expand_ms", expand_ms);
    out.layer("controller.emulate_ms", totals.total);
    out.layer("controller.recv_wait_ms", recv_wait);
    out.layer("controller.reduce_ms", reduce);
    out.layer("controller.executor_overhead_frac", 1.0 - totals.total / (exec_ms * workers));
    out.layer("controller.ckpt_encode_ms", median(&encode));
    out.layer("statefile.write_ms", median(&write));
    out.layer("statefile.read_ms", median(&read));
    out.layer("core.profile_overhead_frac", exec_ms / plain_ms - 1.0);
    out.layer("core.ns_per_event", plain_ms * 1e6 * workers / totals.events.max(1) as f64);
    out.table = vec![
        ("controller.manifest_expand", expand_ms),
        ("controller.recv_wait", recv_wait),
        ("controller.emulate_serial", serial),
        ("controller.reduce", reduce),
        ("controller.executor_self", exec_ms - recv_wait - serial - reduce),
        ("controller.ckpt_encode", encode.iter().sum()),
        ("statefile.write", write.iter().sum()),
        ("statefile.read", read.iter().sum()),
    ];
    out.close_table(wall_ms);
    Ok(())
}
