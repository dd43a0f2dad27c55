//! Arena-reuse differential tests: running an emulation through a
//! recycled [`EmulatorArena`] must be bit-identical to running it through
//! a fresh one, whatever ran through the arena before. This is the
//! correctness contract that lets the population executor keep one arena
//! per worker across an unbounded stream of runs.

use bce_client::{ClientConfig, FetchPolicy, JobSchedPolicy};
use bce_core::{
    EmulationResult, Emulator, EmulatorArena, EmulatorConfig, FaultConfig, Scenario,
    ScenarioBuilder,
};
use bce_types::{AppClass, Hardware, Preferences, ProcType, ProjectSpec, SimDuration};

fn cpu_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(format!("arena-cpu-{seed}"), Hardware::cpu_only(2, 1.5e9))
        .seed(seed)
        .project(ProjectSpec::new(0, "alpha", 100.0).with_app(AppClass::cpu(
            0,
            SimDuration::from_secs(900.0),
            SimDuration::from_hours(6.0),
        )))
        .project(ProjectSpec::new(1, "beta", 300.0).with_app(AppClass::cpu(
            1,
            SimDuration::from_secs(1400.0),
            SimDuration::from_hours(12.0),
        )))
        .build_unchecked()
}

fn gpu_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(
        format!("arena-gpu-{seed}"),
        Hardware::cpu_only(4, 2e9).with_group(ProcType::NvidiaGpu, 1, 1e10),
    )
    .seed(seed)
    .prefs(Preferences { max_ncpus_frac: 0.75, ..Default::default() })
    .project(
        ProjectSpec::new(0, "mixed", 100.0)
            .with_app(AppClass::gpu(
                0,
                ProcType::NvidiaGpu,
                SimDuration::from_secs(700.0),
                SimDuration::from_hours(8.0),
            ))
            .with_app(AppClass::cpu(
                1,
                SimDuration::from_secs(2000.0),
                SimDuration::from_hours(8.0),
            )),
    )
    .build_unchecked()
}

fn observed_cfg() -> EmulatorConfig {
    // Everything on: trace, timeline, faults — the arena must recycle
    // cleanly even with every optional subsystem active.
    let mut faults = FaultConfig::with_failure_rate(0.1);
    faults.crash_mtbf = Some(SimDuration::from_hours(9.0));
    EmulatorConfig {
        duration: SimDuration::from_hours(18.0),
        trace_capacity: 50_000,
        record_timeline: true,
        faults,
        ..Default::default()
    }
}

fn bare_cfg() -> EmulatorConfig {
    EmulatorConfig { duration: SimDuration::from_hours(18.0), ..Default::default() }
}

fn fresh(scenario: Scenario, client: ClientConfig, cfg: EmulatorConfig) -> EmulationResult {
    Emulator::new(scenario, client, cfg).run()
}

#[test]
fn reused_arena_is_bit_identical_to_fresh() {
    let client = ClientConfig::default();
    let mut arena = EmulatorArena::new();
    // Same emulation three times through the same arena: every pass must
    // match a fresh-arena run exactly.
    let baseline = fresh(cpu_scenario(11), client, bare_cfg());
    for pass in 0..3 {
        let r = Emulator::new(cpu_scenario(11), client, bare_cfg()).run_in(&mut arena);
        assert_eq!(
            r.bit_fingerprint(),
            baseline.bit_fingerprint(),
            "pass {pass} through reused arena diverged"
        );
    }
}

#[test]
fn dirty_arena_does_not_leak_into_next_run() {
    // Run a sequence of *different* scenarios (different hardware, GPU
    // apps, preferences, policies) through one arena; each result must be
    // identical to a fresh-arena run of the same spec. This catches any
    // state the arena fails to clear: queue entries, task buffers, RR
    // scratch, per-project accumulators, trace records.
    let specs: Vec<(Scenario, ClientConfig)> = vec![
        (cpu_scenario(1), ClientConfig::default()),
        (
            gpu_scenario(2),
            ClientConfig { sched_policy: JobSchedPolicy::LOCAL, ..Default::default() },
        ),
        (cpu_scenario(3), ClientConfig { fetch_policy: FetchPolicy::Orig, ..Default::default() }),
        (gpu_scenario(4), ClientConfig { sched_policy: JobSchedPolicy::WRR, ..Default::default() }),
        (cpu_scenario(1), ClientConfig::default()), // repeat of the first
    ];
    let mut arena = EmulatorArena::new();
    for (i, (scenario, client)) in specs.iter().enumerate() {
        let reused = Emulator::new(scenario.clone(), *client, bare_cfg()).run_in(&mut arena);
        let baseline = fresh(scenario.clone(), *client, bare_cfg());
        assert_eq!(
            reused.bit_fingerprint(),
            baseline.bit_fingerprint(),
            "spec {i} ({}) diverged after arena was dirtied",
            scenario.name
        );
    }
}

#[test]
fn arena_reuse_with_log_timeline_and_faults() {
    // The observability + fault paths allocate the most per run (trace
    // records, timeline segments, fault RNG streams); they too must be
    // bit-stable under reuse, including the recorded trace.
    let client = ClientConfig::default();
    let mut arena = EmulatorArena::new();
    for scenario_seed in [5u64, 6, 7] {
        let reused =
            Emulator::new(cpu_scenario(scenario_seed), client, observed_cfg()).run_in(&mut arena);
        let baseline = fresh(cpu_scenario(scenario_seed), client, observed_cfg());
        assert_eq!(reused.bit_fingerprint(), baseline.bit_fingerprint());
        assert!(!baseline.trace.is_empty());
        assert_eq!(reused.trace, baseline.trace);
        // Hand the trace buffer back so the next pass actually recycles it.
        arena.reclaim(reused);
    }
}

#[test]
fn run_is_run_in_with_a_throwaway_arena() {
    let r1 = Emulator::new(gpu_scenario(9), ClientConfig::default(), observed_cfg()).run();
    let r2 = Emulator::new(gpu_scenario(9), ClientConfig::default(), observed_cfg())
        .run_in(&mut EmulatorArena::new());
    assert_eq!(r1.bit_fingerprint(), r2.bit_fingerprint());
}
