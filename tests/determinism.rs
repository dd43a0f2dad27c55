//! Determinism across the full stack — the emulator's reason to exist is
//! exact reproducibility of reported anomalies (§4.3).

use boinc_policy_emu::client::ClientConfig;
use boinc_policy_emu::core::{EmulationResult, Emulator, EmulatorConfig};
use boinc_policy_emu::scenarios::{
    doc_from_scenario, scenario2, scenario4_sized, scenario_from_state_file, PopulationModel,
    PopulationSampler,
};
use boinc_policy_emu::sim::Level;
use boinc_policy_emu::types::SimDuration;

fn fingerprint(r: &EmulationResult) -> (u64, u64, u64, u64, u64) {
    (
        r.jobs_completed,
        r.jobs_missed_deadline,
        r.total_flops_used.to_bits(),
        r.merit.share_violation.to_bits(),
        r.merit.rpcs_per_job.to_bits(),
    )
}

fn cfg(days: f64) -> EmulatorConfig {
    EmulatorConfig { duration: SimDuration::from_days(days), ..Default::default() }
}

#[test]
fn scenario4_is_bit_reproducible() {
    let run = || {
        let r = Emulator::new(scenario4_sized(8), ClientConfig::default(), cfg(1.0)).run();
        fingerprint(&r)
    };
    assert_eq!(run(), run());
}

#[test]
fn sampled_population_is_reproducible() {
    let run = || {
        let mut sampler = PopulationSampler::new(PopulationModel::default(), 99);
        let scenarios = sampler.sample_many(3);
        scenarios
            .into_iter()
            .map(|s| fingerprint(&Emulator::new(s, ClientConfig::default(), cfg(0.5)).run()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn statefile_roundtrip_preserves_behaviour() {
    // Export scenario 2 to a state file, re-import it, and check the
    // emulation is bit-identical — the web-form replay path.
    let original = scenario2();
    let xml = doc_from_scenario(&original).render();
    let reimported = scenario_from_state_file(&xml, "scenario2").unwrap();
    let a = Emulator::new(original, ClientConfig::default(), cfg(1.0)).run();
    let b = Emulator::new(reimported, ClientConfig::default(), cfg(1.0)).run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn message_log_is_reproducible() {
    let run = || {
        let c = EmulatorConfig {
            duration: SimDuration::from_hours(8.0),
            log_capacity: 100_000,
            log_level: Level::Debug,
            ..Default::default()
        };
        Emulator::new(scenario2(), ClientConfig::default(), c).run().log.render()
    };
    assert_eq!(run(), run());
}

#[test]
fn log_and_timeline_do_not_perturb_results() {
    // Observability must be free: enabling the log and timeline cannot
    // change a single scheduling decision.
    let bare = Emulator::new(scenario2(), ClientConfig::default(), cfg(1.0)).run();
    let observed = {
        let c = EmulatorConfig {
            duration: SimDuration::from_days(1.0),
            log_capacity: 100_000,
            record_timeline: true,
            ..Default::default()
        };
        Emulator::new(scenario2(), ClientConfig::default(), c).run()
    };
    assert_eq!(fingerprint(&bare), fingerprint(&observed));
}

#[test]
fn traced_runs_match_untraced_at_every_thread_count() {
    // The trace/metrics/profile layer is observation-only: enabling a
    // trace buffer and the profiler must not move a single bit of any
    // run's outcome, serial or parallel. Fingerprints here use the full
    // `bit_fingerprint` (which deliberately excludes the observability
    // fields) so a traced run and an untraced run can be compared at all.
    use boinc_policy_emu::controller::{run_all, RunSpec};

    let specs = |traced: bool| -> Vec<RunSpec> {
        let emu = EmulatorConfig {
            duration: SimDuration::from_days(0.5),
            trace_capacity: if traced { 500_000 } else { 0 },
            profile: traced,
            ..Default::default()
        };
        (0..6u32)
            .map(|i| {
                RunSpec::new(format!("run{i}"), scenario4_sized(3 + i), ClientConfig::default())
                    .with_emulator(emu.clone())
            })
            .collect()
    };

    let baseline: Vec<u64> =
        run_all(specs(false), 1).into_iter().map(|(_, r)| r.bit_fingerprint()).collect();
    for threads in [1, 2, 8] {
        let traced = run_all(specs(true), threads);
        for (i, (label, r)) in traced.iter().enumerate() {
            assert_eq!(
                r.bit_fingerprint(),
                baseline[i],
                "{label} diverged under tracing at {threads} threads"
            );
            assert!(r.trace.emitted() > 0, "{label} traced nothing at {threads} threads");
            let profile = r.profile.as_ref().expect("traced runs are profiled");
            assert!(
                profile.spans.iter().any(|s| s.name == "emu.total"),
                "{label}: profile does not cover the whole run at {threads} threads"
            );
        }
    }
}

#[test]
fn fault_injected_emulation_is_bit_reproducible() {
    // The fault-injection subsystem draws from dedicated named RNG
    // streams, so a faulty run is exactly as reproducible as a clean one:
    // same seed, same crash times, same lost RPCs, same metrics.
    use boinc_policy_emu::core::FaultConfig;
    let run = || {
        let mut faults = FaultConfig::with_failure_rate(0.15);
        faults.crash_mtbf = Some(SimDuration::from_hours(6.0));
        let c =
            EmulatorConfig { duration: SimDuration::from_days(1.0), faults, ..Default::default() };
        let r = Emulator::new(scenario2(), ClientConfig::default(), c).run();
        (
            fingerprint(&r),
            r.faults.transient_rpc_failures,
            r.faults.transfer_failures,
            r.faults.crashes,
            r.faults.jobs_errored,
            r.faults.fault_wasted_fraction.to_bits(),
            r.faults.mean_recovery_secs.to_bits(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn zero_rate_faults_are_bit_identical_to_no_faults() {
    // The zero-fault identity: a config with every rate at zero must not
    // create (or draw from) any fault stream, so the emulation is
    // bit-identical to one that never heard of faults.
    use boinc_policy_emu::core::FaultConfig;
    let plain = Emulator::new(scenario2(), ClientConfig::default(), cfg(1.0)).run();
    let zeroed = {
        let c = EmulatorConfig {
            duration: SimDuration::from_days(1.0),
            faults: FaultConfig::with_failure_rate(0.0),
            ..Default::default()
        };
        Emulator::new(scenario2(), ClientConfig::default(), c).run()
    };
    assert_eq!(fingerprint(&plain), fingerprint(&zeroed));
    assert!(!zeroed.faults.any(), "no fault metrics may accrue at rate 0");
}
