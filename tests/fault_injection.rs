//! End-to-end fault-injection behavior: graceful degradation, crash
//! recovery, and transfer give-up — the acceptance criteria of the
//! robustness subsystem.

use boinc_policy_emu::client::{ClientConfig, NetworkModel};
use boinc_policy_emu::core::{EmulationResult, Emulator, EmulatorConfig, FaultConfig, Scenario};
use boinc_policy_emu::faults::RetryPolicy;
use boinc_policy_emu::scenarios::scenario2;
use boinc_policy_emu::types::SimDuration;

/// Scenario 2 with real file transfers (4 MB in / 1 MB out at 1 MB/s), so
/// the transfer-fault path is exercised; the paper scenarios model instant
/// transfers.
fn scenario_with_files() -> Scenario {
    let mut s = scenario2();
    for p in &mut s.projects {
        for a in &mut p.apps {
            a.input_bytes = 4e6;
            a.output_bytes = 1e6;
        }
    }
    s.network = Some(NetworkModel::symmetric(1e6));
    s
}

fn run_at(rate: f64) -> EmulationResult {
    let faults = FaultConfig::with_failure_rate(rate);
    let cfg =
        EmulatorConfig { duration: SimDuration::from_days(1.0), faults, ..Default::default() };
    Emulator::new(scenario_with_files(), ClientConfig::default(), cfg).run()
}

#[test]
fn degradation_is_monotone_in_failure_rate() {
    // Higher transient failure rates must cost more RPCs per delivered job
    // and inject strictly more faults — but never panic or deadlock.
    let results: Vec<EmulationResult> = [0.0, 0.2, 0.5].iter().map(|&r| run_at(r)).collect();
    for w in results.windows(2) {
        let (lo, hi) = (&w[0], &w[1]);
        assert!(
            hi.faults.transient_rpc_failures > lo.faults.transient_rpc_failures,
            "RPC fault count must rise with the rate: {} !> {}",
            hi.faults.transient_rpc_failures,
            lo.faults.transient_rpc_failures
        );
        assert!(
            hi.faults.transfer_failures > lo.faults.transfer_failures,
            "transfer fault count must rise with the rate: {} !> {}",
            hi.faults.transfer_failures,
            lo.faults.transfer_failures
        );
        assert!(
            hi.merit.rpcs_per_job >= lo.merit.rpcs_per_job,
            "RPCs/job must not improve under faults: {} < {}",
            hi.merit.rpcs_per_job,
            lo.merit.rpcs_per_job
        );
        assert!(hi.jobs_completed > 0, "emulation must still make progress");
    }
    assert!(
        results[2].merit.rpcs_per_job > results[0].merit.rpcs_per_job,
        "a 50% loss rate must measurably inflate RPCs/job"
    );
}

#[test]
fn transfer_give_up_errors_jobs_and_wastes_their_flops() {
    // The transfer policy gives a file up after 8 consecutive failed
    // attempts; a high failure rate must reach that and error some jobs
    // end-to-end: client task errored, server notified, and the spent
    // flops attributed to fault waste.
    assert_eq!(RetryPolicy::TRANSFER.give_up_after, Some(8));
    let r = run_at(0.6);
    assert!(r.faults.jobs_errored > 0, "60% failure x 8 attempts must kill some jobs");
    assert!(r.faults.fault_wasted_fraction >= 0.0);
    assert!(r.jobs_completed > 0, "most jobs must still complete");
    // Errored jobs that had run accrue fault-attributable waste; at the
    // very least the counter-side must be consistent.
    assert!(r.faults.any());
    // And at rate 0 nothing errors.
    let clean = run_at(0.0);
    assert_eq!(clean.faults.jobs_errored, 0);
    assert!(!clean.faults.any());
}

#[test]
fn crashes_recover_and_are_accounted() {
    // Frequent crashes (2 h MTBF over 1 day ≈ 12 crashes): progress is
    // rolled back to checkpoints, recovery times are measured, and the
    // emulation still completes jobs.
    let mut faults = FaultConfig::OFF;
    faults.crash_mtbf = Some(SimDuration::from_hours(2.0));
    let cfg =
        EmulatorConfig { duration: SimDuration::from_days(1.0), faults, ..Default::default() };
    let r = Emulator::new(scenario_with_files(), ClientConfig::default(), cfg).run();
    assert!(r.faults.crashes > 3, "2 h MTBF over 24 h: got {} crashes", r.faults.crashes);
    assert!(r.jobs_completed > 0);
    assert!(r.faults.recoveries > 0, "rolled-back tasks must recover");
    assert!(r.faults.mean_recovery_secs > 0.0);
    // Crash losses are fault-attributed waste.
    assert!(r.faults.fault_wasted_fraction > 0.0, "crash rollbacks must register as waste");
}

#[test]
fn faulty_report_renders_fault_section() {
    let r = run_at(0.3);
    let report = format!("{r}");
    assert!(report.contains("injected faults:"), "{report}");
    assert!(report.contains("transient RPC failures"), "{report}");
    // A clean run must not mention faults at all.
    let clean = run_at(0.0);
    let report = format!("{clean}");
    assert!(!report.contains("injected faults"), "{report}");
}
