//! The paper's alpha-tester workflow (§4.3): a volunteer pastes their
//! `client_state.xml` into a web form; BCE rebuilds their scenario and
//! replays it deterministically so developers can investigate a reported
//! scheduling anomaly under a debugger.
//!
//! ```text
//! cargo run --release --example statefile_import [path/to/client_state.xml]
//! ```

use boinc_policy_emu::client::ClientConfig;
use boinc_policy_emu::core::{Emulator, EmulatorConfig};
use boinc_policy_emu::scenarios::scenario_from_state_file;
use boinc_policy_emu::types::SimDuration;

/// What a volunteer's pasted state file looks like.
const SAMPLE_STATE: &str = r#"<?xml version="1.0"?>
<client_state>
  <host_info>
    <p_ncpus>2</p_ncpus>
    <p_fpops>1.5e9</p_fpops>
    <nvidia_gpus>1</nvidia_gpus>
    <nvidia_fpops>2e10</nvidia_fpops>
    <m_nbytes>4e9</m_nbytes>
  </host_info>
  <global_preferences>
    <work_buf_min_days>0.02</work_buf_min_days>
    <work_buf_additional_days>0.02</work_buf_additional_days>
    <run_if_user_active>1</run_if_user_active>
    <run_gpu_if_user_active>0</run_gpu_if_user_active>
  </global_preferences>
  <project>
    <project_name>seti</project_name>
    <resource_share>100</resource_share>
    <app>
      <name>multibeam</name>
      <runtime_mean>4000</runtime_mean>
      <runtime_cv>0.15</runtime_cv>
      <latency_bound>120000</latency_bound>
    </app>
    <app>
      <name>multibeam_cuda</name>
      <ngpus>1</ngpus>
      <avg_ncpus>0.1</avg_ncpus>
      <runtime_mean>900</runtime_mean>
      <latency_bound>120000</latency_bound>
    </app>
  </project>
  <project>
    <project_name>einstein</project_name>
    <resource_share>50</resource_share>
    <app>
      <name>gw_search</name>
      <runtime_mean>14000</runtime_mean>
      <latency_bound>604800</latency_bound>
    </app>
  </project>
  <time_stats>
    <on_frac>0.85</on_frac>
    <active_frac>0.2</active_frac>
  </time_stats>
  <seed>20110516</seed>
</client_state>"#;

fn main() {
    // Accept a path for a real state file; otherwise replay the sample.
    let xml = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => SAMPLE_STATE.to_string(),
    };

    let scenario = match scenario_from_state_file(&xml, "volunteer-report") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("state file rejected: {e}");
            std::process::exit(1);
        }
    };
    scenario.validate().expect("imported scenario must validate");
    println!(
        "imported scenario: {} projects, host {:.1} GFLOPS, seed {}",
        scenario.projects.len(),
        scenario.hardware.total_peak_flops() / 1e9,
        scenario.seed
    );

    // Replay with the decision trace enabled — the scheduling log a
    // developer reads when chasing a reported anomaly.
    let cfg = EmulatorConfig {
        duration: SimDuration::from_days(2.0),
        trace_capacity: 200_000,
        ..Default::default()
    };
    let result = Emulator::new(scenario, ClientConfig::default(), cfg).run();
    println!("{result}");

    println!("last scheduling decisions:");
    let records = result.trace.records();
    for r in &records[records.len().saturating_sub(12)..] {
        println!("  {r}");
    }
    println!("(replaying with the same seed reproduces this log bit-for-bit)");
}
