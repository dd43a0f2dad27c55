//! Compare every job-scheduling × job-fetch policy combination on one
//! scenario — the §4.3 controller workflow ("compare scheduling policies
//! across one or more scenarios"). A comparison is a sweep at one point.
//!
//! ```text
//! cargo run --release --example policy_compare
//! ```

use boinc_policy_emu::controller::{paper_policies, sweep, Metric};
use boinc_policy_emu::core::EmulatorConfig;
use boinc_policy_emu::scenarios::scenario2;
use boinc_policy_emu::types::SimDuration;

fn main() {
    let emulator = EmulatorConfig { duration: SimDuration::from_days(5.0), ..Default::default() };
    // Scenario 2 of the paper: 4 CPUs + 1 GPU, one CPU-only project, one
    // mixed project.
    let comparison = sweep("scenario", &[0.0], &paper_policies(), &emulator, 0, |_| scenario2());

    println!("All policy combinations on scenario 2 (5 emulated days):\n");
    println!("{}", comparison.merit_table(0).render());
    println!("{}", comparison.bars(0, Metric::ShareViolation, 48));
    println!("{}", comparison.bars(0, Metric::RpcsPerJob, 48));

    // The §4.2 note: metrics conflict; pick a subjective weighting to rank.
    let weights = [0.3, 0.3, 0.2, 0.1, 0.1]; // idle, wasted, share, monotony, rpcs
    let mut ranked: Vec<(String, f64)> = comparison
        .by_policy
        .iter()
        .map(|(label, results)| (label.clone(), results[0].merit.weighted(weights)))
        .collect();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    println!("ranking under weights {weights:?} (lower is better):");
    for (i, (label, score)) in ranked.iter().enumerate() {
        println!("  {}. {label}  {score:.4}", i + 1);
    }
}
