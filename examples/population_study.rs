//! Monte-Carlo population study (§6.2 future work): sample a synthetic
//! volunteer-host population and evaluate policy combinations over all of
//! it, instead of over hand-picked scenarios.
//!
//! ```text
//! cargo run --release --example population_study
//! ```

use boinc_policy_emu::controller::{run_manifest, CampaignManifest, CampaignOptions, Metric};

fn main() {
    // 24 hosts drawn from the default population model (log-normal core
    // speeds, 1-8 cores, 20% GPUs, realistic availability duty cycles,
    // 1-6 attached projects), under the standard policy pair: the paper's
    // GLOBAL+HYST against the original LOCAL+ORIG. The campaign shares
    // each scenario by Arc, so evaluating P policies over it clones
    // nothing.
    let manifest = CampaignManifest::sampled_population(24, 2026, 2.0);
    let (scenarios, _) = manifest.expand_scenarios().expect("a sampled population expands");
    println!(
        "sampled {} hosts: {} with GPUs, {:.1} projects on average\n",
        scenarios.len(),
        scenarios.iter().filter(|s| s.hardware.has_gpu()).count(),
        scenarios.iter().map(|s| s.projects.len()).sum::<usize>() as f64 / scenarios.len() as f64,
    );

    // No checkpoint store: the campaign runs straight through.
    let outcome = run_manifest(&manifest, 0, &CampaignOptions::default(), None)
        .expect("a campaign without a checkpoint store cannot fail");
    println!("{}", outcome.table);

    // Policies should perform well across the *population*, not just on
    // average (§4.1): compare the 95th percentiles.
    for o in &outcome.report.outcomes {
        let rpcs = o.metric(Metric::RpcsPerJob);
        println!(
            "{}: rpcs/job mean {:.3}, p95 {:.3} over {} hosts",
            o.label,
            rpcs.stats.mean(),
            rpcs.p95,
            o.scenarios_run
        );
    }
}
