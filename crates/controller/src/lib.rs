//! # bce-controller — the experiment controller
//!
//! The paper's "controller script that does multiple BCE runs and
//! generates graphs summarizing the figures of merit" (§4.3): parallel
//! run execution, parameter sweeps, policy comparisons, Monte-Carlo
//! population studies, and terminal-friendly tables/plots plus CSV export.

pub mod campaign;
pub mod compare;
pub mod manifest;
pub mod montecarlo;
pub mod plot;
pub mod run;
pub mod sweep;
pub mod table;

pub use campaign::{
    population_campaign, CampaignCheckpoint, CampaignError, CampaignOptions, CampaignReport,
};
pub use compare::{compare_policies, Comparison};
pub use manifest::{run_manifest, summary_json, CampaignManifest, ManifestError, ManifestOutcome};
pub use montecarlo::{
    population_header, population_study, population_table, standard_policies, MetricStats,
    PopulationOutcome,
};
pub use plot::{bar_chart, line_chart, Series};
pub use run::{
    resolve_threads, run_all, run_streaming, run_streaming_profiled, run_supervised,
    run_supervised_profiled, RunError, RunOutcome, RunSpec,
};
pub use sweep::{sweep, Metric, SweepResult};
pub use table::Table;

use std::io::Write as _;
use std::path::Path;

/// Write text (a rendered table, CSV, or chart) to a file, creating parent
/// directories. Experiment binaries use this to drop CSVs under
/// `target/figures/`.
pub fn save_text(path: impl AsRef<Path>, text: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())
}
