//! # bce-controller — the experiment controller
//!
//! The paper's "controller script that does multiple BCE runs and
//! generates graphs summarizing the figures of merit" (§4.3): parallel
//! run execution, parameter sweeps (a policy comparison is a sweep at one
//! point), Monte-Carlo population campaigns, and terminal-friendly
//! tables/plots plus CSV export.

pub(crate) mod campaign;
pub(crate) mod manifest;
pub(crate) mod montecarlo;
pub(crate) mod plot;
pub(crate) mod run;
pub mod sweep;
pub(crate) mod table;

pub use campaign::{
    CampaignCheckpoint, CampaignError, CampaignOptions, CampaignReport, CheckpointError,
};
pub use manifest::{run_manifest, CampaignManifest, ManifestError, ManifestOutcome};
pub use montecarlo::{paper_policies, population_header, MetricStats, PopulationOutcome};
pub use plot::{line_chart, Series};
pub use run::{
    resolve_threads, run_streaming, run_supervised, run_supervised_profiled, RunError, RunSpec,
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
