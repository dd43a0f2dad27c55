//! # bce-bench — figure regeneration and performance benchmarks
//!
//! The six paper figures live in [`figs`] as one shared runner behind
//! the `bce fig <n>` subcommand, each printing the series the paper
//! reports (tables + ASCII charts) and writing CSV to `target/figures/`.
//! `bce fig` builds the runner's [`FigOpts`]. Criterion benches cover the
//! engine's performance and the design-choice ablations called out in
//! DESIGN.md.

use bce_client::{ClientConfig, FetchPolicy, JobSchedPolicy};
use bce_core::EmulatorConfig;
use bce_types::SimDuration;

pub mod figs;

/// Standard labelled policy sets used across the figures.
pub(crate) fn sched_policies() -> Vec<(String, ClientConfig)> {
    [JobSchedPolicy::WRR, JobSchedPolicy::LOCAL, JobSchedPolicy::GLOBAL]
        .into_iter()
        .map(|p| (p.name(), ClientConfig { sched_policy: p, ..Default::default() }))
        .collect()
}

pub(crate) fn fetch_policies() -> Vec<(String, ClientConfig)> {
    [FetchPolicy::Orig, FetchPolicy::Hysteresis]
        .into_iter()
        .map(|p| (p.name().to_string(), ClientConfig { fetch_policy: p, ..Default::default() }))
        .collect()
}

/// Options of one `bce fig` run.
#[derive(Debug, Clone)]
pub struct FigOpts {
    /// Emulated days (figures default to the paper's 10; fig6 to 60).
    pub days: f64,
    /// Quick mode shrinks durations/sweeps for CI-style smoke runs.
    pub quick: bool,
    /// Also write the figure's tables as JSON to this path.
    pub json: Option<std::path::PathBuf>,
    /// Replace the figure's base scenario (figures 3-6; loaded through
    /// the unified `--scenario` resolver). A scenario spec that lowers to
    /// the figure's builtin reproduces its output byte-for-byte.
    pub scenario: Option<bce_core::Scenario>,
}

impl FigOpts {
    pub(crate) fn emulator(&self) -> EmulatorConfig {
        EmulatorConfig { duration: SimDuration::from_days(self.days), ..Default::default() }
    }

    /// Serialize a figure's named tables as one JSON object.
    pub fn tables_json(tables: &[(&str, &bce_controller::Table)]) -> String {
        let mut out = String::from("{\n");
        for (i, (name, t)) in tables.iter().enumerate() {
            out.push_str(&format!("\"{name}\": {}", t.to_json()));
            out.push_str(if i + 1 < tables.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }
}

/// Where figure CSVs land.
pub(crate) fn figures_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("target/figures")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_sets_are_labelled() {
        let s = sched_policies();
        assert_eq!(s.len(), 3);
        assert!(s.iter().any(|(l, _)| l == "JS-WRR"));
        let f = fetch_policies();
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|(l, _)| l == "JF-HYSTERESIS"));
    }

    #[test]
    fn opts_default() {
        let o = FigOpts { days: 10.0, quick: false, json: None, scenario: None };
        assert_eq!(o.emulator().duration, SimDuration::from_days(10.0));
    }

    #[test]
    fn tables_json_shape() {
        let mut t = bce_controller::Table::new(&["k", "v"]);
        t.row(&["a".into(), "1".into()]);
        let j = FigOpts::tables_json(&[("fig", &t), ("extra", &t)]);
        assert!(j.starts_with("{\n\"fig\": ["));
        assert!(j.contains("\"extra\": ["));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
