//! # bce-bench — figure regeneration and performance benchmarks
//!
//! The six paper figures live in [`figs`] as one shared runner behind
//! the `bce fig <n>` subcommand, each printing the series the paper
//! reports (tables + ASCII charts) and writing CSV to `target/figures/`.
//! The study binaries (`faults_study`, `fleet_study`, `emboinc_study`)
//! share [`FigOpts`]. Criterion benches cover the engine's performance
//! and the design-choice ablations called out in DESIGN.md.

use bce_client::{ClientConfig, FetchPolicy, JobSchedPolicy};
use bce_core::{CheckpointPolicy, EmulatorConfig};
use bce_types::SimDuration;

pub mod figs;

/// Standard labelled policy sets used across the figures.
pub fn sched_policies() -> Vec<(String, ClientConfig)> {
    [JobSchedPolicy::WRR, JobSchedPolicy::LOCAL, JobSchedPolicy::GLOBAL]
        .into_iter()
        .map(|p| (p.name(), ClientConfig { sched_policy: p, ..Default::default() }))
        .collect()
}

pub fn fetch_policies() -> Vec<(String, ClientConfig)> {
    [FetchPolicy::Orig, FetchPolicy::Hysteresis]
        .into_iter()
        .map(|p| (p.name().to_string(), ClientConfig { fetch_policy: p, ..Default::default() }))
        .collect()
}

/// Options shared by the figures and the study binaries.
#[derive(Debug, Clone)]
pub struct FigOpts {
    /// Emulated days (figures default to the paper's 10; fig6 to 60).
    pub days: f64,
    /// Quick mode shrinks durations/sweeps for CI-style smoke runs.
    pub quick: bool,
    /// Also write the figure's tables as JSON to this path.
    pub json: Option<std::path::PathBuf>,
    /// Crash-safety: checkpoint every run this often (simulated days)
    /// under `target/checkpoints`, resuming automatically on restart.
    pub checkpoint_every: Option<f64>,
    /// Replace the figure's base scenario (figures 3-6; loaded through
    /// the unified `--scenario` resolver). A scenario spec that lowers to
    /// the figure's builtin reproduces its output byte-for-byte.
    pub scenario: Option<bce_core::Scenario>,
}

impl FigOpts {
    /// Parse `--days N`, `--quick`, `--json PATH` and
    /// `--checkpoint-every DAYS` from
    /// `std::env::args`. Unknown arguments are an error (exit 1), not a
    /// warning — a typo'd flag silently producing a default-config figure
    /// is worse than no figure.
    pub fn parse(default_days: f64) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse_from(&args, default_days) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("usage: [--days N] [--quick] [--json PATH] [--checkpoint-every DAYS]");
                std::process::exit(1);
            }
        }
    }

    /// Testable core of [`FigOpts::parse`] (no process exit, no env).
    pub fn parse_from(args: &[String], default_days: f64) -> Result<Self, String> {
        let mut days = default_days;
        let mut quick = false;
        let mut json = None;
        let mut checkpoint_every = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => quick = true,
                "--days" => {
                    let v = args.get(i + 1).ok_or("--days requires a value")?;
                    days = v.parse().map_err(|_| format!("invalid --days value {v:?}"))?;
                    i += 1;
                }
                "--json" => {
                    let v = args.get(i + 1).ok_or("--json requires a path")?;
                    json = Some(std::path::PathBuf::from(v));
                    i += 1;
                }
                "--checkpoint-every" => {
                    let v = args.get(i + 1).ok_or("--checkpoint-every requires a value")?;
                    let d: f64 =
                        v.parse().map_err(|_| format!("invalid --checkpoint-every value {v:?}"))?;
                    if !d.is_finite() || d <= 0.0 {
                        return Err(format!("--checkpoint-every must be positive, got {v:?}"));
                    }
                    checkpoint_every = Some(d);
                    i += 1;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
            i += 1;
        }
        if quick {
            days = days.min(1.0);
        }
        Ok(FigOpts { days, quick, json, checkpoint_every, scenario: None })
    }

    pub fn emulator(&self) -> EmulatorConfig {
        let checkpoint = self
            .checkpoint_every
            .map(|d| CheckpointPolicy { dir: checkpoints_dir(), every: SimDuration::from_days(d) });
        EmulatorConfig {
            duration: SimDuration::from_days(self.days),
            checkpoint,
            ..Default::default()
        }
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

    /// If `--json PATH` was given, write the figure's named tables there
    /// as one JSON object (`{"<name>": [rows...], ...}`).
    pub fn write_json(&self, tables: &[(&str, &bce_controller::Table)]) {
        let Some(path) = &self.json else { return };
        match bce_controller::save_text(path, &Self::tables_json(tables)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// Where figure CSVs land.
pub fn figures_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("target/figures")
}

/// Where `--checkpoint-every` run checkpoints land.
pub fn checkpoints_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("target/checkpoints")
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
        let o = FigOpts {
            days: 10.0,
            quick: false,
            json: None,
            checkpoint_every: None,
            scenario: None,
        };
        assert_eq!(o.emulator().duration, SimDuration::from_days(10.0));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_known_flags() {
        let o = FigOpts::parse_from(&args(&["--days", "3.5", "--json", "out.json"]), 10.0).unwrap();
        assert_eq!(o.days, 3.5);
        assert!(!o.quick);
        assert_eq!(o.json.as_deref(), Some(std::path::Path::new("out.json")));
        // Quick caps the horizon.
        let o = FigOpts::parse_from(&args(&["--quick"]), 10.0).unwrap();
        assert!(o.quick);
        assert_eq!(o.days, 1.0);
    }

    #[test]
    fn parse_rejects_unknown_and_malformed() {
        assert!(FigOpts::parse_from(&args(&["--dsys", "3"]), 10.0)
            .unwrap_err()
            .contains("unknown argument"));
        assert!(FigOpts::parse_from(&args(&["--days"]), 10.0).unwrap_err().contains("value"));
        assert!(FigOpts::parse_from(&args(&["--days", "abc"]), 10.0)
            .unwrap_err()
            .contains("invalid"));
        assert!(FigOpts::parse_from(&args(&["--json"]), 10.0).unwrap_err().contains("path"));
    }

    #[test]
    fn parse_checkpoint_every_configures_the_emulator() {
        let o = FigOpts::parse_from(&args(&["--checkpoint-every", "0.5"]), 10.0).unwrap();
        assert_eq!(o.checkpoint_every, Some(0.5));
        let policy = o.emulator().checkpoint.expect("checkpoint policy set");
        assert_eq!(policy.every, SimDuration::from_days(0.5));
        assert_eq!(policy.dir, checkpoints_dir());
        // Unset leaves checkpointing off.
        assert!(FigOpts::parse_from(&[], 10.0).unwrap().emulator().checkpoint.is_none());
        // Zero, negative and garbage are rejected.
        for bad in [
            &["--checkpoint-every", "0"][..],
            &["--checkpoint-every", "-1"],
            &["--checkpoint-every", "x"],
            &["--checkpoint-every"],
        ] {
            assert!(FigOpts::parse_from(&args(bad), 10.0).is_err(), "{bad:?}");
        }
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
