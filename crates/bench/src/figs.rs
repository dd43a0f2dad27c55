//! Shared figure runner.
//!
//! All six paper figures live here as functions that render into a
//! `String`; the `bce fig <n>` subcommand is a thin shim over
//! [`run_fig`].

use crate::{fetch_policies, sched_policies, FigOpts};
use bce_client::{rr_simulate, ClientConfig, FetchPolicy, JobSchedPolicy, RrJob, RrPlatform};
use bce_controller::{line_chart, save_text, sweep, Metric, SweepResult, Table};
use bce_core::{Emulator, ScenarioBuilder};
use bce_scenarios::{scenario1, scenario2, scenario3, scenario4};
use bce_types::{
    ideal_allocation, AppClass, Hardware, JobId, ProcMap, ProcType, ProjectId, ProjectSpec,
    ShareDemand, SimDuration, SimTime, UsableTypes,
};
use std::fmt::Write;

/// Writing to a `String` cannot fail; this keeps the ported figure
/// bodies as close to their original `println!` form as possible.
macro_rules! outln {
    ($out:expr) => { let _ = writeln!($out); };
    ($out:expr, $($arg:tt)*) => { let _ = writeln!($out, $($arg)*); };
}

/// The default emulated period for figure `n`. Figure 2 is a workload
/// snapshot (no emulation); figure 6 needs 60 days because a 10-day
/// window cannot hold even one of its 11.6-day jobs.
pub fn default_days(n: u32) -> f64 {
    match n {
        2 => 0.0,
        6 => 60.0,
        _ => 10.0,
    }
}

/// Run figure `n` (1–6) and return its full stdout rendering. JSON
/// side-output (`--json`) is written here too, so callers only print.
pub fn run_fig(n: u32, opts: &FigOpts) -> Result<String, String> {
    if opts.scenario.is_some() && !(3..=6).contains(&n) {
        return Err(format!(
            "figure {n} builds its own workload; --scenario applies to figures 3-6"
        ));
    }
    match n {
        1 => fig1(opts),
        2 => fig2(opts),
        3 => fig3(opts),
        4 => fig4(opts),
        5 => fig5(opts),
        6 => fig6(opts),
        _ => Err(format!("unknown figure {n} (expected 1-6)")),
    }
}

/// The scenario a figure runs on: the `--scenario` override when given,
/// otherwise the figure's builtin.
fn base_scenario(
    opts: &FigOpts,
    builtin: impl FnOnce() -> bce_core::Scenario,
) -> bce_core::Scenario {
    opts.scenario.clone().unwrap_or_else(builtin)
}

/// Compare `policies` on one scenario: a sweep at a single point, which
/// [`SweepResult::merit_table`] and [`SweepResult::bars`] render at index 0.
fn compare(
    opts: &FigOpts,
    policies: &[(String, ClientConfig)],
    builtin: impl Fn() -> bce_core::Scenario,
) -> SweepResult {
    sweep("scenario", &[0.0], policies, &opts.emulator(), 0, |_| base_scenario(opts, &builtin))
}

/// If `--json PATH` was given, write the figure's named tables there as
/// one JSON object (`{"<name>": [rows...], ...}`) and append the
/// confirmation line to `out`, so it lands after the figure body.
fn write_json_into(
    out: &mut String,
    opts: &FigOpts,
    tables: &[(&str, &Table)],
) -> Result<(), String> {
    let Some(path) = &opts.json else { return Ok(()) };
    match save_text(path, &FigOpts::tables_json(tables)) {
        Ok(()) => {
            outln!(out, "wrote {}", path.display());
            Ok(())
        }
        Err(e) => Err(format!("cannot write {}: {e}", path.display())),
    }
}

fn fig1(opts: &FigOpts) -> Result<String, String> {
    let mut out = String::new();
    let hw = Hardware::cpu_only(1, 10e9).with_group(ProcType::NvidiaGpu, 1, 20e9);

    // --- Closed form (the figure itself). ---
    let demands = [
        ShareDemand {
            id: ProjectId(0),
            share: 1.0,
            usable: UsableTypes::of(&[ProcType::Cpu, ProcType::NvidiaGpu]),
        },
        ShareDemand {
            id: ProjectId(1),
            share: 1.0,
            usable: UsableTypes::only(ProcType::NvidiaGpu),
        },
    ];
    let alloc = ideal_allocation(&hw, &demands);

    outln!(out, "Figure 1 — resource share applies to combined processing resources");
    outln!(
        out,
        "host: 10 GFLOPS CPU + 20 GFLOPS GPU; equal shares; A: CPU+GPU apps, B: GPU only\n"
    );
    let mut t = Table::new(&["project", "CPU GFLOPS", "GPU GFLOPS", "total GFLOPS"]);
    for (name, id) in [("A", ProjectId(0)), ("B", ProjectId(1))] {
        let split = alloc.device_split(id).expect("allocated");
        t.row(&[
            name.to_string(),
            format!("{:.1}", split[ProcType::Cpu] / 1e9),
            format!("{:.1}", split[ProcType::NvidiaGpu] / 1e9),
            format!("{:.1}", alloc.total_for(id) / 1e9),
        ]);
    }
    let table = t.render();
    outln!(out, "{table}");
    outln!(out, "paper: A = 10 CPU + 5 GPU = 15 GFLOPS; B = 15 GPU = 15 GFLOPS\n");

    // --- Dynamic check by emulation. ---
    let scenario = ScenarioBuilder::new("fig1", hw)
        .seed(1)
        .project(
            ProjectSpec::new(0, "A", 100.0)
                .with_app(AppClass::cpu(
                    0,
                    SimDuration::from_secs(2000.0),
                    SimDuration::from_hours(24.0),
                ))
                .with_app(AppClass::gpu(
                    1,
                    ProcType::NvidiaGpu,
                    SimDuration::from_secs(1000.0),
                    SimDuration::from_hours(24.0),
                )),
        )
        .project(ProjectSpec::new(1, "B", 100.0).with_app(AppClass::gpu(
            2,
            ProcType::NvidiaGpu,
            SimDuration::from_secs(1000.0),
            SimDuration::from_hours(24.0),
        )))
        .build()
        .map_err(|e| format!("fig1 scenario: {e}"))?;
    let client = ClientConfig { sched_policy: JobSchedPolicy::GLOBAL, ..Default::default() };
    let result = Emulator::new(scenario, client, opts.emulator()).run();
    outln!(out, "emulated {} days under JS-GLOBAL:", opts.days);
    let mut t2 = Table::new(&["project", "ideal frac", "emulated frac"]);
    for p in &result.projects {
        let ideal = alloc.total_for(p.id) / (30e9);
        t2.row(&[p.name.clone(), format!("{ideal:.3}"), format!("{:.3}", p.used_frac)]);
    }
    let table2 = t2.render();
    outln!(out, "{table2}");
    outln!(out, "share violation: {:.4}", result.merit.share_violation);

    let csv = t.to_csv();
    let path = crate::figures_dir().join("fig1.csv");
    if save_text(&path, &csv).is_ok() {
        outln!(out, "wrote {}", path.display());
    }
    write_json_into(&mut out, opts, &[("allocation", &t), ("emulated", &t2)])?;
    Ok(out)
}

fn fig2(opts: &FigOpts) -> Result<String, String> {
    let mut out = String::new();
    let mut ninstances = ProcMap::zero();
    ninstances[ProcType::Cpu] = 4.0;
    ninstances[ProcType::NvidiaGpu] = 1.0;
    let platform = RrPlatform {
        now: SimTime::ZERO,
        ninstances,
        on_frac: 1.0,
        shares: vec![(ProjectId(0), 1.0), (ProjectId(1), 1.0)],
    };

    // Current workload: project A with three CPU jobs and a GPU job,
    // project B with two CPU jobs; one of B's jobs has a tight deadline.
    let job = |id: u64, project: u32, pt: ProcType, remaining: f64, deadline: f64| RrJob {
        id: JobId(id),
        project: ProjectId(project),
        proc_type: pt,
        instances: 1.0,
        remaining: SimDuration::from_secs(remaining),
        deadline: SimTime::from_secs(deadline),
    };
    let jobs = vec![
        job(1, 0, ProcType::Cpu, 4000.0, 50_000.0),
        job(2, 0, ProcType::Cpu, 6000.0, 50_000.0),
        job(3, 0, ProcType::Cpu, 2000.0, 50_000.0),
        job(4, 0, ProcType::NvidiaGpu, 3000.0, 20_000.0),
        job(5, 1, ProcType::Cpu, 5000.0, 4_500.0), // tight deadline
        job(6, 1, ProcType::Cpu, 8000.0, 80_000.0),
    ];
    let buf_window = SimDuration::from_hours(3.0);
    let rr = rr_simulate(&platform, &jobs, buf_window);

    outln!(out, "Figure 2 — round-robin simulation of the current workload");
    outln!(out, "host: 4 CPUs + 1 GPU; 2 projects, equal shares; buffer window {buf_window}\n");

    let mut t = Table::new(&[
        "job",
        "project",
        "type",
        "remaining",
        "proj. finish",
        "deadline",
        "endangered",
    ]);
    for j in &jobs {
        let finish = rr
            .finish
            .iter()
            .find(|(id, _)| *id == j.id)
            .map(|(_, f)| format!("{:.0}s", f.secs()))
            .unwrap_or_else(|| "never".into());
        t.row(&[
            j.id.to_string(),
            j.project.to_string(),
            j.proc_type.short_name().to_string(),
            format!("{:.0}s", j.remaining.secs()),
            finish,
            format!("{:.0}s", j.deadline.secs()),
            if rr.is_endangered(j.id) { "YES".into() } else { "no".into() },
        ]);
    }
    let table = t.render();
    outln!(out, "{table}");

    // Busy-horizon bar per processor type, in the style of the figure.
    outln!(out, "predicted busy horizon (each '#' = 15 min):");
    for pt in [ProcType::Cpu, ProcType::NvidiaGpu] {
        let sat = rr.sat[pt];
        let n = (sat.secs() / 900.0).round() as usize;
        outln!(
            out,
            "  {:>4} saturated for {:>8} |{}",
            pt.short_name(),
            format!("{sat}"),
            "#".repeat(n.min(60))
        );
    }
    outln!(out);
    let mut t2 = Table::new(&["type", "SAT(T)", "SHORTFALL(T) inst-sec", "busy now"]);
    for pt in [ProcType::Cpu, ProcType::NvidiaGpu] {
        t2.row(&[
            pt.short_name().to_string(),
            format!("{}", rr.sat[pt]),
            format!("{:.0}", rr.shortfall[pt]),
            format!("{:.1}", rr.busy_now[pt]),
        ]);
    }
    let table2 = t2.render();
    outln!(out, "{table2}");

    let path = crate::figures_dir().join("fig2.csv");
    if save_text(&path, &t.to_csv()).is_ok() {
        outln!(out, "wrote {}", path.display());
    }
    write_json_into(&mut out, opts, &[("jobs", &t), ("horizons", &t2)])?;
    Ok(out)
}

fn fig3(opts: &FigOpts) -> Result<String, String> {
    let mut out = String::new();
    let points: Vec<f64> = if opts.quick {
        vec![1000.0, 1400.0, 2000.0]
    } else {
        (0..=10).map(|i| 1000.0 + 100.0 * i as f64).collect()
    };

    outln!(out, "Figure 3 — wasted fraction vs. slack (job runtime 1000 s)");
    outln!(
        out,
        "scenario 1: 1 CPU, two equal-share projects; latency bound of project 'tight' swept\n"
    );

    // An override replaces the base scenario; the sweep still retunes the
    // first project's first app's latency bound at every point, so a spec
    // that lowers to scenario1 reproduces the builtin figure exactly.
    let base = opts.scenario.clone();
    let result =
        sweep("latency_bound_s", &points, &sched_policies(), &opts.emulator(), 0, move |latency| {
            match &base {
                Some(s) => {
                    let mut s = s.clone();
                    if let Some(app) = s.projects.first_mut().and_then(|p| p.apps.first_mut()) {
                        app.latency_bound = SimDuration::from_secs(latency);
                    }
                    s
                }
                None => scenario1(SimDuration::from_secs(latency)),
            }
        });

    let table = result.table(Metric::Wasted);
    outln!(out, "{}", table.render());
    outln!(
        out,
        "{}",
        line_chart(
            "wasted fraction vs latency bound (slack = bound - 1000 s)",
            &result.series(Metric::Wasted),
            64,
            16,
        )
    );
    outln!(out, "paper shape: at zero slack all policies waste ~0.5; with slack the");
    outln!(out, "deadline-aware policies drop sharply while JS-WRR only recovers as the");
    outln!(out, "bound approaches 2x the runtime.");

    let path = crate::figures_dir().join("fig3.csv");
    if save_text(&path, &table.to_csv()).is_ok() {
        outln!(out, "wrote {}", path.display());
    }
    write_json_into(&mut out, opts, &[("fig3", &table)])?;
    Ok(out)
}

fn fig4(opts: &FigOpts) -> Result<String, String> {
    let mut out = String::new();
    let policies = vec![
        (
            "JS-LOCAL".to_string(),
            ClientConfig {
                sched_policy: JobSchedPolicy::LOCAL,
                fetch_policy: FetchPolicy::Hysteresis,
                ..Default::default()
            },
        ),
        (
            "JS-GLOBAL".to_string(),
            ClientConfig {
                sched_policy: JobSchedPolicy::GLOBAL,
                fetch_policy: FetchPolicy::Hysteresis,
                ..Default::default()
            },
        ),
    ];

    outln!(out, "Figure 4 — local vs. global resource-share accounting");
    outln!(out, "scenario 2: 4 CPUs + 1 GPU (10x); P0 CPU-only, P1 CPU+GPU, equal shares\n");

    let cmp = compare(opts, &policies, scenario2);
    let table = cmp.merit_table(0);
    outln!(out, "{}", table.render());
    outln!(out, "{}", cmp.bars(0, Metric::ShareViolation, 40));

    // Per-project usage detail: the mechanism behind the metric.
    let mut t = Table::new(&["policy", "project", "share", "used frac", "CPU-side story"]);
    for (label, results) in &cmp.by_policy {
        for p in &results[0].projects {
            t.row(&[
                label.clone(),
                p.name.clone(),
                format!("{:.0}%", p.share_frac * 100.0),
                format!("{:.1}%", p.used_frac * 100.0),
                String::new(),
            ]);
        }
    }
    outln!(out, "{}", t.render());
    outln!(out, "paper shape: JS-LOCAL splits the CPU evenly (P1 over-served); JS-GLOBAL");
    outln!(out, "gives the CPU to P0, cutting share violation.");

    let path = crate::figures_dir().join("fig4.csv");
    if save_text(&path, &table.to_csv()).is_ok() {
        outln!(out, "wrote {}", path.display());
    }
    write_json_into(&mut out, opts, &[("fig4", &table)])?;
    Ok(out)
}

fn fig5(opts: &FigOpts) -> Result<String, String> {
    let mut out = String::new();

    outln!(out, "Figure 5 — job fetch with and without hysteresis");
    outln!(out, "scenario 4: 4 CPUs + 1 GPU, 20 projects with varying job types\n");

    let cmp = compare(opts, &fetch_policies(), scenario4);
    let table = cmp.merit_table(0);
    outln!(out, "{}", table.render());
    outln!(out, "{}", cmp.bars(0, Metric::RpcsPerJob, 40));
    outln!(out, "{}", cmp.bars(0, Metric::Monotony, 40));

    let orig = cmp.get("JF-ORIG", 0).expect("orig run");
    let hyst = cmp.get("JF-HYSTERESIS", 0).expect("hysteresis run");
    outln!(
        out,
        "RPCs/job: ORIG {:.3} vs HYSTERESIS {:.3} ({:.1}x reduction)",
        orig.merit.rpcs_per_job,
        hyst.merit.rpcs_per_job,
        orig.merit.rpcs_per_job / hyst.merit.rpcs_per_job.max(1e-9),
    );
    outln!(
        out,
        "monotony: ORIG {:.3} vs HYSTERESIS {:.3} (hysteresis trades RPCs for monotony)",
        orig.merit.monotony,
        hyst.merit.monotony,
    );

    let path = crate::figures_dir().join("fig5.csv");
    if save_text(&path, &table.to_csv()).is_ok() {
        outln!(out, "wrote {}", path.display());
    }
    write_json_into(&mut out, opts, &[("fig5", &table)])?;
    Ok(out)
}

fn fig6(opts: &FigOpts) -> Result<String, String> {
    let mut out = String::new();
    // Half-life sweep, log-spaced around the 1e6 s job length.
    let half_lives: Vec<f64> =
        if opts.quick { vec![1e4, 1e6] } else { vec![1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7] };

    outln!(out, "Figure 6 — REC half-life vs. share violation with long low-slack jobs");
    outln!(
        out,
        "scenario 3: 1 CPU; P0 jobs 1e6 s with 10% slack; P1 normal jobs; {} days\n",
        opts.days
    );

    // The swept parameter is the client's REC half-life, not a scenario
    // field, so each "policy" is a distinct client configuration: compare
    // one policy per half-life at a single scenario point.
    let policies: Vec<(String, ClientConfig)> = half_lives
        .iter()
        .map(|&a| {
            (
                format!("A={a:.0e}"),
                ClientConfig {
                    sched_policy: JobSchedPolicy::GLOBAL,
                    rec_half_life: SimDuration::from_secs(a),
                    ..Default::default()
                },
            )
        })
        .collect();
    let result = compare(opts, &policies, scenario3);

    // Re-shape: one row per half-life.
    let mut rows: Vec<(f64, f64)> = Vec::new();
    let mut table = Table::new(&["half_life_s", "share_violation", "wasted", "jobs"]);
    for (i, &a) in half_lives.iter().enumerate() {
        let r = &result.by_policy[i].1[0];
        rows.push((a.log10(), r.merit.share_violation));
        table.row(&[
            format!("{a:.0e}"),
            format!("{:.4}", r.merit.share_violation),
            format!("{:.4}", r.merit.wasted_fraction),
            r.jobs_completed.to_string(),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "{}",
        line_chart(
            "share violation vs log10(half-life)",
            &[bce_controller::Series::new("JS-GLOBAL", rows)],
            64,
            14,
        )
    );
    outln!(out, "paper shape: violation high at small A, dropping once A reaches a few");
    outln!(out, "multiples of the long-job length (1e6 s ~ 11.6 days).");

    let path = crate::figures_dir().join("fig6.csv");
    if save_text(&path, &table.to_csv()).is_ok() {
        outln!(out, "wrote {}", path.display());
    }
    write_json_into(&mut out, opts, &[("fig6", &table)])?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_days_follow_the_paper() {
        assert_eq!(default_days(1), 10.0);
        assert_eq!(default_days(2), 0.0);
        assert_eq!(default_days(6), 60.0);
    }

    #[test]
    fn unknown_figure_is_an_error() {
        let opts = FigOpts { days: 0.0, quick: true, json: None, scenario: None };
        assert!(run_fig(0, &opts).unwrap_err().contains("unknown figure"));
        assert!(run_fig(7, &opts).unwrap_err().contains("unknown figure"));
    }

    #[test]
    fn fig2_snapshot_renders() {
        // Figure 2 is pure computation (no emulation), so it is cheap
        // enough to run in a unit test and pins the runner wiring.
        let opts = FigOpts { days: 0.0, quick: false, json: None, scenario: None };
        let out = run_fig(2, &opts).unwrap();
        assert!(out.contains("Figure 2 — round-robin simulation"));
        assert!(out.contains("SHORTFALL(T)"));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn scenario_override_rejected_for_computed_figures() {
        let opts = FigOpts {
            days: 0.0,
            quick: true,
            json: None,
            scenario: Some(bce_scenarios::scenario2()),
        };
        for n in [1, 2] {
            let err = run_fig(n, &opts).unwrap_err();
            assert!(err.contains("--scenario applies to figures 3-6"), "{err}");
        }
    }
}
