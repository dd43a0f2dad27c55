//! Rendering: the ASCII time-line visualization of processor usage
//! (the paper's Figure 2 output) and the textual emulation report.

use crate::emulator::EmulationResult;
use bce_sim::{Occupancy, Timeline};
use bce_types::{SimDuration, SimTime};
use std::fmt::Write as _;

/// Render the timeline as one row per processor instance, one column per
/// time bucket. Busy buckets show the project's letter (`A`, `B`, …,
/// by project id), idle buckets `.`, unavailable buckets `-`; mixed
/// buckets show the plurality occupant in lowercase.
pub fn render_timeline(tl: &Timeline, width: usize) -> String {
    let horizon = tl.horizon();
    if horizon <= SimTime::ZERO || width == 0 {
        return String::new();
    }
    let bucket = SimDuration::from_secs(horizon.secs() / width as f64);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline: {width} buckets x {bucket} ({} total); A..Z = project, . idle, - unavailable",
        SimDuration::from_secs(horizon.secs())
    );
    for track in tl.tracks() {
        let _ = write!(out, "{:>8} |", track.instance.to_string());
        for b in 0..width {
            let t0 = SimTime::from_secs(bucket.secs() * b as f64);
            let t1 = t0 + bucket;
            // Dominant occupancy within the bucket.
            let mut busy_by_project: Vec<(u32, f64)> = Vec::new();
            let mut idle = 0.0;
            let mut unavail = 0.0;
            for seg in track.segments() {
                let lo = seg.start.max(t0);
                let hi = seg.end.min(t1);
                let overlap = (hi - lo).secs();
                if overlap <= 0.0 {
                    continue;
                }
                match seg.occ {
                    Occupancy::Busy { project, .. } => {
                        match busy_by_project.iter_mut().find(|(p, _)| *p == project.0) {
                            Some((_, acc)) => *acc += overlap,
                            None => busy_by_project.push((project.0, overlap)),
                        }
                    }
                    Occupancy::Idle => idle += overlap,
                    Occupancy::Unavailable => unavail += overlap,
                }
            }
            let busy_total: f64 = busy_by_project.iter().map(|(_, v)| v).sum();
            let ch = if busy_total <= 0.0 && idle <= 0.0 && unavail <= 0.0 {
                ' '
            } else if busy_total >= idle && busy_total >= unavail && busy_total > 0.0 {
                let (p, share) = busy_by_project
                    .iter()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .copied()
                    .unwrap();
                let letter = (b'A' + (p % 26) as u8) as char;
                if share >= 0.95 * bucket.secs() {
                    letter
                } else {
                    letter.to_ascii_lowercase()
                }
            } else if idle >= unavail {
                '.'
            } else {
                '-'
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// Render the figures of merit and per-project outcomes as an aligned
/// report.
pub(crate) fn render_report(r: &EmulationResult) -> String {
    let mut out = String::new();
    let m = &r.merit;
    let _ = writeln!(out, "=== emulation report: {} ({}) ===", r.scenario_name, r.duration);
    let _ = writeln!(out, "figures of merit (0 good, 1 bad):");
    let _ = writeln!(out, "  idle fraction     {:>8.4}", m.idle_fraction);
    let _ = writeln!(out, "  wasted fraction   {:>8.4}", m.wasted_fraction);
    let _ = writeln!(out, "  share violation   {:>8.4}", m.share_violation);
    let _ = writeln!(out, "  monotony          {:>8.4}", m.monotony);
    let _ = writeln!(out, "  RPCs per job      {:>8.3}", m.rpcs_per_job);
    let _ = writeln!(
        out,
        "jobs: {} completed, {} missed deadline, {} unfinished; host available {:.1}%",
        r.jobs_completed,
        r.jobs_missed_deadline,
        r.jobs_unfinished,
        100.0 * r.available_fraction
    );
    if r.faults.any() {
        let fm = &r.faults;
        let _ = writeln!(out, "injected faults:");
        let _ = writeln!(out, "  transient RPC failures {:>8}", fm.transient_rpc_failures);
        let _ = writeln!(out, "  transfer failures      {:>8}", fm.transfer_failures);
        let _ = writeln!(out, "  host crashes           {:>8}", fm.crashes);
        let _ = writeln!(out, "  jobs errored           {:>8}", fm.jobs_errored);
        let _ = writeln!(out, "  fault-wasted fraction  {:>8.4}", fm.fault_wasted_fraction);
        if fm.recoveries > 0 {
            let _ = writeln!(
                out,
                "  mean crash recovery    {:>8} ({} recovered)",
                SimDuration::from_secs(fm.mean_recovery_secs),
                fm.recoveries
            );
        }
    }
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>7} {:>10} {:>8} {:>8}",
        "project", "share", "used", "jobs", "missed", "RPCs"
    );
    for p in &r.projects {
        let _ = writeln!(
            out,
            "{:<12} {:>6.1}% {:>6.1}% {:>10} {:>8} {:>8}",
            p.name,
            100.0 * p.share_frac,
            100.0 * p.used_frac,
            p.jobs_completed,
            p.jobs_missed_deadline,
            p.rpcs
        );
    }
    out
}

impl std::fmt::Display for EmulationResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&render_report(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::{InstanceId, JobId, ProcType, ProjectId};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn timeline_renders_letters() {
        let inst = InstanceId { proc_type: ProcType::Cpu, index: 0 };
        let mut tl = Timeline::new([inst]);
        let tr = tl.track_mut(inst).unwrap();
        tr.record(t(0.0), t(50.0), Occupancy::Busy { project: ProjectId(0), job: JobId(1) });
        tr.record(t(50.0), t(75.0), Occupancy::Idle);
        tr.record(t(75.0), t(100.0), Occupancy::Unavailable);
        let s = render_timeline(&tl, 4);
        // 4 buckets of 25 s: A, A, ., -
        let row = s.lines().nth(1).unwrap();
        assert!(row.ends_with("AA.-"), "row: {row}");
    }

    #[test]
    fn mixed_bucket_lowercase() {
        let inst = InstanceId { proc_type: ProcType::Cpu, index: 0 };
        let mut tl = Timeline::new([inst]);
        let tr = tl.track_mut(inst).unwrap();
        tr.record(t(0.0), t(60.0), Occupancy::Busy { project: ProjectId(1), job: JobId(1) });
        tr.record(t(60.0), t(100.0), Occupancy::Idle);
        let s = render_timeline(&tl, 1);
        let row = s.lines().nth(1).unwrap();
        assert!(row.ends_with('b'), "row: {row}");
    }

    #[test]
    fn empty_timeline_is_empty_string() {
        let tl = Timeline::new([]);
        assert!(render_timeline(&tl, 10).is_empty());
    }
}
