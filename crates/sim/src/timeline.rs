//! Per-instance usage timelines.
//!
//! BCE "generates a time-line visualization of processor usage" (§4.3).
//! This module records, for every processor instance, which job/project
//! occupied it over which interval; the renderer in `bce-core` turns the
//! records into the ASCII visualization, and metrics can query utilization
//! directly.

use bce_types::{InstanceId, JobId, ProjectId, SimTime};

/// What an instance was doing during a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occupancy {
    Idle,
    /// The host was off / computing disallowed.
    Unavailable,
    Busy {
        project: ProjectId,
        job: JobId,
    },
}

/// A maximal interval of constant occupancy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub start: SimTime,
    pub end: SimTime,
    pub occ: Occupancy,
}

/// Usage history of one processor instance.
#[derive(Debug, Clone)]
pub struct InstanceTrack {
    pub instance: InstanceId,
    segments: Vec<Segment>,
}

impl InstanceTrack {
    pub(crate) fn new(instance: InstanceId) -> Self {
        InstanceTrack { instance, segments: Vec::new() }
    }

    /// Record occupancy over `[start, end)`; merges with the previous
    /// segment when contiguous and equal.
    pub fn record(&mut self, start: SimTime, end: SimTime, occ: Occupancy) {
        if end <= start {
            return;
        }
        if let Some(last) = self.segments.last_mut() {
            debug_assert!(start >= last.end - (last.end - last.start) * 1e-9);
            if last.occ == occ && (start - last.end).secs().abs() < 1e-6 {
                last.end = end;
                return;
            }
        }
        self.segments.push(Segment { start, end, occ });
    }

    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }
}

/// Usage history of all instances on the host.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    tracks: Vec<InstanceTrack>,
}

impl Timeline {
    pub fn new(instances: impl IntoIterator<Item = InstanceId>) -> Self {
        Timeline { tracks: instances.into_iter().map(InstanceTrack::new).collect() }
    }

    pub fn track_mut(&mut self, instance: InstanceId) -> Option<&mut InstanceTrack> {
        self.tracks.iter_mut().find(|t| t.instance == instance)
    }

    pub fn tracks(&self) -> &[InstanceTrack] {
        &self.tracks
    }

    /// End time of the latest segment across all tracks.
    pub fn horizon(&self) -> SimTime {
        self.tracks
            .iter()
            .filter_map(|t| t.segments().last())
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::ProcType;

    fn inst(i: u32) -> InstanceId {
        InstanceId { proc_type: ProcType::Cpu, index: i }
    }
    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn busy(p: u32, j: u64) -> Occupancy {
        Occupancy::Busy { project: ProjectId(p), job: JobId(j) }
    }

    #[test]
    fn records_and_merges() {
        let mut tr = InstanceTrack::new(inst(0));
        tr.record(t(0.0), t(10.0), busy(0, 1));
        tr.record(t(10.0), t(20.0), busy(0, 1)); // merge
        tr.record(t(20.0), t(30.0), busy(1, 2));
        assert_eq!(tr.segments().len(), 2);
        assert_eq!(tr.segments()[0].end, t(20.0));
        assert_eq!(tr.segments()[1].end, t(30.0));
    }

    #[test]
    fn zero_length_ignored() {
        let mut tr = InstanceTrack::new(inst(0));
        tr.record(t(5.0), t(5.0), Occupancy::Idle);
        assert!(tr.segments().is_empty());
    }

    #[test]
    fn timeline_horizon() {
        let mut tl = Timeline::new([inst(0), inst(1)]);
        tl.track_mut(inst(1)).unwrap().record(t(0.0), t(42.0), Occupancy::Idle);
        assert_eq!(tl.horizon(), t(42.0));
        assert_eq!(tl.tracks().len(), 2);
        assert!(tl.track_mut(inst(9)).is_none());
    }
}
