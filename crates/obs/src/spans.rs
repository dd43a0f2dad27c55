//! Lightweight profiling spans.
//!
//! Two clocks coexist in this codebase and the profiler keeps them
//! strictly apart:
//!
//! * **Wall-clock spans** ([`Profiler::time`]) measure how long the host
//!   machine spent inside a region — RR simulation, event dispatch, the
//!   streaming executor. They feed perfbench's traced per-layer table
//!   and are *never* stored in an `EmulationResult`-adjacent structure
//!   that a determinism fingerprint could see.
//! * **Sim-time spans** ([`Profiler::record_sim`]) accumulate simulated
//!   seconds attributed to a region (e.g. how much sim time the host
//!   spent unavailable). They are pure functions of the run and safe to
//!   report anywhere.
//!
//! A disabled profiler never calls `Instant::now()`: [`Profiler::time`]
//! runs the closure straight through, so the only residual cost is one
//! branch.

use std::time::Instant;

/// Handle to a registered span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, Default)]
struct SpanSlot {
    name: &'static str,
    count: u64,
    wall_nanos: u128,
    sim_secs: f64,
}

/// Span registry + accumulator. Create one per run (or per bench
/// session) with [`Profiler::enabled`]; the default is disabled.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    enabled: bool,
    spans: Vec<SpanSlot>,
}

impl Profiler {
    /// A profiler that measures nothing and never reads the clock.
    pub fn disabled() -> Self {
        Profiler::default()
    }

    pub fn enabled() -> Self {
        Profiler { enabled: true, spans: Vec::new() }
    }

    /// Register (or re-find) a span by name.
    pub fn span(&mut self, name: &'static str) -> SpanId {
        if let Some(i) = self.spans.iter().position(|s| s.name == name) {
            return SpanId(i);
        }
        self.spans.push(SpanSlot { name, ..Default::default() });
        SpanId(self.spans.len() - 1)
    }

    /// Run `f`, attributing its wall-clock time to `id` when enabled.
    #[inline]
    pub fn time<R>(&mut self, id: SpanId, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let slot = &mut self.spans[id.0];
        slot.wall_nanos += start.elapsed().as_nanos();
        slot.count += 1;
        r
    }

    /// Attribute externally-measured wall nanoseconds to `id`.
    pub fn add_wall_nanos(&mut self, id: SpanId, nanos: u128) {
        if self.enabled {
            let slot = &mut self.spans[id.0];
            slot.wall_nanos += nanos;
            slot.count += 1;
        }
    }

    /// Attribute simulated seconds to `id` (deterministic).
    #[inline]
    pub fn record_sim(&mut self, id: SpanId, secs: f64) {
        if self.enabled {
            let slot = &mut self.spans[id.0];
            slot.sim_secs += secs;
            slot.count += 1;
        }
    }

    /// Freeze into a report, spans sorted by name.
    pub fn report(&self) -> ProfileReport {
        let mut spans: Vec<SpanReport> = self
            .spans
            .iter()
            .map(|s| SpanReport {
                name: s.name.to_string(),
                count: s.count,
                wall_ms: s.wall_nanos as f64 / 1e6,
                sim_secs: s.sim_secs,
            })
            .collect();
        spans.sort_by(|a, b| a.name.cmp(&b.name));
        ProfileReport { spans }
    }
}

/// One span's totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanReport {
    pub name: String,
    pub(crate) count: u64,
    pub wall_ms: f64,
    pub(crate) sim_secs: f64,
}

/// All spans, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    pub spans: Vec<SpanReport>,
}

impl ProfileReport {
    pub fn span(&self, name: &str) -> Option<&SpanReport> {
        self.spans.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_runs_closure_without_recording() {
        let mut p = Profiler::disabled();
        let id = p.span("rr");
        let v = p.time(id, || 42);
        assert_eq!(v, 42);
        assert!(p.report().span("rr").unwrap().count == 0);
    }

    #[test]
    fn enabled_profiler_accumulates_counts_and_time() {
        let mut p = Profiler::enabled();
        let id = p.span("dispatch");
        for _ in 0..3 {
            p.time(id, || std::hint::black_box(1 + 1));
        }
        p.record_sim(id, 10.0);
        p.record_sim(id, 2.5);
        let rep = p.report();
        let s = rep.span("dispatch").unwrap();
        assert_eq!(s.count, 5);
        assert!((s.sim_secs - 12.5).abs() < 1e-12);
    }

    #[test]
    fn span_registration_dedups_and_report_sorts() {
        let mut p = Profiler::enabled();
        let b = p.span("b");
        let a = p.span("a");
        assert_eq!(p.span("b"), b);
        p.record_sim(a, 1.0);
        let rep = p.report();
        assert_eq!(rep.spans[0].name, "a");
        assert_eq!(rep.spans[1].name, "b");
    }
}
