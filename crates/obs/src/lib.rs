//! # bce-obs — structured observability for the emulator stack
//!
//! One instrumentation API for every crate in the workspace:
//!
//! * `trace` — typed [`TraceEvent`] decision records emitted through
//!   the [`Tracer`] trait: the emulator's one decision log. The no-op
//!   sink compiles to a branch; string formatting happens only at export
//!   or display time (`impl Display for TraceRecord`).
//! * `metrics` — a [`MetricsRegistry`] of named counters, gauges and
//!   histograms with per-component scopes, frozen into one deterministic
//!   [`MetricsSnapshot`] schema; the `bce serve` daemon's `/metrics`
//!   endpoint is built on it.
//! * `spans` — a [`Profiler`] of wall-clock spans feeding perfbench's
//!   traced per-layer table.
//! * [`export`] — JSONL serialization of traces and the matching parser
//!   (`bce trace` and the CI schema smoke test are built on it).
//!
//! Design rules (see DESIGN.md §Instrumentation):
//!
//! 1. **Disabled means free.** No event construction, no allocation, no
//!    clock read when a sink/profiler is off.
//! 2. **Observation only.** Enabling any instrument must not change a
//!    single scheduling decision or result bit.
//! 3. **Deterministic when enabled.** Trace buffers and metric
//!    snapshots are pure functions of the run; wall-clock time lives
//!    only in profiler spans, which are reported out-of-band.

pub mod export;
pub(crate) mod metrics;
pub(crate) mod spans;
pub(crate) mod trace;

pub use export::{parse_jsonl, record_to_json, to_jsonl, TraceParseError};
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot};
pub use spans::{ProfileReport, Profiler, SpanId, SpanReport};
pub use trace::{TraceBuffer, TraceEvent, TraceRecord, TraceSink, Tracer};
