//! # bce-core — BCE, the BOINC client emulator
//!
//! The paper's primary artifact (§4.3): "a program that takes as input a
//! description of a usage scenario, emulates (using the actual BOINC
//! client code) the behavior of the client over some period of time, and
//! calculates various performance metrics."
//!
//! This crate binds the emulated client (`bce-client`), the simulated
//! project servers (`bce-server`) and the availability model
//! (`bce-avail`) into a deterministic discrete-event loop, accumulates the
//! five figures of merit of §4.2, renders the usage timeline, and
//! records every scheduling decision as a typed trace ([`TraceRecord`]),
//! the paper's message log.

pub mod builder;
pub mod emulator;
pub mod metrics;
pub mod render;
pub mod scenario;
pub mod spec;

pub use bce_faults::{FaultConfig, RetryPolicy};
pub use bce_obs::{
    ProfileReport, Profiler, TraceBuffer, TraceEvent, TraceRecord, TraceSink, Tracer,
};
pub use builder::ScenarioBuilder;
pub use emulator::{EmulationResult, Emulator, EmulatorArena, EmulatorConfig};
pub use metrics::{FaultMetrics, FiguresOfMerit, MetricsAccum, PerfStats, ProjectReport};
pub use render::{render_report, render_timeline};
pub use scenario::Scenario;
pub use spec::{ScenarioSpec, SpecError};
