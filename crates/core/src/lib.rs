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

pub(crate) mod builder;
pub(crate) mod emulator;
pub(crate) mod metrics;
pub(crate) mod render;
pub(crate) mod scenario;
pub mod spec;

pub use bce_faults::FaultConfig;
pub use bce_obs::{ProfileReport, Profiler, TraceBuffer, TraceEvent, TraceRecord, TraceSink};
pub use builder::ScenarioBuilder;
pub use emulator::{EmulationResult, Emulator, EmulatorArena, EmulatorConfig};
pub use metrics::{FaultMetrics, FiguresOfMerit, PerfStats, ProjectReport};
pub use render::render_timeline;
pub use scenario::Scenario;
pub use spec::{ScenarioSpec, SpecError};
