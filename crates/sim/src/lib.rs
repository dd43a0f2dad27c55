//! # bce-sim — discrete-event simulation substrate
//!
//! The infrastructure beneath the emulator: a deterministic event queue,
//! named random-number streams with from-scratch distributions (the paper
//! models job runtimes as normal and availability periods as exponential,
//! §4.3), online statistics for the figures of merit and per-instance
//! usage timelines for the visualization. The decision log is the typed
//! trace in `bce-obs`.
//!
//! Everything here is deterministic given a seed — the emulator exists to
//! reproduce field anomalies exactly (§4.3), so no wall-clock time, no
//! global RNG, no hash-order dependence.

pub(crate) mod dist;
pub(crate) mod hash;
pub(crate) mod queue;
pub(crate) mod rng;
pub(crate) mod stats;
pub(crate) mod timeline;

pub use dist::{Distribution, Exponential, LogNormal, Normal, TruncatedNormal, Uniform};
pub use hash::{fnv64, Fnv64};
pub use queue::EventQueue;
pub use rng::Rng;
pub use stats::{rms, OnlineStats};
pub use timeline::{InstanceTrack, Occupancy, Segment, Timeline};
