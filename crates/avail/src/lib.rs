//! # bce-avail — host availability modelling
//!
//! §4.3b of the paper: "host availability is modeled as a random process in
//! which available and unavailable periods have exponentially distributed
//! lengths." This crate provides those on/off processes, recorded-trace
//! replay, and the governor that combines power, user activity, network
//! connectivity and preferences into the client's effective run state.

pub(crate) mod governor;
pub(crate) mod process;
pub(crate) mod trace;

pub use governor::{AvailSpec, Governor, HostRunState};
pub use process::{OnOffProcess, OnOffSpec};
pub use trace::AvailTrace;
