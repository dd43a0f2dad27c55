//! # bce-cli — the `bce` command-line tool
//!
//! The operational face of the emulator, mirroring the paper's workflows:
//! run a scenario or a pasted `client_state.xml` (the web form, §4.3),
//! compare policies (the controller script), export scenario templates,
//! and run Monte-Carlo population studies.
//!
//! The command implementations live here (library) so they are testable;
//! `src/bin/bce.rs` is a thin wrapper.

pub(crate) mod args;
pub(crate) mod commands;
pub(crate) mod perf_report;

pub use commands::{dispatch, CliError};
