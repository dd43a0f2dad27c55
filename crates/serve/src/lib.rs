//! `bce-serve`: a hardened, long-running emulation service.
//!
//! The daemon accepts scenario and state-file submissions over a
//! hand-rolled HTTP/1.1 subset (the workspace stays dependency-free) and
//! runs them through the supervised, checkpointing executor. Its
//! robustness contract:
//!
//! - **Bounded everything.** A fixed worker pool behind an explicit
//!   `AdmissionQueue`; when the queue is full the connection is shed
//!   immediately with `503 + Retry-After`. Header, body, and header-count
//!   caps reject oversized requests before buffering them.
//! - **Budgeted requests.** Each `/campaign` carries a wall-clock
//!   deadline; work proceeds in checkpointed chunks (the executor's
//!   `stop_after_runs`) so an expired budget parks the campaign rather
//!   than truncating it.
//! - **No wedged workers.** Socket read/write timeouts bound slow-loris
//!   clients; malformed and oversized input maps to typed `4xx`; panics
//!   are quarantined per request (`catch_unwind` at the route layer, the
//!   supervised executor underneath).
//! - **Graceful drain.** SIGTERM/SIGINT (or [`ServerHandle::drain`])
//!   stops admission, finishes admitted work, parks campaigns at a chunk
//!   boundary with their checkpoint persisted, and exits. A restarted
//!   daemon resumes a parked campaign bit-identically — the CI smoke
//!   job diffs the resumed table against an uninterrupted reference.
//! - **Observable.** `/healthz`, `/readyz`, `/metrics` (the `bce-obs`
//!   registry), and `/trace` (the last run's typed trace as JSONL).

pub(crate) mod http;
pub(crate) mod queue;
pub(crate) mod signal;
pub(crate) mod wall;

mod handlers;
mod server;

pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
pub use wall::{ACCEPT_RETRY, CHECKPOINT_RETRY};
