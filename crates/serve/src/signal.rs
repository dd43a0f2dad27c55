//! SIGTERM/SIGINT → drain-flag wiring, hand-rolled.
//!
//! The workspace has no `libc` crate, but `std` already links the C
//! library, so the two symbols needed — `signal(2)` and the integer
//! signal numbers — are declared here directly. The handler does the
//! only async-signal-safe thing possible: it sets a process-global
//! atomic, which the accept loop polls (it runs non-blocking with a
//! short poll interval precisely so a signal never has to interrupt a
//! blocking syscall).

use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a termination signal has been observed.
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod unix {
    use super::TERM_REQUESTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // `sighandler_t signal(int signum, sighandler_t handler)`.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        // Only async-signal-safe operation here: one atomic store.
        TERM_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
            signal(SIGINT, on_term as *const () as usize);
        }
    }
}

/// Install the SIGTERM/SIGINT handler (idempotent; no-op off Unix, where
/// only the in-process [`crate::ServerHandle::drain`] path exists).
pub(crate) fn install_termination_handler() {
    #[cfg(unix)]
    unix::install();
}

/// Has SIGTERM/SIGINT been received?
pub(crate) fn termination_requested() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}
