//! The bounded admission queue between the accept loop and the worker
//! pool — the daemon's explicit backpressure point.
//!
//! Admission control happens at `try_push`: when the queue is at
//! capacity (or the server is draining) the connection is *rejected
//! immediately* and handed back to the acceptor, which sheds it with
//! `503 + Retry-After`. Memory is therefore bounded at
//! `capacity × (one TcpStream + accept timestamp)` no matter how hard
//! clients hammer the listener; nothing ever queues unboundedly.
//!
//! `close()` starts the drain: `try_push` refuses all new work and `pop`
//! returns `None` once the backlog is empty, so every worker exits after
//! finishing what was already admitted.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Why `try_push` refused a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rejection {
    /// At capacity: the client should retry after backing off.
    Full,
    /// Draining: the daemon is shutting down and admits nothing.
    Draining,
}

struct Inner<T> {
    items: VecDeque<(T, Instant)>,
    closed: bool,
}

/// A bounded MPMC queue of admitted connections.
pub(crate) struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(Inner { items: VecDeque::with_capacity(capacity), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admit `item`, or reject it without blocking. On rejection the item
    /// is returned so the caller can still write a shed response on it.
    pub(crate) fn try_push(&self, item: T) -> Result<(), (T, Rejection)> {
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        if inner.closed {
            return Err((item, Rejection::Draining));
        }
        if inner.items.len() >= self.capacity {
            return Err((item, Rejection::Full));
        }
        inner.items.push_back((item, Instant::now()));
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until an item is available (returning it with the instant it
    /// was admitted) or the queue is closed *and* empty (returning
    /// `None`, the worker-exit signal).
    pub(crate) fn pop(&self) -> Option<(T, Instant)> {
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        loop {
            if let Some(entry) = inner.items.pop_front() {
                return Some(entry);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("admission queue poisoned");
        }
    }

    /// Current backlog length (for the queue-depth gauge).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("admission queue poisoned").items.len()
    }

    /// Stop admitting; wake every blocked worker. Already-admitted items
    /// still drain through `pop`.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("admission queue poisoned").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_when_draining() {
        let q = AdmissionQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err((3, Rejection::Full)));
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.try_push(4), Err((4, Rejection::Draining)));
        // Admitted work still drains.
        assert_eq!(q.pop().map(|(v, _)| v), Some(1));
        assert_eq!(q.pop().map(|(v, _)| v), Some(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_blocks_until_push_and_workers_exit_on_close() {
        let q = Arc::new(AdmissionQueue::new(4));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = 0;
                while q.pop().is_some() {
                    got += 1;
                }
                got
            }));
        }
        for i in 0..10 {
            while q.try_push(i).is_err() {
                std::thread::yield_now();
            }
        }
        q.close();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 10, "every admitted item is processed exactly once");
    }
}
