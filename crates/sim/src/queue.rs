//! The discrete-event queue.
//!
//! A priority queue of `(time, payload)` entries with deterministic FIFO
//! ordering among equal times (a monotone sequence number breaks ties).
//! Determinism matters: the emulator's whole value is exact reproducibility
//! of a reported scheduling anomaly.

use bce_types::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// An earliest-first event queue with FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    pub fn with_capacity(cap: usize) -> Self {
        EventQueue { heap: BinaryHeap::with_capacity(cap), seq: 0 }
    }

    /// Schedule `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Empty the queue *and* restart the FIFO tie-break sequence, keeping
    /// the heap's allocation. This is the arena-reuse entry point: a queue
    /// recycled across emulation runs behaves bit-identically to a freshly
    /// constructed one.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn earliest_first() {
        let mut q = EventQueue::new();
        q.push(t(5.0), "b");
        q.push(t(1.0), "a");
        q.push(t(9.0), "c");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(5.0), "b")));
        assert_eq!(q.pop(), Some((t(9.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(7.0), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), 3);
        q.push(t(1.0), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(t(2.0), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.heap.len(), 0);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.push(t(1.0), ());
        q.push(t(2.0), ());
        assert_eq!(q.heap.len(), 2);
        q.reset();
        assert_eq!(q.heap.len(), 0);
    }

    #[test]
    fn reset_keeps_allocation_and_restarts_sequence() {
        let mut q = EventQueue::with_capacity(128);
        let cap = q.heap.capacity();
        assert!(cap >= 128);
        for i in 0..100 {
            q.push(t(1.0), i);
        }
        q.reset();
        assert_eq!(q.heap.len(), 0);
        assert!(q.heap.capacity() >= cap, "reset must keep the allocation");
        // After reset, FIFO tie-breaking restarts exactly as in a fresh
        // queue: pushes at an equal time pop in insertion order.
        for i in 0..50 {
            q.push(t(3.0), i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((t(3.0), i)));
        }
    }
}
