//! The disabled-tracer cost guarantee, enforced: emitting through
//! [`TraceSink::Noop`] performs **zero** heap
//! allocations per event, even for variants that would carry `Vec`s.
//!
//! This works because [`Tracer::emit`] takes the event as a closure: a
//! disabled sink never runs the closure, so the `Vec`s are never built.
//! The test drives the same closures through a recording sink first to
//! prove they *would* allocate if called — otherwise a lazily-optimized
//! event could make the zero-count vacuous.
//!
//! Kept as its own integration-test binary (single `#[test]`) because a
//! `#[global_allocator]` is process-wide and concurrent tests would
//! pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bce_obs::{TraceBuffer, TraceEvent, TraceSink, Tracer};
use bce_types::{JobId, ProjectId, SimTime};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// Emit one of each "expensive" event shape — the `Scheduled` variant
/// carries two `Vec<JobId>`s, the others are plain but still must not be
/// built when disabled. `i` varies the contents so nothing is promotable
/// to a constant.
fn emit_round(tracer: &mut impl Tracer, i: u64) {
    let t = SimTime::from_secs(i as f64);
    tracer.emit(t, || TraceEvent::Scheduled {
        started: vec![JobId(i), JobId(i + 1)],
        preempted: vec![JobId(i + 2)],
    });
    tracer.emit(t, || TraceEvent::JobFinished {
        job: JobId(i),
        project: ProjectId((i % 5) as u32),
        met_deadline: i.is_multiple_of(2),
    });
    tracer.emit(t, || TraceEvent::RpcReply {
        project: ProjectId((i % 5) as u32),
        cpu_secs: i as f64,
        gpu_secs: 0.0,
        jobs: i,
    });
}

#[test]
fn noop_sink_emits_without_allocating() {
    // Control: the same closures through a recording sink DO allocate
    // (the buffer grows and the Scheduled vecs are built), proving the
    // measurement below is not vacuous.
    let mut recording = TraceSink::Buffer(TraceBuffer::with_buffer(10_000, Vec::new()));
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..1_000 {
        emit_round(&mut recording, i);
    }
    let recorded_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        recorded_allocs >= 2_000,
        "recording sink should allocate for the Scheduled vecs, saw {recorded_allocs}"
    );

    // The guarantee: a Noop sink emits the identical stream for free.
    let mut noop = TraceSink::Noop;
    assert!(!noop.is_enabled());
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..10_000 {
        emit_round(&mut noop, i);
    }
    let noop_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(noop_allocs, 0, "TraceSink::Noop allocated {noop_allocs} times over 30k events");
}
