//! DES engine throughput: event queue push/pop under mixed workloads.
//! The emulator pushes a handful of events per decision point; this bench
//! bounds how much of the wall time the queue itself can consume.

use bce_sim::{EventQueue, Rng};
use bce_types::SimTime;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

fn bench_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");

    g.throughput(Throughput::Elements(10_000));
    g.bench_function("push_pop_ordered_10k", |b| {
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                for i in 0..10_000u64 {
                    q.push(SimTime::from_secs(i as f64), i);
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
            BatchSize::SmallInput,
        )
    });

    g.throughput(Throughput::Elements(10_000));
    g.bench_function("push_pop_random_10k", |b| {
        let mut rng = Rng::from_seed(1);
        let times: Vec<f64> = (0..10_000).map(|_| rng.range(0.0, 1e6)).collect();
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                for (i, &t) in times.iter().enumerate() {
                    q.push(SimTime::from_secs(t), i as u64);
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
            BatchSize::SmallInput,
        )
    });

    // The emulator's actual pattern: a small rolling window of events.
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("rolling_window_100k", |b| {
        let mut rng = Rng::from_seed(2);
        let deltas: Vec<f64> = (0..100_000).map(|_| rng.range(0.1, 120.0)).collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut now = 0.0;
            for (i, &d) in deltas.iter().enumerate() {
                q.push(SimTime::from_secs(now + d), i);
                // Pop once more than eight events are in flight.
                if i >= 8 {
                    if let Some((t, e)) = q.pop() {
                        now = t.secs();
                        black_box(e);
                    }
                }
            }
            black_box(q)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_queue);
criterion_main!(benches);
