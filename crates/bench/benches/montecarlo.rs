//! Population sampling + batch emulation throughput: the §6.2 Monte-Carlo
//! study must scale to thousands of sampled scenarios.

use bce_client::ClientConfig;
use bce_controller::{run_streaming, RunSpec};
use bce_core::EmulatorConfig;
use bce_scenarios::{PopulationModel, PopulationSampler};
use bce_types::SimDuration;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_montecarlo(c: &mut Criterion) {
    let mut g = c.benchmark_group("montecarlo");
    g.sample_size(10);

    g.bench_function("sample_100_scenarios", |b| {
        b.iter(|| {
            let mut s = PopulationSampler::new(PopulationModel::default(), 7);
            black_box(s.sample_many(100))
        })
    });

    g.bench_function("emulate_8_sampled_hosts_6h", |b| {
        let mut sampler = PopulationSampler::new(PopulationModel::default(), 7);
        let scenarios: Vec<std::sync::Arc<_>> =
            sampler.sample_many(8).into_iter().map(std::sync::Arc::new).collect();
        let emu = std::sync::Arc::new(EmulatorConfig {
            duration: SimDuration::from_hours(6.0),
            ..Default::default()
        });
        b.iter(|| {
            let specs: Vec<RunSpec> = scenarios
                .iter()
                .map(|s| {
                    RunSpec::new(s.name.clone(), s.clone(), ClientConfig::default())
                        .with_emulator(emu.clone())
                })
                .collect();
            let mut results = Vec::with_capacity(specs.len());
            run_streaming(&specs, 0, |_, _, r| results.push(r));
            black_box(results)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_montecarlo);
criterion_main!(benches);
