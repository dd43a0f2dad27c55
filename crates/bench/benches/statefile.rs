//! State-file ingest throughput: parse + render of a realistic
//! `client_state.xml` (the web-form path, §4.3), and JSON parse of the
//! scenario specs, campaign inputs and `/run` bodies users send. Every bar
//! reports bytes/s, so ns/byte is comparable across document sizes.

use bce_scenarios::{
    doc_from_scenario, scenario4, PopulationModel, PopulationSampler, ScenarioSpec,
};
use bce_statefile::{parse_json, ClientStateDoc};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_statefile(c: &mut Criterion) {
    let doc = doc_from_scenario(&scenario4());
    let xml = doc.render();
    let mut g = c.benchmark_group("statefile");
    g.throughput(Throughput::Bytes(xml.len() as u64));
    g.bench_function("parse_20_project_state", |b| {
        b.iter(|| black_box(ClientStateDoc::parse_str(black_box(&xml)).unwrap()))
    });
    g.bench_function("render_20_project_state", |b| b.iter(|| black_box(doc.render())));
    g.bench_function("roundtrip", |b| {
        b.iter(|| {
            let d = ClientStateDoc::parse_str(black_box(&xml)).unwrap();
            black_box(d.render())
        })
    });
    g.finish();
}

fn bench_json(c: &mut Criterion) {
    let scenario4_spec =
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/scenario4.json"));
    let model = PopulationModel::named("boinc2019").expect("built-in population model");
    let hosts: Vec<String> = PopulationSampler::new(model, 1)
        .sample_many(64)
        .iter()
        .map(|h| ScenarioSpec::from_scenario(h).to_canonical_json())
        .collect();
    let host_specs = format!("[{}]", hosts.join(","));
    let long_string = format!("\"{}\"", "a".repeat(256 << 10));

    let mut g = c.benchmark_group("json");
    for (name, text) in [
        ("parse_scenario4_spec", scenario4_spec),
        ("parse_64_host_specs", host_specs.as_str()),
        ("parse_256k_string", long_string.as_str()),
    ] {
        g.throughput(Throughput::Bytes(text.len() as u64));
        g.bench_function(name, |b| b.iter(|| black_box(parse_json(black_box(text)).unwrap())));
    }
    g.finish();
}

criterion_group!(benches, bench_statefile, bench_json);
criterion_main!(benches);
