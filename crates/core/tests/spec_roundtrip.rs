//! Property test for the JSON scenario format: any scenario the builder
//! can produce must survive `Scenario -> ScenarioSpec -> canonical JSON ->
//! ScenarioSpec -> Scenario` unchanged — the canonical text is a fixed
//! point, and the reloaded scenario drives the emulator to a bit-identical
//! [`bce_core::EmulationResult::bit_fingerprint`]. This is the determinism
//! contract that lets `scenarios/*.json` golden files stand in for the
//! builtin constructors.

use bce_avail::{AvailSpec, AvailTrace, OnOffSpec};
use bce_client::{ClientConfig, NetworkModel};
use bce_core::spec::ScenarioSpec;
use bce_core::{Emulator, EmulatorConfig, Scenario, ScenarioBuilder};
use bce_types::{
    AppClass, DailyWindow, Hardware, Preferences, ProjectSpec, SimDuration, SimTime, WorkSupply,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct SpecParams {
    seed: u64,
    ncpus: u32,
    flops: f64,
    nprojects: usize,
    shares: Vec<f64>,
    runtimes: Vec<f64>,
    slack: f64,
    batch_supply: bool,
    window: Option<(u32, u32)>,
    host: u8,
    user_active: u8,
    traced: bool,
    networked: bool,
}

fn onoff(code: u8) -> OnOffSpec {
    match code % 3 {
        0 => OnOffSpec::AlwaysOn,
        1 => OnOffSpec::AlwaysOff,
        _ => OnOffSpec::Exponential {
            up_mean: SimDuration::from_hours(3.0),
            down_mean: SimDuration::from_hours(1.0),
            start_on: code.is_multiple_of(2),
        },
    }
}

fn params() -> impl Strategy<Value = SpecParams> {
    (
        (
            any::<u64>(),
            1u32..4,
            5e8f64..4e9,
            1usize..4,
            proptest::collection::vec(10.0f64..500.0, 3),
            proptest::collection::vec(300.0f64..3000.0, 3),
            2.0f64..24.0,
        ),
        (
            any::<bool>(),
            proptest::option::of((0u32..43200, 43200u32..86400)),
            0u8..6,
            0u8..6,
            any::<bool>(),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (seed, ncpus, flops, nprojects, shares, runtimes, slack),
                (batch_supply, window, host, user_active, traced, networked),
            )| SpecParams {
                seed,
                ncpus,
                flops,
                nprojects,
                shares,
                runtimes,
                slack,
                batch_supply,
                window,
                host,
                user_active,
                traced,
                networked,
            },
        )
}

fn build(p: &SpecParams) -> Scenario {
    let mut prefs = Preferences::default();
    if let Some((start, end)) = p.window {
        prefs.compute_window = Some(DailyWindow { start_sec: start as f64, end_sec: end as f64 });
    }
    let mut b = ScenarioBuilder::new("spec-prop", Hardware::cpu_only(p.ncpus, p.flops))
        .seed(p.seed)
        .prefs(prefs)
        .avail(AvailSpec {
            host: onoff(p.host),
            user_active: onoff(p.user_active),
            network: OnOffSpec::AlwaysOn,
        });
    for i in 0..p.nprojects {
        let runtime = p.runtimes[i % p.runtimes.len()];
        let mut spec = ProjectSpec::new(i as u32, format!("p{i}"), p.shares[i % p.shares.len()])
            .with_app(
                AppClass::cpu(
                    i as u32,
                    SimDuration::from_secs(runtime),
                    SimDuration::from_secs(runtime * p.slack),
                )
                .with_cv(0.1),
            );
        if p.batch_supply && i == 0 {
            spec.supply = WorkSupply::Batch { njobs: 50 };
        }
        b = b.project(spec);
    }
    let mut s = b.build().expect("generated scenario is valid");
    if p.traced {
        s.host_trace = Some(AvailTrace::new(
            true,
            vec![(SimTime::from_secs(3600.0), false), (SimTime::from_secs(7200.0), true)],
        ));
    }
    if p.networked {
        s.network = Some(NetworkModel::symmetric(1e6));
    }
    s
}

fn fingerprint(s: Scenario) -> u64 {
    let cfg = EmulatorConfig { duration: SimDuration::from_hours(3.0), ..Default::default() };
    Emulator::new(s, ClientConfig::default(), cfg).run().bit_fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    #[test]
    fn scenario_spec_roundtrip_is_bit_identical(p in params()) {
        let original = build(&p);
        let spec = ScenarioSpec::from_scenario(&original);
        let json = spec.to_canonical_json();

        // Canonical text is a fixed point of parse -> print.
        let reparsed = ScenarioSpec::parse(&json).expect("canonical output reparses");
        prop_assert_eq!(reparsed.to_canonical_json(), json);

        // The reloaded scenario is value-identical where it matters: it
        // must drive the emulator to the same bit fingerprint.
        let (reloaded, faults) = reparsed.build().expect("reloaded spec validates");
        prop_assert!(faults.is_none());
        prop_assert_eq!(fingerprint(original), fingerprint(reloaded));
    }
}
