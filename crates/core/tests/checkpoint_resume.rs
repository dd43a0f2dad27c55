//! Checkpoint/restore differential tests: capturing a run mid-flight and
//! resuming it — in-process or through the serialized XML document, even
//! across a simulated process restart — must produce a result whose
//! [`EmulationResult::bit_fingerprint`] equals the uninterrupted run's,
//! and whose decision trace is the uninterrupted run's trace. This is the
//! run-level resume contract.

use bce_avail::{AvailSpec, OnOffSpec};
use bce_client::{ClientConfig, JobSchedPolicy};
use bce_core::{
    CheckpointError, CheckpointState, EmulationResult, Emulator, EmulatorArena, EmulatorConfig,
    FaultConfig, Scenario, ScenarioBuilder,
};
use bce_types::{AppClass, Hardware, ProcType, ProjectSpec, SimDuration, SimTime};
use proptest::prelude::*;

fn cpu_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(format!("ckpt-cpu-{seed}"), Hardware::cpu_only(2, 1.5e9))
        .seed(seed)
        .avail(AvailSpec {
            host: OnOffSpec::duty_cycle(0.8, SimDuration::from_hours(3.0)),
            user_active: OnOffSpec::duty_cycle(0.3, SimDuration::from_hours(5.0)),
            network: OnOffSpec::duty_cycle(0.9, SimDuration::from_hours(7.0)),
        })
        .project(ProjectSpec::new(0, "alpha", 100.0).with_app(AppClass::cpu(
            0,
            SimDuration::from_secs(900.0),
            SimDuration::from_hours(6.0),
        )))
        .project(ProjectSpec::new(1, "beta", 300.0).with_app(AppClass::cpu(
            1,
            SimDuration::from_secs(1400.0),
            SimDuration::from_hours(12.0),
        )))
        .build_unchecked()
}

fn gpu_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(
        format!("ckpt-gpu-{seed}"),
        Hardware::cpu_only(4, 2e9).with_group(ProcType::NvidiaGpu, 1, 1e10),
    )
    .seed(seed)
    .project(
        ProjectSpec::new(0, "mixed", 100.0)
            .with_app(AppClass::gpu(
                0,
                ProcType::NvidiaGpu,
                SimDuration::from_secs(700.0),
                SimDuration::from_hours(8.0),
            ))
            .with_app(AppClass::cpu(
                1,
                SimDuration::from_secs(2000.0),
                SimDuration::from_hours(8.0),
            )),
    )
    .build_unchecked()
}

/// Project ids are arbitrary `u32`s: sparse, listed out of order, one
/// near `u32::MAX`. Per-project tables must not be sized by the id.
fn sparse_id_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(
        format!("ckpt-sparse-{seed}"),
        Hardware::cpu_only(2, 1.5e9).with_group(ProcType::NvidiaGpu, 1, 1e10),
    )
    .seed(seed)
    .project(ProjectSpec::new(4_000_000_000, "huge", 100.0).with_app(AppClass::cpu(
        0,
        SimDuration::from_secs(1100.0),
        SimDuration::from_hours(8.0),
    )))
    .project(
        ProjectSpec::new(7, "seven", 200.0)
            .with_app(AppClass::gpu(
                0,
                ProcType::NvidiaGpu,
                SimDuration::from_secs(800.0),
                SimDuration::from_hours(6.0),
            ))
            .with_app(AppClass::cpu(
                1,
                SimDuration::from_secs(1500.0),
                SimDuration::from_hours(10.0),
            )),
    )
    .project(ProjectSpec::new(12, "twelve", 100.0).with_app(AppClass::cpu(
        0,
        SimDuration::from_secs(900.0),
        SimDuration::from_hours(5.0),
    )))
    .build_unchecked()
}

fn bare_cfg() -> EmulatorConfig {
    EmulatorConfig { duration: SimDuration::from_hours(18.0), ..Default::default() }
}

/// Every optional subsystem on: faults (RPC + transfer + crashes),
/// timeline, typed trace. Restore must reproduce all of it.
fn observed_cfg() -> EmulatorConfig {
    let mut faults = FaultConfig::with_failure_rate(0.1);
    faults.crash_mtbf = Some(SimDuration::from_hours(9.0));
    EmulatorConfig {
        duration: SimDuration::from_hours(18.0),
        record_timeline: true,
        trace_capacity: 50_000,
        faults,
        ..Default::default()
    }
}

fn assert_same(resumed: &EmulationResult, straight: &EmulationResult, what: &str) {
    assert_eq!(
        resumed.bit_fingerprint(),
        straight.bit_fingerprint(),
        "{what}: resumed run diverged from the uninterrupted run"
    );
    // The fingerprint leaves the trace out; the decision record must
    // survive the checkpoint on its own terms.
    let (a, b) = (&resumed.trace, &straight.trace);
    assert!(a.records() == b.records(), "{what}: resumed trace records differ");
    assert_eq!(
        (a.dropped(), a.emitted()),
        (b.dropped(), b.emitted()),
        "{what}: resumed trace counters differ"
    );
}

#[test]
fn resume_is_bit_identical_across_configs_and_instants() {
    let client = ClientConfig::default();
    let cases: Vec<(Scenario, EmulatorConfig)> = vec![
        (cpu_scenario(11), bare_cfg()),
        (cpu_scenario(11), observed_cfg()),
        (gpu_scenario(7), bare_cfg()),
        (gpu_scenario(7), observed_cfg()),
        (sparse_id_scenario(5), bare_cfg()),
        (sparse_id_scenario(5), observed_cfg()),
    ];
    for (scenario, cfg) in cases {
        let emu = Emulator::new(scenario.clone(), client, cfg);
        let straight = emu.run();
        for hours in [0.0, 0.5, 4.0, 11.3, 17.9, 30.0] {
            let at = SimTime::from_secs(hours * 3600.0);
            let ckpt = emu.checkpoint_at(at);
            let resumed = emu.resume(&ckpt).expect("restore own checkpoint");
            assert_same(&resumed, &straight, &format!("{} at {hours}h", scenario.name));
        }
    }
}

#[test]
fn serialized_checkpoint_resumes_bit_identically() {
    // Round-trip through the XML document — the same path a process
    // restart takes. (Durable storage of the document is the statefile
    // store's job; its framing and fsync are tested there.)
    let client = ClientConfig::default();
    for (scenario, cfg) in [(cpu_scenario(3), observed_cfg()), (gpu_scenario(4), bare_cfg())] {
        let emu = Emulator::new(scenario.clone(), client, cfg);
        let straight = emu.run();
        let ckpt = emu.checkpoint_at(SimTime::from_secs(6.5 * 3600.0));

        let doc = ckpt.to_xml_string();
        let parsed = CheckpointState::from_xml_str(&doc).expect("parse own serialization");
        let resumed = emu.resume(&parsed).expect("resume parsed checkpoint");
        assert_same(&resumed, &straight, &format!("{} via XML", scenario.name));
        // The format itself is stable: re-serializing the parsed state
        // reproduces the document byte-for-byte.
        assert_eq!(parsed.to_xml_string(), doc, "serialization is not canonical");
    }
}

#[test]
fn checkpoint_reuses_arena_without_contamination() {
    // checkpoint_at_in / resume_in through one shared arena must match
    // the fresh-state paths exactly, and leave the arena reusable.
    let client = ClientConfig::default();
    let mut arena = EmulatorArena::new();
    for seed in [1u64, 2, 3] {
        let emu = Emulator::new(cpu_scenario(seed), client, observed_cfg());
        let straight = emu.run();
        let ckpt = emu.checkpoint_at_in(SimTime::from_secs(9.0 * 3600.0), &mut arena);
        let resumed = emu.resume_in(&ckpt, &mut arena).expect("resume in arena");
        assert_same(&resumed, &straight, &format!("arena path seed {seed}"));
    }
}

/// Checkpoints taken *inside* a frozen-progress window — progress-class
/// dirt accumulated, the retained RR snapshot still being served — must
/// resume bit-identically: the dirty tracker, frozen window and retained
/// snapshot all survive the XML round trip, so the resumed run serves the
/// same frozen hits the uninterrupted run did. A dense instant sweep
/// guarantees some checkpoints land mid-window; the test asserts it
/// actually witnessed at least one.
/// The `id` attributes of every `<{element} id="...">` in `doc`, in order.
fn element_ids(doc: &str, element: &str) -> Vec<u32> {
    let open = format!("<{element} id=\"");
    doc.match_indices(&open)
        .map(|(at, _)| {
            let rest = &doc[at + open.len()..];
            rest[..rest.find('"').expect("closing quote")].parse().expect("numeric id")
        })
        .collect()
}

#[test]
fn sparse_out_of_order_project_ids_checkpoint_in_id_order_and_resume() {
    for sched_policy in [JobSchedPolicy::LOCAL, JobSchedPolicy::GLOBAL] {
        let client = ClientConfig { sched_policy, ..ClientConfig::default() };
        let emu = Emulator::new(sparse_id_scenario(5), client, bare_cfg());
        // Completing at all shows no table was sized by the largest id.
        let straight = emu.run();
        for p in &straight.projects {
            assert!(p.jobs_completed > 0, "{}: project {} starved", sched_policy.name(), p.id);
        }

        let ckpt = emu.checkpoint_at(SimTime::from_secs(7.3 * 3600.0));
        let doc = ckpt.to_xml_string();
        for element in ["debt", "lt_debt", "rec"] {
            assert_eq!(
                element_ids(&doc, element),
                [7, 12, 4_000_000_000],
                "{}: accounting {element} entries not in ascending id order",
                sched_policy.name()
            );
        }
        let parsed = CheckpointState::from_xml_str(&doc).expect("parse sparse-id checkpoint");
        let resumed = emu.resume(&parsed).expect("resume sparse-id checkpoint");
        assert_same(&resumed, &straight, &format!("sparse ids, {}", sched_policy.name()));

        // Accounting entries naming a project the scenario lacks are
        // refused, not silently dropped or grown.
        let foreign = doc.replacen("<debt id=\"12\"", "<debt id=\"13\"", 1);
        assert_ne!(foreign, doc);
        let parsed = CheckpointState::from_xml_str(&foreign).expect("still well-formed");
        assert!(matches!(emu.resume(&parsed), Err(CheckpointError::ConfigMismatch(_))));
    }
}

#[test]
fn resume_mid_dirty_window_is_bit_identical() {
    let client = ClientConfig::default();
    let emu = Emulator::new(cpu_scenario(17), client, bare_cfg());
    let straight = emu.run();
    let mut saw_mid_dirty = 0u32;
    // Every ~13 min across the first 6 hours: jobs run 900–1400 s, so
    // many instants fall between a task start and its completion, where
    // running tasks have progressed since the last full simulation but
    // nothing structural has changed, and the frozen window is open: the
    // next query may be a frozen hit, and a resume must serve it too.
    for minutes in (0..360).step_by(13) {
        let at = SimTime::from_secs(minutes as f64 * 60.0);
        let ckpt = emu.checkpoint_at(at);
        if !ckpt.rr_dirty() && ckpt.rr_frozen_until() > ckpt.now() {
            saw_mid_dirty += 1;
        }
        let doc = ckpt.to_xml_string();
        let parsed = CheckpointState::from_xml_str(&doc).expect("parse mid-dirty checkpoint");
        let resumed = emu.resume(&parsed).expect("resume mid-dirty checkpoint");
        assert_same(&resumed, &straight, &format!("mid-dirty resume at {minutes}min"));
    }
    assert!(
        saw_mid_dirty >= 3,
        "sweep never landed inside an open frozen window without structural \
         dirt ({saw_mid_dirty}); the test is not exercising the frozen-hit path"
    );
}

#[test]
fn mismatched_scenario_or_config_is_rejected() {
    let client = ClientConfig::default();
    let emu = Emulator::new(cpu_scenario(5), client, bare_cfg());
    let ckpt = emu.checkpoint_at(SimTime::from_secs(3600.0));

    let other = Emulator::new(cpu_scenario(6), client, bare_cfg());
    assert!(matches!(other.resume(&ckpt), Err(CheckpointError::ScenarioMismatch { .. })));

    let longer = EmulatorConfig { duration: SimDuration::from_hours(30.0), ..Default::default() };
    let other = Emulator::new(cpu_scenario(5), client, longer);
    assert!(matches!(other.resume(&ckpt), Err(CheckpointError::ConfigMismatch(_))));

    let faulty = EmulatorConfig {
        duration: SimDuration::from_hours(18.0),
        faults: FaultConfig::with_failure_rate(0.1),
        ..Default::default()
    };
    let other = Emulator::new(cpu_scenario(5), client, faulty);
    assert!(matches!(other.resume(&ckpt), Err(CheckpointError::ConfigMismatch(_))));

    // A trace is present iff tracing is on, at the capacity it ran with.
    let traced = |trace_capacity| EmulatorConfig { trace_capacity, ..bare_cfg() };
    let other = Emulator::new(cpu_scenario(5), client, traced(100));
    assert!(matches!(other.resume(&ckpt), Err(CheckpointError::ConfigMismatch(_))));
    let traced_ckpt = other.checkpoint_at(SimTime::from_secs(3600.0));
    for cfg in [bare_cfg(), traced(101)] {
        let other = Emulator::new(cpu_scenario(5), client, cfg);
        assert!(matches!(other.resume(&traced_ckpt), Err(CheckpointError::ConfigMismatch(_))));
    }
}

#[test]
fn overflowed_trace_resumes_with_its_drop_count() {
    // A capacity far below the run's decision count: the checkpoint holds
    // a full buffer plus a drop count, and the resumed run keeps dropping
    // from there, exactly as the uninterrupted run did.
    let cfg = EmulatorConfig { trace_capacity: 40, ..observed_cfg() };
    let emu = Emulator::new(cpu_scenario(8), ClientConfig::default(), cfg);
    let straight = emu.run();
    assert!(straight.trace.dropped() > 0, "capacity 40 should overflow in 18 h");
    for hours in [0.5, 9.0, 17.0] {
        let ckpt = emu.checkpoint_at(SimTime::from_secs(hours * 3600.0));
        let parsed = CheckpointState::from_xml_str(&ckpt.to_xml_string()).expect("parse");
        let resumed = emu.resume(&parsed).expect("resume");
        assert_same(&resumed, &straight, &format!("overflowed trace at {hours}h"));
    }
}

#[test]
fn corrupt_checkpoint_documents_error_and_never_panic() {
    let emu = Emulator::new(cpu_scenario(9), ClientConfig::default(), observed_cfg());
    let doc = emu.checkpoint_at(SimTime::from_secs(5.0 * 3600.0)).to_xml_string();

    // Every strict prefix (truncation at any byte on a char boundary)
    // must return Err — the envelope or a required field is incomplete.
    let solid = doc.trim_end();
    for cut in (0..solid.len()).step_by(97).chain([solid.len() - 1]) {
        if !doc.is_char_boundary(cut) {
            continue;
        }
        assert!(
            CheckpointState::from_xml_str(&doc[..cut]).is_err(),
            "truncation at byte {cut} parsed successfully"
        );
    }
    // Whole-document mutations: wrong root, bad version, mangled numbers.
    assert!(CheckpointState::from_xml_str("").is_err());
    assert!(CheckpointState::from_xml_str("<client_state version=\"1\"/>").is_err());
    assert!(doc.contains("version=\"5\""), "format version changed; update this test");
    assert!(
        CheckpointState::from_xml_str(&doc.replacen("version=\"5\"", "version=\"99\"", 1)).is_err()
    );
    // v1 documents predate the RR dirty-tracking state, v2 documents the
    // typed trace, v3 documents the bounded run state (they carry the
    // retired-task history), v4 documents the one-flag RR dirt (they
    // carry a dirt class and a group list); all must be rejected rather
    // than resumed with silently-reset state.
    for old in ["1", "2", "3", "4"] {
        let e = CheckpointState::from_xml_str(&doc.replacen(
            "version=\"5\"",
            &format!("version=\"{old}\""),
            1,
        ))
        .unwrap_err();
        assert!(e.to_string().contains("predates"), "v{old}: {e}");
    }
    // Trace counters that disagree with the stored records are refused.
    assert!(doc.contains("<trace capacity=\"50000\" dropped=\"0\" next_seq=\""));
    let mangled = doc.replacen("dropped=\"0\" next_seq=\"", "dropped=\"0\" next_seq=\"9", 1);
    assert!(CheckpointState::from_xml_str(&mangled).is_err());
    let mangled = doc.replacen("<rec>", "<rec>x", 1);
    assert!(CheckpointState::from_xml_str(&mangled).is_err());
    let mangled = doc.replacen("seed=\"9\"", "seed=\"nine\"", 1);
    assert!(CheckpointState::from_xml_str(&mangled).is_err());
    let mangled = doc.replacen("<queue", "<kueue", 1);
    assert!(CheckpointState::from_xml_str(&mangled).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// For random scenario shapes and a random checkpoint instant, the
    /// full pipeline — checkpoint → serialize → parse → restore → run to
    /// completion — is bit-identical to the uninterrupted run, with
    /// faults and observation both on and off.
    #[test]
    fn random_checkpoint_roundtrips_bit_identically(
        seed in 0u64..1000,
        ncpus in 1u32..4,
        share in 1.0f64..900.0,
        job_secs in 500.0f64..4000.0,
        at_frac in 0.0f64..1.1,
        observed in any::<bool>(),
    ) {
        let scenario = ScenarioBuilder::new(
            format!("ckpt-prop-{seed}"),
            Hardware::cpu_only(ncpus, 1.5e9),
        )
        .seed(seed)
        .avail(AvailSpec {
            host: OnOffSpec::duty_cycle(0.75, SimDuration::from_hours(2.0)),
            user_active: OnOffSpec::AlwaysOff,
            network: OnOffSpec::AlwaysOn,
        })
        .project(ProjectSpec::new(0, "alpha", 100.0).with_app(AppClass::cpu(
            0,
            SimDuration::from_secs(job_secs),
            SimDuration::from_hours(6.0),
        )))
        .project(ProjectSpec::new(1, "beta", share).with_app(AppClass::cpu(
            1,
            SimDuration::from_secs(1100.0),
            SimDuration::from_hours(10.0),
        )))
        .build_unchecked();
        let cfg = if observed {
            EmulatorConfig { duration: SimDuration::from_hours(12.0), ..observed_cfg() }
        } else {
            EmulatorConfig { duration: SimDuration::from_hours(12.0), ..Default::default() }
        };
        let emu = Emulator::new(scenario, ClientConfig::default(), cfg);
        let straight = emu.run();
        let at = SimTime::from_secs(at_frac * 12.0 * 3600.0);
        let ckpt = emu.checkpoint_at(at);
        let doc = ckpt.to_xml_string();
        let parsed = CheckpointState::from_xml_str(&doc).expect("parse");
        let resumed = emu.resume(&parsed).expect("resume");
        prop_assert_eq!(resumed.bit_fingerprint(), straight.bit_fingerprint());
    }
}
