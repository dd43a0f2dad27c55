//! Trace-schema round-trip: events emitted by a real emulation, exported
//! as JSONL, must decode back to exactly the records that were emitted.
//! This is the contract `bce trace --jsonl` (and any external consumer of
//! the trace files) relies on. The program itself never reads a trace, so
//! the decoder is a test helper, `support/trace_decode.rs`, on the
//! workspace's one JSON reader.

use boinc_policy_emu::client::ClientConfig;
use boinc_policy_emu::core::{Emulator, EmulatorConfig, FaultConfig, TraceEvent};
use boinc_policy_emu::obs::{record_to_json, to_jsonl, TraceRecord};
use boinc_policy_emu::scenarios::{scenario1, scenario2};
use boinc_policy_emu::statefile::parse_json;
use boinc_policy_emu::types::{JobId, ProjectId, SimDuration, SimTime};

#[path = "support/trace_decode.rs"]
mod trace_decode;
use trace_decode::{decode, decode_jsonl, EXACT_BELOW};

fn decode_all(jsonl: &str) -> Vec<TraceRecord> {
    decode_jsonl(jsonl).expect("export must decode")
}

fn traced_cfg(days: f64) -> EmulatorConfig {
    EmulatorConfig {
        duration: SimDuration::from_days(days),
        trace_capacity: 1_000_000,
        ..Default::default()
    }
}

#[test]
fn emitted_trace_round_trips_through_jsonl() {
    let r = Emulator::new(scenario2(), ClientConfig::default(), traced_cfg(1.0)).run();
    let records = r.trace.records();
    assert!(!records.is_empty(), "a day of scenario2 must trace something");
    assert_eq!(r.trace.dropped(), 0, "capacity must hold the whole run");

    let parsed = decode_all(&to_jsonl(records));
    assert_eq!(parsed.len(), records.len());
    for (a, b) in parsed.iter().zip(records) {
        assert_eq!(a, b, "JSONL round-trip must be lossless");
    }
}

#[test]
fn fault_events_round_trip_too() {
    // Crashes/recoveries/lost RPCs/transfer failures only appear under
    // fault injection; make sure those schema variants round-trip as well.
    let mut faults = FaultConfig::with_failure_rate(0.2);
    faults.crash_mtbf = Some(SimDuration::from_hours(4.0));
    let cfg = EmulatorConfig { faults, ..traced_cfg(1.0) };
    let r = Emulator::new(scenario2(), ClientConfig::default(), cfg).run();
    let kinds: std::collections::BTreeSet<&str> =
        r.trace.records().iter().map(|rec| rec.event.kind()).collect();
    assert!(kinds.contains("rpc_lost"), "kinds seen: {kinds:?}");
    assert!(kinds.contains("crashed"), "kinds seen: {kinds:?}");

    let parsed = decode_all(&to_jsonl(r.trace.records()));
    assert_eq!(parsed.len(), r.trace.len());
    for (a, b) in parsed.iter().zip(r.trace.records()) {
        assert_eq!(a, b);
    }
}

#[test]
fn every_kind_round_trips() {
    let (job, p) = (JobId((3 << 40) | 17), ProjectId(3));
    let events = [
        TraceEvent::Scheduled {
            started: vec![job, JobId(EXACT_BELOW as u64 - 1)],
            preempted: vec![],
        },
        TraceEvent::JobFinished { job, project: p, met_deadline: true },
        TraceEvent::JobErrored { job, project: p },
        TraceEvent::RpcReply { project: p, cpu_secs: 8640.25, gpu_secs: 0.1, jobs: 3 },
        TraceEvent::RpcDown { project: p },
        TraceEvent::RpcLost { project: ProjectId(u32::MAX) },
        TraceEvent::FetchDeferred { project: p, until: SimTime::from_secs(7200.5) },
        TraceEvent::AvailChanged { can_compute: false, can_gpu: true, net_up: false },
        TraceEvent::TransferFailed { job, upload: true },
        TraceEvent::Crashed {
            tasks_rolled_back: 2,
            exec_secs_lost: 1.0 / 3.0,
            transfers_restarted: 1,
        },
        TraceEvent::Recovered { secs: 12.0 },
    ];
    let kinds: std::collections::BTreeSet<&str> = events.iter().map(TraceEvent::kind).collect();
    assert_eq!(kinds.len(), TraceEvent::KINDS.len(), "one event per kind");
    for (seq, event) in (0..).zip(events) {
        let r = TraceRecord { seq, t: SimTime::from_secs(3600.0 + seq as f64 / 7.0), event };
        assert_eq!(decode(&record_to_json(&r)), Ok(r));
    }
}

#[test]
fn decode_refuses_inexact_integers_and_malformed_records() {
    let line = |seq: &str| {
        format!(r#"{{"seq":{seq},"t":1,"component":"fault","kind":"recovered","secs":5}}"#)
    };
    assert!(decode(&line("9007199254740991")).is_ok());
    for seq in ["9007199254740993", "9007199254740992", "1.5", "-1"] {
        let err = decode(&line(seq)).unwrap_err();
        assert!(err.contains("\"seq\""), "{seq}: {err}");
    }
    let big_id = r#"{"seq":0,"t":1,"component":"xfer","kind":"transfer_failed","job":9007199254740993,"upload":true}"#;
    assert!(decode(big_id).unwrap_err().contains("\"job\""));
    let fractional_id =
        r#"{"seq":0,"t":1,"component":"sched","kind":"scheduled","started":[1.5],"preempted":[]}"#;
    assert!(decode(fractional_id).unwrap_err().contains("\"started\""));
    let wrong = r#"{"seq":0,"t":1,"component":"sched","kind":"rpc_down","project":0}"#;
    assert!(decode(wrong).unwrap_err().contains("does not match"));
    let missing = r#"{"seq":0,"t":1,"component":"fetch","kind":"rpc_down"}"#;
    assert!(decode(missing).unwrap_err().contains("missing field \"project\""));
    let unknown = r#"{"seq":0,"t":1,"component":"x","kind":"nope"}"#;
    assert!(decode(unknown).unwrap_err().contains("unknown kind"));
}

#[test]
fn trace_schema_fields_are_wellformed() {
    let r = Emulator::new(
        scenario1(SimDuration::from_secs(1500.0)),
        ClientConfig::default(),
        traced_cfg(0.5),
    )
    .run();
    let mut last: Option<&TraceRecord> = None;
    for rec in r.trace.records() {
        // Sequence numbers strictly increase; time never runs backwards.
        if let Some(prev) = last {
            assert!(rec.seq > prev.seq, "seq must be strictly increasing");
            assert!(rec.t >= prev.t, "time must not run backwards");
        }
        last = Some(rec);
        assert!(TraceEvent::KINDS.contains(&rec.event.kind()));
        assert!(TraceEvent::COMPONENTS.contains(&rec.event.component()));
        // Every line is a flat JSON object carrying the closed schema.
        let line = record_to_json(rec);
        assert!(line.starts_with("{\"seq\":"), "{line}");
        assert!(line.contains(&format!("\"kind\":\"{}\"", rec.event.kind())), "{line}");
        assert!(line.contains(&format!("\"component\":\"{}\"", rec.event.component())), "{line}");
    }
}
