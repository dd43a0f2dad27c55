//! JSONL trace export.
//!
//! Each [`TraceRecord`] becomes one flat JSON object per line:
//!
//! ```json
//! {"seq":4,"t":3600,"component":"fetch","kind":"rpc_reply","project":1,"cpu_secs":8640,"gpu_secs":0,"jobs":3}
//! ```
//!
//! The schema is intentionally flat — every variant's fields appear as
//! top-level keys next to `seq`/`t`/`component`/`kind` — so downstream
//! tools (jq, a spreadsheet, the CI smoke check) need no nested-path
//! handling. The workspace has no serde, so the writer is hand-rolled
//! against exactly this schema. The program never reads a trace back:
//! the per-kind test below pins each line byte for byte, and the tests
//! here and in `tests/trace_roundtrip.rs` decode written lines through
//! the test decoder `tests/support/trace_decode.rs`, built on
//! `bce_statefile::json`, and check they come back unchanged.
use crate::trace::{TraceEvent, TraceRecord};
use bce_types::JobId;
use std::fmt::Write as _;

/// Format an `f64` as a JSON number. Rust's `Display` already produces
/// the shortest representation that round-trips, which is what we want
/// for byte-stable output; non-finite values (never produced by the
/// emulator) degrade to `null`.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn push_ids(s: &mut String, key: &str, ids: &[JobId]) {
    let _ = write!(s, "\"{key}\":[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}", id.0);
    }
    s.push(']');
}

/// Serialize one record as a single JSON line (no trailing newline).
pub fn record_to_json(r: &TraceRecord) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"seq\":{},\"t\":{},\"component\":\"{}\",\"kind\":\"{}\",",
        r.seq,
        json_f64(r.t.secs()),
        r.event.component(),
        r.event.kind()
    );
    match &r.event {
        TraceEvent::Scheduled { started, preempted } => {
            push_ids(&mut s, "started", started);
            s.push(',');
            push_ids(&mut s, "preempted", preempted);
        }
        TraceEvent::JobFinished { job, project, met_deadline } => {
            let _ = write!(
                s,
                "\"job\":{},\"project\":{},\"met_deadline\":{}",
                job.0, project.0, met_deadline
            );
        }
        TraceEvent::JobErrored { job, project } => {
            let _ = write!(s, "\"job\":{},\"project\":{}", job.0, project.0);
        }
        TraceEvent::RpcReply { project, cpu_secs, gpu_secs, jobs } => {
            let _ = write!(
                s,
                "\"project\":{},\"cpu_secs\":{},\"gpu_secs\":{},\"jobs\":{}",
                project.0,
                json_f64(*cpu_secs),
                json_f64(*gpu_secs),
                jobs
            );
        }
        TraceEvent::RpcDown { project } | TraceEvent::RpcLost { project } => {
            let _ = write!(s, "\"project\":{}", project.0);
        }
        TraceEvent::FetchDeferred { project, until } => {
            let _ = write!(s, "\"project\":{},\"until\":{}", project.0, json_f64(until.secs()));
        }
        TraceEvent::AvailChanged { can_compute, can_gpu, net_up } => {
            let _ = write!(
                s,
                "\"can_compute\":{can_compute},\"can_gpu\":{can_gpu},\"net_up\":{net_up}"
            );
        }
        TraceEvent::TransferFailed { job, upload } => {
            let _ = write!(s, "\"job\":{},\"upload\":{}", job.0, upload);
        }
        TraceEvent::Crashed { tasks_rolled_back, exec_secs_lost, transfers_restarted } => {
            let _ = write!(
                s,
                "\"tasks_rolled_back\":{},\"exec_secs_lost\":{},\"transfers_restarted\":{}",
                tasks_rolled_back,
                json_f64(*exec_secs_lost),
                transfers_restarted
            );
        }
        TraceEvent::Recovered { secs } => {
            let _ = write!(s, "\"secs\":{}", json_f64(*secs));
        }
    }
    s.push('}');
    s
}

/// Serialize a whole run as JSONL (one record per line, trailing newline
/// after the last line iff any records exist).
pub fn to_jsonl<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&record_to_json(r));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_statefile::parse_json;
    use bce_types::{ProjectId, SimTime};

    mod trace_decode {
        include!("../../../tests/support/trace_decode.rs");
    }
    use trace_decode::{decode, decode_jsonl};

    #[test]
    fn every_kind_writes_its_golden_line() {
        let p = ProjectId(1);
        let cases = [
            (
                TraceEvent::Scheduled {
                    started: vec![JobId(3), JobId(1 << 40)],
                    preempted: vec![],
                },
                r#""kind":"scheduled","started":[3,1099511627776],"preempted":[]}"#,
            ),
            (
                TraceEvent::JobFinished { job: JobId(3), project: p, met_deadline: false },
                r#""kind":"job_finished","job":3,"project":1,"met_deadline":false}"#,
            ),
            (
                TraceEvent::JobErrored { job: JobId(3), project: p },
                r#""kind":"job_errored","job":3,"project":1}"#,
            ),
            (
                TraceEvent::RpcReply { project: p, cpu_secs: 8640.25, gpu_secs: 0.0, jobs: 3 },
                r#""kind":"rpc_reply","project":1,"cpu_secs":8640.25,"gpu_secs":0,"jobs":3}"#,
            ),
            (TraceEvent::RpcDown { project: p }, r#""kind":"rpc_down","project":1}"#),
            (TraceEvent::RpcLost { project: p }, r#""kind":"rpc_lost","project":1}"#),
            (
                TraceEvent::FetchDeferred { project: p, until: SimTime::from_secs(7200.0) },
                r#""kind":"fetch_deferred","project":1,"until":7200}"#,
            ),
            (
                TraceEvent::AvailChanged { can_compute: true, can_gpu: false, net_up: true },
                r#""kind":"avail_changed","can_compute":true,"can_gpu":false,"net_up":true}"#,
            ),
            (
                TraceEvent::TransferFailed { job: JobId(3), upload: false },
                r#""kind":"transfer_failed","job":3,"upload":false}"#,
            ),
            (
                TraceEvent::Crashed {
                    tasks_rolled_back: 2,
                    exec_secs_lost: 99.6,
                    transfers_restarted: 1,
                },
                r#""kind":"crashed","tasks_rolled_back":2,"exec_secs_lost":99.6,"transfers_restarted":1}"#,
            ),
            (TraceEvent::Recovered { secs: 12.0 }, r#""kind":"recovered","secs":12}"#),
        ];
        assert_eq!(cases.len(), TraceEvent::KINDS.len());
        let mut records = Vec::new();
        let mut expected = String::new();
        for (seq, (event, tail)) in (4..).zip(cases) {
            let line =
                format!(r#"{{"seq":{seq},"t":3600.5,"component":"{}",{tail}"#, event.component());
            let r = TraceRecord { seq, t: SimTime::from_secs(3600.5), event };
            assert_eq!(record_to_json(&r), line);
            expected.push_str(&line);
            expected.push('\n');
            records.push(r);
        }
        // One line per record, each newline-terminated; nothing for none.
        assert_eq!(to_jsonl(&records), expected);
        assert_eq!(to_jsonl(&[]), "");
    }

    #[test]
    fn record_round_trips() {
        let r = TraceRecord {
            seq: 7,
            t: SimTime::from_secs(3600.5),
            event: TraceEvent::RpcReply {
                project: ProjectId(2),
                cpu_secs: 8640.25,
                gpu_secs: 0.0,
                jobs: 3,
            },
        };
        let line = record_to_json(&r);
        assert!(line.contains("\"kind\":\"rpc_reply\""));
        assert!(line.contains("\"component\":\"fetch\""));
        assert_eq!(decode(&line), Ok(r));
    }

    #[test]
    fn jsonl_round_trips_multiple_records() {
        let records = vec![
            TraceRecord {
                seq: 0,
                t: SimTime::from_secs(0.0),
                event: TraceEvent::Scheduled {
                    started: vec![JobId(1), JobId(2)],
                    preempted: vec![],
                },
            },
            TraceRecord {
                seq: 1,
                t: SimTime::from_secs(10.0),
                event: TraceEvent::AvailChanged { can_compute: true, can_gpu: false, net_up: true },
            },
        ];
        let doc = to_jsonl(&records);
        assert_eq!(doc.lines().count(), 2);
        assert_eq!(decode_jsonl(&doc), Ok(records));
    }

    #[test]
    fn parse_rejects_wrong_component() {
        let good = r#"{"seq":0,"t":1,"component":"fault","kind":"recovered","secs":5}"#;
        let wrong = r#"{"seq":0,"t":1,"component":"sched","kind":"rpc_down","project":0}"#;
        assert!(decode(wrong).unwrap_err().contains("does not match"));
        let e = decode_jsonl(&format!("{good}\n{good}\n{wrong}\n")).unwrap_err();
        assert!(e.starts_with("line 3: "), "{e}");
        assert!(e.contains("does not match"), "{e}");
    }

    #[test]
    fn parse_rejects_missing_field_and_unknown_kind() {
        assert!(decode(r#"{"seq":0,"t":1,"component":"fetch","kind":"rpc_down"}"#)
            .unwrap_err()
            .contains("missing field \"project\""));
        assert!(decode(r#"{"seq":0,"t":1,"component":"x","kind":"nope"}"#)
            .unwrap_err()
            .contains("unknown kind"));
    }

    #[test]
    fn integer_fields_round_trip_above_f64_precision() {
        // Job ids carry the project's slot above bit 40; the writer prints
        // them, and `seq`, as exact digits, never through an f64.
        let big = (43_981u64 << 40) | 12_345;
        let r = TraceRecord {
            seq: u64::MAX,
            t: SimTime::from_secs(1.0),
            event: TraceEvent::Scheduled { started: vec![JobId(big)], preempted: vec![JobId(1)] },
        };
        assert_eq!(
            record_to_json(&r),
            r#"{"seq":18446744073709551615,"t":1,"component":"sched","kind":"scheduled","started":[48357620901228601],"preempted":[1]}"#
        );
    }

    #[test]
    fn json_f64_shortest_round_trip() {
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(86400.0), "86400");
        assert_eq!(json_f64(f64::NAN), "null");
        let v = 1.0 / 3.0;
        assert_eq!(json_f64(v).parse::<f64>().unwrap(), v);
    }
}
