//! JSONL trace export and (re-)import.
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
//! handling. The workspace has no serde; the writer and the parser here
//! are hand-rolled against exactly this schema, and the round-trip is
//! property-tested (`tests/trace_roundtrip.rs`).

use crate::trace::{TraceEvent, TraceRecord};
use bce_types::{JobId, ProjectId, SimTime};
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

/// Error from `parse_record` / [`parse_jsonl`], with enough context to
/// point at the offending line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParseError {
    pub(crate) line: usize,
    pub(crate) message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// A parsed value. Numbers keep their source text so integer fields
/// (`seq`, job ids, which carry the project's slot in bits above 2^40) parse
/// exactly as `u64` instead of through a lossy `f64`.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Num(String),
    Bool(bool),
    Str(String),
    Arr(Vec<String>),
}

/// Minimal parser for the flat objects this module writes: string keys;
/// number, bool, string or number-array values. Not a general JSON
/// parser and not meant to be one.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Val)>, String> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && (bytes[*i] as char).is_whitespace() {
            *i += 1;
        }
    };
    let expect = |i: &mut usize, c: u8| -> Result<(), String> {
        if *i < bytes.len() && bytes[*i] == c {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, i))
        }
    };
    fn parse_string(bytes: &[u8], i: &mut usize) -> Result<String, String> {
        if *i >= bytes.len() || bytes[*i] != b'"' {
            return Err(format!("expected string at byte {i}"));
        }
        *i += 1;
        let start = *i;
        while *i < bytes.len() && bytes[*i] != b'"' {
            if bytes[*i] == b'\\' {
                return Err("escape sequences are not part of the trace schema".to_string());
            }
            *i += 1;
        }
        if *i >= bytes.len() {
            return Err("unterminated string".to_string());
        }
        let s = std::str::from_utf8(&bytes[start..*i])
            .map_err(|_| "invalid utf-8 in string".to_string())?
            .to_string();
        *i += 1;
        Ok(s)
    }
    fn parse_number(bytes: &[u8], i: &mut usize) -> Result<String, String> {
        let start = *i;
        while *i < bytes.len()
            && matches!(bytes[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *i += 1;
        }
        std::str::from_utf8(&bytes[start..*i])
            .ok()
            .filter(|s| s.parse::<f64>().is_ok())
            .map(str::to_string)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    skip_ws(&mut i);
    expect(&mut i, b'{')?;
    skip_ws(&mut i);
    if i < bytes.len() && bytes[i] == b'}' {
        return Ok(out);
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(bytes, &mut i)?;
        skip_ws(&mut i);
        expect(&mut i, b':')?;
        skip_ws(&mut i);
        let val = match bytes.get(i) {
            Some(b'"') => Val::Str(parse_string(bytes, &mut i)?),
            Some(b't') if line[i..].starts_with("true") => {
                i += 4;
                Val::Bool(true)
            }
            Some(b'f') if line[i..].starts_with("false") => {
                i += 5;
                Val::Bool(false)
            }
            Some(b'n') if line[i..].starts_with("null") => {
                i += 4;
                Val::Num("0".to_string())
            }
            Some(b'[') => {
                i += 1;
                let mut arr = Vec::new();
                skip_ws(&mut i);
                if i < bytes.len() && bytes[i] == b']' {
                    i += 1;
                } else {
                    loop {
                        skip_ws(&mut i);
                        arr.push(parse_number(bytes, &mut i)?);
                        skip_ws(&mut i);
                        match bytes.get(i) {
                            Some(b',') => i += 1,
                            Some(b']') => {
                                i += 1;
                                break;
                            }
                            _ => return Err(format!("expected ',' or ']' at byte {i}")),
                        }
                    }
                }
                Val::Arr(arr)
            }
            _ => Val::Num(parse_number(bytes, &mut i)?),
        };
        out.push((key, val));
        skip_ws(&mut i);
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                break;
            }
            _ => return Err(format!("expected ',' or '}}' at byte {i}")),
        }
    }
    skip_ws(&mut i);
    if i != bytes.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(out)
}

/// An exact `u64` from a JSON number token. Only the plain digits this
/// module writes are accepted, so `1.5`, `-1` and `1e3` are refused.
fn parse_u64(raw: &str) -> Option<u64> {
    raw.bytes().all(|b| b.is_ascii_digit()).then(|| raw.parse().ok()).flatten()
}

struct Fields(Vec<(String, Val)>);

impl Fields {
    fn raw_num(&self, key: &str) -> Result<&str, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, Val::Num(v))) => Ok(v),
            Some(_) => Err(format!("field '{key}' is not a number")),
            None => Err(format!("missing field '{key}'")),
        }
    }
    fn num(&self, key: &str) -> Result<f64, String> {
        // `parse_number` only admits text that parses as f64.
        Ok(self.raw_num(key)?.parse().expect("validated number"))
    }
    fn u64(&self, key: &str) -> Result<u64, String> {
        parse_u64(self.raw_num(key)?)
            .ok_or_else(|| format!("field '{key}' is not a non-negative integer"))
    }
    fn boolean(&self, key: &str) -> Result<bool, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, Val::Bool(v))) => Ok(*v),
            Some(_) => Err(format!("field '{key}' is not a bool")),
            None => Err(format!("missing field '{key}'")),
        }
    }
    fn str(&self, key: &str) -> Result<&str, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, Val::Str(v))) => Ok(v),
            Some(_) => Err(format!("field '{key}' is not a string")),
            None => Err(format!("missing field '{key}'")),
        }
    }
    fn job_ids(&self, key: &str) -> Result<Vec<JobId>, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, Val::Arr(v))) => v
                .iter()
                .map(|n| parse_u64(n).map(JobId))
                .collect::<Option<_>>()
                .ok_or_else(|| format!("field '{key}' holds a non-integer")),
            Some(_) => Err(format!("field '{key}' is not an array")),
            None => Err(format!("missing field '{key}'")),
        }
    }
    fn job(&self, key: &str) -> Result<JobId, String> {
        Ok(JobId(self.u64(key)?))
    }
    fn project(&self, key: &str) -> Result<ProjectId, String> {
        Ok(ProjectId(self.u64(key)? as u32))
    }
}

/// Parse one JSONL line back into a [`TraceRecord`]. `line_no` is used
/// only for error reporting.
pub(crate) fn parse_record(line: &str, line_no: usize) -> Result<TraceRecord, TraceParseError> {
    let err = |message: String| TraceParseError { line: line_no, message };
    let f = Fields(parse_flat_object(line).map_err(&err)?);
    let kind = f.str("kind").map_err(&err)?.to_string();
    let event = match kind.as_str() {
        "scheduled" => TraceEvent::Scheduled {
            started: f.job_ids("started").map_err(&err)?,
            preempted: f.job_ids("preempted").map_err(&err)?,
        },
        "job_finished" => TraceEvent::JobFinished {
            job: f.job("job").map_err(&err)?,
            project: f.project("project").map_err(&err)?,
            met_deadline: f.boolean("met_deadline").map_err(&err)?,
        },
        "job_errored" => TraceEvent::JobErrored {
            job: f.job("job").map_err(&err)?,
            project: f.project("project").map_err(&err)?,
        },
        "rpc_reply" => TraceEvent::RpcReply {
            project: f.project("project").map_err(&err)?,
            cpu_secs: f.num("cpu_secs").map_err(&err)?,
            gpu_secs: f.num("gpu_secs").map_err(&err)?,
            jobs: f.u64("jobs").map_err(&err)?,
        },
        "rpc_down" => TraceEvent::RpcDown { project: f.project("project").map_err(&err)? },
        "rpc_lost" => TraceEvent::RpcLost { project: f.project("project").map_err(&err)? },
        "fetch_deferred" => TraceEvent::FetchDeferred {
            project: f.project("project").map_err(&err)?,
            until: SimTime::from_secs(f.num("until").map_err(&err)?),
        },
        "avail_changed" => TraceEvent::AvailChanged {
            can_compute: f.boolean("can_compute").map_err(&err)?,
            can_gpu: f.boolean("can_gpu").map_err(&err)?,
            net_up: f.boolean("net_up").map_err(&err)?,
        },
        "transfer_failed" => TraceEvent::TransferFailed {
            job: f.job("job").map_err(&err)?,
            upload: f.boolean("upload").map_err(&err)?,
        },
        "crashed" => TraceEvent::Crashed {
            tasks_rolled_back: f.u64("tasks_rolled_back").map_err(&err)?,
            exec_secs_lost: f.num("exec_secs_lost").map_err(&err)?,
            transfers_restarted: f.u64("transfers_restarted").map_err(&err)?,
        },
        "recovered" => TraceEvent::Recovered { secs: f.num("secs").map_err(&err)? },
        other => return Err(err(format!("unknown kind '{other}'"))),
    };
    let component = f.str("component").map_err(&err)?;
    if component != event.component() {
        return Err(err(format!(
            "component '{component}' does not match kind '{kind}' (expected '{}')",
            event.component()
        )));
    }
    Ok(TraceRecord {
        seq: f.u64("seq").map_err(&err)?,
        t: SimTime::from_secs(f.num("t").map_err(&err)?),
        event,
    })
}

/// Parse a whole JSONL document (blank lines ignored).
pub fn parse_jsonl(s: &str) -> Result<Vec<TraceRecord>, TraceParseError> {
    s.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_record(l, i + 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let back = parse_record(&line, 1).unwrap();
        assert_eq!(back, r);
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
        assert_eq!(parse_jsonl(&doc).unwrap(), records);
    }

    #[test]
    fn parse_rejects_wrong_component() {
        let line = r#"{"seq":0,"t":1,"component":"sched","kind":"rpc_down","project":0}"#;
        let e = parse_record(line, 3).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("does not match"));
    }

    #[test]
    fn parse_rejects_missing_field_and_unknown_kind() {
        assert!(parse_record(r#"{"seq":0,"t":1,"component":"fetch","kind":"rpc_down"}"#, 1)
            .unwrap_err()
            .message
            .contains("missing field 'project'"));
        assert!(parse_record(r#"{"seq":0,"t":1,"component":"x","kind":"nope"}"#, 1)
            .unwrap_err()
            .message
            .contains("unknown kind"));
    }

    #[test]
    fn parse_ignores_blank_lines() {
        let doc =
            "\n{\"seq\":0,\"t\":2,\"component\":\"fault\",\"kind\":\"recovered\",\"secs\":5}\n\n";
        let recs = parse_jsonl(doc).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].event, TraceEvent::Recovered { secs: 5.0 });
    }

    #[test]
    fn integer_fields_round_trip_above_f64_precision() {
        // Job ids carry the project's slot above bit 40; an f64 detour would
        // round ids past 2^53.
        let big = (43_981u64 << 40) | 12_345;
        let r = TraceRecord {
            seq: u64::MAX,
            t: SimTime::from_secs(1.0),
            event: TraceEvent::Scheduled { started: vec![JobId(big)], preempted: vec![JobId(1)] },
        };
        assert_eq!(parse_record(&record_to_json(&r), 1).unwrap(), r);
        let fractional = r#"{"seq":1.5,"t":1,"component":"fault","kind":"recovered","secs":5}"#;
        assert!(parse_record(fractional, 1).unwrap_err().message.contains("'seq'"));
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
