// The test decoder for trace JSONL: reads each line written by
// `bce_obs::record_to_json` back into a `TraceRecord`, on the workspace's
// one JSON reader. The program itself never reads a trace, so this lives
// with the tests. `tests/trace_roundtrip.rs` declares it as a module and
// the `bce-obs` export unit tests `include!` it; each brings the names
// below into scope in the enclosing module. (Plain comments, not `//!`:
// `include!` does not accept inner attributes.)

use super::{parse_json, JobId, ProjectId, SimTime, TraceEvent, TraceRecord};

/// `JsonValue::Num` is an `f64`, which holds every integer below 2^53
/// exactly. 2^53 itself is refused too: `9007199254740993` reads as 2^53.
/// Job ids carry the project's position above bit 40, so a trace decodes
/// exactly only with fewer than 8 192 projects.
pub(super) const EXACT_BELOW: f64 = 9_007_199_254_740_992.0;

fn exact_u64(n: f64) -> Option<u64> {
    ((0.0..EXACT_BELOW).contains(&n) && n.fract() == 0.0).then_some(n as u64)
}

/// Decode one JSONL line written by `record_to_json`.
pub(super) fn decode(line: &str) -> Result<TraceRecord, String> {
    let v = parse_json(line).map_err(|e| e.to_string())?;
    let field = |key: &str| v.get(key).ok_or_else(|| format!("missing field {key:?}"));
    let num = |key: &str| field(key)?.as_f64().ok_or_else(|| format!("{key:?} is not a number"));
    let int = |key: &str| {
        exact_u64(num(key)?).ok_or_else(|| format!("{key:?} is not an integer below 2^53"))
    };
    let flag = |key: &str| field(key)?.as_bool().ok_or_else(|| format!("{key:?} is not a bool"));
    let text = |key: &str| field(key)?.as_str().ok_or_else(|| format!("{key:?} is not a string"));
    let job = |key: &str| int(key).map(JobId);
    let project = |key: &str| {
        let p = int(key)?;
        u32::try_from(p).map(ProjectId).map_err(|_| format!("{key:?} {p} is not a project id"))
    };
    let ids = |key: &str| -> Result<Vec<JobId>, String> {
        let arr = field(key)?.as_arr().ok_or_else(|| format!("{key:?} is not an array"))?;
        arr.iter()
            .map(|x| x.as_f64().and_then(exact_u64).map(JobId))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("{key:?} holds a value that is not an integer below 2^53"))
    };

    let kind = text("kind")?;
    let event = match kind {
        "scheduled" => {
            TraceEvent::Scheduled { started: ids("started")?, preempted: ids("preempted")? }
        }
        "job_finished" => TraceEvent::JobFinished {
            job: job("job")?,
            project: project("project")?,
            met_deadline: flag("met_deadline")?,
        },
        "job_errored" => TraceEvent::JobErrored { job: job("job")?, project: project("project")? },
        "rpc_reply" => TraceEvent::RpcReply {
            project: project("project")?,
            cpu_secs: num("cpu_secs")?,
            gpu_secs: num("gpu_secs")?,
            jobs: int("jobs")?,
        },
        "rpc_down" => TraceEvent::RpcDown { project: project("project")? },
        "rpc_lost" => TraceEvent::RpcLost { project: project("project")? },
        "fetch_deferred" => TraceEvent::FetchDeferred {
            project: project("project")?,
            until: SimTime::from_secs(num("until")?),
        },
        "avail_changed" => TraceEvent::AvailChanged {
            can_compute: flag("can_compute")?,
            can_gpu: flag("can_gpu")?,
            net_up: flag("net_up")?,
        },
        "transfer_failed" => {
            TraceEvent::TransferFailed { job: job("job")?, upload: flag("upload")? }
        }
        "crashed" => TraceEvent::Crashed {
            tasks_rolled_back: int("tasks_rolled_back")?,
            exec_secs_lost: num("exec_secs_lost")?,
            transfers_restarted: int("transfers_restarted")?,
        },
        "recovered" => TraceEvent::Recovered { secs: num("secs")? },
        other => return Err(format!("unknown kind {other:?}")),
    };
    let component = text("component")?;
    if component != event.component() {
        return Err(format!("component {component:?} does not match kind {kind:?}"));
    }
    Ok(TraceRecord { seq: int("seq")?, t: SimTime::from_secs(num("t")?), event })
}

/// Decode a whole JSONL document, one record per line. An error names the
/// 1-based line it was found on.
pub(super) fn decode_jsonl(doc: &str) -> Result<Vec<TraceRecord>, String> {
    (1..)
        .zip(doc.lines())
        .map(|(n, line)| decode(line).map_err(|e| format!("line {n}: {e}")))
        .collect()
}
