//! End-to-end daemon tests over real sockets: observability endpoints,
//! load shedding under a concurrent burst, deadline parking, graceful
//! drain, and bit-identical resume across a daemon restart.

use bce_controller::{population_header, run_manifest, CampaignManifest, CampaignOptions};
use bce_serve::{ServeConfig, ServeSummary, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn test_cfg(checkpoint_dir: PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 8,
        checkpoint_dir,
        ..ServeConfig::default()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bce-serve-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(cfg: ServeConfig) -> (SocketAddr, ServerHandle, JoinHandle<ServeSummary>) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// Fire one raw request, read the whole response, split it into
/// (status, headers, body).
fn send(addr: SocketAddr, raw: &str) -> (u16, Vec<(String, String)>, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(600))).unwrap();
    s.write_all(raw.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8_lossy(&buf).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line.split_whitespace().nth(1).expect("code").parse().expect("code");
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    send(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    send(addr, &format!("POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

/// The non-comment part of a campaign/population report (what the CI
/// smoke job diffs).
fn table_of(body: &str) -> String {
    body.lines().filter(|l| !l.starts_with("# ")).collect::<Vec<_>>().join("\n")
}

#[test]
fn observability_run_and_drain_end_to_end() {
    let dir = scratch_dir("obs");
    let (addr, handle, join) = start(test_cfg(dir.clone()));

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _, _) = get(addr, "/readyz");
    assert_eq!(status, 200);

    // No trace before the first run.
    let (status, _, _) = get(addr, "/trace");
    assert_eq!(status, 404);

    // One supervised run; the response carries the bit fingerprint.
    let (status, _, body) = post(addr, "/run?scenario=scenario2&days=0.5&seed=42");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("# fingerprint: "), "{body}");

    // Determinism through the full HTTP stack: same request, same bytes.
    let (_, _, again) = post(addr, "/run?scenario=scenario2&days=0.5&seed=42");
    assert_eq!(body, again);

    // The run populated /trace and the counters. (That the trace is the
    // whole recorded trace of an in-process run of the same request is
    // checked by the handlers' unit test, which sees the daemon's trace
    // capacity.)
    let (status, _, trace) = get(addr, "/trace");
    assert_eq!(status, 200);
    assert!(trace.lines().count() > 0);
    let (status, _, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("serve.runs_completed"), "{metrics}");
    // Emulation perf counters accumulate into the daemon registry: two
    // runs of the same scenario ran some RR simulations.
    assert!(metrics.contains("emulation.rr_runs"), "{metrics}");
    assert!(metrics.contains("emulation.rr_frozen"), "{metrics}");
    assert!(metrics.contains("emulation.flaps_coalesced"), "{metrics}");

    // Typed 4xx for bad input, not a wedged or dead worker.
    let (status, _, _) = post(addr, "/run?scenario=nope");
    assert_eq!(status, 400);
    let (status, _, _) = post(addr, "/run?scenario=scenario2&days=1e9");
    assert_eq!(status, 422);
    let (status, _, _) = get(addr, "/nothing-here");
    assert_eq!(status, 404);
    let (status, _, _) = send(addr, "DELETE /run HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);

    // Drain: run() returns; readyz during drain is covered by the shed
    // contract (new connections are refused at admission).
    handle.drain();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.workers_abandoned, 0);
    assert!(drained(&summary, "accepted") >= 8, "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn burst_is_shed_with_retry_after_and_admitted_work_is_uncorrupted() {
    let dir = scratch_dir("shed");
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1, // capacity 2: one running + one queued
        ..test_cfg(dir.clone())
    };
    let (addr, handle, join) = start(cfg);

    // A burst far over capacity, all identical deterministic requests.
    let clients: Vec<_> = (0..24)
        .map(|_| std::thread::spawn(move || post(addr, "/run?scenario=scenario2&days=2&seed=9")))
        .collect();
    let results: Vec<_> = clients.into_iter().map(|c| c.join().expect("client")).collect();

    let ok: Vec<&String> =
        results.iter().filter(|(s, _, _)| *s == 200).map(|(_, _, b)| b).collect();
    let shed: Vec<_> = results.iter().filter(|(s, _, _)| *s == 503).collect();
    assert_eq!(ok.len() + shed.len(), results.len(), "only 200 or 503 may escape a burst");
    assert!(!ok.is_empty(), "at least some of the burst must be admitted");
    assert!(!shed.is_empty(), "24 clients against capacity 2 must shed");

    // Every shed response carries the retry contract; every admitted
    // response is bit-identical — overload never corrupts in-flight runs.
    for (_, headers, _) in &shed {
        assert_eq!(header(headers, "retry-after"), Some("1"));
    }
    for body in &ok {
        assert_eq!(*body, ok[0], "admitted runs must stay deterministic under shedding");
    }

    handle.drain();
    join.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn body_limit_sized_json_string_is_rejected_promptly_and_the_worker_serves_on() {
    let dir = scratch_dir("hostile");
    let cfg = ServeConfig { workers: 1, ..test_cfg(dir.clone()) };
    let limit = cfg.max_body_bytes;
    let (addr, handle, join) = start(cfg);

    // One JSON string filling the whole body: parse time is the only cost,
    // so it must be linear for the 422 to come back quickly.
    let (open, close) = ("{\"name\": \"", "\"}");
    let body = format!("{open}{}{close}", "a".repeat(limit - open.len() - close.len()));
    assert_eq!(body.len(), limit);
    let started = Instant::now();
    let (status, _, reply) = send(
        addr,
        &format!("POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {limit}\r\n\r\n{body}"),
    );
    let took = started.elapsed();
    assert_eq!(status, 422, "{reply}");
    assert!(took < Duration::from_secs(5), "a {limit}-byte JSON body took {took:?}");

    // A value the error echoes (the wrong `format`) is echoed as a short
    // prefix plus its length, not whole: the 422 stays small.
    let open = "{\"format\": \"";
    let body = format!("{open}{}{close}", "a".repeat(limit - open.len() - close.len()));
    let (status, _, reply) = send(
        addr,
        &format!("POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: {limit}\r\n\r\n{body}"),
    );
    assert_eq!(status, 422, "{reply}");
    assert!(reply.len() < 1024, "a {}-byte 422 body", reply.len());
    assert!(reply.contains(&format!("({} bytes)", limit - open.len() - close.len())), "{reply}");

    // The only worker is free again and serves a normal run.
    let (status, _, reply) = post(addr, "/run?scenario=scenario2&days=0.5&seed=42");
    assert_eq!(status, 200, "{reply}");

    handle.drain();
    join.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_parks_on_deadline_and_resumes_bit_identically_across_restart() {
    let dir = scratch_dir("campaign");
    let cfg = ServeConfig { campaign_chunk_runs: 2, ..test_cfg(dir.clone()) };
    let (addr, handle, join) = start(cfg.clone());

    // deadline_ms=0: the budget expires at the first chunk boundary, so
    // the campaign parks deterministically with its checkpoint on disk.
    let q = "/campaign?id=study-a&hosts=4&days=0.1&seed=7&threads=1&deadline_ms=0";
    let (status, headers, body) = post(addr, q);
    assert_eq!(status, 503, "{body}");
    assert_eq!(header(&headers, "retry-after"), Some("1"));
    assert!(body.contains("parked after 2/8 runs"), "{body}");
    assert!(dir.join("study-a.ckpt.1").exists(), "park must persist the checkpoint generation");

    // Kill this daemon entirely; a fresh one (same checkpoint dir, as
    // after a restart) must finish the campaign from the checkpoint.
    handle.drain();
    join.join().expect("server thread");
    let (addr2, handle2, join2) = start(cfg);
    let (status, _, body) = post(addr2, "/campaign?id=study-a&hosts=4&days=0.1&seed=7&threads=1");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("# resumed: 2/8"), "{body}");
    assert!(body.contains("campaign study-a: complete (8 runs)"), "{body}");

    // Bit-identical to the uninterrupted, checkpoint-free campaign run
    // in-process.
    let manifest = CampaignManifest::sampled_population(4, 7, 0.1);
    let outcome = run_manifest(&manifest, 1, &CampaignOptions::default(), None).unwrap();
    let reference = format!("{}{}", population_header(4, 0.1, 7), outcome.table);
    assert_eq!(table_of(&body), table_of(&reference));

    // Re-POSTing a finished campaign is idempotent (everything resumes).
    let (status, _, again) = post(addr2, "/campaign?id=study-a&hosts=4&days=0.1&seed=7&threads=1");
    assert_eq!(status, 200);
    assert_eq!(table_of(&again), table_of(&body));

    // Reusing the id for a different study is refused, not clobbered.
    let (status, _, body) = post(addr2, "/campaign?id=study-a&hosts=4&days=0.2&seed=7&threads=1");
    assert_eq!(status, 409, "{body}");

    handle2.drain();
    join2.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_parks_a_running_campaign_at_a_chunk_boundary() {
    let dir = scratch_dir("drain");
    let cfg = ServeConfig { campaign_chunk_runs: 1, ..test_cfg(dir.clone()) };
    let (addr, handle, join) = start(cfg);

    // 32 single-run chunks: plenty of drain-check boundaries.
    let client = std::thread::spawn(move || {
        post(addr, "/campaign?id=long&hosts=16&days=1&seed=3&threads=1")
    });
    // Wait until the campaign has provably started (first checkpoint
    // lands after chunk 1), then drain mid-flight.
    let ckpt = dir.join("long.ckpt.1");
    let waited = Instant::now();
    while !ckpt.exists() {
        assert!(waited.elapsed() < Duration::from_secs(120), "campaign never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.drain();

    let (status, headers, body) = client.join().expect("client");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("daemon draining"), "{body}");
    assert!(header(&headers, "retry-after").is_some());
    let summary = join.join().expect("server thread");
    assert_eq!(drained(&summary, "parked-campaigns"), 1, "{summary}");
    assert_eq!(summary.workers_abandoned, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One count from the drain summary line (`drained: accepted N shed N ...`).
fn drained(summary: &ServeSummary, key: &str) -> u64 {
    let line = summary.to_string();
    let mut words = line.split_whitespace();
    words.find(|w| *w == key).and_then(|_| words.next()).and_then(|n| n.parse().ok()).unwrap()
}
