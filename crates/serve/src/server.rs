//! The daemon: listener, bounded worker pool, shedding acceptor, and the
//! graceful-drain state machine.
//!
//! Threading model (documented in DESIGN.md § service architecture):
//!
//! - One **acceptor** (the thread that called [`Server::run`]) owns the
//!   non-blocking listener. It polls `accept(2)` at a short interval so
//!   it can observe the drain flag and termination signals without ever
//!   parking in a syscall. Accepted connections go through
//!   [`AdmissionQueue::try_push`]; rejected ones are shed *by the
//!   acceptor* with a canned `503 + Retry-After` under a write timeout,
//!   so a slow shed target cannot stall admission for long.
//! - `workers` **worker threads** block on [`AdmissionQueue::pop`]. Each
//!   parses under socket read timeouts, routes, and answers. A handler
//!   panic is quarantined with `catch_unwind` and answered as `500`; the
//!   worker survives.
//! - **Drain** (SIGTERM/SIGINT or [`ServerHandle::drain`]): the queue
//!   closes (new connections shed as `Draining`), workers finish the
//!   admitted backlog, campaigns cut at the next chunk boundary and
//!   persist their checkpoint, and `run` returns once every worker exits
//!   or the drain grace expires.

use crate::handlers;
use crate::http::{self, Response};
use crate::queue::{AdmissionQueue, Rejection};
use crate::signal;
use crate::wall::{WallRetry, ACCEPT_RETRY};
use bce_obs::{CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot, TraceRecord};
use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Socket read timeout: a slow-loris client costs one worker at most this
/// long.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Socket write timeout (responses and shed notices).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long `run` waits for workers after drain before giving up on them
/// (they hold nothing but their own connection by then).
const DRAIN_GRACE: Duration = Duration::from_secs(30);
/// Acceptor poll interval; bounds signal-to-drain latency.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Everything the daemon will and will not do, fixed at bind time.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7070`. Port `0` picks a free one.
    pub addr: String,
    /// Worker threads (also the number of requests in flight). `0` means
    /// [`bce_controller::resolve_threads`] decides.
    pub workers: usize,
    /// Admission-queue capacity; connection #`queue_depth + workers + 1`
    /// is shed, bounding daemon memory regardless of client behavior.
    pub queue_depth: usize,
    /// Largest accepted request body (state files can be large; 1 MiB
    /// default). Larger declared bodies are refused *before* reading.
    pub max_body_bytes: usize,
    /// Default and maximum wall-clock budget for one `/campaign` request;
    /// on expiry the campaign parks at a chunk boundary with its
    /// checkpoint persisted and the client is told to re-POST.
    pub request_deadline: Duration,
    /// Upper bound on the emulated horizon a request may ask for.
    pub max_days: f64,
    /// Where `/campaign` checkpoints live (`<dir>/<id>.ckpt`).
    pub checkpoint_dir: PathBuf,
    /// Runs per campaign chunk: the granularity at which deadlines and
    /// drain are observed, and at which checkpoints are written.
    pub campaign_chunk_runs: usize,
    /// Scenario reference (builtin name or spec/state-file path) used by
    /// `/run` requests that give neither `?scenario=` nor a body.
    pub default_scenario: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7070".to_string(),
            workers: 4,
            queue_depth: 64,
            max_body_bytes: 1 << 20,
            request_deadline: Duration::from_secs(120),
            max_days: 60.0,
            checkpoint_dir: PathBuf::from("serve-checkpoints"),
            campaign_chunk_runs: 8,
            default_scenario: None,
        }
    }
}

/// Pre-registered metric handles (scope `serve`), so the hot path never
/// allocates a key.
#[derive(Clone, Copy)]
pub(crate) struct Ids {
    pub(crate) accepted: CounterId,
    pub(crate) responses_2xx: CounterId,
    pub(crate) responses_4xx: CounterId,
    pub(crate) responses_5xx: CounterId,
    pub(crate) shed_full: CounterId,
    pub(crate) shed_draining: CounterId,
    pub(crate) read_timeouts: CounterId,
    pub(crate) parse_errors: CounterId,
    pub(crate) panics_quarantined: CounterId,
    pub(crate) accept_retries: CounterId,
    pub(crate) runs_completed: CounterId,
    /// Cumulative RR-simulation reruns across all served emulations.
    pub(crate) emu_rr_runs: CounterId,
    /// Cumulative frozen-window partial refreshes across served emulations.
    pub(crate) emu_rr_frozen: CounterId,
    /// Cumulative availability flaps coalesced across served emulations.
    pub(crate) emu_flaps_coalesced: CounterId,
    /// Cumulative zero-delta availability events that skipped a reschedule.
    pub(crate) emu_avail_resched_skipped: CounterId,
    pub(crate) campaign_chunks: CounterId,
    pub(crate) campaigns_completed: CounterId,
    pub(crate) campaigns_parked: CounterId,
    /// Mid-flight campaign checkpoint writes that failed (best-effort
    /// writes; crash-safety degraded, study unaffected).
    pub(crate) ckpt_write_failures: CounterId,
    /// Resumes that had to fall back past a corrupt checkpoint
    /// generation.
    pub(crate) ckpt_recoveries: CounterId,
    /// Old checkpoint generations removed by rotation.
    pub(crate) ckpt_generations_pruned: CounterId,
    pub(crate) queue_depth: GaugeId,
    pub(crate) draining: GaugeId,
    pub(crate) uptime_seconds: GaugeId,
    pub(crate) request_ms: HistogramId,
}

impl Ids {
    fn register(reg: &mut MetricsRegistry) -> Ids {
        Ids {
            accepted: reg.counter("serve", "accepted_total"),
            responses_2xx: reg.counter("serve", "responses_2xx"),
            responses_4xx: reg.counter("serve", "responses_4xx"),
            responses_5xx: reg.counter("serve", "responses_5xx"),
            shed_full: reg.counter("serve", "shed_queue_full"),
            shed_draining: reg.counter("serve", "shed_draining"),
            read_timeouts: reg.counter("serve", "read_timeouts"),
            parse_errors: reg.counter("serve", "parse_errors"),
            panics_quarantined: reg.counter("serve", "panics_quarantined"),
            accept_retries: reg.counter("serve", "accept_retries"),
            runs_completed: reg.counter("serve", "runs_completed"),
            emu_rr_runs: reg.counter("emulation", "rr_runs"),
            emu_rr_frozen: reg.counter("emulation", "rr_frozen"),
            emu_flaps_coalesced: reg.counter("emulation", "flaps_coalesced"),
            emu_avail_resched_skipped: reg.counter("emulation", "avail_resched_skipped"),
            campaign_chunks: reg.counter("serve", "campaign_chunks"),
            campaigns_completed: reg.counter("serve", "campaigns_completed"),
            campaigns_parked: reg.counter("serve", "campaigns_parked"),
            ckpt_write_failures: reg.counter("checkpoint", "write_failures"),
            ckpt_recoveries: reg.counter("checkpoint", "recoveries"),
            ckpt_generations_pruned: reg.counter("checkpoint", "generations_pruned"),
            queue_depth: reg.gauge("serve", "queue_depth"),
            draining: reg.gauge("serve", "draining"),
            uptime_seconds: reg.gauge("serve", "uptime_seconds"),
            request_ms: reg.histogram(
                "serve",
                "request_ms",
                &[1.0, 5.0, 20.0, 100.0, 500.0, 2000.0, 10000.0],
            ),
        }
    }
}

/// State shared by the acceptor, the workers, and [`ServerHandle`]s.
pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) draining: AtomicBool,
    metrics: Mutex<MetricsRegistry>,
    pub(crate) ids: Ids,
    /// Trace records of the most recent completed `/run`, for `/trace`.
    pub(crate) last_trace: Mutex<Vec<TraceRecord>>,
    /// Campaign ids currently executing, so two concurrent POSTs cannot
    /// race the same checkpoint file.
    pub(crate) campaigns_in_flight: Mutex<HashSet<String>>,
    pub(crate) started: Instant,
}

impl Shared {
    /// Fresh daemon state for `cfg`, its metric set registered.
    pub(crate) fn new(cfg: ServeConfig) -> Shared {
        let mut reg = MetricsRegistry::new();
        let ids = Ids::register(&mut reg);
        Shared {
            cfg,
            draining: AtomicBool::new(false),
            metrics: Mutex::new(reg),
            ids,
            last_trace: Mutex::new(Vec::new()),
            campaigns_in_flight: Mutex::new(HashSet::new()),
            started: Instant::now(),
        }
    }

    pub(crate) fn inc(&self, id: CounterId) {
        self.metrics.lock().expect("metrics poisoned").inc(id);
    }
    pub(crate) fn add(&self, id: CounterId, n: u64) {
        self.metrics.lock().expect("metrics poisoned").add(id, n);
    }
    pub(crate) fn set_gauge(&self, id: GaugeId, v: f64) {
        self.metrics.lock().expect("metrics poisoned").set(id, v);
    }
    pub(crate) fn observe(&self, id: HistogramId, v: f64) {
        self.metrics.lock().expect("metrics poisoned").observe(id, v);
    }
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.lock().expect("metrics poisoned").snapshot()
    }
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.set_gauge(self.ids.draining, 1.0);
    }
}

/// What the daemon did with its life, reported when [`Server::run`]
/// returns after a drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    pub(crate) accepted: u64,
    pub(crate) shed: u64,
    pub(crate) panics_quarantined: u64,
    pub(crate) campaigns_parked: u64,
    /// Workers that had not finished when the drain grace expired.
    pub workers_abandoned: usize,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drained: accepted {} shed {} quarantined {} parked-campaigns {} abandoned-workers {}",
            self.accepted,
            self.shed,
            self.panics_quarantined,
            self.campaigns_parked,
            self.workers_abandoned
        )
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    queue: Arc<AdmissionQueue<TcpStream>>,
}

/// A cheap handle onto a running (or bound) server: drain it, read its
/// metrics. Cloneable across threads.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    queue: Arc<AdmissionQueue<TcpStream>>,
}

impl ServerHandle {
    /// Ask the daemon to drain: stop admitting, finish in-flight work,
    /// park campaigns at the next chunk boundary, exit `run`.
    pub fn drain(&self) {
        self.shared.begin_drain();
        self.queue.close();
    }
}

impl Server {
    /// Bind the listener and register the metric set. Does not accept
    /// anything until [`Server::run`].
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let queue = Arc::new(AdmissionQueue::new(cfg.queue_depth));
        Ok(Server { listener, shared: Arc::new(Shared::new(cfg)), queue })
    }

    /// The address actually bound (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: self.shared.clone(), queue: self.queue.clone() }
    }

    /// Run until drained (signal or [`ServerHandle::drain`]). Installs
    /// the SIGTERM/SIGINT handler; the calling thread becomes the
    /// acceptor.
    pub fn run(self) -> ServeSummary {
        signal::install_termination_handler();
        let Server { listener, shared, queue } = self;
        let workers = bce_controller::resolve_threads(shared.cfg.workers);

        let (done_tx, done_rx) = mpsc::channel::<()>();
        let mut joins = Vec::with_capacity(workers);
        for _ in 0..workers {
            let shared = shared.clone();
            let queue = queue.clone();
            let done_tx = done_tx.clone();
            joins.push(std::thread::spawn(move || {
                while let Some((stream, _admitted)) = queue.pop() {
                    serve_connection(&shared, stream);
                    shared.set_gauge(shared.ids.queue_depth, queue.len() as f64);
                }
                let _ = done_tx.send(());
            }));
        }
        drop(done_tx);

        let mut retry = WallRetry::new(ACCEPT_RETRY);
        loop {
            if signal::termination_requested() || shared.is_draining() {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    retry.succeed();
                    shared.inc(shared.ids.accepted);
                    match queue.try_push(stream) {
                        Ok(()) => shared.set_gauge(shared.ids.queue_depth, queue.len() as f64),
                        Err((stream, why)) => shed(&shared, stream, why),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(_) => {
                    // EMFILE and friends: transient by assumption; back
                    // off on the shared retry curve, never stop accepting.
                    shared.inc(shared.ids.accept_retries);
                    let delay = retry.fail().unwrap_or(POLL_INTERVAL);
                    std::thread::sleep(delay);
                }
            }
        }

        // Drain: refuse new work, let the admitted backlog finish.
        shared.begin_drain();
        queue.close();
        let deadline = Instant::now() + DRAIN_GRACE;
        let mut finished = 0usize;
        while finished < workers {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match done_rx.recv_timeout(left) {
                Ok(()) => finished += 1,
                Err(_) => break,
            }
        }
        for j in joins {
            if finished == workers {
                let _ = j.join();
            }
            // Otherwise leave stragglers detached: the process is about
            // to exit and joining could wait past the grace period.
        }

        let snap = shared.metrics_snapshot();
        ServeSummary {
            accepted: snap.counter("serve.accepted_total").unwrap_or(0),
            shed: snap.counter("serve.shed_queue_full").unwrap_or(0)
                + snap.counter("serve.shed_draining").unwrap_or(0),
            panics_quarantined: snap.counter("serve.panics_quarantined").unwrap_or(0),
            campaigns_parked: snap.counter("serve.campaigns_parked").unwrap_or(0),
            workers_abandoned: workers - finished,
        }
    }
}

/// Shed a connection the queue refused: canned `503 + Retry-After`,
/// written by the acceptor under the write timeout, then closed. The
/// client sees an explicit, retryable signal instead of a hang.
fn shed(shared: &Shared, mut stream: TcpStream, why: Rejection) {
    let (id, reason) = match why {
        Rejection::Full => (shared.ids.shed_full, "admission queue full"),
        Rejection::Draining => (shared.ids.shed_draining, "draining"),
    };
    shared.inc(id);
    let resp = Response::unavailable(reason);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.write_all(&resp.to_bytes());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// One admitted connection, start to finish: parse under timeouts, route
/// under `catch_unwind`, answer, account.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let start = Instant::now();
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));

    let response = match http::read_request(&mut stream, shared.cfg.max_body_bytes) {
        Ok(req) => match catch_unwind(AssertUnwindSafe(|| handlers::route(&req, shared))) {
            Ok(resp) => resp,
            Err(panic) => {
                // Quarantine: the worker answers 500 and lives on. (The
                // emulator itself is additionally supervised inside the
                // handlers; this catches everything else.)
                shared.inc(shared.ids.panics_quarantined);
                Response::text(500, format!("internal error: {}\n", panic_message(&panic)))
            }
        },
        Err(e) => {
            match e {
                http::HttpError::Timeout => shared.inc(shared.ids.read_timeouts),
                _ => shared.inc(shared.ids.parse_errors),
            }
            http::error_response(&e)
        }
    };

    let class = match response.status {
        200..=299 => shared.ids.responses_2xx,
        400..=499 => shared.ids.responses_4xx,
        _ => shared.ids.responses_5xx,
    };
    shared.inc(class);
    let _ = stream.write_all(&response.to_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    shared.observe(shared.ids.request_ms, start.elapsed().as_secs_f64() * 1000.0);
}

pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "panic of unknown type"
    }
}
