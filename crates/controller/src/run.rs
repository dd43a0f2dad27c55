//! Population-scale experiment execution: the controller "does multiple
//! BCE runs and generates graphs summarizing the figures of merit" (§4.3).
//!
//! Runs are independent emulations distributed over OS threads. The
//! executor is built for populations of 100k+ scenarios:
//!
//! * **Zero-clone distribution** — a [`RunSpec`] shares its scenario and
//!   emulator configuration via `Arc`, so fanning N runs out to workers
//!   allocates nothing per run beyond the spec list itself.
//! * **Per-worker emulator reuse** — each worker owns one
//!   [`EmulatorArena`] and drives every run through it, so the event
//!   queue, RR-simulation scratch, task buffers and accounting sample are
//!   allocated once per worker, not once per run.
//! * **Dynamic claiming in a bounded window** — the consumer issues run
//!   indices as tickets, at most `W = T × (WORKER_SLACK + 1)` ahead of
//!   the reduction front; an idle worker claims the next ticket, so a
//!   slow run no longer leaves another worker blocked on its own full
//!   channel. The cost is one uncontended lock per claimed run, and
//!   results come back over one channel into a `W`-slot reorder ring.
//! * **Streaming reduction** — [`run_streaming`] hands each
//!   [`EmulationResult`] to a caller-supplied reducer *in submission
//!   order* as soon as it is available, so a caller that only aggregates
//!   keeps O(workers) results alive instead of O(runs).
//!
//! Determinism contract: every run is a deterministic function of its
//! spec, the reduction happens in submission order on the calling thread,
//! and arenas are cleared between runs — so results (and any reduction
//! over them) are bit-identical across thread counts and between fresh
//! and reused arenas.

use bce_client::ClientConfig;
use bce_core::{EmulationResult, Emulator, EmulatorArena, EmulatorConfig, Scenario};
use bce_obs::Profiler;
use std::sync::{mpsc, Arc, Mutex};

/// A run that panicked inside the emulator, quarantined by the
/// supervised executor instead of tearing down the whole campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// Submission index of the failed spec.
    pub(crate) index: usize,
    /// Label of the failed spec.
    pub(crate) label: String,
    /// The panic message (or a placeholder for non-string payloads).
    pub(crate) message: String,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run {} ({}) panicked: {}", self.index, self.label, self.message)
    }
}
impl std::error::Error for RunError {}

/// What the supervised executor delivers per run: the result, or the
/// quarantined panic.
pub(crate) type RunOutcome = Result<EmulationResult, RunError>;

/// Extract a human-readable message from a `catch_unwind` payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One unit of work: a scenario plus client policy configuration. The
/// scenario and emulator config are shared (`Arc`), so cloning a spec —
/// or building thousands of specs over the same inputs — is O(1) per spec.
#[derive(Clone)]
pub struct RunSpec {
    pub label: String,
    pub scenario: Arc<Scenario>,
    pub client: ClientConfig,
    pub emulator: Arc<EmulatorConfig>,
}

impl RunSpec {
    pub fn new(
        label: impl Into<String>,
        scenario: impl Into<Arc<Scenario>>,
        client: ClientConfig,
    ) -> Self {
        RunSpec {
            label: label.into(),
            scenario: scenario.into(),
            client,
            emulator: Arc::new(EmulatorConfig::default()),
        }
    }

    pub fn with_emulator(mut self, cfg: impl Into<Arc<EmulatorConfig>>) -> Self {
        self.emulator = cfg.into();
        self
    }

    fn emulate(&self, arena: &mut EmulatorArena) -> EmulationResult {
        Emulator::new(self.scenario.clone(), self.client, self.emulator.clone()).run_in(arena)
    }
}

/// Resolve a thread-count argument (0 = one per available CPU).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        threads
    }
}

/// Runs each worker may complete ahead of the reduction front. The
/// reorder window is `threads × (WORKER_SLACK + 1)` runs, which bounds
/// memory at O(workers × slack) while giving fast workers room to run
/// ahead of a slow run at the front.
const WORKER_SLACK: usize = 4;

/// Execute every spec, streaming each [`EmulationResult`] into `consume`
/// in submission order, using up to `threads` workers (0 = one per
/// available CPU). Only what the reducer retains outlives the call, so
/// memory stays O(workers) however many specs are swept.
///
/// With one thread this is a plain loop over one arena — no thread is
/// spawned and no synchronization happens at all.
pub fn run_streaming<F>(specs: &[RunSpec], threads: usize, mut consume: F)
where
    F: FnMut(usize, &RunSpec, EmulationResult),
{
    run_supervised(specs, threads, |i, spec, outcome| match outcome {
        Ok(result) => consume(i, spec, result),
        // The unsupervised contract is all-or-abort: re-raise the
        // quarantined panic with its structured context instead of the
        // old hung-channel failure mode.
        Err(e) => panic!("{e}"),
    });
}

/// Supervised variant of [`run_streaming`]: each run executes under
/// `catch_unwind`, so a panicking emulation is quarantined as a
/// [`RunError`] delivered to the reducer (still in submission order)
/// while every other run completes normally. The panicking worker's
/// arena is discarded — a partially-unwound arena could poison later
/// runs — and replaced with a fresh one.
pub fn run_supervised<F>(specs: &[RunSpec], threads: usize, consume: F)
where
    F: FnMut(usize, &RunSpec, RunOutcome),
{
    run_supervised_profiled(specs, threads, &mut Profiler::disabled(), consume)
}

/// As [`run_supervised`], timing the executor's phases into `prof`:
///
/// * `exec.emulate` — serial path only: the emulations themselves.
/// * `exec.recv_wait` — parallel path: consumer time blocked waiting for
///   the run at the reduction front (how far the front trails the
///   workers), one count per run.
/// * `exec.reduce` — time inside the caller's reducer, which runs on the
///   consuming thread and therefore bounds streaming throughput.
///
/// Profiling observes wall clock only; results (and reduction order) are
/// identical to [`run_supervised`]. A disabled profiler skips all timing.
pub fn run_supervised_profiled<F>(
    specs: &[RunSpec],
    threads: usize,
    prof: &mut Profiler,
    mut consume: F,
) where
    F: FnMut(usize, &RunSpec, RunOutcome),
{
    let n = specs.len();
    let nthreads = resolve_threads(threads).min(n.max(1));
    let sp_reduce = prof.span("exec.reduce");
    if nthreads <= 1 {
        let sp_emulate = prof.span("exec.emulate");
        let mut arena = EmulatorArena::new();
        for (i, spec) in specs.iter().enumerate() {
            let outcome = prof.time(sp_emulate, || supervised_emulate(spec, &mut arena));
            let outcome = outcome.map_err(|message| RunError {
                index: i,
                label: spec.label.clone(),
                message,
            });
            prof.time(sp_reduce, || consume(i, spec, outcome));
        }
        return;
    }

    let sp_wait = prof.span("exec.recv_wait");
    let window = nthreads * (WORKER_SLACK + 1);
    // At most `window` tickets are outstanding, so neither channel's
    // sender ever blocks.
    let (ticket_tx, ticket_rx) = mpsc::sync_channel::<usize>(window);
    let ticket_rx = Mutex::new(ticket_rx);
    std::thread::scope(|scope| {
        // Owned by this closure, so it is dropped when the consumer
        // finishes or unwinds (a reducer's panic): workers then drain the
        // tickets already issued and exit, and the scope can join them.
        let ticket_tx = ticket_tx;
        let (result_tx, result_rx) =
            mpsc::sync_channel::<(usize, Result<EmulationResult, String>)>(window);
        for _ in 0..nthreads {
            let (ticket_rx, result_tx) = (&ticket_rx, result_tx.clone());
            scope.spawn(move || {
                let mut arena = EmulatorArena::new();
                loop {
                    let ticket = ticket_rx.lock().expect("ticket lock").recv();
                    let Ok(i) = ticket else { break };
                    // A closed result channel means the consumer is
                    // unwinding; stop quietly.
                    if result_tx.send((i, supervised_emulate(&specs[i], &mut arena))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(result_tx);

        // Tickets outstanding are always `[i, i + window)` for the next
        // index `i` to reduce, so slot `j % window` is free for result `j`.
        let mut ring: Vec<Option<Result<EmulationResult, String>>> =
            (0..window.min(n)).map(|_| None).collect();
        let mut issued = ring.len();
        for i in 0..issued {
            ticket_tx.send(i).expect("ticket receiver outlives the scope");
        }
        for (i, spec) in specs.iter().enumerate() {
            let slot = i % window;
            let outcome = prof.time(sp_wait, || loop {
                if let Some(outcome) = ring[slot].take() {
                    break outcome;
                }
                let (j, outcome) = result_rx.recv().expect("worker delivered outcome");
                ring[j % window] = Some(outcome);
            });
            if issued < n {
                ticket_tx.send(issued).expect("ticket receiver outlives the scope");
                issued += 1;
            }
            let outcome = outcome.map_err(|message| RunError {
                index: i,
                label: spec.label.clone(),
                message,
            });
            prof.time(sp_reduce, || consume(i, spec, outcome));
        }
    });
}

/// Run one spec under `catch_unwind`. On panic the arena is replaced
/// with a fresh one (its buffers may have been left mid-mutation by the
/// unwind) and the panic message is returned as the error.
fn supervised_emulate(
    spec: &RunSpec,
    arena: &mut EmulatorArena,
) -> Result<EmulationResult, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.emulate(arena))) {
        Ok(result) => Ok(result),
        Err(payload) => {
            *arena = EmulatorArena::new();
            Err(panic_message(payload))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bce_types::{AppClass, Hardware, ProjectSpec, SimDuration};

    fn tiny_scenario(seed: u64) -> Scenario {
        bce_core::ScenarioBuilder::new(format!("tiny{seed}"), Hardware::cpu_only(1, 1e9))
            .seed(seed)
            .project(ProjectSpec::new(0, "p", 100.0).with_app(AppClass::cpu(
                0,
                SimDuration::from_secs(500.0),
                SimDuration::from_hours(4.0),
            )))
            .build_unchecked()
    }

    /// The pre-population-executor implementation: per-run `Scenario`
    /// clone, a freshly allocated emulator per run, and a
    /// `Mutex<Vec<Option<_>>>` result funnel. Kept verbatim as the
    /// baseline oracle the new executor must match bit for bit.
    fn reference_executor(specs: &[RunSpec], threads: usize) -> Vec<(String, EmulationResult)> {
        let nthreads = resolve_threads(threads);
        let n = specs.len();
        let mut results: Vec<Option<(String, EmulationResult)>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results_mx = std::sync::Mutex::new(&mut results);

        std::thread::scope(|scope| {
            for _ in 0..nthreads.min(n.max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let spec = &specs[i];
                    let result = Emulator::new(
                        (*spec.scenario).clone(),
                        spec.client,
                        (*spec.emulator).clone(),
                    )
                    .run();
                    let entry = (spec.label.clone(), result);
                    results_mx.lock().expect("results lock")[i] = Some(entry);
                });
            }
        });

        results.into_iter().map(|r| r.expect("all runs completed")).collect()
    }

    /// Every result of `specs` with its label, in submission order. Takes
    /// the specs by value so they are dropped when it returns.
    fn results_of(specs: Vec<RunSpec>, threads: usize) -> Vec<(String, EmulationResult)> {
        let mut results = Vec::with_capacity(specs.len());
        run_streaming(&specs, threads, |_, spec, r| results.push((spec.label.clone(), r)));
        results
    }

    fn short() -> EmulatorConfig {
        EmulatorConfig { duration: SimDuration::from_hours(3.0), ..Default::default() }
    }

    fn mk_specs(n: u64) -> Vec<RunSpec> {
        let emu = Arc::new(short());
        (0..n)
            .map(|i| {
                RunSpec::new(format!("run{i}"), tiny_scenario(i), ClientConfig::default())
                    .with_emulator(emu.clone())
            })
            .collect()
    }

    #[test]
    fn results_in_submission_order() {
        let results = results_of(mk_specs(8), 4);
        assert_eq!(results.len(), 8);
        for (i, (label, r)) in results.iter().enumerate() {
            assert_eq!(label, &format!("run{i}"));
            assert!(r.jobs_completed > 0);
        }
    }

    /// Every other spec emulates ten times its neighbour's horizon: the
    /// worst case for a static `w, w + T` split, which would put every
    /// costly run on the same worker at two threads.
    fn skewed_specs(n: u64) -> Vec<RunSpec> {
        let cheap = Arc::new(short());
        let costly =
            Arc::new(EmulatorConfig { duration: SimDuration::from_hours(30.0), ..short() });
        (0..n)
            .map(|i| {
                let emu = if i % 2 == 1 { &costly } else { &cheap };
                RunSpec::new(format!("run{i}"), tiny_scenario(i), ClientConfig::default())
                    .with_emulator(emu.clone())
            })
            .collect()
    }

    #[test]
    fn parallel_equals_serial_on_every_field() {
        for specs in [mk_specs(6), skewed_specs(24)] {
            let ser = results_of(specs.clone(), 1);
            for threads in [2, 3, 4, 8] {
                let mut order = Vec::new();
                let mut par = Vec::new();
                run_supervised(&specs, threads, |i, spec, outcome| {
                    order.push(i);
                    par.push((spec.label.clone(), outcome.expect("no run panics")));
                });
                assert_eq!(order, (0..specs.len()).collect::<Vec<_>>(), "threads={threads}");
                assert_eq!(par.len(), ser.len());
                for ((la, a), (lb, b)) in par.iter().zip(&ser) {
                    assert_eq!(la, lb);
                    assert_eq!(
                        a.bit_fingerprint(),
                        b.bit_fingerprint(),
                        "threads={threads} diverged on {la}"
                    );
                    assert_eq!(a.jobs_completed, b.jobs_completed);
                    assert_eq!(a.total_flops_used.to_bits(), b.total_flops_used.to_bits());
                }
            }
        }
    }

    #[test]
    fn streaming_matches_supervised_and_reference() {
        let specs = mk_specs(5);
        let mut supervised: Vec<(String, u64)> = Vec::new();
        run_supervised(&specs, 3, |_, spec, outcome| {
            supervised
                .push((spec.label.clone(), outcome.expect("no run panics").bit_fingerprint()));
        });
        let reference = reference_executor(&specs, 3);
        let mut streamed: Vec<(usize, String, u64)> = Vec::new();
        run_streaming(&specs, 3, |i, spec, r| {
            streamed.push((i, spec.label.clone(), r.bit_fingerprint()));
        });
        assert_eq!(streamed.len(), supervised.len());
        for (k, (i, label, fp)) in streamed.iter().enumerate() {
            assert_eq!(*i, k, "submission order");
            assert_eq!(label, &supervised[k].0);
            assert_eq!(*fp, supervised[k].1, "streaming vs supervised executor");
            assert_eq!(*fp, reference[k].1.bit_fingerprint(), "new executor vs seed oracle");
        }
    }

    #[test]
    fn profiled_streaming_observes_without_perturbing() {
        let specs = mk_specs(6);
        let mut plain: Vec<u64> = Vec::new();
        run_streaming(&specs, 3, |_, _, r| plain.push(r.bit_fingerprint()));
        for threads in [1, 3] {
            let mut prof = Profiler::enabled();
            let mut profiled: Vec<u64> = Vec::new();
            run_supervised_profiled(&specs, threads, &mut prof, |_, _, outcome| {
                profiled.push(outcome.expect("no run panics").bit_fingerprint());
            });
            assert_eq!(profiled, plain, "profiling must not change results (threads={threads})");
            let report = prof.report();
            assert!(report.span("exec.reduce").is_some(), "reduce span");
            if threads == 1 {
                assert!(report.span("exec.emulate").is_some(), "emulate span");
                assert!(report.span("exec.recv_wait").is_none());
            } else {
                assert!(report.span("exec.recv_wait").is_some(), "wait span");
                assert!(report.span("exec.emulate").is_none());
            }
        }
    }

    #[test]
    fn streaming_reducer_aggregates_without_retention() {
        let specs = mk_specs(7);
        let mut total_jobs = 0u64;
        let mut count = 0usize;
        run_streaming(&specs, 0, |_, _, r| {
            total_jobs += r.jobs_completed;
            count += 1;
        });
        assert_eq!(count, 7);
        let serial: u64 = results_of(mk_specs(7), 1).iter().map(|(_, r)| r.jobs_completed).sum();
        assert_eq!(total_jobs, serial);
    }

    #[test]
    fn shared_scenario_is_not_cloned() {
        let scenario = Arc::new(tiny_scenario(3));
        let emu = Arc::new(short());
        let specs: Vec<RunSpec> = (0..4)
            .map(|i| {
                RunSpec::new(format!("r{i}"), scenario.clone(), ClientConfig::default())
                    .with_emulator(emu.clone())
            })
            .collect();
        assert_eq!(Arc::strong_count(&scenario), 5);
        let results = results_of(specs, 2);
        assert_eq!(results.len(), 4);
        // All specs (and their temporary emulators) are gone again.
        assert_eq!(Arc::strong_count(&scenario), 1);
    }

    #[test]
    fn empty_specs() {
        assert!(results_of(vec![], 4).is_empty());
        run_streaming(&[], 4, |_, _, _| panic!("no results expected"));
    }

    /// A scenario that reliably panics inside the emulator: a project
    /// with zero apps. `Scenario::validate` rejects it, and the emulator
    /// panics on any scenario that fails validation, in every build
    /// profile — constructing it directly (bypassing the builder) models
    /// a corrupted input slipping into a large campaign.
    fn poison_spec() -> RunSpec {
        let s = bce_core::ScenarioBuilder::new("poison", Hardware::cpu_only(1, 1e9))
            .project(ProjectSpec::new(0, "p", 100.0))
            .build_unchecked();
        RunSpec::new("poison", s, ClientConfig::default()).with_emulator(Arc::new(short()))
    }

    // The quarantined panics below print to stderr via the default
    // hook — noise, but harmless; swapping in a silent global hook
    // would race with other tests.
    #[test]
    fn supervised_quarantines_poison_run_at_every_thread_count() {
        for threads in [1, 2, 8] {
            let mut specs = mk_specs(6);
            specs[3] = poison_spec();
            let mut good: Vec<usize> = Vec::new();
            let mut errors: Vec<RunError> = Vec::new();
            let mut order: Vec<usize> = Vec::new();
            run_supervised(&specs, threads, |i, _, outcome| {
                order.push(i);
                match outcome {
                    Ok(r) => {
                        assert!(r.jobs_completed > 0);
                        good.push(i);
                    }
                    Err(e) => errors.push(e),
                }
            });
            assert_eq!(order, (0..6).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(good, vec![0, 1, 2, 4, 5], "threads={threads}");
            assert_eq!(errors.len(), 1, "threads={threads}");
            assert_eq!(errors[0].index, 3);
            assert_eq!(errors[0].label, "poison");
            assert!(!errors[0].message.is_empty());
            assert!(errors[0].to_string().contains("run 3 (poison) panicked"));
        }
    }

    #[test]
    fn poisoned_arena_does_not_perturb_later_runs() {
        // The panicking run executes FIRST on its worker's arena; every
        // subsequent run on that arena must still be bit-identical to a
        // clean batch (the executor replaces the poisoned arena).
        let clean = results_of(mk_specs(6), 1);
        for threads in [1, 2] {
            let mut specs = vec![poison_spec()];
            specs.extend(mk_specs(6));
            let mut fps: Vec<(String, u64)> = Vec::new();
            run_supervised(&specs, threads, |_, spec, outcome| {
                if let Ok(r) = outcome {
                    fps.push((spec.label.clone(), r.bit_fingerprint()));
                }
            });
            assert_eq!(fps.len(), 6);
            for ((label, fp), (clean_label, clean_r)) in fps.iter().zip(&clean) {
                assert_eq!(label, clean_label);
                assert_eq!(*fp, clean_r.bit_fingerprint(), "threads={threads}");
            }
        }
    }

    #[test]
    fn unsupervised_executor_aborts_with_context() {
        // run_streaming keeps its all-or-abort contract: the quarantined
        // panic is re-raised on the consuming thread with run context,
        // instead of the old hung-channel failure mode.
        let specs = vec![poison_spec()];
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_streaming(&specs, 1, |_, _, _| {});
        }))
        .expect_err("poison run must abort the unsupervised executor");
        let msg = panic_message(payload);
        assert!(msg.contains("run 0 (poison) panicked"), "{msg}");
    }

    #[test]
    fn unsupervised_executor_aborts_without_hanging_at_two_threads() {
        // The re-raise unwinds the consumer while workers still hold
        // tickets: dropping the ticket sender must end them so the
        // thread scope can join. A hang fails the test on the timeout
        // instead of stalling the suite.
        let mut specs = mk_specs(24);
        specs[1] = poison_spec();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_streaming(&specs, 2, |_, _, _| {});
            }));
            let _ = tx.send(payload.map_err(panic_message));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("executor hung after the consumer unwound");
        let msg = outcome.expect_err("poison run must abort the unsupervised executor");
        assert!(msg.contains("run 1 (poison) panicked"), "{msg}");
    }
}
