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
use bce_core::{
    CheckpointPolicy, CheckpointState, EmulationResult, Emulator, EmulatorArena, EmulatorConfig,
    Scenario,
};
use bce_obs::Profiler;
use std::sync::{mpsc, Arc, Mutex};

/// A run that panicked inside the emulator, quarantined by the
/// supervised executor instead of tearing down the whole campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// Submission index of the failed spec.
    pub index: usize,
    /// Label of the failed spec.
    pub label: String,
    /// The panic message (or a placeholder for non-string payloads).
    pub message: String,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run {} ({}) panicked: {}", self.index, self.label, self.message)
    }
}
impl std::error::Error for RunError {}

/// What the supervised executor delivers per run: the result, or the
/// quarantined panic.
pub type RunOutcome = Result<EmulationResult, RunError>;

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
        let emu = Emulator::new(self.scenario.clone(), self.client, self.emulator.clone());
        let Some(policy) = &self.emulator.checkpoint else {
            return emu.run_in(arena);
        };
        self.emulate_checkpointed(emu, arena, policy)
    }

    /// Crash-safe run path: resume from this spec's checkpoint file if a
    /// valid one exists, otherwise run while writing a checkpoint every
    /// `policy.every` of simulated time. The file is removed once the run
    /// completes, and the result is bit-identical to a straight run.
    fn emulate_checkpointed(
        &self,
        emu: Emulator,
        arena: &mut EmulatorArena,
        policy: &CheckpointPolicy,
    ) -> EmulationResult {
        let path = policy.dir.join(checkpoint_file_name(&self.label));
        if let Ok(ckpt) = CheckpointState::read_from(&path) {
            // A stale or foreign checkpoint (different scenario/config)
            // fails the resume guards; fall through to a fresh run then.
            if let Ok(result) = emu.resume_in(&ckpt, arena) {
                let _ = std::fs::remove_file(&path);
                return result;
            }
        }
        let _ = std::fs::create_dir_all(&policy.dir);
        let result = emu.run_with_checkpoints_in(arena, policy.every, |ckpt| {
            // Best-effort: a failed write degrades crash-safety, not the
            // run itself.
            let _ = ckpt.write_atomic(&path);
        });
        let _ = std::fs::remove_file(&path);
        result
    }
}

/// Stable, filesystem-safe checkpoint file name for a run label: a
/// sanitized prefix for the human, an FNV-1a hash of the full label for
/// uniqueness (labels may differ only in characters the sanitizer folds).
fn checkpoint_file_name(label: &str) -> String {
    let hash = bce_sim::fnv64(label.as_bytes());
    let prefix: String = label
        .chars()
        .take(40)
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
        .collect();
    format!("{prefix}-{hash:016x}.ckpt")
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
pub fn run_streaming<F>(specs: &[RunSpec], threads: usize, consume: F)
where
    F: FnMut(usize, &RunSpec, EmulationResult),
{
    run_streaming_profiled(specs, threads, &mut Profiler::disabled(), consume)
}

/// As [`run_streaming`], but timing the executor's phases into `prof`:
///
/// * `exec.emulate` — serial path only: the emulations themselves.
/// * `exec.recv_wait` — parallel path: consumer time blocked waiting for
///   the run at the reduction front (how far the front trails the
///   workers), one count per run.
/// * `exec.reduce` — time inside the caller's reducer, which runs on the
///   consuming thread and therefore bounds streaming throughput.
///
/// Profiling observes wall clock only; results (and reduction order) are
/// identical to [`run_streaming`]. A disabled profiler skips all timing.
pub fn run_streaming_profiled<F>(
    specs: &[RunSpec],
    threads: usize,
    prof: &mut Profiler,
    mut consume: F,
) where
    F: FnMut(usize, &RunSpec, EmulationResult),
{
    run_supervised_profiled(specs, threads, prof, |i, spec, outcome| match outcome {
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

/// As [`run_supervised`], with executor-phase profiling (see
/// [`run_streaming_profiled`] for the span vocabulary).
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

/// Execute all runs and retain every result, in input order. Built on
/// [`run_streaming`]; labels are moved out of the specs, so the only
/// per-run cost beyond the emulation itself is the result push.
pub fn run_all(specs: Vec<RunSpec>, threads: usize) -> Vec<(String, EmulationResult)> {
    let mut results: Vec<EmulationResult> = Vec::with_capacity(specs.len());
    run_streaming(&specs, threads, |_, _, r| results.push(r));
    specs.into_iter().zip(results).map(|(spec, r)| (spec.label, r)).collect()
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
    fn run_all_reference(specs: &[RunSpec], threads: usize) -> Vec<(String, EmulationResult)> {
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
        let results = run_all(mk_specs(8), 4);
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
            let ser = run_all(specs.clone(), 1);
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
    fn streaming_matches_run_all_and_reference() {
        let specs = mk_specs(5);
        let all = run_all(specs.clone(), 3);
        let reference = run_all_reference(&specs, 3);
        let mut streamed: Vec<(usize, String, u64)> = Vec::new();
        run_streaming(&specs, 3, |i, spec, r| {
            streamed.push((i, spec.label.clone(), r.bit_fingerprint()));
        });
        assert_eq!(streamed.len(), all.len());
        for (k, (i, label, fp)) in streamed.iter().enumerate() {
            assert_eq!(*i, k, "submission order");
            assert_eq!(label, &all[k].0);
            assert_eq!(*fp, all[k].1.bit_fingerprint(), "new executor vs run_all");
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
            run_streaming_profiled(&specs, threads, &mut prof, |_, _, r| {
                profiled.push(r.bit_fingerprint());
            });
            assert_eq!(profiled, plain, "profiling must not change results (threads={threads})");
            let report = prof.report();
            let reduce = report.span("exec.reduce").expect("reduce span");
            assert_eq!(reduce.count, 6);
            if threads == 1 {
                assert_eq!(report.span("exec.emulate").expect("emulate span").count, 6);
                assert!(report.span("exec.recv_wait").is_none());
            } else {
                assert_eq!(report.span("exec.recv_wait").expect("wait span").count, 6);
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
        let serial: u64 = run_all(mk_specs(7), 1).iter().map(|(_, r)| r.jobs_completed).sum();
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
        let results = run_all(specs, 2);
        assert_eq!(results.len(), 4);
        // All specs (and their temporary emulators) are gone again.
        assert_eq!(Arc::strong_count(&scenario), 1);
    }

    #[test]
    fn empty_specs() {
        assert!(run_all(vec![], 4).is_empty());
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
        let clean = run_all(mk_specs(6), 1);
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

    #[test]
    fn checkpointed_run_resumes_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("bce-runckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let every = SimDuration::from_mins(20.0);
        let plain = run_all(mk_specs(1), 1);

        // Simulate a crash: capture the first mid-run checkpoint and drop
        // it under the file name the executor derives for this label.
        let spec = &mk_specs(1)[0];
        let emu = Emulator::new(spec.scenario.clone(), spec.client, spec.emulator.clone());
        let mut captured: Option<CheckpointState> = None;
        emu.run_with_checkpoints_in(&mut EmulatorArena::new(), every, |ckpt| {
            if captured.is_none() {
                captured = Some(ckpt.clone());
            }
        });
        let mid = captured.expect("a mid-run checkpoint");
        assert!(!mid.finished(), "checkpoint must be mid-run for this test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(checkpoint_file_name(&spec.label));
        mid.write_atomic(&path).unwrap();

        // Re-running the same spec with a checkpoint policy must resume
        // from the dropped file, finish bit-identical, and remove it.
        let ckpt_emu = EmulatorConfig {
            checkpoint: Some(CheckpointPolicy { dir: dir.clone(), every }),
            ..short()
        };
        let specs = vec![RunSpec::new("run0", tiny_scenario(0), ClientConfig::default())
            .with_emulator(Arc::new(ckpt_emu))];
        let resumed = run_all(specs.clone(), 1);
        assert_eq!(resumed[0].1.bit_fingerprint(), plain[0].1.bit_fingerprint());
        assert!(!path.exists(), "checkpoint removed after completion");

        // A fresh checkpointed run (no file on disk) is also unchanged.
        let fresh = run_all(specs, 1);
        assert_eq!(fresh[0].1.bit_fingerprint(), plain[0].1.bit_fingerprint());
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_file_names_are_safe_and_distinct() {
        let a = checkpoint_file_name("default/host 17: weird*chars");
        assert!(a.ends_with(".ckpt"));
        assert!(a.chars().all(|c| c.is_ascii_alphanumeric() || "-._".contains(c)));
        assert_ne!(checkpoint_file_name("a/b"), checkpoint_file_name("a_b"));
    }
}
