//! Resumable population campaigns: the supervised executor plus a
//! periodic, atomically-written campaign checkpoint, so a 100k-run study
//! killed at run 99,999 restarts from run 99,999 — not from zero — and a
//! single panicking run is quarantined instead of aborting the campaign.
//!
//! The campaign checkpoint holds the completed-run bitmap (which, because
//! reduction happens in submission order, is always a prefix — the
//! parser enforces that invariant), every quarantined [`RunError`], and
//! the full per-policy accumulator state: Welford moments *and* the
//! retained per-metric sample (needed for the exact p95). Restoring it
//! and finishing the remaining runs therefore produces outcomes
//! bit-identical to an uninterrupted study — the same oracle discipline
//! the run-level [`bce_core::CheckpointState`] keeps.
//!
//! Checkpoints are stored through the generation-rotated
//! [`bce_statefile::CheckpointStore`]: each write publishes a CRC-64
//! framed `<path>.<gen>` with the full fsync discipline, the last N
//! generations are kept, and resume opens the newest generation that
//! validates — falling back past a corrupt one with a loud
//! [`RecoveryReport`] instead of failing. A crash mid-write leaves the
//! previous generation intact; damage *after* a write (bit rot, torn
//! rename, power-cut truncation) costs at most one checkpoint interval,
//! not the campaign.

use crate::montecarlo::{population_specs, PolicyAccum, PopulationOutcome};
use crate::run::{run_supervised, RunError};
use crate::sweep::Metric;
use bce_client::ClientConfig;
use bce_core::{CheckpointError, EmulatorConfig, Scenario};
use bce_sim::{Fnv64, OnlineStats};
use bce_statefile::{
    attr_f64_bits, attr_parse, envelope, fmt_f64_bits, open_envelope, parse_u64_hex, req_attr,
    req_child, CheckpointStore, CodecError, IoOp, RecoveryReport, SharedIo, StoreError,
    WriteReceipt, XmlNode, DEFAULT_KEEP_GENERATIONS,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Campaign checkpoint document version.
const VERSION: u32 = 1;
/// Campaign checkpoint document root element.
const ROOT: &str = "bce_campaign";

/// Error starting, checkpointing or resuming a campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// Reading, decoding or writing the checkpoint file failed.
    Checkpoint(CheckpointError),
    /// The checkpoint belongs to a different campaign (different
    /// scenarios, policies or emulator horizon); resuming it here could
    /// not reproduce the uninterrupted study.
    Mismatch(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Checkpoint(e) => write!(f, "campaign checkpoint: {e}"),
            CampaignError::Mismatch(what) => {
                write!(f, "campaign checkpoint does not match this study: {what}")
            }
        }
    }
}
impl std::error::Error for CampaignError {}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}
impl From<CodecError> for CampaignError {
    fn from(e: CodecError) -> Self {
        CampaignError::Checkpoint(CheckpointError::Codec(e))
    }
}

/// Map a store failure onto the existing [`CampaignError`] surface, so
/// retry loops keyed on [`CampaignError::Checkpoint`] keep working:
/// filesystem failures stay `Io`, corruption becomes `Corrupt`, and a
/// missing checkpoint stays an `Io` open/NotFound (exactly what the
/// pre-rotation single-file read produced).
fn store_error(base: &Path, e: StoreError) -> CampaignError {
    match e {
        StoreError::Io { op, path, source } => {
            CampaignError::Checkpoint(CheckpointError::Io { op, path, source })
        }
        StoreError::NoCheckpoint => CampaignError::Checkpoint(CheckpointError::Io {
            op: IoOp::Open,
            path: base.to_path_buf(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "no checkpoint found"),
        }),
        StoreError::NoValidGeneration { rejected } => {
            let detail = rejected
                .iter()
                .map(|r| format!("gen {}: {}", r.generation, r.reason))
                .collect::<Vec<_>>()
                .join("; ");
            CampaignError::Checkpoint(CheckpointError::Corrupt {
                path: base.to_path_buf(),
                reason: format!("every checkpoint generation is corrupt ({detail})"),
            })
        }
    }
}

/// Checkpointing/resume options for [`population_campaign`].
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Base path of the campaign checkpoint store; generations live
    /// beside it as `<path>.<gen>` plus a `<path>.manifest` hint. `None`
    /// disables checkpointing (and `resume` is then meaningless).
    pub checkpoint_path: Option<PathBuf>,
    /// Write a checkpoint every this many completed runs (0 = only the
    /// final completion checkpoint).
    pub checkpoint_every_runs: usize,
    /// Resume from the newest *valid* generation under `checkpoint_path`
    /// (a framed bare file at the base path is the last resort). A
    /// missing, mismatched, or all-generations-corrupt store is an error
    /// — silently starting over would discard work the user explicitly
    /// asked to keep.
    pub resume: bool,
    /// Budgeted execution: stop after this many runs (beyond any resumed
    /// prefix), write the checkpoint, and return the partial report.
    /// `None` runs to completion. This is also how tests emulate a kill
    /// deterministically — the on-disk state after `stop_after_runs: k`
    /// is exactly what a SIGKILL after run `k` would have left.
    pub stop_after_runs: Option<usize>,
    /// How many checkpoint generations rotation keeps (clamped to ≥ 1).
    pub keep_generations: usize,
    /// I/O backend for checkpoint storage. `None` is the production
    /// filesystem; chaos tests inject a fault-driven backend here.
    pub io: Option<SharedIo>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            checkpoint_path: None,
            checkpoint_every_runs: 0,
            resume: false,
            stop_after_runs: None,
            keep_generations: DEFAULT_KEEP_GENERATIONS,
            io: None,
        }
    }
}

impl CampaignOptions {
    /// The generation store these options describe, if checkpointing is
    /// enabled. Serve and the CLI use the same construction so "is there
    /// something to resume?" agrees with what the campaign will open.
    pub fn store(&self) -> Option<CheckpointStore> {
        self.checkpoint_path.as_ref().map(|path| match &self.io {
            Some(io) => CheckpointStore::new(path, self.keep_generations, io.clone()),
            None => CheckpointStore::with_real_io(path, self.keep_generations),
        })
    }
}

/// What a (possibly resumed) campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-policy aggregated outcomes, exactly as
    /// [`population_study`](crate::population_study) would report for the
    /// same inputs.
    pub outcomes: Vec<PopulationOutcome>,
    /// Runs quarantined by the supervised executor, in submission order.
    pub errors: Vec<RunError>,
    /// Runs skipped because the checkpoint had already completed them.
    pub resumed_runs: usize,
    /// Runs completed so far (resumed + executed). Less than
    /// `total_runs` only under [`CampaignOptions::stop_after_runs`], in
    /// which case the outcomes aggregate a partial campaign.
    pub completed_runs: usize,
    /// Total runs in the campaign (policies × scenarios).
    pub total_runs: usize,
    /// How the resume opened the store, when it resumed: which
    /// generation, and whether corrupt newer generations were skipped
    /// ([`RecoveryReport::recovered`]). `None` when the campaign did not
    /// resume.
    pub recovery: Option<RecoveryReport>,
    /// Mid-flight checkpoint writes that failed (best-effort writes
    /// degrade crash-safety, not the study — but operators should see
    /// the count climbing).
    pub checkpoint_write_failures: u64,
    /// Old generations removed by rotation during this campaign.
    pub generations_pruned: u64,
}

/// One metric's accumulator state: Welford parts plus the retained
/// sample.
#[derive(Debug, Clone)]
struct MetricAccumState {
    parts: (u64, f64, f64, f64, f64),
    values: Vec<f64>,
}

/// A serializable snapshot of a campaign in flight. Opaque outside this
/// module; produced and consumed by [`population_campaign`].
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    fingerprint: u64,
    total: usize,
    completed: usize,
    errors: Vec<RunError>,
    /// `[policy][metric]` accumulator states.
    accums: Vec<Vec<MetricAccumState>>,
}

impl CampaignCheckpoint {
    /// Runs already completed (always a submission-order prefix).
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Total runs in the campaign.
    pub fn total(&self) -> usize {
        self.total
    }

    /// `true` once every run has completed; resuming a complete
    /// checkpoint reproduces the outcomes without emulating anything.
    pub fn is_complete(&self) -> bool {
        self.completed >= self.total
    }

    /// Serialize to the versioned XML document format.
    pub fn to_xml_string(&self) -> String {
        let mut root = envelope(ROOT, VERSION);

        let mut c = XmlNode::new("campaign");
        c.attrs.push(("fingerprint".into(), format!("{:016x}", self.fingerprint)));
        c.attrs.push(("total".into(), self.total.to_string()));
        c.attrs.push(("completed".into(), self.completed.to_string()));
        root.push(c);

        // Completed-run bitmap, one hex word per 64 runs. Redundant with
        // `completed` today (reduction is submission-ordered, so the set
        // is a prefix) but explicit in the format, and verified on load.
        let nwords = self.total.div_ceil(64);
        let mut words = vec![0u64; nwords];
        for i in 0..self.completed {
            words[i / 64] |= 1u64 << (i % 64);
        }
        let text = words.iter().map(|w| format!("{w:016x}")).collect::<Vec<_>>().join(" ");
        root.push(XmlNode::with_text("bitmap", text));

        let mut errs = XmlNode::new("errors");
        for e in &self.errors {
            let mut n = XmlNode::new("error");
            n.attrs.push(("index".into(), e.index.to_string()));
            n.attrs.push(("label".into(), e.label.clone()));
            n.attrs.push(("message".into(), e.message.clone()));
            errs.push(n);
        }
        root.push(errs);

        let mut accums = XmlNode::new("accums");
        for policy in &self.accums {
            let mut p = XmlNode::new("policy");
            for m in policy {
                let (n, mean, m2, min, max) = m.parts;
                let mut node = XmlNode::with_text(
                    "metric",
                    m.values.iter().map(|&v| fmt_f64_bits(v)).collect::<Vec<_>>().join(" "),
                );
                node.attrs.push(("n".into(), n.to_string()));
                node.attrs.push(("mean".into(), fmt_f64_bits(mean)));
                node.attrs.push(("m2".into(), fmt_f64_bits(m2)));
                node.attrs.push(("min".into(), fmt_f64_bits(min)));
                node.attrs.push(("max".into(), fmt_f64_bits(max)));
                p.push(node);
            }
            accums.push(p);
        }
        root.push(accums);
        root.render()
    }

    /// Parse a serialized campaign checkpoint. Malformed input returns
    /// an error, never panics; internal inconsistencies (bitmap not a
    /// prefix, sample length disagreeing with the Welford count) are
    /// rejected too.
    pub fn from_xml_str(src: &str) -> Result<Self, CampaignError> {
        let (_v, root) = open_envelope(src, ROOT, VERSION)?;

        let c = req_child(&root, "campaign")?;
        let fingerprint = parse_u64_hex(req_attr(c, "fingerprint")?)?;
        let total: usize = attr_parse(c, "total")?;
        let completed: usize = attr_parse(c, "completed")?;
        if completed > total {
            return Err(CampaignError::Mismatch(format!(
                "completed {completed} exceeds total {total}"
            )));
        }

        let bitmap = req_child(&root, "bitmap")?;
        let words: Vec<u64> =
            bitmap.text.split_whitespace().map(parse_u64_hex).collect::<Result<_, _>>()?;
        if words.len() != total.div_ceil(64) {
            return Err(CampaignError::Mismatch(format!(
                "bitmap has {} words for {total} runs",
                words.len()
            )));
        }
        for i in 0..total {
            let set = words[i / 64] >> (i % 64) & 1 == 1;
            if set != (i < completed) {
                return Err(CampaignError::Mismatch(format!(
                    "completed-run bitmap is not the prefix of length {completed} (run {i})"
                )));
            }
        }

        let mut errors = Vec::new();
        for n in &req_child(&root, "errors")?.children {
            errors.push(RunError {
                index: attr_parse(n, "index")?,
                label: req_attr(n, "label")?.to_string(),
                message: req_attr(n, "message")?.to_string(),
            });
        }

        let mut accums = Vec::new();
        for p in &req_child(&root, "accums")?.children {
            let mut policy = Vec::new();
            for m in &p.children {
                let n: u64 = attr_parse(m, "n")?;
                let values: Vec<f64> = m
                    .text
                    .split_whitespace()
                    .map(|w| parse_u64_hex(w).map(f64::from_bits))
                    .collect::<Result<_, _>>()?;
                if values.len() as u64 != n {
                    return Err(CampaignError::Mismatch(format!(
                        "metric sample holds {} values but Welford n is {n}",
                        values.len()
                    )));
                }
                policy.push(MetricAccumState {
                    parts: (
                        n,
                        attr_f64_bits(m, "mean")?,
                        attr_f64_bits(m, "m2")?,
                        attr_f64_bits(m, "min")?,
                        attr_f64_bits(m, "max")?,
                    ),
                    values,
                });
            }
            if policy.len() != Metric::ALL.len() {
                return Err(CampaignError::Mismatch(format!(
                    "policy accumulator has {} metrics, expected {}",
                    policy.len(),
                    Metric::ALL.len()
                )));
            }
            accums.push(policy);
        }

        Ok(CampaignCheckpoint { fingerprint, total, completed, errors, accums })
    }

    /// Publish this checkpoint as the next generation of `store`.
    pub fn write_store(&self, store: &CheckpointStore) -> Result<WriteReceipt, CampaignError> {
        store.write(self.to_xml_string().as_bytes()).map_err(|e| store_error(store.base(), e))
    }

    /// Open the newest generation of `store` that both passes CRC
    /// validation and parses as a campaign checkpoint, falling back past
    /// corrupt ones; the [`RecoveryReport`] says what was skipped.
    pub fn read_store(store: &CheckpointStore) -> Result<(Self, RecoveryReport), CampaignError> {
        store
            .open_latest_with(|text| Self::from_xml_str(text).map_err(|e| e.to_string()))
            .map_err(|e| store_error(store.base(), e))
    }

    /// Read and parse a campaign checkpoint from the store rooted at
    /// `path`, newest valid generation first.
    pub fn read_from(path: &Path) -> Result<Self, CampaignError> {
        let store = CheckpointStore::with_real_io(path, DEFAULT_KEEP_GENERATIONS);
        Self::read_store(&store).map(|(ckpt, _)| ckpt)
    }

    fn capture(
        fingerprint: u64,
        total: usize,
        completed: usize,
        errors: &[RunError],
        accums: &[PolicyAccum],
    ) -> Self {
        CampaignCheckpoint {
            fingerprint,
            total,
            completed,
            errors: errors.to_vec(),
            accums: accums
                .iter()
                .map(|a| {
                    a.stats
                        .iter()
                        .zip(&a.values)
                        .map(|(s, v)| MetricAccumState { parts: s.parts(), values: v.clone() })
                        .collect()
                })
                .collect(),
        }
    }

    fn restore_accums(&self) -> Vec<PolicyAccum> {
        self.accums
            .iter()
            .map(|policy| PolicyAccum {
                stats: policy
                    .iter()
                    .map(|m| {
                        let (n, mean, m2, min, max) = m.parts;
                        OnlineStats::from_parts(n, mean, m2, min, max)
                    })
                    .collect(),
                values: policy.iter().map(|m| m.values.clone()).collect(),
            })
            .collect()
    }
}

/// Identity of a campaign: every input that determines its results.
/// Thread count is deliberately excluded — results are bit-identical
/// across thread counts, so a campaign may resume with a different `-j`.
fn campaign_fingerprint(
    scenarios: &[Arc<Scenario>],
    policies: &[(String, ClientConfig)],
    emulator: &EmulatorConfig,
) -> u64 {
    let mut h = Fnv64::new();
    h.u64(policies.len() as u64);
    for (label, _) in policies {
        h.bytes(label.as_bytes());
        h.bytes(&[0]);
    }
    h.u64(scenarios.len() as u64);
    for s in scenarios {
        h.bytes(s.name.as_bytes());
        h.bytes(&[0]);
        h.u64(s.seed);
    }
    h.f64(emulator.duration.secs());
    h.finish()
}

/// Run a population study under the supervised executor, optionally
/// writing periodic campaign checkpoints and resuming from one.
/// Front ends do not call this directly: they build a
/// [`CampaignManifest`](crate::CampaignManifest) and go through
/// [`run_manifest`](crate::run_manifest).
///
/// Outcomes are bit-identical to [`crate::population_study`] over the
/// same inputs when no run panics; panicking runs are quarantined into
/// [`CampaignReport::errors`] and simply absent from the aggregates (each
/// policy's `scenarios_run` counts its successful runs).
pub fn population_campaign(
    scenarios: &[Arc<Scenario>],
    policies: &[(String, ClientConfig)],
    emulator: &EmulatorConfig,
    threads: usize,
    opts: &CampaignOptions,
) -> Result<CampaignReport, CampaignError> {
    let n = scenarios.len();
    let specs = population_specs(scenarios, policies, emulator);
    let total = specs.len();
    let fingerprint = campaign_fingerprint(scenarios, policies, emulator);

    let mut accums: Vec<PolicyAccum> = policies.iter().map(|_| PolicyAccum::new(n)).collect();
    let mut errors: Vec<RunError> = Vec::new();
    let mut start = 0usize;
    let mut recovery: Option<RecoveryReport> = None;
    let store = opts.store();

    if opts.resume {
        let Some(store) = &store else {
            return Err(CampaignError::Mismatch(
                "resume requested without a checkpoint path".into(),
            ));
        };
        let (ckpt, report) = CampaignCheckpoint::read_store(store)?;
        recovery = Some(report);
        if ckpt.fingerprint != fingerprint {
            return Err(CampaignError::Mismatch(
                "fingerprint differs (other scenarios, policies or horizon)".into(),
            ));
        }
        if ckpt.total != total || ckpt.accums.len() != policies.len() {
            return Err(CampaignError::Mismatch(format!(
                "checkpoint shape ({} runs, {} policies) differs from this study ({total} runs, {} policies)",
                ckpt.total,
                ckpt.accums.len(),
                policies.len()
            )));
        }
        start = ckpt.completed;
        errors = ckpt.errors.clone();
        accums = ckpt.restore_accums();
    }

    let stop = opts.stop_after_runs.map_or(total, |k| start.saturating_add(k).min(total));
    let every = opts.checkpoint_every_runs;
    let mut write_failures = 0u64;
    let mut pruned = 0u64;
    run_supervised(&specs[start..stop], threads, |j, _, outcome| {
        let i = start + j;
        match outcome {
            Ok(result) => accums[i / n].push(&result.merit),
            Err(e) => errors.push(RunError { index: i, ..e }),
        }
        let completed = i + 1;
        if let Some(store) = &store {
            if every > 0 && completed.is_multiple_of(every) && completed < stop {
                let ckpt =
                    CampaignCheckpoint::capture(fingerprint, total, completed, &errors, &accums);
                // Best-effort mid-flight: a failed write degrades
                // crash-safety, not the study — but it is counted, so a
                // sick disk shows up in the report and serve's metrics.
                match ckpt.write_store(store) {
                    Ok(receipt) => pruned += receipt.pruned,
                    Err(_) => write_failures += 1,
                }
            }
        }
    });

    if let Some(store) = &store {
        // The final checkpoint (completion, or the stop point under a
        // run budget) is not best-effort: it is the artifact a
        // `--resume` reads.
        let receipt = CampaignCheckpoint::capture(fingerprint, total, stop, &errors, &accums)
            .write_store(store)?;
        pruned += receipt.pruned;
    }

    let outcomes = policies
        .iter()
        .zip(accums)
        .map(|((label, _), accum)| {
            let ok_runs = accum.stats.first().map_or(0, |s| s.count() as usize);
            accum.finish(label, ok_runs)
        })
        .collect();
    Ok(CampaignReport {
        outcomes,
        errors,
        resumed_runs: start,
        completed_runs: stop,
        total_runs: total,
        recovery,
        checkpoint_write_failures: write_failures,
        generations_pruned: pruned,
    })
}
