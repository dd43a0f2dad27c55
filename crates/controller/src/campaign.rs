//! Resumable population campaigns: the supervised executor plus a
//! periodic, atomically-written campaign checkpoint, so a 100k-run study
//! killed at run 99,999 restarts from run 99,999 — not from zero — and a
//! single panicking run is quarantined instead of aborting the campaign.
//!
//! The campaign checkpoint holds the completed-run bitmap (which, because
//! reduction happens in submission order, is always a prefix — the
//! parser enforces that invariant), every quarantined [`RunError`], and
//! each policy's per-metric sample in submission order. The moments and
//! the exact p95 are functions of that sample, computed once at the end,
//! so restoring it and finishing the remaining runs produces outcomes
//! bit-identical to an uninterrupted study.
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
use bce_core::{EmulatorConfig, Scenario};
use bce_sim::Fnv64;
use bce_statefile::{
    attr_parse, envelope, fmt_f64_bits, fmt_u64_hex, open_envelope, parse_u64_hex, req_attr,
    req_child, CheckpointStore, CodecError, IoOp, RecoveryReport, SharedIo, StoreError,
    WriteReceipt, XmlNode, DEFAULT_KEEP_GENERATIONS,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Campaign checkpoint document version. Bumped to 2 when the Welford
/// moments (`n`, `mean`, `m2`, `min`, `max`) left each metric: they are
/// recomputed from the retained sample, which is all v2 stores.
const VERSION: u32 = 2;
/// Campaign checkpoint document root element.
const ROOT: &str = "bce_campaign";

/// Reading, decoding or writing a campaign checkpoint failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The document failed to decode (malformed XML, wrong root, newer
    /// version, missing or malformed field).
    Codec(CodecError),
    /// A filesystem operation failed. Carries which operation and which
    /// path, so a daemon log line is actionable without strace.
    Io { op: IoOp, path: PathBuf, source: std::io::Error },
    /// No generation passed its checksummed frame — truncation, bit rot,
    /// or a torn rename. Distinct from [`CheckpointError::Codec`]: the
    /// *storage* is damaged, not the document schema.
    Corrupt { path: PathBuf, reason: String },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Codec(e) => write!(f, "checkpoint decode error: {e}"),
            CheckpointError::Io { op, path, source } => {
                write!(f, "checkpoint i/o error: {op} {}: {source}", path.display())
            }
            CheckpointError::Corrupt { path, reason } => {
                write!(f, "checkpoint corrupt: {}: {reason}", path.display())
            }
        }
    }
}
impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Error starting, checkpointing or resuming a campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// Reading, decoding or writing the checkpoint file failed.
    Checkpoint(CheckpointError),
    /// The checkpoint belongs to a different campaign (different
    /// scenarios, policies or emulator settings); resuming it here could
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

/// Checkpointing/resume options for `population_campaign`.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Base path of the campaign checkpoint store; generations live
    /// beside it as `<path>.<gen>`. `None` disables checkpointing (and
    /// `resume` is then meaningless).
    pub checkpoint_path: Option<PathBuf>,
    /// Write a checkpoint every this many completed runs (0 = only the
    /// final completion checkpoint).
    pub checkpoint_every_runs: usize,
    /// Resume from the newest *valid* generation under `checkpoint_path`.
    /// A missing, mismatched, or all-generations-corrupt store is an error
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
    /// Per-policy aggregated outcomes: Welford moments and the exact p95
    /// of each figure of merit over the policy's successful runs.
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

/// A serializable snapshot of a campaign in flight. Opaque outside this
/// module; produced and consumed by `population_campaign`.
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    fingerprint: u64,
    total: usize,
    completed: usize,
    errors: Vec<RunError>,
    /// `[policy][metric]` samples, in submission order.
    accums: Vec<Vec<Vec<f64>>>,
}

impl CampaignCheckpoint {
    /// Serialize to the versioned XML document format.
    pub fn to_xml_string(&self) -> String {
        let mut root = envelope(ROOT, VERSION);

        let mut c = XmlNode::new("campaign");
        c.attrs.push(("fingerprint".into(), fmt_u64_hex(self.fingerprint)));
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
        let text = words.iter().map(|&w| fmt_u64_hex(w)).collect::<Vec<_>>().join(" ");
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
            for values in policy {
                p.push(XmlNode::with_text(
                    "metric",
                    values.iter().map(|&v| fmt_f64_bits(v)).collect::<Vec<_>>().join(" "),
                ));
            }
            accums.push(p);
        }
        root.push(accums);
        root.render()
    }

    /// Parse a serialized campaign checkpoint. Malformed input returns
    /// an error, never panics; internal inconsistencies (bitmap not a
    /// prefix, metric samples of different lengths) are rejected too,
    /// and so is a v1 document.
    pub(crate) fn from_xml_str(src: &str) -> Result<Self, CampaignError> {
        let (v, root) = open_envelope(src, ROOT, VERSION)?;
        if v < VERSION {
            return Err(CodecError::BadVersion(format!(
                "v{v} campaign checkpoint predates sample-only accumulators (need v{VERSION})"
            ))
            .into());
        }

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
                let values: Vec<f64> = m
                    .text
                    .split_whitespace()
                    .map(|w| parse_u64_hex(w).map(f64::from_bits))
                    .collect::<Result<_, _>>()?;
                policy.push(values);
            }
            if policy.len() != Metric::ALL.len() {
                return Err(CampaignError::Mismatch(format!(
                    "policy accumulator has {} metrics, expected {}",
                    policy.len(),
                    Metric::ALL.len()
                )));
            }
            // One value per successful run in every metric.
            if policy.iter().any(|values| values.len() != policy[0].len()) {
                return Err(CampaignError::Mismatch(
                    "policy metrics hold samples of different lengths".into(),
                ));
            }
            accums.push(policy);
        }

        Ok(CampaignCheckpoint { fingerprint, total, completed, errors, accums })
    }

    /// Publish this checkpoint as the next generation of `store`.
    pub(crate) fn write_store(
        &self,
        store: &CheckpointStore,
    ) -> Result<WriteReceipt, CampaignError> {
        store.write(self.to_xml_string().as_bytes()).map_err(|e| store_error(store.base(), e))
    }

    /// Open the newest generation of `store` that both passes CRC
    /// validation and parses as a campaign checkpoint, falling back past
    /// corrupt ones; the [`RecoveryReport`] says what was skipped.
    ///
    /// A store whose every generation is intact but refused for its
    /// format version is a [`CampaignError::Mismatch`], not corruption:
    /// the disk is fine, and no generation can ever parse in this build.
    pub(crate) fn read_store(
        store: &CheckpointStore,
    ) -> Result<(Self, RecoveryReport), CampaignError> {
        let mut refused_versions = Vec::new();
        let opened = store.open_latest_with(|text| {
            Self::from_xml_str(text).map_err(|e| {
                if let CampaignError::Checkpoint(CheckpointError::Codec(
                    c @ (CodecError::BadVersion(_) | CodecError::UnsupportedVersion { .. }),
                )) = &e
                {
                    refused_versions.push(c.to_string());
                }
                e.to_string()
            })
        });
        match opened {
            Err(StoreError::NoValidGeneration { rejected })
                if rejected.len() == refused_versions.len() =>
            {
                let detail = rejected
                    .iter()
                    .zip(&refused_versions)
                    .map(|(r, why)| format!("gen {}: {why}", r.generation))
                    .collect::<Vec<_>>()
                    .join("; ");
                Err(CampaignError::Mismatch(format!(
                    "{}: no generation is in this build's format v{VERSION} ({detail}); \
                     rerun without --resume to start the campaign afresh",
                    store.base().display()
                )))
            }
            opened => opened.map_err(|e| store_error(store.base(), e)),
        }
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
            accums: accums.iter().map(|a| a.values.clone()).collect(),
        }
    }

    fn restore_accums(&self) -> Vec<PolicyAccum> {
        self.accums.iter().map(|values| PolicyAccum { values: values.clone() }).collect()
    }
}

/// Identity of a campaign: every input that determines its results —
/// each policy's label and [`ClientConfig`], each scenario's full
/// content, and the emulator settings (horizon, fault overlay, server and
/// scheduling parameters). Excluded are the thread count (results are
/// bit-identical across thread counts, so a campaign may resume with a
/// different `-j`) and the observation-only settings (trace capacity,
/// profiling).
fn campaign_fingerprint(
    scenarios: &[Arc<Scenario>],
    policies: &[(String, ClientConfig)],
    emulator: &EmulatorConfig,
) -> u64 {
    use std::fmt::Write as _;
    /// Feeds formatted text straight into the hash, without a buffer.
    struct HashWriter<'a>(&'a mut Fnv64);
    impl std::fmt::Write for HashWriter<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.bytes(s.as_bytes());
            Ok(())
        }
    }
    let decisive = EmulatorConfig { trace_capacity: 0, profile: false, ..emulator.clone() };
    let mut h = Fnv64::new();
    // `Debug` renders every field, floats exactly (shortest round trip),
    // and none of these types holds an unordered collection, so the text
    // is a canonical form of the inputs.
    write!(HashWriter(&mut h), "{policies:?}{scenarios:?}{decisive:?}")
        .expect("hashing into memory cannot fail");
    h.finish()
}

/// Run a population study under the supervised executor, optionally
/// writing periodic campaign checkpoints and resuming from one.
/// Front ends do not call this directly: they build a
/// [`CampaignManifest`](crate::CampaignManifest) and go through
/// [`run_manifest`](crate::run_manifest).
///
/// Outcomes are bit-identical whatever the thread count and however
/// often the campaign is stopped and resumed; panicking runs are
/// quarantined into [`CampaignReport::errors`] and simply absent from the
/// aggregates (each policy's `scenarios_run` counts its successful runs).
pub(crate) fn population_campaign(
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
                "fingerprint differs (other scenarios, policies or emulator settings)".into(),
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
            let ok_runs = accum.values.first().map_or(0, Vec::len);
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

#[cfg(test)]
mod resume_tests;
