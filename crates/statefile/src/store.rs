//! Generation-rotated, corruption-tolerant checkpoint store.
//!
//! A single atomic checkpoint file survives a crash *during* the write,
//! but not damage *after* it: one bit-flip, torn rename, or power-cut
//! truncation of the only copy turns a 100k-run campaign into a fatal
//! error. The store keeps the last N generations as `<base>.<gen>`,
//! frames every generation with a CRC-64 checksum ([`crate::frame`]),
//! and on open walks generations newest-first, falling back past corrupt
//! ones and reporting what it skipped in a typed [`RecoveryReport`]
//! instead of failing.
//!
//! Semantics callers rely on:
//!
//! * **The directory scan is authoritative.** Only `<base>.<digits>`
//!   files are generations; nothing else in the directory (a bare
//!   `<base>`, a `.tmp` or `.manifest` left by an earlier build) is read.
//! * **Fallback is loud.** Opening an older generation succeeds but the
//!   report lists every rejected newer generation and why.
//! * **All-corrupt is fatal.** If generations exist but none validates,
//!   the store returns [`StoreError::NoValidGeneration`] — it never
//!   silently restarts from scratch.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::frame;
use crate::io::{IoOp, RealIo, SharedIo};

/// Default number of generations to keep on disk.
pub const DEFAULT_KEEP_GENERATIONS: usize = 3;

/// Why the store could not produce a checkpoint.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed; carries what, where, and the OS error.
    Io { op: IoOp, path: PathBuf, source: std::io::Error },
    /// Nothing to open: no generation files.
    NoCheckpoint,
    /// Generations exist but every one failed validation. Deliberately
    /// distinct from [`StoreError::NoCheckpoint`]: callers must not
    /// treat "all copies corrupt" as "fresh start".
    NoValidGeneration { rejected: Vec<RejectedGeneration> },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "checkpoint I/O failed: {op} {}: {source}", path.display())
            }
            StoreError::NoCheckpoint => write!(f, "no checkpoint found"),
            StoreError::NoValidGeneration { rejected } => {
                write!(f, "no valid checkpoint generation ({} rejected:", rejected.len())?;
                for r in rejected {
                    write!(f, " [gen {}: {}]", r.generation, r.reason)?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One generation the store examined and refused, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedGeneration {
    pub generation: u64,
    pub reason: String,
}

/// What [`CheckpointStore::open_latest_with`] actually did: which
/// generation it opened and every newer generation it had to reject on
/// the way.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Generation opened.
    pub(crate) opened_generation: u64,
    /// Newer generations rejected before one validated, newest first.
    pub(crate) rejected: Vec<RejectedGeneration>,
}

impl RecoveryReport {
    /// Did the open fall back past at least one corrupt generation?
    pub fn recovered(&self) -> bool {
        !self.rejected.is_empty()
    }

    /// One-line operator-facing summary.
    pub fn describe(&self) -> String {
        let opened = self.opened_generation;
        if self.rejected.is_empty() {
            format!("opened generation {opened}")
        } else {
            let skipped: Vec<String> = self
                .rejected
                .iter()
                .map(|r| format!("gen {} ({})", r.generation, r.reason))
                .collect();
            format!("opened generation {opened} after rejecting {}", skipped.join(", "))
        }
    }
}

/// Receipt for one durable write: how many old generations rotation
/// pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReceipt {
    pub pruned: u64,
}

/// A rotation of checksummed checkpoint generations under one base path.
///
/// For base `dir/pop.ckpt` the on-disk layout is:
///
/// ```text
/// dir/pop.ckpt.1          oldest kept generation (framed)
/// dir/pop.ckpt.2
/// dir/pop.ckpt.3          newest generation (framed)
/// dir/pop.ckpt.tmp        the next generation while it is written
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    base: PathBuf,
    file_name: String,
    keep: usize,
    io: SharedIo,
}

impl CheckpointStore {
    /// A store over `base` keeping `keep` generations, using `io` for
    /// every filesystem touch. `keep` is clamped to at least 1.
    pub fn new(base: impl Into<PathBuf>, keep: usize, io: SharedIo) -> Self {
        let base = base.into();
        let file_name = base
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "ckpt".to_string());
        CheckpointStore { base, file_name, keep: keep.max(1), io }
    }

    /// A store over `base` with the production [`RealIo`] backend.
    pub fn with_real_io(base: impl Into<PathBuf>, keep: usize) -> Self {
        CheckpointStore::new(base, keep, Arc::new(RealIo))
    }

    pub fn base(&self) -> &Path {
        &self.base
    }

    fn dir(&self) -> PathBuf {
        self.base
            .parent()
            .map(Path::to_path_buf)
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or_else(|| PathBuf::from("."))
    }

    /// Path of generation `gen`.
    pub fn generation_path(&self, gen: u64) -> PathBuf {
        self.dir().join(format!("{}.{gen}", self.file_name))
    }

    fn tmp_path(&self) -> PathBuf {
        self.dir().join(format!("{}.tmp", self.file_name))
    }

    /// Is there anything to resume from — any generation file?
    /// (Corrupt counts as "something": resuming must then either recover
    /// or fail loudly, never restart silently.)
    pub fn any_checkpoint_present(&self) -> bool {
        !self.generations_on_disk().unwrap_or_default().is_empty()
    }

    /// Generation numbers currently on disk, ascending. A missing
    /// directory reads as empty.
    pub fn generations_on_disk(&self) -> Result<Vec<u64>, StoreError> {
        let dir = self.dir();
        let names = match self.io.list_dir(&dir) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::Io { op: IoOp::List, path: dir, source: e }),
        };
        let prefix = format!("{}.", self.file_name);
        let mut gens: Vec<u64> = names
            .iter()
            .filter_map(|n| n.strip_prefix(&prefix))
            .filter_map(|suffix| {
                // Only all-digit suffixes are generations; `.tmp` lives
                // in the same namespace.
                if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
                    suffix.parse().ok()
                } else {
                    None
                }
            })
            .collect();
        gens.sort_unstable();
        gens.dedup();
        Ok(gens)
    }

    /// Remove every generation on disk, so the store holds nothing to
    /// resume from. Files already gone are fine; the first other failure
    /// is returned.
    pub fn clear(&self) -> Result<(), StoreError> {
        for path in self.generations_on_disk()?.into_iter().map(|g| self.generation_path(g)) {
            match self.io.remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(StoreError::Io { op: IoOp::Remove, path, source: e });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Frame `payload`, publish it as the next generation, and prune
    /// generations beyond the keep limit.
    ///
    /// Durability: the framed bytes are fsynced in a temp file, renamed
    /// into place, and the parent directory fsynced — a crash at any
    /// point leaves either the old newest generation or the new one,
    /// never a half-written newest.
    pub fn write(&self, payload: &[u8]) -> Result<WriteReceipt, StoreError> {
        let dir = self.dir();
        self.io.create_dir_all(&dir).map_err(|e| StoreError::Io {
            op: IoOp::CreateDir,
            path: dir.clone(),
            source: e,
        })?;

        let gens = self.generations_on_disk()?;
        let generation = gens.last().copied().unwrap_or(0) + 1;
        let framed = frame::encode(payload);

        let tmp = self.tmp_path();
        if let Err(e) = self.io.write_durable(&tmp, &framed) {
            let _ = self.io.remove_file(&tmp);
            return Err(StoreError::Io { op: IoOp::Write, path: tmp, source: e });
        }
        let gen_path = self.generation_path(generation);
        if let Err(e) = self.io.rename(&tmp, &gen_path) {
            let _ = self.io.remove_file(&tmp);
            return Err(StoreError::Io { op: IoOp::Rename, path: gen_path, source: e });
        }
        self.io.sync_dir(&dir).map_err(|e| StoreError::Io {
            op: IoOp::Fsync,
            path: dir.clone(),
            source: e,
        })?;

        // Prune beyond the keep window, oldest first. Best-effort: a
        // prune failure leaves extra history, which is safe.
        let mut pruned = 0u64;
        if gens.len() + 1 > self.keep {
            let excess = gens.len() + 1 - self.keep;
            for &old in gens.iter().take(excess) {
                if self.io.remove_file(&self.generation_path(old)).is_ok() {
                    pruned += 1;
                }
            }
            if pruned > 0 {
                let _ = self.io.sync_dir(&dir);
            }
        }

        Ok(WriteReceipt { pruned })
    }

    /// Open the newest generation whose frame validates **and** whose
    /// payload `parse` accepts, falling back past corrupt ones. Returns
    /// the parsed value plus a [`RecoveryReport`]. Running `parse` inside
    /// the walk means a
    /// CRC-valid generation with an unparseable payload (e.g. interrupted
    /// schema migration) also falls back instead of failing.
    pub fn open_latest_with<T>(
        &self,
        mut parse: impl FnMut(&str) -> Result<T, String>,
    ) -> Result<(T, RecoveryReport), StoreError> {
        let mut rejected = Vec::new();
        for gen in self.generations_on_disk()?.into_iter().rev() {
            let reason = match self.io.read(&self.generation_path(gen)) {
                Err(e) => format!("read failed: {e}"),
                Ok(bytes) => match frame::decode(&bytes) {
                    Err(e) => format!("{e}"),
                    Ok(payload) => match std::str::from_utf8(payload) {
                        Err(_) => "payload is not valid UTF-8".to_string(),
                        Ok(text) => match parse(text) {
                            Err(e) => format!("payload rejected: {e}"),
                            Ok(value) => {
                                let report = RecoveryReport { opened_generation: gen, rejected };
                                return Ok((value, report));
                            }
                        },
                    },
                },
            };
            rejected.push(RejectedGeneration { generation: gen, reason });
        }
        if rejected.is_empty() {
            Err(StoreError::NoCheckpoint)
        } else {
            Err(StoreError::NoValidGeneration { rejected })
        }
    }

    /// Read the newest valid generation's raw payload without parsing.
    pub fn read_latest(&self) -> Result<(Vec<u8>, RecoveryReport), StoreError> {
        let (text, report) = self.open_latest_with(|t| Ok::<String, String>(t.to_string()))?;
        Ok((text.into_bytes(), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bce-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn store(dir: &Path, keep: usize) -> CheckpointStore {
        CheckpointStore::with_real_io(dir.join("pop.ckpt"), keep)
    }

    #[test]
    fn write_read_roundtrip_and_rotation() {
        let dir = scratch("rot");
        let s = store(&dir, 3);
        for i in 1..=5u64 {
            s.write(format!("payload-{i}").as_bytes()).unwrap();
            assert_eq!(s.generations_on_disk().unwrap().last(), Some(&i));
        }
        assert_eq!(s.generations_on_disk().unwrap(), vec![3, 4, 5]);
        let (bytes, report) = s.read_latest().unwrap();
        assert_eq!(bytes, b"payload-5");
        assert_eq!(report.opened_generation, 5);
        assert!(!report.recovered());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_leaves_nothing_to_resume() {
        let dir = scratch("clear");
        let s = store(&dir, 3);
        for payload in [b"a", b"b"] {
            s.write(payload).unwrap();
        }
        s.clear().unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "files left behind");
        assert!(!s.any_checkpoint_present());
        assert!(matches!(s.read_latest(), Err(StoreError::NoCheckpoint)));
        s.clear().unwrap(); // clearing an empty store is fine
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_counts_are_reported() {
        let dir = scratch("prune");
        let s = store(&dir, 2);
        assert_eq!(s.write(b"a").unwrap().pruned, 0);
        assert_eq!(s.write(b"b").unwrap().pruned, 0);
        assert_eq!(s.write(b"c").unwrap().pruned, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_with_report() {
        let dir = scratch("fallback");
        let s = store(&dir, 3);
        s.write(b"old-good").unwrap();
        s.write(b"new-good").unwrap();
        // Truncate the newest generation mid-frame.
        let newest = s.generation_path(2);
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

        let (payload, report) = s.read_latest().unwrap();
        assert_eq!(payload, b"old-good");
        assert_eq!(report.opened_generation, 1);
        assert!(report.recovered());
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].generation, 2);
        assert!(report.describe().contains("rejecting"), "{}", report.describe());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_rejection_also_falls_back() {
        let dir = scratch("parse");
        let s = store(&dir, 3);
        s.write(b"good").unwrap();
        s.write(b"BAD").unwrap();
        let (v, report) = s
            .open_latest_with(|t| {
                if t == "BAD" {
                    Err("schema mismatch".into())
                } else {
                    Ok(t.to_string())
                }
            })
            .unwrap();
        assert_eq!(v, "good");
        assert!(report.rejected[0].reason.contains("schema mismatch"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_is_no_valid_generation_not_fresh_start() {
        let dir = scratch("allbad");
        let s = store(&dir, 3);
        s.write(b"a").unwrap();
        s.write(b"b").unwrap();
        for gen in [1u64, 2] {
            fs::write(s.generation_path(gen), b"garbage").unwrap();
        }
        match s.read_latest() {
            Err(StoreError::NoValidGeneration { rejected }) => assert_eq!(rejected.len(), 2),
            other => panic!("expected NoValidGeneration, got {other:?}"),
        }
        assert!(s.any_checkpoint_present());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_is_no_checkpoint() {
        let dir = scratch("empty");
        let s = store(&dir, 3);
        assert!(matches!(s.read_latest(), Err(StoreError::NoCheckpoint)));
        assert!(!s.any_checkpoint_present());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bare_base_file_is_not_a_checkpoint() {
        // Earlier builds could leave a bare `<base>` file, framed or not;
        // this build never reads it.
        let dir = scratch("bare");
        let s = store(&dir, 3);
        for bytes in [b"<bce_checkpoint version=\"2\"/>".to_vec(), frame::encode(b"bare")] {
            fs::write(dir.join("pop.ckpt"), bytes).unwrap();
            assert!(!s.any_checkpoint_present());
            assert!(matches!(s.read_latest(), Err(StoreError::NoCheckpoint)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn generations_win_over_bare_file() {
        let dir = scratch("mixed");
        let s = store(&dir, 3);
        fs::write(dir.join("pop.ckpt"), frame::encode(b"bare")).unwrap();
        s.write(b"framed").unwrap();
        fs::write(s.generation_path(1), b"garbage").unwrap();
        // With the only generation corrupt, the bare file is still no
        // fallback.
        match s.read_latest() {
            Err(StoreError::NoValidGeneration { rejected }) => assert_eq!(rejected.len(), 1),
            other => panic!("expected NoValidGeneration, got {other:?}"),
        }
        s.write(b"framed").unwrap();
        let (bytes, report) = s.read_latest().unwrap();
        assert_eq!(bytes, b"framed");
        assert_eq!(report.opened_generation, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_leaves_only_the_kept_generations() {
        let dir = scratch("listing");
        let s = store(&dir, 3);
        for payload in [b"a", b"b", b"c", b"d"] {
            s.write(payload).unwrap();
        }
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["pop.ckpt.2", "pop.ckpt.3", "pop.ckpt.4"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_and_tmp_are_not_mistaken_for_generations() {
        let dir = scratch("names");
        let s = store(&dir, 3);
        s.write(b"x").unwrap();
        fs::write(dir.join("pop.ckpt.tmp"), b"junk").unwrap();
        fs::write(dir.join("pop.ckpt.manifest"), b"latest 9").unwrap();
        fs::write(dir.join("pop.ckpt.17abc"), b"junk").unwrap();
        assert_eq!(s.generations_on_disk().unwrap(), vec![1]);
        let _ = fs::remove_dir_all(&dir);
    }
}
