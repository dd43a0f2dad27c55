//! Injectable I/O backend for checkpoint storage.
//!
//! Every byte the checkpoint store moves goes through a [`StateIo`]
//! implementation. Production uses [`RealIo`], which adds the fsync
//! discipline plain `std::fs::write` + `rename` lacks; chaos tests and
//! the `bce chaos` CLI use [`FaultyIo`], which wraps any backend and
//! injects a seeded [`DiskFaultPlan`] schedule of short writes, EIO,
//! ENOSPC, torn renames, and power-cut truncation. The store's recovery
//! guarantees are stated against this trait, so they are *tested*
//! against hostile storage, not just assumed on a healthy laptop.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use bce_faults::{DiskFaultPlan, DiskFaultStats, ReadFault, RenameFault, WriteFault};

/// The I/O operation being attempted when an error surfaced. Carried in
/// error types so logs say *what* failed, not just that something did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    Open,
    Read,
    Write,
    Rename,
    Fsync,
    Remove,
    List,
    CreateDir,
}

impl IoOp {
    pub(crate) fn name(self) -> &'static str {
        match self {
            IoOp::Open => "open",
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Rename => "rename",
            IoOp::Fsync => "fsync",
            IoOp::Remove => "remove",
            IoOp::List => "list",
            IoOp::CreateDir => "create-dir",
        }
    }
}

impl std::fmt::Display for IoOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Filesystem surface the checkpoint store needs — deliberately small,
/// so a fault-injecting double can cover all of it.
pub trait StateIo: Send + Sync + std::fmt::Debug {
    /// Read an entire file.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;

    /// Write `bytes` to `path` (create/truncate) and fsync the file
    /// before returning. Durability of the *data* is this call's job;
    /// durability of the *name* is [`StateIo::sync_dir`]'s.
    fn write_durable(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;

    /// Atomically rename `from` over `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;

    /// Fsync a directory, persisting recent renames/unlinks within it.
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()>;

    /// Remove a file; missing files are an error (callers decide).
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;

    /// Create a directory and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()>;

    /// File names (not full paths) of directory entries.
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>>;

    /// Does `path` exist?
    fn exists(&self, path: &Path) -> bool;
}

/// The production backend: `std::fs` plus the fsync discipline the
/// atomic-replace contract actually requires — data fsynced before the
/// rename publishes it, parent directory fsynced so the new name
/// survives a crash.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl StateIo for RealIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_durable(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        // Opening a directory read-only and fsyncing it is the portable
        // unix idiom for persisting its entries. On platforms where
        // directories cannot be opened (windows), skip: NotFound and
        // similar mean the metadata journal handles it.
        match fs::File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(e) if e.kind() == std::io::ErrorKind::Unsupported => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// A fault-injecting backend: delegates to an inner [`StateIo`] but
/// consults a seeded [`DiskFaultPlan`] before every read, write, and
/// rename. Faults that "report success" (power cuts, torn renames)
/// leave truncated bytes on disk exactly as real hardware would, so
/// recovery is exercised against genuine on-disk damage.
#[derive(Debug)]
pub struct FaultyIo<I: StateIo> {
    inner: I,
    plan: Mutex<DiskFaultPlan>,
}

impl<I: StateIo> FaultyIo<I> {
    pub fn new(inner: I, plan: DiskFaultPlan) -> Self {
        FaultyIo { inner, plan: Mutex::new(plan) }
    }

    /// Faults injected so far.
    pub fn stats(&self) -> DiskFaultStats {
        self.plan.lock().unwrap().stats()
    }

    fn eio(op: IoOp, path: &Path) -> std::io::Error {
        std::io::Error::other(format!("injected EIO during {op} of {}", path.display()))
    }
}

impl<I: StateIo> StateIo for FaultyIo<I> {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        if self.plan.lock().unwrap().plan_read() == ReadFault::Eio {
            return Err(Self::eio(IoOp::Read, path));
        }
        self.inner.read(path)
    }

    fn write_durable(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        match self.plan.lock().unwrap().plan_write(bytes.len()) {
            WriteFault::Ok => self.inner.write_durable(path, bytes),
            WriteFault::Eio { surviving } => {
                let _ = self.inner.write_durable(path, &bytes[..surviving]);
                Err(Self::eio(IoOp::Write, path))
            }
            WriteFault::Enospc { surviving } => {
                let _ = self.inner.write_durable(path, &bytes[..surviving]);
                Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    format!("injected ENOSPC writing {}", path.display()),
                ))
            }
            WriteFault::PowerCut { surviving } => {
                // The lie every journalless disk tells: success reported,
                // prefix persisted.
                self.inner.write_durable(path, &bytes[..surviving])
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let len = self.inner.read(from).map(|b| b.len()).unwrap_or(0);
        match self.plan.lock().unwrap().plan_rename(len) {
            RenameFault::Ok => self.inner.rename(from, to),
            RenameFault::Torn { surviving } => {
                let bytes = self.inner.read(from)?;
                self.inner.write_durable(to, &bytes[..surviving.min(bytes.len())])?;
                let _ = self.inner.remove_file(from);
                Ok(())
            }
        }
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.sync_dir(dir)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.inner.list_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// Reference-counted trait object alias used across crate boundaries.
pub type SharedIo = std::sync::Arc<dyn StateIo>;

#[cfg(test)]
mod tests {
    use super::*;
    use bce_faults::DiskFaultConfig;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bce-io-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_io_roundtrip_and_rename() {
        let dir = tmp_dir("real");
        let io = RealIo;
        let a = dir.join("a");
        let b = dir.join("b");
        io.write_durable(&a, b"hello").unwrap();
        assert_eq!(io.read(&a).unwrap(), b"hello");
        io.rename(&a, &b).unwrap();
        io.sync_dir(&dir).unwrap();
        assert!(!io.exists(&a) && io.exists(&b));
        let mut names = io.list_dir(&dir).unwrap();
        names.sort();
        assert_eq!(names, ["b"]);
        io.remove_file(&b).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_io_with_off_plan_is_transparent() {
        let dir = tmp_dir("off");
        let io = FaultyIo::new(RealIo, DiskFaultPlan::new(1, DiskFaultConfig::default()));
        let p = dir.join("x");
        io.write_durable(&p, b"data").unwrap();
        assert_eq!(io.read(&p).unwrap(), b"data");
        assert_eq!(io.stats(), DiskFaultStats::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn power_cut_reports_success_but_truncates() {
        let dir = tmp_dir("cut");
        let cfg = DiskFaultConfig { power_cut_prob: 1.0, ..DiskFaultConfig::default() };
        let io = FaultyIo::new(RealIo, DiskFaultPlan::new(2, cfg));
        let p = dir.join("x");
        io.write_durable(&p, b"0123456789").unwrap();
        assert!(io.read(&p).unwrap().len() < 10, "power cut must shorten the file");
        assert!(io.stats().to_string().contains("power-cuts 1 "), "{}", io.stats());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_rename_reports_success_but_leaves_prefix() {
        let dir = tmp_dir("torn");
        let cfg = DiskFaultConfig { torn_rename_prob: 1.0, ..DiskFaultConfig::default() };
        let io = FaultyIo::new(RealIo, DiskFaultPlan::new(3, cfg));
        let from = dir.join("from");
        let to = dir.join("to");
        io.write_durable(&from, b"full contents here").unwrap();
        io.rename(&from, &to).unwrap();
        assert!(!io.exists(&from));
        assert!(io.read(&to).unwrap().len() < 18);
        assert!(io.stats().to_string().contains("torn-renames 1 "), "{}", io.stats());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_surfaces_storage_full() {
        let dir = tmp_dir("enospc");
        let cfg = DiskFaultConfig { write_enospc_prob: 1.0, ..DiskFaultConfig::default() };
        let io = FaultyIo::new(RealIo, DiskFaultPlan::new(4, cfg));
        let err = io.write_durable(&dir.join("x"), b"abc").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        let _ = fs::remove_dir_all(&dir);
    }
}
