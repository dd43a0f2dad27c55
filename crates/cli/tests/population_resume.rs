//! `bce population --resume` sorts a store it cannot resume by cause: a
//! store whose generations are intact but in an older format is a
//! mismatch (exit 1) that says to start afresh, while damaged
//! generations, or no store at all, are an I/O failure (exit 3).

use bce_statefile::{CheckpointStore, DEFAULT_KEEP_GENERATIONS};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty working directory for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bce-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `bce args` in `dir`; returns the exit code and stderr.
fn bce_in(dir: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bce"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn bce");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

const POPULATION: [&str; 5] = ["population", "--hosts", "2", "--days", "0.05"];

/// A finished two-generation campaign store `p.ckpt` in `dir`.
fn written_store(dir: &Path) -> CheckpointStore {
    let args = [&POPULATION[..], &["--checkpoint", "p.ckpt", "--checkpoint-every", "2"]].concat();
    let (code, stderr) = bce_in(dir, &args);
    assert_eq!(code, Some(0), "{stderr}");
    let store = CheckpointStore::with_real_io(dir.join("p.ckpt"), DEFAULT_KEEP_GENERATIONS);
    assert!(store.generations_on_disk().unwrap().len() >= 2);
    store
}

fn resume(dir: &Path) -> (Option<i32>, String) {
    bce_in(dir, &[&POPULATION[..], &["--resume", "p.ckpt"]].concat())
}

#[test]
fn old_format_store_is_a_mismatch_not_corruption() {
    let dir = scratch_dir("resume-old-format");
    let store = written_store(&dir);
    let (payload, _) = store.read_latest().unwrap();
    let doc = String::from_utf8(payload).unwrap();
    assert!(
        doc.contains("<bce_campaign version=\"2\""),
        "format version changed; update this test"
    );
    let v1 = doc.replacen("version=\"2\"", "version=\"1\"", 1);
    store.clear().unwrap();
    store.write(v1.as_bytes()).unwrap();
    store.write(v1.as_bytes()).unwrap();
    let (code, stderr) = resume(&dir);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("v1 campaign checkpoint predates"), "{stderr}");
    assert!(stderr.contains("rerun without --resume"), "{stderr}");
    assert!(!stderr.contains("corrupt"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_store_is_an_io_failure() {
    let dir = scratch_dir("resume-damaged");
    let store = written_store(&dir);
    for gen in store.generations_on_disk().unwrap() {
        let path = store.generation_path(gen);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
    }
    let (code, stderr) = resume(&dir);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("every checkpoint generation is corrupt"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_store_is_an_io_failure() {
    let dir = scratch_dir("resume-missing");
    let (code, stderr) = resume(&dir);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("no checkpoint found"), "{stderr}");
    assert!(std::fs::read_dir(&dir).unwrap().next().is_none(), "resume wrote a file");
    let _ = std::fs::remove_dir_all(&dir);
}
