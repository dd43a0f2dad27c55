//! An unknown or repeated option is refused before the verb emulates or
//! writes anything: the binary exits 1 and leaves its working directory as
//! it found it.

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

/// Every file under `dir`, recursively.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            found.extend(files_under(&path));
        } else {
            found.push(path);
        }
    }
    found
}

#[test]
fn fig_checkpoint_every_is_rejected_before_writing() {
    let dir = scratch_dir("fig-unknown-opt");
    let (code, stderr) = bce_in(&dir, &["fig", "6", "--checkpoint-every", "5"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown option --checkpoint-every"), "{stderr}");
    assert!(!dir.join("target/figures/fig6.csv").exists(), "fig 6 wrote its CSV");
    assert_eq!(files_under(&dir), Vec::<PathBuf>::new());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn population_typo_publishes_no_checkpoint() {
    let dir = scratch_dir("population-unknown-opt");
    let (code, stderr) = bce_in(
        &dir,
        &["population", "--hosts", "2", "--days", "0.05", "--checkpoint", "p.ckpt", "--typo", "1"],
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown option --typo"), "{stderr}");
    assert_eq!(files_under(&dir), Vec::<PathBuf>::new(), "a checkpoint was published");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_value_option_is_rejected_before_writing() {
    let dir = scratch_dir("compare-repeated-opt");
    let (code, stderr) =
        bce_in(&dir, &["compare", "scenario1", "--days", "0.01", "--days", "0.02"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--days given more than once"), "{stderr}");
    assert_eq!(files_under(&dir), Vec::<PathBuf>::new());
    let _ = std::fs::remove_dir_all(&dir);
}
