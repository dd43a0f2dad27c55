//! A reader that stops early (`bce trace scenario1 | head -1`) closes the
//! pipe under the binary. That ends the output; it must not panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_quietly() {
    // Four days of scenario 1 trace to ~250 KB, well past a pipe's
    // buffer, so the binary is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_bce"))
        .args(["trace", "scenario1", "--days", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bce");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.starts_with("trace of scenario1"), "{first}");
    // The reader is dropped: the pipe is closed with output still unwritten.
    let out = child.wait_with_output().expect("wait for bce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
