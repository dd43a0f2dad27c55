//! Byte pins of the controller front ends: `bce compare` on each paper
//! scenario and `bce fig 3`–`6 --quick`. Each entry is the FNV-1a of the
//! verb's stdout with its `wrote <path>` lines removed (the path depends
//! on the working directory, the table above it does not).
//!
//! Refactors of the controller must leave every pin unchanged. A
//! deliberate change to decision logic or to the rendering rewrites them
//! in the same change: on a mismatch the test prints the full
//! replacement table.

use bce_cli::dispatch;

/// `(command line, FNV-1a of its stdout without "wrote" lines)`.
const PINS: &[(&str, &str)] = &[
    ("compare scenario1 --days 0.25", "103988bc25657ef7"),
    ("compare scenario2 --days 0.25", "1c9d52dd670d6041"),
    ("compare scenario3 --days 0.25", "1f2a32943a050223"),
    ("compare scenario4 --days 0.25", "e3ec8b3e889d1265"),
    ("fig 3 --quick", "094c14f41e89d3c5"),
    ("fig 4 --quick", "96bbe2064007e608"),
    ("fig 5 --quick", "3af7224ec72a0c41"),
    ("fig 6 --quick", "14f56aefacd120ef"),
];

fn pin(cmdline: &str) -> String {
    let out = dispatch(cmdline.split_whitespace().map(str::to_string))
        .unwrap_or_else(|e| panic!("bce {cmdline}: {e}"));
    let kept: String =
        out.split_inclusive('\n').filter(|line| !line.starts_with("wrote ")).collect();
    format!("{:016x}", bce_sim::fnv64(kept.as_bytes()))
}

#[test]
fn front_end_outputs_are_unchanged() {
    let actual: Vec<(&str, String)> = PINS.iter().map(|&(cmd, _)| (cmd, pin(cmd))).collect();
    let matches = PINS.iter().zip(&actual).all(|((_, want), (_, got))| want == got);
    let table: String =
        actual.iter().map(|(cmd, fp)| format!("    ({cmd:?}, {fp:?}),\n")).collect();
    assert!(
        matches,
        "front-end output differs from the pins; if the change is deliberate, \
         replace PINS with:\n{table}"
    );
}
