#!/usr/bin/env python3
"""Count the non-test lines of Rust under `crates/`, per crate and in total.

The rule (ROADMAP.md, "Open items"): every `crates/**/*.rs` outside a
`tests/` or `benches/` directory counts up to, not including, the line of
its first `#[cfg(test)]`; the test-only module files listed in
`TEST_MODULES` count as test code. Every line counts, blank lines and
comments included, so the figure moves only when code is added or removed.

Usage: python3 scripts/nontest_lines.py [REPO_ROOT]
"""

import sys
from pathlib import Path

# Module files that are compiled only under `#[cfg(test)]` by their parent.
TEST_MODULES = {
    "client/src/plan_differential.rs",
    "controller/src/campaign/resume_tests.rs",
    "serve/src/http/fuzz_tests.rs",
}


def nontest_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if "#[cfg(test)]" in line:
                break
            count += 1
    return count


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    crates = root / "crates"
    per_crate = {}
    for path in sorted(crates.rglob("*.rs")):
        rel = path.relative_to(crates)
        if "tests" in rel.parts or "benches" in rel.parts or rel.as_posix() in TEST_MODULES:
            continue
        per_crate[rel.parts[0]] = per_crate.get(rel.parts[0], 0) + nontest_lines(path)
    for name, count in sorted(per_crate.items()):
        print(f"{name:<12} {count:>6}")
    print(f"{'total':<12} {sum(per_crate.values()):>6}")


if __name__ == "__main__":
    main()
