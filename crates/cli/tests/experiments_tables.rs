//! EXPERIMENTS.md's Figure 3 and Figure 5 tables are what `bce fig 3`
//! and `bce fig 5` write: every row of each CSV appears in the table,
//! and every cell under a CSV column's name equals that CSV field as
//! printed.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The markdown table that follows the `## Figure {n}` heading, as
/// rows of trimmed cells (header first, separator dropped).
fn doc_table(doc: &str, n: u32) -> Vec<Vec<String>> {
    let heading = format!("## Figure {n} ");
    let start = doc.find(&heading).unwrap_or_else(|| panic!("no {heading:?} in EXPERIMENTS.md"));
    doc[start..]
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter(|l| !l.starts_with("|---"))
        .map(|l| l.trim().trim_matches('|').split('|').map(|c| c.trim().to_string()).collect())
        .collect()
}

/// Run `bce fig {n}` in a fresh directory and read the CSV it wrote.
fn fig_csv(n: u32) -> Vec<Vec<String>> {
    let dir = std::env::temp_dir().join(format!("bce-experiments-fig{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bce"))
        .args(["fig", &n.to_string()])
        .current_dir(&dir)
        .output()
        .expect("spawn bce");
    assert!(out.status.success(), "bce fig {n}: {}", String::from_utf8_lossy(&out.stderr));
    let csv: PathBuf = dir.join(format!("target/figures/fig{n}.csv"));
    let text = std::fs::read_to_string(&csv).unwrap_or_else(|e| panic!("{}: {e}", csv.display()));
    let _ = std::fs::remove_dir_all(&dir);
    text.lines().map(|l| l.split(',').map(str::to_string).collect()).collect()
}

/// The leading number of a key cell ("1000 (zero slack)" → 1000), or
/// the whole cell when it is not numeric.
fn key(cell: &str) -> Result<f64, &str> {
    cell.split_whitespace().next().unwrap_or("").parse().map_err(|_| cell)
}

/// Each CSV row must have one table row with the same key (first
/// column), and every table column named like a CSV column must hold
/// that field verbatim.
fn assert_table_matches_csv(n: u32) {
    let doc =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md"))
            .unwrap();
    let table = doc_table(&doc, n);
    let csv = fig_csv(n);
    let (head, rows) = table.split_first().expect("a table");
    let (csv_head, csv_rows) = csv.split_first().expect("a CSV header");
    let columns: Vec<(usize, usize)> = head
        .iter()
        .enumerate()
        .skip(1)
        .filter_map(|(i, name)| csv_head.iter().position(|c| c == name).map(|j| (i, j)))
        .collect();
    assert_eq!(columns.len(), head.len() - 1, "Figure {n}: a table column is not in the CSV");
    assert_eq!(rows.len(), csv_rows.len(), "Figure {n}: the table and the CSV differ in rows");
    for csv_row in csv_rows {
        let row = rows
            .iter()
            .find(|r| key(&r[0]) == key(&csv_row[0]))
            .unwrap_or_else(|| panic!("Figure {n}: no table row for {:?}", csv_row[0]));
        for &(i, j) in &columns {
            assert_eq!(
                row[i], csv_row[j],
                "Figure {n}, row {:?}, column {}: EXPERIMENTS.md says {}, bce fig {n} prints {}",
                row[0], head[i], row[i], csv_row[j]
            );
        }
    }
}

#[test]
fn figure_3_table_is_what_bce_fig_3_prints() {
    assert_table_matches_csv(3);
}

#[test]
fn figure_5_table_is_what_bce_fig_5_prints() {
    assert_table_matches_csv(5);
}
