//! The recorded reproduction results stay fresh: `figure1`,
//! `table1`–`table3`, `repair_sweep` and `variance` re-run at their
//! committed seeds print what `results/figure1.txt`,
//! `results/table1.txt`–`results/table3.txt`, `results/repair_sweep.txt`
//! and `results/variance.txt` hold. Wall-clock times (`elapsed:` lines and the
//! tables' `t(...)` columns) and the `engine:`, `splits:`, `bounds:` and
//! `shards:` counter lines are left out: shard and pool counts follow
//! the host's thread budget, so they differ between hosts. A change that
//! moves a value re-records the file.

use std::path::Path;
use std::process::Command;

/// Report lines whose numbers depend on the host.
const HOST_LINES: &[&str] = &["elapsed:", "engine:", "splits:", "bounds:", "shards:"];

/// The lines of a report that must match the recording: host-dependent
/// lines dropped, the `t(...)` columns cut from every table row, and
/// runs of spaces collapsed.
fn comparable(report: &str) -> Vec<String> {
    let mut lines = Vec::new();
    // Which columns of the current table to keep; `None` outside tables.
    let mut keep: Option<Vec<bool>> = None;
    for line in report.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.is_empty() {
            keep = None;
        } else if HOST_LINES.iter().any(|p| tokens[0].starts_with(p)) {
            continue;
        } else if tokens.iter().any(|t| t.starts_with("t(")) {
            keep = Some(tokens.iter().map(|t| !t.starts_with("t(")).collect());
        }
        let kept: Vec<&str> = match &keep {
            Some(columns) if columns.len() == tokens.len() => tokens
                .iter()
                .zip(columns)
                .filter(|&(_, &k)| k)
                .map(|(t, _)| *t)
                .collect(),
            _ => tokens,
        };
        lines.push(kept.join(" "));
    }
    lines
}

fn assert_fresh(binary: &str, recorded: &str) {
    let output = Command::new(binary)
        .output()
        .unwrap_or_else(|e| panic!("run {binary}: {e}"));
    assert!(output.status.success(), "{binary} failed: {output:?}");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(recorded);
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let fresh = comparable(&String::from_utf8_lossy(&output.stdout));
    let expected = comparable(&expected);
    for (at, (now, then)) in fresh.iter().zip(&expected).enumerate() {
        assert_eq!(
            now, then,
            "results/{recorded} is stale at comparable line {at}; re-record it"
        );
    }
    assert_eq!(
        fresh.len(),
        expected.len(),
        "results/{recorded} is stale: line counts differ; re-record it"
    );
}

#[test]
fn figure1_matches_its_recording() {
    assert_fresh(env!("CARGO_BIN_EXE_figure1"), "figure1.txt");
}

#[test]
fn table1_matches_its_recording() {
    assert_fresh(env!("CARGO_BIN_EXE_table1"), "table1.txt");
}

#[test]
fn table2_matches_its_recording() {
    assert_fresh(env!("CARGO_BIN_EXE_table2"), "table2.txt");
}

#[test]
fn table3_matches_its_recording() {
    assert_fresh(env!("CARGO_BIN_EXE_table3"), "table3.txt");
}

#[test]
fn repair_sweep_matches_its_recording() {
    assert_fresh(env!("CARGO_BIN_EXE_repair_sweep"), "repair_sweep.txt");
}

#[test]
fn variance_matches_its_recording() {
    assert_fresh(env!("CARGO_BIN_EXE_variance"), "variance.txt");
}

#[test]
fn comparable_drops_clocks_and_host_counters() {
    let report = "\
algorithm: balanced
elapsed: 45.524µs
engine: 16 distances computed, 35 cache hits
  bounds: 3 pairs screened
Algorithm   f1   f2   t(f1)   t(f2)
balanced  0.245  0.261  0.180s  0.152s

  paper  0.196 0.194
";
    assert_eq!(
        comparable(report),
        [
            "algorithm: balanced",
            "Algorithm f1 f2",
            "balanced 0.245 0.261",
            "",
            "paper 0.196 0.194",
        ]
    );
}
