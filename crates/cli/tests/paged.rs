//! `fairjob audit --paged` runs the cell searches too: `all-attributes`
//! and `subset-exact` off a snapshot file exit 0 and print the
//! in-memory audit's `unfairness_bits`. It honours or refuses every
//! flag it is given: the permutation test fails with its out-of-core
//! error, and the in-memory population flags are usage errors.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_fairjob");

/// A scratch file named for this suite, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        Scratch(
            std::env::temp_dir().join(format!("fairjob-cli-paged-{}-{name}", std::process::id())),
        )
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn fairjob(args: &[&str]) -> Output {
    let output = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn fairjob");
    assert!(
        output.status.success(),
        "fairjob {args:?} exited {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// Run `fairjob` expecting exit code `code`; returns its stderr.
fn fairjob_fails(args: &[&str], code: i32) -> String {
    let output = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn fairjob");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(
        output.status.code(),
        Some(code),
        "fairjob {args:?}: stdout {} stderr {stderr}",
        String::from_utf8_lossy(&output.stdout)
    );
    stderr
}

/// A 300-worker population and its `f1` snapshot.
fn snapshot(tag: &str) -> (Scratch, Scratch) {
    let csv = Scratch::new(&format!("{tag}.csv"));
    let paged = Scratch::new(&format!("{tag}.fjp"));
    let (csv_path, paged_path) = (csv.0.to_str().unwrap(), paged.0.to_str().unwrap());
    fairjob(&[
        "generate", "--size", "300", "--seed", "7", "--out", csv_path,
    ]);
    fairjob(&[
        "snapshot",
        "--workers",
        csv_path,
        "--function",
        "f1",
        "--out",
        paged_path,
    ]);
    (csv, paged)
}

/// The `"unfairness_bits"` value of an `audit --json` report.
fn unfairness_bits(output: &Output) -> String {
    let json = String::from_utf8_lossy(&output.stdout);
    let key = "\"unfairness_bits\":\"";
    let start = json.find(key).expect("report carries unfairness_bits") + key.len();
    json[start..start + 16].to_string()
}

#[test]
fn cell_searches_audit_a_paged_snapshot_like_the_table() {
    let csv = Scratch::new("workers.csv");
    let paged = Scratch::new("workers.fjp");
    let (csv_path, paged_path) = (csv.0.to_str().unwrap(), paged.0.to_str().unwrap());
    fairjob(&[
        "generate", "--size", "500", "--seed", "42", "--out", csv_path,
    ]);
    fairjob(&[
        "snapshot",
        "--workers",
        csv_path,
        "--function",
        "f1",
        "--out",
        paged_path,
    ]);
    for algorithm in ["all-attributes", "subset-exact"] {
        let mem = fairjob(&[
            "audit",
            "--workers",
            csv_path,
            "--function",
            "f1",
            "--algorithm",
            algorithm,
            "--json",
        ]);
        let out_of_core = fairjob(&[
            "audit",
            "--paged",
            paged_path,
            "--algorithm",
            algorithm,
            "--json",
        ]);
        assert_eq!(
            unfairness_bits(&out_of_core),
            unfairness_bits(&mem),
            "{algorithm}"
        );
    }
}

/// The permutation test shuffles scores held in memory, so a paged
/// audit asked for one fails with the test's out-of-core error (exit
/// 4), in text and JSON mode, instead of printing a report without it.
#[test]
fn paged_audit_refuses_a_permutation_test() {
    let (_csv, paged) = snapshot("permutations");
    let paged_path = paged.0.to_str().unwrap();
    for json in [false, true] {
        let mut args = vec!["audit", "--paged", paged_path, "--permutations", "9"];
        if json {
            args.push("--json");
        }
        let stderr = fairjob_fails(&args, 4);
        assert!(stderr.contains("permutation test"), "{stderr}");
        assert!(stderr.contains("needs in-memory data"), "{stderr}");
    }
    // `--permutations 0` asks for no test.
    fairjob(&["audit", "--paged", paged_path, "--permutations", "0"]);
}

/// The population and its scores come from the file, so the in-memory
/// flags are usage errors (exit 2) that name the flag.
#[test]
fn paged_audit_rejects_the_in_memory_flags() {
    let (csv, paged) = snapshot("flags");
    let (csv_path, paged_path) = (csv.0.to_str().unwrap(), paged.0.to_str().unwrap());
    for (flag, value) in [
        ("--function", "f7"),
        ("--alpha", "0.3"),
        ("--workers", csv_path),
    ] {
        let stderr = fairjob_fails(&["audit", "--paged", paged_path, flag, value], 2);
        assert!(stderr.contains(&format!("`{flag}`")), "{flag}: {stderr}");
    }
}
