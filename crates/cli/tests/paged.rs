//! `fairjob audit --paged` runs the cell searches too: `all-attributes`
//! and `subset-exact` off a snapshot file exit 0 and print the
//! in-memory audit's `unfairness_bits`.

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
