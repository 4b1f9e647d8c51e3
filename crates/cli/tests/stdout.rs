//! How the `fairjob` binary treats a stdout it cannot write to: a
//! reader that closed the pipe early is not an error, any other write
//! failure is reported and exits non-zero, and neither panics.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_fairjob");

/// A generated population in a file named for `test`, removed on drop.
struct Population(PathBuf);

impl Population {
    fn generate(test: &str) -> Population {
        let path =
            std::env::temp_dir().join(format!("fairjob-cli-{test}-{}.csv", std::process::id()));
        let status = Command::new(BIN)
            .args(["generate", "--size", "500", "--seed", "42", "--out"])
            .arg(&path)
            .stdout(Stdio::null())
            .status()
            .expect("spawn fairjob generate");
        assert!(status.success(), "generate failed: {status}");
        Population(path)
    }

    fn audit(&self) -> Command {
        let mut cmd = Command::new(BIN);
        cmd.args(["audit", "--function", "f1", "--json", "--workers"])
            .arg(&self.0)
            .stderr(Stdio::piped());
        cmd
    }
}

impl Drop for Population {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn closed_stdout_exits_quietly() {
    let population = Population::generate("closed-stdout");
    let mut child = population
        .audit()
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn fairjob audit");
    // Close the read end before the audit finishes, like `| head -c 10`
    // after its ten bytes: the binary's one write then meets a broken
    // pipe.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for fairjob audit");
    let stderr = stderr(&output);
    assert!(!stderr.contains("panicked"), "fairjob panicked: {stderr}");
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn failed_stdout_write_is_reported() {
    let population = Population::generate("full-stdout");
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let output = population
        .audit()
        .stdout(full)
        .output()
        .expect("run fairjob audit");
    let stderr = stderr(&output);
    assert!(!stderr.contains("panicked"), "fairjob panicked: {stderr}");
    assert!(stderr.starts_with("fairjob: "), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(3), "stderr: {stderr}");
}
