//! Metric names, result files and the host fingerprint.
//!
//! The metric lists here are the ones `BENCHMARK.json` declares; a test
//! keeps the two in step.

use crate::json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Version of the result-file layout below.
pub const SCHEMA_VERSION: u32 = 1;

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 2] = [("p50_ms", "ms"), ("setup_s", "s")];

/// Per-layer metrics every traced run reports, with their units. A
/// layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("marketplace.score_ms", "ms"),
    ("core.context.build_ms", "ms"),
    ("core.context.shard_tasks", "count"),
    ("core.context.rows_classified", "count"),
    ("core.engine.run_ms", "ms"),
    ("core.engine.run_ms.unbalanced", "ms"),
    ("core.engine.run_ms.r-unbalanced", "ms"),
    ("core.engine.run_ms.balanced", "ms"),
    ("core.engine.run_ms.r-balanced", "ms"),
    ("core.engine.run_ms.all-attributes", "ms"),
    ("core.engine.splits_computed", "count"),
    ("core.engine.split_cache_hits", "count"),
    ("core.engine.rows_scanned", "count"),
    ("core.engine.histograms_built", "count"),
    ("core.engine.distances_computed", "count"),
    ("core.engine.pool_tasks", "count"),
    ("core.engine.memo_hit_ratio", "ratio"),
    ("hist.bounds.calls", "count"),
    ("hist.bounds.busy_ms", "ms"),
    ("hist.bounds.screened_ratio", "ratio"),
    ("emd.solve.calls", "count"),
    ("emd.solve.busy_ms", "ms"),
    ("emd.solve.warm_starts", "count"),
    ("emd.solve.ground_cache_hits", "count"),
    ("emd.solve.scratch_reuses", "count"),
    ("store.paged.write_ms", "ms"),
    ("store.paged.open_ms", "ms"),
    ("store.paged.page_hits", "count"),
    ("store.paged.page_misses", "count"),
    ("store.paged.page_evictions", "count"),
    ("store.paged.pages_scanned", "count"),
    ("store.paged.hit_ratio", "ratio"),
    ("fairql.parse_us", "us"),
    ("fairql.analyze_us", "us"),
    ("fairql.plan_us", "us"),
    ("fairql.execute_ms", "ms"),
    ("stream.run_epoch_ms", "ms"),
    ("stream.snapshot_ms", "ms"),
    ("stream.snapshot_audit_ms", "ms"),
    ("stream.warm_rows_scanned", "count"),
    ("serve.ping_us", "us"),
    ("serve.audit_overhead_ms", "ms"),
    ("serve.audits_rejected", "count"),
    ("serve.max_epoch_lag", "count"),
    ("serve.distances_computed", "count"),
    ("serve.repeat_share", "ratio"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("trace.op_p50_ms", "ms"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// `{"name": {"value": v, "unit": u}, …}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// Per-layer values as a workload measures them; [`Layers::emit`] puts
/// them in [`PER_LAYER`] order and fills the layers it never entered.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn emit(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, self.get(name), unit))
            .collect()
    }
}

/// Where and on what a run happened.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        // Look for a repository in the working directory only, never in
        // the directories above it.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(Path::to_path_buf))
            .unwrap_or_default();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: first_line_of(Command::new("rustc").arg("-V")),
            commit: first_line_of(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", ceiling),
            ),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            json::string(&self.cpu),
            json::string(&self.rustc),
            json::string(&self.commit)
        )
    }
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run or fails.
fn first_line_of(command: &mut Command) -> String {
    command
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything one child run of one workload measured.
#[derive(Debug)]
pub struct ResultFile {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub correct: bool,
    pub mismatch: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Per-verb latencies, sample counts and the failed share.
    pub detail: Vec<Metric>,
}

/// `DIR/<workload>.json`, or `DIR/<workload>.trace.json` for a traced
/// run.
pub fn result_path(dir: &Path, workload: &str, traced: bool) -> PathBuf {
    let suffix = if traced { ".trace" } else { "" };
    dir.join(format!("{workload}{suffix}.json"))
}

impl ResultFile {
    pub fn write(&self, dir: &Path, host: &Host) -> std::io::Result<()> {
        std::fs::write(
            result_path(dir, &self.workload, self.traced),
            self.to_json(host),
        )
    }

    pub fn read(path: &Path) -> Result<Self, String> {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Self::from_json(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn to_json(&self, host: &Host) -> String {
        let mismatch = self
            .mismatch
            .as_deref()
            .map_or("null".to_string(), json::string);
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {},\n \
             \"schema\": {SCHEMA_VERSION}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
             \"trace\": {}, \"mismatch\": {mismatch},\n \"host\": {},\n \"detail\": {}}}\n",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics),
            json::string(&self.workload),
            self.seed,
            self.seconds,
            self.traced,
            host.json(),
            metrics_json(&self.detail),
        )
    }

    fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let schema = v.get("schema").and_then(json::Value::as_f64);
        if schema != Some(f64::from(SCHEMA_VERSION)) {
            return Err(format!("schema {schema:?}, expected {SCHEMA_VERSION}"));
        }
        let metrics = |key: &str| -> Vec<Metric> {
            v.get(key)
                .map(json::Value::members)
                .unwrap_or_default()
                .iter()
                .map(|(name, m)| {
                    Metric::new(
                        name.clone(),
                        m.get("value")
                            .and_then(json::Value::as_f64)
                            .unwrap_or(f64::NAN),
                        m.get("unit").and_then(json::Value::as_str).unwrap_or(""),
                    )
                })
                .collect()
        };
        let count = |key: &str| v.get(key).and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
        Ok(ResultFile {
            workload: v
                .get("workload")
                .and_then(json::Value::as_str)
                .unwrap_or("")
                .to_string(),
            seed: count("seed"),
            seconds: count("seconds"),
            traced: v.get("trace") == Some(&json::Value::Bool(true)),
            correct: v.get("correct") == Some(&json::Value::Bool(true)),
            mismatch: v
                .get("mismatch")
                .and_then(json::Value::as_str)
                .map(str::to_string),
            attempted: count("attempted"),
            failed: count("failed"),
            metrics: metrics("metrics"),
            detail: metrics("detail"),
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, beside this package.
    fn benchmark_json() -> json::Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(bench: &json::Value, key: &str) -> Vec<(String, String)> {
        bench
            .get(key)
            .map(json::Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(json::Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    m.get("unit")
                        .and_then(json::Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let bench = benchmark_json();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&bench, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&bench, "per_layer"), own(&PER_LAYER));
        assert_eq!(
            bench.get("run_seconds").and_then(json::Value::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );
        let workloads: Vec<&str> = bench
            .get("workloads")
            .map(json::Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Value::as_str))
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn result_file_round_trips() {
        let file = ResultFile {
            workload: "batch_1m".to_string(),
            seed: 7,
            seconds: 3,
            traced: false,
            correct: true,
            mismatch: None,
            attempted: 12,
            failed: 1,
            metrics: vec![Metric::new("p50_ms", 1.5, "ms")],
            detail: vec![Metric::new("audit_p90_ms", f64::INFINITY, "ms")],
        };
        let host = Host {
            nproc: 2,
            cpu: "cpu \"x\"".to_string(),
            rustc: "rustc".to_string(),
            commit: "unknown".to_string(),
        };
        let back = ResultFile::from_json(&file.to_json(&host)).expect("parses");
        assert_eq!(back.metrics, file.metrics);
        assert_eq!(back.detail, file.detail);
        assert_eq!((back.seed, back.attempted, back.failed), (7, 12, 1));
        assert!(back.correct && !back.traced && back.mismatch.is_none());
        assert_eq!(back.metric("p50_ms"), Some(1.5));
    }
}
