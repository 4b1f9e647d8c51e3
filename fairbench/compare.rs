//! `fairbench compare DIR_A… -- DIR_B…`: medians and quartiles of each
//! side's runs, and each end-to-end metric's change against its bound
//! in `BENCHMARK.json`.

use crate::json;
use crate::report::{result_path, ResultFile};
use crate::stats;
use crate::workloads::WORKLOADS;
use std::path::PathBuf;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug)]
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(bench: &json::Value) -> Result<Vec<Declared>, String> {
    bench
        .get("end_to_end")
        .map(json::Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(json::Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("an end_to_end metric lacks `{key}`"))
            };
            Ok(Declared {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(json::Value::as_f64)
                    .ok_or("an end_to_end metric lacks `bound`")?,
            })
        })
        .collect()
}

/// One side's results: untraced and traced runs per workload.
#[derive(Debug, Default)]
struct Side {
    untraced: Vec<ResultFile>,
    traced: Vec<ResultFile>,
}

impl Side {
    fn load(dirs: &[PathBuf]) -> Result<Self, String> {
        let mut side = Side::default();
        for dir in dirs {
            for workload in WORKLOADS {
                for traced in [false, true] {
                    let path = result_path(dir, workload, traced);
                    if !path.exists() {
                        continue;
                    }
                    let file = ResultFile::read(&path)?;
                    if !file.correct {
                        return Err(format!("{}: the run gave a wrong answer", path.display()));
                    }
                    if traced {
                        side.traced.push(file);
                    } else {
                        side.untraced.push(file);
                    }
                }
            }
        }
        Ok(side)
    }

    fn values(files: &[ResultFile], workload: &str, metric: &str) -> Vec<f64> {
        files
            .iter()
            .filter(|f| f.workload == workload)
            .filter_map(|f| f.metric(metric))
            .collect()
    }

    /// Traced op median over untraced op median, minus one, in percent.
    fn overhead_pct(&self, workload: &str) -> Option<f64> {
        let traced = Self::values(&self.traced, workload, "trace.op_p50_ms");
        let untraced = Self::values(&self.untraced, workload, "p50_ms");
        (!traced.is_empty() && !untraced.is_empty())
            .then(|| 100.0 * (stats::median(&traced) / stats::median(&untraced) - 1.0))
    }
}

/// What a comparison of one metric concludes.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regression,
    Unresolved,
}

/// Quartiles of both sides, the change of the median (positive =
/// worse) and the verdict against `bound`.
fn judge(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> Option<([f64; 3], [f64; 3], f64, Verdict)> {
    let (qa, qb) = (stats::quartiles(a)?, stats::quartiles(b)?);
    let change = (qb[1] - qa[1]) / qa[1];
    let worse = if lower_is_better { change } else { -change };
    let verdict = if stats::spread(qa) > bound || stats::spread(qb) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    Some((qa, qb, worse, verdict))
}

fn side_text(q: [f64; 3], n: usize) -> String {
    format!("{:.4} [{:.4}, {:.4}] n={n}", q[1], q[0], q[2])
}

/// Returns whether any metric regressed.
pub fn compare(a_dirs: &[PathBuf], b_dirs: &[PathBuf]) -> Result<bool, String> {
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))
        .and_then(|text| json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}")))?;
    let metrics = declared(&bench)?;
    let (a, b) = (Side::load(a_dirs)?, Side::load(b_dirs)?);
    let mut regressed = false;
    for workload in WORKLOADS {
        for m in &metrics {
            let va = Side::values(&a.untraced, workload, &m.name);
            let vb = Side::values(&b.untraced, workload, &m.name);
            let Some((qa, qb, worse, verdict)) = judge(&va, &vb, m.lower_is_better, m.bound) else {
                continue;
            };
            regressed |= verdict == Verdict::Regression;
            println!(
                "{workload} {} ({}): A {}  B {}  worse by {:+.1}% (bound {:.0}%)  {}",
                m.name,
                m.unit,
                side_text(qa, va.len()),
                side_text(qb, vb.len()),
                100.0 * worse,
                100.0 * m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for (label, side) in [("A", &a), ("B", &b)] {
            if let Some(pct) = side.overhead_pct(workload) {
                println!("{workload} trace.overhead_pct ({label}): {pct:+.2} %");
            }
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 10.0, 9.9, 10.0];
        let slower = [12.0, 12.1, 12.0, 11.9, 12.0];
        let (_, _, worse, v) = judge(&steady, &slower, true, 0.1).expect("values");
        assert_eq!(v, Verdict::Regression);
        assert!((worse - 0.2).abs() < 1e-9);
        // Higher-is-better metrics flip the sign.
        assert_eq!(
            judge(&steady, &slower, false, 0.1).map(|j| j.3),
            Some(Verdict::Ok)
        );
        let noisy = [5.0, 10.0, 15.0, 8.0, 12.0];
        assert_eq!(
            judge(&steady, &noisy, true, 0.1).map(|j| j.3),
            Some(Verdict::Unresolved)
        );
        assert_eq!(
            judge(&steady, &steady, true, 0.1).map(|j| j.3),
            Some(Verdict::Ok)
        );
        assert!(judge(&[], &steady, true, 0.1).is_none());
    }

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let bench = json::parse(
            r#"{"end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .expect("valid");
        let d = declared(&bench).expect("declared");
        assert_eq!(d.len(), 1);
        assert!(d[0].lower_is_better && d[0].bound == 0.1 && d[0].unit == "ms");
        assert!(
            declared(&json::parse(r#"{"end_to_end": [{"name": "x"}]}"#).expect("valid")).is_err()
        );
    }
}
