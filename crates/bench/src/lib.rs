//! Shared harness for the paper-reproduction binaries and benches.
//!
//! Each table/figure of the paper has a binary in `src/bin/` that prints
//! the regenerated numbers next to the paper's; this library holds the
//! pieces they share: population preparation, the five-way algorithm
//! sweep, plain-text table rendering, the `PairwiseEmd` distance the
//! gated benches run the memo path on, and the quartiles their
//! trajectory files report.

use fairjob_core::algorithms::paper_algorithms;
use fairjob_core::{AuditConfig, AuditContext, AuditResult};
use fairjob_hist::distance::{DistanceError, Emd1d, HistogramDistance};
use fairjob_hist::{DistanceBounds, Histogram};
use fairjob_marketplace::scoring::ScoringFunction;
use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
use fairjob_store::Table;
use std::time::Duration;

/// Generate the paper's uniform population of `n` workers and bucketise
/// its numeric protected attributes so all six are splittable.
pub fn prepare_population(n: usize, seed: u64) -> Table {
    let mut workers = generate_uniform(n, seed);
    bucketise_numeric_protected(&mut workers).expect("fresh table bucketises cleanly");
    workers
}

/// One cell of a result table: the unfairness found and the runtime.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Average pairwise distance of the returned partitioning.
    pub unfairness: f64,
    /// Wall-clock runtime of the algorithm.
    pub elapsed: Duration,
    /// Number of partitions in the returned partitioning.
    pub partitions: usize,
    /// Names of the attributes the partitioning splits on.
    pub attributes: Vec<String>,
}

/// Results of running the paper's five algorithms over a set of scoring
/// functions on one population: `cells[algorithm][function]`.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Algorithm names, row order.
    pub algorithms: Vec<String>,
    /// Scoring-function names, column order.
    pub functions: Vec<String>,
    /// `cells[row][col]`.
    pub cells: Vec<Vec<Cell>>,
}

/// Run the paper's five algorithms (`unbalanced`, `r-unbalanced`,
/// `balanced`, `r-balanced`, `all-attributes`) against every scoring
/// function, in the row/column order of the paper's tables.
pub fn run_sweep(
    workers: &Table,
    functions: &[&dyn ScoringFunction],
    config_bins: usize,
    seed: u64,
) -> SweepResult {
    let algorithms = paper_algorithms(seed);
    let mut cells: Vec<Vec<Cell>> = vec![Vec::new(); algorithms.len()];
    let mut function_names = Vec::new();
    for f in functions {
        function_names.push(f.name().to_string());
        let scores = f
            .score_all(workers)
            .expect("scoring the generated population succeeds");
        let ctx = AuditContext::new(workers, &scores, AuditConfig::with_bins(config_bins))
            .expect("audit context over generated population");
        for (row, algorithm) in algorithms.iter().enumerate() {
            let result = algorithm.run(&ctx).expect("algorithm completes");
            cells[row].push(to_cell(workers, &result));
        }
    }
    SweepResult {
        algorithms: algorithms.iter().map(|a| a.name()).collect(),
        functions: function_names,
        cells,
    }
}

fn to_cell(workers: &Table, result: &AuditResult) -> Cell {
    Cell {
        unfairness: result.unfairness,
        elapsed: result.elapsed,
        partitions: result.partitioning.len(),
        attributes: result
            .partitioning
            .attributes_used()
            .iter()
            .map(|&a| workers.schema().attribute(a).name.clone())
            .collect(),
    }
}

impl SweepResult {
    /// Render in the paper's layout: one row per algorithm, average-EMD
    /// columns then runtime columns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<16}", "Algorithm"));
        for f in &self.functions {
            out.push_str(&format!(" {:>8}", f));
        }
        for f in &self.functions {
            out.push_str(&format!(" {:>10}", format!("t({f})")));
        }
        out.push('\n');
        for (row, algo) in self.algorithms.iter().enumerate() {
            out.push_str(&format!("{algo:<16}"));
            for cell in &self.cells[row] {
                out.push_str(&format!(" {:>8.3}", cell.unfairness));
            }
            for cell in &self.cells[row] {
                out.push_str(&format!(" {:>9.3}s", cell.elapsed.as_secs_f64()));
            }
            out.push('\n');
        }
        out
    }
}

/// `Emd1d` without its L1 form: the same distances and exact bounds, so
/// `balanced` scores its candidates pairwise through the memo and the
/// bound screen instead of from sorted columns, and full evaluations go
/// through the distance memo, which `Emd1d` itself skips.
#[derive(Debug)]
pub struct PairwiseEmd;

impl HistogramDistance for PairwiseEmd {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        Emd1d.distance(a, b)
    }
    fn bounds(&self, a: &Histogram, b: &Histogram) -> Option<DistanceBounds> {
        Emd1d.bounds(a, b)
    }
    fn name(&self) -> &'static str {
        "emd-pairwise"
    }
}

/// First quartile, median and third quartile of `values`, computed as
/// Python's `statistics.quantiles(values, n=4)` (its default `exclusive`
/// method), the quartiles fairbench reports. A single value is its own
/// quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return None,
        1 => return Some([data[0]; 3]),
        _ => {}
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved `j` up (two values): Python
        // extrapolates below the first value there, and so does this.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Render a simple aligned table from a header and rows of strings.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, h) in header.iter().enumerate() {
        out.push_str(&format!("{:<width$}  ", h, width = widths[i]));
    }
    out.push('\n');
    for (i, _) in header.iter().enumerate() {
        out.push_str(&"-".repeat(widths[i]));
        out.push_str("  ");
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairjob_marketplace::scoring::LinearScore;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([...], n=4) in CPython 3.
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(
            quartiles(&[7.0, 1.0, 3.0, 5.0, 9.0, 2.0, 8.0]),
            Some([2.0, 5.0, 8.0])
        );
        assert_eq!(
            quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
            Some([2.75, 5.5, 8.25])
        );
    }

    #[test]
    fn prepare_population_is_splittable_on_six_attributes() {
        let t = prepare_population(50, 1);
        assert_eq!(t.schema().splittable().len(), 6);
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn sweep_shape_matches_paper_layout() {
        let workers = prepare_population(60, 2);
        let f1 = LinearScore::alpha("f1", 0.5);
        let f4 = LinearScore::alpha("f4", 1.0);
        let sweep = run_sweep(&workers, &[&f1, &f4], 10, 7);
        assert_eq!(
            sweep.algorithms,
            vec![
                "unbalanced",
                "r-unbalanced",
                "balanced",
                "r-balanced",
                "all-attributes"
            ]
        );
        assert_eq!(sweep.functions, vec!["f1", "f4"]);
        assert_eq!(sweep.cells.len(), 5);
        assert!(sweep.cells.iter().all(|row| row.len() == 2));
        let text = sweep.render();
        assert!(text.contains("balanced") && text.contains("t(f4)"));
    }

    #[test]
    fn render_table_aligns() {
        let text = render_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "y".into()],
                vec!["wide-cell".into(), "z".into()],
            ],
        );
        assert_eq!(text.lines().count(), 4);
    }
}
