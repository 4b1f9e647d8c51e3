//! Row-range scale bench: end-to-end audit through the per-row passes
//! on a 1M-row population.
//!
//! Beyond timing, this bench *asserts* the row-range contract on a
//! population past the 65 536 rows from which a per-row pass runs one
//! row range per thread, so every thread count runs a different cut:
//!
//! - audits are **bit-identical** (unfairness bits, partition
//!   predicates and row sets) at 1, 2, 3 and 8 threads, against one
//!   thread;
//! - the build counters attribute truthfully: `shard_tasks` counts one
//!   classify task per thread, and `rows_classified_parallel` meters
//!   every row at every thread count.
//!
//! It also extends the machine-readable perf trajectory: a
//! `BENCH_shard.json` next to the workspace root with the 1M-row
//! end-to-end timing of the two-attribute audit (best of three, one
//! thread), the two phases of that audit's per-row work timed apart —
//! its context build and the row pass of the partitioning it returns
//! (median and interquartile range of eleven interleaved runs, the
//! machine's threads) — and of the six-attribute `balanced` audit
//! (median of five, the machine's threads); no bound on any, uploaded
//! as a CI artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::{AuditConfig, AuditContext, AuditResult};
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
use fairjob_store::Table;
use std::hint::black_box;
use std::time::Instant;

/// Rows for the timed scale run — the "1M-row audit".
const SCALE_ROWS: usize = 1_000_000;
/// Rows for the bit-identity grid: past the 65 536 rows from which a
/// per-row pass runs one row range per thread, small enough to sweep
/// thread counts.
const PARITY_ROWS: usize = 70_000;
/// Rows for the Criterion samples (the scale run is too big to repeat
/// `sample_size` times).
const BENCH_ROWS: usize = 200_000;
const SEED: u64 = 0x5AAD;

fn population(rows: usize) -> (Table, Vec<f64>) {
    let mut table = generate_uniform(rows, SEED);
    bucketise_numeric_protected(&mut table).expect("bucketise");
    let scores = LinearScore::alpha("f1", 0.5)
        .score_all(&table)
        .expect("score");
    (table, scores)
}

/// Protected attributes of the scale audit. Two low-cardinality
/// attributes keep the workload dominated by the per-row passes
/// (classification into the cell cube, the returned partitioning's row
/// sets); auditing every attribute adds the pairwise distances of up to
/// 1 800 partitions, timed separately by [`time_all_attributes_audit`].
const SCALE_ATTRS: &[&str] = &["gender", "country"];

/// One end-to-end audit: context build (validation + classification
/// into the cell cube) plus the balanced search — everything the row
/// ranges touch. `attrs = None` audits every protected attribute.
fn run_audit(table: &Table, scores: &[f64], threads: usize, attrs: Option<&[&str]>) -> AuditResult {
    let config = AuditConfig {
        threads: Some(threads),
        attributes: attrs.map(|names| names.iter().map(|a| a.to_string()).collect()),
        ..AuditConfig::default()
    };
    let ctx = AuditContext::new(table, scores, config).expect("context");
    Balanced::new(AttributeChoice::Worst)
        .run(&ctx)
        .expect("audit")
}

/// Best-of-`n` wall time of `f`, in microseconds.
fn best_of_us(n: usize, mut f: impl FnMut()) -> u128 {
    (0..n)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_micros()
        })
        .min()
        .expect("at least one run")
}

/// The scale run on [`SCALE_ROWS`] rows: truthful counters, then the
/// best-of-3 end-to-end wall time in microseconds.
fn time_scale_audit(table: &Table, scores: &[f64]) -> u128 {
    let sharded = run_audit(table, scores, 1, Some(SCALE_ATTRS));
    assert_eq!(
        sharded.engine.shard_tasks, 1,
        "a one-thread build runs one classify range"
    );
    assert!(
        sharded.engine.rows_classified_parallel >= SCALE_ROWS as u64,
        "sharded run metered {} rows, expected at least the population",
        sharded.engine.rows_classified_parallel
    );
    // Best-of-3 keeps a one-off stall from deciding the number.
    best_of_us(3, || {
        black_box(run_audit(table, scores, 1, Some(SCALE_ATTRS)));
    })
}

/// Median of five end-to-end six-attribute `balanced` audits of the
/// [`SCALE_ROWS`]-row population (context build included) at the
/// machine's thread count, in microseconds, with that thread count.
fn time_all_attributes_audit(table: &Table, scores: &[f64]) -> (u128, usize) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut runs: Vec<u128> = (0..5)
        .map(|_| {
            let started = Instant::now();
            black_box(run_audit(table, scores, threads, None));
            started.elapsed().as_micros()
        })
        .collect();
    runs.sort_unstable();
    (runs[runs.len() / 2], threads)
}

/// Median and quartiles (by rank) of a phase's timings, in
/// microseconds.
struct Spread {
    median: u128,
    q1: u128,
    q3: u128,
}

impl Spread {
    fn of(mut runs: Vec<u128>) -> Self {
        runs.sort_unstable();
        let n = runs.len();
        Spread {
            median: runs[n / 2],
            q1: runs[n / 4],
            q3: runs[3 * n / 4],
        }
    }

    fn json(&self, name: &str) -> String {
        format!(
            "\"{name}_median_us\":{},\"{name}_iqr_us\":{}",
            self.median,
            self.q3 - self.q1
        )
    }
}

/// The per-row phases of the two-attribute audit on the
/// [`SCALE_ROWS`]-row population at the machine's thread count, timed
/// apart in eleven interleaved runs: the context build
/// (`AuditContext::new`: validation, the classify pass into the cell
/// cube) and the row pass (`AuditContext::partitioning` of the parts
/// `balanced` returns, which over two attributes are their cells).
fn time_phases(table: &Table, scores: &[f64]) -> (Spread, Spread, usize) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = AuditConfig {
        threads: Some(threads),
        attributes: Some(SCALE_ATTRS.iter().map(|a| a.to_string()).collect()),
        ..AuditConfig::default()
    };
    let (mut build, mut row_pass) = (Vec::new(), Vec::new());
    for _ in 0..11 {
        let started = Instant::now();
        let ctx = AuditContext::new(table, scores, config.clone()).expect("context");
        build.push(started.elapsed().as_micros());
        let returned = Balanced::new(AttributeChoice::Worst)
            .run(&ctx)
            .expect("audit");
        let cells = ctx.cells(ctx.attributes());
        let mut predicates: Vec<_> = cells.iter().map(|p| &p.predicate).collect();
        let mut found: Vec<_> = returned
            .partitioning
            .partitions()
            .iter()
            .map(|p| &p.predicate)
            .collect();
        predicates.sort_by_key(|p| p.fingerprint());
        found.sort_by_key(|p| p.fingerprint());
        assert_eq!(predicates, found, "balanced returns the cells");
        let started = Instant::now();
        black_box(ctx.partitioning(&cells));
        row_pass.push(started.elapsed().as_micros());
    }
    (Spread::of(build), Spread::of(row_pass), threads)
}

/// Bit-identity and counter attribution at 1, 2, 3 and 8 threads, each
/// of which cuts the [`PARITY_ROWS`]-row passes into as many ranges.
fn assert_layout_parity(table: &Table, scores: &[f64]) {
    let baseline = run_audit(table, scores, 1, None);
    for threads in [1usize, 2, 3, 8] {
        let got = run_audit(table, scores, threads, None);
        assert_eq!(
            got.unfairness.to_bits(),
            baseline.unfairness.to_bits(),
            "threads={threads} diverged"
        );
        assert_eq!(got.partitioning.len(), baseline.partitioning.len());
        for (got, want) in got
            .partitioning
            .partitions()
            .iter()
            .zip(baseline.partitioning.partitions())
        {
            assert_eq!(got.predicate, want.predicate, "threads={threads}");
            assert_eq!(got.rows(), want.rows(), "threads={threads}");
        }
        assert_eq!(
            got.engine.shard_tasks, threads as u64,
            "threads={threads}: one classify range per thread"
        );
        assert_eq!(got.engine.rows_classified_parallel, PARITY_ROWS as u64);
    }
}

/// Write the machine-readable trajectory next to the workspace root.
fn write_bench_json(
    sharded_us: u128,
    (build, row_pass, phase_threads): (Spread, Spread, usize),
    (all_attrs_us, all_attrs_threads): (u128, usize),
) {
    let json = format!(
        "{{\"bench\":\"shard_scale\",\"rows\":{SCALE_ROWS},\
\"attrs\":\"{}\",\"sharded_us\":{sharded_us},{},{},\"phase_threads\":{phase_threads},\
\"all_attrs_balanced_us\":{all_attrs_us},\"all_attrs_threads\":{all_attrs_threads}}}\n",
        SCALE_ATTRS.join(","),
        build.json("build"),
        row_pass.json("row_pass"),
    );
    // `cargo bench` runs with the package directory as cwd; BENCH_*.json
    // lands at the workspace root either way.
    let path = if std::path::Path::new("../../Cargo.toml").exists() {
        "../../BENCH_shard.json"
    } else {
        "BENCH_shard.json"
    };
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("shard_scale: could not write {path}: {e}");
    }
    println!("shard_scale trajectory: {json}");
}

fn bench_shard_scale(c: &mut Criterion) {
    let (parity_table, parity_scores) = population(PARITY_ROWS);
    assert_layout_parity(&parity_table, &parity_scores);

    let (scale_table, scale_scores) = population(SCALE_ROWS);
    let sharded_us = time_scale_audit(&scale_table, &scale_scores);
    let phases = time_phases(&scale_table, &scale_scores);
    let all_attrs = time_all_attributes_audit(&scale_table, &scale_scores);
    write_bench_json(sharded_us, phases, all_attrs);
    drop((scale_table, scale_scores));

    let (table, scores) = population(BENCH_ROWS);
    let mut group = c.benchmark_group("shard_scale");
    group.sample_size(10);
    group.bench_function("audit_sharded", |b| {
        b.iter(|| black_box(run_audit(&table, &scores, 1, Some(SCALE_ATTRS))))
    });
    group.finish();
}

criterion_group!(benches, bench_shard_scale);
criterion_main!(benches);
