//! Pairwise-kernel bench: the full evaluation of Definition 2 on a
//! 360-partition synthetic audit — the innermost loop of every audit,
//! where an unfairness value averages the distance over all partition
//! pairs. At 360 live partitions (256 or more) [`EvalEngine::unfairness`]
//! computes its pairs in fixed chunks on the persistent worker pool,
//! then sums them serially in pair order. Under `Emd1d`, whose L1 form
//! sends full evaluations past the memo, it computes every pair from
//! the distance's batch form (every histogram's CDF gathered into one
//! flat buffer); under `PairwiseEmd` (`Emd1d` without the form or the
//! batch) it computes the memo's misses one `distance` call at a time
//! and inserts them.
//!
//! Four paths are timed: a cold `Emd1d` evaluation (a fresh engine) on
//! one thread and on four, a cold `PairwiseEmd` evaluation on one
//! thread (every pair computed and inserted into the memo), and a warm
//! `PairwiseEmd` one (every pair a memo hit). Before them, the two cold
//! `Emd1d` evaluations and the naive [`average_pairwise`] reference run
//! nine times each, interleaved, and `BENCH_pairwise.json` at the
//! workspace root records each one's median and interquartile range in
//! microseconds, with the machine's available parallelism (`nproc`).
//! No bound is set on those times.
//!
//! Beyond timing, this bench *asserts* the evaluation's contract with
//! real counters before any timing runs:
//!
//! * under `Emd1d` and `PairwiseEmd` alike, the engine's value is
//!   bit-identical to the naive reference [`average_pairwise`], a cold
//!   evaluation computes every pair once, and value + engine-local
//!   counters are identical at 1, 2, 3 and 8 threads (set through
//!   [`AuditConfig::threads`]);
//! * the branch-and-bound candidate search actually prunes on this
//!   workload (engine `bounds_screened > 0`) and matches the unpruned
//!   value bit for bit. It runs on `PairwiseEmd`, because `Emd1d`
//!   itself chooses `balanced`'s attributes by the column screen, which
//!   needs no bound;
//! * that column-screened `Emd1d` search gives the pairwise search's
//!   bits and partitioning with zero pairs bound-screened, every
//!   candidate round decided by columns, and no tie;
//! * repeated cold evaluations spawn no new pool threads — workers are
//!   spawned once and reused, never per call.

use criterion::{criterion_group, criterion_main, Criterion};
use fairjob_bench::{prepare_population, quartiles, PairwiseEmd};
use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::pool::WorkerPool;
use fairjob_core::unfairness::average_pairwise;
use fairjob_core::{AuditConfig, AuditContext, AuditResult, EngineStats, EvalEngine, Partition};
use fairjob_hist::distance::Emd1d;
use fairjob_hist::{DistanceError, Histogram, HistogramDistance};
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use fairjob_store::Table;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `Emd1d` stripped of its bound provider: identical distances, but
/// the candidate search can never prune — the unpruned baseline.
#[derive(Debug)]
struct NoBounds;

impl HistogramDistance for NoBounds {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        Emd1d.distance(a, b)
    }
    fn name(&self) -> &'static str {
        "emd-no-bounds"
    }
}

/// The 360-partition workload of the split-search bench: five of the
/// six attributes pre-split over the standard generated population.
/// At 256 partitions or more, a full evaluation takes the chunked path.
fn partitions(ctx: &AuditContext<'_>) -> Vec<Partition> {
    let attrs = ctx.attributes();
    let parts = ctx.cells(&attrs[..attrs.len() - 1]);
    assert!(
        parts.len() >= 256,
        "bench workload must cover >= 256 partitions, got {}",
        parts.len()
    );
    parts
}

/// The context at a worker-thread count, under `distance`.
fn at_threads<'a>(
    workers: &'a Table,
    scores: &'a [f64],
    distance: &Arc<dyn HistogramDistance>,
    threads: usize,
) -> AuditContext<'a> {
    let cfg = AuditConfig {
        threads: Some(threads),
        ..AuditConfig::with_distance(Arc::clone(distance))
    };
    AuditContext::new(workers, scores, cfg).expect("audit context")
}

/// The counters an engine's own work fixes: the shard meters are
/// context-cumulative and follow the context's thread budget.
fn engine_local(stats: EngineStats) -> EngineStats {
    EngineStats {
        shard_tasks: 0,
        rows_classified_parallel: 0,
        ..stats
    }
}

/// The evaluation contract under `distance`: bit-identity with the
/// naive reference, every pair computed once, and thread independence.
fn assert_evaluation_contract(
    workers: &Table,
    scores: &[f64],
    parts: &[Partition],
    distance: &Arc<dyn HistogramDistance>,
) {
    let hists: Vec<&Histogram> = parts
        .iter()
        .map(|p| &p.histogram)
        .filter(|h| !h.is_empty())
        .collect();
    let serial = average_pairwise(&hists, &Emd1d).expect("serial reference");
    let pairs = (hists.len() * (hists.len() - 1) / 2) as u64;
    let ctx = at_threads(workers, scores, distance, 1);
    let engine = EvalEngine::new(&ctx);
    let value = engine.unfairness(parts).expect("engine evaluation");
    assert_eq!(
        value.to_bits(),
        serial.to_bits(),
        "engine evaluation diverged from the serial reference: {value} vs {serial}"
    );
    let stats = engine_local(engine.stats());
    assert_eq!(
        stats.distances_computed, pairs,
        "a cold evaluation computes every pair once"
    );
    assert_eq!(stats.cache_hits, 0);
    assert!(
        stats.pool_tasks > 0,
        "{} partitions did not take the chunked path",
        hists.len()
    );
    for threads in [2usize, 3, 8] {
        let ctx = at_threads(workers, scores, distance, threads);
        let engine = EvalEngine::new(&ctx);
        let par = engine.unfairness(parts).expect("parallel evaluation");
        assert_eq!(
            engine_local(engine.stats()),
            stats,
            "{threads}-thread counters diverged"
        );
        assert_eq!(
            par.to_bits(),
            value.to_bits(),
            "{threads}-thread value diverged"
        );
    }
    println!(
        "evaluation contract ({}): {} histograms, {} pairs computed in {} pool tasks; value bit-identical to the serial reference at 1/2/3/8 threads",
        distance.name(),
        hists.len(),
        stats.distances_computed,
        stats.pool_tasks,
    );
}

/// The branch-and-bound search contract: with bounds available the
/// Worst-attribute search prunes candidates (real counter, not timing)
/// and still returns the unpruned result bit for bit. Returns the
/// pruned run.
fn assert_search_prunes(ctx: &AuditContext<'_>, unpruned_ctx: &AuditContext<'_>) -> AuditResult {
    let pruned = Balanced::new(AttributeChoice::Worst)
        .run(ctx)
        .expect("pruned search");
    let unpruned = Balanced::new(AttributeChoice::Worst)
        .run(unpruned_ctx)
        .expect("unpruned search");
    assert_eq!(
        pruned.unfairness.to_bits(),
        unpruned.unfairness.to_bits(),
        "pruning changed the search result: {} vs {}",
        pruned.unfairness,
        unpruned.unfairness
    );
    assert_eq!(pruned.partitioning.len(), unpruned.partitioning.len());
    assert!(
        pruned.engine.bounds_screened > 0,
        "the candidate search never pruned on the standard workload"
    );
    assert_eq!(unpruned.engine.bounds_screened, 0);
    println!(
        "search contract: pruned run screened {} pairs, solved {} exactly ({} distances computed); unpruned run computed {}",
        pruned.engine.bounds_screened,
        pruned.engine.exact_solves,
        pruned.engine.distances_computed,
        unpruned.engine.distances_computed,
    );
    pruned
}

/// The column-screen contract: `Emd1d`'s `balanced` chooses every
/// attribute from sorted L1 columns and lands on the pairwise search's
/// answer bit for bit, without bounding a single pair.
fn assert_column_screen(ctx: &AuditContext<'_>, pairwise: &AuditResult) {
    let screened = Balanced::new(AttributeChoice::Worst)
        .run(ctx)
        .expect("column-screened search");
    assert_eq!(
        screened.unfairness.to_bits(),
        pairwise.unfairness.to_bits(),
        "the column screen changed the search result: {} vs {}",
        screened.unfairness,
        pairwise.unfairness
    );
    assert_eq!(
        screened.partitioning.partitions(),
        pairwise.partitioning.partitions(),
        "the column screen changed the partitioning"
    );
    assert_eq!(screened.engine.bounds_screened, 0);
    assert!(
        screened.engine.column_scored > 0,
        "no candidate was scored from columns"
    );
    assert_eq!(
        screened.engine.column_ties, 0,
        "a candidate round fell back to exact scoring"
    );
    println!(
        "column contract: {} candidates scored from columns, {} ties, {} distances computed; balanced took {:?} on columns, {:?} pairwise",
        screened.engine.column_scored,
        screened.engine.column_ties,
        screened.engine.distances_computed,
        screened.elapsed,
        pairwise.elapsed,
    );
}

/// The pool contract: evaluations reuse the persistent workers — the
/// lifetime spawn counter stays flat across repeated cold evaluations.
fn assert_pool_persistence(ctx: &AuditContext<'_>, parts: &[Partition]) {
    let pool = WorkerPool::global();
    let cold = || {
        EvalEngine::new(ctx)
            .unfairness(parts)
            .expect("cold evaluation")
    };
    cold();
    let spawned = pool.threads_spawned();
    assert!(
        spawned <= pool.max_workers(),
        "pool spawned {spawned} threads with a cap of {}",
        pool.max_workers()
    );
    for _ in 0..20 {
        cold();
    }
    assert_eq!(
        pool.threads_spawned(),
        spawned,
        "repeated evaluations spawned new threads — per-call spawning is back"
    );
    println!(
        "pool contract: {} lifetime spawns over 21 cold evaluations (cap {})",
        pool.threads_spawned(),
        pool.max_workers()
    );
}

/// Cold evaluations per path in the `BENCH_pairwise.json` trajectory.
const TRAJECTORY_RUNS: usize = 9;

/// Time [`TRAJECTORY_RUNS`] cold evaluations of `parts` per path — a
/// fresh engine at one thread and at four, and the naive
/// [`average_pairwise`] reference — one run of each path per round, so
/// drift in the host's speed hits every path alike, and write their
/// median and interquartile range to `BENCH_pairwise.json` at the
/// workspace root, with the machine's available parallelism.
fn write_trajectory(
    parts: &[Partition],
    one_thread: &AuditContext<'_>,
    four_threads: &AuditContext<'_>,
) {
    let hists: Vec<&Histogram> = parts.iter().map(|p| &p.histogram).collect();
    let live = hists.iter().filter(|h| !h.is_empty()).count();
    let paths: [(&str, &dyn Fn() -> f64); 3] = [
        ("engine_1_thread", &|| {
            EvalEngine::new(one_thread)
                .unfairness(parts)
                .expect("cold evaluation")
        }),
        ("engine_4_threads", &|| {
            EvalEngine::new(four_threads)
                .unfairness(parts)
                .expect("cold evaluation")
        }),
        ("average_pairwise", &|| {
            average_pairwise(&hists, &Emd1d).expect("naive evaluation")
        }),
    ];
    let mut samples_us = vec![Vec::with_capacity(TRAJECTORY_RUNS); paths.len()];
    for _ in 0..TRAJECTORY_RUNS {
        for ((_, run), samples) in paths.iter().zip(&mut samples_us) {
            let started = Instant::now();
            black_box(run());
            samples.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timings: Vec<String> = paths
        .iter()
        .zip(&samples_us)
        .map(|((name, _), samples)| {
            let [q1, median, q3] = quartiles(samples).expect("timed runs");
            format!(
                "\"{name}\":{{\"median\":{median:.1},\"q1\":{q1:.1},\"q3\":{q3:.1},\"iqr\":{:.1}}}",
                q3 - q1
            )
        })
        .collect();
    let json = format!(
        "{{\"bench\":\"pairwise_kernel\",\"partitions\":{live},\"pairs\":{},\"runs\":{TRAJECTORY_RUNS},\"nproc\":{nproc},\"cold_us\":{{{}}}}}\n",
        live * (live - 1) / 2,
        timings.join(",")
    );
    // `cargo bench` runs with the package directory as cwd; BENCH_*.json
    // lands at the workspace root either way.
    let path = if std::path::Path::new("../../Cargo.toml").exists() {
        "../../BENCH_pairwise.json"
    } else {
        "BENCH_pairwise.json"
    };
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("pairwise_kernel: could not write {path}: {e}");
    }
    println!("pairwise_kernel trajectory: {json}");
}

fn bench_pairwise_kernel(c: &mut Criterion) {
    let workers = prepare_population(4000, 0xEDB7_2019);
    let scores = LinearScore::alpha("f1", 0.5)
        .score_all(&workers)
        .expect("scores");
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).expect("audit context");
    let emd: Arc<dyn HistogramDistance> = Arc::new(Emd1d);
    let pairwise_emd: Arc<dyn HistogramDistance> = Arc::new(PairwiseEmd);
    let pairwise_ctx = at_threads(&workers, &scores, &pairwise_emd, 1);
    let unpruned_ctx = AuditContext::new(
        &workers,
        &scores,
        AuditConfig::with_distance(Arc::new(NoBounds)),
    )
    .expect("unpruned context");
    let parts = partitions(&ctx);
    let one_thread = at_threads(&workers, &scores, &emd, 1);
    let four_threads = at_threads(&workers, &scores, &emd, 4);

    assert_evaluation_contract(&workers, &scores, &parts, &emd);
    assert_evaluation_contract(&workers, &scores, &parts, &pairwise_emd);
    let pairwise = assert_search_prunes(&pairwise_ctx, &unpruned_ctx);
    assert_column_screen(&ctx, &pairwise);
    assert_pool_persistence(&four_threads, &parts);
    write_trajectory(&parts, &one_thread, &four_threads);

    let mut group = c.benchmark_group("pairwise_kernel");
    group.sample_size(10);
    for (name, ctx) in [
        ("cold_1_thread", &one_thread),
        ("cold_4_threads", &four_threads),
        ("cold_memo_1_thread", &pairwise_ctx),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(EvalEngine::new(ctx).unfairness(&parts).expect("eval")))
        });
    }
    let warm = EvalEngine::new(&pairwise_ctx);
    warm.unfairness(&parts).expect("warm-up");
    group.bench_function("warm_memo", |b| {
        b.iter(|| black_box(warm.unfairness(&parts).expect("eval")))
    });
    group.finish();
}

criterion_group!(benches, bench_pairwise_kernel);
criterion_main!(benches);
