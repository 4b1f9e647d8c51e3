//! Pairwise-EMD kernel bench: the bound-screen / exact-solve funnel on
//! a ≥100-partition synthetic audit — the innermost loop of Definition
//! 2, where every unfairness evaluation averages the distance over all
//! partition pairs.
//!
//! Three paths are timed. `screened` runs [`pairwise_emd_batch`] with
//! `Emd1d`, whose cached-prefix-CDF closed form settles every pair in
//! the bound screen without an exact solve. `exact_only` runs the same
//! kernel with the bound-less wrapper, forcing the full solver on every
//! pair (the seed behaviour). `exact_only_parallel` adds the persistent
//! worker pool.
//!
//! Beyond timing, this bench *asserts* the kernel's contract with real
//! counters before any timing runs:
//!
//! * the bound screen prunes at least 50% of the exact solves (for
//!   `Emd1d` it settles 100% of the pairs);
//! * the screened value is bit-identical to the serial reference, and
//!   value + counters are identical for every thread count;
//! * a hopeless batch is abandoned by its upper bound with zero exact
//!   solves, while an incumbent is never abandoned against its own
//!   value;
//! * the branch-and-bound candidate search actually prunes on this
//!   workload (engine `bounds_screened > 0`) and matches the unpruned
//!   value bit for bit. It runs on `PairwiseEmd`, `Emd1d` without its
//!   L1 form, because `Emd1d` itself chooses `balanced`'s attributes by
//!   the column screen, which needs no bound;
//! * that column-screened `Emd1d` search gives the pairwise search's
//!   bits and partitioning with zero pairs bound-screened, every
//!   candidate round decided by columns, and no tie;
//! * repeated batches spawn no new pool threads — workers are spawned
//!   once and reused, never per call.

use criterion::{criterion_group, criterion_main, Criterion};
use fairjob_bench::prepare_population;
use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::pool::WorkerPool;
use fairjob_core::unfairness::{average_pairwise, pairwise_emd_batch, BatchValue};
use fairjob_core::{AuditConfig, AuditContext, AuditResult, Partition};
use fairjob_hist::distance::Emd1d;
use fairjob_hist::{DistanceBounds, DistanceError, Histogram, HistogramDistance};
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use std::hint::black_box;
use std::sync::Arc;

/// `Emd1d` stripped of its bound provider: identical distances, but
/// every pair pays an exact solve — the pre-kernel baseline.
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

/// `Emd1d` without its L1 form: the same distances and exact bounds,
/// so `balanced` scores its candidates pairwise through the memo and
/// the bound screen instead of from sorted columns.
#[derive(Debug)]
struct PairwiseEmd;

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

/// The ≥100-partition workload of the split-search bench: five of the
/// six attributes pre-split over the standard generated population.
fn partitions(ctx: &AuditContext<'_>) -> Vec<Partition> {
    let attrs = ctx.attributes().to_vec();
    let mut parts = vec![ctx.root()];
    for &a in &attrs[..attrs.len() - 1] {
        parts = parts
            .iter()
            .flat_map(|p| ctx.split(p, a).unwrap_or_else(|| vec![p.clone()]))
            .collect();
    }
    assert!(
        parts.len() >= 100,
        "bench workload must cover >= 100 partitions, got {}",
        parts.len()
    );
    parts
}

/// The kernel contract: bit-identity, thread independence, and the
/// >= 50% prune-rate gate CI runs this bench for.
fn assert_kernel_contract(hists: &[&Histogram]) {
    let serial = average_pairwise(hists, &Emd1d).expect("serial reference");
    let out = pairwise_emd_batch(hists, &Emd1d, 1, None).expect("screened kernel");
    assert_eq!(
        out.value,
        BatchValue::Average(serial),
        "screened kernel diverged from the serial reference"
    );
    let stats = out.stats;
    assert!(stats.pairs > 0);
    assert!(
        stats.bounds_screened * 2 >= stats.pairs,
        "bound screen settled {} of {} pairs — fewer than the 50% the kernel promises",
        stats.bounds_screened,
        stats.pairs
    );
    for threads in [2usize, 3, 8] {
        let par = pairwise_emd_batch(hists, &Emd1d, threads, None).expect("parallel kernel");
        assert_eq!(par.stats, stats, "{threads}-thread counters diverged");
        assert_eq!(par.value, out.value, "{threads}-thread value diverged");
    }
    // The exact-only path agrees too (it solves every pair), and its
    // counters show the funnel the screen removes.
    let exact = pairwise_emd_batch(hists, &NoBounds, 4, None).expect("exact kernel");
    let BatchValue::Average(exact_value) = exact.value else {
        panic!("no abandon threshold was set");
    };
    assert!(
        (exact_value - serial).abs() < 1e-9,
        "exact kernel diverged: {exact_value} vs {serial}"
    );
    assert_eq!(exact.stats.exact_solves, stats.pairs);

    // Abandonment: against an unbeatable incumbent the whole batch is
    // given up from bounds alone; against its own value it never is.
    let hopeless =
        pairwise_emd_batch(hists, &Emd1d, 1, Some(serial * 2.0 + 1.0)).expect("hopeless batch");
    let BatchValue::Abandoned(upper) = hopeless.value else {
        panic!("batch should be abandoned against an unbeatable incumbent");
    };
    assert_eq!(
        upper.to_bits(),
        serial.to_bits(),
        "exact bounds must reproduce the average as the upper bound"
    );
    assert_eq!(hopeless.stats.exact_solves, 0);
    let incumbent = pairwise_emd_batch(hists, &Emd1d, 1, Some(serial)).expect("incumbent batch");
    assert_eq!(incumbent.value, BatchValue::Average(serial));

    println!(
        "kernel contract: {} histograms, {} pairs; screened {} ({}%), exact solves {}, pool tasks {} (exact-only path: {} solves, {} pool tasks)",
        hists.len(),
        stats.pairs,
        stats.bounds_screened,
        100 * stats.bounds_screened / stats.pairs,
        stats.exact_solves,
        stats.pool_tasks,
        exact.stats.exact_solves,
        exact.stats.pool_tasks,
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

/// The pool contract: batches reuse the persistent workers — the
/// lifetime spawn counter stays flat across repeated calls.
fn assert_pool_persistence(hists: &[&Histogram]) {
    let pool = WorkerPool::global();
    let _ = pairwise_emd_batch(hists, &NoBounds, 4, None).expect("warm-up batch");
    let spawned = pool.threads_spawned();
    assert!(
        spawned <= pool.max_workers(),
        "pool spawned {spawned} threads with a cap of {}",
        pool.max_workers()
    );
    for _ in 0..20 {
        let _ = pairwise_emd_batch(hists, &NoBounds, 4, None).expect("repeat batch");
    }
    assert_eq!(
        pool.threads_spawned(),
        spawned,
        "repeated batches spawned new threads — per-call spawning is back"
    );
    println!(
        "pool contract: {} lifetime spawns over 21 parallel batches (cap {})",
        pool.threads_spawned(),
        pool.max_workers()
    );
}

fn bench_pairwise_kernel(c: &mut Criterion) {
    let workers = prepare_population(4000, 0xEDB7_2019);
    let scores = LinearScore::alpha("f1", 0.5)
        .score_all(&workers)
        .expect("scores");
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).expect("audit context");
    let pairwise_ctx = AuditContext::new(
        &workers,
        &scores,
        AuditConfig::with_distance(Arc::new(PairwiseEmd)),
    )
    .expect("pairwise context");
    let unpruned_ctx = AuditContext::new(
        &workers,
        &scores,
        AuditConfig::with_distance(Arc::new(NoBounds)),
    )
    .expect("unpruned context");
    let parts = partitions(&ctx);
    let hists: Vec<&Histogram> = parts
        .iter()
        .map(|p| &p.histogram)
        .filter(|h| !h.is_empty())
        .collect();

    assert_kernel_contract(&hists);
    let pairwise = assert_search_prunes(&pairwise_ctx, &unpruned_ctx);
    assert_column_screen(&ctx, &pairwise);
    assert_pool_persistence(&hists);

    let mut group = c.benchmark_group("pairwise_kernel");
    group.sample_size(10);
    group.bench_function("screened", |b| {
        b.iter(|| black_box(pairwise_emd_batch(&hists, &Emd1d, 1, None).expect("kernel")))
    });
    group.bench_function("exact_only", |b| {
        b.iter(|| black_box(pairwise_emd_batch(&hists, &NoBounds, 1, None).expect("kernel")))
    });
    group.bench_function("exact_only_parallel", |b| {
        b.iter(|| black_box(pairwise_emd_batch(&hists, &NoBounds, 4, None).expect("kernel")))
    });
    group.finish();
}

criterion_group!(benches, bench_pairwise_kernel);
criterion_main!(benches);
