//! Evaluation-engine bench: one unbalanced-style greedy round (score
//! every per-partition candidate split) over a 360-partition synthetic
//! audit, evaluated four ways — naive O(k²)-per-candidate recomputation,
//! memo-cached full evaluation on one worker thread and on four (each
//! candidate has 256 or more partitions, so both take the chunked
//! path), and delta (incremental) evaluation.
//!
//! Beyond timing, this bench *asserts* the engine's contract with real
//! counters (EMD evaluations, not wall-clock): the incremental path must
//! perform at least 5× fewer distance computations than the naive path
//! while every candidate score stays within 1e-9 of the naive value.

use criterion::{criterion_group, criterion_main, Criterion};
use fairjob_bench::prepare_population;
use fairjob_core::{AuditConfig, AuditContext, EvalEngine, IncrementalEval, Partition};
use fairjob_hist::distance::{DistanceError, Emd1d, HistogramDistance};
use fairjob_hist::Histogram;
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// [`Emd1d`] with an evaluation counter, so the naive path's distance
/// computations can be measured the same way the engine measures its own.
struct CountingEmd {
    count: AtomicU64,
}

impl HistogramDistance for CountingEmd {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        self.count.fetch_add(1, Ordering::Relaxed);
        Emd1d.distance(a, b)
    }
    fn name(&self) -> &'static str {
        "counting-emd"
    }
}

/// The bench workload: a partitioning of ≥256 partitions (five of the
/// six attributes pre-split) plus every per-partition candidate split on
/// the remaining attribute, capped at `MAX_CANDIDATES`.
const MAX_CANDIDATES: usize = 40;

struct Workload<'a> {
    /// One worker thread.
    ctx: AuditContext<'a>,
    /// Four worker threads, over the same table and distance.
    parallel_ctx: AuditContext<'a>,
    counter: Arc<CountingEmd>,
    base: Vec<Partition>,
    /// `(partition index, children)` candidate splits.
    candidates: Vec<(usize, Vec<Partition>)>,
}

fn workload<'a>(workers: &'a fairjob_store::table::Table, scores: &'a [f64]) -> Workload<'a> {
    let counter = Arc::new(CountingEmd {
        count: AtomicU64::new(0),
    });
    let at = |threads: usize| AuditConfig {
        threads: Some(threads),
        ..AuditConfig::with_distance(counter.clone())
    };
    let ctx = AuditContext::new(workers, scores, at(1)).expect("audit context");
    let parallel_ctx = AuditContext::new(workers, scores, at(4)).expect("parallel context");
    let attrs = ctx.attributes().to_vec();
    let (pre_split, last) = (&attrs[..attrs.len() - 1], attrs[attrs.len() - 1]);
    let base = ctx.cells(pre_split);
    assert!(
        base.len() >= 256,
        "bench workload must audit >= 256 partitions, got {}",
        base.len()
    );
    let candidates: Vec<(usize, Vec<Partition>)> = base
        .iter()
        .enumerate()
        .filter_map(|(i, p)| ctx.split(p, last).map(|children| (i, children)))
        .take(MAX_CANDIDATES)
        .collect();
    assert!(
        candidates.len() >= 10,
        "not enough candidate splits: {}",
        candidates.len()
    );
    Workload {
        ctx,
        parallel_ctx,
        counter,
        base,
        candidates,
    }
}

fn materialise(base: &[Partition], index: usize, children: &[Partition]) -> Vec<Partition> {
    let mut out = Vec::with_capacity(base.len() + children.len());
    for (i, p) in base.iter().enumerate() {
        if i == index {
            out.extend(children.iter().cloned());
        } else {
            out.push(p.clone());
        }
    }
    out
}

/// Score every candidate naively (fresh O(k²) evaluation each).
fn naive_round(w: &Workload<'_>) -> Vec<f64> {
    w.candidates
        .iter()
        .map(|(i, children)| {
            w.ctx
                .unfairness(&materialise(&w.base, *i, children))
                .expect("naive eval")
        })
        .collect()
}

/// Score every candidate through a fresh engine's cached full
/// evaluation, on one worker thread or on four.
fn cached_round(w: &Workload<'_>, parallel: bool) -> (Vec<f64>, u64) {
    let engine = EvalEngine::new(if parallel { &w.parallel_ctx } else { &w.ctx });
    let values = w
        .candidates
        .iter()
        .map(|(i, children)| {
            engine
                .unfairness(&materialise(&w.base, *i, children))
                .expect("cached eval")
        })
        .collect();
    (values, engine.stats().distances_computed)
}

/// Score every candidate by delta evaluation over one seeded averager.
fn incremental_round(w: &Workload<'_>) -> (Vec<f64>, u64) {
    let engine = EvalEngine::new(&w.ctx);
    let mut incremental = IncrementalEval::new(&engine, &w.base).expect("seed");
    let values = w
        .candidates
        .iter()
        .map(|(i, children)| {
            incremental
                .score_replacements(&[(*i, children.as_slice())])
                .expect("delta eval")
        })
        .collect();
    (values, engine.stats().distances_computed)
}

/// The counter/parity contract, asserted once with real workloads before
/// any timing runs.
fn assert_engine_contract(w: &Workload<'_>) {
    w.counter.count.store(0, Ordering::Relaxed);
    let naive = naive_round(w);
    let naive_count = w.counter.count.load(Ordering::Relaxed);

    let (cached, cached_count) = cached_round(w, false);
    let (parallel, parallel_count) = cached_round(w, true);
    let (incremental, incremental_count) = incremental_round(w);
    for (label, values) in [
        ("cached", &cached),
        ("parallel", &parallel),
        ("incremental", &incremental),
    ] {
        assert_eq!(values.len(), naive.len());
        for (got, want) in values.iter().zip(&naive) {
            assert!(
                (got - want).abs() < 1e-9,
                "{label} diverged from naive: {got} vs {want}"
            );
        }
    }
    for (label, count) in [
        ("cached", cached_count),
        ("parallel", parallel_count),
        ("incremental", incremental_count),
    ] {
        assert!(
            count.saturating_mul(5) <= naive_count,
            "{label} path must compute >= 5x fewer distances: {count} vs naive {naive_count}"
        );
    }
    println!(
        "engine contract: {} partitions, {} candidates; EMD evals: naive {}, cached {}, \
         parallel {}, incremental {} ({}x fewer)",
        w.base.len(),
        w.candidates.len(),
        naive_count,
        cached_count,
        parallel_count,
        incremental_count,
        naive_count / incremental_count.max(1),
    );
}

fn bench_engine(c: &mut Criterion) {
    let workers = prepare_population(4000, 0xEDB7_2019);
    let scores = LinearScore::alpha("f1", 0.5)
        .score_all(&workers)
        .expect("scores");
    let w = workload(&workers, &scores);
    assert_engine_contract(&w);

    let mut group = c.benchmark_group("engine_greedy_round");
    group.sample_size(10);
    group.bench_function("naive", |b| b.iter(|| black_box(naive_round(&w))));
    group.bench_function("cached", |b| {
        b.iter(|| black_box(cached_round(&w, false).0))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| black_box(cached_round(&w, true).0))
    });
    group.bench_function("incremental", |b| {
        b.iter(|| black_box(incremental_round(&w)))
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
