//! Split-search bench: a greedy candidate search over a ≥100-partition
//! synthetic audit, where each round asks for the split of *every*
//! current partition and commits only one — exactly the access pattern
//! of the paper's algorithms, where losing candidates are re-requested
//! round after round.
//!
//! Two paths are compared. The naive path re-runs the
//! posting-intersection oracle ([`AuditContext::split_legacy`]) for every
//! request, every round. The engine path answers through
//! [`EvalEngine::split_batch`]: the context's cell cube on first touch
//! (a partition's cells grouped by the attribute's code), the
//! fingerprint-keyed split cache afterwards.
//!
//! Beyond timing, this bench *asserts* the fast path's contract with
//! real counters (row scans and split computations, not wall-clock):
//! the engine must read at least 5× fewer rows (`rows_scanned`: the
//! rows read into the cube at context build; splits read cells) and
//! compute at least 3× fewer splits than the naive path over the same
//! trajectory, the final unfairness must stay within 1e-9 of the naive
//! value, and the engine trajectory must be bit-identical for every
//! worker-thread count.

use criterion::{criterion_group, criterion_main, Criterion};
use fairjob_bench::prepare_population;
use fairjob_core::{AuditConfig, AuditContext, EngineStats, EvalEngine, Partition};
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use std::hint::black_box;
use std::sync::Arc;

/// How many greedy commit rounds the search runs (bounded by the number
/// of splittable partitions in the workload; asserted below).
const ROUNDS: usize = 8;

struct Workload<'a> {
    workers: &'a fairjob_store::table::Table,
    scores: &'a [f64],
    /// One worker thread.
    ctx: AuditContext<'a>,
    /// The ≥100-partition starting partitioning (five of the six
    /// attributes pre-split).
    base: Vec<Partition>,
    /// The one attribute left for the candidate search.
    attr: usize,
    /// Distinct codes of `attr` across the whole table — the legacy
    /// path walks one posting list per code.
    cardinality: usize,
}

/// The default context at a worker-thread count.
fn at_threads<'a>(
    workers: &'a fairjob_store::table::Table,
    scores: &'a [f64],
    threads: usize,
) -> AuditContext<'a> {
    let cfg = AuditConfig {
        threads: Some(threads),
        ..AuditConfig::default()
    };
    AuditContext::new(workers, scores, cfg).expect("audit context")
}

fn workload<'a>(workers: &'a fairjob_store::table::Table, scores: &'a [f64]) -> Workload<'a> {
    let ctx = at_threads(workers, scores, 1);
    let attrs = ctx.attributes().to_vec();
    let (pre_split, attr) = (&attrs[..attrs.len() - 1], attrs[attrs.len() - 1]);
    let base = ctx.cells(pre_split);
    assert!(
        base.len() >= 100,
        "bench workload must audit >= 100 partitions, got {}",
        base.len()
    );
    let cardinality = ctx
        .split_legacy(&ctx.root(), attr)
        .map(|children| children.len())
        .expect("search attribute splits the root");
    let splittable = base.iter().filter(|p| ctx.split(p, attr).is_some()).count();
    assert!(
        splittable >= ROUNDS,
        "need >= {ROUNDS} splittable partitions, got {splittable}"
    );
    Workload {
        workers,
        scores,
        ctx,
        base,
        attr,
        cardinality,
    }
}

/// The greedy search on the legacy split path, with the seed's touch
/// count accounted per computed split: the linear posting merge walks
/// every posting entry of the attribute (`table_len` in total) plus the
/// partition's rows once per distinct code.
fn naive_search(w: &Workload<'_>) -> (Vec<Partition>, u64, u64) {
    let table_len = w.ctx.rows() as u64;
    let mut current = w.base.clone();
    let (mut splits, mut rows) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        let mut commit: Option<(usize, Vec<Partition>)> = None;
        for (i, part) in current.iter().enumerate() {
            if part.predicate.constrains(w.attr) {
                continue; // cheap predicate check, not a split
            }
            splits += 1;
            rows += table_len + w.cardinality as u64 * part.len() as u64;
            if let Some(children) = w.ctx.split_legacy(part, w.attr) {
                if commit.is_none() {
                    commit = Some((i, children));
                }
            }
        }
        let Some((i, children)) = commit else { break };
        current.splice(i..=i, children);
    }
    (current, splits, rows)
}

/// The same greedy search answered through the engine's split cache
/// and the context's cell cube.
fn engine_search(engine: &EvalEngine<'_, '_>, w: &Workload<'_>) -> Vec<Arc<Partition>> {
    let mut current: Vec<Arc<Partition>> = w.base.iter().cloned().map(Arc::new).collect();
    for _ in 0..ROUNDS {
        let requests: Vec<(&Partition, usize)> =
            current.iter().map(|p| (p.as_ref(), w.attr)).collect();
        let results = engine.split_batch(&requests);
        let Some((i, children)) = results
            .into_iter()
            .enumerate()
            .find_map(|(i, r)| r.map(|children| (i, children)))
        else {
            break;
        };
        current.splice(i..=i, children.iter().cloned());
    }
    current
}

/// The counter/parity contract, asserted once with real workloads before
/// any timing runs.
fn assert_split_contract(w: &Workload<'_>) {
    let (naive_parts, naive_splits, naive_rows) = naive_search(w);
    let naive_value = w.ctx.unfairness(&naive_parts).expect("naive eval");

    let engine = EvalEngine::new(&w.ctx);
    let engine_parts = engine_search(&engine, w);
    let stats = engine.stats();
    let engine_value = engine.unfairness(&engine_parts).expect("engine eval");

    assert_eq!(
        naive_parts.len(),
        engine_parts.len(),
        "diverged trajectories"
    );
    assert!(
        (naive_value - engine_value).abs() < 1e-9,
        "final unfairness diverged: naive {naive_value} vs engine {engine_value}"
    );
    assert!(
        stats.rows_scanned.saturating_mul(5) <= naive_rows,
        "engine must scan >= 5x fewer rows: {} vs naive {naive_rows}",
        stats.rows_scanned
    );
    assert!(
        stats.splits_computed.saturating_mul(3) <= naive_splits,
        "engine must compute >= 3x fewer splits: {} vs naive {naive_splits}",
        stats.splits_computed
    );

    // Bit-identical results and counters for every worker-thread count,
    // one context per count. The shard meters are context-cumulative
    // and follow the context's thread budget, so only the engine-local
    // counters are compared.
    let engine_local = |mut stats: EngineStats| {
        stats.shard_tasks = 0;
        stats.rows_classified_parallel = 0;
        stats
    };
    for threads in [2usize, 3, 8] {
        let ctx = at_threads(w.workers, w.scores, threads);
        let parallel = EvalEngine::new(&ctx);
        let parts = engine_search(&parallel, w);
        assert_eq!(
            engine_local(parallel.stats()),
            engine_local(stats),
            "{threads}-thread counters diverged"
        );
        let value = parallel.unfairness(&parts).expect("parallel eval");
        assert_eq!(
            engine_value.to_bits(),
            value.to_bits(),
            "{threads} threads diverged: {engine_value} vs {value}"
        );
        assert_eq!(parts.len(), engine_parts.len());
    }

    println!(
        "split contract: {} partitions, {} rounds; splits: naive {naive_splits}, engine {} \
         ({} cache hits); rows: naive {naive_rows}, engine {} ({}x fewer)",
        w.base.len(),
        ROUNDS,
        stats.splits_computed,
        stats.split_cache_hits,
        stats.rows_scanned,
        naive_rows / stats.rows_scanned.max(1),
    );
}

fn bench_split_search(c: &mut Criterion) {
    let workers = prepare_population(4000, 0xEDB7_2019);
    let scores = LinearScore::alpha("f1", 0.5)
        .score_all(&workers)
        .expect("scores");
    let w = workload(&workers, &scores);
    assert_split_contract(&w);
    let parallel_ctx = at_threads(&workers, &scores, 4);

    let mut group = c.benchmark_group("split_search");
    group.sample_size(10);
    group.bench_function("naive", |b| b.iter(|| black_box(naive_search(&w))));
    group.bench_function("engine", |b| {
        b.iter(|| {
            let engine = EvalEngine::new(&w.ctx);
            black_box(engine_search(&engine, &w))
        })
    });
    group.bench_function("engine_parallel", |b| {
        b.iter(|| {
            let engine = EvalEngine::new(&parallel_ctx);
            black_box(engine_search(&engine, &w))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_split_search);
criterion_main!(benches);
