//! Parity guarantees for the evaluation engine: every cached,
//! incremental, or parallel unfairness value must stay within 1e-9 of
//! the naive O(k²) evaluation it replaces — across random populations,
//! scoring functions, and every algorithm of the paper's comparison.

mod common;

use common::population;
use fairjob_core::algorithms::all_attributes::AllAttributes;
use fairjob_core::algorithms::Algorithm;
use fairjob_core::algorithms::{balanced::Balanced, beam::Beam};
use fairjob_core::algorithms::{paper_algorithms, unbalanced::Unbalanced, AttributeChoice};
use fairjob_core::unfairness::average_pairwise;
use fairjob_core::{AuditConfig, AuditContext, EngineStats, EvalEngine, IncrementalEval};
use fairjob_hist::distance::Emd1d;
use fairjob_hist::{DistanceError, Histogram, HistogramDistance};
use fairjob_marketplace::stream::Event;
use fairjob_store::column::CodeColumn;
use fairjob_store::paged::write_paged;
use fairjob_store::schema::{AttributeKind, Schema};
use fairjob_store::table::{Table, Value};
use fairjob_store::{PagedStore, RowSet};
use fairjob_stream::StreamView;
use proptest::prelude::*;
use std::sync::Arc;

const TOLERANCE: f64 = 1e-9;

/// `Emd1d` stripped of its bound provider: identical distances, but the
/// branch-and-bound screen can never fire, so every candidate is scored
/// exactly. Used to prove pruning never changes a search result.
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

/// The chunked full evaluation — what every evaluation of 256 or more
/// live partitions runs — gives the naive reference's bits at every
/// thread count, with the same engine-local counters: `all-attributes`
/// over the 500-worker population evaluates its 434 partitions there.
#[test]
fn chunked_evaluation_matches_the_reference_at_any_thread_count() {
    let (workers, scores) = population(500, 2019, false);
    let mut first: Option<EngineStats> = None;
    for threads in [1usize, 2, 3, 7] {
        let cfg = AuditConfig {
            threads: Some(threads),
            ..AuditConfig::default()
        };
        let ctx = AuditContext::new(&workers, &scores, cfg).unwrap();
        let result = AllAttributes.run(&ctx).unwrap();
        let parts = result.partitioning.partitions();
        assert!(parts.len() >= 256, "{} partitions", parts.len());
        let hists: Vec<&Histogram> = parts.iter().map(|p| &p.histogram).collect();
        let reference = average_pairwise(&hists, &Emd1d).unwrap();
        assert_eq!(
            result.unfairness.to_bits(),
            reference.to_bits(),
            "{threads} threads: {} vs {reference}",
            result.unfairness
        );
        // The shard meters are context-cumulative and follow the
        // context's thread budget; every other counter is the engine's.
        let local = EngineStats {
            shard_tasks: 0,
            rows_classified_parallel: 0,
            ..result.engine
        };
        match &first {
            None => first = Some(local),
            Some(want) => assert_eq!(&local, want, "{threads}-thread counters diverged"),
        }
    }
}

/// `ctx.split` equals the posting-intersection oracle
/// `ctx.split_legacy` — same predicates, rows and histograms — for every
/// attribute at the root and, below the first attribute that splits the
/// root, for every other attribute on every child.
fn assert_split_matches_oracle(ctx: &AuditContext<'_>, what: &str) {
    let root = ctx.root();
    for &a in ctx.attributes() {
        assert_eq!(
            ctx.split(&root, a),
            ctx.split_legacy(&root, a),
            "{what}: root attr {a}"
        );
    }
    if let Some((first, children)) = ctx
        .attributes()
        .iter()
        .find_map(|&a| ctx.split(&root, a).map(|c| (a, c)))
    {
        for child in &children {
            for &a in ctx.attributes().iter().filter(|&&a| a != first) {
                assert_eq!(
                    ctx.split(child, a),
                    ctx.split_legacy(child, a),
                    "{what}: child of {first} by attr {a}"
                );
            }
        }
    }
}

/// A stream context over 70 000 rows, one of them tombstoned, splits
/// its projected cube like the oracle at 2 and 7 threads, and its
/// build reads no row: the view maintains the cube.
#[test]
fn pooled_split_kernel_matches_legacy() {
    let (workers, scores) = population(70_000, 7, false);
    let mut view = StreamView::new(workers, scores, 10).unwrap();
    view.apply_epoch(&[Event::WorkerRemoved { worker: 0 }])
        .unwrap();
    for threads in [2, 7] {
        let config = AuditConfig {
            attributes: Some(vec!["gender".into(), "country".into()]),
            threads: Some(threads),
            ..AuditConfig::default()
        };
        let ctx = view.context(config).unwrap();
        assert_split_matches_oracle(&ctx, &format!("pooled, {threads} threads"));
        assert_eq!(ctx.cube_rows(), 0);
    }
}

/// A 300-value attribute and a 300-bin layout reach the four-byte key
/// and bin columns, which the paper's schema never does.
#[test]
fn wide_code_and_bin_columns_match_legacy() {
    let labels: Vec<String> = (0..300).map(|v| format!("v{v}")).collect();
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    let schema = Schema::builder()
        .categorical("wide", AttributeKind::Protected, &labels)
        .categorical("gender", AttributeKind::Protected, &["Male", "Female"])
        .build()
        .unwrap();
    let mut table = Table::new(schema);
    let mut scores = Vec::new();
    for r in 0..3_000usize {
        let gender = if r % 3 == 0 { "Male" } else { "Female" };
        table
            .push_row(&[Value::cat(labels[(r * 7) % 300]), Value::cat(gender)])
            .unwrap();
        scores.push(((r * 37) % 1_000) as f64 / 999.0);
    }
    for bins in [10usize, 300] {
        let ctx = AuditContext::new(&table, &scores, AuditConfig::with_bins(bins)).unwrap();
        assert_eq!(matches!(ctx.bin_of(), CodeColumn::Wide(_)), bins > 256);
        assert_split_matches_oracle(&ctx, &format!("bins={bins}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every algorithm's reported unfairness equals the naive recompute
    /// of its final partitioning, and a fresh engine agrees with the
    /// naive evaluation on that partitioning. (These populations stay
    /// below the chunked evaluation's 256 partitions;
    /// `chunked_evaluation_matches_the_reference_at_any_thread_count`
    /// covers it.)
    #[test]
    fn algorithms_agree_with_naive_evaluation(
        size in 60usize..220,
        seed in 0u64..1_000,
    ) {
        let (workers, scores) = population(size, seed, seed % 2 == 0);
        let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
        let mut algos = paper_algorithms(seed);
        algos.push(Box::new(Beam::new(2)));
        algos.push(Box::new(Unbalanced::new(AttributeChoice::Worst).with_cross_stopping()));
        for algo in &algos {
            let result = algo.run(&ctx).unwrap();
            let naive = ctx.unfairness(result.partitioning.partitions()).unwrap();
            prop_assert!(
                (result.unfairness - naive).abs() < TOLERANCE,
                "{}: engine {} vs naive {}",
                result.algorithm,
                result.unfairness,
                naive
            );
            // The engine never reports more computed distances than the
            // lookups it answered.
            prop_assert!(result.engine.distances_computed <= result.engine.lookups());

            let fresh = EvalEngine::new(&ctx);
            let parts = result.partitioning.partitions();
            prop_assert!((fresh.unfairness(parts).unwrap() - naive).abs() < TOLERANCE);
        }
    }

    /// Cube splits produce exactly the children the legacy posting-list
    /// path produces, on batch, stream and paged contexts.
    #[test]
    fn split_kernel_matches_legacy_at_core_level(
        size in 60usize..220,
        seed in 0u64..1_000,
    ) {
        let (workers, scores) = population(size, seed, seed % 2 == 1);
        let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
        assert_split_matches_oracle(&ctx, "batch");

        // A stream view's maintained parts over its live rows.
        let mut view = StreamView::new(workers.clone(), scores.clone(), 10).unwrap();
        view.apply_epoch(&[Event::WorkerRemoved { worker: 0 }]).unwrap();
        assert_split_matches_oracle(&view.context(AuditConfig::default()).unwrap(), "stream");

        // The paged build, over a live subset.
        let mut path = std::env::temp_dir();
        path.push(format!("fairjob-engine-parity-{}-{size}-{seed}.fjp", std::process::id()));
        let live = RowSet::from_sorted((0..size as u32).filter(|r| r % 5 != 0).collect());
        write_paged(&path, &workers, Some(&scores), Some(&live), 0, 10).unwrap();
        let store = PagedStore::open(&path, 1 << 20).unwrap();
        let paged = AuditContext::from_paged(&store, AuditConfig::default(), None, None).unwrap();
        assert_split_matches_oracle(&paged, "paged");
        let _ = std::fs::remove_file(&path);
    }

    /// The parallel candidate search is deterministic: every algorithm
    /// returns a bit-identical unfairness value and the same
    /// partitioning shape regardless of the worker thread count.
    #[test]
    fn algorithms_are_bit_identical_across_thread_counts(
        size in 60usize..200,
        seed in 0u64..1_000,
    ) {
        let (workers, scores) = population(size, seed, seed % 2 == 0);
        let baseline = AuditContext::new(
            &workers,
            &scores,
            AuditConfig { threads: Some(1), ..AuditConfig::default() },
        )
        .unwrap();
        let suite = |seed: u64| {
            let mut algos = paper_algorithms(seed);
            algos.push(Box::new(Beam::new(2)));
            algos.push(Box::new(Unbalanced::new(AttributeChoice::Worst).with_cross_stopping()));
            algos
        };
        for threads in [3usize, 8] {
            let ctx = AuditContext::new(
                &workers,
                &scores,
                AuditConfig { threads: Some(threads), ..AuditConfig::default() },
            )
            .unwrap();
            for (serial, parallel) in suite(seed).iter().zip(suite(seed).iter()) {
                let a = serial.run(&baseline).unwrap();
                let b = parallel.run(&ctx).unwrap();
                prop_assert_eq!(
                    a.unfairness.to_bits(),
                    b.unfairness.to_bits(),
                    "{} with {} threads: {} vs {}",
                    a.algorithm,
                    threads,
                    a.unfairness,
                    b.unfairness
                );
                prop_assert_eq!(a.partitioning.len(), b.partitioning.len());
            }
        }
    }

    /// Branch-and-bound pruning never changes a search result: the same
    /// Worst-attribute searches run with `Emd1d` (bounds available, the
    /// screen prunes) and with the bound-less wrapper (every candidate
    /// scored exactly) return bit-identical unfairness values and the
    /// same partitioning shapes.
    #[test]
    fn pruned_search_matches_unpruned_search(
        size in 60usize..200,
        seed in 0u64..1_000,
    ) {
        let (workers, scores) = population(size, seed, seed % 2 == 0);
        let pruned_ctx =
            AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
        let unpruned_ctx = AuditContext::new(
            &workers,
            &scores,
            AuditConfig::with_distance(Arc::new(NoBounds)),
        )
        .unwrap();
        let suite = || -> Vec<Box<dyn Algorithm>> {
            vec![
                Box::new(Unbalanced::new(AttributeChoice::Worst)),
                Box::new(Balanced::new(AttributeChoice::Worst)),
                Box::new(Beam::new(2)),
            ]
        };
        for (a, b) in suite().iter().zip(suite().iter()) {
            let pruned = a.run(&pruned_ctx).unwrap();
            let unpruned = b.run(&unpruned_ctx).unwrap();
            prop_assert_eq!(
                pruned.unfairness.to_bits(),
                unpruned.unfairness.to_bits(),
                "{}: pruned {} vs unpruned {}",
                pruned.algorithm,
                pruned.unfairness,
                unpruned.unfairness
            );
            prop_assert_eq!(pruned.partitioning.len(), unpruned.partitioning.len());
            // Without bounds the screen can never settle a pair.
            prop_assert_eq!(unpruned.engine.bounds_screened, 0);
        }
    }

    /// Delta evaluation of candidate splits matches materialise+naive.
    #[test]
    fn incremental_scores_match_materialised_naive(
        size in 80usize..260,
        seed in 0u64..1_000,
    ) {
        let (workers, scores) = population(size, seed, true);
        let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
        let engine = EvalEngine::new(&ctx);
        // Start one split down so there is a level to delta-evaluate.
        let attrs = ctx.attributes().to_vec();
        let base = ctx.split(&ctx.root(), attrs[0]).unwrap_or_else(|| vec![ctx.root()]);
        let mut incremental = IncrementalEval::new(&engine, &base).unwrap();
        for &a in &attrs[1..] {
            // Candidate: split every partition that can split by `a`.
            let splits: Vec<(usize, Vec<fairjob_core::Partition>)> = base
                .iter()
                .enumerate()
                .filter_map(|(i, p)| ctx.split(p, a).map(|children| (i, children)))
                .collect();
            if splits.is_empty() {
                continue;
            }
            let replacements: Vec<(usize, &[fairjob_core::Partition])> =
                splits.iter().map(|(i, children)| (*i, children.as_slice())).collect();
            let score = incremental.score_replacements(&replacements).unwrap();

            let mut materialised: Vec<fairjob_core::Partition> = Vec::new();
            let mut next = 0;
            for (i, p) in base.iter().enumerate() {
                if next < splits.len() && splits[next].0 == i {
                    materialised.extend(splits[next].1.iter().cloned());
                    next += 1;
                } else {
                    materialised.push(p.clone());
                }
            }
            let naive = ctx.unfairness(&materialised).unwrap();
            prop_assert!(
                (score - naive).abs() < TOLERANCE,
                "attr {a}: incremental {score} vs naive {naive}"
            );
        }
    }
}
