//! Out-of-core parity: an audit streamed off the paged store through a
//! bounded page cache must reproduce the in-memory audit bit for bit —
//! same unfairness bits, same partitioning, same engine-local counters
//! — at every (memory budget × thread count) layout.
//! The page-cache meters themselves are layout-dependent by definition
//! (a smaller budget re-reads more pages) but must stay truthful:
//! every audited page is either scanned or zone-skipped.

mod common;

use common::{layout, live_context, population, run_mem, worst_audit, TempPaged};
use fairjob_core::algorithms::{balanced::Balanced, by_name, Algorithm, AttributeChoice};
use fairjob_core::{AuditConfig, AuditContext, AuditResult, EngineStats};
use fairjob_store::{PagedStore, RowSet};
use proptest::prelude::*;

fn run_paged(store: &PagedStore, threads: usize, balanced: bool) -> AuditResult {
    let ctx = AuditContext::from_paged(store, layout(threads), None, None).unwrap();
    worst_audit(&ctx, balanced)
}

/// The engine-local counters: everything except the build meters
/// and the page-cache meters, both layout-dependent by definition.
fn engine_local(stats: &EngineStats) -> Vec<(&'static str, u64)> {
    const LAYOUT_DEPENDENT: &[&str] = &[
        "shard_tasks",
        "rows_classified_parallel",
        "page_hits",
        "page_misses",
        "page_evictions",
        "pages_skipped",
        "pages_scanned",
    ];
    stats
        .as_pairs()
        .into_iter()
        .filter(|(name, _)| !LAYOUT_DEPENDENT.contains(name))
        .collect()
}

#[test]
fn roundtrip_materializes_the_exact_population() {
    let (workers, scores) = population(700, 42, false);
    let tmp = TempPaged::write("roundtrip", &workers, &scores, None);
    let store = PagedStore::open(&tmp.0, 1 << 20).unwrap();
    assert_eq!(store.rows(), workers.len());
    assert_eq!(store.schema(), workers.schema());
    assert!(store.live().is_none(), "full population stores no bitmap");
    let (back, back_scores) = store.materialize().unwrap();
    assert_eq!(&back, &workers);
    assert_eq!(back_scores.as_deref(), Some(scores.as_slice()));
}

#[test]
fn live_subset_roundtrips_and_audits_identically() {
    let (workers, scores) = population(500, 9, true);
    // An arbitrary-but-deterministic subset: drop every 7th row.
    let live = RowSet::from_sorted(
        (0..workers.len() as u32)
            .filter(|row| row % 7 != 0)
            .collect(),
    );
    let tmp = TempPaged::write("live", &workers, &scores, Some(&live));
    let store = PagedStore::open(&tmp.0, 1 << 20).unwrap();
    assert_eq!(store.live(), Some(&live));

    // In-memory baseline over the same subset.
    let ctx_mem = live_context(&workers, &scores, &live);
    let algorithm = Balanced::new(AttributeChoice::Worst);
    let mem = algorithm.run(&ctx_mem).unwrap();

    let ctx_paged = AuditContext::from_paged(&store, AuditConfig::default(), None, None).unwrap();
    let paged = algorithm.run(&ctx_paged).unwrap();
    assert_eq!(paged.unfairness.to_bits(), mem.unfairness.to_bits());
    assert_eq!(paged.partitioning.len(), mem.partitioning.len());
    assert_eq!(engine_local(&paged.engine), engine_local(&mem.engine));
}

/// `all-attributes` and `subset-exact` take their cells from the split
/// kernel, so they run paged: with and without a live bitmap they give
/// the in-memory audit's bits and partitions (predicates, rows,
/// histograms, in order) and its engine-local counters.
#[test]
fn cell_algorithms_run_paged_bit_identically() {
    let (workers, scores) = population(500, 9, true);
    let live = RowSet::from_sorted(
        (0..workers.len() as u32)
            .filter(|row| row % 5 != 2)
            .collect(),
    );
    let full = TempPaged::write("cells-full", &workers, &scores, None);
    let subset = TempPaged::write("cells-live", &workers, &scores, Some(&live));
    let mem_full = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
    let mem_live = live_context(&workers, &scores, &live);
    for name in ["all-attributes", "subset-exact"] {
        let algorithm = by_name(name, 0).unwrap();
        for (tmp, mem) in [(&full, &mem_full), (&subset, &mem_live)] {
            let store = PagedStore::open(&tmp.0, 1 << 20).unwrap();
            let ctx = AuditContext::from_paged(&store, AuditConfig::default(), None, None).unwrap();
            let paged = algorithm.run(&ctx).unwrap();
            let want = algorithm.run(mem).unwrap();
            assert_eq!(
                paged.unfairness.to_bits(),
                want.unfairness.to_bits(),
                "{name}"
            );
            assert_eq!(
                paged.partitioning.partitions(),
                want.partitioning.partitions(),
                "{name}"
            );
            assert_eq!(
                engine_local(&paged.engine),
                engine_local(&want.engine),
                "{name}"
            );
        }
    }
}

#[test]
fn tight_budgets_evict_but_do_not_change_bits() {
    // Big enough that every column spans several pages — a one-page
    // budget can only make progress by evicting (a single-page column
    // set can sit fully pinned during the cube build and never evict).
    let (workers, scores) = population(20_000, 77, false);
    let tmp = TempPaged::write("evict", &workers, &scores, None);
    let baseline = run_mem(&workers, &scores, 2, false);

    // One-page budget: every column scan cycles the cache.
    let tight = PagedStore::open(&tmp.0, 1).unwrap();
    let result = run_paged(&tight, 2, false);
    assert_eq!(result.unfairness.to_bits(), baseline.unfairness.to_bits());
    assert_eq!(engine_local(&result.engine), engine_local(&baseline.engine));
    assert!(
        result.engine.page_evictions > 0,
        "a one-page budget over a multi-page file must evict (counters: {:?})",
        result.engine
    );
    assert!(result.engine.page_misses > 0);
    assert!(result.engine.pages_scanned > 0);

    // Roomy budget: the same audit re-reads nothing after first touch.
    let roomy = PagedStore::open(&tmp.0, 1 << 30).unwrap();
    let result = run_paged(&roomy, 2, false);
    assert_eq!(result.unfairness.to_bits(), baseline.unfairness.to_bits());
    assert_eq!(result.engine.page_evictions, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The full grid: every (budget × thread count)
    /// reproduces the in-memory audit bit for bit, engine-local
    /// counters included.
    #[test]
    fn paged_audits_are_bit_identical_across_layouts(
        size in 250usize..700,
        seed in 0u64..1_000,
    ) {
        let balanced = seed % 2 == 0;
        let (workers, scores) = population(size, seed, !balanced);
        let tmp = TempPaged::write(
            &format!("grid-{size}-{seed}"),
            &workers,
            &scores,
            None,
        );
        let baseline = run_mem(&workers, &scores, 1, balanced);
        for budget in [1usize, 1 << 17, 1 << 30] {
            let store = PagedStore::open(&tmp.0, budget).unwrap();
            for threads in [1usize, 4] {
                let got = run_paged(&store, threads, balanced);
                prop_assert_eq!(
                    got.unfairness.to_bits(),
                    baseline.unfairness.to_bits(),
                    "budget={} threads={}",
                    budget, threads
                );
                prop_assert_eq!(got.partitioning.len(), baseline.partitioning.len());
                prop_assert_eq!(
                    engine_local(&got.engine),
                    engine_local(&baseline.engine),
                    "engine-local counters diverged at budget={} threads={}",
                    budget, threads
                );
            }
        }
    }
}

/// A code byte outside its attribute's dictionary in a written file is
/// a typed error naming the attribute and the row, not a panic.
#[test]
fn out_of_range_code_byte_is_a_typed_error() {
    use fairjob_core::AuditError;
    use fairjob_store::schema::{AttributeKind, Schema};
    use fairjob_store::table::{Table, Value};
    let tiers = ["low", "mid", "high"];
    let schema = Schema::builder()
        .categorical("gender", AttributeKind::Protected, &["Male", "Female"])
        .categorical("tier", AttributeKind::Protected, &tiers)
        .build()
        .unwrap();
    let mut table = Table::new(schema);
    let mut state = 0x2545_f491_u64;
    let mut tier_codes = Vec::new();
    for row in 0..600u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let tier = (state >> 33) % 3;
        tier_codes.push(tier as u8);
        let gender = if row % 2 == 0 { "Male" } else { "Female" };
        table
            .push_row(&[Value::cat(gender), Value::cat(tiers[tier as usize])])
            .unwrap();
    }
    let scores: Vec<f64> = (0..600).map(|r| f64::from(r % 97) / 96.0).collect();
    let file = TempPaged::write("corrupt-code", &table, &scores, None);
    // The tier column's one byte-code page holds the codes in row
    // order; find it and put a code the dictionary lacks at row 123.
    let mut bytes = std::fs::read(&file.0).unwrap();
    let page = bytes
        .windows(tier_codes.len())
        .position(|w| w == tier_codes.as_slice())
        .expect("the tier page is in the file");
    bytes[page + 123] = 7;
    std::fs::write(&file.0, &bytes).unwrap();
    let store = PagedStore::open(&file.0, 1 << 20).unwrap();
    let err = AuditContext::from_paged(&store, AuditConfig::default(), None, None).unwrap_err();
    let AuditError::Paged(reason) = &err else {
        panic!("expected a paged-store error, got {err:?}")
    };
    assert!(reason.contains("`tier`"), "{reason}");
    assert!(reason.contains("row 123"), "{reason}");
    assert!(reason.contains("code 7"), "{reason}");
}
