//! The cell cube against its oracles, on in-memory, `WHERE`-filtered,
//! paged and stream-view contexts:
//!
//! - `AuditContext::cells` against the full cartesian group-by of the
//!   audited rows (`groupby::group_by_many`): the same cells in the
//!   same order, with the same predicates, rows and histograms;
//! - `AuditContext::split` against the posting-list split
//!   (`CategoricalIndex::split` over postings built from the table,
//!   plus `AuditContext::histogram`) on the root and its children;
//! - a stream view's maintained cube against one rebuilt from its
//!   compacted live rows.
//!
//! Wide cubes get their own cases: more than 256 cells (the four-byte
//! cell column) and attribute lists whose key space exceeds `u32::MAX`
//! and `u64::MAX` (the densifying fold).

mod common;

use common::{bin_column, live_context, population, TempPaged};
use fairjob_core::{AuditConfig, AuditContext, Partition};
use fairjob_hist::Histogram;
use fairjob_marketplace::stream::{generate_stream, StreamConfig};
use fairjob_store::groupby::group_by_many;
use fairjob_store::index::CategoricalIndex;
use fairjob_store::paged::PAGE_SIZE;
use fairjob_store::schema::{AttributeKind, Schema};
use fairjob_store::table::Value;
use fairjob_store::{PagedStore, Predicate, RowSet, Table};
use fairjob_stream::StreamView;
use proptest::prelude::*;

/// The oracle's cells over `audited`: one per `group_by_many` group,
/// its predicate built from the group's code vector and its histogram
/// binned from the raw scores.
fn oracle(
    ctx: &AuditContext<'_>,
    workers: &Table,
    scores: &[f64],
    audited: &RowSet,
    attrs: &[usize],
) -> Vec<Partition> {
    group_by_many(workers, audited, attrs)
        .unwrap()
        .into_iter()
        .map(|(codes, rows)| {
            let histogram =
                Histogram::from_values(ctx.spec().clone(), rows.iter().map(|r| scores[r]));
            let predicate = attrs
                .iter()
                .zip(&codes)
                .fold(Predicate::always(), |p, (&attr, &code)| p.and(attr, code));
            Partition::new(predicate, rows, histogram)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every subset of the audited attributes, in a rotated order, over
    /// the whole population and over a live subset, in memory and
    /// paged.
    #[test]
    fn cells_equal_the_group_by_of_the_audited_rows(
        size in 30usize..400,
        seed in 0u64..1_000,
        mask in 0u64..64,
        rotate in 0usize..6,
        stride in 2u32..7,
    ) {
        let (workers, scores) = population(size, seed, seed % 2 == 0);
        let all = RowSet::all(workers.len());
        let live = RowSet::from_sorted(
            (0..workers.len() as u32).filter(|row| row % stride != 1).collect(),
        );
        let tag = format!("cells-{size}-{seed}-{stride}");
        let full_file = TempPaged::write(&format!("{tag}-full"), &workers, &scores, None);
        let live_file = TempPaged::write(&format!("{tag}-live"), &workers, &scores, Some(&live));
        let full_store = PagedStore::open(&full_file.0, 1 << 20).unwrap();
        let live_store = PagedStore::open(&live_file.0, 1 << 20).unwrap();
        let contexts = [
            ("memory", AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap(), &all),
            ("live", live_context(&workers, &scores, &live), &live),
            (
                "paged",
                AuditContext::from_paged(&full_store, AuditConfig::default(), None, None).unwrap(),
                &all,
            ),
            (
                "paged live",
                AuditContext::from_paged(&live_store, AuditConfig::default(), None, None).unwrap(),
                &live,
            ),
        ];
        let mut attrs: Vec<usize> = contexts[0]
            .1
            .attributes()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &attr)| attr)
            .collect();
        let by = rotate % attrs.len().max(1);
        attrs.rotate_left(by);
        for (name, ctx, audited) in &contexts {
            let cells = ctx.cells(&attrs);
            let want = oracle(ctx, &workers, &scores, audited, &attrs);
            prop_assert_eq!(cells.len(), want.len(), "{} over {:?}", name, attrs);
            for (at, (got, want)) in cells.iter().zip(&want).enumerate() {
                prop_assert_eq!(got, want, "{} over {:?}, cell {}", name, attrs, at);
            }
        }
    }
}

/// The posting-list oracle of `ctx.split(part, attr)`: the postings of
/// `attr`, built from `table`, intersected with the partition's rows,
/// each child's histogram counted from the context's bin column.
fn oracle_split(
    ctx: &AuditContext<'_>,
    table: &Table,
    part: &Partition,
    attr: usize,
) -> Option<Vec<Partition>> {
    if part.predicate.constrains(attr) || !ctx.attributes().contains(&attr) {
        return None;
    }
    let groups = CategoricalIndex::build(table, attr)
        .unwrap()
        .split(part.rows());
    (groups.len() > 1).then(|| {
        groups
            .into_iter()
            .map(|(code, rows)| ctx.partition(part.predicate.and(attr, code), rows))
            .collect()
    })
}

/// `ctx.split` equals the oracle for every audited attribute on the
/// root and, below it, on every child of each attribute's root split;
/// `ctx.cells` of every attribute equals the group-by. `table` holds
/// the context's rows (a paged context's, materialized).
fn assert_cube_matches_oracles(ctx: &AuditContext<'_>, table: &Table, what: &str) {
    let audited = ctx
        .live_rows()
        .cloned()
        .unwrap_or_else(|| RowSet::all(table.len()));
    let root = ctx.root();
    assert_eq!(
        root,
        ctx.partition(Predicate::always(), audited.clone()),
        "{what}: root"
    );
    let attrs = ctx.attributes().to_vec();
    for &a in &attrs {
        let got = ctx.split(&root, a);
        assert_eq!(
            got,
            oracle_split(ctx, table, &root, a),
            "{what}: root by {a}"
        );
        for child in got.iter().flatten() {
            for &b in &attrs {
                assert_eq!(
                    ctx.split(child, b),
                    oracle_split(ctx, table, child, b),
                    "{what}: {:?} by {b}",
                    child.predicate
                );
            }
        }
    }
    let cells = ctx.cells(&attrs);
    let want = group_by_many(table, &audited, &attrs).unwrap();
    assert_eq!(cells.len(), want.len(), "{what}: cell count");
    for (cell, (codes, rows)) in cells.iter().zip(want) {
        let predicate = attrs
            .iter()
            .zip(&codes)
            .fold(Predicate::always(), |p, (&attr, &code)| p.and(attr, code));
        assert_eq!(
            cell,
            &ctx.partition(predicate, rows),
            "{what}: cell {codes:?}"
        );
    }
}

/// A table of `attrs` categorical attributes of `values` labels each,
/// codes drawn from a seeded generator, with scores in `[0, 1]`.
fn wide_population(attrs: usize, values: usize, rows: usize, seed: u64) -> (Table, Vec<f64>) {
    let labels: Vec<String> = (0..values).map(|v| format!("v{v}")).collect();
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    let mut builder = Schema::builder();
    for a in 0..attrs {
        builder = builder.categorical(&format!("a{a}"), AttributeKind::Protected, &labels);
    }
    let mut table = Table::new(builder.build().unwrap());
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = |bound: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % bound
    };
    let mut scores = Vec::with_capacity(rows);
    for _ in 0..rows {
        // Skewed codes, so some cells hold several rows.
        let row: Vec<Value> = (0..attrs)
            .map(|_| Value::cat(labels[next(values).min(next(values))]))
            .collect();
        table.push_row(&row).unwrap();
        scores.push(next(1_001) as f64 / 1_000.0);
    }
    (table, scores)
}

/// Every context kind of `table`: in memory, `WHERE`-filtered to
/// `live`, and paged (whole and over `live`) through a buffer pool of
/// one page, checked against the oracles.
fn assert_every_source_matches(table: &Table, scores: &[f64], live: &RowSet, tag: &str) {
    let memory = AuditContext::new(table, scores, AuditConfig::default()).unwrap();
    assert_cube_matches_oracles(&memory, table, &format!("{tag} memory"));
    assert_cube_matches_oracles(
        &live_context(table, scores, live),
        table,
        &format!("{tag} filtered"),
    );
    for (name, subset) in [("paged", None), ("paged live", Some(live))] {
        let file = TempPaged::write(&format!("{tag}-{name}"), table, scores, subset);
        let store = PagedStore::open(&file.0, PAGE_SIZE).unwrap();
        let ctx = AuditContext::from_paged(&store, AuditConfig::default(), None, None).unwrap();
        assert_cube_matches_oracles(&ctx, table, &format!("{tag} {name}"));
    }
}

/// More than 256 cells: the four-byte cell column, both when the key
/// space is counted directly (more rows than keys) and when the few
/// keys present are ranked (fewer rows than keys).
#[test]
fn wide_cell_columns_match_the_oracles() {
    for (rows, seed) in [(3_000usize, 11u64), (600, 12)] {
        let (workers, scores) = population(rows, seed, false);
        let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
        assert!(ctx.cube().cells() > 256, "{} cells", ctx.cube().cells());
        let live = RowSet::from_sorted((0..rows as u32).filter(|r| r % 4 != 2).collect());
        assert_every_source_matches(&workers, &scores, &live, &format!("wide-{rows}"));
    }
}

/// Ten attributes of 100 values: a key space of 10^20, past `u32::MAX`
/// after five attributes and past `u64::MAX` after ten, so the fold
/// densifies its keys before the last attribute and again at the end.
#[test]
fn key_spaces_past_u64_densify_like_the_oracles() {
    let (table, scores) = wide_population(10, 100, 1_500, 3);
    let ctx = AuditContext::new(&table, &scores, AuditConfig::default()).unwrap();
    assert_eq!(ctx.attributes().len(), 10);
    assert!(ctx.cube().cells() > 256);
    let live = RowSet::from_sorted((0..1_500u32).filter(|r| r % 3 != 0).collect());
    assert_every_source_matches(&table, &scores, &live, "densify");
    // Five of the attributes: 10^10 keys, past `u32::MAX` only.
    let five = AuditConfig {
        attributes: Some((0..5).map(|a| format!("a{a}")).collect()),
        ..AuditConfig::default()
    };
    let ctx = AuditContext::new(&table, &scores, five).unwrap();
    assert_cube_matches_oracles(&ctx, &table, "densify five");
}

/// A stream view after epochs of arrivals, departures, score updates
/// and attribute changes: its context's cube splits like the oracle
/// over the view's table.
#[test]
fn stream_view_cube_matches_the_oracles_after_epochs() {
    let scenario = generate_stream(&StreamConfig {
        initial: 300,
        epochs: 5,
        events_per_epoch: 60,
        seed: 17,
        alpha: 0.5,
    });
    let mut view = StreamView::new(scenario.initial, scenario.scores, 10).unwrap();
    for events in scenario.events.epochs() {
        view.apply_epoch(events).unwrap();
        let ctx = view.context(AuditConfig::default()).unwrap();
        assert_eq!(ctx.cube_rows(), 0, "the view maintains the cube");
        assert_cube_matches_oracles(&ctx, view.table(), &format!("epoch {}", view.epoch()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The cube a stream view keeps current through random epochs
    /// equals the cube of a cold context over its compacted live rows:
    /// the same cells in the same order, with the same code vectors,
    /// counts and rows (renumbered by the compaction), for every
    /// attribute list.
    #[test]
    fn maintained_cube_equals_the_compacted_rebuild(
        initial in 40usize..200,
        epochs in 1usize..5,
        events in 5usize..60,
        seed in 0u64..1_000,
        mask in 1u64..64,
    ) {
        let scenario = generate_stream(&StreamConfig {
            initial,
            epochs,
            events_per_epoch: events,
            seed,
            alpha: 0.5,
        });
        let mut view = StreamView::new(scenario.initial, scenario.scores, 10).unwrap();
        for events in scenario.events.epochs() {
            view.apply_epoch(events).unwrap();
        }
        let names: Vec<String> = view
            .table()
            .schema()
            .splittable()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &a)| view.table().schema().attribute(a).name.clone())
            .collect();
        let config = AuditConfig {
            attributes: Some(names),
            ..AuditConfig::default()
        };
        let (compact, scores) = view.compact().unwrap();
        let maintained = view.context(config.clone()).unwrap();
        let rebuilt = AuditContext::new(&compact, &scores, config).unwrap();
        let (m, r) = (maintained.cube(), rebuilt.cube());
        prop_assert_eq!(m.attributes(), r.attributes());
        prop_assert_eq!(m.cells(), r.cells());
        for cell in 0..m.cells() {
            prop_assert_eq!(m.codes_of(cell), r.codes_of(cell));
            prop_assert_eq!(m.counts_of(cell), r.counts_of(cell));
        }
        let live = view.live_rows();
        let attrs = maintained.attributes().to_vec();
        for (a, b) in maintained.cells(&attrs).iter().zip(rebuilt.cells(&attrs)) {
            prop_assert_eq!(&a.predicate, &b.predicate);
            prop_assert_eq!(&a.histogram, &b.histogram);
            let renumbered: Vec<u32> = a
                .rows()
                .rows()
                .iter()
                .map(|row| live.rows().binary_search(row).unwrap() as u32)
                .collect();
            prop_assert_eq!(renumbered.as_slice(), b.rows().rows());
        }
    }
}

/// The bin column a filtered context is handed must match the one its
/// scores give (the helper the filtered cases use).
#[test]
fn filtered_contexts_bin_like_the_in_memory_build() {
    let (workers, scores) = population(120, 5, true);
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
    assert_eq!(ctx.bin_of(), bin_column(&scores).as_ref());
}
