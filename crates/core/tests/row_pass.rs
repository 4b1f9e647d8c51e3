//! The row pass — the row sets `AuditContext::partitioning` gives the
//! partitioning an audit returns — against a serial oracle, on every
//! context kind and layout.
//!
//! Above 65 536 audited rows the pass runs in contiguous row ranges on
//! the worker pool, each range writing its rows into its own window of
//! every part's list. In-memory and folded builds record the rows per
//! key of each range while they count; stream contexts project a
//! patched cube and count them in the pass. Every layout (1, 2, 3 and 8
//! threads: as many row ranges) must give the oracle's rows on every
//! source, for a one-byte (two attributes) and a four-byte (six
//! attributes, 1 800 keys) key column.

mod common;

use common::{bin_column, population, TempPaged};
use fairjob_core::{AuditConfig, AuditContext, Partition};
use fairjob_marketplace::stream::{generate_stream, StreamConfig};
use fairjob_store::groupby::group_by_many;
use fairjob_store::paged::PAGE_SIZE;
use fairjob_store::{PagedStore, RowSet, Table};
use fairjob_stream::StreamView;

/// Workers of the in-memory, filtered and paged sources; the filter
/// keeps seven rows in eight, past the 65 536 rows of a parallel pass.
const ROWS: usize = 80_000;

/// The thread counts checked; each runs as many row ranges.
const LAYOUTS: [usize; 4] = [1, 2, 3, 8];

/// The attribute lists audited: two (a one-byte key column) and every
/// protected one (1 800 keys, a four-byte key column).
fn attribute_lists() -> [Option<Vec<String>>; 2] {
    [Some(vec!["gender".into(), "country".into()]), None]
}

fn config(threads: usize, attributes: &Option<Vec<String>>) -> AuditConfig {
    AuditConfig {
        threads: Some(threads),
        attributes: attributes.clone(),
        ..AuditConfig::default()
    }
}

/// The parts a check partitions: every cell, every other cell (rows of
/// the cells left out belong to no part), and the root split by the
/// first audited attribute.
fn part_lists(ctx: &AuditContext<'_>) -> Vec<Vec<Partition>> {
    let cells = ctx.cells(ctx.attributes());
    let halves = cells.iter().step_by(2).cloned().collect();
    let split = ctx.split(&ctx.root(), ctx.attributes()[0]).unwrap();
    vec![cells, halves, split]
}

/// The serial oracle: per part, the audited rows whose codes satisfy
/// its predicate, gathered from the cartesian group-by of the audited
/// rows.
fn oracle(table: &Table, audited: &RowSet, attrs: &[usize], parts: &[Partition]) -> Vec<RowSet> {
    let groups = group_by_many(table, audited, attrs).unwrap();
    parts
        .iter()
        .map(|part| {
            let mut rows: Vec<u32> = groups
                .iter()
                .filter(|(codes, _)| {
                    part.predicate.constraints().iter().all(|c| {
                        let k = attrs.iter().position(|&a| a == c.attr).unwrap();
                        codes[k] == c.code
                    })
                })
                .flat_map(|(_, rows)| rows.rows().iter().copied())
                .collect();
            rows.sort_unstable();
            RowSet::from_sorted(rows)
        })
        .collect()
}

/// Every layout's context from `build` gives the oracle's row sets,
/// which come from the first layout's parts.
fn assert_row_pass_matches<'a>(
    table: &Table,
    audited: &RowSet,
    attributes: &Option<Vec<String>>,
    what: &str,
    build: impl Fn(AuditConfig) -> AuditContext<'a>,
) {
    let first = build(config(1, attributes));
    assert!(audited.len() >= 65_536, "{what}: {} rows", audited.len());
    let lists = part_lists(&first);
    let wants: Vec<Vec<RowSet>> = lists
        .iter()
        .map(|parts| oracle(table, audited, first.attributes(), parts))
        .collect();
    drop(first);
    for threads in LAYOUTS {
        let ctx = build(config(threads, attributes));
        for (parts, want) in part_lists(&ctx).iter().zip(&wants) {
            let got = ctx.partitioning(parts);
            assert_eq!(got.len(), want.len());
            for (part, want) in got.partitions().iter().zip(want) {
                assert_eq!(
                    part.rows(),
                    want,
                    "{what}, {threads} threads: {:?}",
                    part.predicate
                );
            }
        }
    }
}

#[test]
fn row_pass_matches_the_oracle_in_memory_filtered_and_paged() {
    let (table, scores) = population(ROWS, 23, false);
    let all = RowSet::all(ROWS);
    let live = RowSet::from_sorted((0..ROWS as u32).filter(|r| r % 8 != 5).collect());
    let bins = bin_column(&scores);
    let file = TempPaged::write("row-pass", &table, &scores, Some(&live));
    let store = PagedStore::open(&file.0, 16 * PAGE_SIZE).unwrap();
    for attributes in attribute_lists() {
        assert_row_pass_matches(&table, &all, &attributes, "in memory", |config| {
            AuditContext::new(&table, &scores, config).unwrap()
        });
        assert_row_pass_matches(&table, &live, &attributes, "filtered", |config| {
            AuditContext::from_parts(
                &table,
                &scores,
                config,
                bins.clone(),
                Some(live.clone()),
                None,
                0,
            )
            .unwrap()
        });
        assert_row_pass_matches(&table, &live, &attributes, "paged live", |config| {
            AuditContext::from_paged(&store, config, None, None).unwrap()
        });
    }
}

/// A stream view after epochs of arrivals, departures, score updates
/// and attribute changes: its contexts project the patched base cube,
/// whose rows have moved since it was built.
#[test]
fn row_pass_matches_the_oracle_on_a_stream_view_after_epochs() {
    let scenario = generate_stream(&StreamConfig {
        initial: 70_000,
        epochs: 4,
        events_per_epoch: 2_000,
        seed: 29,
        alpha: 0.5,
    });
    let mut view = StreamView::new(scenario.initial, scenario.scores, 10).unwrap();
    for events in scenario.events.epochs() {
        view.apply_epoch(events).unwrap();
    }
    let live = view.live_rows();
    for attributes in attribute_lists() {
        assert_row_pass_matches(view.table(), &live, &attributes, "stream", |config| {
            view.context(config).unwrap()
        });
    }
}
