//! `AuditContext::cells` against its oracle, the full cartesian
//! group-by of the audited rows (`groupby::group_by_many`): the same
//! cells in the same order, with the same predicates, rows and
//! histograms, on in-memory, live-subset and paged contexts.

mod common;

use common::{live_context, population, TempPaged};
use fairjob_core::{AuditConfig, AuditContext, Partition};
use fairjob_hist::Histogram;
use fairjob_store::groupby::group_by_many;
use fairjob_store::{PagedStore, Predicate, RowSet, Table};
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
        .map(|(codes, rows)| Partition {
            predicate: attrs
                .iter()
                .zip(&codes)
                .fold(Predicate::always(), |p, (&attr, &code)| p.and(attr, code)),
            histogram: Histogram::from_values(ctx.spec().clone(), rows.iter().map(|r| scores[r])),
            rows,
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
