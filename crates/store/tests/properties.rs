//! Property-based tests: row-set algebra, index/scan agreement, CSV
//! round-trips, bucketisation totality.

use fairjob_store::bucketize::{bucketize, BucketSpec};
use fairjob_store::groupby::{group_by, group_by_many};
use fairjob_store::index::CategoricalIndex;
use fairjob_store::schema::{AttributeKind, Schema};
use fairjob_store::table::{Table, Value};
use fairjob_store::RowSet;
use proptest::prelude::*;

fn rowset(max: u32) -> impl Strategy<Value = RowSet> {
    prop::collection::vec(0..max, 0..64).prop_map(RowSet::from_rows)
}

fn schema() -> Schema {
    Schema::builder()
        .categorical("gender", AttributeKind::Protected, &["Male", "Female"])
        .categorical(
            "country",
            AttributeKind::Protected,
            &["America", "India", "Other"],
        )
        .integer("yob", AttributeKind::Protected, 1950, 2009)
        .numeric("approval", AttributeKind::Observed, 25.0, 100.0)
        .build()
        .unwrap()
}

/// Strategy: a populated random table over the fixed schema.
fn table(max_rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec(
        (0u32..2, 0u32..3, 1950i64..=2009, 25.0f64..=100.0),
        1..max_rows,
    )
    .prop_map(|rows| {
        let mut t = Table::new(schema());
        for (g, c, y, a) in rows {
            let gl = if g == 0 { "Male" } else { "Female" };
            let cl = ["America", "India", "Other"][c as usize];
            t.push_row(&[Value::cat(gl), Value::cat(cl), Value::int(y), Value::num(a)])
                .unwrap();
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rowset_ops_match_btreeset(a in rowset(128), b in rowset(128)) {
        use std::collections::BTreeSet;
        let sa: BTreeSet<u32> = a.rows().iter().copied().collect();
        let sb: BTreeSet<u32> = b.rows().iter().copied().collect();
        let inter: Vec<u32> = sa.intersection(&sb).copied().collect();
        let union: Vec<u32> = sa.union(&sb).copied().collect();
        let diff: Vec<u32> = sa.difference(&sb).copied().collect();
        let (i, u, d) = (a.intersect(&b), a.union(&b), a.difference(&b));
        prop_assert_eq!(i.rows(), &inter[..]);
        prop_assert_eq!(u.rows(), &union[..]);
        prop_assert_eq!(d.rows(), &diff[..]);
        prop_assert_eq!(a.is_disjoint(&b), sa.is_disjoint(&sb));
    }

    #[test]
    fn bitmap_algebra_matches_rowset(a in rowset(200), b in rowset(200)) {
        use fairjob_store::bitmap::Bitmap;
        let ba = Bitmap::from_rowset(&a, 200);
        let bb = Bitmap::from_rowset(&b, 200);
        prop_assert_eq!(ba.intersect(&bb).to_rowset(), a.intersect(&b));
        prop_assert_eq!(ba.union(&bb).to_rowset(), a.union(&b));
        prop_assert_eq!(ba.difference(&bb).to_rowset(), a.difference(&b));
        prop_assert_eq!(ba.len(), a.len());
        prop_assert_eq!(ba.to_rowset(), a);
    }

    #[test]
    fn asymmetric_intersect_matches_btreeset(a in rowset(24), b in rowset(4000)) {
        // Size gap forces the galloping path (in either argument order).
        use std::collections::BTreeSet;
        let sa: BTreeSet<u32> = a.rows().iter().copied().collect();
        let sb: BTreeSet<u32> = b.rows().iter().copied().collect();
        let expected: Vec<u32> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(a.intersect(&b).rows(), &expected[..]);
        prop_assert_eq!(b.intersect(&a).rows(), &expected[..]);
    }

    #[test]
    fn index_split_matches_groupby_scan(t in table(100)) {
        let all = RowSet::all(t.len());
        for attr in t.schema().splittable() {
            let idx = CategoricalIndex::build(&t, attr).unwrap();
            prop_assert_eq!(idx.split(&all), group_by(&t, &all, attr).unwrap());
        }
    }

    #[test]
    fn groupby_is_disjoint_cover(t in table(100)) {
        let all = RowSet::all(t.len());
        let groups = group_by(&t, &all, 1).unwrap();
        let mut union = RowSet::empty();
        for (i, (_, a)) in groups.iter().enumerate() {
            for (_, b) in &groups[i + 1..] {
                prop_assert!(a.is_disjoint(b));
            }
            union = union.union(a);
        }
        prop_assert_eq!(union, all);
    }

    #[test]
    fn groupby_many_refines_single(t in table(100)) {
        let all = RowSet::all(t.len());
        let fine = group_by_many(&t, &all, &[0, 1]).unwrap();
        let coarse = group_by(&t, &all, 0).unwrap();
        // Every fine group is a subset of exactly one coarse group.
        for (key, rows) in &fine {
            let parent = coarse.iter().find(|(code, _)| *code == key[0]).unwrap();
            prop_assert_eq!(rows.intersect(&parent.1), rows.clone());
        }
        let total: usize = fine.iter().map(|(_, r)| r.len()).sum();
        prop_assert_eq!(total, t.len());
    }

    #[test]
    fn csv_roundtrip(t in table(60)) {
        let text = fairjob_store::csv::to_csv(&t);
        let back = fairjob_store::csv::from_csv(schema(), &text).unwrap();
        prop_assert_eq!(t, back);
    }

    #[test]
    fn bucketize_covers_every_row(t in table(80), n in 1usize..8) {
        let mut t = t;
        let idx = bucketize(&mut t, "yob", "band", &BucketSpec::EqualWidth { n }).unwrap();
        let codes = t.column(idx).as_categorical().unwrap();
        prop_assert_eq!(codes.len(), t.len());
        for &c in codes {
            prop_assert!((c as usize) < n);
        }
        // Bucket order preserves value order.
        let years = t.column_by_name("yob").unwrap().as_integer().unwrap().to_vec();
        for i in 0..t.len() {
            for j in 0..t.len() {
                if years[i] < years[j] {
                    prop_assert!(codes[i] <= codes[j]);
                }
            }
        }
    }
}
