//! Group-by over categorical attributes (the scan-based counterpart of
//! the inverted index — used where no index has been built, and as the
//! oracle the index is tested against).

use crate::table::Table;
use crate::{RowSet, StoreError};

/// Split `within` by categorical attribute `attr`: one `(code, rows)`
/// group per code present, ordered by code. Empty codes are omitted.
///
/// # Errors
///
/// [`StoreError::NotCategorical`] when `attr` is not categorical.
pub fn group_by(
    table: &Table,
    within: &RowSet,
    attr: usize,
) -> Result<Vec<(u32, RowSet)>, StoreError> {
    let codes = table
        .column(attr)
        .as_categorical()
        .ok_or_else(|| StoreError::NotCategorical {
            attribute: table.schema().attribute(attr).name.clone(),
        })?;
    let cardinality = table
        .schema()
        .attribute(attr)
        .cardinality()
        .expect("categorical has cardinality");
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cardinality];
    for row in within.rows() {
        buckets[codes[*row as usize] as usize].push(*row);
    }
    Ok(buckets
        .into_iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .map(|(code, b)| (code as u32, RowSet::from_sorted(b)))
        .collect())
}

/// Group `within` by several categorical attributes at once: the full
/// cartesian refinement (only non-empty cells are returned). Each group
/// is keyed by its code vector, aligned with `attrs`, in key order.
///
/// No audit builds its partitions here: the audit layer's
/// `AuditContext::cells` reads its cell cube instead, and this scan is
/// kept as that builder's test oracle.
///
/// # Errors
///
/// [`StoreError::NotCategorical`] when any attribute is not categorical.
pub fn group_by_many(
    table: &Table,
    within: &RowSet,
    attrs: &[usize],
) -> Result<Vec<(Vec<u32>, RowSet)>, StoreError> {
    if attrs.is_empty() {
        return Ok(vec![(Vec::new(), within.clone())]);
    }
    let mut code_slices = Vec::with_capacity(attrs.len());
    for &attr in attrs {
        let codes =
            table
                .column(attr)
                .as_categorical()
                .ok_or_else(|| StoreError::NotCategorical {
                    attribute: table.schema().attribute(attr).name.clone(),
                })?;
        code_slices.push(codes);
    }
    let mut groups: std::collections::BTreeMap<Vec<u32>, Vec<u32>> =
        std::collections::BTreeMap::new();
    for row in within.rows() {
        let key: Vec<u32> = code_slices
            .iter()
            .map(|codes| codes[*row as usize])
            .collect();
        groups.entry(key).or_default().push(*row);
    }
    Ok(groups
        .into_iter()
        .map(|(k, rows)| (k, RowSet::from_sorted(rows)))
        .collect())
}

/// Per-code counts of `attr` within `within` (a group-by that skips
/// materialising row sets; used for quick cardinality probes).
///
/// # Errors
///
/// [`StoreError::NotCategorical`] when `attr` is not categorical.
pub fn value_counts(table: &Table, within: &RowSet, attr: usize) -> Result<Vec<usize>, StoreError> {
    let codes = table
        .column(attr)
        .as_categorical()
        .ok_or_else(|| StoreError::NotCategorical {
            attribute: table.schema().attribute(attr).name.clone(),
        })?;
    let cardinality = table
        .schema()
        .attribute(attr)
        .cardinality()
        .expect("categorical has cardinality");
    let mut counts = vec![0usize; cardinality];
    for row in within.rows() {
        counts[codes[*row as usize] as usize] += 1;
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttributeKind, Schema};
    use crate::table::Value;

    fn table() -> Table {
        let schema = Schema::builder()
            .categorical("gender", AttributeKind::Protected, &["Male", "Female"])
            .categorical(
                "lang",
                AttributeKind::Protected,
                &["English", "Indian", "Other"],
            )
            .numeric("score", AttributeKind::Observed, 0.0, 1.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (g, l, s) in [
            ("Male", "English", 0.9),
            ("Male", "Indian", 0.8),
            ("Female", "English", 0.7),
            ("Female", "Other", 0.6),
            ("Male", "English", 0.5),
        ] {
            t.push_row(&[Value::cat(g), Value::cat(l), Value::num(s)])
                .unwrap();
        }
        t
    }

    #[test]
    fn group_by_matches_index_split() {
        let t = table();
        let all = RowSet::all(t.len());
        for attr in [0usize, 1] {
            let scan = group_by(&t, &all, attr).unwrap();
            let idx = crate::index::CategoricalIndex::build(&t, attr).unwrap();
            let via_index = idx.split(&all);
            assert_eq!(scan, via_index, "attr {attr}");
        }
    }

    #[test]
    fn group_by_many_full_partitioning() {
        let t = table();
        let all = RowSet::all(t.len());
        let groups = group_by_many(&t, &all, &[0, 1]).unwrap();
        // (M,E)={0,4}, (M,I)={1}, (F,E)={2}, (F,O)={3}.
        assert_eq!(groups.len(), 4);
        let me = groups.iter().find(|(k, _)| k == &vec![0, 0]).unwrap();
        assert_eq!(me.1.rows(), &[0, 4]);
        // Disjoint cover.
        let mut union = RowSet::empty();
        for (i, (_, a)) in groups.iter().enumerate() {
            for (_, b) in &groups[i + 1..] {
                assert!(a.is_disjoint(b));
            }
            union = union.union(a);
        }
        assert_eq!(union, all);
    }

    #[test]
    fn group_by_many_empty_attrs_is_identity() {
        let t = table();
        let within = RowSet::from_rows(vec![1, 3]);
        let groups = group_by_many(&t, &within, &[]).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1, within);
    }

    #[test]
    fn value_counts_match_group_sizes() {
        let t = table();
        let all = RowSet::all(t.len());
        let counts = value_counts(&t, &all, 1).unwrap();
        assert_eq!(counts, vec![3, 1, 1]);
    }

    #[test]
    fn non_categorical_rejected() {
        let t = table();
        let all = RowSet::all(t.len());
        assert!(group_by(&t, &all, 2).is_err());
        assert!(group_by_many(&t, &all, &[0, 2]).is_err());
        assert!(value_counts(&t, &all, 2).is_err());
    }

    #[test]
    fn group_by_on_subset() {
        let t = table();
        let within = RowSet::from_rows(vec![0, 1]);
        let groups = group_by(&t, &within, 0).unwrap();
        assert_eq!(groups.len(), 1); // only Male present
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[0].1.rows(), &[0, 1]);
    }
}
