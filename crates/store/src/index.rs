//! Inverted indexes on categorical columns.
//!
//! An index keeps each code's rows (the postings). FairQL's pushed-down
//! `WHERE` scans read them, and [`CategoricalIndex::split`] (posting
//! intersections) is the oracle the audit's cell-cube splits are
//! tested against.

use crate::table::Table;
use crate::{RowSet, StoreError};

/// Inverted index for one categorical attribute: rows grouped by code.
#[derive(Debug, Clone)]
pub struct CategoricalIndex {
    attr: usize,
    /// `postings[code]` = sorted rows holding that code.
    postings: Vec<RowSet>,
    /// Rows indexed (the next pushed row's id).
    rows: usize,
}

impl CategoricalIndex {
    /// Build the index for categorical attribute `attr` of `table`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotCategorical`] when `attr` is not categorical.
    pub fn build(table: &Table, attr: usize) -> Result<Self, StoreError> {
        let column =
            table
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
        let mut postings = vec![Vec::new(); cardinality];
        for (row, &code) in column.iter().enumerate() {
            postings[code as usize].push(row as u32);
        }
        Ok(CategoricalIndex {
            attr,
            postings: postings.into_iter().map(RowSet::from_sorted).collect(),
            rows: column.len(),
        })
    }

    /// The indexed attribute.
    pub fn attribute(&self) -> usize {
        self.attr
    }

    /// Rows with the given code across the whole table.
    pub fn rows_with_code(&self, code: u32) -> &RowSet {
        &self.postings[code as usize]
    }

    /// Split `within` by the indexed attribute: one `(code, rows)` pair
    /// per code that is non-empty inside `within`.
    ///
    /// This is the posting-intersection path, kept as the
    /// differential-test oracle of the audit's cell-cube splits (it
    /// touches every posting, so it costs O(table) per split even for
    /// tiny partitions).
    pub fn split(&self, within: &RowSet) -> Vec<(u32, RowSet)> {
        self.postings
            .iter()
            .enumerate()
            .filter_map(|(code, posting)| {
                let rows = posting.intersect(within);
                (!rows.is_empty()).then_some((code as u32, rows))
            })
            .collect()
    }

    /// Dictionary size of the indexed attribute (posting-list count;
    /// codes may be absent from the data, their postings are empty).
    pub fn cardinality(&self) -> usize {
        self.postings.len()
    }

    /// Append the next row (its id: the rows indexed so far) holding
    /// `code`.
    /// In-place maintenance for the stream layer — the index stays
    /// identical to a rebuild from the grown table.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadCode`] when `code` is outside the attribute's
    /// dictionary.
    pub fn push_row(&mut self, code: u32, attribute_name: &str) -> Result<(), StoreError> {
        if code as usize >= self.postings.len() {
            return Err(StoreError::BadCode {
                attribute: attribute_name.to_string(),
                code,
            });
        }
        self.postings[code as usize].insert(self.rows as u32);
        self.rows += 1;
        Ok(())
    }

    /// Move `row` from its current code's posting to `new_code`'s
    /// (no-op when the code is unchanged). In-place maintenance for the
    /// stream layer's `AttributeChanged` events.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadCode`] for codes outside the dictionary or rows
    /// outside the index.
    pub fn set_code(
        &mut self,
        row: u32,
        new_code: u32,
        attribute_name: &str,
    ) -> Result<(), StoreError> {
        let old = self
            .postings
            .iter()
            .position(|posting| posting.contains(row));
        match old {
            Some(old) if (new_code as usize) < self.postings.len() => {
                if old != new_code as usize {
                    self.postings[old].remove(row);
                    self.postings[new_code as usize].insert(row);
                }
                Ok(())
            }
            _ => Err(StoreError::BadCode {
                attribute: attribute_name.to_string(),
                code: new_code,
            }),
        }
    }
}

/// Indexes for a table's categorical protected attributes.
#[derive(Debug, Clone)]
pub struct IndexSet {
    indexes: Vec<Option<CategoricalIndex>>,
}

impl IndexSet {
    /// Build indexes for `attrs` only; unlisted attributes carry no
    /// index ([`IndexSet::get`] returns `None`). Callers pass the audited
    /// attributes, or [`crate::Schema::splittable`] for every attribute
    /// a predicate may constrain.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotCategorical`] when an attr is not categorical.
    pub fn build(table: &Table, attrs: &[usize]) -> Result<Self, StoreError> {
        let mut indexes: Vec<Option<CategoricalIndex>> = Vec::new();
        indexes.resize_with(table.schema().width(), || None);
        for &attr in attrs {
            indexes[attr] = Some(CategoricalIndex::build(table, attr)?);
        }
        Ok(IndexSet { indexes })
    }

    /// The index for attribute `attr`, if one was built.
    pub fn get(&self, attr: usize) -> Option<&CategoricalIndex> {
        self.indexes.get(attr).and_then(Option::as_ref)
    }

    /// Append `table`'s last row to every maintained index (call after
    /// `Table::push_row` on the same table).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the table's last row disagrees with an
    /// index's attribute (cannot occur when the indexes were built from
    /// this table).
    pub fn push_row(&mut self, table: &Table) -> Result<(), StoreError> {
        let row = table.len().checked_sub(1).ok_or(StoreError::RowArity {
            expected: 1,
            got: 0,
        })?;
        for index in self.indexes.iter_mut().flatten() {
            let attr = index.attribute();
            let code = table.code_at(attr, row)?;
            index.push_row(code, &table.schema().attribute(attr).name)?;
        }
        Ok(())
    }

    /// Re-home `row` under `new_code` in attribute `attr`'s index.
    /// No-op when the attribute carries no index (non-splittable
    /// categorical attributes are never constrained by predicates).
    ///
    /// # Errors
    ///
    /// [`StoreError::BadCode`] for invalid codes/rows.
    pub fn set_code(
        &mut self,
        attr: usize,
        row: u32,
        new_code: u32,
        attribute_name: &str,
    ) -> Result<(), StoreError> {
        if let Some(index) = self.indexes.get_mut(attr).and_then(Option::as_mut) {
            index.set_code(row, new_code, attribute_name)?;
        }
        Ok(())
    }
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
    fn postings_cover_table() {
        let t = table();
        let idx = CategoricalIndex::build(&t, 0).unwrap();
        assert_eq!(idx.rows_with_code(0).rows(), &[0, 1, 4]);
        assert_eq!(idx.rows_with_code(1).rows(), &[2, 3]);
        assert_eq!(idx.attribute(), 0);
    }

    #[test]
    fn split_restricts_to_within() {
        let t = table();
        let idx = CategoricalIndex::build(&t, 1).unwrap();
        let within = RowSet::from_rows(vec![0, 2, 3]);
        let parts = idx.split(&within);
        // English -> {0, 2}, Other -> {3}; Indian empty (dropped).
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[0].1.rows(), &[0, 2]);
        assert_eq!(parts[1].0, 2);
        assert_eq!(parts[1].1.rows(), &[3]);
    }

    #[test]
    fn split_partitions_are_disjoint_and_cover() {
        let t = table();
        let idx = CategoricalIndex::build(&t, 0).unwrap();
        let all = RowSet::all(t.len());
        let parts = idx.split(&all);
        let mut union = RowSet::empty();
        for (i, (_, a)) in parts.iter().enumerate() {
            for (_, b) in &parts[i + 1..] {
                assert!(a.is_disjoint(b));
            }
            union = union.union(a);
        }
        assert_eq!(union, all);
    }

    #[test]
    fn non_categorical_rejected() {
        let t = table();
        assert!(matches!(
            CategoricalIndex::build(&t, 2),
            Err(StoreError::NotCategorical { .. })
        ));
    }

    /// The posting split of a maintained index equals the split of an
    /// index rebuilt from the edited table.
    #[test]
    fn kernel_survives_index_maintenance() {
        let mut t = table();
        let mut idx = CategoricalIndex::build(&t, 0).unwrap();
        t.push_row(&[Value::cat("Female"), Value::cat("Indian"), Value::num(0.4)])
            .unwrap();
        idx.push_row(1, "gender").unwrap();
        t.set_cat(0, 0, "Female").unwrap();
        idx.set_code(0, 1, "gender").unwrap();
        let rebuilt = CategoricalIndex::build(&t, 0).unwrap();
        for within in [RowSet::all(t.len()), RowSet::from_rows(vec![0, 3, 5])] {
            assert_eq!(idx.split(&within), rebuilt.split(&within));
        }
    }

    #[test]
    fn index_set_builds_only_the_requested_attributes() {
        let t = table();
        let subset = IndexSet::build(&t, &[1]).unwrap();
        assert!(subset.get(0).is_none());
        assert!(subset.get(2).is_none());
        let idx = subset.get(1).unwrap();
        let column = t.column(1).as_categorical().unwrap();
        for code in 0..3u32 {
            let rows: Vec<u32> = (0..t.len() as u32)
                .filter(|&r| column[r as usize] == code)
                .collect();
            assert_eq!(idx.rows_with_code(code).rows(), rows.as_slice());
        }
        assert!(matches!(
            IndexSet::build(&t, &[2]),
            Err(StoreError::NotCategorical { .. })
        ));
    }

    #[test]
    fn push_row_matches_rebuild() {
        let mut t = table();
        let splittable = t.schema().splittable();
        let mut set = IndexSet::build(&t, &splittable).unwrap();
        t.push_row(&[Value::cat("Female"), Value::cat("Indian"), Value::num(0.4)])
            .unwrap();
        set.push_row(&t).unwrap();
        let rebuilt = IndexSet::build(&t, &splittable).unwrap();
        for attr in [0usize, 1] {
            let maintained = set.get(attr).unwrap();
            let fresh = rebuilt.get(attr).unwrap();
            for code in 0..fresh.cardinality() as u32 {
                assert_eq!(maintained.rows_with_code(code), fresh.rows_with_code(code));
            }
        }
    }

    #[test]
    fn set_code_moves_postings() {
        let t = table();
        let mut idx = CategoricalIndex::build(&t, 0).unwrap();
        // Row 0 is Male (code 0); move to Female (code 1).
        idx.set_code(0, 1, "gender").unwrap();
        assert_eq!(idx.rows_with_code(0).rows(), &[1, 4]);
        assert_eq!(idx.rows_with_code(1).rows(), &[0, 2, 3]);
        // Same-code move is a no-op.
        idx.set_code(0, 1, "gender").unwrap();
        assert_eq!(idx.rows_with_code(1).rows(), &[0, 2, 3]);
        // Bad code / bad row rejected.
        assert!(idx.set_code(0, 9, "gender").is_err());
        assert!(idx.set_code(99, 0, "gender").is_err());
    }

    #[test]
    fn index_push_row_rejects_bad_code() {
        let t = table();
        let mut idx = CategoricalIndex::build(&t, 0).unwrap();
        assert!(matches!(
            idx.push_row(7, "gender"),
            Err(StoreError::BadCode { code: 7, .. })
        ));
    }

    #[test]
    fn index_set_set_code_skips_unindexed_attributes() {
        let t = table();
        let mut set = IndexSet::build(&t, &t.schema().splittable()).unwrap();
        // Attribute 2 is numeric: no index, silently skipped.
        set.set_code(2, 0, 1, "score").unwrap();
        // Attribute 0 is indexed: forwarded.
        set.set_code(0, 0, 1, "gender").unwrap();
        assert!(set.get(0).unwrap().rows_with_code(1).contains(0));
    }

    #[test]
    fn empty_table_index() {
        let schema = Schema::builder()
            .categorical("g", AttributeKind::Protected, &["a", "b"])
            .build()
            .unwrap();
        let t = Table::new(schema);
        let idx = CategoricalIndex::build(&t, 0).unwrap();
        assert!(idx.rows_with_code(0).is_empty());
        assert!(idx.split(&RowSet::empty()).is_empty());
    }
}
