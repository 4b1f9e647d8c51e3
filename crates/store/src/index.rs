//! Inverted indexes on categorical columns.
//!
//! Splitting a partition by an attribute is the hot operation of every
//! audit algorithm: `worstAttribute` tries every remaining attribute at
//! every step. An index keeps each code's rows (the postings) next to
//! the forward column of codes, so a split is one walk over the
//! partition's rows ([`CategoricalIndex::split_rows`]) — or, for the
//! whole table, the postings themselves ([`CategoricalIndex::split_root`]).

use crate::column::CodeColumn;
use crate::table::Table;
use crate::{RowSet, StoreError};

/// One child of a split: the code, its rows, and the bin counts of its
/// members' scores (accumulated during the same walk that collected the
/// rows).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitChild {
    /// The dictionary code shared by every member.
    pub code: u32,
    /// The member rows (sorted — inherited from the parent's order).
    pub rows: RowSet,
    /// Per-bin member counts (`bin_counts[bin_of[row]] += 1` per row).
    pub bin_counts: Vec<f64>,
}

/// Inverted index for one categorical attribute: rows grouped by code.
#[derive(Debug, Clone)]
pub struct CategoricalIndex {
    attr: usize,
    /// `postings[code]` = sorted rows holding that code.
    postings: Vec<RowSet>,
    /// The forward column: `codes.get(row)` = the row's dictionary code.
    /// Lets a split walk the partition's rows instead of intersecting
    /// every posting; one byte per row for dictionaries of at most 256
    /// entries.
    codes: CodeColumn,
}

/// Private helper unifying the two column widths so the kernels
/// monomorphize one tight loop per width.
trait CodeWidth: Copy {
    fn idx(self) -> usize;
}
impl CodeWidth for u8 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}
impl CodeWidth for u32 {
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Dictionary size up to which [`CategoricalIndex::split_rows`] reserves
/// `rows.len()` slots per child instead of counting first. Skipping the
/// count pass keeps each row's memory traffic at 2 loads + 1 store; only
/// page-granular virtual capacity goes unused (untouched tail pages are
/// never faulted), and this ceiling bounds the number of reservations.
/// Every protected attribute of the paper's schema is far below it.
const ONEPASS_MAX_CARDINALITY: usize = 64;

/// Scatter `rows` onto one buffer per code through raw write cursors —
/// no capacity checks and no `len` bookkeeping in the loop — calling
/// `visit(code, row)` on the way. `capacity[code]` must be at least the
/// number of `rows` carrying `code`; buffers keep the rows' order.
///
/// # Panics
///
/// When a row is outside `codes` or carries a code `>= capacity.len()`.
fn scatter<C: CodeWidth>(
    codes: &[C],
    rows: impl Iterator<Item = u32>,
    capacity: &[usize],
    mut visit: impl FnMut(usize, u32),
) -> Vec<Vec<u32>> {
    let mut buffers: Vec<Vec<u32>> = capacity.iter().map(|&c| Vec::with_capacity(c)).collect();
    let bases: Vec<*mut u32> = buffers.iter_mut().map(Vec::as_mut_ptr).collect();
    let mut cursors = bases.clone();
    for row in rows {
        let code = codes[row as usize].idx();
        visit(code, row);
        let slot = &mut cursors[code];
        // SAFETY: the caller reserved at least one slot per row carrying
        // `code`, so the cursor stays inside its buffer's allocation.
        unsafe {
            slot.write(row);
            *slot = slot.add(1);
        }
    }
    for ((buffer, base), cursor) in buffers.iter_mut().zip(&bases).zip(&cursors) {
        // SAFETY: the cursor advanced once per element written into
        // this buffer, all within its capacity.
        unsafe { buffer.set_len(cursor.offset_from(*base) as usize) };
    }
    buffers
}

/// Per-code row ids of `rows` (ascending; `None` = every row of
/// `codes`): a count pass, then one scatter into exactly-sized buffers.
fn postings_of<C: CodeWidth>(codes: &[C], cardinality: usize, rows: Option<&[u32]>) -> Vec<RowSet> {
    let mut counts = vec![0usize; cardinality];
    let buffers = match rows {
        None => {
            for &code in codes {
                counts[code.idx()] += 1;
            }
            scatter(codes, 0..codes.len() as u32, &counts, |_, _| {})
        }
        Some(rows) => {
            for &row in rows {
                counts[codes[row as usize].idx()] += 1;
            }
            scatter(codes, rows.iter().copied(), &counts, |_, _| {})
        }
    };
    buffers.into_iter().map(RowSet::from_sorted).collect()
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
        Ok(Self::from_codes(
            attr,
            cardinality,
            CodeColumn::from_values(cardinality, column),
            None,
        ))
    }

    /// Build the index over a ready forward column: the postings of
    /// `rows` (sorted; `None` = every row of `codes`). The paged context
    /// build fills the forward column page by page and hands it here;
    /// rows outside `rows` may hold placeholder codes.
    ///
    /// # Panics
    ///
    /// When a row of `rows` is outside `codes` or a code is `>=
    /// cardinality`.
    pub fn from_codes(
        attr: usize,
        cardinality: usize,
        codes: CodeColumn,
        rows: Option<&RowSet>,
    ) -> Self {
        let rows = rows.map(RowSet::rows);
        let postings = match &codes {
            CodeColumn::Narrow(c) => postings_of(c, cardinality, rows),
            CodeColumn::Wide(c) => postings_of(c, cardinality, rows),
        };
        CategoricalIndex {
            attr,
            postings,
            codes,
        }
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
    /// differential-test oracle for [`CategoricalIndex::split_rows`] (it
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

    /// The forward column: `codes().get(row)` is the row's dictionary
    /// code.
    pub fn codes(&self) -> &CodeColumn {
        &self.codes
    }

    /// Dictionary size of the indexed attribute (posting-list count;
    /// codes may be absent from the data, their postings are empty).
    pub fn cardinality(&self) -> usize {
        self.postings.len()
    }

    /// Append the next row (id `codes().len()`) holding `code`.
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
        let row = self.codes.len() as u32;
        self.postings[code as usize].insert(row);
        self.codes.push(code);
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
        if new_code as usize >= self.postings.len() || row as usize >= self.codes.len() {
            return Err(StoreError::BadCode {
                attribute: attribute_name.to_string(),
                code: new_code,
            });
        }
        let old_code = self.codes.get(row as usize);
        if old_code != new_code {
            self.postings[old_code as usize].remove(row);
            self.postings[new_code as usize].insert(row);
            self.codes.set(row as usize, new_code);
        }
        Ok(())
    }

    /// The split kernel: one walk over the sorted `rows`, reading the
    /// forward column and `bin_of` (the precomputed bin of each row's
    /// score, `< bins`), emitting every non-empty child's rows **and**
    /// its bin counts at once. Rows keep their parent order and bin
    /// counts are integers converted once, so the output equals
    /// [`CategoricalIndex::split`] plus one histogram per child, at
    /// O(|rows|) instead of O(table) cost.
    ///
    /// Runs serially over a whole partition, or per shard of a
    /// [`crate::ShardPlan`] followed by
    /// [`CategoricalIndex::merge_shard_splits`].
    ///
    /// # Panics
    ///
    /// When `rows` or `bin_of` disagree with the table (row out of range,
    /// a bin `>= bins` on the last code) — programming errors at the
    /// store/audit boundary.
    pub fn split_rows(&self, rows: &[u32], bin_of: &CodeColumn, bins: usize) -> Vec<SplitChild> {
        use CodeColumn::{Narrow, Wide};
        match (&self.codes, bin_of) {
            (Narrow(codes), Narrow(bin_of)) => self.split_rows_in(codes, bin_of, rows, bins),
            (Narrow(codes), Wide(bin_of)) => self.split_rows_in(codes, bin_of, rows, bins),
            (Wide(codes), Narrow(bin_of)) => self.split_rows_in(codes, bin_of, rows, bins),
            (Wide(codes), Wide(bin_of)) => self.split_rows_in(codes, bin_of, rows, bins),
        }
    }

    fn split_rows_in<C: CodeWidth, B: CodeWidth>(
        &self,
        codes: &[C],
        bin_of: &[B],
        rows: &[u32],
        bins: usize,
    ) -> Vec<SplitChild> {
        let cardinality = self.postings.len();
        let capacity = if cardinality <= ONEPASS_MAX_CARDINALITY {
            vec![rows.len(); cardinality]
        } else {
            let mut counts = vec![0usize; cardinality];
            for &row in rows {
                counts[codes[row as usize].idx()] += 1;
            }
            counts
        };
        // A flat counter table small enough for L1: the bounds check is
        // ~free and keeps a bad bin a panic.
        let mut bin_counts = vec![0u32; cardinality * bins];
        let child_rows = scatter(codes, rows.iter().copied(), &capacity, |code, row| {
            bin_counts[code * bins + bin_of[row as usize].idx()] += 1;
        });
        // The unwritten tail capacity stays reserved but its pages are
        // never touched; shrinking would re-copy every child and give
        // the kernel's win back to the allocator.
        child_rows
            .into_iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(code, rows)| SplitChild {
                code: code as u32,
                rows: RowSet::from_sorted(rows),
                bin_counts: bin_counts[code * bins..(code + 1) * bins]
                    .iter()
                    .map(|&c| f64::from(c))
                    .collect(),
            })
            .collect()
    }

    /// Split of the **whole table** straight from the postings: the
    /// children's rows already exist (postings are exactly the per-code
    /// rows of the full table, sorted), so the only per-row work left is
    /// counting score bins. Equal to [`CategoricalIndex::split_rows`]
    /// over every row at a fraction of the cost — the root split every
    /// audit starts with.
    ///
    /// # Panics
    ///
    /// Same contract as [`CategoricalIndex::split_rows`].
    pub fn split_root(&self, bin_of: &CodeColumn, bins: usize) -> Vec<SplitChild> {
        match bin_of {
            CodeColumn::Narrow(bin_of) => self.split_root_in(bin_of, bins),
            CodeColumn::Wide(bin_of) => self.split_root_in(bin_of, bins),
        }
    }

    fn split_root_in<B: CodeWidth>(&self, bin_of: &[B], bins: usize) -> Vec<SplitChild> {
        self.postings
            .iter()
            .enumerate()
            .filter(|(_, posting)| !posting.is_empty())
            .map(|(code, posting)| {
                let mut counts = vec![0u32; bins];
                for &row in posting.rows() {
                    counts[bin_of[row as usize].idx()] += 1;
                }
                SplitChild {
                    code: code as u32,
                    rows: posting.clone(),
                    bin_counts: counts.into_iter().map(f64::from).collect(),
                }
            })
            .collect()
    }

    /// Merge per-shard [`CategoricalIndex::split_rows`] outputs **in
    /// shard order** into the children one call over the concatenated
    /// rows emits. Shards are contiguous row ranges, so concatenated rows
    /// stay sorted, and bin counts are integer-valued floats that add
    /// exactly — the merge is bit-identical for any shard count.
    pub fn merge_shard_splits(partials: Vec<Vec<SplitChild>>) -> Vec<SplitChild> {
        let cardinality = partials
            .iter()
            .flatten()
            .map(|child| child.code as usize + 1)
            .max()
            .unwrap_or(0);
        let mut lens = vec![0usize; cardinality];
        for child in partials.iter().flatten() {
            lens[child.code as usize] += child.rows.len();
        }
        let mut rows: Vec<Vec<u32>> = lens.iter().map(|&n| Vec::with_capacity(n)).collect();
        let mut counts: Vec<Vec<f64>> = vec![Vec::new(); cardinality];
        for child in partials.into_iter().flatten() {
            let code = child.code as usize;
            rows[code].extend_from_slice(child.rows.rows());
            if counts[code].is_empty() {
                counts[code] = child.bin_counts;
            } else {
                for (acc, c) in counts[code].iter_mut().zip(&child.bin_counts) {
                    *acc += c;
                }
            }
        }
        rows.into_iter()
            .zip(counts)
            .enumerate()
            .filter(|(_, (rows, _))| !rows.is_empty())
            .map(|(code, (rows, bin_counts))| SplitChild {
                code: code as u32,
                rows: RowSet::from_sorted(rows),
                bin_counts,
            })
            .collect()
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
        let built = attrs
            .iter()
            .map(|&attr| CategoricalIndex::build(table, attr))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_indexes(table.schema().width(), built))
    }

    /// Assemble a set from externally-built indexes (see
    /// [`CategoricalIndex::from_codes`]); `width` is the schema width.
    /// Attributes without an entry carry no index.
    pub fn from_indexes(width: usize, built: Vec<CategoricalIndex>) -> Self {
        let mut indexes: Vec<Option<CategoricalIndex>> = Vec::new();
        indexes.resize_with(width, || None);
        for index in built {
            let attr = index.attribute();
            indexes[attr] = Some(index);
        }
        IndexSet { indexes }
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
    use crate::sharded::ShardPlan;
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

    /// A table whose only attribute has `cardinality` values, row `r`
    /// holding code `(r * 7) % cardinality`.
    fn wide_table(cardinality: usize, rows: usize) -> Table {
        let labels: Vec<String> = (0..cardinality).map(|v| format!("v{v}")).collect();
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let schema = Schema::builder()
            .categorical("wide", AttributeKind::Protected, &labels)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for r in 0..rows {
            t.push_row(&[Value::cat(labels[(r * 7) % cardinality])])
                .unwrap();
        }
        t
    }

    /// The oracle: posting intersections plus bin counts re-derived
    /// from each child's rows.
    fn oracle(
        idx: &CategoricalIndex,
        within: &RowSet,
        bin_of: &CodeColumn,
        bins: usize,
    ) -> Vec<SplitChild> {
        idx.split(within)
            .into_iter()
            .map(|(code, rows)| {
                let mut bin_counts = vec![0.0; bins];
                for row in rows.iter() {
                    bin_counts[bin_of.get(row) as usize] += 1.0;
                }
                SplitChild {
                    code,
                    rows,
                    bin_counts,
                }
            })
            .collect()
    }

    /// Every split path — serial kernel, per-shard kernel merged in
    /// shard order, root split — equals the oracle.
    fn assert_kernels_match_oracle(t: &Table, attr: usize, bin_of: &CodeColumn, bins: usize) {
        let idx = CategoricalIndex::build(t, attr).unwrap();
        let all = RowSet::all(t.len());
        let sparse = RowSet::from_sorted((0..t.len() as u32).filter(|r| r % 3 != 1).collect());
        for within in [
            all.clone(),
            sparse,
            RowSet::from_rows(vec![1]),
            RowSet::empty(),
        ] {
            let expected = oracle(&idx, &within, bin_of, bins);
            assert_eq!(idx.split_rows(within.rows(), bin_of, bins), expected);
            for shards in [1usize, 2, 3, 7] {
                let plan = ShardPlan::new(t.len(), shards);
                let partials = plan
                    .shard_rows(&within)
                    .iter()
                    .map(|shard| idx.split_rows(shard, bin_of, bins))
                    .collect();
                assert_eq!(
                    CategoricalIndex::merge_shard_splits(partials),
                    expected,
                    "shards={shards}"
                );
            }
        }
        assert_eq!(
            idx.split_root(bin_of, bins),
            oracle(&idx, &all, bin_of, bins)
        );
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

    #[test]
    fn split_kernels_match_the_oracle_at_both_bin_widths() {
        let t = table();
        let bins_of = [0u32, 1, 2, 1, 0];
        for attr in [0usize, 1] {
            // Narrow bins (3 bins), then the same assignment as a wide
            // column (a 300-bin layout).
            assert_kernels_match_oracle(&t, attr, &CodeColumn::from_values(3, &bins_of), 3);
            assert_kernels_match_oracle(&t, attr, &CodeColumn::from_values(300, &bins_of), 300);
        }
    }

    #[test]
    fn wide_dictionaries_count_before_the_walk() {
        // 100 values: narrow codes, above the one-pass ceiling; 300
        // values: wide codes.
        for cardinality in [100usize, 300] {
            let t = wide_table(cardinality, 900);
            assert_eq!(
                matches!(
                    CategoricalIndex::build(&t, 0).unwrap().codes(),
                    CodeColumn::Wide(_)
                ),
                cardinality > CodeColumn::NARROW_DOMAIN
            );
            let bins_of: Vec<u32> = (0..t.len() as u32).map(|r| r % 5).collect();
            assert_kernels_match_oracle(&t, 0, &CodeColumn::from_values(5, &bins_of), 5);
            let bins_of: Vec<u32> = (0..t.len() as u32).map(|r| r % 300).collect();
            assert_kernels_match_oracle(&t, 0, &CodeColumn::from_values(300, &bins_of), 300);
        }
    }

    #[test]
    fn kernel_survives_index_maintenance() {
        let mut t = table();
        let mut idx = CategoricalIndex::build(&t, 0).unwrap();
        t.push_row(&[Value::cat("Female"), Value::cat("Indian"), Value::num(0.4)])
            .unwrap();
        idx.push_row(1, "gender").unwrap();
        idx.set_code(0, 1, "gender").unwrap();
        let bin_of = CodeColumn::from_values(3, &[0, 1, 2, 1, 0, 2]);
        let within = RowSet::all(t.len());
        assert_eq!(
            idx.split_rows(within.rows(), &bin_of, 3),
            oracle(&idx, &within, &bin_of, 3)
        );
    }

    #[test]
    fn index_set_builds_only_the_requested_attributes() {
        let t = table();
        let subset = IndexSet::build(&t, &[1]).unwrap();
        assert!(subset.get(0).is_none());
        assert!(subset.get(2).is_none());
        let idx = subset.get(1).unwrap();
        let column = t.column(1).as_categorical().unwrap();
        assert_eq!(idx.codes(), &CodeColumn::from_values(3, column));
        assert!(matches!(
            IndexSet::build(&t, &[2]),
            Err(StoreError::NotCategorical { .. })
        ));
    }

    #[test]
    fn forward_codes_match_the_column() {
        let t = table();
        let idx = CategoricalIndex::build(&t, 0).unwrap();
        let column = t.column(0).as_categorical().unwrap();
        assert_eq!(idx.codes(), &CodeColumn::Narrow(vec![0, 0, 1, 1, 0]));
        assert_eq!(idx.codes(), &CodeColumn::from_values(2, column));
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
            assert_eq!(maintained.codes(), fresh.codes());
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
        assert_eq!(idx.codes().get(0), 1);
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
        assert_eq!(set.get(0).unwrap().codes().get(0), 1);
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
        assert!(idx.split_root(&CodeColumn::zeroed(4, 0), 4).is_empty());
    }
}
