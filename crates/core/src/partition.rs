//! Partitions and partitionings.
//!
//! A *partition* is one group of workers described by a conjunction of
//! `attribute = value` constraints; a *partitioning* is a full disjoint
//! cover of the worker set by such groups (the constraint set of
//! Definition 1: `pᵢ ∩ pⱼ = ∅`, `⋃ pᵢ = W`).

use crate::cube::CellRows;
use fairjob_hist::Histogram;
use fairjob_store::{Predicate, RowSet, Schema, Table};
use std::sync::{Arc, OnceLock};

/// One group of workers: its defining predicate, its members, and the
/// histogram of its members' scores (precomputed — every algorithm
/// compares histograms many times per split decision).
///
/// A partition found by a search is a union of cells of its context's
/// cell cube ([`crate::CellCube`]): it keeps the cell list and its
/// member count, and builds its row set on the first call to
/// [`Partition::rows`]. Row-built partitions
/// ([`Partition::new`], [`crate::AuditContext::partition`]) and every
/// partition of a returned [`Partitioning`] hold their rows up front.
#[derive(Clone)]
pub struct Partition {
    /// The conjunction of attribute constraints defining the group.
    pub predicate: Predicate,
    /// Histogram of the members' scores.
    pub histogram: Histogram,
    members: Members,
}

#[derive(Clone)]
enum Members {
    Rows(RowSet),
    Cells(CellMembers),
}

/// The members of a search partition: cells of one cube.
#[derive(Clone)]
struct CellMembers {
    cells: Vec<u32>,
    len: usize,
    source: Arc<CellRows>,
    rows: OnceLock<RowSet>,
}

impl Partition {
    /// A partition over listed rows.
    pub fn new(predicate: Predicate, rows: RowSet, histogram: Histogram) -> Self {
        Partition {
            predicate,
            histogram,
            members: Members::Rows(rows),
        }
    }

    /// A partition over `cells` of the cube whose rows `source` places,
    /// `len` rows in all.
    pub(crate) fn of_cells(
        predicate: Predicate,
        histogram: Histogram,
        cells: Vec<u32>,
        len: usize,
        source: &Arc<CellRows>,
    ) -> Self {
        Partition {
            predicate,
            histogram,
            members: Members::Cells(CellMembers {
                cells,
                len,
                source: Arc::clone(source),
                rows: OnceLock::new(),
            }),
        }
    }

    /// The member rows, ascending. A search partition builds them from
    /// its cells on the first call (one pass over the audited rows).
    pub fn rows(&self) -> &RowSet {
        match &self.members {
            Members::Rows(rows) => rows,
            Members::Cells(m) => m.rows.get_or_init(|| m.source.rows_of(&m.cells, m.len)),
        }
    }

    /// The cube cells of a search partition (`None` for row-built
    /// partitions).
    pub(crate) fn cells(&self) -> Option<&[u32]> {
        match &self.members {
            Members::Rows(_) => None,
            Members::Cells(m) => Some(&m.cells),
        }
    }

    /// Number of workers in the partition.
    pub fn len(&self) -> usize {
        match &self.members {
            Members::Rows(rows) => rows.len(),
            Members::Cells(m) => m.len,
        }
    }

    /// True when the partition has no members (never produced by splits;
    /// possible only for hand-built partitions).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the partition's histogram holds mass: the one liveness
    /// rule of every unfairness evaluation, naive and engine alike. A
    /// partition that is not live takes no part in Definition 2's
    /// average, whatever its rows (splits never build one; hand-built
    /// partitions can).
    pub fn is_live(&self) -> bool {
        !self.histogram.is_empty()
    }

    /// Human-readable description against a table's schema.
    pub fn describe(&self, table: &Table) -> String {
        self.describe_in(table.schema())
    }

    /// Schema-only variant of [`Partition::describe`] (paged contexts
    /// hold a schema but no table).
    pub fn describe_in(&self, schema: &Schema) -> String {
        format!("{} (n={})", self.predicate.describe_in(schema), self.len())
    }
}

/// Partitions are equal when their predicates, rows and histograms are:
/// how a search partition stores its members does not matter.
impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        self.predicate == other.predicate
            && self.histogram == other.histogram
            && self.rows() == other.rows()
    }
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("predicate", &self.predicate)
            .field("rows", self.rows())
            .field("histogram", &self.histogram)
            .finish()
    }
}

/// A full disjoint partitioning of the audited workers.
#[derive(Debug, Clone)]
pub struct Partitioning {
    partitions: Vec<Partition>,
}

impl Partitioning {
    /// Wrap a list of partitions (callers are responsible for the
    /// disjoint-cover invariant; [`Partitioning::validate`] checks it).
    pub fn new(partitions: Vec<Partition>) -> Self {
        Partitioning { partitions }
    }

    /// The partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True when there are no partitions.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Check the Definition 1 constraints against a universe of `n`
    /// rows: partitions are pairwise disjoint and their union is
    /// `{0..n}`. Returns a description of the first violation.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        let mut seen = vec![false; n];
        for (i, p) in self.partitions.iter().enumerate() {
            for row in p.rows().iter() {
                if row >= n {
                    return Err(format!("partition {i} references row {row} >= {n}"));
                }
                if seen[row] {
                    return Err(format!("row {row} appears in more than one partition"));
                }
                seen[row] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("row {missing} is not covered by any partition"));
        }
        Ok(())
    }

    /// The distinct attribute indexes used by the partitioning's
    /// predicates, sorted — "which attributes did the audit split on".
    pub fn attributes_used(&self) -> Vec<usize> {
        let mut attrs: Vec<usize> = self
            .partitions
            .iter()
            .flat_map(|p| p.predicate.constraints().iter().map(|c| c.attr))
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        attrs
    }

    /// Render the partitioning one line per partition, largest first.
    pub fn describe(&self, table: &Table) -> String {
        self.describe_in(table.schema())
    }

    /// Schema-only variant of [`Partitioning::describe`].
    pub fn describe_in(&self, schema: &Schema) -> String {
        let mut parts: Vec<&Partition> = self.partitions.iter().collect();
        parts.sort_by_key(|p| std::cmp::Reverse(p.len()));
        parts
            .iter()
            .map(|p| p.describe_in(schema))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairjob_hist::BinSpec;

    fn part(rows: Vec<u32>) -> Partition {
        let spec = BinSpec::equal_width(0.0, 1.0, 4).unwrap();
        Partition::new(
            Predicate::always(),
            RowSet::from_rows(rows),
            Histogram::from_values(spec, [0.5].iter().copied()),
        )
    }

    #[test]
    fn validate_accepts_disjoint_cover() {
        let p = Partitioning::new(vec![part(vec![0, 1]), part(vec![2])]);
        assert!(p.validate(3).is_ok());
    }

    #[test]
    fn validate_rejects_overlap() {
        let p = Partitioning::new(vec![part(vec![0, 1]), part(vec![1, 2])]);
        let err = p.validate(3).unwrap_err();
        assert!(err.contains("more than one"));
    }

    #[test]
    fn validate_rejects_gap() {
        let p = Partitioning::new(vec![part(vec![0]), part(vec![2])]);
        let err = p.validate(3).unwrap_err();
        assert!(err.contains("not covered"));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let p = Partitioning::new(vec![part(vec![0, 5])]);
        let err = p.validate(3).unwrap_err();
        assert!(err.contains(">="));
    }

    #[test]
    fn attributes_used_dedups_and_sorts() {
        let spec = BinSpec::equal_width(0.0, 1.0, 4).unwrap();
        let mk = |pred: Predicate, rows: Vec<u32>| {
            Partition::new(
                pred,
                RowSet::from_rows(rows),
                Histogram::from_values(spec.clone(), [0.5].iter().copied()),
            )
        };
        let p = Partitioning::new(vec![
            mk(Predicate::eq(3, 0).and(1, 2), vec![0]),
            mk(Predicate::eq(1, 1), vec![1]),
        ]);
        assert_eq!(p.attributes_used(), vec![1, 3]);
    }
}
