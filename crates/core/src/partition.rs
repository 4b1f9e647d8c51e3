//! Partitions and partitionings.
//!
//! A *partition* is one group of workers described by a conjunction of
//! `attribute = value` constraints; a *partitioning* is a full disjoint
//! cover of the worker set by such groups (the constraint set of
//! Definition 1: `pᵢ ∩ pⱼ = ∅`, `⋃ pᵢ = W`).

use fairjob_hist::Histogram;
use fairjob_store::{Predicate, RowSet, Schema, Table};

/// One group of workers: its defining predicate, its rows, and the
/// histogram of its members' scores (precomputed — every algorithm
/// compares histograms many times per split decision).
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// The conjunction of attribute constraints defining the group.
    pub predicate: Predicate,
    /// The member rows.
    pub rows: RowSet,
    /// Histogram of the members' scores.
    pub histogram: Histogram,
}

impl Partition {
    /// Number of workers in the partition.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the partition has no members (never produced by splits;
    /// possible only for hand-built partitions).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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
            for row in p.rows.iter() {
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
        Partition {
            predicate: Predicate::always(),
            rows: RowSet::from_rows(rows),
            histogram: Histogram::from_values(spec, [0.5].iter().copied()),
        }
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
        let mk = |pred: Predicate, rows: Vec<u32>| Partition {
            predicate: pred,
            rows: RowSet::from_rows(rows),
            histogram: Histogram::from_values(spec.clone(), [0.5].iter().copied()),
        };
        let p = Partitioning::new(vec![
            mk(Predicate::eq(3, 0).and(1, 2), vec![0]),
            mk(Predicate::eq(1, 1), vec![1]),
        ]);
        assert_eq!(p.attributes_used(), vec![1, 3]);
    }
}
