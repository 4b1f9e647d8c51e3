//! Sorted sets of row ids — the physical representation of a partition.

/// A sorted, duplicate-free set of row ids.
///
/// Partitions of workers are row sets; the audit algorithms split them,
/// intersect them with predicate results, and iterate them to histogram
/// scores. Sorted `Vec<u32>` keeps all of those operations linear and
/// cache-friendly at the population sizes the paper evaluates (≤ 10⁴
/// rows) while staying simple to reason about.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RowSet {
    rows: Vec<u32>,
}

impl RowSet {
    /// The empty set.
    pub fn empty() -> Self {
        RowSet { rows: Vec::new() }
    }

    /// All rows `0..n`.
    pub fn all(n: usize) -> Self {
        RowSet {
            rows: (0..n as u32).collect(),
        }
    }

    /// From an arbitrary list of row ids (sorted and deduplicated).
    pub fn from_rows(mut rows: Vec<u32>) -> Self {
        rows.sort_unstable();
        rows.dedup();
        RowSet { rows }
    }

    /// From a list already known to be sorted and duplicate-free.
    ///
    /// Debug-asserts the invariant; use [`RowSet::from_rows`] otherwise.
    pub fn from_sorted(rows: Vec<u32>) -> Self {
        debug_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "rows must be sorted and unique"
        );
        RowSet { rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row ids, sorted ascending.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Iterate row ids as `usize` (convenient for column indexing).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.iter().map(|&r| r as usize)
    }

    /// Membership test (binary search).
    pub fn contains(&self, row: u32) -> bool {
        self.rows.binary_search(&row).is_ok()
    }

    /// Insert a row, keeping the set sorted. Returns `false` when the
    /// row was already present. O(n) shift — intended for the stream
    /// layer's small per-epoch patches, not bulk construction.
    pub fn insert(&mut self, row: u32) -> bool {
        match self.rows.binary_search(&row) {
            Ok(_) => false,
            Err(pos) => {
                self.rows.insert(pos, row);
                true
            }
        }
    }

    /// Remove a row. Returns `false` when the row was not present.
    /// O(n) shift — see [`RowSet::insert`].
    pub fn remove(&mut self, row: u32) -> bool {
        match self.rows.binary_search(&row) {
            Ok(pos) => {
                self.rows.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Size ratio beyond which [`RowSet::intersect`] gallops the smaller
    /// side through the larger instead of merging linearly. Intersecting
    /// a full-table posting list with a small partition is the hot case
    /// of the audit algorithms' legacy split path; galloping turns its
    /// cost from O(posting) into O(partition · log posting).
    const GALLOP_FACTOR: usize = 16;

    /// Set intersection. Linear merge for similar sizes; when one side is
    /// more than `GALLOP_FACTOR`× larger, the smaller side is
    /// galloped (exponential probe + binary search) through the larger.
    pub fn intersect(&self, other: &RowSet) -> RowSet {
        if self.len().saturating_mul(Self::GALLOP_FACTOR) < other.len() {
            return Self::intersect_gallop(&self.rows, &other.rows);
        }
        if other.len().saturating_mul(Self::GALLOP_FACTOR) < self.len() {
            return Self::intersect_gallop(&other.rows, &self.rows);
        }
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.rows.len() && j < other.rows.len() {
            match self.rows[i].cmp(&other.rows[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.rows[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        RowSet { rows: out }
    }

    /// Gallop each element of `small` through the unvisited suffix of
    /// `large`: exponential probing brackets the first candidate ≥ the
    /// probe value, a binary search pins it down. O(m · log(n/m)) for
    /// m ≪ n versus O(m + n) for the linear merge.
    fn intersect_gallop(small: &[u32], large: &[u32]) -> RowSet {
        let mut out = Vec::with_capacity(small.len());
        let mut base = 0usize;
        for &x in small {
            if base >= large.len() {
                break;
            }
            if large[base] < x {
                // Invariant: large[base + prev] < x, and either
                // base + bound is past the end or large[base + bound] >= x.
                let mut prev = 0usize;
                let mut bound = 1usize;
                while base + bound < large.len() && large[base + bound] < x {
                    prev = bound;
                    bound <<= 1;
                }
                let hi = (base + bound + 1).min(large.len());
                let offset = large[base + prev..hi].partition_point(|&v| v < x);
                base += prev + offset;
            }
            if base < large.len() && large[base] == x {
                out.push(x);
                base += 1;
            }
        }
        RowSet { rows: out }
    }

    /// Set union (linear merge).
    pub fn union(&self, other: &RowSet) -> RowSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.rows.len() && j < other.rows.len() {
            match self.rows[i].cmp(&other.rows[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.rows[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.rows[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.rows[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.rows[i..]);
        out.extend_from_slice(&other.rows[j..]);
        RowSet { rows: out }
    }

    /// Set difference `self \ other` (linear merge).
    pub fn difference(&self, other: &RowSet) -> RowSet {
        let mut out = Vec::with_capacity(self.len());
        let (mut i, mut j) = (0, 0);
        while i < self.rows.len() {
            if j >= other.rows.len() || self.rows[i] < other.rows[j] {
                out.push(self.rows[i]);
                i += 1;
            } else if self.rows[i] == other.rows[j] {
                i += 1;
                j += 1;
            } else {
                j += 1;
            }
        }
        RowSet { rows: out }
    }

    /// True when the two sets share no rows.
    pub fn is_disjoint(&self, other: &RowSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.rows.len() && j < other.rows.len() {
            match self.rows[i].cmp(&other.rows[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }
}

impl FromIterator<u32> for RowSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        RowSet::from_rows(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_dedups() {
        let s = RowSet::from_rows(vec![3, 1, 3, 2]);
        assert_eq!(s.rows(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn all_covers_range() {
        let s = RowSet::all(4);
        assert_eq!(s.rows(), &[0, 1, 2, 3]);
        assert!(RowSet::all(0).is_empty());
    }

    #[test]
    fn contains_uses_binary_search() {
        let s = RowSet::from_rows(vec![1, 5, 9]);
        assert!(s.contains(5));
        assert!(!s.contains(4));
    }

    #[test]
    fn intersect_union_difference() {
        let a = RowSet::from_rows(vec![1, 2, 3, 5]);
        let b = RowSet::from_rows(vec![2, 3, 4]);
        assert_eq!(a.intersect(&b).rows(), &[2, 3]);
        assert_eq!(a.union(&b).rows(), &[1, 2, 3, 4, 5]);
        assert_eq!(a.difference(&b).rows(), &[1, 5]);
        assert_eq!(b.difference(&a).rows(), &[4]);
    }

    #[test]
    fn operations_with_empty() {
        let a = RowSet::from_rows(vec![1, 2]);
        let e = RowSet::empty();
        assert_eq!(a.intersect(&e), e);
        assert_eq!(a.union(&e), a);
        assert_eq!(a.difference(&e), a);
        assert_eq!(e.difference(&a), e);
        assert!(a.is_disjoint(&e));
    }

    #[test]
    fn disjointness() {
        let a = RowSet::from_rows(vec![1, 3]);
        let b = RowSet::from_rows(vec![2, 4]);
        let c = RowSet::from_rows(vec![3]);
        assert!(a.is_disjoint(&b));
        assert!(!a.is_disjoint(&c));
    }

    #[test]
    fn asymmetric_intersect_gallops_to_the_same_result() {
        // Sizes chosen to force the gallop path in both argument orders.
        let small = RowSet::from_rows(vec![3, 250, 251, 999, 2000]);
        let large = RowSet::from_rows((0..1500).map(|i| i * 2).collect());
        let expected: Vec<u32> = small
            .rows()
            .iter()
            .copied()
            .filter(|&r| large.contains(r))
            .collect();
        assert_eq!(small.intersect(&large).rows(), &expected[..]);
        assert_eq!(large.intersect(&small).rows(), &expected[..]);
    }

    #[test]
    fn gallop_handles_probe_past_the_end() {
        let small = RowSet::from_rows(vec![5, 9_999_999]);
        let large = RowSet::from_rows((0..200).collect());
        assert_eq!(small.intersect(&large).rows(), &[5]);
        let all_past = RowSet::from_rows(vec![500, 600]);
        assert!(all_past.intersect(&large).is_empty());
    }

    #[test]
    fn gallop_single_element_sides() {
        let one = RowSet::from_rows(vec![77]);
        let large = RowSet::from_rows((0..100).collect());
        assert_eq!(one.intersect(&large).rows(), &[77]);
        assert_eq!(large.intersect(&one).rows(), &[77]);
        let missing = RowSet::from_rows(vec![1000]);
        assert!(missing.intersect(&large).is_empty());
    }

    #[test]
    fn from_iterator() {
        let s: RowSet = [4u32, 1, 4].into_iter().collect();
        assert_eq!(s.rows(), &[1, 4]);
    }

    #[test]
    fn iter_yields_usize() {
        let s = RowSet::from_rows(vec![2, 7]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![2, 7]);
    }
}
