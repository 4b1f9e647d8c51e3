//! Conjunctive equality predicates over categorical attributes.
//!
//! A partition in an attribute-split tree is exactly the set of workers
//! matching a conjunction of `attribute = value` constraints (e.g.
//! `gender = Male ∧ language = English` in Figure 1 of the paper).

use crate::table::Table;
use crate::{RowSet, StoreError};
use std::fmt;

/// One `attribute = value` constraint (attribute index + dictionary code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EqConstraint {
    /// Index of the categorical attribute in the schema.
    pub attr: usize,
    /// Dictionary code the attribute must equal.
    pub code: u32,
}

/// A conjunction of equality constraints. The empty predicate matches all
/// rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Predicate {
    constraints: Vec<EqConstraint>,
}

impl Predicate {
    /// The always-true predicate.
    pub fn always() -> Self {
        Predicate::default()
    }

    /// A single-constraint predicate.
    pub fn eq(attr: usize, code: u32) -> Self {
        Predicate {
            constraints: vec![EqConstraint { attr, code }],
        }
    }

    /// This predicate with one more constraint appended. Keeps
    /// constraints ordered by attribute index so structurally equal
    /// predicates compare equal.
    pub fn and(&self, attr: usize, code: u32) -> Self {
        let mut constraints = self.constraints.clone();
        constraints.push(EqConstraint { attr, code });
        constraints.sort_by_key(|c| c.attr);
        Predicate { constraints }
    }

    /// The conjunction of `constraints` built in one allocation and
    /// one sort: the predicate that adding them one at a time, in order,
    /// to [`Predicate::always`] with [`Predicate::and`] builds.
    pub fn all_of(constraints: impl IntoIterator<Item = EqConstraint>) -> Self {
        let mut constraints: Vec<EqConstraint> = constraints.into_iter().collect();
        constraints.sort_by_key(|c| c.attr);
        Predicate { constraints }
    }

    /// The constraints, ordered by attribute index.
    pub fn constraints(&self) -> &[EqConstraint] {
        &self.constraints
    }

    /// A cheap 128-bit structural fingerprint, equal for structurally
    /// equal predicates (constraints are kept sorted by attribute, so
    /// build order does not matter). Used as a memo-cache key by the
    /// audit layer's evaluation engine.
    pub fn fingerprint(&self) -> u128 {
        // Two independent 64-bit FNV-1a passes over the (attr, code)
        // stream; 128 bits makes accidental collisions across the few
        // thousand predicates of an audit astronomically unlikely.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut lo: u64 = OFFSET;
        let mut hi: u64 = OFFSET ^ 0x9e37_79b9_7f4a_7c15;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                lo = (lo ^ u64::from(byte)).wrapping_mul(PRIME);
                hi = (hi ^ u64::from(byte.rotate_left(3))).wrapping_mul(PRIME);
            }
        };
        mix(self.constraints.len() as u64);
        for c in &self.constraints {
            mix(c.attr as u64);
            mix(u64::from(c.code));
        }
        u128::from(hi) << 64 | u128::from(lo)
    }

    /// True when this predicate has no constraints.
    pub fn is_always(&self) -> bool {
        self.constraints.is_empty()
    }

    /// True when the predicate already constrains attribute `attr`.
    pub fn constrains(&self, attr: usize) -> bool {
        self.constraints.iter().any(|c| c.attr == attr)
    }

    /// Does row `row` of `table` satisfy the predicate?
    ///
    /// # Errors
    ///
    /// [`StoreError::NotCategorical`] when a constraint references a
    /// non-categorical attribute.
    pub fn matches(&self, table: &Table, row: usize) -> Result<bool, StoreError> {
        for c in &self.constraints {
            if table.code_at(c.attr, row)? != c.code {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// All rows of `within` that satisfy the predicate.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotCategorical`] as in [`Predicate::matches`].
    pub fn filter(&self, table: &Table, within: &RowSet) -> Result<RowSet, StoreError> {
        if self.is_always() {
            return Ok(within.clone());
        }
        // Pull the categorical code slices once, then scan.
        let mut cols = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            let codes = table.column(c.attr).as_categorical().ok_or_else(|| {
                StoreError::NotCategorical {
                    attribute: table.schema().attribute(c.attr).name.clone(),
                }
            })?;
            cols.push((codes, c.code));
        }
        let rows = within
            .rows()
            .iter()
            .copied()
            .filter(|&r| cols.iter().all(|(codes, code)| codes[r as usize] == *code))
            .collect();
        Ok(RowSet::from_sorted(rows))
    }

    /// Render the predicate with attribute and value names from `table`'s
    /// schema (e.g. `gender=Male ∧ language=English`).
    pub fn describe(&self, table: &Table) -> String {
        self.describe_in(table.schema())
    }

    /// Schema-only variant of [`Predicate::describe`] — rendering needs
    /// no row data, so paged (out-of-core) callers hand the schema
    /// directly.
    pub fn describe_in(&self, schema: &crate::Schema) -> String {
        if self.is_always() {
            return "⊤".to_string();
        }
        self.constraints
            .iter()
            .map(|c| {
                let attr = schema.attribute(c.attr);
                let label = attr.label_of(c.code).unwrap_or("?");
                format!("{}={}", attr.name, label)
            })
            .collect::<Vec<_>>()
            .join(" ∧ ")
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_always() {
            return write!(f, "⊤");
        }
        let parts: Vec<String> = self
            .constraints
            .iter()
            .map(|c| format!("a{}={}", c.attr, c.code))
            .collect();
        write!(f, "{}", parts.join(" ∧ "))
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
    fn always_matches_everything() {
        let t = table();
        let all = RowSet::all(t.len());
        let p = Predicate::always();
        assert_eq!(p.filter(&t, &all).unwrap(), all);
        assert!(p.is_always());
    }

    #[test]
    fn single_constraint() {
        let t = table();
        let all = RowSet::all(t.len());
        let males = Predicate::eq(0, 0).filter(&t, &all).unwrap();
        assert_eq!(males.rows(), &[0, 1, 4]);
    }

    #[test]
    fn conjunction() {
        let t = table();
        let all = RowSet::all(t.len());
        let p = Predicate::eq(0, 0).and(1, 0); // Male ∧ English
        assert_eq!(p.filter(&t, &all).unwrap().rows(), &[0, 4]);
    }

    #[test]
    fn filter_respects_within() {
        let t = table();
        let within = RowSet::from_rows(vec![1, 2, 3]);
        let males = Predicate::eq(0, 0).filter(&t, &within).unwrap();
        assert_eq!(males.rows(), &[1]);
    }

    #[test]
    fn matches_per_row() {
        let t = table();
        let p = Predicate::eq(1, 2); // lang = Other
        assert!(!p.matches(&t, 0).unwrap());
        assert!(p.matches(&t, 3).unwrap());
    }

    #[test]
    fn non_categorical_rejected() {
        let t = table();
        let p = Predicate::eq(2, 0); // `score` is numeric
        assert!(matches!(
            p.filter(&t, &RowSet::all(t.len())),
            Err(StoreError::NotCategorical { .. })
        ));
    }

    #[test]
    fn structural_equality_is_order_insensitive() {
        let p1 = Predicate::eq(0, 1).and(1, 2);
        let p2 = Predicate::eq(1, 2).and(0, 1);
        assert_eq!(p1, p2);
    }

    #[test]
    fn all_of_builds_what_and_builds() {
        let c = |attr, code| EqConstraint { attr, code };
        // A repeated attribute keeps its constraints in insertion order,
        // as successive `and`s (stable sorts) do.
        let lists = [
            vec![],
            vec![c(3, 1)],
            vec![c(4, 0), c(1, 2), c(3, 1)],
            vec![c(2, 5), c(0, 1), c(2, 3), c(1, 0), c(0, 0)],
        ];
        for list in lists {
            let folded = list
                .iter()
                .fold(Predicate::always(), |p, k| p.and(k.attr, k.code));
            let built = Predicate::all_of(list.iter().copied());
            assert_eq!(built.constraints(), folded.constraints());
            assert_eq!(built.fingerprint(), folded.fingerprint());
        }
    }

    #[test]
    fn fingerprint_is_structural_and_discriminating() {
        // Equal predicates fingerprint equal regardless of build order.
        let p1 = Predicate::eq(0, 1).and(1, 2);
        let p2 = Predicate::eq(1, 2).and(0, 1);
        assert_eq!(p1.fingerprint(), p2.fingerprint());
        // Different predicates (including attr/code swaps and prefixes)
        // fingerprint differently.
        let variants = [
            Predicate::always(),
            Predicate::eq(0, 1),
            Predicate::eq(1, 0),
            Predicate::eq(0, 1).and(1, 2),
            Predicate::eq(0, 2).and(1, 1),
            Predicate::eq(0, 1).and(1, 2).and(2, 0),
        ];
        for (i, a) in variants.iter().enumerate() {
            for (j, b) in variants.iter().enumerate() {
                if i != j {
                    assert_ne!(a.fingerprint(), b.fingerprint(), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn constrains_lookup() {
        let p = Predicate::eq(3, 1);
        assert!(p.constrains(3));
        assert!(!p.constrains(0));
    }

    #[test]
    fn describe_uses_labels() {
        let t = table();
        let p = Predicate::eq(0, 0).and(1, 1);
        assert_eq!(p.describe(&t), "gender=Male ∧ lang=Indian");
        assert_eq!(Predicate::always().describe(&t), "⊤");
    }
}
