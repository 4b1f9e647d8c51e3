//! Exact search over the *balanced* partitioning space.
//!
//! A balanced tree splits every partition on the same attribute each
//! round, so its leaves are exactly the cartesian cells of the chosen
//! attribute *set* — order does not matter. The balanced space is
//! therefore the subset lattice of the candidate attributes: `2^m − 1`
//! partitionings for `m` attributes, which is tiny (63 for the paper's
//! six) even though the full unbalanced-tree space is astronomically
//! large. Evaluating all subsets gives the exact optimum of the space
//! `balanced` greedily navigates — the right yardstick for how much the
//! greedy worst-attribute commitment loses.

use super::Algorithm;
use crate::engine::EvalEngine;
use crate::error::AuditError;
use crate::partition::Partition;
use crate::report::AuditResult;
use crate::AuditContext;
use std::time::Instant;

/// Exact optimum over attribute subsets (the balanced space).
#[derive(Debug, Clone, Copy)]
pub struct SubsetExact {
    /// Refuse to run with more candidate attributes than this (the cost
    /// is `2^m` full-partitioning evaluations). 20 by default.
    pub max_attributes: usize,
}

impl Default for SubsetExact {
    fn default() -> Self {
        SubsetExact { max_attributes: 20 }
    }
}

impl Algorithm for SubsetExact {
    fn name(&self) -> String {
        "subset-exact".to_string()
    }

    fn run(&self, ctx: &AuditContext<'_>) -> Result<AuditResult, AuditError> {
        let start = Instant::now();
        let attrs = ctx.attributes();
        if attrs.len() > self.max_attributes {
            return Err(AuditError::BudgetExceeded {
                budget: 1 << self.max_attributes,
            });
        }
        // Subset partitionings nest: every cell of subset S is a union
        // of cells of S ∪ {a}, and identical predicates recur across
        // masks — the memo cache deduplicates them.
        let engine = EvalEngine::new(ctx);
        let mut best: Option<(Vec<Partition>, f64)> = None;
        let mut evaluated = 0usize;
        for mask in 1u64..(1u64 << attrs.len()) {
            let selection: Vec<usize> = attrs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &a)| a)
                .collect();
            let partitions = ctx.cells(&selection);
            let value = engine.unfairness(&partitions)?;
            evaluated += 1;
            if best.as_ref().is_none_or(|(_, b)| value > *b) {
                best = Some((partitions, value));
            }
        }
        let (partitions, unfairness) = best.unwrap_or_else(|| (vec![ctx.root()], 0.0));
        Ok(AuditResult {
            algorithm: self.name(),
            partitioning: ctx.partitioning(&partitions),
            unfairness,
            elapsed: start.elapsed(),
            candidates_evaluated: evaluated,
            engine: engine.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::balanced::Balanced;
    use crate::algorithms::exhaustive::ExhaustiveTree;
    use crate::algorithms::AttributeChoice;
    use crate::AuditConfig;
    use fairjob_marketplace::toy::toy_workers;

    #[test]
    fn evaluates_every_subset() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let result = SubsetExact::default().run(&ctx).unwrap();
        // Two attributes -> 3 subsets.
        assert_eq!(result.candidates_evaluated, 3);
        result.partitioning.validate(t.len()).unwrap();
    }

    #[test]
    fn sandwiched_between_greedy_and_tree_exhaustive() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let greedy = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
        let subset = SubsetExact::default().run(&ctx).unwrap();
        let tree = ExhaustiveTree::new(100_000).run(&ctx).unwrap();
        assert!(subset.unfairness >= greedy.unfairness - 1e-12);
        assert!(subset.unfairness <= tree.unfairness + 1e-12);
        // On the toy data, the balanced-space optimum is the gender split
        // (0.5) while the unbalanced tree optimum is higher (0.5167).
        assert!((subset.unfairness - 0.5).abs() < 1e-9);
        assert!(tree.unfairness > subset.unfairness);
    }

    #[test]
    fn attribute_cap_enforced() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let err = SubsetExact { max_attributes: 1 }.run(&ctx).unwrap_err();
        assert!(matches!(err, AuditError::BudgetExceeded { .. }));
    }
}
