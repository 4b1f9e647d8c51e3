//! Brute-force reference searches.
//!
//! The paper implemented "an exhaustive algorithm that solves our
//! optimization problem exactly by generating all possible partitionings
//! in a brute-force manner", and reports that it failed to terminate
//! within two days on 6 attributes of ≤ 5 values. Two searches are
//! provided here, both budgeted so they fail fast instead of running for
//! days:
//!
//! * [`ExhaustiveTree`] — enumerates every *attribute-split tree* (each
//!   leaf either stops or splits on an attribute unused on its path).
//!   This is the space the paper's heuristics navigate, so it is the
//!   right oracle for "did the heuristic find the best tree".
//! * [`exhaustive_cells`] — enumerates every *set partition* of the full
//!   cartesian cells (the widest reading of Definition 1, where a group
//!   may be any union of attribute-value combinations). Its space is the
//!   Bell number of the cell count; it exists to measure how much the
//!   tree restriction gives up on small instances.

use super::Algorithm;
use crate::engine::EvalEngine;
use crate::error::AuditError;
use crate::partition::Partition;
use crate::report::AuditResult;
use crate::unfairness::average_pairwise;
use crate::AuditContext;
use fairjob_hist::Histogram;
use std::sync::Arc;
use std::time::Instant;

/// Budgeted exhaustive search over attribute-split trees.
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveTree {
    /// Maximum number of complete partitionings to evaluate before
    /// giving up with [`AuditError::BudgetExceeded`].
    pub budget: usize,
}

impl ExhaustiveTree {
    /// Search with the given evaluation budget.
    pub fn new(budget: usize) -> Self {
        ExhaustiveTree { budget }
    }
}

impl Algorithm for ExhaustiveTree {
    fn name(&self) -> String {
        "exhaustive-tree".to_string()
    }

    fn run(&self, ctx: &AuditContext<'_>) -> Result<AuditResult, AuditError> {
        let start = Instant::now();
        // Candidate partitionings share almost all their partitions, so
        // the memo cache turns the brute force's O(candidates × k²)
        // distance computations into one computation per distinct pair,
        // and the split cache computes each subtree's splits once even
        // though sibling enumeration orders revisit them.
        let engine = EvalEngine::new(ctx);
        let mut counter = 0usize;
        let all = options(
            &engine,
            &Arc::new(ctx.root()),
            ctx.attributes(),
            self.budget,
            &mut counter,
        )?;
        let mut best: Option<(Vec<Arc<Partition>>, f64)> = None;
        for candidate in all {
            let value = engine.unfairness(&candidate)?;
            if best.as_ref().is_none_or(|(_, b)| value > *b) {
                best = Some((candidate, value));
            }
        }
        let (partitions, unfairness) = best.expect("at least the no-split partitioning exists");
        Ok(AuditResult {
            algorithm: self.name(),
            partitioning: ctx.partitioning(&partitions),
            unfairness,
            elapsed: start.elapsed(),
            candidates_evaluated: counter,
            engine: engine.stats(),
        })
    }
}

/// All partitionings of `part`'s rows expressible as split trees over
/// `remaining`. Increments `counter` per produced partitioning and fails
/// once it passes `budget`. Partitions are shared between candidates —
/// every combination holds `Arc`s into the engine's split cache.
fn options(
    engine: &EvalEngine<'_, '_>,
    part: &Arc<Partition>,
    remaining: &[usize],
    budget: usize,
    counter: &mut usize,
) -> Result<Vec<Vec<Arc<Partition>>>, AuditError> {
    let mut out: Vec<Vec<Arc<Partition>>> = vec![vec![Arc::clone(part)]];
    *counter += 1;
    if *counter > budget {
        return Err(AuditError::BudgetExceeded { budget });
    }
    for &a in remaining {
        let Some(children) = engine.split(part, a) else {
            continue;
        };
        let rest: Vec<usize> = remaining.iter().copied().filter(|&x| x != a).collect();
        // Cartesian product of per-child subtree options. Size is
        // checked *before* materialising each stage — the product
        // explodes long before memory would.
        let mut combos: Vec<Vec<Arc<Partition>>> = vec![Vec::new()];
        for child in children.iter() {
            let child_options = options(engine, child, &rest, budget, counter)?;
            let size = combos.len().saturating_mul(child_options.len());
            if size > budget || out.len().saturating_add(size) > budget {
                return Err(AuditError::BudgetExceeded { budget });
            }
            let mut next = Vec::with_capacity(size);
            for combo in &combos {
                for option in &child_options {
                    let mut joined = combo.clone();
                    joined.extend(option.iter().cloned());
                    next.push(joined);
                }
            }
            combos = next;
        }
        out.extend(combos);
    }
    Ok(out)
}

/// Count (without materialising) the number of split-tree partitionings
/// of `part` over `remaining`, saturating at `cap`. This powers the
/// "exhaustive is infeasible" experiment: the count explodes long before
/// any evaluation happens.
pub fn count_tree_partitionings(
    ctx: &AuditContext<'_>,
    part: &Partition,
    remaining: &[usize],
    cap: u128,
) -> u128 {
    let mut total: u128 = 1; // the leaf option
    for &a in remaining {
        let Some(children) = ctx.split(part, a) else {
            continue;
        };
        let rest: Vec<usize> = remaining.iter().copied().filter(|&x| x != a).collect();
        let mut product: u128 = 1;
        for child in &children {
            product = product.saturating_mul(count_tree_partitionings(ctx, child, &rest, cap));
            if product >= cap {
                return cap;
            }
        }
        total = total.saturating_add(product);
        if total >= cap {
            return cap;
        }
    }
    total
}

/// Outcome of the set-partition (cell-space) exhaustive search.
#[derive(Debug, Clone)]
pub struct CellSearchOutcome {
    /// The best unfairness value found.
    pub unfairness: f64,
    /// The winning grouping: per block, its member cells
    /// ([`AuditContext::cells`] over the audited attributes).
    pub blocks: Vec<Vec<Partition>>,
    /// Number of set partitions evaluated.
    pub evaluated: usize,
}

/// Budgeted exhaustive search over **set partitions of the full
/// cartesian cells** (Bell-number space — only viable for a handful of
/// cells).
///
/// # Errors
///
/// [`AuditError::BudgetExceeded`] once more than `budget` set partitions
/// have been evaluated; distance errors as usual.
pub fn exhaustive_cells(
    ctx: &AuditContext<'_>,
    budget: usize,
) -> Result<CellSearchOutcome, AuditError> {
    let cells = ctx.cells(ctx.attributes());

    // Enumerate set partitions by assigning each cell to an existing
    // block or a fresh one (restricted-growth strings).
    let n = cells.len();
    let mut assignment = vec![0usize; n];
    let mut best: Option<(Vec<usize>, f64)> = None;
    let mut evaluated = 0usize;

    #[allow(clippy::too_many_arguments)] // recursive helper threading all search state
    fn assign(
        i: usize,
        max_block: usize,
        assignment: &mut Vec<usize>,
        cells: &[Partition],
        ctx: &AuditContext<'_>,
        best: &mut Option<(Vec<usize>, f64)>,
        evaluated: &mut usize,
        budget: usize,
    ) -> Result<(), AuditError> {
        if i == cells.len() {
            *evaluated += 1;
            if *evaluated > budget {
                return Err(AuditError::BudgetExceeded { budget });
            }
            // Merge histograms per block and score.
            let blocks = max_block + 1;
            let mut merged: Vec<Histogram> = (0..blocks)
                .map(|_| Histogram::empty(ctx.spec().clone()))
                .collect();
            for (cell, &block) in assignment.iter().enumerate() {
                merged[block].merge(&cells[cell].histogram);
            }
            let refs: Vec<&Histogram> = merged.iter().collect();
            let value = average_pairwise(&refs, ctx.distance())?;
            if best.as_ref().is_none_or(|(_, b)| value > *b) {
                *best = Some((assignment.clone(), value));
            }
            return Ok(());
        }
        for block in 0..=max_block + 1 {
            assignment[i] = block;
            assign(
                i + 1,
                max_block.max(block),
                assignment,
                cells,
                ctx,
                best,
                evaluated,
                budget,
            )?;
        }
        Ok(())
    }

    if n > 0 {
        assignment[0] = 0;
        assign(
            1,
            0,
            &mut assignment,
            &cells,
            ctx,
            &mut best,
            &mut evaluated,
            budget,
        )?;
    }
    let (winner, unfairness) = best.unwrap_or((vec![0; n], 0.0));
    let blocks_count = winner.iter().copied().max().map_or(0, |m| m + 1);
    let mut blocks: Vec<Vec<Partition>> = vec![Vec::new(); blocks_count];
    for (cell, block) in cells.into_iter().zip(winner) {
        blocks[block].push(cell);
    }
    Ok(CellSearchOutcome {
        unfairness,
        blocks,
        evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AuditConfig;
    use fairjob_marketplace::toy::toy_workers;

    #[test]
    fn toy_tree_space_has_thirteen_partitionings() {
        // leaf + gender-first (1 x {F leaf/split} x {M leaf/split} = 4)
        // + language-first (2^3 = 8) = 13.
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let count = count_tree_partitionings(&ctx, &ctx.root(), ctx.attributes(), u128::MAX);
        assert_eq!(count, 13);
    }

    #[test]
    fn toy_optimum_is_figure_one() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let result = ExhaustiveTree::new(10_000).run(&ctx).unwrap();
        result.partitioning.validate(t.len()).unwrap();
        assert_eq!(
            result.partitioning.len(),
            4,
            "{}",
            result.partitioning.describe(&t)
        );
        // Female partition kept whole (one constraint), males split on
        // both gender and language (two constraints each).
        let mut whole = 0;
        let mut split = 0;
        for p in result.partitioning.partitions() {
            match p.predicate.constraints().len() {
                1 => {
                    whole += 1;
                    assert_eq!(p.len(), 4);
                }
                2 => split += 1,
                _ => panic!("unexpected predicate: {}", p.predicate.describe(&t)),
            }
        }
        assert_eq!((whole, split), (1, 3));
    }

    #[test]
    fn budget_is_enforced() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let err = ExhaustiveTree::new(3).run(&ctx).unwrap_err();
        assert!(matches!(err, AuditError::BudgetExceeded { budget: 3 }));
    }

    #[test]
    fn cell_space_at_least_matches_tree_space() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let tree = ExhaustiveTree::new(10_000).run(&ctx).unwrap();
        let cells = exhaustive_cells(&ctx, 100_000).unwrap();
        // 6 toy cells -> Bell(6) = 203 set partitions.
        assert_eq!(cells.evaluated, 203);
        assert!(
            cells.unfairness >= tree.unfairness - 1e-12,
            "cell space is a superset: {} vs {}",
            cells.unfairness,
            tree.unfairness
        );
    }

    #[test]
    fn cells_budget_is_enforced() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        assert!(matches!(
            exhaustive_cells(&ctx, 10),
            Err(AuditError::BudgetExceeded { budget: 10 })
        ));
    }
}
