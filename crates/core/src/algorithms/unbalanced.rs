//! Algorithm 2 — `unbalanced` (and its random baseline `r-unbalanced`).
//!
//! After the initial worst-attribute split of the whole population, the
//! algorithm recurses per partition: a partition is replaced by its
//! children only when doing so raises the average pairwise distance of
//! the local level (children next to the partition's siblings, versus
//! the partition next to its siblings). Different branches may split on
//! different attributes in different orders, so the tree is unbalanced.
//!
//! Two documented ambiguities of the pseudocode are exposed as options:
//!
//! * **Sibling scope** — line 13 recurses with `children − {p}` as the
//!   sibling set, silently dropping the ancestors' siblings.
//!   [`Unbalanced::with_ancestor_siblings`] keeps them instead.
//! * **Stopping comparison** — `averageEMD(children, siblings)` can read
//!   as the average over *all* pairs of `children ∪ siblings` (the
//!   "what would unfairness become" reading of the paper's prose, the
//!   default here) or over *cross* pairs only
//!   ([`Unbalanced::with_cross_stopping`]).

use super::{Algorithm, AttributeChoice};
use crate::engine::{EvalEngine, SplitChildren};
use crate::error::AuditError;
use crate::partition::Partition;
use crate::report::AuditResult;
use crate::AuditContext;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// How the stopping rule aggregates distances (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoppingRule {
    /// Average over all pairs of `group ∪ siblings` (default).
    Union,
    /// Average over `group × siblings` cross pairs only.
    Cross,
}

/// The `unbalanced` algorithm (Algorithm 2 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct Unbalanced {
    choice: AttributeChoice,
    stopping: StoppingRule,
    ancestor_siblings: bool,
}

impl Unbalanced {
    /// `Unbalanced::new(AttributeChoice::Worst)` is the paper's
    /// `unbalanced`; `AttributeChoice::Random { .. }` is `r-unbalanced`.
    pub fn new(choice: AttributeChoice) -> Self {
        Unbalanced {
            choice,
            stopping: StoppingRule::Union,
            ancestor_siblings: false,
        }
    }

    /// Use cross-pair averaging in the stopping rule.
    pub fn with_cross_stopping(mut self) -> Self {
        self.stopping = StoppingRule::Cross;
        self
    }

    /// Carry ancestors' siblings into recursive sibling sets instead of
    /// the paper-literal `children − {p}`.
    pub fn with_ancestor_siblings(mut self) -> Self {
        self.ancestor_siblings = true;
        self
    }
}

struct Run<'c, 'a> {
    engine: EvalEngine<'c, 'a>,
    choice: AttributeChoice,
    stopping: StoppingRule,
    ancestor_siblings: bool,
    rng: Option<StdRng>,
    evaluations: usize,
    output: Vec<Arc<Partition>>,
}

impl Run<'_, '_> {
    fn level_avg(
        &mut self,
        group: &[Arc<Partition>],
        siblings: &[Arc<Partition>],
    ) -> Result<f64, AuditError> {
        self.evaluations += 1;
        match self.stopping {
            StoppingRule::Union => self.engine.unfairness_union(group, siblings),
            StoppingRule::Cross => self.engine.unfairness_cross(group, siblings),
        }
    }

    /// `worstAttribute(current, f, A)` for a single partition: the
    /// attribute whose split of `current` has the highest internal
    /// average pairwise distance, returned **with** its children so
    /// callers never re-split. All remaining attributes are materialised
    /// through one [`EvalEngine::split_batch`] — cached splits are free,
    /// fresh ones run the kernel on worker threads — so each recursion
    /// step's candidate search is parallel yet deterministic. Random
    /// choice picks uniformly among attributes that can split `current`.
    fn choose_for(
        &mut self,
        current: &Partition,
        remaining: &[usize],
    ) -> Result<Option<(usize, SplitChildren)>, AuditError> {
        let requests: Vec<(&Partition, usize)> = remaining.iter().map(|&a| (current, a)).collect();
        let results = self.engine.split_batch(&requests);
        let mut candidates: Vec<(usize, SplitChildren)> = remaining
            .iter()
            .zip(results)
            .filter_map(|(&a, r)| r.map(|children| (a, children)))
            .collect();
        if candidates.is_empty() {
            return Ok(None);
        }
        let winner = match self.choice {
            AttributeChoice::Random { .. } => {
                let rng = self.rng.as_mut().expect("random choice carries an RNG");
                rng.gen_range(0..candidates.len())
            }
            AttributeChoice::Worst => {
                let mut best: Option<(usize, f64)> = None;
                for (index, (_, children)) in candidates.iter().enumerate() {
                    let value = self.engine.unfairness(children.as_slice())?;
                    self.evaluations += 1;
                    if best.is_none_or(|(_, b)| value > b) {
                        best = Some((index, value));
                    }
                }
                best.expect("candidates is non-empty").0
            }
        };
        Ok(Some(candidates.swap_remove(winner)))
    }

    /// Algorithm 2's recursive body.
    fn recurse(
        &mut self,
        current: Arc<Partition>,
        siblings: &[Arc<Partition>],
        remaining: &[usize],
    ) -> Result<(), AuditError> {
        // Line 1: out of attributes -> emit.
        let Some((a, children)) = self.choose_for(&current, remaining)? else {
            self.output.push(current);
            return Ok(());
        };
        // Lines 4–9: compare the local level with and without the split.
        let current_avg = self.level_avg(std::slice::from_ref(&current), siblings)?;
        let children_avg = self.level_avg(&children, siblings)?;
        if current_avg >= children_avg {
            self.output.push(current);
            return Ok(());
        }
        // Lines 12–14: recurse per child. Sibling sets share the child
        // partitions instead of deep-cloning them per recursion level.
        let remaining: Vec<usize> = remaining.iter().copied().filter(|&x| x != a).collect();
        for (i, child) in children.iter().enumerate() {
            let mut sibs: Vec<Arc<Partition>> = children
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, p)| Arc::clone(p))
                .collect();
            if self.ancestor_siblings {
                sibs.extend(siblings.iter().cloned());
            }
            self.recurse(Arc::clone(child), &sibs, &remaining)?;
        }
        Ok(())
    }
}

impl Algorithm for Unbalanced {
    fn name(&self) -> String {
        match self.choice {
            AttributeChoice::Worst => "unbalanced".to_string(),
            AttributeChoice::Random { .. } => "r-unbalanced".to_string(),
        }
    }

    fn run(&self, ctx: &AuditContext<'_>) -> Result<AuditResult, AuditError> {
        let start = Instant::now();
        let mut run = Run {
            engine: EvalEngine::new(ctx),
            choice: self.choice,
            stopping: self.stopping,
            ancestor_siblings: self.ancestor_siblings,
            rng: match self.choice {
                AttributeChoice::Random { seed } => Some(StdRng::seed_from_u64(seed)),
                AttributeChoice::Worst => None,
            },
            evaluations: 0,
            output: Vec::new(),
        };

        // Initial split, exactly as balanced's first step.
        let root = Arc::new(ctx.root());
        let remaining: Vec<usize> = ctx.attributes().to_vec();
        match run.choose_for(&root, &remaining)? {
            None => run.output.push(root),
            Some((a, children)) => {
                let remaining: Vec<usize> = remaining.iter().copied().filter(|&x| x != a).collect();
                for (i, child) in children.iter().enumerate() {
                    let sibs: Vec<Arc<Partition>> = children
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, p)| Arc::clone(p))
                        .collect();
                    run.recurse(Arc::clone(child), &sibs, &remaining)?;
                }
            }
        }

        let unfairness = run.engine.unfairness(&run.output)?;
        let partitioning = ctx.partitioning(&run.output);
        Ok(AuditResult {
            algorithm: self.name(),
            partitioning,
            unfairness,
            elapsed: start.elapsed(),
            candidates_evaluated: run.evaluations,
            engine: run.engine.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AuditConfig;
    use fairjob_marketplace::toy::toy_workers;

    #[test]
    fn toy_output_is_a_valid_cover() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        for algo in [
            Unbalanced::new(AttributeChoice::Worst),
            Unbalanced::new(AttributeChoice::Worst).with_cross_stopping(),
            Unbalanced::new(AttributeChoice::Worst).with_ancestor_siblings(),
            Unbalanced::new(AttributeChoice::Random { seed: 3 }),
        ] {
            let result = algo.run(&ctx).unwrap();
            result.partitioning.validate(t.len()).unwrap();
            let recomputed = ctx.unfairness(result.partitioning.partitions()).unwrap();
            assert!((recomputed - result.unfairness).abs() < 1e-12);
        }
    }

    #[test]
    fn toy_unbalanced_finds_figure_one_partitioning() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let result = Unbalanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
        // Figure 1's optimum: Male-English, Male-Indian, Male-Other,
        // Female — males split by language, females kept whole.
        assert_eq!(
            result.partitioning.len(),
            4,
            "{}",
            result.partitioning.describe(&t)
        );
        let female_whole = result
            .partitioning
            .partitions()
            .iter()
            .any(|p| p.len() == 4 && p.predicate.constraints().len() == 1);
        assert!(
            female_whole,
            "females should stay whole:\n{}",
            result.partitioning.describe(&t)
        );
    }

    #[test]
    fn names() {
        assert_eq!(Unbalanced::new(AttributeChoice::Worst).name(), "unbalanced");
        assert_eq!(
            Unbalanced::new(AttributeChoice::Random { seed: 0 }).name(),
            "r-unbalanced"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let a = Unbalanced::new(AttributeChoice::Random { seed: 11 })
            .run(&ctx)
            .unwrap();
        let b = Unbalanced::new(AttributeChoice::Random { seed: 11 })
            .run(&ctx)
            .unwrap();
        assert_eq!(a.unfairness, b.unfairness);
        assert_eq!(a.partitioning.len(), b.partitioning.len());
    }
}
