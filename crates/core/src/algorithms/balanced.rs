//! Algorithm 1 — `balanced` (and its random-choice baseline
//! `r-balanced`).
//!
//! Faithful to the paper's pseudocode: split all workers on the chosen
//! attribute unconditionally, then keep splitting **every** current
//! partition on one further attribute per round, stopping as soon as the
//! candidate round does not strictly increase the average pairwise
//! distance (`currentAvg >= childrenAvg → break`) or attributes run out.
//! Because every round splits all leaves with the same attribute, the
//! resulting partition tree is balanced.

use super::{choose_attribute, Algorithm, AttributeChoice};
use crate::engine::EvalEngine;
use crate::error::AuditError;
use crate::report::AuditResult;
use crate::AuditContext;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// The `balanced` algorithm (Algorithm 1 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct Balanced {
    choice: AttributeChoice,
}

impl Balanced {
    /// `Balanced::new(AttributeChoice::Worst)` is the paper's
    /// `balanced`; `AttributeChoice::Random { .. }` is `r-balanced`.
    pub fn new(choice: AttributeChoice) -> Self {
        Balanced { choice }
    }
}

impl Algorithm for Balanced {
    fn name(&self) -> String {
        match self.choice {
            AttributeChoice::Worst => "balanced".to_string(),
            AttributeChoice::Random { .. } => "r-balanced".to_string(),
        }
    }

    fn run(&self, ctx: &AuditContext<'_>) -> Result<AuditResult, AuditError> {
        let start = Instant::now();
        let engine = EvalEngine::new(ctx);
        let mut evaluations = 0usize;
        let mut rng = match self.choice {
            AttributeChoice::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            AttributeChoice::Worst => None,
        };

        let mut remaining: Vec<usize> = ctx.attributes().to_vec();
        let mut current = vec![Arc::new(ctx.root())];

        // Lines 1–4: the first split is unconditional.
        if let Some(chosen) = choose_attribute(
            &engine,
            &current,
            &remaining,
            self.choice,
            &mut rng,
            &mut evaluations,
        )? {
            remaining.retain(|&x| x != chosen.attr);
            current = chosen.parts;
        }
        // Reported values come from full evaluations through the memo.
        // Their pairs are cached when delta scoring chose the attribute;
        // when the column screen or a lone candidate decided, they are
        // computed here and cached for later rounds and warm epochs.
        let mut current_avg = engine.unfairness(&current)?;
        evaluations += 1;

        // Lines 5–16: keep splitting while it strictly helps.
        while !remaining.is_empty() {
            let Some(chosen) = choose_attribute(
                &engine,
                &current,
                &remaining,
                self.choice,
                &mut rng,
                &mut evaluations,
            )?
            else {
                break; // nothing can split any partition any more
            };
            remaining.retain(|&x| x != chosen.attr);
            let children = chosen.parts;
            let children_avg = engine.unfairness(&children)?;
            evaluations += 1;
            if current_avg >= children_avg {
                break;
            }
            current = children;
            current_avg = children_avg;
        }

        Ok(AuditResult {
            algorithm: self.name(),
            partitioning: ctx.partitioning(&current),
            unfairness: current_avg,
            elapsed: start.elapsed(),
            candidates_evaluated: evaluations,
            engine: engine.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AuditConfig;
    use fairjob_marketplace::toy::toy_workers;

    #[test]
    fn toy_balanced_splits_gender_then_stops_or_continues_consistently() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let result = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
        // A valid full disjoint cover.
        result.partitioning.validate(t.len()).unwrap();
        // The first (worst) attribute on the toy data is gender: the
        // gender split scores 0.3 while the language split scores less.
        assert!(result.partitioning.attributes_used().contains(&0));
        // Reported unfairness matches recomputation.
        let recomputed = ctx.unfairness(result.partitioning.partitions()).unwrap();
        assert!((recomputed - result.unfairness).abs() < 1e-12);
    }

    #[test]
    fn r_balanced_is_deterministic_in_seed() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let a = Balanced::new(AttributeChoice::Random { seed: 5 })
            .run(&ctx)
            .unwrap();
        let b = Balanced::new(AttributeChoice::Random { seed: 5 })
            .run(&ctx)
            .unwrap();
        assert_eq!(a.partitioning.len(), b.partitioning.len());
        assert_eq!(a.unfairness, b.unfairness);
    }

    #[test]
    fn names() {
        assert_eq!(Balanced::new(AttributeChoice::Worst).name(), "balanced");
        assert_eq!(
            Balanced::new(AttributeChoice::Random { seed: 0 }).name(),
            "r-balanced"
        );
    }

    #[test]
    fn single_attribute_context_terminates() {
        let (t, scores) = toy_workers();
        let cfg = AuditConfig {
            attributes: Some(vec!["gender".into()]),
            ..Default::default()
        };
        let ctx = AuditContext::new(&t, &scores, cfg).unwrap();
        let result = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
        assert_eq!(result.partitioning.len(), 2);
        assert!((result.unfairness - 0.5).abs() < 1e-9);
    }
}
