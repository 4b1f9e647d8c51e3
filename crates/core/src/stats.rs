//! Statistical significance of observed unfairness (extension).
//!
//! Random score fluctuations alone produce non-zero average pairwise
//! EMD, especially for small partitions — the paper's own simulation
//! tables show 0.15–0.26 on fully random data. The permutation test
//! here quantifies that: holding the partitioning fixed, it shuffles
//! the scores across workers (breaking any association between group
//! membership and score) and reports how often a shuffled assignment is
//! at least as unfair as the observed one. A small p-value means the
//! observed unfairness is not explained by partition-size noise.

use crate::error::AuditError;
use crate::partition::Partitioning;
use crate::AuditContext;
use fairjob_hist::Histogram;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Result of [`permutation_test`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermutationOutcome {
    /// The observed unfairness of the partitioning.
    pub observed: f64,
    /// Mean unfairness across the permuted replicates.
    pub null_mean: f64,
    /// Largest unfairness seen among the replicates.
    pub null_max: f64,
    /// `(1 + #{replicate ≥ observed}) / (1 + replicates)` — the standard
    /// add-one permutation p-value.
    pub p_value: f64,
    /// Number of replicates run.
    pub replicates: usize,
}

/// Permutation test of the unfairness of `partitioning` under `ctx`.
/// Deterministic in `seed`.
///
/// # Errors
///
/// [`AuditError::Distance`] from the underlying distance.
pub fn permutation_test(
    ctx: &AuditContext<'_>,
    partitioning: &Partitioning,
    replicates: usize,
    seed: u64,
) -> Result<PermutationOutcome, AuditError> {
    let observed = ctx.unfairness(partitioning.partitions())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shuffled: Vec<f64> = ctx
        .scores()
        .ok_or(AuditError::OutOfCore {
            what: "the permutation test's score shuffling",
        })?
        .to_vec();
    let mut at_least = 0usize;
    let mut sum = 0.0;
    let mut max = f64::NEG_INFINITY;
    for _ in 0..replicates {
        shuffled.shuffle(&mut rng);
        // Rebuild each partition's histogram from the shuffled scores.
        let hists: Vec<Histogram> = partitioning
            .partitions()
            .iter()
            .map(|p| {
                let mut h = Histogram::empty(ctx.spec().clone());
                for row in p.rows().iter() {
                    h.add(shuffled[row]);
                }
                h
            })
            .collect();
        let refs: Vec<&Histogram> = hists.iter().collect();
        let value = crate::unfairness::average_pairwise(&refs, ctx.distance())?;
        if value >= observed - 1e-12 {
            at_least += 1;
        }
        sum += value;
        max = max.max(value);
    }
    let replicates_f = replicates as f64;
    Ok(PermutationOutcome {
        observed,
        null_mean: if replicates > 0 {
            sum / replicates_f
        } else {
            0.0
        },
        null_max: if replicates > 0 { max } else { 0.0 },
        p_value: (1.0 + at_least as f64) / (1.0 + replicates_f),
        replicates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
    use crate::AuditConfig;
    use fairjob_marketplace::scoring::{RuleBasedScore, ScoringFunction};
    use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};

    #[test]
    fn designed_bias_is_significant() {
        let mut workers = generate_uniform(300, 21);
        bucketise_numeric_protected(&mut workers).unwrap();
        let scores = RuleBasedScore::f6(7).score_all(&workers).unwrap();
        let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
        let result = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
        let outcome = permutation_test(&ctx, &result.partitioning, 99, 3).unwrap();
        assert!(
            outcome.p_value <= 0.05,
            "f6 unfairness should be significant: {outcome:?}"
        );
        assert!(outcome.observed > outcome.null_mean);
    }

    #[test]
    fn random_scores_on_fixed_partitioning_are_not_significant() {
        let mut workers = generate_uniform(300, 22);
        bucketise_numeric_protected(&mut workers).unwrap();
        // Fixed two-way gender partitioning; scores are pure noise.
        let scores: Vec<f64> = {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(5);
            (0..workers.len()).map(|_| rng.gen()).collect()
        };
        let cfg = AuditConfig {
            attributes: Some(vec!["gender".into()]),
            ..Default::default()
        };
        let ctx = AuditContext::new(&workers, &scores, cfg).unwrap();
        let genders = ctx.split(&ctx.root(), 0).unwrap();
        let partitioning = Partitioning::new(genders);
        let outcome = permutation_test(&ctx, &partitioning, 99, 4).unwrap();
        assert!(
            outcome.p_value > 0.05,
            "noise should not look significant: {outcome:?}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let mut workers = generate_uniform(100, 23);
        bucketise_numeric_protected(&mut workers).unwrap();
        let scores = RuleBasedScore::f6(7).score_all(&workers).unwrap();
        let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
        let result = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
        let a = permutation_test(&ctx, &result.partitioning, 20, 9).unwrap();
        let b = permutation_test(&ctx, &result.partitioning, 20, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_replicates_degenerate_but_defined() {
        let mut workers = generate_uniform(50, 24);
        bucketise_numeric_protected(&mut workers).unwrap();
        let scores = RuleBasedScore::f6(7).score_all(&workers).unwrap();
        let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
        let result = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
        let outcome = permutation_test(&ctx, &result.partitioning, 0, 9).unwrap();
        assert_eq!(outcome.p_value, 1.0);
        assert_eq!(outcome.replicates, 0);
    }
}
