//! The `all-attributes` baseline: split on every protected attribute,
//! producing the full cartesian partitioning (non-empty cells only).

use super::Algorithm;
use crate::engine::EvalEngine;
use crate::error::AuditError;
use crate::report::AuditResult;
use crate::AuditContext;
use std::time::Instant;

/// The `all-attributes` baseline of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct AllAttributes;

impl Algorithm for AllAttributes {
    fn name(&self) -> String {
        "all-attributes".to_string()
    }

    fn run(&self, ctx: &AuditContext<'_>) -> Result<AuditResult, AuditError> {
        let start = Instant::now();
        let cells = ctx.cells(ctx.attributes());
        let engine = EvalEngine::new(ctx);
        let unfairness = engine.unfairness(&cells)?;
        let partitioning = ctx.partitioning(&cells);
        Ok(AuditResult {
            algorithm: self.name(),
            partitioning,
            unfairness,
            elapsed: start.elapsed(),
            candidates_evaluated: 1,
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
    fn full_partitioning_of_the_toy_data() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let result = AllAttributes.run(&ctx).unwrap();
        result.partitioning.validate(t.len()).unwrap();
        // 2 genders x 3 languages, all cells non-empty in the toy data.
        assert_eq!(result.partitioning.len(), 6);
        // Every partition is constrained on both attributes.
        for p in result.partitioning.partitions() {
            assert_eq!(p.predicate.constraints().len(), 2);
        }
    }

    #[test]
    fn unfairness_is_recomputable() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let result = AllAttributes.run(&ctx).unwrap();
        let recomputed = ctx.unfairness(result.partitioning.partitions()).unwrap();
        assert!((recomputed - result.unfairness).abs() < 1e-12);
    }
}
