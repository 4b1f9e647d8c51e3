//! Beam search over split trees (extension).
//!
//! The paper's `balanced` is a beam of width 1 over *global* splits:
//! each round commits to the single worst attribute. Beam search keeps
//! the `width` best partitionings per round instead, interpolating
//! between the greedy heuristics and the exhaustive search at a
//! predictable `width ×` cost factor. Used in the ablation bench to ask
//! how much the greedy commitment loses.

use super::Algorithm;
use crate::engine::EvalEngine;
use crate::error::AuditError;
use crate::partition::Partition;
use crate::report::AuditResult;
use crate::AuditContext;
use std::sync::Arc;
use std::time::Instant;

/// Balanced-style beam search with configurable width.
#[derive(Debug, Clone, Copy)]
pub struct Beam {
    /// How many candidate partitionings survive each round.
    pub width: usize,
}

impl Beam {
    /// Beam search of the given width (width 1 ≈ `balanced` without its
    /// early stop).
    pub fn new(width: usize) -> Self {
        Beam {
            width: width.max(1),
        }
    }
}

/// One beam state: the current partitioning (shared — beam rounds clone
/// `Arc`s, not partitions), its value, and the attributes still unused
/// on it.
struct State {
    parts: Vec<Arc<Partition>>,
    value: f64,
    remaining: Vec<usize>,
}

impl Algorithm for Beam {
    fn name(&self) -> String {
        format!("beam-{}", self.width)
    }

    fn run(&self, ctx: &AuditContext<'_>) -> Result<AuditResult, AuditError> {
        let start = Instant::now();
        // Beam states overlap heavily (same round, different attribute
        // orders reach the same predicates), so the shared memo cache
        // collapses most of the width × attrs evaluations to lookups.
        let engine = EvalEngine::new(ctx);
        let mut evaluations = 0usize;
        let root = State {
            parts: vec![Arc::new(ctx.root())],
            value: 0.0,
            remaining: ctx.attributes().to_vec(),
        };
        let mut best: (Vec<Arc<Partition>>, f64) = (root.parts.clone(), root.value);
        let mut beam: Vec<State> = vec![root];

        loop {
            let mut candidates: Vec<State> = Vec::new();
            for state in &beam {
                for &a in &state.remaining {
                    let parts = engine.split_all(&state.parts, a);
                    if parts.len() == state.parts.len() {
                        continue; // nothing split
                    }
                    let value = engine.unfairness(&parts)?;
                    evaluations += 1;
                    candidates.push(State {
                        parts,
                        value,
                        remaining: state
                            .remaining
                            .iter()
                            .copied()
                            .filter(|&x| x != a)
                            .collect(),
                    });
                }
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|x, y| y.value.partial_cmp(&x.value).expect("finite values"));
            candidates.truncate(self.width);
            if candidates[0].value > best.1 {
                best = (candidates[0].parts.clone(), candidates[0].value);
            }
            beam = candidates;
        }

        Ok(AuditResult {
            algorithm: self.name(),
            partitioning: ctx.partitioning(&best.0),
            unfairness: best.1,
            elapsed: start.elapsed(),
            candidates_evaluated: evaluations,
            engine: engine.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive::ExhaustiveTree;
    use crate::AuditConfig;
    use fairjob_marketplace::toy::toy_workers;

    #[test]
    fn beam_output_is_valid() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let result = Beam::new(2).run(&ctx).unwrap();
        result.partitioning.validate(t.len()).unwrap();
        assert_eq!(result.algorithm, "beam-2");
    }

    #[test]
    fn wider_beams_never_do_worse_on_the_toy() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let b1 = Beam::new(1).run(&ctx).unwrap();
        let b4 = Beam::new(4).run(&ctx).unwrap();
        assert!(b4.unfairness >= b1.unfairness - 1e-12);
    }

    #[test]
    fn beam_cannot_beat_exhaustive_balanced_space_note() {
        // Beam explores balanced trees only, so it is bounded by the
        // full tree-space optimum.
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let beam = Beam::new(8).run(&ctx).unwrap();
        let exhaustive = ExhaustiveTree::new(10_000).run(&ctx).unwrap();
        assert!(beam.unfairness <= exhaustive.unfairness + 1e-12);
    }

    #[test]
    fn width_zero_clamps_to_one() {
        assert_eq!(Beam::new(0).width, 1);
    }
}
