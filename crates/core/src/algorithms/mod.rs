//! The partitioning-search algorithms.
//!
//! All algorithms implement [`Algorithm`] and share the attribute-choice
//! abstraction: the paper's heuristics split on the **worst** attribute
//! (the one whose split maximises average pairwise EMD) while the
//! `r-balanced` / `r-unbalanced` baselines pick uniformly at random.

pub mod all_attributes;
pub mod balanced;
pub mod beam;
pub mod exhaustive;
pub mod subsets;
pub mod unbalanced;

use crate::engine::{CandidateScore, EvalEngine, IncrementalEval, Replacements, SplitChildren};
use crate::error::AuditError;
use crate::report::AuditResult;
use crate::AuditContext;
use std::sync::Arc;

/// How a heuristic picks its next split attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttributeChoice {
    /// The paper's `worstAttribute`: try every remaining attribute and
    /// keep the one whose split yields the highest average pairwise
    /// distance.
    Worst,
    /// Uniform random choice among the remaining attributes (the
    /// `r-balanced` / `r-unbalanced` baselines). Deterministic in the
    /// seed.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// A partitioning-search algorithm.
pub trait Algorithm {
    /// Stable name used in result tables (`"balanced"`, `"r-unbalanced"`,
    /// …).
    fn name(&self) -> String;

    /// Run the search over `ctx` and return the partitioning found.
    ///
    /// # Errors
    ///
    /// [`AuditError`] from distance evaluation, or
    /// [`AuditError::BudgetExceeded`] for budgeted exhaustive searches.
    fn run(&self, ctx: &AuditContext<'_>) -> Result<AuditResult, AuditError>;
}

/// The paper's five-way comparison: `unbalanced`, `r-unbalanced`,
/// `balanced`, `r-balanced`, `all-attributes` (the row order of
/// Tables 1–3). Random variants use `seed`.
pub fn paper_algorithms(seed: u64) -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(unbalanced::Unbalanced::new(AttributeChoice::Worst)),
        Box::new(unbalanced::Unbalanced::new(AttributeChoice::Random {
            seed,
        })),
        Box::new(balanced::Balanced::new(AttributeChoice::Worst)),
        Box::new(balanced::Balanced::new(AttributeChoice::Random {
            seed: seed.wrapping_add(1),
        })),
        Box::new(all_attributes::AllAttributes),
    ]
}

/// Resolve an algorithm by its short CLI/query name (`balanced`,
/// `r-balanced`, `unbalanced`, `r-unbalanced`, `all-attributes`,
/// `subset-exact`). Random variants are seeded with `seed`; `None`
/// means the name is unknown.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Algorithm + Send + Sync>> {
    Some(match name {
        "balanced" => Box::new(balanced::Balanced::new(AttributeChoice::Worst)),
        "r-balanced" => Box::new(balanced::Balanced::new(AttributeChoice::Random { seed })),
        "unbalanced" => Box::new(unbalanced::Unbalanced::new(AttributeChoice::Worst)),
        "r-unbalanced" => Box::new(unbalanced::Unbalanced::new(AttributeChoice::Random {
            seed,
        })),
        "all-attributes" => Box::new(all_attributes::AllAttributes),
        "subset-exact" => Box::new(subsets::SubsetExact::default()),
        _ => return None,
    })
}

/// The names [`by_name`] accepts, for error messages.
pub const ALGORITHM_NAMES: &[&str] = &[
    "balanced",
    "r-balanced",
    "unbalanced",
    "r-unbalanced",
    "all-attributes",
    "subset-exact",
];

/// Per-partition candidate splits: `(partition index, children)` pairs,
/// indexed ascending. Children are shared out of the engine's split
/// cache, never cloned.
type Splits = Vec<(usize, SplitChildren)>;

/// The outcome of [`choose_attribute`]: the winning attribute and the
/// partitioning obtained by splitting every splittable partition by it
/// (already split — callers must not re-split).
pub(crate) struct ChosenSplit {
    /// The chosen attribute.
    pub attr: usize,
    /// `parts` with every partition the attribute can split replaced by
    /// its children (unsplittable partitions kept whole, shared).
    pub parts: Vec<Arc<crate::Partition>>,
}

/// Internal helper: pick an attribute from `remaining` for splitting the
/// given partitions, under `choice`. Returns `None` when no remaining
/// attribute can split anything.
///
/// Candidates come from one [`EvalEngine::split_batch`] over
/// `remaining × parts`: splits seen in an earlier round come straight
/// from the split cache, the rest group the partitions' cube cells, and
/// losing candidates stay cached for the next round.
///
/// For [`AttributeChoice::Worst`] the attribute whose split yields the
/// highest average pairwise distance wins (ties: first), decided in up
/// to three steps, each giving the winner of the one before:
///
/// 1. **One viable candidate** wins unscored, whatever the metric.
/// 2. **Column screen** — when the distance has an L1 form
///    ([`fairjob_hist::HistogramDistance::l1_form`]: `emd`, `tv`), every
///    candidate partitioning is scored from sorted per-bin columns
///    ([`EvalEngine::column_winner`]) with no pair distance, memo lookup
///    or bound; a candidate within [`crate::unfairness::PRUNE_MARGIN`]
///    of the best alone wins outright.
/// 3. **Exact delta scoring** — otherwise (no L1 form, or two or more
///    candidates that close) the candidates are scored in order by
///    [`IncrementalEval`] seeded once with `parts`: replacing the split
///    partitions by their children costs O(k · changed) distance lookups
///    per candidate through `engine`'s memo. Scoring is branch-and-bound:
///    each candidate after the first is screened against the best value
///    so far ([`IncrementalEval::score_replacements_bounded`]) and
///    abandoned before any exact distance solve when its upper bound
///    shows it cannot win.
///
/// Every step returns the winner, bit for bit, that step 3 alone would
/// return. `evaluations` is incremented once per candidate considered,
/// whichever step decides. [`AttributeChoice::Random`] draws from its
/// RNG even when only one candidate is viable.
pub(crate) fn choose_attribute(
    engine: &EvalEngine<'_, '_>,
    parts: &[Arc<crate::Partition>],
    remaining: &[usize],
    choice: AttributeChoice,
    rng: &mut Option<rand::rngs::StdRng>,
    evaluations: &mut usize,
) -> Result<Option<ChosenSplit>, AuditError> {
    use rand::Rng;
    let requests: Vec<(&crate::Partition, usize)> = remaining
        .iter()
        .flat_map(|&a| parts.iter().map(move |p| (p.as_ref(), a)))
        .collect();
    let results = engine.split_batch(&requests);
    // An attribute is viable if it can split at least one partition.
    let mut candidates: Vec<(usize, Splits)> = Vec::new();
    for (ai, &a) in remaining.iter().enumerate() {
        let splits: Splits = (0..parts.len())
            .filter_map(|i| {
                results[ai * parts.len() + i]
                    .clone()
                    .map(|children| (i, children))
            })
            .collect();
        if !splits.is_empty() {
            candidates.push((a, splits));
        }
    }
    if candidates.is_empty() {
        return Ok(None);
    }
    let winner = match choice {
        AttributeChoice::Random { .. } => {
            let rng = rng.as_mut().expect("random choice carries an RNG");
            rng.gen_range(0..candidates.len())
        }
        AttributeChoice::Worst => {
            *evaluations += candidates.len();
            if candidates.len() == 1 {
                0
            } else {
                let replacements: Vec<Replacements<'_>> = candidates
                    .iter()
                    .map(|(_, splits)| {
                        splits
                            .iter()
                            .map(|(i, children)| (*i, children.as_slice()))
                            .collect()
                    })
                    .collect();
                match engine.column_winner(parts, &replacements) {
                    Some(winner) => winner,
                    None => exact_winner(engine, parts, &replacements)?,
                }
            }
        }
    };
    let (attr, splits) = candidates.swap_remove(winner);
    Ok(Some(ChosenSplit {
        attr,
        parts: materialise(parts, &splits),
    }))
}

/// The index of the candidate whose replacements give the highest
/// average pairwise distance over `parts` (ties: first), scored in order
/// by branch-and-bound delta evaluation.
fn exact_winner(
    engine: &EvalEngine<'_, '_>,
    parts: &[Arc<crate::Partition>],
    candidates: &[Replacements<'_>],
) -> Result<usize, AuditError> {
    let mut incremental = IncrementalEval::new(engine, parts)?;
    let mut best: Option<(usize, f64)> = None;
    for (index, replacements) in candidates.iter().enumerate() {
        let incumbent = best.map(|(_, b)| b);
        let score = incremental.score_replacements_bounded(replacements, incumbent)?;
        if let CandidateScore::Exact(value) = score {
            if best.is_none_or(|(_, b)| value > b) {
                best = Some((index, value));
            }
        }
    }
    Ok(best.expect("candidates is non-empty").0)
}

/// `parts` with each `(index, children)` substitution applied in order
/// (splits are indexed ascending by construction). Everything is shared:
/// untouched partitions and children alike are `Arc` clones.
fn materialise(parts: &[Arc<crate::Partition>], splits: &Splits) -> Vec<Arc<crate::Partition>> {
    let mut out = Vec::with_capacity(parts.len() + splits.len());
    let mut next = 0;
    for (i, p) in parts.iter().enumerate() {
        if next < splits.len() && splits[next].0 == i {
            out.extend(splits[next].1.iter().cloned());
            next += 1;
        } else {
            out.push(Arc::clone(p));
        }
    }
    out
}
