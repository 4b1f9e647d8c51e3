//! The most-unfair-partitioning search of *Exploring Fairness of Ranking
//! in Online Job Marketplaces* (EDBT 2019).
//!
//! Given a worker table, a score per worker and a set of protected
//! attributes, the **Most Unfair Partitioning Problem** (Definition 1)
//! asks for the full disjoint partitioning of the workers on their
//! protected attributes that maximises `unfairness(P, f)` — the average
//! pairwise Earth Mover's Distance between the per-partition score
//! histograms (Definition 2).
//!
//! The search space is exponential, so the paper proposes greedy
//! heuristics. This crate implements all of them plus the baselines and
//! reference searches:
//!
//! | Algorithm | Module | Paper role |
//! |---|---|---|
//! | `balanced` | [`algorithms::balanced`] | Algorithm 1 — split *all* leaves on the worst attribute each round |
//! | `unbalanced` | [`algorithms::unbalanced`] | Algorithm 2 — per-partition recursive split decision |
//! | `r-balanced`, `r-unbalanced` | same modules, random attribute choice | baselines |
//! | `all-attributes` | [`algorithms::all_attributes`] | baseline — full cartesian partitioning |
//! | `exhaustive` (tree & cell space) | [`algorithms::exhaustive`] | the brute force the paper reports as infeasible |
//! | `beam` | [`algorithms::beam`] | extension — beam search between greedy and exhaustive |
//!
//! The measure is pluggable ([`fairjob_hist::HistogramDistance`]) to
//! support the future-work ablation over JSD / KS / total variation / …,
//! [`stats`] adds a permutation significance test for observed
//! unfairness values, and [`exposure`] audits accumulated ranking
//! exposure instead of scores (Singh & Joachims, "Fairness of Exposure
//! in Rankings").
//!
//! # Example
//!
//! ```
//! use fairjob_core::{AuditConfig, AuditContext};
//! use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
//! use fairjob_marketplace::{generate_uniform, bucketise_numeric_protected};
//! use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
//!
//! let mut workers = generate_uniform(200, 42);
//! bucketise_numeric_protected(&mut workers).unwrap();
//! let scores = LinearScore::alpha("f1", 0.5).score_all(&workers).unwrap();
//! let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
//! let result = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
//! assert!(result.unfairness >= 0.0);
//! assert!(!result.partitioning.partitions().is_empty());
//! ```

pub mod algorithms;
pub mod context;
pub mod cube;
pub mod engine;
pub mod error;
pub mod exposure;
pub mod partition;
pub mod pool;
pub mod report;
pub mod scratch;
pub mod stats;
pub mod unfairness;

pub use context::{AuditConfig, AuditContext};
pub use cube::CellCube;
pub use engine::{
    CandidateScore, EngineCaches, EngineStats, EvalEngine, IncrementalEval, InvalidationReport,
    RowChange, RowFacts, SplitChildren,
};
pub use error::AuditError;
pub use partition::{Partition, Partitioning};
pub use report::AuditResult;
