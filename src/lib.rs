//! # fairjob — Exploring Fairness of Ranking in Online Job Marketplaces
//!
//! Facade crate re-exporting the whole workspace. See the individual
//! crates for details:
//!
//! * [`emd`] — Earth Mover's Distance solvers.
//! * [`hist`] — histograms and histogram distances.
//! * [`store`] — the columnar worker store.
//! * [`marketplace`] — the crowdsourcing-platform simulation.
//! * [`core`] — the most-unfair-partitioning search (the paper's
//!   contribution).
//! * [`repair`] — bias repair (quantile alignment and quota re-ranking).
//!
//! # End-to-end example
//!
//! ```
//! use fairjob::core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
//! use fairjob::core::{AuditConfig, AuditContext};
//! use fairjob::marketplace::scoring::{RuleBasedScore, ScoringFunction};
//! use fairjob::marketplace::{bucketise_numeric_protected, generate_uniform};
//! use fairjob::repair::{repair_scores, RepairConfig, RepairTarget};
//!
//! // 1. A simulated worker population (the paper's AMT-like schema).
//! let mut workers = generate_uniform(300, 42);
//! bucketise_numeric_protected(&mut workers)?;
//!
//! // 2. A scoring function that discriminates by design (f6).
//! let scores = RuleBasedScore::f6(7).score_all(&workers)?;
//!
//! // 3. Audit: find the most-unfair partitioning.
//! let ctx = AuditContext::new(&workers, &scores, AuditConfig::default())?;
//! let audit = Balanced::new(AttributeChoice::Worst).run(&ctx)?;
//! assert!(audit.unfairness > 0.7, "f6 separates genders by ~0.8");
//!
//! // 4. Repair: quantile-align the groups the audit found.
//! let groups: Vec<_> = audit.partitioning.partitions().iter().map(|p| p.rows().clone()).collect();
//! let repaired = repair_scores(
//!     &scores,
//!     &groups,
//!     &RepairConfig { lambda: 1.0, target: RepairTarget::Median },
//! )?;
//!
//! // 5. The audited partitioning is now fair.
//! let rctx = AuditContext::new(&workers, &repaired, AuditConfig::default())?;
//! let parts: Vec<_> = groups
//!     .iter()
//!     .map(|g| rctx.partition(fairjob::store::Predicate::always(), g.clone()))
//!     .collect();
//! assert!(rctx.unfairness(&parts)? < 0.05);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use fairjob_core as core;
pub use fairjob_emd as emd;
pub use fairjob_hist as hist;
pub use fairjob_marketplace as marketplace;
pub use fairjob_repair as repair;
pub use fairjob_serve as serve;
pub use fairjob_store as store;
pub use fairjob_stream as stream;
