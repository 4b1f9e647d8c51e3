//! FairQL: a small SQL-ish query language over fairness audits.
//!
//! The paper frames auditing as an exploratory workload — "find the
//! partitioning of ranked workers that maximises unfairness" — and
//! this crate gives that workload a declarative surface:
//!
//! ```text
//! AUDIT workers WHERE country = 'America'
//!     PROTECT gender, country USING unbalanced METRIC emd-exact;
//! SELECT gender, COUNT(*), MEAN(approval_rate) FROM workers GROUP BY gender;
//! DESCRIBE;
//! EXPLAIN ANALYZE AUDIT workers;
//! ```
//!
//! The classic pipeline runs in full: [`lex`] → [`ast`] → [`mod@parse`] →
//! [`analyze`] (name/type resolution against the store schema,
//! protected-attribute validation) → [`logical`] plan → [`physical`]
//! plan → execution via a [`Session`]. The physical planner compiles
//! `WHERE` conjunctions to inverted-index posting intersections
//! (predicate pushdown), keeps audit attribute order canonical so the
//! evaluation engine's split cache hits across statements, and selects
//! the bound screen (`emd::bounds`) that runs before exact distance
//! solves. `EXPLAIN` prints the plan tree with cost estimates;
//! `EXPLAIN ANALYZE` executes and re-prints it annotated with the
//! actual [`fairjob_core::EngineStats`] counters per node.
//!
//! Audits execute through the same entry points as direct
//! `fairjob audit` / serve `AUDIT` runs, so an unfiltered
//! `AUDIT workers` is bit-identical to the direct run — same
//! `unfairness` bits, same engine counters. `DESCRIBE` reports
//! whole-table statistics (for snapshot sources this includes
//! tombstoned rows; audits and `SELECT` see only live rows).

pub mod analyze;
pub mod ast;
pub mod error;
pub mod lex;
pub mod logical;
pub mod parse;
pub mod physical;
pub mod result;
pub mod session;

pub use analyze::{analyze as analyze_statement, Analyzed};
pub use ast::Statement;
pub use error::QueryError;
pub use parse::parse;
pub use physical::{PhysicalPlan, PlannerOptions};
pub use result::{AuditSummary, QueryOutput, QueryResult, Value};
pub use session::{Defaults, Session, Source, WarmCache};
