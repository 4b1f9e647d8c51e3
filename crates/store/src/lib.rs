//! Columnar in-memory store for worker populations.
//!
//! The fairness-audit algorithms repeatedly split sets of workers by the
//! values of protected attributes and histogram the scores of each
//! resulting group. This crate supplies the data layer that makes that
//! fast and safe:
//!
//! * [`schema`] — typed attribute schemas distinguishing **protected**
//!   attributes (gender, country, …: what groups may be defined on) from
//!   **observed** attributes (skills: what scoring functions may read) —
//!   the distinction at the heart of the paper's problem definition.
//! * [`table`] + [`mod@column`] — dictionary-encoded categorical columns and
//!   plain numeric/integer columns over a row-aligned table.
//! * [`rowset`] — sorted row-id sets: the representation of a partition.
//! * [`predicate`] — conjunctions of `attribute = value` constraints (the
//!   description of a partition in an attribute-split tree).
//! * [`index`] — per-column inverted indexes for O(|result|) splits.
//! * [`groupby`] — split a row set by a categorical attribute.
//! * [`bucketize`] — derive categorical columns from numeric ones (year
//!   of birth → age bands etc.), since only categorical attributes can be
//!   split on.
//! * [`paged`] — out-of-core paged columnar format with zone maps and a
//!   budgeted buffer manager, for audits beyond RAM and fast snapshot
//!   restarts.
//! * [`csv`] — dependency-free CSV import/export for persistence.
//!
//! # Example
//!
//! ```
//! use fairjob_store::schema::{AttributeKind, Schema};
//! use fairjob_store::table::{Table, Value};
//!
//! let schema = Schema::builder()
//!     .categorical("gender", AttributeKind::Protected, &["Male", "Female"])
//!     .numeric("approval", AttributeKind::Observed, 0.0, 100.0)
//!     .build()
//!     .unwrap();
//! let mut t = Table::new(schema);
//! t.push_row(&[Value::cat("Male"), Value::num(88.0)]).unwrap();
//! t.push_row(&[Value::cat("Female"), Value::num(93.5)]).unwrap();
//! assert_eq!(t.len(), 2);
//! ```

pub mod bitmap;
pub mod bucketize;
pub mod column;
pub mod csv;
pub mod error;
pub mod groupby;
pub mod index;
pub mod paged;
pub mod predicate;
pub mod rowset;
pub mod schema;
pub mod schema_text;
pub mod stats;
pub mod table;

pub use error::StoreError;
pub use paged::{BufferManager, PageCacheStats, PageCounters, PagedError, PagedStore};
pub use predicate::{EqConstraint, Predicate};
pub use rowset::RowSet;
pub use schema::{AttributeDef, AttributeKind, DataType, Schema};
pub use table::{Table, Value};
