//! Error type for the audit layer.

use std::fmt;

/// Errors raised while configuring or running an audit.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// The score vector length differs from the table length.
    ScoreLength {
        /// Number of rows in the table.
        rows: usize,
        /// Number of scores supplied.
        scores: usize,
    },
    /// A score is NaN/infinite or outside `[0, 1]`.
    BadScore {
        /// Row of the offending score.
        row: usize,
        /// The offending value.
        value: f64,
    },
    /// The audit was configured with no splittable attributes.
    NoAttributes,
    /// A configured attribute name is unknown or not categorical
    /// protected.
    BadAttribute {
        /// The attribute name.
        name: String,
        /// Why it cannot be used.
        reason: &'static str,
    },
    /// The table has no rows.
    EmptyTable,
    /// Underlying store failure.
    Store(fairjob_store::StoreError),
    /// Underlying histogram-distance failure.
    Distance(fairjob_hist::DistanceError),
    /// Histogram bin construction failed.
    Bins(String),
    /// Exhaustive search exceeded its enumeration budget.
    BudgetExceeded {
        /// The configured budget (number of candidate partitionings).
        budget: usize,
    },
    /// The operation needs the raw score vector, which a paged
    /// out-of-core context does not hold (the permutation test shuffles
    /// it; every search runs on the derived columns).
    OutOfCore {
        /// What was attempted.
        what: &'static str,
    },
    /// Reading the paged store failed (I/O or a corrupt page file).
    Paged(String),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::ScoreLength { rows, scores } => {
                write!(f, "table has {rows} rows but {scores} scores were supplied")
            }
            AuditError::BadScore { row, value } => {
                write!(f, "score {value} at row {row} is not in [0, 1]")
            }
            AuditError::NoAttributes => write!(f, "no splittable protected attributes"),
            AuditError::BadAttribute { name, reason } => {
                write!(f, "attribute `{name}` cannot be audited: {reason}")
            }
            AuditError::EmptyTable => write!(f, "worker table is empty"),
            AuditError::Store(e) => write!(f, "store: {e}"),
            AuditError::Distance(e) => write!(f, "distance: {e}"),
            AuditError::Bins(reason) => write!(f, "bins: {reason}"),
            AuditError::BudgetExceeded { budget } => {
                write!(
                    f,
                    "exhaustive search exceeded its budget of {budget} partitionings"
                )
            }
            AuditError::OutOfCore { what } => {
                write!(
                    f,
                    "{what} needs in-memory data; materialize the paged store first \
                     (e.g. restart from the snapshot without --mem-budget)"
                )
            }
            AuditError::Paged(reason) => write!(f, "paged store: {reason}"),
        }
    }
}

impl std::error::Error for AuditError {}

impl From<fairjob_store::StoreError> for AuditError {
    fn from(e: fairjob_store::StoreError) -> Self {
        AuditError::Store(e)
    }
}

impl From<fairjob_hist::DistanceError> for AuditError {
    fn from(e: fairjob_hist::DistanceError) -> Self {
        AuditError::Distance(e)
    }
}

impl From<fairjob_store::paged::PagedError> for AuditError {
    fn from(e: fairjob_store::paged::PagedError) -> Self {
        AuditError::Paged(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AuditError::ScoreLength {
            rows: 10,
            scores: 9,
        };
        assert!(e.to_string().contains("10") && e.to_string().contains('9'));
        let e = AuditError::BudgetExceeded { budget: 100 };
        assert!(e.to_string().contains("100"));
    }
}
