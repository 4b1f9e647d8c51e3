//! The FairQL analyzer: name/type resolution against [`Schema`].
//!
//! Everything the analyzer rejects is a *parse-class* error
//! ([`QueryError::Parse`] with a byte offset): unknown tables and
//! columns, non-categorical `WHERE` columns, values outside a domain,
//! non-protected `PROTECT` attributes, unknown algorithm/metric names.
//! Execution never sees an unresolved name.

use crate::ast::{Condition, SelectItem, Statement};
use crate::error::QueryError;
use fairjob_hist::bins::MAX_BINS;
use fairjob_store::schema::{AttributeKind, DataType, Schema};
use fairjob_store::Predicate;

/// The one table a FairQL session exposes.
pub const TABLE_NAME: &str = "workers";

/// A resolved projection item (columns by schema index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutItem {
    /// A plain column.
    Column(usize),
    /// `COUNT(*)`.
    Count,
    /// `MEAN(col)`.
    Mean(usize),
    /// `MIN(col)`.
    Min(usize),
    /// `MAX(col)`.
    Max(usize),
}

impl OutItem {
    /// The output column header for this item against `schema`.
    pub fn header(&self, schema: &Schema) -> String {
        let name = |idx: &usize| schema.attribute(*idx).name.clone();
        match self {
            OutItem::Column(i) => name(i),
            OutItem::Count => "count".to_string(),
            OutItem::Mean(i) => format!("mean({})", name(i)),
            OutItem::Min(i) => format!("min({})", name(i)),
            OutItem::Max(i) => format!("max({})", name(i)),
        }
    }
}

/// A resolved `AUDIT`.
#[derive(Debug, Clone)]
pub struct AnalyzedAudit {
    /// The compiled `WHERE` conjunction (⊤ when absent).
    pub filter: Predicate,
    /// `PROTECT` names in user order; `None` means every splittable
    /// protected attribute in schema order — kept as `None` so the
    /// audit config is indistinguishable from a direct
    /// [`fairjob_core::AuditConfig`] run with default attributes.
    pub attributes: Option<Vec<String>>,
    /// The schema indexes the audit will actually split on (resolved
    /// from `attributes`, used for plan cost estimates).
    pub attr_indexes: Vec<usize>,
    /// `USING` algorithm name (session default when `None`).
    pub algorithm: Option<String>,
    /// `METRIC` distance name (session default when `None`).
    pub metric: Option<String>,
    /// `BINS` override (session default when `None`).
    pub bins: Option<usize>,
}

/// A resolved `SELECT`.
#[derive(Debug, Clone)]
pub struct AnalyzedSelect {
    /// Projection items (`*` already expanded to every column).
    pub items: Vec<OutItem>,
    /// The compiled `WHERE` conjunction (⊤ when absent).
    pub filter: Predicate,
    /// `GROUP BY` column index (categorical).
    pub group_by: Option<usize>,
    /// `LIMIT` row cap.
    pub limit: Option<usize>,
}

/// A resolved statement.
#[derive(Debug, Clone)]
pub enum Analyzed {
    /// An audit.
    Audit(AnalyzedAudit),
    /// A row query.
    Select(AnalyzedSelect),
    /// `DESCRIBE [column index]`.
    Describe(Option<usize>),
    /// `EXPLAIN [ANALYZE] <inner>`.
    Explain {
        /// Execute and annotate with actuals.
        analyze: bool,
        /// The explained statement.
        inner: Box<Analyzed>,
    },
}

/// Resolve one statement against `schema`.
///
/// # Errors
///
/// [`QueryError::Parse`] for every resolution failure, positioned at
/// the offending token.
pub fn analyze(stmt: &Statement, schema: &Schema) -> Result<Analyzed, QueryError> {
    match stmt {
        Statement::Audit(a) => {
            check_table(&a.source)?;
            let filter = compile_filter(&a.filter, schema)?;
            let splittable = schema.splittable();
            let (attributes, attr_indexes) = if a.protect.is_empty() {
                (None, splittable)
            } else {
                let mut names = Vec::with_capacity(a.protect.len());
                let mut indexes = Vec::with_capacity(a.protect.len());
                for ident in &a.protect {
                    let idx = resolve_column(schema, &ident.text, ident.at)?;
                    let def = schema.attribute(idx);
                    if def.kind != AttributeKind::Protected
                        || !matches!(def.dtype, DataType::Categorical { .. })
                    {
                        return Err(QueryError::parse(
                            ident.at,
                            format!(
                                "`{}` is not a splittable protected attribute (PROTECT accepts: {})",
                                ident.text,
                                splittable
                                    .iter()
                                    .map(|&i| schema.attribute(i).name.as_str())
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        ));
                    }
                    if indexes.contains(&idx) {
                        return Err(QueryError::parse(
                            ident.at,
                            format!("duplicate protected attribute `{}`", ident.text),
                        ));
                    }
                    names.push(ident.text.clone());
                    indexes.push(idx);
                }
                (Some(names), indexes)
            };
            if let Some(name) = &a.algorithm {
                if !fairjob_core::algorithms::ALGORITHM_NAMES.contains(&name.text.as_str()) {
                    return Err(QueryError::parse(
                        name.at,
                        format!(
                            "unknown algorithm `{}` ({})",
                            name.text,
                            fairjob_core::algorithms::ALGORITHM_NAMES.join(" | ")
                        ),
                    ));
                }
            }
            if let Some(name) = &a.metric {
                if !fairjob_hist::distance::METRIC_NAMES.contains(&name.text.as_str()) {
                    return Err(QueryError::parse(
                        name.at,
                        format!(
                            "unknown metric `{}` ({})",
                            name.text,
                            fairjob_hist::distance::METRIC_NAMES.join(" | ")
                        ),
                    ));
                }
            }
            if a.bins == Some(0) {
                return Err(QueryError::parse(0, "BINS must be at least 1"));
            }
            if a.bins.is_some_and(|bins| bins > MAX_BINS) {
                return Err(QueryError::parse(
                    0,
                    format!("BINS must be at most {MAX_BINS}"),
                ));
            }
            Ok(Analyzed::Audit(AnalyzedAudit {
                filter,
                attributes,
                attr_indexes,
                algorithm: a.algorithm.as_ref().map(|i| i.text.clone()),
                metric: a.metric.as_ref().map(|i| i.text.clone()),
                bins: a.bins,
            }))
        }
        Statement::Select(s) => {
            check_table(&s.from)?;
            let filter = compile_filter(&s.filter, schema)?;
            let group_by = match &s.group_by {
                Some(g) => {
                    let idx = resolve_column(schema, &g.text, g.at)?;
                    if !matches!(schema.attribute(idx).dtype, DataType::Categorical { .. }) {
                        return Err(QueryError::parse(
                            g.at,
                            format!("GROUP BY column `{}` must be categorical", g.text),
                        ));
                    }
                    Some(idx)
                }
                None => None,
            };
            let mut items = Vec::new();
            let mut has_aggregate = false;
            let mut has_plain = false;
            for item in &s.items {
                match item {
                    SelectItem::Star => {
                        if group_by.is_some() {
                            return Err(QueryError::parse(
                                s.from.at,
                                "`*` cannot be combined with GROUP BY",
                            ));
                        }
                        has_plain = true;
                        items.extend((0..schema.width()).map(OutItem::Column));
                    }
                    SelectItem::Column(c) => {
                        let idx = resolve_column(schema, &c.text, c.at)?;
                        if let Some(g) = group_by {
                            if idx != g {
                                return Err(QueryError::parse(
                                    c.at,
                                    format!(
                                        "column `{}` must appear in GROUP BY or an aggregate",
                                        c.text
                                    ),
                                ));
                            }
                        }
                        has_plain = true;
                        items.push(OutItem::Column(idx));
                    }
                    SelectItem::Count => {
                        has_aggregate = true;
                        items.push(OutItem::Count);
                    }
                    SelectItem::Mean(c) | SelectItem::Min(c) | SelectItem::Max(c) => {
                        let idx = resolve_column(schema, &c.text, c.at)?;
                        if matches!(schema.attribute(idx).dtype, DataType::Categorical { .. }) {
                            return Err(QueryError::parse(
                                c.at,
                                format!("aggregate over categorical column `{}`", c.text),
                            ));
                        }
                        has_aggregate = true;
                        items.push(match item {
                            SelectItem::Mean(_) => OutItem::Mean(idx),
                            SelectItem::Min(_) => OutItem::Min(idx),
                            _ => OutItem::Max(idx),
                        });
                    }
                }
            }
            if group_by.is_none() && has_aggregate && has_plain {
                return Err(QueryError::parse(
                    s.from.at,
                    "cannot mix plain columns and aggregates without GROUP BY",
                ));
            }
            Ok(Analyzed::Select(AnalyzedSelect {
                items,
                filter,
                group_by,
                limit: s.limit,
            }))
        }
        Statement::Describe(column) => {
            let idx = match column {
                Some(c) => Some(resolve_column(schema, &c.text, c.at)?),
                None => None,
            };
            Ok(Analyzed::Describe(idx))
        }
        Statement::Explain { analyze: a, inner } => Ok(Analyzed::Explain {
            analyze: *a,
            inner: Box::new(analyze(inner, schema)?),
        }),
    }
}

fn check_table(source: &crate::ast::Ident) -> Result<(), QueryError> {
    if source.text == TABLE_NAME {
        Ok(())
    } else {
        Err(QueryError::parse(
            source.at,
            format!(
                "unknown table `{}` (the session exposes `{TABLE_NAME}`)",
                source.text
            ),
        ))
    }
}

fn resolve_column(schema: &Schema, name: &str, at: usize) -> Result<usize, QueryError> {
    schema
        .index_of(name)
        .map_err(|_| QueryError::parse(at, format!("unknown column `{name}`")))
}

/// Compile a `WHERE` conjunction into a [`Predicate`]. Exact duplicate
/// constraints are dropped; contradictory ones (same attribute, two
/// different values) are rejected — the query could only ever return
/// nothing, which is always a mistake.
fn compile_filter(conditions: &[Condition], schema: &Schema) -> Result<Predicate, QueryError> {
    let mut predicate = Predicate::always();
    for cond in conditions {
        let idx = resolve_column(schema, &cond.attr.text, cond.attr.at)?;
        let def = schema.attribute(idx);
        if !matches!(def.dtype, DataType::Categorical { .. }) {
            return Err(QueryError::parse(
                cond.attr.at,
                format!(
                    "WHERE supports equality on categorical columns only; `{}` is {}",
                    cond.attr.text,
                    def.dtype.type_name()
                ),
            ));
        }
        let code = def.code_of(&cond.value).map_err(|_| {
            QueryError::parse(
                cond.value_at,
                format!(
                    "no value `{}` in the domain of `{}`",
                    cond.value, cond.attr.text
                ),
            )
        })?;
        if predicate
            .constraints()
            .iter()
            .any(|c| c.attr == idx && c.code == code)
        {
            continue;
        }
        if predicate.constrains(idx) {
            return Err(QueryError::parse(
                cond.value_at,
                format!(
                    "contradictory constraint on `{}` (already fixed to a different value)",
                    cond.attr.text
                ),
            ));
        }
        predicate = predicate.and(idx, code);
    }
    Ok(predicate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use fairjob_store::schema::Schema;

    fn schema() -> Schema {
        Schema::builder()
            .categorical("gender", AttributeKind::Protected, &["Male", "Female"])
            .categorical(
                "country",
                AttributeKind::Protected,
                &["America", "India", "Other"],
            )
            .numeric("approval_rate", AttributeKind::Observed, 0.0, 100.0)
            .build()
            .unwrap()
    }

    fn check(text: &str) -> Result<Analyzed, QueryError> {
        analyze(&parse(text).unwrap()[0], &schema())
    }

    #[test]
    fn resolves_filter_and_protect() {
        let Analyzed::Audit(a) =
            check("AUDIT workers WHERE country = 'India' PROTECT gender").unwrap()
        else {
            panic!("not an audit")
        };
        assert_eq!(a.filter.constraints().len(), 1);
        assert_eq!(a.attributes, Some(vec!["gender".to_string()]));
        assert_eq!(a.attr_indexes, vec![0]);
    }

    #[test]
    fn no_protect_means_all_splittable_but_stays_none() {
        let Analyzed::Audit(a) = check("AUDIT workers").unwrap() else {
            panic!("not an audit")
        };
        assert_eq!(a.attributes, None);
        assert_eq!(a.attr_indexes, vec![0, 1]);
    }

    #[test]
    fn unknown_table_and_column_are_parse_errors() {
        assert!(matches!(
            check("AUDIT jobs"),
            Err(QueryError::Parse { offset: 6, .. })
        ));
        assert!(matches!(
            check("AUDIT workers WHERE nope = 'x'"),
            Err(QueryError::Parse { offset: 20, .. })
        ));
    }

    #[test]
    fn domain_violation_points_at_value() {
        let err = check("AUDIT workers WHERE gender = 'Robot'").unwrap_err();
        assert!(
            matches!(err, QueryError::Parse { offset: 29, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn protect_rejects_observed_columns() {
        assert!(check("AUDIT workers PROTECT approval_rate").is_err());
    }

    #[test]
    fn contradictory_filter_rejected_duplicates_dropped() {
        assert!(check("AUDIT workers WHERE gender = 'Male' AND gender = 'Female'").is_err());
        let Analyzed::Audit(a) =
            check("AUDIT workers WHERE gender = 'Male' AND gender = 'Male'").unwrap()
        else {
            panic!("not an audit")
        };
        assert_eq!(a.filter.constraints().len(), 1);
    }

    #[test]
    fn bins_are_bounded() {
        assert!(check("AUDIT workers BINS 0").is_err());
        assert!(check("AUDIT workers BINS 4096").is_ok());
        assert!(matches!(
            check("AUDIT workers BINS 4097"),
            Err(QueryError::Parse { .. })
        ));
    }

    #[test]
    fn unknown_algorithm_and_metric_rejected() {
        assert!(check("AUDIT workers USING quantum").is_err());
        assert!(check("AUDIT workers METRIC cosine").is_err());
    }

    #[test]
    fn select_star_expands() {
        let Analyzed::Select(s) = check("SELECT * FROM workers").unwrap() else {
            panic!("not a select")
        };
        assert_eq!(s.items.len(), 3);
    }

    #[test]
    fn group_by_rules() {
        assert!(check("SELECT gender, COUNT(*) FROM workers GROUP BY gender").is_ok());
        assert!(check("SELECT country FROM workers GROUP BY gender").is_err());
        assert!(check("SELECT * FROM workers GROUP BY gender").is_err());
        assert!(check("SELECT gender, COUNT(*) FROM workers").is_err());
        assert!(check("SELECT MEAN(gender) FROM workers").is_err());
    }
}
