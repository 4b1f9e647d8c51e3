//! The physical planner: access paths, screens, and cost estimates.
//!
//! Three planner rules do the work:
//!
//! 1. **Predicate pushdown.** A non-trivial `WHERE` compiles to an
//!    [`ScanNode`] over the store's inverted indexes: posting lists are
//!    intersected smallest-first (cheapest accumulator), so the rows
//!    *examined* are bounded by the posting lengths instead of the
//!    table length. A full scan is kept as the fallback (and as the
//!    naive baseline the `query_plan` bench gates against).
//! 2. **Cache-aware audit ordering.** An omitted `PROTECT` list stays
//!    `None` so the audit splits every protected attribute in schema
//!    order — the canonical order every other audit in the process
//!    uses, which is what makes the engine's split cache (and the
//!    session's warm-cache hand-off between statements) actually hit.
//!    An explicit `PROTECT` list is preserved verbatim: reordering it
//!    would change worst-attribute tie-breaking and thus the result.
//! 3. **Screen selection.** The metric decides what runs before an
//!    exact distance solve: `emd` has a closed form whose bounds *are*
//!    the answer, `emd-exact` gets the projection/TV sandwich bounds
//!    from `emd::bounds` (branch-and-bound candidate pruning), other
//!    metrics get no screen. The chosen screen is surfaced in the plan
//!    and its effect in `EXPLAIN ANALYZE`'s `bounds_screened` counter.

use crate::analyze::OutItem;
use crate::logical::LogicalPlan;
use fairjob_core::EngineStats;
use fairjob_store::index::IndexSet;
use fairjob_store::schema::Schema;
use fairjob_store::{PagedStore, Predicate, RowSet};

/// What the planner knows about the data it plans over.
pub struct Catalog<'a> {
    /// The source schema.
    pub schema: &'a Schema,
    /// Inverted indexes, when the source has them built. Required for
    /// pushed scans of non-trivial predicates; also sharpens estimates.
    pub indexes: Option<&'a IndexSet>,
    /// Rows in the source table (including tombstoned ones).
    pub table_rows: usize,
    /// The live row set, when the source is a snapshot.
    pub live: Option<&'a RowSet>,
    /// The paged store, when the source is out-of-core. Non-trivial
    /// predicates then compile to zone-mapped page scans instead of
    /// posting intersections, and split-children estimates come from
    /// the zone-map code bitsets (no page reads either way).
    pub paged: Option<&'a PagedStore>,
}

impl Catalog<'_> {
    /// Rows a trivial scan would return.
    pub fn base_rows(&self) -> usize {
        self.live.map_or(self.table_rows, RowSet::len)
    }
}

/// Planner knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlannerOptions {
    /// Compile non-trivial predicates to index-posting intersections
    /// (`true`, the default) instead of full scans. The `false` setting
    /// exists for the bench's naive baseline and for A/B-ing the
    /// planner.
    pub push_predicates: bool,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            push_predicates: true,
        }
    }
}

/// Session defaults the planner folds into unspecified audit clauses.
#[derive(Debug, Clone)]
pub struct PlanDefaults {
    /// Default algorithm name.
    pub algorithm: String,
    /// Default metric name.
    pub metric: String,
    /// Default bin count.
    pub bins: usize,
    /// Engine thread cap (`None` = auto).
    pub threads: Option<usize>,
}

/// How the scan will produce its rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanKind {
    /// Every live row (trivial predicate).
    All,
    /// Intersect index postings, smallest first. Each entry is
    /// `(attr, code, posting length)`.
    Index(Vec<(usize, u32, usize)>),
    /// Walk every live row and test the predicate (the naive path).
    Full,
    /// Paged source: stream each constrained column's pages, skipping
    /// pages whose zone map rules the wanted code out or that hold no
    /// surviving candidate row. Entries are `(attr, code)` in
    /// application order.
    ZoneMap(Vec<(usize, u32)>),
}

/// The scan node.
#[derive(Debug, Clone)]
pub struct ScanNode {
    /// The predicate the scan enforces.
    pub filter: Predicate,
    /// Access path.
    pub kind: ScanKind,
    /// Estimated matching rows.
    pub est_matched: usize,
    /// Estimated rows examined to find them.
    pub est_examined: usize,
}

/// What runs before exact distance solves for the chosen metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenKind {
    /// Closed-form metric: the bound *is* the exact value.
    ClosedForm,
    /// `emd::bounds` projection/TV sandwich before transportation
    /// solves.
    SandwichBounds,
    /// No screen available.
    None,
}

impl ScreenKind {
    /// The screen the engine will use for a metric name.
    pub fn for_metric(metric: &str) -> Self {
        match metric {
            "emd" | "tv" | "ks" | "jsd" | "hellinger" | "chi2" => ScreenKind::ClosedForm,
            "emd-exact" => ScreenKind::SandwichBounds,
            _ => ScreenKind::None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            ScreenKind::ClosedForm => "closed-form",
            ScreenKind::SandwichBounds => "sandwich-bounds",
            ScreenKind::None => "none",
        }
    }
}

/// The audit node.
#[derive(Debug, Clone)]
pub struct AuditNode {
    /// Resolved algorithm name.
    pub algorithm: String,
    /// Resolved metric name (query spelling).
    pub metric: String,
    /// Resolved bin count.
    pub bins: usize,
    /// `PROTECT` names (`None` = all splittable, schema order) — passed
    /// through to the audit config untouched (planner rule 2).
    pub attributes: Option<Vec<String>>,
    /// Schema indexes of the audited attributes.
    pub attr_indexes: Vec<usize>,
    /// The screen inserted before exact solves.
    pub screen: ScreenKind,
    /// Engine thread cap.
    pub threads: Option<usize>,
    /// Estimated split children across one round of candidate
    /// attributes (distinct present values summed over attributes).
    pub est_split_children: usize,
}

/// A full physical plan.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Audit over a scan.
    Audit {
        /// Input rows.
        scan: ScanNode,
        /// The audit spec.
        audit: AuditNode,
    },
    /// Projection/aggregation over a scan.
    Select {
        /// Input rows.
        scan: ScanNode,
        /// Output items.
        items: Vec<OutItem>,
        /// Grouping column.
        group_by: Option<usize>,
        /// Output-row cap.
        limit: Option<usize>,
    },
    /// Schema description (no scan).
    Describe {
        /// Restrict to one column.
        attr: Option<usize>,
    },
}

/// Actual counters recorded while executing a plan, for
/// `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, Default)]
pub struct Actuals {
    /// Rows the scan returned.
    pub scan_matched: usize,
    /// Rows the scan examined to find them.
    pub scan_examined: usize,
    /// Rows the statement output.
    pub rows_out: usize,
    /// Audit actuals, when the plan audited.
    pub audit: Option<AuditActuals>,
}

/// Audit-node actuals.
#[derive(Debug, Clone)]
pub struct AuditActuals {
    /// Winning unfairness.
    pub unfairness: f64,
    /// Partitions in the winner.
    pub partitions: usize,
    /// Candidates evaluated.
    pub candidates: usize,
    /// Wall-clock microseconds.
    pub elapsed_us: u128,
    /// Engine counters for the run.
    pub engine: EngineStats,
}

/// Lower a logical plan to a physical plan.
pub fn plan(
    logical: &LogicalPlan,
    catalog: &Catalog<'_>,
    defaults: &PlanDefaults,
    options: PlannerOptions,
) -> PhysicalPlan {
    match logical {
        LogicalPlan::Audit { input, audit } => {
            let scan = plan_scan(scan_filter(input), catalog, options);
            let metric = audit
                .metric
                .clone()
                .unwrap_or_else(|| defaults.metric.clone());
            let bins = audit.bins.unwrap_or(defaults.bins);
            let est_split_children = audit
                .attr_indexes
                .iter()
                .map(|&attr| present_values(catalog, attr))
                .sum();
            PhysicalPlan::Audit {
                scan,
                audit: AuditNode {
                    algorithm: audit
                        .algorithm
                        .clone()
                        .unwrap_or_else(|| defaults.algorithm.clone()),
                    screen: ScreenKind::for_metric(&metric),
                    metric,
                    bins,
                    attributes: audit.attributes.clone(),
                    attr_indexes: audit.attr_indexes.clone(),
                    threads: defaults.threads,
                    est_split_children,
                },
            }
        }
        LogicalPlan::Project {
            input,
            items,
            group_by,
            limit,
        } => PhysicalPlan::Select {
            scan: plan_scan(scan_filter(input), catalog, options),
            items: items.clone(),
            group_by: *group_by,
            limit: *limit,
        },
        LogicalPlan::Describe { attr } => PhysicalPlan::Describe { attr: *attr },
        LogicalPlan::Scan { filter } => PhysicalPlan::Select {
            scan: plan_scan(filter, catalog, options),
            items: Vec::new(),
            group_by: None,
            limit: None,
        },
    }
}

fn scan_filter(input: &LogicalPlan) -> &Predicate {
    match input {
        LogicalPlan::Scan { filter } => filter,
        _ => unreachable!("scan is always the leaf"),
    }
}

/// Distinct values of `attr` actually present (posting lists sharpen
/// the estimate; otherwise fall back to the domain cardinality).
fn present_values(catalog: &Catalog<'_>, attr: usize) -> usize {
    if let Some(index) = catalog.indexes.and_then(|set| set.get(attr)) {
        return (0..index.cardinality() as u32)
            .filter(|&code| !index.rows_with_code(code).is_empty())
            .count();
    }
    if let Some(codes) = catalog.paged.and_then(|store| store.present_codes(attr)) {
        return codes.len();
    }
    catalog
        .schema
        .attribute(attr)
        .cardinality()
        .unwrap_or_default()
}

fn plan_scan(filter: &Predicate, catalog: &Catalog<'_>, options: PlannerOptions) -> ScanNode {
    let base = catalog.base_rows();
    if filter.is_always() {
        return ScanNode {
            filter: filter.clone(),
            kind: ScanKind::All,
            est_matched: base,
            est_examined: 0,
        };
    }
    // Selectivity estimate from real posting lengths when indexes are
    // available; independence assumed across constraints.
    let mut postings: Vec<(usize, u32, usize)> = filter
        .constraints()
        .iter()
        .map(|c| {
            let len = catalog
                .indexes
                .and_then(|set| set.get(c.attr))
                .map_or(base, |idx| idx.rows_with_code(c.code).len());
            (c.attr, c.code, len)
        })
        .collect();
    postings.sort_by_key(|&(_, _, len)| len);
    let mut est_matched = base as f64;
    for &(_, _, len) in &postings {
        let selectivity = if catalog.table_rows == 0 {
            0.0
        } else {
            len as f64 / catalog.table_rows as f64
        };
        est_matched *= selectivity;
    }
    let est_matched = est_matched.round() as usize;
    if let Some(store) = catalog.paged {
        // Zone-mapped paged scan: the only access path on an
        // out-of-core source (no resident rows to walk, no posting
        // lists until an audit builds them). Examined rows are bounded
        // by the pages that survive zone-map + candidate pruning.
        let constraints: Vec<(usize, u32)> = filter
            .constraints()
            .iter()
            .map(|c| (c.attr, c.code))
            .collect();
        let zone_prunable = constraints
            .iter()
            .filter(|&&(attr, code)| {
                store
                    .present_codes(attr)
                    .is_some_and(|codes| !codes.contains(&code))
            })
            .count();
        return ScanNode {
            filter: filter.clone(),
            kind: ScanKind::ZoneMap(constraints),
            est_matched: if zone_prunable > 0 { 0 } else { est_matched },
            est_examined: if zone_prunable > 0 { 0 } else { base },
        };
    }
    if options.push_predicates && catalog.indexes.is_some() {
        let est_examined = postings.iter().map(|&(_, _, len)| len).sum();
        ScanNode {
            filter: filter.clone(),
            kind: ScanKind::Index(postings),
            est_matched,
            est_examined,
        }
    } else {
        ScanNode {
            filter: filter.clone(),
            kind: ScanKind::Full,
            est_matched,
            est_examined: base,
        }
    }
}

impl PhysicalPlan {
    /// Render the plan tree against the source schema (no row data is
    /// consulted, so paged sources render identically). With `actuals`,
    /// every node gets an `actual:` line under its `est:` line
    /// (`EXPLAIN ANALYZE`).
    pub fn render(&self, schema: &Schema, actuals: Option<&Actuals>) -> String {
        let mut out = String::new();
        match self {
            PhysicalPlan::Audit { scan, audit } => {
                out.push_str(&format!(
                    "Audit algorithm={} metric={} bins={} protect=[{}] screen={} threads={}\n",
                    audit.algorithm,
                    audit.metric,
                    audit.bins,
                    audit
                        .attr_indexes
                        .iter()
                        .map(|&i| schema.attribute(i).name.clone())
                        .collect::<Vec<_>>()
                        .join(", "),
                    audit.screen.label(),
                    audit
                        .threads
                        .map_or_else(|| "auto".to_string(), |t| t.to_string()),
                ));
                out.push_str(&format!(
                    "  est: split-children≈{}\n",
                    audit.est_split_children
                ));
                if let Some(a) = actuals.and_then(|a| a.audit.as_ref()) {
                    out.push_str(&format!(
                        "  actual: unfairness={} unfairness_bits={:016x} partitions={} \
                         candidates={} elapsed_us={}\n",
                        a.unfairness,
                        a.unfairness.to_bits(),
                        a.partitions,
                        a.candidates,
                        a.elapsed_us,
                    ));
                    out.push_str("  actual:");
                    for (name, value) in a.engine.as_pairs() {
                        out.push_str(&format!(" {name}={value}"));
                    }
                    out.push('\n');
                }
                render_scan(&mut out, scan, schema, actuals, "  ");
            }
            PhysicalPlan::Select {
                scan,
                items,
                group_by,
                limit,
            } => {
                let aggregated =
                    group_by.is_some() || items.iter().any(|i| !matches!(i, OutItem::Column(_)));
                let stage = if aggregated { "Aggregate" } else { "Project" };
                out.push_str(&format!(
                    "{stage} items={}{}{}\n",
                    items.len(),
                    group_by.map_or(String::new(), |g| format!(
                        " group_by={}",
                        schema.attribute(g).name
                    )),
                    limit.map_or(String::new(), |n| format!(" limit={n}")),
                ));
                if let Some(a) = actuals {
                    out.push_str(&format!("  actual: rows_out={}\n", a.rows_out));
                }
                render_scan(&mut out, scan, schema, actuals, "  ");
            }
            PhysicalPlan::Describe { attr } => {
                out.push_str(&format!(
                    "Describe column={}\n",
                    attr.map_or_else(|| "*".to_string(), |i| schema.attribute(i).name.clone())
                ));
            }
        }
        out
    }
}

fn render_scan(
    out: &mut String,
    scan: &ScanNode,
    schema: &Schema,
    actuals: Option<&Actuals>,
    indent: &str,
) {
    let path = match &scan.kind {
        ScanKind::All => "SeqScan".to_string(),
        ScanKind::Full => "SeqScan".to_string(),
        ScanKind::Index(postings) => format!(
            "IndexScan postings=[{}]",
            postings
                .iter()
                .map(|&(attr, code, len)| {
                    let def = schema.attribute(attr);
                    format!("{}={}:{len}", def.name, def.label_of(code).unwrap_or("?"))
                })
                .collect::<Vec<_>>()
                .join(", ")
        ),
        ScanKind::ZoneMap(constraints) => format!(
            "ZoneMapScan constraints=[{}]",
            constraints
                .iter()
                .map(|&(attr, code)| {
                    let def = schema.attribute(attr);
                    format!("{}={}", def.name, def.label_of(code).unwrap_or("?"))
                })
                .collect::<Vec<_>>()
                .join(", ")
        ),
    };
    out.push_str(&format!(
        "{indent}{path} workers filter=({})\n",
        scan.filter.describe_in(schema)
    ));
    out.push_str(&format!(
        "{indent}  est: matched≈{} examined≈{}\n",
        scan.est_matched, scan.est_examined
    ));
    if let Some(a) = actuals {
        out.push_str(&format!(
            "{indent}  actual: matched={} examined={}\n",
            a.scan_matched, a.scan_examined
        ));
    }
}
