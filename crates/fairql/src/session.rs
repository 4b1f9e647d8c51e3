//! The FairQL session: parse → analyze → plan → execute.
//!
//! A [`Session`] borrows a data source (a batch table + scores, or a
//! published [`StreamSnapshot`]) and executes scripts against it. Audit
//! execution routes through the exact same [`AuditContext`] entry
//! points as a direct `fairjob audit` / serve `AUDIT` run, so an
//! unfiltered `AUDIT workers` is **bit-identical** to the direct run —
//! same `unfairness` bits, same [`EngineStats`](fairjob_core::EngineStats) counters.
//!
//! Between statements the session keeps the engine's caches warm: a
//! repeated audit shape (same source epoch, same `WHERE`, same
//! `PROTECT` list, same bins and metric) re-adopts the previous run's
//! split cache and distance memo, so `EXPLAIN ANALYZE` on the second
//! statement shows `split_cache_hits` climbing instead of
//! recomputation. `cache_hits`
//! climbs too for metrics without an L1 form (`ks`, `jsd`,
//! `emd-exact`, …); `emd` and `tv` sum their full evaluations without
//! the memo, so their `cache_hits` stay 0.
//! The caches are keyed by partition-predicate fingerprints, which do
//! not encode the population — reusing them across a *different*
//! filter or epoch would alias — and split entries hold cells of one
//! cube, which another attribute list numbers differently. So the warm
//! hand-off is gated on an exact `CacheKey` match and dropped
//! otherwise (and the engine keeps split entries only for a cube with
//! their cube's fingerprint).

use crate::analyze::{analyze, Analyzed, AnalyzedAudit, AnalyzedSelect, OutItem};
use crate::error::QueryError;
use crate::logical;
use crate::parse::parse;
use crate::physical::{
    plan, Actuals, AuditActuals, AuditNode, Catalog, PhysicalPlan, PlanDefaults, PlannerOptions,
    ScanKind, ScanNode,
};
use crate::result::{AuditSummary, QueryOutput, QueryResult, Value};
use fairjob_core::algorithms::{self, Algorithm};
use fairjob_core::{AuditConfig, AuditContext, EngineCaches};
use fairjob_hist::distance::{self, HistogramDistance};
use fairjob_hist::BinSpec;
use fairjob_store::column::CodeColumn;
use fairjob_store::column::Column;
use fairjob_store::index::IndexSet;
use fairjob_store::stats::{cardinality_present, summarise, ColumnSummary};
use fairjob_store::{PagedStore, RowSet, Schema, Table};
use fairjob_stream::StreamSnapshot;
use std::collections::HashMap;
use std::sync::Arc;

/// Where a session's rows come from.
pub enum Source<'a> {
    /// An in-memory table with row-aligned scores (the CLI's batch
    /// path).
    Batch {
        /// The population.
        table: &'a Table,
        /// Row-aligned scores in `[0, 1]`.
        scores: &'a [f64],
    },
    /// A published stream snapshot (the serve daemon's path).
    Snapshot(&'a StreamSnapshot),
    /// An out-of-core paged store (the `--paged` path). Audits stream
    /// pages through the buffer manager; `WHERE` clauses run as
    /// zone-map scans. Row-materializing statements (`SELECT`,
    /// `DESCRIBE`) are rejected with a clean error rather than paging
    /// the whole table in.
    Paged(&'a PagedStore),
}

impl Source<'_> {
    /// The in-memory table, when the source has one. Paged sources do
    /// not — callers that need row data go through
    /// [`Session::require_table`].
    fn table(&self) -> Option<&Table> {
        match self {
            Source::Batch { table, .. } => Some(table),
            Source::Snapshot(snap) => Some(snap.table()),
            Source::Paged(_) => None,
        }
    }

    fn schema(&self) -> &Schema {
        match self {
            Source::Batch { table, .. } => table.schema(),
            Source::Snapshot(snap) => snap.table().schema(),
            Source::Paged(store) => store.schema(),
        }
    }

    fn rows(&self) -> usize {
        match self {
            Source::Batch { table, .. } => table.len(),
            Source::Snapshot(snap) => snap.table().len(),
            Source::Paged(store) => store.rows(),
        }
    }

    fn epoch(&self) -> u64 {
        match self {
            Source::Batch { .. } => 0,
            Source::Snapshot(snap) => snap.epoch(),
            Source::Paged(store) => store.epoch(),
        }
    }

    fn live(&self) -> Option<&RowSet> {
        match self {
            Source::Batch { .. } => None,
            Source::Snapshot(snap) => Some(snap.live_rows()),
            Source::Paged(store) => store.live(),
        }
    }

    fn scores(&self) -> Option<&[f64]> {
        match self {
            Source::Batch { scores, .. } => Some(scores),
            Source::Snapshot(snap) => Some(snap.scores()),
            Source::Paged(_) => None,
        }
    }
}

/// Session defaults for clauses an `AUDIT` statement omits. The serve
/// daemon fills these from its own audit config so a `QUERY` with a
/// bare `AUDIT workers` is indistinguishable from the `AUDIT` verb.
#[derive(Clone)]
pub struct Defaults {
    /// Algorithm when `USING` is absent (shared, so the serve daemon's
    /// own algorithm instance is reused verbatim).
    pub algorithm: Arc<dyn Algorithm + Send + Sync>,
    /// Metric when `METRIC` is absent.
    pub metric: Arc<dyn HistogramDistance>,
    /// Bin count when `BINS` is absent.
    pub bins: usize,
    /// Seed for `USING r-…` algorithms named in queries.
    pub seed: u64,
    /// Engine thread cap. Results are bit-identical at every thread
    /// count, so it is not part of the warm-cache key.
    pub threads: Option<usize>,
}

impl Default for Defaults {
    fn default() -> Self {
        let config = AuditConfig::default();
        Defaults {
            algorithm: Arc::from(
                algorithms::by_name("balanced", 0xBEEF).expect("balanced is registered"),
            ),
            metric: config.distance,
            bins: config.bins,
            seed: 0xBEEF,
            threads: config.threads,
        }
    }
}

/// Identity of an audit shape, for safe warm-cache reuse. The engine's
/// caches are keyed by predicate fingerprint only, so they are valid
/// exactly when population and histogram layout are unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheKey {
    /// Source table identity (address — sources outlive the session).
    table: usize,
    /// Source scores identity.
    scores: usize,
    /// Snapshot epoch (0 for batch).
    epoch: u64,
    /// `WHERE` fingerprint (population subset).
    filter: u128,
    /// The `PROTECT` list (`None` = every splittable attribute): it
    /// decides the cube the split entries' cells belong to.
    attributes: Option<Vec<String>>,
    /// Histogram bin count.
    bins: usize,
    /// Metric name.
    metric: String,
}

/// Warm engine caches carried between statements (and, by the serve
/// daemon, between `QUERY` requests of one connection). Opaque; obtain
/// one from [`Session::into_warm`] and thread it into the next session
/// with [`Session::with_warm`].
#[derive(Default)]
pub struct WarmCache {
    key: Option<CacheKey>,
    caches: Option<EngineCaches>,
}

/// An executable FairQL session over one source.
pub struct Session<'a> {
    source: Source<'a>,
    defaults: Defaults,
    options: PlannerOptions,
    /// Lazily built inverted indexes (batch sources only; snapshots
    /// bring their own).
    batch_indexes: Option<Arc<IndexSet>>,
    /// Lazily built score→bin columns, per bin count (batch only).
    batch_bin_of: HashMap<usize, Arc<CodeColumn>>,
    warm: WarmCache,
}

impl<'a> Session<'a> {
    /// Open a session. Batch scores are validated eagerly (row-aligned,
    /// finite, in `[0, 1]`) because the filtered-audit path enters the
    /// audit layer through the validation-skipping
    /// [`AuditContext::from_parts`].
    ///
    /// # Errors
    ///
    /// [`QueryError::Exec`] on misaligned or out-of-range batch scores.
    pub fn new(source: Source<'a>, defaults: Defaults) -> Result<Self, QueryError> {
        if let Source::Batch { table, scores } = &source {
            if scores.len() != table.len() {
                return Err(QueryError::Exec(format!(
                    "{} scores for {} rows",
                    scores.len(),
                    table.len()
                )));
            }
            for (row, &s) in scores.iter().enumerate() {
                if !s.is_finite() || !(0.0..=1.0).contains(&s) {
                    return Err(QueryError::Exec(format!(
                        "score {s} at row {row} not in [0, 1]"
                    )));
                }
            }
        }
        Ok(Session {
            source,
            defaults,
            options: PlannerOptions::default(),
            batch_indexes: None,
            batch_bin_of: HashMap::new(),
            warm: WarmCache::default(),
        })
    }

    /// Override planner options (the bench's naive baseline).
    pub fn with_planner_options(mut self, options: PlannerOptions) -> Self {
        self.options = options;
        self
    }

    /// Adopt warm caches from a previous session over the same source.
    pub fn with_warm(mut self, warm: WarmCache) -> Self {
        self.warm = warm;
        self
    }

    /// Extract the warm caches for the next session.
    pub fn into_warm(self) -> WarmCache {
        self.warm
    }

    /// Parse, analyze, plan, and execute a script; one output per
    /// statement.
    ///
    /// # Errors
    ///
    /// [`QueryError::Parse`] (with byte offset) from the front half of
    /// the pipeline, [`QueryError::Exec`] from execution.
    pub fn execute(&mut self, text: &str) -> Result<Vec<QueryOutput>, QueryError> {
        let statements = parse(text)?;
        let schema = self.source.schema().clone();
        let mut outputs = Vec::with_capacity(statements.len());
        for statement in &statements {
            let analyzed = analyze(statement, &schema)?;
            outputs.push(self.run(&analyzed)?);
        }
        Ok(outputs)
    }

    /// Plan (without executing) a single already-analyzed statement —
    /// the `EXPLAIN` path, public for the bench and tests.
    pub fn plan_of(&mut self, analyzed: &Analyzed) -> PhysicalPlan {
        let logical = logical::build(analyzed);
        // A filtered plan needs indexes at execution time; building
        // them here also sharpens the planner's estimates.
        if self.needs_indexes(analyzed) {
            self.ensure_batch_indexes();
        }
        let catalog = Catalog {
            schema: self.source.schema(),
            indexes: match &self.source {
                Source::Batch { .. } => self.batch_indexes.as_deref(),
                Source::Snapshot(snap) => Some(snap.indexes()),
                Source::Paged(_) => None,
            },
            table_rows: self.source.rows(),
            live: self.source.live(),
            paged: match &self.source {
                Source::Paged(store) => Some(store),
                _ => None,
            },
        };
        let defaults = PlanDefaults {
            algorithm: self.defaults.algorithm.name(),
            metric: self.defaults.metric.name().to_string(),
            bins: self.defaults.bins,
            threads: self.defaults.threads,
        };
        plan(&logical, &catalog, &defaults, self.options)
    }

    fn needs_indexes(&self, analyzed: &Analyzed) -> bool {
        match analyzed {
            Analyzed::Audit(a) => !a.filter.is_always(),
            Analyzed::Select(s) => !s.filter.is_always(),
            Analyzed::Describe(_) => false,
            Analyzed::Explain { inner, .. } => self.needs_indexes(inner),
        }
    }

    fn ensure_batch_indexes(&mut self) {
        if let (Source::Batch { table, .. }, None) = (&self.source, &self.batch_indexes) {
            self.batch_indexes = Some(Arc::new(
                IndexSet::build(table, &table.schema().splittable())
                    .expect("schema-valid table indexes"),
            ));
        }
    }

    /// The in-memory table, or a clean error naming the statement that
    /// needed it (paged sources hold no row data).
    fn require_table(&self, what: &str) -> Result<&Table, QueryError> {
        self.source.table().ok_or_else(|| {
            QueryError::Exec(format!(
                "{what} needs row data in memory; paged sources support AUDIT and EXPLAIN only"
            ))
        })
    }

    fn run(&mut self, analyzed: &Analyzed) -> Result<QueryOutput, QueryError> {
        match analyzed {
            Analyzed::Describe(attr) => Ok(QueryOutput::Rows(self.describe(*attr)?)),
            Analyzed::Select(select) => {
                let physical = self.plan_of(analyzed);
                let PhysicalPlan::Select { scan, .. } = &physical else {
                    unreachable!("select lowers to a select plan")
                };
                let (rows, _) = self.run_scan(scan)?;
                let (result, _) = self.run_select(select, &rows)?;
                Ok(QueryOutput::Rows(result))
            }
            Analyzed::Audit(audit) => {
                let physical = self.plan_of(analyzed);
                let PhysicalPlan::Audit { scan, audit: node } = &physical else {
                    unreachable!("audit lowers to an audit plan")
                };
                let (summary, rows, _) = self.run_audit(audit, scan, node)?;
                Ok(QueryOutput::Audit { summary, rows })
            }
            Analyzed::Explain { analyze, inner } => {
                let physical = self.plan_of(inner);
                if !*analyze {
                    return Ok(QueryOutput::Explain {
                        text: physical.render(self.source.schema(), None),
                    });
                }
                let actuals = match (&physical, inner.as_ref()) {
                    (PhysicalPlan::Audit { scan, audit: node }, Analyzed::Audit(audit)) => {
                        let (summary, _, scan_actuals) = self.run_audit(audit, scan, node)?;
                        Actuals {
                            scan_matched: scan_actuals.0,
                            scan_examined: scan_actuals.1,
                            rows_out: summary.partitions,
                            audit: Some(AuditActuals {
                                unfairness: summary.unfairness,
                                partitions: summary.partitions,
                                candidates: summary.candidates_evaluated,
                                elapsed_us: summary.elapsed_us,
                                engine: summary.engine,
                            }),
                        }
                    }
                    (PhysicalPlan::Select { scan, .. }, Analyzed::Select(select)) => {
                        let (rows, examined) = self.run_scan(scan)?;
                        let matched = rows.len();
                        let (result, _) = self.run_select(select, &rows)?;
                        Actuals {
                            scan_matched: matched,
                            scan_examined: examined,
                            rows_out: result.rows.len(),
                            audit: None,
                        }
                    }
                    (PhysicalPlan::Describe { .. }, Analyzed::Describe(attr)) => {
                        let result = self.describe(*attr)?;
                        Actuals {
                            rows_out: result.rows.len(),
                            ..Actuals::default()
                        }
                    }
                    _ => unreachable!("plan shape mirrors the statement"),
                };
                Ok(QueryOutput::Explain {
                    text: physical.render(self.source.schema(), Some(&actuals)),
                })
            }
        }
    }

    /// Execute a scan: the matching rows plus the number of rows
    /// examined to find them.
    fn run_scan(&self, scan: &ScanNode) -> Result<(RowSet, usize), QueryError> {
        let base = || {
            self.source
                .live()
                .cloned()
                .unwrap_or_else(|| RowSet::all(self.source.rows()))
        };
        match &scan.kind {
            ScanKind::All => Ok((base(), 0)),
            ScanKind::Full => {
                let table = self.require_table("a row-walk filter")?;
                let within = base();
                let examined = within.len();
                let rows = scan
                    .filter
                    .filter(table, &within)
                    .map_err(|e| QueryError::Exec(e.to_string()))?;
                Ok((rows, examined))
            }
            ScanKind::ZoneMap(constraints) => {
                let Source::Paged(store) = &self.source else {
                    unreachable!("zone-map scans are planned only for paged sources")
                };
                let (rows, summary) = store
                    .scan_matching(constraints)
                    .map_err(|e| QueryError::Exec(e.to_string()))?;
                Ok((rows, summary.rows_examined))
            }
            ScanKind::Index(postings) => {
                let indexes = match &self.source {
                    Source::Batch { .. } => self
                        .batch_indexes
                        .as_deref()
                        .expect("planner built indexes for a pushed scan"),
                    Source::Snapshot(snap) => snap.indexes(),
                    Source::Paged(_) => {
                        unreachable!("paged sources plan zone-map scans, never index scans")
                    }
                };
                let mut examined = 0;
                let mut acc: Option<RowSet> = None;
                for &(attr, code, _) in postings {
                    let posting = indexes
                        .get(attr)
                        .expect("analyzer resolved a categorical attribute")
                        .rows_with_code(code);
                    examined += posting.len();
                    acc = Some(match acc {
                        None => match self.source.live() {
                            Some(live) => posting.intersect(live),
                            None => posting.clone(),
                        },
                        Some(acc) => acc.intersect(posting),
                    });
                }
                Ok((
                    acc.expect("pushed scans have at least one posting"),
                    examined,
                ))
            }
        }
    }

    fn batch_bin_of(&mut self, bins: usize) -> Result<Arc<CodeColumn>, QueryError> {
        if let Some(cached) = self.batch_bin_of.get(&bins) {
            return Ok(Arc::clone(cached));
        }
        let spec = BinSpec::equal_width(0.0, 1.0, bins)
            .map_err(|e| QueryError::Exec(format!("bins: {e}")))?;
        let scores = self.source.scores().expect("bin columns are batch-only");
        let bin_of = Arc::new(CodeColumn::from_values(bins, &spec.bin_indices(scores)));
        self.batch_bin_of.insert(bins, Arc::clone(&bin_of));
        Ok(bin_of)
    }

    /// Execute an audit plan. Returns the summary, the partition rows,
    /// and the scan's `(matched, examined)` actuals.
    fn run_audit(
        &mut self,
        audit: &AnalyzedAudit,
        scan: &ScanNode,
        node: &AuditNode,
    ) -> Result<(AuditSummary, QueryResult, (usize, usize)), QueryError> {
        let algorithm: Arc<dyn Algorithm + Send + Sync> = match &audit.algorithm {
            None => Arc::clone(&self.defaults.algorithm),
            Some(name) => Arc::from(
                algorithms::by_name(name, self.defaults.seed).expect("analyzer checked the name"),
            ),
        };
        let metric: Arc<dyn HistogramDistance> = match &audit.metric {
            None => Arc::clone(&self.defaults.metric),
            Some(name) => distance::by_name(name).expect("analyzer checked the name"),
        };
        let config = AuditConfig {
            bins: node.bins,
            distance: metric,
            attributes: audit.attributes.clone(),
            threads: self.defaults.threads,
        };

        let trivial = scan.filter.is_always();
        // Snapshot the page-cache counters *before* the WHERE scan so
        // `EXPLAIN ANALYZE` attributes the filter's page traffic (zone
        // skips included) to this audit.
        let paged_baseline = match &self.source {
            Source::Paged(store) => Some(store.stats().snapshot()),
            _ => None,
        };
        let (rows, examined) = self.run_scan(scan)?;
        let matched = rows.len();
        if matched == 0 {
            return Err(QueryError::Exec("WHERE matches no rows".to_string()));
        }

        // Identity of the backing memory: for paged sources the store
        // address stands in for both (its pages and scores live behind
        // one allocation).
        let (table_id, scores_id) = match &self.source {
            Source::Batch { table, scores } => {
                (*table as *const Table as usize, scores.as_ptr() as usize)
            }
            Source::Snapshot(snap) => (
                snap.table() as *const Table as usize,
                snap.scores().as_ptr() as usize,
            ),
            Source::Paged(store) => {
                let id = *store as *const PagedStore as usize;
                (id, id)
            }
        };
        let key = CacheKey {
            table: table_id,
            scores: scores_id,
            epoch: self.source.epoch(),
            filter: scan.filter.fingerprint(),
            attributes: audit.attributes.clone(),
            bins: node.bins,
            metric: node.metric.clone(),
        };
        // Seeding empty caches is behaviourally identical to letting
        // the engine create its own (same default capacity) — it only
        // makes the engine hand them back for the next statement.
        let seeded = if self.warm.key.as_ref() == Some(&key) {
            self.warm.caches.take().unwrap_or_default()
        } else {
            EngineCaches::new()
        };

        // The filtered batch path needs a prebuilt bin column; build it
        // before the source match below takes its shared borrow.
        let batch_bin_of = if !trivial && matches!(self.source, Source::Batch { .. }) {
            Some(self.batch_bin_of(node.bins)?)
        } else {
            None
        };

        let setup = |e: fairjob_core::AuditError| QueryError::Exec(format!("audit setup: {e}"));
        let stream_setup =
            |e: fairjob_stream::StreamError| QueryError::Exec(format!("audit setup: {e}"));
        let (result, partition_rows, caches) = match (&self.source, trivial) {
            // The pristine batch path: identical to `fairjob audit`.
            (Source::Batch { table, scores }, true) => {
                let ctx = AuditContext::new(table, scores, config).map_err(setup)?;
                finish_audit(&algorithm, &ctx, seeded)?
            }
            (Source::Batch { table, scores }, false) => {
                let bin_of = batch_bin_of.expect("built above");
                let ctx =
                    AuditContext::from_parts(table, scores, config, bin_of, Some(rows), None, 0)
                        .map_err(setup)?;
                finish_audit(&algorithm, &ctx, seeded)?
            }
            // The pristine snapshot path: identical to the serve
            // daemon's `AUDIT` verb.
            (Source::Snapshot(snap), true) => {
                let ctx = snap.context(config).map_err(stream_setup)?;
                finish_audit(&algorithm, &ctx, seeded)?
            }
            (Source::Snapshot(snap), false) => {
                let ctx = snap.context_over(config, rows).map_err(stream_setup)?;
                finish_audit(&algorithm, &ctx, seeded)?
            }
            // The paged paths: same streaming context either way —
            // trivial filters let the store's own live set stand.
            (Source::Paged(store), trivial) => {
                let live = if trivial { None } else { Some(rows) };
                let ctx =
                    AuditContext::from_paged(store, config, live, paged_baseline).map_err(setup)?;
                finish_audit(&algorithm, &ctx, seeded)?
            }
        };
        if let Some(caches) = caches {
            self.warm = WarmCache {
                key: Some(key),
                caches: Some(caches),
            };
        }

        let summary = AuditSummary {
            algorithm: result.algorithm.clone(),
            metric: node.metric.clone(),
            bins: node.bins,
            population: matched,
            epoch: self.source.epoch(),
            partitions: result.partitioning.len(),
            unfairness: result.unfairness,
            candidates_evaluated: result.candidates_evaluated,
            elapsed_us: result.elapsed.as_micros(),
            engine: result.engine,
        };
        Ok((
            summary,
            QueryResult {
                columns: vec!["partition".to_string(), "size".to_string()],
                rows: partition_rows,
            },
            (matched, examined),
        ))
    }

    fn cell(table: &Table, attr: usize, row: usize) -> Value {
        match table.column(attr) {
            Column::Categorical(codes) => Value::Str(
                table
                    .schema()
                    .attribute(attr)
                    .label_of(codes[row])
                    .unwrap_or("?")
                    .to_string(),
            ),
            Column::Numeric(values) => Value::Float(values[row]),
            Column::Integer(values) => Value::Int(values[row]),
        }
    }

    fn run_select(
        &mut self,
        select: &AnalyzedSelect,
        rows: &RowSet,
    ) -> Result<(QueryResult, usize), QueryError> {
        let table = self.require_table("SELECT")?;
        let schema = table.schema();
        let columns: Vec<String> = select.items.iter().map(|i| i.header(schema)).collect();
        let limit = select.limit.unwrap_or(usize::MAX);
        let examined = rows.len();

        let out_rows: Vec<Vec<Value>> = if let Some(group) = select.group_by {
            let Column::Categorical(codes) = table.column(group) else {
                unreachable!("analyzer enforced a categorical grouping column")
            };
            let cardinality = schema
                .attribute(group)
                .cardinality()
                .expect("categorical has cardinality");
            let mut groups: Vec<Option<Vec<Agg>>> = vec![None; cardinality];
            for row in rows.iter() {
                let slot = groups[codes[row] as usize]
                    .get_or_insert_with(|| select.items.iter().map(Agg::new).collect());
                for (agg, item) in slot.iter_mut().zip(&select.items) {
                    agg.feed(item, table, row)?;
                }
            }
            groups
                .into_iter()
                .enumerate()
                .filter_map(|(code, slot)| slot.map(|aggs| (code, aggs)))
                .map(|(code, aggs)| {
                    aggs.iter()
                        .zip(&select.items)
                        .map(|(agg, item)| match item {
                            OutItem::Column(_) => Value::Str(
                                schema
                                    .attribute(group)
                                    .label_of(code as u32)
                                    .unwrap_or("?")
                                    .to_string(),
                            ),
                            _ => agg.finish(item),
                        })
                        .collect()
                })
                .take(limit)
                .collect()
        } else if select
            .items
            .iter()
            .any(|i| !matches!(i, OutItem::Column(_)))
        {
            let mut aggs: Vec<Agg> = select.items.iter().map(Agg::new).collect();
            for row in rows.iter() {
                for (agg, item) in aggs.iter_mut().zip(&select.items) {
                    agg.feed(item, table, row)?;
                }
            }
            vec![aggs
                .iter()
                .zip(&select.items)
                .map(|(agg, item)| agg.finish(item))
                .collect()]
        } else {
            rows.iter()
                .take(limit)
                .map(|row| {
                    select
                        .items
                        .iter()
                        .map(|item| match item {
                            OutItem::Column(attr) => Self::cell(table, *attr, row),
                            _ => unreachable!("no aggregates on this path"),
                        })
                        .collect()
                })
                .collect()
        };
        Ok((
            QueryResult {
                columns,
                rows: out_rows,
            },
            examined,
        ))
    }

    fn describe(&self, only: Option<usize>) -> Result<QueryResult, QueryError> {
        let table = self.require_table("DESCRIBE")?;
        let schema = table.schema();
        let columns = [
            "column",
            "kind",
            "type",
            "cardinality",
            "split_bins",
            "min",
            "max",
            "mean",
            "std",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let attrs: Vec<usize> = match only {
            Some(idx) => vec![idx],
            None => (0..schema.width()).collect(),
        };
        let rows = attrs
            .into_iter()
            .map(|idx| {
                let def = schema.attribute(idx);
                let mut row = vec![
                    Value::Str(def.name.clone()),
                    Value::Str(format!("{:?}", def.kind).to_lowercase()),
                    Value::Str(def.dtype.type_name().to_string()),
                ];
                match cardinality_present(table, idx) {
                    Some((cardinality, present)) => {
                        row.push(Value::Int(cardinality as i64));
                        row.push(Value::Int(present as i64));
                    }
                    None => {
                        row.push(Value::Null);
                        row.push(Value::Null);
                    }
                }
                match summarise(table, idx) {
                    ColumnSummary::Numeric {
                        min,
                        max,
                        mean,
                        std,
                    } => {
                        row.extend([
                            Value::Float(min),
                            Value::Float(max),
                            Value::Float(mean),
                            Value::Float(std),
                        ]);
                    }
                    _ => row.extend([Value::Null, Value::Null, Value::Null, Value::Null]),
                }
                row
            })
            .collect();
        Ok(QueryResult { columns, rows })
    }
}

/// What [`finish_audit`] hands back: the audit result, the rendered
/// partition rows, and the engine caches for the warm hand-off.
type FinishedAudit = (
    fairjob_core::AuditResult,
    Vec<Vec<Value>>,
    Option<EngineCaches>,
);

/// Run the resolved algorithm over a prepared context with seeded
/// caches; returns the result, the partition rows, and the caches the
/// engine handed back.
fn finish_audit(
    algorithm: &Arc<dyn Algorithm + Send + Sync>,
    ctx: &AuditContext<'_>,
    seeded: EngineCaches,
) -> Result<FinishedAudit, QueryError> {
    ctx.seed_engine_caches(seeded);
    let result = algorithm
        .run(ctx)
        .map_err(|e| QueryError::Exec(format!("{}: {e}", algorithm.name())))?;
    let caches = ctx.take_engine_caches();
    let schema = ctx.schema();
    let rows: Vec<Vec<Value>> = result
        .partitioning
        .partitions()
        .iter()
        .map(|p| {
            vec![
                Value::Str(p.predicate.describe_in(schema)),
                Value::Int(p.len() as i64),
            ]
        })
        .collect();
    Ok((result, rows, caches))
}

/// One aggregate accumulator.
#[derive(Clone)]
struct Agg {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Agg {
    fn new(_: &OutItem) -> Self {
        Agg {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn feed(&mut self, item: &OutItem, table: &Table, row: usize) -> Result<(), QueryError> {
        self.count += 1;
        let attr = match item {
            OutItem::Mean(a) | OutItem::Min(a) | OutItem::Max(a) => *a,
            OutItem::Count | OutItem::Column(_) => return Ok(()),
        };
        let v = table
            .f64_at(attr, row)
            .map_err(|e| QueryError::Exec(e.to_string()))?;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        Ok(())
    }

    fn finish(&self, item: &OutItem) -> Value {
        match item {
            OutItem::Count => Value::Int(self.count as i64),
            _ if self.count == 0 => Value::Null,
            OutItem::Mean(_) => Value::Float(self.sum / self.count as f64),
            OutItem::Min(_) => Value::Float(self.min),
            OutItem::Max(_) => Value::Float(self.max),
            OutItem::Column(_) => Value::Null,
        }
    }
}
