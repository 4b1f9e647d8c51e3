//! Audit configuration and the shared evaluation context.

use crate::cube::{self, CellCube, KeyFold, RangeCounts};
use crate::engine::EngineCaches;
use crate::error::AuditError;
use crate::partition::{Partition, Partitioning};
use crate::pool::{thread_budget, WorkerPool};
use crate::unfairness::average_pairwise;
use fairjob_hist::bins::Slot;
use fairjob_hist::distance::Emd1d;
use fairjob_hist::{BinSpec, Histogram, HistogramDistance};
use fairjob_store::column::CodeColumn;
use fairjob_store::index::CategoricalIndex;
use fairjob_store::paged::{PageCacheStats, PageCounters, PageData, PagedColumn};
use fairjob_store::{EqConstraint, PagedStore, Predicate, RowSet, Schema, Table};
use std::borrow::Borrow;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of an audit.
#[derive(Clone)]
pub struct AuditConfig {
    /// Number of equal-width histogram bins over `[0, 1]` (the paper's
    /// "equal bins over the range of f"; the bin count is unspecified
    /// there — 10 is this library's default, swept in the ablations).
    pub bins: usize,
    /// Distance between per-partition score histograms. Defaults to the
    /// paper's Earth Mover's Distance.
    pub distance: Arc<dyn HistogramDistance>,
    /// Protected attributes to audit, by name. `None` = every
    /// categorical protected attribute in the schema.
    pub attributes: Option<Vec<String>>,
    /// Worker-thread count for the evaluation engine's parallel paths
    /// and the context's per-row passes. `None` (the default) uses the
    /// machine's available parallelism capped at 8, read once per
    /// process — the count the process-wide worker pool is sized from.
    /// It is the one layout knob: a per-row pass over 65 536 or more
    /// audited rows runs one row range per thread, at most nine.
    /// Results are bit-identical for every thread count; this knob
    /// exists for reproducible benchmarking and resource capping.
    pub threads: Option<usize>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            bins: 10,
            distance: Arc::new(Emd1d),
            attributes: None,
            threads: None,
        }
    }
}

impl std::fmt::Debug for AuditConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditConfig")
            .field("bins", &self.bins)
            .field("distance", &self.distance.name())
            .field("attributes", &self.attributes)
            .field("threads", &self.threads)
            .finish()
    }
}

impl AuditConfig {
    /// Default config with a specific bin count.
    pub fn with_bins(bins: usize) -> Self {
        AuditConfig {
            bins,
            ..Default::default()
        }
    }

    /// Default config with a specific distance.
    pub fn with_distance(distance: Arc<dyn HistogramDistance>) -> Self {
        AuditConfig {
            distance,
            ..Default::default()
        }
    }
}

/// Where an audit's underlying data lives. The split and histogram
/// kernels never read it after the context is built — they run on the
/// cell cube and the bin column — so the paged variant audits datasets
/// whose raw columns never fit in memory.
enum DataSource<'a> {
    /// An in-memory table (batch and streaming audits).
    Mem(&'a Table),
    /// An out-of-core paged store (audits beyond RAM).
    Paged(&'a PagedStore),
}

/// Everything an algorithm needs to evaluate candidate partitionings:
/// the data source, the scores, the bin layout, the distance, the
/// candidate attributes and their cell cube.
pub struct AuditContext<'a> {
    source: DataSource<'a>,
    /// The raw score vector, when resident. Paged contexts bin scores
    /// page-by-page at build and never hold the full vector.
    scores: Option<&'a [f64]>,
    spec: BinSpec,
    distance: Arc<dyn HistogramDistance>,
    attributes: Vec<usize>,
    threads: Option<usize>,
    /// `bin_of.get(row)` = the histogram bin of the row's score,
    /// computed once at build (scores are immutable per audit), one byte
    /// per row when the layout has at most 256 bins. Histograms of row
    /// sets ([`AuditContext::histogram`]) read this column. Shared so a
    /// streaming view can hand its maintained column to a fresh
    /// per-epoch context without a copy.
    bin_of: Arc<CodeColumn>,
    /// The audited rows counted into the cells of the audited
    /// attributes (see [`crate::cube`]); it also holds the audited row
    /// subset, when restricted.
    cube: CellCube,
    /// Rows read to build the cube (0 when a stream view maintains it).
    cube_rows: u64,
    /// Epoch stamp of the underlying data version (0 for batch audits).
    epoch: u64,
    /// Data-parallel work counters of the build, folded into
    /// [`crate::EngineStats`] by [`crate::EvalEngine::stats`]. Relaxed
    /// atomics: every increment is a fixed amount per kernel
    /// invocation, so totals are exact and thread-schedule independent.
    build_counters: BuildCounters,
    /// Warm engine caches handed across engine lifetimes: seeded before
    /// a run via [`AuditContext::seed_engine_caches`], adopted by the
    /// next [`crate::EvalEngine`], returned here when it drops. A
    /// `Mutex` (not `RefCell`) so the context stays `Sync` for the
    /// engine's scoped worker threads; it is only locked at engine
    /// construction and drop.
    engine_caches: Mutex<Option<EngineCaches>>,
    /// The paged store's shared traffic counters plus the baseline
    /// snapshot this context measures from (see
    /// [`AuditContext::page_counters`]). `None` on in-memory contexts.
    page_stats: Option<(Arc<PageCacheStats>, PageCounters)>,
}

/// See [`AuditContext`]'s `build_counters` field.
#[derive(Debug, Default)]
struct BuildCounters {
    shard_tasks: AtomicU64,
    rows_classified_parallel: AtomicU64,
}

impl BuildCounters {
    fn note(&self, tasks: usize, rows: usize) {
        self.shard_tasks.fetch_add(tasks as u64, Ordering::Relaxed);
        self.rows_classified_parallel
            .fetch_add(rows as u64, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for AuditContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditContext")
            .field("rows", &self.rows())
            .field("bins", &self.spec.len())
            .field("distance", &self.distance.name())
            .field("attributes", &self.attributes)
            .field("cells", &self.cube.cells())
            .finish()
    }
}

/// `Ok` when every score lies in `[0, 1]` (NaN and infinities fail);
/// otherwise [`AuditError::BadScore`] naming the first offender, its
/// row offset by `first_row`. The classify passes check scores in the
/// binning kernel ([`BinSpec::bin_checked`]) and call this only to name
/// the row.
pub(crate) fn check_scores(first_row: usize, scores: &[f64]) -> Result<(), AuditError> {
    match scores.iter().position(|s| !(0.0..=1.0).contains(s)) {
        None => Ok(()),
        Some(i) => Err(AuditError::BadScore {
            row: first_row + i,
            value: scores[i],
        }),
    }
}

/// A row range's window onto a [`CodeColumn`].
enum CodeSliceMut<'c> {
    Narrow(&'c mut [u8]),
    Wide(&'c mut [u32]),
}

/// `column` cut into one window per range (`ranges` tile it in order).
fn windows<'c>(column: &'c mut CodeColumn, ranges: &[Range<usize>]) -> Vec<CodeSliceMut<'c>> {
    fn cut<'c, T>(mut rest: &'c mut [T], ranges: &[Range<usize>]) -> Vec<&'c mut [T]> {
        ranges
            .iter()
            .map(|range| {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                head
            })
            .collect()
    }
    match column {
        CodeColumn::Narrow(v) => cut(v, ranges)
            .into_iter()
            .map(CodeSliceMut::Narrow)
            .collect(),
        CodeColumn::Wide(v) => cut(v, ranges).into_iter().map(CodeSliceMut::Wide).collect(),
    }
}

/// Check and bin `scores` (rows `first_row..`) into `out` with the
/// binning kernel; [`AuditError::BadScore`] names the first bad row.
fn check_and_bin<B: Slot>(
    spec: &BinSpec,
    scores: &[f64],
    first_row: usize,
    out: &mut [B],
) -> Result<(), AuditError> {
    if spec.bin_checked(scores, out) {
        Ok(())
    } else {
        check_scores(first_row, scores)
    }
}

/// The fused pass of one row range: check and bin the scores of rows
/// `first_row..` straight into the range's window of the bin column,
/// key each row by its codes in `columns` (mixed radix over `domains`)
/// in its window of the key column, and count it into
/// `counts[key * bins + bin]`. With no column, rows are only checked
/// and binned. Chunked so the keying and counting re-read each chunk
/// from L1.
#[allow(clippy::too_many_arguments)]
fn classify_range<B: Slot, K: Slot>(
    spec: &BinSpec,
    scores: &[f64],
    first_row: usize,
    columns: &[&[u32]],
    domains: &[u32],
    bins_out: &mut [B],
    keys_out: &mut [K],
    counts: &mut [u32],
) -> Result<(), AuditError> {
    const CHUNK: usize = 4096;
    let bins = spec.len();
    for (c, chunk) in scores.chunks(CHUNK).enumerate() {
        let at = c * CHUNK;
        let row = first_row + at;
        let bin = &mut bins_out[at..at + chunk.len()];
        check_and_bin(spec, chunk, row, bin)?;
        if columns.is_empty() {
            continue;
        }
        let keys = &mut keys_out[at..at + chunk.len()];
        for (column, &domain) in columns.iter().zip(domains) {
            for (key, &code) in keys.iter_mut().zip(&column[row..row + chunk.len()]) {
                *key = K::from_index(key.index() as u32 * domain + code);
            }
        }
        for (key, b) in keys.iter().zip(bin.iter()) {
            counts[key.index() * bins + b.index()] += 1;
        }
    }
    Ok(())
}

/// What a constructor derives before it becomes a context.
struct Built {
    spec: BinSpec,
    attributes: Vec<usize>,
    bin_of: Arc<CodeColumn>,
    cube: CellCube,
    cube_rows: u64,
    counters: BuildCounters,
}

impl Built {
    fn into_context<'a>(
        self,
        source: DataSource<'a>,
        scores: Option<&'a [f64]>,
        config: AuditConfig,
        epoch: u64,
    ) -> AuditContext<'a> {
        AuditContext {
            source,
            scores,
            spec: self.spec,
            distance: config.distance,
            attributes: self.attributes,
            threads: config.threads,
            bin_of: self.bin_of,
            cube: self.cube,
            cube_rows: self.cube_rows,
            epoch,
            build_counters: self.counters,
            engine_caches: Mutex::new(None),
            page_stats: None,
        }
    }
}

impl<'a> AuditContext<'a> {
    /// Validate inputs and build the context (scores row-aligned with
    /// `table`, each in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// [`AuditError`] for empty tables, misaligned scores, bad bin
    /// counts, unusable attribute selections, or out-of-range scores —
    /// in that order (see the shared `validate` step).
    pub fn new(
        table: &'a Table,
        scores: &'a [f64],
        config: AuditConfig,
    ) -> Result<Self, AuditError> {
        let (spec, attributes) =
            Self::validate(table.schema(), table.len(), &[scores.len()], None, &config)?;
        let parallelism = thread_budget(config.threads);
        let counters = BuildCounters::default();
        let (bin_of, cube) =
            Self::classify(table, &attributes, &spec, scores, parallelism, &counters)?;
        let built = Built {
            spec,
            attributes,
            bin_of: Arc::new(bin_of),
            cube,
            cube_rows: table.len() as u64,
            counters,
        };
        Ok(built.into_context(DataSource::Mem(table), Some(scores), config, 0))
    }

    /// The one validation path of every constructor, in a fixed order:
    ///
    /// 1. shape — a non-empty table; every row-aligned input (`aligned`
    ///    holds their lengths: scores, a prebuilt bin column) exactly
    ///    `rows` long; a `live` subset non-empty and inside the table;
    /// 2. config — the bin count, then the attribute selection.
    ///
    /// Per-row data (score values, paged codes) is checked last, by the
    /// classification and cube passes that read it anyway.
    pub(crate) fn validate(
        schema: &Schema,
        rows: usize,
        aligned: &[usize],
        live: Option<&RowSet>,
        config: &AuditConfig,
    ) -> Result<(BinSpec, Vec<usize>), AuditError> {
        if rows == 0 {
            return Err(AuditError::EmptyTable);
        }
        if let Some(&scores) = aligned.iter().find(|&&len| len != rows) {
            return Err(AuditError::ScoreLength { rows, scores });
        }
        match live.map(|live| live.rows().last()) {
            Some(None) => return Err(AuditError::EmptyTable),
            Some(Some(&last)) if last as usize >= rows => {
                return Err(AuditError::ScoreLength {
                    rows,
                    scores: last as usize + 1,
                })
            }
            _ => {}
        }
        let spec = BinSpec::equal_width(0.0, 1.0, config.bins)
            .map_err(|e| AuditError::Bins(e.to_string()))?;
        Ok((spec, Self::resolve_attributes_in(schema, config)?))
    }

    /// The fused classify pass: check and bin every score with the
    /// binning kernel straight into the bin column, and count the row
    /// into its cell of the audited attributes — one task per row range
    /// ([`cube::row_ranges`]) on the worker pool, the ranges' counts
    /// added in range order, and each range's rows per key kept as the
    /// cube's range counts ([`RangeCounts::kept`]). Classification is
    /// elementwise and counts are integers, so the column and the cube
    /// equal a serial pass exactly. Key spaces too wide (or too sparse)
    /// to count directly are only binned here and folded from the table
    /// afterwards.
    ///
    /// # Errors
    ///
    /// [`AuditError::BadScore`] with the **first** offending row.
    fn classify(
        table: &Table,
        attrs: &[usize],
        spec: &BinSpec,
        scores: &[f64],
        parallelism: usize,
        counters: &BuildCounters,
    ) -> Result<(CodeColumn, CellCube), AuditError> {
        let rows = scores.len();
        let bounds = cube::row_ranges(rows, parallelism);
        let ranges: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
        counters.note(ranges.len(), rows);
        let bins = spec.len();
        let all_domains = cube::domains(table.schema(), attrs);
        let space = cube::key_space(&all_domains);
        let direct = cube::counts_directly(space, bins, rows);
        let (columns, domains, space): (Vec<&[u32]>, &[u32], usize) = if direct {
            let columns = attrs
                .iter()
                .map(|&a| {
                    table
                        .column(a)
                        .as_categorical()
                        .expect("audited attributes are categorical")
                })
                .collect();
            (columns, &all_domains, space as usize)
        } else {
            (Vec::new(), &[], 0)
        };
        let mut bin_of = CodeColumn::zeroed(bins, rows);
        let mut keys = CodeColumn::zeroed(space, if direct { rows } else { 0 });
        let key_windows = if direct {
            windows(&mut keys, &ranges)
        } else {
            ranges
                .iter()
                .map(|_| CodeSliceMut::Narrow(&mut []))
                .collect()
        };
        let slots: Vec<Mutex<Option<(CodeSliceMut<'_>, CodeSliceMut<'_>)>>> =
            windows(&mut bin_of, &ranges)
                .into_iter()
                .zip(key_windows)
                .map(|pair| Mutex::new(Some(pair)))
                .collect();
        let per_range = WorkerPool::global().run_chunks(parallelism, ranges.len(), |r| {
            let windows = slots[r]
                .lock()
                .expect("range slot")
                .take()
                .expect("each range runs once");
            let first = ranges[r].start;
            let scores = &scores[ranges[r].clone()];
            let columns = columns.as_slice();
            let mut counts = vec![0u32; space * bins];
            use CodeSliceMut::{Narrow, Wide};
            match windows {
                (Narrow(b), Narrow(k)) => {
                    classify_range(spec, scores, first, columns, domains, b, k, &mut counts)
                }
                (Narrow(b), Wide(k)) => {
                    classify_range(spec, scores, first, columns, domains, b, k, &mut counts)
                }
                (Wide(b), Narrow(k)) => {
                    classify_range(spec, scores, first, columns, domains, b, k, &mut counts)
                }
                (Wide(b), Wide(k)) => {
                    classify_range(spec, scores, first, columns, domains, b, k, &mut counts)
                }
            }
            .map(|()| counts)
        });
        drop(slots);
        if !direct {
            per_range.into_iter().collect::<Result<Vec<_>, _>>()?;
            let cube = CellCube::from_table(table, attrs, &bin_of, bins, None, false, parallelism)?;
            return Ok((bin_of, cube));
        }
        let kept = RangeCounts::kept(ranges.len(), space, rows);
        let mut counts = vec![0u32; space * bins];
        let mut per_key = Vec::with_capacity(if kept { ranges.len() * space } else { 0 });
        for range in per_range {
            for (acc, range) in counts.chunks_mut(bins).zip(range?.chunks(bins)) {
                let mut held = 0;
                for (acc, &c) in acc.iter_mut().zip(range) {
                    *acc += c;
                    held += c;
                }
                if kept {
                    per_key.push(held);
                }
            }
        }
        let ranges = kept.then(|| RangeCounts::new(bounds, per_key));
        let cube = cube::direct_cube(attrs.to_vec(), keys, counts, domains, bins, None, ranges);
        Ok((bin_of, cube))
    }

    /// Build a context over the `live` rows of `table` (`None` = every
    /// row) from a prebuilt bin column. The filtered paths (FairQL
    /// `WHERE`, a stream snapshot's subset) pass no `base`: the cube is
    /// counted from the table's codes of the audited rows. The
    /// streaming fast path passes `base`, a cube of the `live` rows over
    /// every attribute the context may audit that a stream view keeps
    /// current; the context projects it onto its audited attributes in
    /// O(cells) and reads no row. Only the shared `validate` step runs
    /// here; the caller guarantees that every audited row's score is
    /// finite in `[0, 1]` and binned consistently with `config.bins`.
    /// Results are bit-identical to a cold [`AuditContext::new`] over a
    /// compacted table of the same rows.
    ///
    /// # Errors
    ///
    /// [`AuditError`] for empty tables/live sets, misaligned scores or
    /// bin columns, bad bin counts, or unusable attribute selections
    /// (including attributes `base` does not count).
    pub fn from_parts(
        table: &'a Table,
        scores: &'a [f64],
        config: AuditConfig,
        bin_of: Arc<CodeColumn>,
        live: Option<RowSet>,
        base: Option<&CellCube>,
        epoch: u64,
    ) -> Result<Self, AuditError> {
        let (spec, attributes) = Self::validate(
            table.schema(),
            table.len(),
            &[scores.len(), bin_of.len()],
            live.as_ref(),
            &config,
        )?;
        let (cube, cube_rows) = match base {
            Some(base) => {
                if let Some(&attr) = attributes
                    .iter()
                    .find(|&&a| !base.attributes().contains(&a))
                {
                    return Err(AuditError::BadAttribute {
                        name: table.schema().attribute(attr).name.clone(),
                        reason: "not counted by the maintained cube",
                    });
                }
                (base.project(&attributes, live), 0)
            }
            None => {
                let rows = live.as_ref().map_or(table.len(), RowSet::len) as u64;
                let parallelism = thread_budget(config.threads);
                let cube = CellCube::from_table(
                    table,
                    &attributes,
                    &bin_of,
                    spec.len(),
                    live,
                    false,
                    parallelism,
                )?;
                (cube.with_epoch(epoch), rows)
            }
        };
        let built = Built {
            spec,
            attributes,
            bin_of,
            cube,
            cube_rows,
            counters: BuildCounters::default(),
        };
        Ok(built.into_context(DataSource::Mem(table), Some(scores), config, epoch))
    }

    /// Build a context directly over an out-of-core [`PagedStore`] —
    /// the audit never materializes the table. Scores are validated and
    /// binned page-by-page (fused with the read, so the score pages are
    /// streamed once), then each audited attribute's code pages are
    /// folded into the rows' cube keys page by page, so the peak
    /// resident footprint is the bin and key columns plus the
    /// buffer-manager budget — never the raw columns, and no per-code
    /// postings. Results stay bit-identical to the in-memory audit of
    /// the materialized table, because classification is elementwise
    /// per page and the cube holds integer counts.
    ///
    /// `live` restricts the audit to a row subset (a FairQL `WHERE`
    /// filter, already within the store's own live set); `None` audits
    /// the store's live set. `baseline` is the page-counter snapshot
    /// this context's [`AuditContext::page_counters`] measures from —
    /// callers that ran their own pre-scans (e.g. the zone-mapped
    /// `WHERE` filter) pass the snapshot taken before those scans so
    /// the filter's page traffic is attributed to the audit; `None`
    /// snapshots at entry.
    ///
    /// # Errors
    ///
    /// [`AuditError`] for empty stores or live sets, stores without a
    /// score column, bad bin counts, unusable attribute selections,
    /// out-of-range scores, or unreadable/corrupt page files (a code
    /// outside its dictionary names the attribute and the row) — in the
    /// shared `validate` step's order, like every constructor.
    pub fn from_paged(
        store: &'a PagedStore,
        config: AuditConfig,
        live: Option<RowSet>,
        baseline: Option<PageCounters>,
    ) -> Result<Self, AuditError> {
        let baseline = baseline.unwrap_or_else(|| store.stats().snapshot());
        let rows = store.rows();
        let live = live.or_else(|| store.live().cloned());
        let scores = if store.has_scores() { rows } else { 0 };
        let (spec, attributes) =
            Self::validate(store.schema(), rows, &[scores], live.as_ref(), &config)?;
        let counters = BuildCounters::default();
        let bin_of = Self::classify_paged(store, &spec, live.as_ref(), &counters)?;
        let cube_rows = live.as_ref().map_or(rows, RowSet::len) as u64;
        let parallelism = thread_budget(config.threads);
        let cube = Self::cube_paged(
            store,
            &attributes,
            &bin_of,
            spec.len(),
            live,
            &counters,
            parallelism,
        )?
        .with_epoch(store.epoch());
        let built = Built {
            spec,
            attributes,
            bin_of: Arc::new(bin_of),
            cube,
            cube_rows,
            counters,
        };
        let mut ctx = built.into_context(DataSource::Paged(store), None, config, store.epoch());
        ctx.page_stats = Some((Arc::clone(store.stats()), baseline));
        Ok(ctx)
    }

    /// Fused paged classification: stream the score pages once,
    /// checking and binning each page with the binning kernel while it
    /// is cache-hot, straight into its window of a pre-zeroed
    /// whole-table column. Pages with no audited row are skipped and
    /// keep their zeros — those rows are outside every partition, so
    /// nothing reads them. The kernel is elementwise, so the column
    /// equals the serial whole-slice classification exactly.
    fn classify_paged(
        store: &PagedStore,
        spec: &BinSpec,
        live: Option<&RowSet>,
        counters: &BuildCounters,
    ) -> Result<CodeColumn, AuditError> {
        let mut bin_of = CodeColumn::zeroed(spec.len(), store.rows());
        let mut checked = Ok(());
        let mut classified = 0usize;
        let summary = store.scan_column(PagedColumn::Scores, live, None, |first_row, data| {
            let PageData::F64(values) = data else {
                return; // score pages are always F64; `open` validated kinds
            };
            let page = first_row..first_row + values.len();
            let binned = match &mut bin_of {
                CodeColumn::Narrow(out) => check_and_bin(spec, values, first_row, &mut out[page]),
                CodeColumn::Wide(out) => check_and_bin(spec, values, first_row, &mut out[page]),
            };
            if checked.is_ok() {
                checked = binned;
            }
            classified += values.len();
        })?;
        counters.note(summary.pages_scanned, classified);
        checked.map(|()| bin_of)
    }

    /// The paged cube: each audited attribute's code pages folded, page
    /// by page and in attribute order, into the rows' cube keys, then
    /// every audited row counted into its cell (keeping range counts for
    /// the row pass at `parallelism`). Pages without an audited row are
    /// skipped.
    ///
    /// # Errors
    ///
    /// [`AuditError::Paged`] naming the attribute (and the row) when a
    /// page is not a code page or holds a code outside the attribute's
    /// dictionary — a corrupt file, reported instead of panicking.
    fn cube_paged(
        store: &PagedStore,
        attrs: &[usize],
        bin_of: &CodeColumn,
        bins: usize,
        live: Option<RowSet>,
        counters: &BuildCounters,
        parallelism: usize,
    ) -> Result<CellCube, AuditError> {
        let domains = cube::domains(store.schema(), attrs);
        let audited = live.as_ref().map_or(store.rows(), RowSet::len);
        let mut fold = KeyFold::new(&domains, bins, store.rows(), audited, false);
        for (&attr, &domain) in attrs.iter().zip(&domains) {
            let name = &store.schema().attribute(attr).name;
            fold.start(domain, live.as_ref());
            let mut corrupt: Option<String> = None;
            let summary = store.scan_column(
                PagedColumn::Attribute(attr),
                live.as_ref(),
                None,
                |first_row, data| {
                    if corrupt.is_some() {
                        return;
                    }
                    let folded = match data {
                        PageData::Code8(codes) => fold.fold(first_row, codes),
                        PageData::Code32(codes) => fold.fold(first_row, codes),
                        _ => {
                            corrupt = Some(format!(
                                "attribute `{name}` page at row {first_row} is not a code page"
                            ));
                            return;
                        }
                    };
                    if let Err((at, code)) = folded {
                        corrupt = Some(format!(
                            "attribute `{name}` code {code} at row {} exceeds cardinality {domain}",
                            first_row + at
                        ));
                    }
                },
            )?;
            if let Some(reason) = corrupt {
                return Err(AuditError::Paged(reason));
            }
            counters.note(summary.pages_scanned, 0);
        }
        Ok(fold.finish(attrs.to_vec(), bin_of, live, parallelism))
    }

    fn resolve_attributes_in(
        schema: &Schema,
        config: &AuditConfig,
    ) -> Result<Vec<usize>, AuditError> {
        let attributes = match &config.attributes {
            None => schema.splittable(),
            Some(names) => {
                let splittable = schema.splittable();
                let mut attrs = Vec::with_capacity(names.len());
                for name in names {
                    let idx = schema
                        .index_of(name)
                        .map_err(|_| AuditError::BadAttribute {
                            name: name.clone(),
                            reason: "unknown",
                        })?;
                    if !splittable.contains(&idx) {
                        return Err(AuditError::BadAttribute {
                            name: name.clone(),
                            reason: "not a categorical protected attribute",
                        });
                    }
                    attrs.push(idx);
                }
                attrs
            }
        };
        if attributes.is_empty() {
            return Err(AuditError::NoAttributes);
        }
        Ok(attributes)
    }

    /// Seed warm engine caches for the next [`crate::EvalEngine`] built
    /// on this context. The engine adopts them at construction and
    /// hands them back (via [`AuditContext::take_engine_caches`]) when
    /// it drops — the streaming audit loop's cache hand-off.
    pub fn seed_engine_caches(&self, caches: EngineCaches) {
        *self.engine_caches.lock().expect("caches mutex poisoned") = Some(caches);
    }

    /// Take back the engine caches currently parked on this context
    /// (seeded but not yet adopted, or returned by a dropped engine).
    pub fn take_engine_caches(&self) -> Option<EngineCaches> {
        self.engine_caches
            .lock()
            .expect("caches mutex poisoned")
            .take()
    }

    /// Park engine caches on the context (the engine-drop write-back
    /// path; equivalent to [`AuditContext::seed_engine_caches`]).
    pub fn store_engine_caches(&self, caches: EngineCaches) {
        self.seed_engine_caches(caches);
    }

    /// The raw per-row scores, when resident (`None` for paged
    /// contexts, which bin scores page-by-page and never hold the
    /// vector).
    pub fn scores(&self) -> Option<&'a [f64]> {
        self.scores
    }

    /// The schema of the audited data (available on every context).
    pub fn schema(&self) -> &'a Schema {
        match self.source {
            DataSource::Mem(table) => table.schema(),
            DataSource::Paged(store) => store.schema(),
        }
    }

    /// Total rows of the underlying data, tombstoned rows included
    /// (the audited-row count is [`AuditContext::root`]'s length).
    pub fn rows(&self) -> usize {
        match self.source {
            DataSource::Mem(table) => table.len(),
            DataSource::Paged(store) => store.rows(),
        }
    }

    /// Page-cache traffic attributable to this context: the paged
    /// store's shared counters minus the baseline snapshot taken at
    /// build (or the caller-supplied one). All zeros for in-memory
    /// contexts.
    pub fn page_counters(&self) -> PageCounters {
        match &self.page_stats {
            Some((stats, baseline)) => stats.snapshot().since(baseline),
            None => PageCounters::default(),
        }
    }

    /// The histogram bin layout.
    pub fn spec(&self) -> &BinSpec {
        &self.spec
    }

    /// The configured histogram distance.
    pub fn distance(&self) -> &dyn HistogramDistance {
        self.distance.as_ref()
    }

    /// Candidate protected attributes (schema indexes).
    pub fn attributes(&self) -> &[usize] {
        &self.attributes
    }

    /// The configured engine worker-thread count (`None` = pick from
    /// the machine's available parallelism).
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The precomputed per-row bin indices (`bin_of().get(row)` =
    /// histogram bin of the row's score).
    pub fn bin_of(&self) -> &CodeColumn {
        &self.bin_of
    }

    /// The audited row subset, when restricted (`None` = all rows).
    pub fn live_rows(&self) -> Option<&RowSet> {
        self.cube.rows().live()
    }

    /// Epoch stamp of the audited data version (0 for batch audits).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cell cube of the audited attributes.
    pub fn cube(&self) -> &CellCube {
        &self.cube
    }

    /// Rows read to build the cube: every audited row once, or none
    /// when a stream view maintains the cube.
    pub fn cube_rows(&self) -> u64 {
        self.cube_rows
    }

    /// Classify tasks the build ran: one per row range in memory (see
    /// [`crate::EngineStats::shard_tasks`]), one per page read when
    /// paged.
    pub fn shard_tasks(&self) -> u64 {
        self.build_counters.shard_tasks.load(Ordering::Relaxed)
    }

    /// Rows the build classified into score bins (independent of the
    /// thread count).
    pub fn rows_classified_parallel(&self) -> u64 {
        self.build_counters
            .rows_classified_parallel
            .load(Ordering::Relaxed)
    }

    /// Histogram of the scores of `rows`, built from the precomputed
    /// bin column with integer counting (no per-value float
    /// binning, no float accumulation — bit-identical to the float
    /// path, see [`Histogram::from_bin_indices_u32`]).
    pub fn histogram(&self, rows: &RowSet) -> Histogram {
        Histogram::from_bin_indices_u32(
            self.spec.clone(),
            rows.iter().map(|row| self.bin_of.get(row)),
        )
    }

    /// The histogram of integer bin counts.
    fn counts_histogram(&self, counts: &[u32]) -> Histogram {
        Histogram::from_counts(
            self.spec.clone(),
            counts.iter().map(|&c| f64::from(c)).collect(),
        )
    }

    /// Build a row-built [`Partition`] from a predicate and its rows
    /// (repair audits arbitrary row groups this way). Row-built
    /// partitions are leaves: [`AuditContext::split`] splits only the
    /// partitions of the cube.
    pub fn partition(&self, predicate: Predicate, rows: RowSet) -> Partition {
        let histogram = self.histogram(&rows);
        Partition::new(predicate, rows, histogram)
    }

    /// The root partition: all audited workers (the live subset for
    /// streaming contexts), the always-true predicate — every cell of
    /// the cube.
    pub fn root(&self) -> Partition {
        let cells = self.cube.cells();
        let mut counts = vec![0u32; self.spec.len()];
        for cell in 0..cells {
            for (acc, &c) in counts.iter_mut().zip(self.cube.counts_of(cell)) {
                *acc += c;
            }
        }
        let len = counts.iter().map(|&c| c as usize).sum();
        Partition::of_cells(
            Predicate::always(),
            self.counts_histogram(&counts),
            (0..cells as u32).collect(),
            len,
            self.cube.rows(),
        )
    }

    /// Split `part` by attribute `attr`. Returns `None` when the split is
    /// impossible or void: the attribute already constrains the
    /// partition, is not audited, or every member shares one value
    /// (split would be a no-op), or `part` is row-built. Children are
    /// never empty.
    ///
    /// Groups the partition's cube cells by the attribute's code and
    /// sums their integer bin counts: O(cells × bins), no row read. The
    /// children hold their cells and build their rows on first use.
    /// `part` must come from this context's cube, or from a cube with
    /// the same [`CellCube::fingerprint`].
    pub fn split(&self, part: &Partition, attr: usize) -> Option<Vec<Partition>> {
        if part.predicate.constrains(attr) {
            return None;
        }
        let groups = self.cube.group(part.cells()?, self.cube.position(attr)?);
        (groups.len() > 1).then(|| {
            groups
                .into_iter()
                .map(|group| {
                    Partition::of_cells(
                        part.predicate.and(attr, group.code),
                        Histogram::from_counts(self.spec.clone(), group.counts),
                        group.cells,
                        group.len,
                        self.cube.rows(),
                    )
                })
                .collect()
        })
    }

    /// The full cartesian partitioning of the audited rows by `attrs`
    /// (non-empty cells only): the cube's cells grouped by their codes
    /// of `attrs`, so every cell carries one `attribute = code`
    /// constraint per attribute, including those all its members
    /// share. Cells come in lexicographic code-vector order —
    /// `fairjob_store::groupby::group_by_many`'s key order — and follow
    /// the context's audited rows on every source, paged ones included.
    /// Attributes the context does not audit are ignored.
    pub fn cells(&self, attrs: &[usize]) -> Vec<Partition> {
        let (attrs, at): (Vec<usize>, Vec<usize>) = attrs
            .iter()
            .filter_map(|&a| self.cube.position(a).map(|k| (a, k)))
            .unzip();
        self.cube
            .group_by_codes(&at)
            .iter()
            .map(|(codes, cells, counts)| {
                let predicate = Predicate::all_of(
                    attrs
                        .iter()
                        .zip(codes)
                        .map(|(&attr, &code)| EqConstraint { attr, code }),
                );
                Partition::of_cells(
                    predicate,
                    self.counts_histogram(counts),
                    cells.to_vec(),
                    counts.iter().map(|&c| c as usize).sum(),
                    self.cube.rows(),
                )
            })
            .collect()
    }

    /// `parts` with their row sets built in one row-order pass over the
    /// audited rows — how an algorithm returns the partitioning it
    /// found. Row-built partitions keep their rows.
    pub fn partitioning<P: Borrow<Partition>>(&self, parts: &[P]) -> Partitioning {
        let members: Vec<Option<(&[u32], usize)>> = parts
            .iter()
            .map(|p| {
                let p = p.borrow();
                p.cells().map(|cells| (cells, p.len()))
            })
            .collect();
        let rows = self
            .cube
            .rows()
            .rows_of_parts(&members, thread_budget(self.threads));
        Partitioning::new(
            parts
                .iter()
                .zip(rows)
                .map(|(p, rows)| {
                    let p = p.borrow();
                    let rows = match p.cells() {
                        Some(_) => rows,
                        None => p.rows().clone(),
                    };
                    Partition::new(p.predicate.clone(), rows, p.histogram.clone())
                })
                .collect(),
        )
    }

    /// The legacy split path: per-code posting intersections followed
    /// by a histogram build per child, the postings built from the
    /// table (a paged context's materialized). Semantically
    /// identical to [`AuditContext::split`]; kept as the cube's
    /// differential-test oracle and as the baseline the `split_search`
    /// bench measures against.
    pub fn split_legacy(&self, part: &Partition, attr: usize) -> Option<Vec<Partition>> {
        if part.predicate.constrains(attr) || self.cube.position(attr).is_none() {
            return None;
        }
        let index = match self.source {
            DataSource::Mem(table) => CategoricalIndex::build(table, attr).ok()?,
            DataSource::Paged(store) => {
                CategoricalIndex::build(&store.materialize().ok()?.0, attr).ok()?
            }
        };
        let groups = index.split(part.rows());
        if groups.len() <= 1 {
            return None;
        }
        Some(
            groups
                .into_iter()
                .map(|(code, rows)| self.partition(part.predicate.and(attr, code), rows))
                .collect(),
        )
    }

    /// Average pairwise distance over a set of partitions — Definition
    /// 2's `unfairness(P, f)`, computed naively by
    /// [`crate::unfairness::average_pairwise`]: the reference the
    /// engine's evaluations are checked against. Zero for fewer than two
    /// live partitions ([`Partition::is_live`]); the others are skipped.
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] if the configured distance fails
    /// (histogram layouts always match inside one context).
    pub fn unfairness(&self, parts: &[Partition]) -> Result<f64, AuditError> {
        let live: Vec<&Histogram> = parts
            .iter()
            .filter(|p| p.is_live())
            .map(|p| &p.histogram)
            .collect();
        average_pairwise(&live, self.distance.as_ref())
    }

    /// Average distance over **cross pairs only** (`group` × `siblings`)
    /// — the alternative, stricter reading of Algorithm 2's
    /// `averageEMD(current, siblings)`, and the naive reference of
    /// [`crate::EvalEngine::unfairness_cross`].
    ///
    /// # Errors
    ///
    /// As for [`AuditContext::unfairness`].
    pub fn unfairness_cross(
        &self,
        group: &[Partition],
        siblings: &[Partition],
    ) -> Result<f64, AuditError> {
        let ga: Vec<&Partition> = group.iter().filter(|p| p.is_live()).collect();
        let gb: Vec<&Partition> = siblings.iter().filter(|p| p.is_live()).collect();
        if ga.is_empty() || gb.is_empty() {
            return Ok(0.0);
        }
        let mut sum = 0.0;
        for a in &ga {
            for b in &gb {
                sum += self.distance.distance(&a.histogram, &b.histogram)?;
            }
        }
        Ok(sum / (ga.len() * gb.len()) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairjob_marketplace::toy::toy_workers;

    fn ctx_on_toy<'a>(table: &'a Table, scores: &'a [f64]) -> AuditContext<'a> {
        AuditContext::new(table, scores, AuditConfig::default()).unwrap()
    }

    #[test]
    fn validation_catches_bad_inputs() {
        let (t, scores) = toy_workers();
        // Misaligned scores.
        let err = AuditContext::new(&t, &scores[..5], AuditConfig::default()).unwrap_err();
        assert!(matches!(err, AuditError::ScoreLength { .. }));
        // Out-of-range score.
        let mut bad = scores.clone();
        bad[0] = 1.5;
        let err = AuditContext::new(&t, &bad, AuditConfig::default()).unwrap_err();
        assert!(matches!(err, AuditError::BadScore { row: 0, .. }));
        // NaN score.
        bad[0] = f64::NAN;
        assert!(AuditContext::new(&t, &bad, AuditConfig::default()).is_err());
        // Zero bins, and more bins than a layout may have.
        let err = AuditContext::new(&t, &scores, AuditConfig::with_bins(0)).unwrap_err();
        assert!(matches!(err, AuditError::Bins(_)));
        let too_many = AuditConfig::with_bins(fairjob_hist::bins::MAX_BINS + 1);
        let err = AuditContext::new(&t, &scores, too_many).unwrap_err();
        assert!(matches!(err, AuditError::Bins(_)));
    }

    /// Every constructor validates in one order — shape, then config,
    /// then per-row data — so a config error outranks a bad score on
    /// all three.
    #[test]
    fn constructors_report_errors_in_one_order() {
        let (t, mut scores) = toy_workers();
        scores[3] = 1.5;
        let mut path = std::env::temp_dir();
        path.push(format!("fairjob-context-errors-{}.fjp", std::process::id()));
        fairjob_store::paged::write_paged(&path, &t, Some(&scores), None, 0, 10).unwrap();
        let store = PagedStore::open(&path, 1 << 20).unwrap();
        let bin_of = Arc::new(CodeColumn::zeroed(10, t.len()));
        let unknown = AuditConfig {
            attributes: Some(vec!["nope".into()]),
            ..Default::default()
        };
        for config in [AuditConfig::with_bins(0), unknown] {
            let new = AuditContext::new(&t, &scores, config.clone()).unwrap_err();
            let paged = AuditContext::from_paged(&store, config.clone(), None, None).unwrap_err();
            let parts =
                AuditContext::from_parts(&t, &scores, config, Arc::clone(&bin_of), None, None, 0)
                    .unwrap_err();
            assert!(matches!(
                new,
                AuditError::Bins(_) | AuditError::BadAttribute { .. }
            ));
            assert_eq!(paged, new);
            assert_eq!(parts, new);
        }
        // With a usable config, the per-row pass names the first bad
        // score (parts contexts take scores as validated by the caller).
        let new = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap_err();
        assert!(matches!(new, AuditError::BadScore { row: 3, .. }));
        let paged = AuditContext::from_paged(&store, AuditConfig::default(), None, None);
        assert_eq!(paged.unwrap_err(), new);
        let _ = std::fs::remove_file(&path);
    }

    /// A one-attribute table of `rows` rows and its scores.
    fn tier_table(rows: usize) -> (Table, Vec<f64>) {
        use fairjob_store::schema::AttributeKind;
        use fairjob_store::table::Value;
        let schema = Schema::builder()
            .categorical("tier", AttributeKind::Protected, &["a", "b", "c"])
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        let labels = ["a", "b", "c"];
        for row in 0..rows {
            table.push_row(&[Value::cat(labels[row % 3])]).unwrap();
        }
        let scores = (0..rows).map(|row| (row % 101) as f64 / 100.0).collect();
        (table, scores)
    }

    /// `shard_tasks` counts the classify ranges that ran: one below
    /// 65 536 rows at any thread count, one per thread above, and no
    /// more than the pool runs at once.
    #[test]
    fn shard_tasks_count_the_classify_ranges_that_ran() {
        for (rows, threads, tasks) in [
            (500, 1, 1),
            (500, 2, 1),
            (500, 8, 1),
            (70_000, 1, 1),
            (70_000, 2, 2),
            (70_000, 3, 3),
            (70_000, 64, 9),
        ] {
            let (table, scores) = tier_table(rows);
            let config = AuditConfig {
                threads: Some(threads),
                ..AuditConfig::default()
            };
            let ctx = AuditContext::new(&table, &scores, config).unwrap();
            assert_eq!(ctx.shard_tasks(), tasks, "{rows} rows, {threads} threads");
            assert_eq!(ctx.rows_classified_parallel(), rows as u64);
        }
    }

    /// Bad scores in row ranges 3 and 5 of 8 (8 192 scores to a page,
    /// so also on two pages): the eight-range in-memory build and the
    /// paged build name the first bad row, as `check_scores` does.
    #[test]
    fn builds_name_the_first_bad_score() {
        let rows = 80_000;
        let (table, mut scores) = tier_table(rows);
        scores[52_001] = f64::NAN;
        scores[35_123] = 1.5;
        let first = check_scores(0, &scores).unwrap_err();
        assert_eq!(
            first,
            AuditError::BadScore {
                row: 35_123,
                value: 1.5
            }
        );
        let config = AuditConfig {
            threads: Some(8),
            ..AuditConfig::default()
        };
        let bounds = cube::row_ranges(rows, 8);
        assert!(
            (bounds[3]..bounds[4]).contains(&35_123) && (bounds[5]..bounds[6]).contains(&52_001)
        );
        let err = AuditContext::new(&table, &scores, config.clone()).unwrap_err();
        assert_eq!(err, first);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "fairjob-context-first-bad-{}.fjp",
            std::process::id()
        ));
        fairjob_store::paged::write_paged(&path, &table, Some(&scores), None, 0, 10).unwrap();
        let store = PagedStore::open(&path, 1 << 20).unwrap();
        let paged = AuditContext::from_paged(&store, config, None, None).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert_eq!(paged, first);
    }

    #[test]
    fn attribute_selection() {
        let (t, scores) = toy_workers();
        // Default: both protected attributes.
        let ctx = ctx_on_toy(&t, &scores);
        assert_eq!(ctx.attributes().len(), 2);
        // Explicit selection.
        let cfg = AuditConfig {
            attributes: Some(vec!["gender".into()]),
            ..Default::default()
        };
        let ctx = AuditContext::new(&t, &scores, cfg).unwrap();
        assert_eq!(ctx.attributes(), &[0]);
        // Unknown name.
        let cfg = AuditConfig {
            attributes: Some(vec!["nope".into()]),
            ..Default::default()
        };
        assert!(matches!(
            AuditContext::new(&t, &scores, cfg),
            Err(AuditError::BadAttribute { .. })
        ));
        // Observed attribute is not splittable.
        let cfg = AuditConfig {
            attributes: Some(vec!["score".into()]),
            ..Default::default()
        };
        assert!(matches!(
            AuditContext::new(&t, &scores, cfg),
            Err(AuditError::BadAttribute { .. })
        ));
    }

    #[test]
    fn root_covers_everything() {
        let (t, scores) = toy_workers();
        let ctx = ctx_on_toy(&t, &scores);
        let root = ctx.root();
        assert_eq!(root.len(), 10);
        assert_eq!(root.histogram.total(), 10.0);
    }

    #[test]
    fn split_by_gender() {
        let (t, scores) = toy_workers();
        let ctx = ctx_on_toy(&t, &scores);
        let children = ctx.split(&ctx.root(), 0).unwrap();
        assert_eq!(children.len(), 2);
        assert_eq!(children[0].len() + children[1].len(), 10);
        // Splitting a child again by the same attribute is refused.
        assert!(ctx.split(&children[0], 0).is_none());
    }

    #[test]
    fn split_single_valued_partition_is_none() {
        let (t, scores) = toy_workers();
        let ctx = ctx_on_toy(&t, &scores);
        let genders = ctx.split(&ctx.root(), 0).unwrap();
        let females = genders.into_iter().find(|p| p.len() == 4).unwrap();
        // All four females exist across three languages -> splits fine...
        assert!(ctx.split(&females, 1).is_some());
        // ...but a single-language subgroup cannot split by language.
        let by_lang = ctx.split(&females, 1).unwrap();
        for p in by_lang {
            assert!(ctx.split(&p, 1).is_none());
        }
    }

    #[test]
    fn unfairness_of_single_partition_is_zero() {
        let (t, scores) = toy_workers();
        let ctx = ctx_on_toy(&t, &scores);
        assert_eq!(ctx.unfairness(&[ctx.root()]).unwrap(), 0.0);
        assert_eq!(ctx.unfairness(&[]).unwrap(), 0.0);
    }

    #[test]
    fn unfairness_matches_hand_computation() {
        let (t, scores) = toy_workers();
        let ctx = ctx_on_toy(&t, &scores);
        let genders = ctx.split(&ctx.root(), 0).unwrap();
        // Males: bins 9,9,5,5,1,1 -> freq 1/3 each at bins 1,5,9.
        // Females: all in bin 0.
        // |CDF diffs| at the nine interior cuts: 1, 2/3, 2/3, 2/3, 2/3,
        // 1/3, 1/3, 1/3, 1/3 -> sum 5, times bin width 0.1 -> EMD 0.5.
        let u = ctx.unfairness(&genders).unwrap();
        assert!((u - 0.5).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn union_and_cross_unfairness() {
        let (t, scores) = toy_workers();
        let ctx = ctx_on_toy(&t, &scores);
        let genders = ctx.split(&ctx.root(), 0).unwrap();
        let (m, f) = (genders[0].clone(), genders[1].clone());
        let union = ctx.unfairness(&[m.clone(), f.clone()]).unwrap();
        let cross = ctx.unfairness_cross(&[m], &[f]).unwrap();
        assert!(
            (union - cross).abs() < 1e-12,
            "two partitions: both views agree"
        );
        assert_eq!(ctx.unfairness_cross(&[], &[ctx.root()]).unwrap(), 0.0);
    }
}
