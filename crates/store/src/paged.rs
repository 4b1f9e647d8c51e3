//! Out-of-core paged columnar storage.
//!
//! The in-memory [`crate::Table`] bounds audit scale by RAM. This module
//! persists a population (columns, scores, live set, epoch) into a
//! fixed-page on-disk format and serves reads through a budgeted
//! [`BufferManager`], so audits can stream datasets several times larger
//! than the memory budget:
//!
//! * **Pages.** Every column is cut into fixed 64 KiB pages
//!   ([`PAGE_SIZE`]): 8 192 `f64` rows per score/numeric page, 65 536
//!   rows per byte-code page, 16 384 per wide-code page.
//! * **Zone maps.** Each page's directory entry carries min/max for
//!   value pages and a 256-bit code-presence bitset for categorical
//!   pages. Scans consult the zone map first and skip pages that cannot
//!   match — the skip/scan decision is counted truthfully in
//!   [`PageCacheStats`] (`pages_skipped + pages_scanned` over one scan
//!   equals the column's page count).
//! * **Buffer manager.** Decoded pages live in a clock-evicted cache
//!   bounded by a byte budget. Pages handed out are `Arc`s; a page
//!   still referenced outside the cache is pinned and the clock hand
//!   passes it over. Hits, misses and evictions are counted.
//!
//! The format is self-describing: a text header (schema via
//! [`crate::schema_text`], row count, epoch, bin count, live bitmap)
//! followed by raw pages, the page directory, and a fixed footer
//! pointing back at the directory.
//!
//! Nothing here changes audit semantics: the paged scan kernels are
//! elementwise over the same values the in-memory kernels read, so
//! results are bit-identical (asserted by the parity tests and the
//! `paged_scan` bench).

use crate::column::Column;
use crate::rowset::RowSet;
use crate::schema::{DataType, Schema};
use crate::schema_text;
use crate::table::Table;
use crate::StoreError;
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed page size in bytes.
pub const PAGE_SIZE: usize = 64 * 1024;

/// File magic, written after the header and inside the footer.
const MAGIC: &[u8; 8] = b"FJPAGED1";

/// Column id the directory uses for the score column (scores are not a
/// schema attribute).
const SCORES_COLUMN: u32 = u32::MAX;

/// Errors raised by the paged store.
#[derive(Debug)]
pub enum PagedError {
    /// Underlying file I/O failure.
    Io(std::io::Error),
    /// The file is not a valid `fairjob-paged v1` file.
    Corrupt(String),
    /// Schema or column-level failure.
    Store(StoreError),
}

impl fmt::Display for PagedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PagedError::Io(e) => write!(f, "paged io: {e}"),
            PagedError::Corrupt(reason) => write!(f, "paged file corrupt: {reason}"),
            PagedError::Store(e) => write!(f, "paged store: {e}"),
        }
    }
}

impl std::error::Error for PagedError {}

impl From<std::io::Error> for PagedError {
    fn from(e: std::io::Error) -> Self {
        PagedError::Io(e)
    }
}

impl From<StoreError> for PagedError {
    fn from(e: StoreError) -> Self {
        PagedError::Store(e)
    }
}

/// Physical encoding of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Little-endian `f64` values (scores, numeric columns).
    F64,
    /// One byte per row: dictionary codes of a column with ≤ 256 values.
    Code8,
    /// Four bytes per row: dictionary codes of a wide column.
    Code32,
    /// Little-endian `i64` values (integer columns).
    I64,
}

impl PageKind {
    /// Bytes per row under this encoding.
    pub fn row_bytes(self) -> usize {
        match self {
            PageKind::F64 | PageKind::I64 => 8,
            PageKind::Code8 => 1,
            PageKind::Code32 => 4,
        }
    }

    /// Rows a full page of this kind holds.
    pub fn rows_per_page(self) -> usize {
        PAGE_SIZE / self.row_bytes()
    }

    fn tag(self) -> u8 {
        match self {
            PageKind::F64 => 0,
            PageKind::Code8 => 1,
            PageKind::Code32 => 2,
            PageKind::I64 => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, PagedError> {
        Ok(match tag {
            0 => PageKind::F64,
            1 => PageKind::Code8,
            2 => PageKind::Code32,
            3 => PageKind::I64,
            other => return Err(PagedError::Corrupt(format!("unknown page kind {other}"))),
        })
    }
}

/// Per-page zone map: enough to decide "can this page match?" without
/// reading the page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneMap {
    /// Minimum value on value pages (`NaN`-free inputs only; unused on
    /// code pages).
    pub min: f64,
    /// Maximum value on value pages.
    pub max: f64,
    /// 256-bit presence bitset of dictionary codes, when every code on
    /// the page fits (`None` for wide-code pages with codes ≥ 256 and
    /// for value pages).
    pub codes: Option<[u64; 4]>,
}

impl ZoneMap {
    /// Can a row with dictionary code `code` exist on this page?
    /// Conservative: `true` whenever the page carries no bitset.
    pub fn may_contain_code(&self, code: u32) -> bool {
        match &self.codes {
            None => true,
            Some(bits) => code >= 256 || bits[(code / 64) as usize] & (1u64 << (code % 64)) != 0,
        }
    }
}

/// One directory entry: where a page lives and what it covers.
#[derive(Debug, Clone)]
pub struct PageMeta {
    /// Schema attribute index, or [`SCORES_COLUMN`] for the score
    /// column.
    column: u32,
    /// Physical encoding.
    pub kind: PageKind,
    /// First row id the page covers.
    pub first_row: u64,
    /// Rows on the page (last page of a column may be short).
    pub rows: u32,
    /// Byte offset of the raw page data in the file.
    offset: u64,
    /// The page's zone map.
    pub zone: ZoneMap,
}

impl PageMeta {
    /// The row-id range the page covers.
    pub fn row_range(&self) -> std::ops::Range<usize> {
        self.first_row as usize..self.first_row as usize + self.rows as usize
    }
}

/// Which column a scan reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagedColumn {
    /// A schema attribute by index.
    Attribute(usize),
    /// The row-aligned score column.
    Scores,
}

/// Decoded page payload, as handed out by the buffer manager.
#[derive(Debug, Clone, PartialEq)]
pub enum PageData {
    /// Values of an `f64` page.
    F64(Vec<f64>),
    /// Codes of a byte-code page.
    Code8(Vec<u8>),
    /// Codes of a wide-code page.
    Code32(Vec<u32>),
    /// Values of an `i64` page.
    I64(Vec<i64>),
}

impl PageData {
    /// Rows on the page.
    pub fn rows(&self) -> usize {
        match self {
            PageData::F64(v) => v.len(),
            PageData::Code8(v) => v.len(),
            PageData::Code32(v) => v.len(),
            PageData::I64(v) => v.len(),
        }
    }

    /// The dictionary code at `i`, for code pages.
    ///
    /// # Panics
    ///
    /// On value pages (scan kernels only call this on code pages).
    pub fn code_at(&self, i: usize) -> u32 {
        match self {
            PageData::Code8(v) => u32::from(v[i]),
            PageData::Code32(v) => v[i],
            _ => panic!("code_at on a value page"),
        }
    }

    /// Heap bytes the decoded page occupies (what the buffer budget
    /// meters).
    pub fn heap_bytes(&self) -> usize {
        match self {
            PageData::F64(v) => v.len() * 8,
            PageData::Code8(v) => v.len(),
            PageData::Code32(v) => v.len() * 4,
            PageData::I64(v) => v.len() * 8,
        }
    }
}

/// Point-in-time values of the paged counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCounters {
    /// Page requests served from the cache.
    pub hits: u64,
    /// Page requests that went to disk.
    pub misses: u64,
    /// Cached pages dropped to respect the budget.
    pub evictions: u64,
    /// Pages a scan skipped via its zone map (or because no candidate
    /// row fell in the page's range) without reading them.
    pub pages_skipped: u64,
    /// Pages a scan actually consumed (cache hit or miss alike).
    pub pages_scanned: u64,
}

impl PageCounters {
    /// Counter-wise `self - earlier` (saturating): the activity between
    /// two snapshots of the same [`PageCacheStats`].
    pub fn since(&self, earlier: &PageCounters) -> PageCounters {
        PageCounters {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            pages_skipped: self.pages_skipped.saturating_sub(earlier.pages_skipped),
            pages_scanned: self.pages_scanned.saturating_sub(earlier.pages_scanned),
        }
    }
}

/// Shared, monotonically-growing counters of one store's page traffic.
/// Relaxed atomics: every increment is a fixed amount per event, so
/// totals are exact.
#[derive(Debug, Default)]
pub struct PageCacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    pages_skipped: AtomicU64,
    pages_scanned: AtomicU64,
}

impl PageCacheStats {
    /// Snapshot the current counter values.
    pub fn snapshot(&self) -> PageCounters {
        PageCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pages_skipped: self.pages_skipped.load(Ordering::Relaxed),
            pages_scanned: self.pages_scanned.load(Ordering::Relaxed),
        }
    }

    fn note_skip(&self) {
        self.pages_skipped.fetch_add(1, Ordering::Relaxed);
    }

    fn note_scan(&self) {
        self.pages_scanned.fetch_add(1, Ordering::Relaxed);
    }
}

/// What one zone-mapped scan did, beyond its row result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSummary {
    /// Pages consumed.
    pub pages_scanned: usize,
    /// Pages skipped without reading.
    pub pages_skipped: usize,
    /// Rows tested on the consumed pages.
    pub rows_examined: usize,
}

/// A clock-evicted, byte-budgeted cache of decoded pages.
///
/// Pages are shared out as `Arc<PageData>`; a page whose `Arc` is still
/// held outside the cache counts as **pinned** and the clock hand
/// passes it over (its memory is charged to the holder, not the
/// budget). With every resident page pinned the cache temporarily
/// overflows instead of failing — eviction resumes as pins drop.
#[derive(Debug)]
pub struct BufferManager {
    budget_bytes: usize,
    inner: Mutex<Frames>,
    stats: Arc<PageCacheStats>,
}

#[derive(Debug, Default)]
struct Frames {
    /// Resident pages by page id (directory index).
    resident: std::collections::HashMap<u32, Frame>,
    /// Clock ring of resident page ids (lazily compacted).
    ring: Vec<u32>,
    hand: usize,
    cached_bytes: usize,
}

#[derive(Debug)]
struct Frame {
    data: Arc<PageData>,
    /// Second-chance bit: set on every hit, cleared (once) by the hand.
    referenced: bool,
}

impl BufferManager {
    /// A manager with `budget_bytes` of decoded-page budget (clamped to
    /// at least one page).
    pub fn new(budget_bytes: usize) -> Self {
        BufferManager {
            budget_bytes: budget_bytes.max(PAGE_SIZE),
            inner: Mutex::new(Frames::default()),
            stats: Arc::new(PageCacheStats::default()),
        }
    }

    /// The configured budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// The shared traffic counters.
    pub fn stats(&self) -> &Arc<PageCacheStats> {
        &self.stats
    }

    /// The page, from cache or via `load` on a miss. Eviction runs
    /// after insertion until the budget is met or only pinned pages
    /// remain.
    fn get(
        &self,
        page: u32,
        load: impl FnOnce() -> Result<PageData, PagedError>,
    ) -> Result<Arc<PageData>, PagedError> {
        let mut frames = self.inner.lock().expect("buffer mutex poisoned");
        if let Some(frame) = frames.resident.get_mut(&page) {
            frame.referenced = true;
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&frame.data));
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let data = Arc::new(load()?);
        frames.cached_bytes += data.heap_bytes();
        frames.resident.insert(
            page,
            Frame {
                data: Arc::clone(&data),
                referenced: true,
            },
        );
        frames.ring.push(page);
        self.evict_over_budget(&mut frames);
        Ok(data)
    }

    /// Clock sweep: drop unpinned, unreferenced pages until the budget
    /// is met. Bounded at two full revolutions per call (first clears
    /// reference bits, second evicts) so an all-pinned cache cannot
    /// spin.
    fn evict_over_budget(&self, frames: &mut Frames) {
        let mut steps = frames.ring.len().saturating_mul(2);
        while frames.cached_bytes > self.budget_bytes && steps > 0 {
            steps -= 1;
            if frames.ring.is_empty() {
                break;
            }
            if frames.hand >= frames.ring.len() {
                frames.hand = 0;
            }
            let page = frames.ring[frames.hand];
            let Some(frame) = frames.resident.get_mut(&page) else {
                // Stale ring slot from an earlier eviction: compact.
                frames.ring.swap_remove(frames.hand);
                continue;
            };
            // Pinned: an Arc besides the cache's own is live.
            if Arc::strong_count(&frame.data) > 1 {
                frames.hand += 1;
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                frames.hand += 1;
                continue;
            }
            let bytes = frame.data.heap_bytes();
            frames.resident.remove(&page);
            frames.ring.swap_remove(frames.hand);
            frames.cached_bytes -= bytes;
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pages currently resident (tests and introspection).
    pub fn resident_pages(&self) -> usize {
        self.inner
            .lock()
            .expect("buffer mutex poisoned")
            .resident
            .len()
    }
}

/// Summary returned by [`write_paged`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedWriteSummary {
    /// Rows written.
    pub rows: usize,
    /// Data pages written (directory length).
    pub pages: usize,
    /// Total file bytes.
    pub bytes: u64,
}

fn zone_of_f64(values: &[f64]) -> ZoneMap {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        if v < min {
            min = v;
        }
        if v > max {
            max = v;
        }
    }
    ZoneMap {
        min,
        max,
        codes: None,
    }
}

fn zone_of_codes(codes: impl Iterator<Item = u32>) -> ZoneMap {
    let mut bits = [0u64; 4];
    let mut narrow = true;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for code in codes {
        min = min.min(f64::from(code));
        max = max.max(f64::from(code));
        if code < 256 {
            bits[(code / 64) as usize] |= 1u64 << (code % 64);
        } else {
            narrow = false;
        }
    }
    ZoneMap {
        min,
        max,
        codes: narrow.then_some(bits),
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a>(&'a [u8], usize);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], PagedError> {
        if self.1 + n > self.0.len() {
            return Err(PagedError::Corrupt("truncated directory".into()));
        }
        let s = &self.0[self.1..self.1 + n];
        self.1 += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PagedError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PagedError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, PagedError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u8(&mut self) -> Result<u8, PagedError> {
        Ok(self.take(1)?[0])
    }
}

/// Write a population to the paged format.
///
/// `scores` must be row-aligned when present; `live` (when not every
/// row) is stored as a bitmap in the header; `epoch` and `bins` are
/// carried verbatim for snapshot restarts. Categorical columns with a
/// dictionary of ≤ 256 values are byte-narrowed on disk.
///
/// # Errors
///
/// [`PagedError::Io`] on write failures, [`PagedError::Store`] when the
/// schema cannot be serialised, [`PagedError::Corrupt`] on misaligned
/// inputs.
pub fn write_paged(
    path: &Path,
    table: &Table,
    scores: Option<&[f64]>,
    live: Option<&RowSet>,
    epoch: u64,
    bins: usize,
) -> Result<PagedWriteSummary, PagedError> {
    let rows = table.len();
    if let Some(scores) = scores {
        if scores.len() != rows {
            return Err(PagedError::Corrupt(format!(
                "{} scores for {rows} rows",
                scores.len()
            )));
        }
    }
    let mut header = String::from("# fairjob paged v1\n");
    header.push_str(&format!("rows {rows}\n"));
    header.push_str(&format!("epoch {epoch}\n"));
    header.push_str(&format!("bins {bins}\n"));
    header.push_str(&format!("scores {}\n", u8::from(scores.is_some())));
    header.push_str("schema\n");
    header.push_str(&schema_text::to_text(&map_domains(
        table.schema(),
        escape_label,
    )?)?);

    let mut live_bytes = Vec::new();
    if let Some(live) = live {
        if live.len() != rows {
            live_bytes = vec![0u8; rows.div_ceil(8)];
            for row in live.iter() {
                if row >= rows {
                    return Err(PagedError::Corrupt(format!(
                        "live row {row} beyond {rows} rows"
                    )));
                }
                live_bytes[row / 8] |= 1 << (row % 8);
            }
        }
    }

    let file = File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    out.write_all(MAGIC)?;
    out.write_all(&(header.len() as u64).to_le_bytes())?;
    out.write_all(header.as_bytes())?;
    out.write_all(&(live_bytes.len() as u64).to_le_bytes())?;
    out.write_all(&live_bytes)?;
    let mut offset = (MAGIC.len() + 8 + header.len() + 8 + live_bytes.len()) as u64;

    let mut directory: Vec<PageMeta> = Vec::new();
    let mut page_buf: Vec<u8> = Vec::with_capacity(PAGE_SIZE);
    let emit = |out: &mut std::io::BufWriter<File>,
                offset: &mut u64,
                directory: &mut Vec<PageMeta>,
                column: u32,
                kind: PageKind,
                first_row: usize,
                page_rows: usize,
                zone: ZoneMap,
                bytes: &[u8]|
     -> Result<(), PagedError> {
        out.write_all(bytes)?;
        directory.push(PageMeta {
            column,
            kind,
            first_row: first_row as u64,
            rows: page_rows as u32,
            offset: *offset,
            zone,
        });
        *offset += bytes.len() as u64;
        Ok(())
    };

    // Scores first (the audit's hottest scan), then schema columns.
    if let Some(scores) = scores {
        for (i, chunk) in scores.chunks(PageKind::F64.rows_per_page()).enumerate() {
            page_buf.clear();
            for &v in chunk {
                put_f64(&mut page_buf, v);
            }
            emit(
                &mut out,
                &mut offset,
                &mut directory,
                SCORES_COLUMN,
                PageKind::F64,
                i * PageKind::F64.rows_per_page(),
                chunk.len(),
                zone_of_f64(chunk),
                &page_buf,
            )?;
        }
    }
    for (attr, def) in table.schema().attributes().iter().enumerate() {
        match (&def.dtype, table.column(attr)) {
            (DataType::Categorical { .. }, Column::Categorical(codes)) => {
                let narrow = def.cardinality().is_some_and(|c| c <= 256);
                let kind = if narrow {
                    PageKind::Code8
                } else {
                    PageKind::Code32
                };
                for (i, chunk) in codes.chunks(kind.rows_per_page()).enumerate() {
                    page_buf.clear();
                    if narrow {
                        page_buf.extend(chunk.iter().map(|&c| c as u8));
                    } else {
                        for &c in chunk {
                            put_u32(&mut page_buf, c);
                        }
                    }
                    emit(
                        &mut out,
                        &mut offset,
                        &mut directory,
                        attr as u32,
                        kind,
                        i * kind.rows_per_page(),
                        chunk.len(),
                        zone_of_codes(chunk.iter().copied()),
                        &page_buf,
                    )?;
                }
            }
            (_, Column::Numeric(values)) => {
                for (i, chunk) in values.chunks(PageKind::F64.rows_per_page()).enumerate() {
                    page_buf.clear();
                    for &v in chunk {
                        put_f64(&mut page_buf, v);
                    }
                    emit(
                        &mut out,
                        &mut offset,
                        &mut directory,
                        attr as u32,
                        PageKind::F64,
                        i * PageKind::F64.rows_per_page(),
                        chunk.len(),
                        zone_of_f64(chunk),
                        &page_buf,
                    )?;
                }
            }
            (_, Column::Integer(values)) => {
                for (i, chunk) in values.chunks(PageKind::I64.rows_per_page()).enumerate() {
                    page_buf.clear();
                    for &v in chunk {
                        page_buf.extend_from_slice(&v.to_le_bytes());
                    }
                    let zone = {
                        let mut min = f64::INFINITY;
                        let mut max = f64::NEG_INFINITY;
                        for &v in chunk {
                            min = min.min(v as f64);
                            max = max.max(v as f64);
                        }
                        ZoneMap {
                            min,
                            max,
                            codes: None,
                        }
                    };
                    emit(
                        &mut out,
                        &mut offset,
                        &mut directory,
                        attr as u32,
                        PageKind::I64,
                        i * PageKind::I64.rows_per_page(),
                        chunk.len(),
                        zone,
                        &page_buf,
                    )?;
                }
            }
            _ => {
                return Err(PagedError::Corrupt(format!(
                    "column `{}` disagrees with its schema type",
                    def.name
                )))
            }
        }
    }

    // Directory, then the footer pointing at it.
    let dir_offset = offset;
    let mut dir = Vec::with_capacity(directory.len() * 64);
    put_u64(&mut dir, directory.len() as u64);
    for meta in &directory {
        put_u32(&mut dir, meta.column);
        dir.push(meta.kind.tag());
        put_u64(&mut dir, meta.first_row);
        put_u32(&mut dir, meta.rows);
        put_u64(&mut dir, meta.offset);
        put_f64(&mut dir, meta.zone.min);
        put_f64(&mut dir, meta.zone.max);
        dir.push(u8::from(meta.zone.codes.is_some()));
        for word in meta.zone.codes.unwrap_or_default() {
            put_u64(&mut dir, word);
        }
    }
    out.write_all(&dir)?;
    out.write_all(&dir_offset.to_le_bytes())?;
    out.write_all(MAGIC)?;
    out.flush()?;
    let bytes = dir_offset + dir.len() as u64 + 16;
    Ok(PagedWriteSummary {
        rows,
        pages: directory.len(),
        bytes,
    })
}

/// An opened paged population: directory and header in memory, page
/// data served on demand through the [`BufferManager`].
#[derive(Debug)]
pub struct PagedStore {
    file: Mutex<File>,
    schema: Schema,
    rows: usize,
    epoch: u64,
    bins: usize,
    live: Option<RowSet>,
    directory: Vec<PageMeta>,
    /// Page ids (directory indexes) per column, in row order; the score
    /// column's pages sit at index `schema.width()`.
    by_column: Vec<Vec<u32>>,
    buffer: BufferManager,
}

impl PagedStore {
    /// Open a paged file with a decoded-page budget of `mem_budget`
    /// bytes (the `--mem-budget` knob; clamped to at least one page).
    ///
    /// # Errors
    ///
    /// [`PagedError::Io`] on read failures, [`PagedError::Corrupt`] on
    /// format violations.
    pub fn open(path: &Path, mem_budget: usize) -> Result<Self, PagedError> {
        let mut file = File::open(path)?;
        let len = file.seek(SeekFrom::End(0))?;
        if len < 16 + MAGIC.len() as u64 {
            return Err(PagedError::Corrupt("file too short".into()));
        }
        let mut head = [0u8; 16];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut head)?;
        if &head[..8] != MAGIC {
            return Err(PagedError::Corrupt("bad magic".into()));
        }
        // Every length read from the file is bounded by the bytes left
        // in it before anything is allocated for it.
        let header_len = u64::from_le_bytes(head[8..].try_into().unwrap());
        if header_len > len - 16 {
            return Err(PagedError::Corrupt("header longer than the file".into()));
        }
        let mut header = vec![0u8; header_len as usize];
        file.read_exact(&mut header)?;
        let header = String::from_utf8(header)
            .map_err(|_| PagedError::Corrupt("header is not UTF-8".into()))?;
        let (rows, epoch, bins, has_scores, schema) = parse_header(&header)?;
        let mut live_len = [0u8; 8];
        file.read_exact(&mut live_len)?;
        let live_len = u64::from_le_bytes(live_len);
        let live = if live_len == 0 {
            None
        } else {
            // One bit per row: with the length pinned to the row count,
            // the row loop below is bounded by the file size too.
            if live_len > len - file.stream_position()? || live_len != rows.div_ceil(8) as u64 {
                return Err(PagedError::Corrupt(format!(
                    "live bitmap of {live_len} bytes for {rows} rows"
                )));
            }
            let mut bytes = vec![0u8; live_len as usize];
            file.read_exact(&mut bytes)?;
            let mut live_rows = Vec::new();
            for row in 0..rows {
                if bytes
                    .get(row / 8)
                    .is_some_and(|b| b & (1 << (row % 8)) != 0)
                {
                    live_rows.push(row as u32);
                }
            }
            Some(RowSet::from_sorted(live_rows))
        };

        // Page data sits between the live bitmap and the directory.
        let data_start = 16 + header_len + 8 + live_len;

        // Footer → directory.
        let mut footer = [0u8; 16];
        file.seek(SeekFrom::Start(len - 16))?;
        file.read_exact(&mut footer)?;
        if &footer[8..] != MAGIC {
            return Err(PagedError::Corrupt("bad footer magic".into()));
        }
        let dir_offset = u64::from_le_bytes(footer[..8].try_into().unwrap());
        if dir_offset >= len - 16 || dir_offset < data_start {
            return Err(PagedError::Corrupt("directory offset out of range".into()));
        }
        let mut dir_bytes = vec![0u8; (len - 16 - dir_offset) as usize];
        file.seek(SeekFrom::Start(dir_offset))?;
        file.read_exact(&mut dir_bytes)?;
        let mut r = Reader(&dir_bytes, 0);
        let count = r.u64()? as usize;
        // Grown entry by entry, not sized from `count`: the loop stops
        // at the first entry the directory's bytes cannot hold.
        let mut directory = Vec::new();
        let mut by_column: Vec<Vec<u32>> = vec![Vec::new(); schema.width() + 1];
        for id in 0..count {
            let column = r.u32()?;
            let kind = PageKind::from_tag(r.u8()?)?;
            let first_row = r.u64()?;
            let page_rows = r.u32()?;
            let offset = r.u64()?;
            let min = r.f64()?;
            let max = r.f64()?;
            let has_bits = r.u8()? != 0;
            let mut bits = [0u64; 4];
            for word in &mut bits {
                *word = r.u64()?;
            }
            let slot = if column == SCORES_COLUMN {
                if !has_scores {
                    return Err(PagedError::Corrupt("score page without scores".into()));
                }
                schema.width()
            } else {
                let c = column as usize;
                if c >= schema.width() {
                    return Err(PagedError::Corrupt(format!("page for column {c}")));
                }
                c
            };
            // A page decodes as its column's type, or an audit would
            // read its bytes as another column's values.
            let fits = match schema.attributes().get(slot).map(|def| &def.dtype) {
                None => kind == PageKind::F64,
                Some(DataType::Categorical { .. }) => {
                    matches!(kind, PageKind::Code8 | PageKind::Code32)
                }
                Some(DataType::Numeric { .. }) => kind == PageKind::F64,
                Some(DataType::Integer { .. }) => kind == PageKind::I64,
            };
            if !fits {
                return Err(PagedError::Corrupt(format!(
                    "page {id} is a {kind:?} page; its column is not stored in those"
                )));
            }
            // Each page's rows and bytes are bounded by its kind and by
            // the data region, so no page read allocates more than a
            // page and the row count is bounded by the file size.
            if page_rows as usize > kind.rows_per_page() {
                return Err(PagedError::Corrupt(format!(
                    "page {id} holds {page_rows} rows; a {kind:?} page holds at most {}",
                    kind.rows_per_page()
                )));
            }
            let end = offset.checked_add(u64::from(page_rows) * kind.row_bytes() as u64);
            if offset < data_start || end.is_none_or(|end| end > dir_offset) {
                return Err(PagedError::Corrupt(format!(
                    "page {id} lies outside the data region"
                )));
            }
            by_column[slot].push(id as u32);
            directory.push(PageMeta {
                column,
                kind,
                first_row,
                rows: page_rows,
                offset,
                zone: ZoneMap {
                    min,
                    max,
                    codes: has_bits.then_some(bits),
                },
            });
        }
        // No two pages share a byte, so the pages' rows add up to at
        // most the data region's bytes.
        let mut extents: Vec<(u64, u64)> = directory
            .iter()
            .map(|m| {
                (
                    m.offset,
                    m.offset + u64::from(m.rows) * m.kind.row_bytes() as u64,
                )
            })
            .collect();
        extents.sort_unstable();
        if extents.windows(2).any(|w| w[1].0 < w[0].1) {
            return Err(PagedError::Corrupt("overlapping pages".into()));
        }
        // Row coverage sanity: every schema column's pages, and the
        // score column's when the file has scores, must tile 0..rows in
        // order.
        let covered = schema.width() + usize::from(has_scores);
        for pages in &by_column[..covered] {
            let mut at = 0u64;
            for &id in pages.iter() {
                let meta = &directory[id as usize];
                if meta.first_row != at {
                    return Err(PagedError::Corrupt(format!(
                        "page gap at row {at} (page starts at {})",
                        meta.first_row
                    )));
                }
                at += u64::from(meta.rows);
            }
            if at != rows as u64 {
                return Err(PagedError::Corrupt(format!(
                    "column covers {at} of {rows} rows"
                )));
            }
        }
        Ok(PagedStore {
            file: Mutex::new(file),
            schema,
            rows,
            epoch,
            bins,
            live,
            directory,
            by_column,
            buffer: BufferManager::new(mem_budget),
        })
    }

    /// The population schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows (tombstoned rows included).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The stored epoch stamp.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The stored histogram bin count (0 when unspecified).
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// The stored live row set (`None` = every row live).
    pub fn live(&self) -> Option<&RowSet> {
        self.live.as_ref()
    }

    /// Whether the file carries a score column.
    pub fn has_scores(&self) -> bool {
        !self.by_column[self.schema.width()].is_empty()
    }

    /// Total data pages (the page-directory length).
    pub fn directory_len(&self) -> usize {
        self.directory.len()
    }

    /// Metadata of page `id`.
    pub fn page_meta(&self, id: u32) -> &PageMeta {
        &self.directory[id as usize]
    }

    /// Page ids of a column, in row order.
    pub fn pages_of(&self, column: PagedColumn) -> &[u32] {
        match column {
            PagedColumn::Attribute(attr) => &self.by_column[attr],
            PagedColumn::Scores => &self.by_column[self.schema.width()],
        }
    }

    /// The buffer manager serving this store's pages.
    pub fn buffer(&self) -> &BufferManager {
        &self.buffer
    }

    /// The shared page-traffic counters.
    pub fn stats(&self) -> &Arc<PageCacheStats> {
        self.buffer.stats()
    }

    /// Fetch one page (cache hit or disk read).
    ///
    /// # Errors
    ///
    /// [`PagedError::Io`] / [`PagedError::Corrupt`].
    pub fn page(&self, id: u32) -> Result<Arc<PageData>, PagedError> {
        let meta = self.directory[id as usize].clone();
        self.buffer.get(id, || self.load(&meta))
    }

    fn load(&self, meta: &PageMeta) -> Result<PageData, PagedError> {
        let bytes = meta.rows as usize * meta.kind.row_bytes();
        let mut buf = vec![0u8; bytes];
        {
            let mut file = self.file.lock().expect("paged file mutex poisoned");
            file.seek(SeekFrom::Start(meta.offset))?;
            file.read_exact(&mut buf)?;
        }
        Ok(match meta.kind {
            PageKind::F64 => PageData::F64(
                buf.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            PageKind::I64 => PageData::I64(
                buf.chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            PageKind::Code8 => PageData::Code8(buf),
            PageKind::Code32 => PageData::Code32(
                buf.chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
        })
    }

    /// Stream a column page-by-page in row order, skipping (and
    /// counting) pages that cannot contribute: pages with no row of
    /// `candidates` in range, and — when `must_contain` is given —
    /// pages whose zone map rules the code out. `visit` receives the
    /// page's first row and its decoded data.
    ///
    /// # Errors
    ///
    /// [`PagedError`] from page reads.
    pub fn scan_column(
        &self,
        column: PagedColumn,
        candidates: Option<&RowSet>,
        must_contain: Option<u32>,
        mut visit: impl FnMut(usize, &PageData),
    ) -> Result<ScanSummary, PagedError> {
        let mut summary = ScanSummary::default();
        for &id in self.pages_of(column) {
            let meta = &self.directory[id as usize];
            let range = meta.row_range();
            let relevant = candidates.is_none_or(|c| {
                let rows = c.rows();
                let from = rows.partition_point(|&r| (r as usize) < range.start);
                rows.get(from).is_some_and(|&r| (r as usize) < range.end)
            });
            let zone_ok = must_contain.is_none_or(|code| meta.zone.may_contain_code(code));
            if !relevant || !zone_ok {
                summary.pages_skipped += 1;
                self.stats().note_skip();
                continue;
            }
            let data = self.page(id)?;
            summary.pages_scanned += 1;
            summary.rows_examined += data.rows();
            self.stats().note_scan();
            visit(range.start, &data);
        }
        Ok(summary)
    }

    /// Zone-mapped conjunction filter: rows matching every
    /// `(attribute, code)` constraint (within the stored live set, when
    /// present). Constraints are applied in the given order, each
    /// narrowing the candidate set the next one scans — pages with no
    /// surviving candidate, or whose zone map excludes the wanted code,
    /// are skipped without reading.
    ///
    /// # Errors
    ///
    /// [`PagedError`] from page reads, or [`PagedError::Store`] when a
    /// constraint names a non-categorical attribute.
    pub fn scan_matching(
        &self,
        constraints: &[(usize, u32)],
    ) -> Result<(RowSet, ScanSummary), PagedError> {
        let mut acc: Option<RowSet> = self.live.clone();
        let mut total = ScanSummary::default();
        for &(attr, code) in constraints {
            if !matches!(
                self.schema.attribute(attr).dtype,
                DataType::Categorical { .. }
            ) {
                return Err(PagedError::Store(StoreError::NotCategorical {
                    attribute: self.schema.attribute(attr).name.clone(),
                }));
            }
            let mut matched: Vec<u32> = Vec::new();
            let summary = self.scan_column(
                PagedColumn::Attribute(attr),
                acc.as_ref(),
                Some(code),
                |first_row, data| match &acc {
                    None => {
                        for i in 0..data.rows() {
                            if data.code_at(i) == code {
                                matched.push((first_row + i) as u32);
                            }
                        }
                    }
                    Some(acc) => {
                        let rows = acc.rows();
                        let end = first_row + data.rows();
                        let from = rows.partition_point(|&r| (r as usize) < first_row);
                        for &row in &rows[from..] {
                            if row as usize >= end {
                                break;
                            }
                            if data.code_at(row as usize - first_row) == code {
                                matched.push(row);
                            }
                        }
                    }
                },
            )?;
            total.pages_scanned += summary.pages_scanned;
            total.pages_skipped += summary.pages_skipped;
            total.rows_examined += summary.rows_examined;
            acc = Some(RowSet::from_sorted(matched));
            if acc.as_ref().is_some_and(RowSet::is_empty) {
                break;
            }
        }
        Ok((acc.unwrap_or_else(|| RowSet::all(self.rows)), total))
    }

    /// Distinct codes of `attr` present in the data, from zone-map
    /// bitsets alone (no page reads). `None` when any page lacks a
    /// bitset (wide dictionaries) — callers fall back to the schema
    /// cardinality.
    pub fn present_codes(&self, attr: usize) -> Option<Vec<u32>> {
        let mut bits = [0u64; 4];
        for &id in self.pages_of(PagedColumn::Attribute(attr)) {
            let page_bits = self.directory[id as usize].zone.codes?;
            for (acc, word) in bits.iter_mut().zip(page_bits) {
                *acc |= word;
            }
        }
        let mut present = Vec::new();
        for code in 0..256u32 {
            if bits[(code / 64) as usize] & (1u64 << (code % 64)) != 0 {
                present.push(code);
            }
        }
        Some(present)
    }

    /// Materialise the whole population back into memory: the table,
    /// the scores (when stored). The snapshot-restart path — after this
    /// the caller is in ordinary in-memory territory.
    ///
    /// # Errors
    ///
    /// [`PagedError`] from page reads; [`PagedError::Corrupt`] when a
    /// column's pages decode to the wrong type.
    pub fn materialize(&self) -> Result<(Table, Option<Vec<f64>>), PagedError> {
        let mut columns: Vec<Column> = Vec::with_capacity(self.schema.width());
        for (attr, def) in self.schema.attributes().iter().enumerate() {
            let col = PagedColumn::Attribute(attr);
            match def.dtype {
                DataType::Categorical { .. } => {
                    let mut codes: Vec<u32> = Vec::with_capacity(self.rows);
                    self.scan_column(col, None, None, |_, data| match data {
                        PageData::Code8(v) => codes.extend(v.iter().map(|&c| u32::from(c))),
                        PageData::Code32(v) => codes.extend_from_slice(v),
                        _ => {}
                    })?;
                    if codes.len() != self.rows {
                        return Err(PagedError::Corrupt(format!(
                            "column `{}` decoded {} of {} rows",
                            def.name,
                            codes.len(),
                            self.rows
                        )));
                    }
                    columns.push(Column::Categorical(codes));
                }
                DataType::Numeric { .. } => {
                    let mut values: Vec<f64> = Vec::with_capacity(self.rows);
                    self.scan_column(col, None, None, |_, data| {
                        if let PageData::F64(v) = data {
                            values.extend_from_slice(v);
                        }
                    })?;
                    if values.len() != self.rows {
                        return Err(PagedError::Corrupt(format!(
                            "column `{}` decoded {} of {} rows",
                            def.name,
                            values.len(),
                            self.rows
                        )));
                    }
                    columns.push(Column::Numeric(values));
                }
                DataType::Integer { .. } => {
                    let mut values: Vec<i64> = Vec::with_capacity(self.rows);
                    self.scan_column(col, None, None, |_, data| {
                        if let PageData::I64(v) = data {
                            values.extend_from_slice(v);
                        }
                    })?;
                    if values.len() != self.rows {
                        return Err(PagedError::Corrupt(format!(
                            "column `{}` decoded {} of {} rows",
                            def.name,
                            values.len(),
                            self.rows
                        )));
                    }
                    columns.push(Column::Integer(values));
                }
            }
        }
        let table = Table::from_columns(self.schema.clone(), columns)?;
        let scores = if self.has_scores() {
            let mut values: Vec<f64> = Vec::with_capacity(self.rows);
            self.scan_column(PagedColumn::Scores, None, None, |_, data| {
                if let PageData::F64(v) = data {
                    values.extend_from_slice(v);
                }
            })?;
            if values.len() != self.rows {
                return Err(PagedError::Corrupt(format!(
                    "scores decoded {} of {} rows",
                    values.len(),
                    self.rows
                )));
            }
            Some(values)
        } else {
            None
        };
        Ok((table, scores))
    }
}

/// Percent-escape a dictionary label for the header's schema block.
/// Runtime schemas carry labels the descriptor format cannot represent
/// — the bucketiser's band names (`[1950,1962)`) contain commas, and
/// arbitrary marketplaces may use spaces — so the paged header escapes
/// `%`, `,` and whitespace on write and reverses it on open. Escaping
/// is injective, so distinct labels stay distinct through validation.
fn escape_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        match c {
            '%' => out.push_str("%25"),
            ',' => out.push_str("%2C"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut chars = label.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let pair: String = chars.by_ref().take(2).collect();
        match u8::from_str_radix(&pair, 16) {
            Ok(byte) => out.push(byte as char),
            // Not an escape we wrote; keep the text verbatim.
            Err(_) => {
                out.push('%');
                out.push_str(&pair);
            }
        }
    }
    out
}

/// Rebuild a schema with every categorical domain value passed through
/// `f` (names, kinds, numeric bounds unchanged).
fn map_domains(schema: &Schema, f: fn(&str) -> String) -> Result<Schema, StoreError> {
    let mut builder = Schema::builder();
    for attr in schema.attributes() {
        builder = match &attr.dtype {
            DataType::Categorical { domain } => {
                let mapped: Vec<String> = domain.iter().map(|v| f(v)).collect();
                let refs: Vec<&str> = mapped.iter().map(String::as_str).collect();
                builder.categorical(&attr.name, attr.kind, &refs)
            }
            DataType::Numeric { min, max } => builder.numeric(&attr.name, attr.kind, *min, *max),
            DataType::Integer { min, max } => builder.integer(&attr.name, attr.kind, *min, *max),
        };
    }
    builder.build()
}

fn parse_header(text: &str) -> Result<(usize, u64, usize, bool, Schema), PagedError> {
    let corrupt = |reason: &str| PagedError::Corrupt(reason.to_string());
    let mut rows = None;
    let mut epoch = None;
    let mut bins = None;
    let mut scores = None;
    let mut lines = text.lines();
    let Some(first) = lines.next() else {
        return Err(corrupt("empty header"));
    };
    if first.trim() != "# fairjob paged v1" {
        return Err(corrupt("missing version line"));
    }
    let mut schema_text_block = String::new();
    let mut in_schema = false;
    for line in lines {
        if in_schema {
            schema_text_block.push_str(line);
            schema_text_block.push('\n');
            continue;
        }
        let trimmed = line.trim();
        if trimmed == "schema" {
            in_schema = true;
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("rows"), Some(v)) => rows = v.parse().ok(),
            (Some("epoch"), Some(v)) => epoch = v.parse().ok(),
            (Some("bins"), Some(v)) => bins = v.parse().ok(),
            (Some("scores"), Some(v)) => scores = v.parse::<u8>().ok().map(|v| v != 0),
            _ => return Err(corrupt("unknown header line")),
        }
    }
    let schema = map_domains(&schema_text::from_text(&schema_text_block)?, unescape_label)?;
    Ok((
        rows.ok_or_else(|| corrupt("missing rows"))?,
        epoch.ok_or_else(|| corrupt("missing epoch"))?,
        bins.ok_or_else(|| corrupt("missing bins"))?,
        scores.ok_or_else(|| corrupt("missing scores flag"))?,
        schema,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeKind;
    use crate::table::Value;

    fn population(rows: usize) -> (Table, Vec<f64>) {
        let schema = Schema::builder()
            .categorical("gender", AttributeKind::Protected, &["Male", "Female"])
            .categorical(
                "country",
                AttributeKind::Protected,
                &["America", "India", "Other"],
            )
            .numeric("approval", AttributeKind::Observed, 0.0, 100.0)
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        let mut scores = Vec::with_capacity(rows);
        for i in 0..rows {
            let gender = if i % 3 == 0 { "Female" } else { "Male" };
            let country = ["America", "India", "Other"][(i / 7) % 3];
            table
                .push_row(&[
                    Value::cat(gender),
                    Value::cat(country),
                    Value::num((i % 101) as f64),
                ])
                .unwrap();
            scores.push((i % 97) as f64 / 96.0);
        }
        (table, scores)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fairjob-paged-{}-{name}.fjp", std::process::id()))
    }

    #[test]
    fn roundtrip_materializes_identically() {
        let (table, scores) = population(20_000);
        let path = tmp("roundtrip");
        let summary = write_paged(&path, &table, Some(&scores), None, 3, 10).unwrap();
        assert_eq!(summary.rows, 20_000);
        // scores: 3 pages of 8192; gender/country: 1 byte page each;
        // approval: 3 f64 pages.
        assert_eq!(summary.pages, 3 + 1 + 1 + 3);
        let store = PagedStore::open(&path, 1 << 20).unwrap();
        assert_eq!(store.rows(), 20_000);
        assert_eq!(store.epoch(), 3);
        assert_eq!(store.bins(), 10);
        assert!(store.live().is_none());
        assert_eq!(store.schema(), table.schema());
        let (back, back_scores) = store.materialize().unwrap();
        assert_eq!(back, table);
        assert_eq!(back_scores.unwrap(), scores);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn live_set_roundtrips() {
        let (table, scores) = population(100);
        let live = RowSet::from_rows((0..100).filter(|r| r % 4 != 1).collect());
        let path = tmp("live");
        write_paged(&path, &table, Some(&scores), Some(&live), 7, 10).unwrap();
        let store = PagedStore::open(&path, 1 << 20).unwrap();
        assert_eq!(store.live().unwrap(), &live);
        assert_eq!(store.epoch(), 7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zone_map_scan_skips_and_counts_truthfully() {
        // Country is block-clustered in thirds so zone maps can skip.
        let schema = Schema::builder()
            .categorical(
                "country",
                AttributeKind::Protected,
                &["America", "India", "Other"],
            )
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        let rows = 3 * PageKind::Code8.rows_per_page();
        for i in 0..rows {
            let c = ["America", "India", "Other"][i / PageKind::Code8.rows_per_page()];
            table.push_row(&[Value::cat(c)]).unwrap();
        }
        let path = tmp("zone");
        write_paged(&path, &table, None, None, 0, 0).unwrap();
        let store = PagedStore::open(&path, 1 << 20).unwrap();
        let (matched, summary) = store.scan_matching(&[(0, 1)]).unwrap();
        assert_eq!(matched.len(), PageKind::Code8.rows_per_page());
        assert_eq!(summary.pages_scanned, 1);
        assert_eq!(summary.pages_skipped, 2);
        assert_eq!(
            summary.pages_scanned + summary.pages_skipped,
            store.directory_len()
        );
        let counters = store.stats().snapshot();
        assert_eq!(counters.pages_scanned, 1);
        assert_eq!(counters.pages_skipped, 2);
        assert_eq!(counters.misses, 1);
        assert_eq!(store.present_codes(0).unwrap(), vec![0, 1, 2]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn buffer_budget_evicts_and_counts() {
        let (table, scores) = population(40_000);
        let path = tmp("evict");
        write_paged(&path, &table, Some(&scores), None, 0, 10).unwrap();
        // Budget of exactly two score pages: scanning five score pages
        // must evict.
        let store = PagedStore::open(&path, 2 * PAGE_SIZE).unwrap();
        let score_pages = store.pages_of(PagedColumn::Scores).len();
        assert_eq!(score_pages, 5);
        let mut rows_seen = 0usize;
        store
            .scan_column(PagedColumn::Scores, None, None, |_, d| {
                rows_seen += d.rows();
            })
            .unwrap();
        assert_eq!(rows_seen, 40_000);
        let c = store.stats().snapshot();
        assert_eq!(c.misses, 5);
        assert_eq!(c.pages_scanned, 5);
        assert!(c.evictions >= 2, "evictions {}", c.evictions);
        assert!(store.buffer().resident_pages() <= 3);
        // A second scan re-misses evicted pages; hits + misses equals
        // total requests.
        store
            .scan_column(PagedColumn::Scores, None, None, |_, _| {})
            .unwrap();
        let c = store.stats().snapshot();
        assert_eq!(c.hits + c.misses, 10);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let (table, scores) = population(40_000);
        let path = tmp("pin");
        write_paged(&path, &table, Some(&scores), None, 0, 10).unwrap();
        let store = PagedStore::open(&path, PAGE_SIZE).unwrap();
        let pages = store.pages_of(PagedColumn::Scores).to_vec();
        let pinned = store.page(pages[0]).unwrap();
        for &id in &pages[1..] {
            let _ = store.page(id).unwrap();
        }
        // The pinned page is still resident: fetching it again is a hit.
        let before = store.stats().snapshot().hits;
        let again = store.page(pages[0]).unwrap();
        assert_eq!(store.stats().snapshot().hits, before + 1);
        assert!(std::ptr::eq(Arc::as_ptr(&pinned), Arc::as_ptr(&again)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a paged file at all............").unwrap();
        assert!(matches!(
            PagedStore::open(&path, 1 << 20),
            Err(PagedError::Corrupt(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// Write a 100-row population with a live subset, let `patch`
    /// rewrite the file's bytes, and open the result.
    fn open_patched(
        name: &str,
        patch: impl FnOnce(&mut Vec<u8>),
    ) -> Result<PagedStore, PagedError> {
        let live = RowSet::from_sorted((0..100).filter(|r| r % 2 == 0).collect());
        open_rewritten(name, Some(&live), patch)
    }

    /// Write a 100-row population (every row live unless `live` says
    /// otherwise), let `patch` rewrite the file's bytes, and open the
    /// result.
    fn open_rewritten(
        name: &str,
        live: Option<&RowSet>,
        patch: impl FnOnce(&mut Vec<u8>),
    ) -> Result<PagedStore, PagedError> {
        let (table, scores) = population(100);
        let path = tmp(name);
        write_paged(&path, &table, Some(&scores), live, 0, 10).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        patch(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let opened = PagedStore::open(&path, 1 << 20);
        let _ = std::fs::remove_file(&path);
        opened
    }

    fn get_u64(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    fn get_u32(bytes: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
    }

    fn put_u64_at(bytes: &mut [u8], at: usize, value: u64) {
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }

    #[test]
    fn open_rejects_a_header_length_beyond_the_file() {
        let opened = open_patched("header-len", |b| put_u64_at(b, 8, 1 << 62));
        assert!(matches!(opened, Err(PagedError::Corrupt(_))));
    }

    #[test]
    fn open_rejects_a_live_bitmap_length_off_the_row_count() {
        // 100 rows take 13 bitmap bytes.
        for live_len in [1 << 62, 1, 14] {
            let opened = open_patched("live-len", |b| {
                let at = 16 + get_u64(b, 8) as usize;
                put_u64_at(b, at, live_len);
            });
            assert!(
                matches!(opened, Err(PagedError::Corrupt(_))),
                "live bitmap length {live_len}"
            );
        }
    }

    /// Bytes per directory entry: column, kind, first row, rows, offset,
    /// zone min and max, bitset flag, bitset.
    const ENTRY_BYTES: usize = 4 + 1 + 8 + 4 + 8 + 8 + 8 + 1 + 32;

    /// Where directory entry `i` starts.
    fn entry_at(bytes: &[u8], i: usize) -> usize {
        get_u64(bytes, bytes.len() - 16) as usize + 8 + i * ENTRY_BYTES
    }

    /// Set the `rows` and `offset` fields of directory entry `i`.
    fn set_entry(bytes: &mut [u8], i: usize, rows: u32, offset: u64) {
        let at = entry_at(bytes, i);
        bytes[at + 13..at + 17].copy_from_slice(&rows.to_le_bytes());
        put_u64_at(bytes, at + 17, offset);
    }

    fn entry_rows_offset(bytes: &[u8], i: usize) -> (u32, u64) {
        let at = entry_at(bytes, i);
        let rows = u32::from_le_bytes(bytes[at + 13..at + 17].try_into().unwrap());
        (rows, get_u64(bytes, at + 17))
    }

    /// A file whose header claims `u32::MAX` rows and whose pages (one
    /// per column) each claim as many, with every offset moved past the
    /// longer header. Its pages still tile the rows, so only the bound
    /// on a page's rows stops an audit from sizing its per-row columns
    /// (tens of GiB) by the claim.
    #[test]
    fn open_rejects_pages_claiming_more_rows_than_a_page_holds() {
        let opened = open_rewritten("huge-rows", None, |b| {
            let header_len = get_u64(b, 8) as usize;
            let header = String::from_utf8(b[16..16 + header_len].to_vec()).unwrap();
            let claimed = header.replacen("rows 100\n", &format!("rows {}\n", u32::MAX), 1);
            assert_ne!(header, claimed);
            let shift = (claimed.len() - header.len()) as u64;
            let mut rewritten = b[..8].to_vec();
            rewritten.extend_from_slice(&(claimed.len() as u64).to_le_bytes());
            rewritten.extend_from_slice(claimed.as_bytes());
            rewritten.extend_from_slice(&b[16 + header_len..]);
            let footer = rewritten.len() - 16;
            let dir_offset = get_u64(&rewritten, footer) + shift;
            put_u64_at(&mut rewritten, footer, dir_offset);
            let pages = get_u64(&rewritten, dir_offset as usize) as usize;
            for i in 0..pages {
                let (_, offset) = entry_rows_offset(&rewritten, i);
                set_entry(&mut rewritten, i, u32::MAX, offset + shift);
            }
            *b = rewritten;
        });
        match opened {
            Err(PagedError::Corrupt(reason)) => assert!(reason.contains("rows"), "{reason}"),
            other => panic!("a page of u32::MAX rows opened: {other:?}"),
        }
    }

    /// Every page's bytes lie between the live bitmap and the directory,
    /// and no two pages share a byte.
    #[test]
    fn open_rejects_pages_outside_the_data_region_or_overlapping() {
        type Patch = fn(&mut Vec<u8>);
        let cases: [(&str, Patch); 3] = [
            ("into the directory", |b| {
                let (rows, _) = entry_rows_offset(b, 0);
                let dir_offset = get_u64(b, b.len() - 16);
                set_entry(b, 0, rows, dir_offset - 1);
            }),
            ("into the header", |b| {
                let (rows, _) = entry_rows_offset(b, 0);
                set_entry(b, 0, rows, 16);
            }),
            ("onto another page", |b| {
                let (_, first) = entry_rows_offset(b, 0);
                let (rows, _) = entry_rows_offset(b, 1);
                set_entry(b, 1, rows, first);
            }),
        ];
        for (what, patch) in cases {
            let opened = open_rewritten("page-bytes", None, patch);
            assert!(
                matches!(opened, Err(PagedError::Corrupt(_))),
                "a page moved {what} opened: {opened:?}"
            );
        }
    }

    /// A score page retagged as an `I64` or a `Code8` page still lies
    /// inside the data region; read as scores, its rows would bin as
    /// zero and the audit would silently change.
    #[test]
    fn open_rejects_pages_whose_kind_does_not_fit_their_column() {
        for tag in [PageKind::I64.tag(), PageKind::Code8.tag()] {
            let opened = open_rewritten("page-kind", None, |b| {
                let at = entry_at(b, 0);
                assert_eq!(get_u32(b, at), SCORES_COLUMN, "scores are written first");
                b[at + 4] = tag;
            });
            match opened {
                Err(PagedError::Corrupt(reason)) => assert!(reason.contains("page 0"), "{reason}"),
                other => panic!("a score page tagged {tag} opened: {other:?}"),
            }
        }
    }

    #[test]
    fn open_rejects_a_directory_count_beyond_the_directory() {
        let opened = open_patched("dir-count", |b| {
            let at = get_u64(b, b.len() - 16) as usize;
            put_u64_at(b, at, 1 << 61);
        });
        assert!(matches!(opened, Err(PagedError::Corrupt(_))));
    }

    #[test]
    fn counters_since_subtracts() {
        let a = PageCounters {
            hits: 10,
            misses: 5,
            evictions: 2,
            pages_skipped: 1,
            pages_scanned: 6,
        };
        let b = PageCounters {
            hits: 4,
            misses: 5,
            evictions: 0,
            pages_skipped: 0,
            pages_scanned: 2,
        };
        let d = a.since(&b);
        assert_eq!(d.hits, 6);
        assert_eq!(d.misses, 0);
        assert_eq!(d.evictions, 2);
        assert_eq!(d.pages_scanned, 4);
    }
}
