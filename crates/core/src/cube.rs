//! The cell cube: every audited row counted once into the bin counts of
//! its cell.
//!
//! By Definition 1 every partition a search visits is a conjunction of
//! `attribute = value` constraints over the audited attributes, so it
//! is a union of *cells* of their cross product. A [`CellCube`] holds,
//! for each non-empty cell, its code vector and its integer score-bin
//! counts, plus where every audited row sits. A split then groups a
//! partition's cells by one attribute's code and sums their counts —
//! O(cells × bins) instead of a walk over the partition's rows — and
//! the integer sums give every histogram the bits a row walk gives.
//! Row sets are built only when asked for: once, in one row-order pass,
//! for the partitioning an audit returns.
//!
//! A cube is built once per context, in the pass that classifies the
//! scores:
//! - in memory, fused with classification, per row range (see
//!   `row_ranges`), the ranges' counts added in range order;
//! - paged, folded page by page from the score and code pages;
//! - streaming, kept current by the stream view (a *base* cube over
//!   every splittable attribute, two cells patched per changed row) and
//!   projected by each context onto its audited attributes in
//!   O(cells).
//!
//! A row's *key* is its code vector in mixed radix (the first
//! attribute most significant) while the key space times the bin count
//! fits one flat count table (`DIRECT_COUNTERS`); the cube maps keys
//! to cells. Larger key spaces are *densified*: keys are ranked among
//! the distinct keys present (so never more than one per audited row),
//! attribute by attribute whenever the next fold would overflow 64
//! bits, and once more at the end, so each row's key is its cell.

use crate::error::AuditError;
use crate::pool::{WorkerPool, MAX_GLOBAL_WORKERS};
use fairjob_hist::bins::Slot;
use fairjob_store::column::CodeColumn;
use fairjob_store::{RowSet, Table};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// Largest key space × bin count counted in one flat table, per row
/// range. The paper's six attributes give 1 800 keys, 18 000 counters
/// at ten bins (see [`counts_directly`]).
pub(crate) const DIRECT_COUNTERS: usize = 1 << 18;

/// A key no audited row holds.
const NO_CELL: u32 = u32::MAX;

/// The number of keys over attributes of `domains` (saturating).
pub(crate) fn key_space(domains: &[u32]) -> u128 {
    domains
        .iter()
        .fold(1u128, |acc, &d| acc.saturating_mul(u128::from(d)))
}

/// Whether rows are keyed directly, by their mixed-radix code vectors
/// over `space` keys: a flat table of `space` keys × `bins` bins must
/// fit [`DIRECT_COUNTERS`].
fn keys_directly(space: u128, bins: usize) -> bool {
    space.saturating_mul(bins as u128) <= DIRECT_COUNTERS as u128
}

/// Whether `audited` rows are counted in a flat table over `space`
/// keys × `bins` bins: rows are keyed directly and the table holds no
/// more keys than rows — a sparser table costs more to clear and scan
/// than ranking the few keys present with a presence table (see
/// [`KeyFold::finish`]).
pub(crate) fn counts_directly(space: u128, bins: usize, audited: usize) -> bool {
    keys_directly(space, bins) && space <= audited as u128
}

/// Audited rows from which a per-row pass (the in-memory classify
/// pass, the count pass, the row pass) runs in several contiguous
/// ranges on the worker pool.
pub(crate) const PARALLEL_MIN_ROWS: usize = 65_536;

/// Most ranges a per-row pass runs in: as many as the global pool runs
/// at once (its helpers and the calling thread). Each range holds its
/// own count table, so a larger thread count would only cost memory.
const MAX_RANGES: usize = MAX_GLOBAL_WORKERS + 1;

/// The contiguous ranges every per-row pass over `audited` rows runs in
/// at `parallelism`, as bounds: range `r` holds the audited positions
/// `bounds[r]..bounds[r + 1]`. One range below [`PARALLEL_MIN_ROWS`]
/// rows, otherwise one per thread, at most [`MAX_RANGES`]. The passes
/// merge their ranges' integer results in range order, so no answer
/// depends on the cut.
pub(crate) fn row_ranges(audited: usize, parallelism: usize) -> Vec<usize> {
    let ranges = if audited < PARALLEL_MIN_ROWS {
        1
    } else {
        parallelism.clamp(1, MAX_RANGES)
    };
    (0..=ranges).map(|r| audited * r / ranges).collect()
}

/// Rows per key in each contiguous range of the audited rows, recorded
/// by the count pass that builds a cube, so the row pass places every
/// range's rows without counting them again.
#[derive(Debug, Clone)]
pub(crate) struct RangeCounts {
    /// Range `r` holds the audited positions `bounds[r]..bounds[r + 1]`.
    bounds: Vec<usize>,
    /// `counts[r * keys + key]`: rows of range `r` holding `key`.
    counts: Vec<u32>,
}

impl RangeCounts {
    /// Whether a count pass over `audited` rows in `ranges` ranges and
    /// `keys` keys records range counts: only for several ranges, and
    /// only while they take no more room than the key column (ranges ×
    /// keys ≤ audited rows).
    pub(crate) fn kept(ranges: usize, keys: usize, audited: usize) -> bool {
        ranges > 1 && ranges.saturating_mul(keys) <= audited
    }

    /// Range counts over `bounds` (see the fields).
    pub(crate) fn new(bounds: Vec<usize>, counts: Vec<u32>) -> Self {
        RangeCounts { bounds, counts }
    }
}

/// Where the audited rows of a cube sit: each table row's key, the key
/// → cell map, and which rows are audited. Shared (behind an `Arc`) by
/// the cube and by every search partition built from it, so a
/// partition can build its row set on demand.
#[derive(Debug, Clone)]
pub(crate) struct CellRows {
    /// Per table row: the row's key. Rows outside the audited set hold
    /// any value.
    keys: Arc<CodeColumn>,
    /// Key → cell (`NO_CELL` for keys no audited row holds); `None`
    /// when keys are cells.
    map: Option<Arc<[u32]>>,
    /// The audited rows; `None` = every row of `keys`.
    live: Option<RowSet>,
    /// Cells of the cube.
    cells: usize,
    /// The build's range counts, when it kept them; a patched or
    /// projected cube has none.
    ranges: Option<RangeCounts>,
}

impl CellRows {
    /// The audited rows (`None` = every table row).
    pub(crate) fn live(&self) -> Option<&RowSet> {
        self.live.as_ref()
    }

    /// The `len` rows of the union of `cells`, ascending.
    pub(crate) fn rows_of(&self, cells: &[u32], len: usize) -> RowSet {
        self.rows_of_parts(&[Some((cells, len))], 1)
            .pop()
            .expect("one part, one row set")
    }

    /// The rows of several parts at once, in one row-order pass over
    /// the audited rows: `parts[i]` lists part `i`'s cells and its row
    /// count (`None`: a part not made of cells, which gets no rows).
    ///
    /// Each part's list is allocated at its exact length, and each
    /// contiguous range of the audited rows writes its rows straight
    /// into its own window of every list — the same rows, sorted, at
    /// any parallelism. Parallel passes take the ranges and their rows
    /// per part from the build's range counts; without them (a patched
    /// or projected cube, or one too narrow to keep them) a counting
    /// pass over the same ranges comes first. From
    /// [`PARALLEL_MIN_ROWS`] audited rows on, the ranges run on the
    /// worker pool.
    pub(crate) fn rows_of_parts(
        &self,
        parts: &[Option<(&[u32], usize)>],
        parallelism: usize,
    ) -> Vec<RowSet> {
        let mut part_of = vec![NO_CELL; self.cells];
        let mut lens = Vec::with_capacity(parts.len());
        for (i, part) in parts.iter().enumerate() {
            let (cells, len) = part.unwrap_or((&[], 0));
            for &cell in cells {
                part_of[cell as usize] = i as u32;
            }
            lens.push(len);
        }
        // Compose the key map with the part map once, so the pass reads
        // one table per row.
        let part_of_key: Vec<u32> = match &self.map {
            None => part_of,
            Some(map) => map
                .iter()
                .map(|&cell| part_of.get(cell as usize).copied().unwrap_or(NO_CELL))
                .collect(),
        };
        let audited = self.live.as_ref().map_or(self.keys.len(), RowSet::len);
        // `placed[r * parts + part]`: rows of `part` in range `r`.
        let (bounds, placed) = match &self.ranges {
            Some(ranges) if parallelism > 1 => {
                let keys = part_of_key.len();
                let mut placed = vec![0u32; (ranges.bounds.len() - 1) * parts.len()];
                for (range, counts) in placed
                    .chunks_mut(parts.len())
                    .zip(ranges.counts.chunks(keys))
                {
                    for (&part, &count) in part_of_key.iter().zip(counts) {
                        if part != NO_CELL {
                            range[part as usize] += count;
                        }
                    }
                }
                (ranges.bounds.clone(), placed)
            }
            _ => {
                let bounds = row_ranges(audited, parallelism);
                let ranges = bounds.len() - 1;
                let placed = if ranges == 1 {
                    lens.iter().map(|&len| len as u32).collect()
                } else {
                    WorkerPool::global()
                        .run_chunks(parallelism, ranges, |r| {
                            let mut placed = vec![0u32; parts.len()];
                            self.scan(bounds[r]..bounds[r + 1], |_, key| {
                                let part = part_of_key[key];
                                if part != NO_CELL {
                                    placed[part as usize] += 1;
                                }
                            });
                            placed
                        })
                        .concat()
                };
                (bounds, placed)
            }
        };
        let ranges = bounds.len() - 1;
        let mut lists: Vec<Vec<u32>> = lens.iter().map(|&len| vec![0; len]).collect();
        let mut windows: Vec<Vec<&mut [u32]>> = (0..ranges)
            .map(|_| Vec::with_capacity(parts.len()))
            .collect();
        for (part, list) in lists.iter_mut().enumerate() {
            let mut rest = list.as_mut_slice();
            for (range, windows) in windows.iter_mut().enumerate() {
                let (window, tail) = std::mem::take(&mut rest)
                    .split_at_mut(placed[range * parts.len() + part] as usize);
                windows.push(window);
                rest = tail;
            }
            assert!(rest.is_empty(), "every row of part {part} has a range");
        }
        let place = |range: usize, mut windows: Vec<&mut [u32]>| {
            self.scan(bounds[range]..bounds[range + 1], |row, key| {
                let part = part_of_key[key];
                if part != NO_CELL {
                    let (slot, rest) = std::mem::take(&mut windows[part as usize])
                        .split_first_mut()
                        .expect("the range counts hold every row of the range");
                    *slot = row;
                    windows[part as usize] = rest;
                }
            });
        };
        if ranges == 1 {
            place(0, windows.pop().expect("one range"));
        } else {
            let slots: Vec<Mutex<Option<Vec<&mut [u32]>>>> =
                windows.into_iter().map(|w| Mutex::new(Some(w))).collect();
            WorkerPool::global().run_chunks(parallelism, ranges, |range| {
                let windows = slots[range]
                    .lock()
                    .expect("range slot")
                    .take()
                    .expect("each range runs once");
                place(range, windows);
            });
        }
        lists.into_iter().map(RowSet::from_sorted).collect()
    }

    /// `visit(row, key)` for the audited rows at positions `at`.
    fn scan(&self, at: Range<usize>, visit: impl FnMut(u32, usize)) {
        scan(&self.keys, self.live.as_ref(), at, visit);
    }
}

/// `visit(row, key)` for the rows at positions `at` (of every row, or
/// of `live`) of a key column, in row order.
fn scan(keys: &CodeColumn, live: Option<&RowSet>, at: Range<usize>, visit: impl FnMut(u32, usize)) {
    match keys {
        CodeColumn::Narrow(keys) => scan_in(keys, live, at, visit),
        CodeColumn::Wide(keys) => scan_in(keys, live, at, visit),
    }
}

fn scan_in<K: Slot>(
    keys: &[K],
    live: Option<&RowSet>,
    at: Range<usize>,
    mut visit: impl FnMut(u32, usize),
) {
    match live {
        None => {
            for (row, &key) in keys[at.clone()].iter().enumerate() {
                visit((at.start + row) as u32, key.index());
            }
        }
        Some(live) => {
            for &row in &live.rows()[at] {
                visit(row, keys[row as usize].index());
            }
        }
    }
}

/// One group of a split: the code its cells share, the cells, their
/// summed bin counts (integers, so exact in any order) and their row
/// count.
pub(crate) struct CellGroup {
    pub code: u32,
    pub cells: Vec<u32>,
    pub counts: Vec<f64>,
    pub len: usize,
}

/// A cube's cells grouped by their code vectors over some of its
/// attributes ([`CellCube::group_by_codes`]), in flat vectors: group
/// `g` has the code vector `codes[g * width..]`, the cells
/// `cells[ends[g - 1]..ends[g]]` and the summed counts
/// `counts[g * bins..]`.
pub(crate) struct CodeGroups {
    width: usize,
    bins: usize,
    codes: Vec<u32>,
    cells: Vec<u32>,
    ends: Vec<usize>,
    counts: Vec<u32>,
}

impl CodeGroups {
    /// Each group's code vector, cells and summed counts, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u32], &[u32], &[u32])> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.ends
            .iter()
            .zip(starts)
            .enumerate()
            .map(|(g, (&end, start))| {
                (
                    &self.codes[g * self.width..(g + 1) * self.width],
                    &self.cells[start..end],
                    &self.counts[g * self.bins..(g + 1) * self.bins],
                )
            })
    }
}

/// The cell cube of one audit context (see the module docs): the
/// non-empty cells of the audited attributes' cross product, each with
/// its code vector and integer bin counts, and the cell of every
/// audited row.
#[derive(Debug, Clone)]
pub struct CellCube {
    /// Schema attribute indexes, in cube order.
    attrs: Vec<usize>,
    bins: usize,
    /// `codes[cell * attrs.len() + k]` = the cell's code of `attrs[k]`.
    codes: Vec<u32>,
    /// `counts[cell * bins + bin]` = the cell's rows in score bin `bin`.
    counts: Vec<u32>,
    rows: Arc<CellRows>,
    /// Data-version stamp folded into the fingerprint: the epoch of a
    /// built cube, the patch count of a maintained one (projections
    /// keep their base's).
    stamp: u64,
    fingerprint: OnceLock<u128>,
    /// Code vector → cell, built on the first [`CellCube::patch`].
    lookup: Option<HashMap<Box<[u32]>, u32>>,
}

impl CellCube {
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        attrs: Vec<usize>,
        bins: usize,
        codes: Vec<u32>,
        counts: Vec<u32>,
        keys: CodeColumn,
        map: Option<Vec<u32>>,
        live: Option<RowSet>,
        ranges: Option<RangeCounts>,
    ) -> Self {
        let cells = counts.len() / bins;
        CellCube {
            attrs,
            bins,
            codes,
            counts,
            rows: Arc::new(CellRows {
                keys: Arc::new(keys),
                map: map.map(Arc::from),
                live,
                cells,
                ranges,
            }),
            stamp: 0,
            fingerprint: OnceLock::new(),
            lookup: None,
        }
    }

    /// The cube of `table`'s `live` rows (`None` = every row) over
    /// `attrs` (categorical, by schema index), their score bins read
    /// from `bin_of` (`< bins`). `dense` makes every key a cell, as a
    /// [`CellCube::patch`]ed base cube needs. The count pass keeps range
    /// counts for the row pass at `parallelism` (see
    /// [`AuditContext::partitioning`](crate::AuditContext::partitioning)).
    ///
    /// # Errors
    ///
    /// [`AuditError::Store`] when an attribute is not categorical.
    pub fn from_table(
        table: &Table,
        attrs: &[usize],
        bin_of: &CodeColumn,
        bins: usize,
        live: Option<RowSet>,
        dense: bool,
        parallelism: usize,
    ) -> Result<Self, AuditError> {
        let domains = domains(table.schema(), attrs);
        let audited = live.as_ref().map_or(table.len(), RowSet::len);
        let mut fold = KeyFold::new(&domains, bins, table.len(), audited, dense);
        for (&attr, &domain) in attrs.iter().zip(&domains) {
            let codes = table.column(attr).as_categorical().ok_or_else(|| {
                AuditError::Store(fairjob_store::StoreError::NotCategorical {
                    attribute: table.schema().attribute(attr).name.clone(),
                })
            })?;
            fold.start(domain, live.as_ref());
            fold.fold(0, codes)
                .expect("table codes lie in their dictionaries");
        }
        Ok(fold.finish(attrs.to_vec(), bin_of, live, parallelism))
    }

    /// Schema attribute indexes of the cube, in cube order.
    pub fn attributes(&self) -> &[usize] {
        &self.attrs
    }

    /// Number of cells (non-empty ones, except in a patched base cube,
    /// which keeps cells its rows left).
    pub fn cells(&self) -> usize {
        self.counts.len() / self.bins
    }

    /// The code vector of `cell`, in cube attribute order.
    pub fn codes_of(&self, cell: usize) -> &[u32] {
        let w = self.attrs.len();
        &self.codes[cell * w..(cell + 1) * w]
    }

    /// The bin counts of `cell`.
    pub fn counts_of(&self, cell: usize) -> &[u32] {
        &self.counts[cell * self.bins..(cell + 1) * self.bins]
    }

    /// A structural fingerprint of the cube: its attributes, cells,
    /// counts and data-version stamp. Two cubes with one fingerprint split every
    /// partition alike, so split-cache entries pass between their
    /// engines ([`crate::EngineCaches`]). Computed once, on first use.
    pub fn fingerprint(&self) -> u128 {
        *self.fingerprint.get_or_init(|| {
            const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
            let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
            let mut mix = |word: u64| h = (h ^ u128::from(word)).wrapping_mul(PRIME);
            mix(self.stamp);
            mix(self.bins as u64);
            mix(self.attrs.len() as u64);
            for &attr in &self.attrs {
                mix(attr as u64);
            }
            for &code in &self.codes {
                mix(u64::from(code));
            }
            for &count in &self.counts {
                mix(u64::from(count));
            }
            h
        })
    }

    /// The row placement shared with search partitions.
    pub(crate) fn rows(&self) -> &Arc<CellRows> {
        &self.rows
    }

    /// Position of `attr` in the cube, `None` when not audited.
    pub(crate) fn position(&self, attr: usize) -> Option<usize> {
        self.attrs.iter().position(|&a| a == attr)
    }

    /// `cells` grouped by their code of the `k`-th attribute, in code
    /// order, each group's cells in `cells`' order, with their summed
    /// counts.
    pub(crate) fn group(&self, cells: &[u32], k: usize) -> Vec<CellGroup> {
        let w = self.attrs.len();
        let code_of = |cell: u32| self.codes[cell as usize * w + k];
        let mut groups: Vec<CellGroup> = Vec::new();
        let add = |groups: &mut Vec<CellGroup>, code: u32, cell: u32| {
            if groups.last().is_none_or(|g| g.code != code) {
                groups.push(CellGroup {
                    code,
                    cells: Vec::new(),
                    counts: vec![0.0; self.bins],
                    len: 0,
                });
            }
            let group = groups.last_mut().expect("just pushed");
            group.cells.push(cell);
            for (acc, &c) in group.counts.iter_mut().zip(self.counts_of(cell as usize)) {
                *acc += f64::from(c);
                group.len += c as usize;
            }
        };
        if let [cell] = cells {
            add(&mut groups, code_of(*cell), *cell);
            return groups;
        }
        let mut keyed: Vec<(u32, u32)> = cells.iter().map(|&cell| (code_of(cell), cell)).collect();
        // Stable: each group keeps its cells in the parent's order.
        keyed.sort_by_key(|&(code, _)| code);
        for (code, cell) in keyed {
            add(&mut groups, code, cell);
        }
        groups
    }

    /// The cells holding a row grouped by their codes of the cube
    /// attributes at positions `at` (in that order), in code-vector
    /// order: per group its code vector, its cells (ascending) and their
    /// summed counts. The cells are ordered once, by a radix sort of
    /// their codes packed into a `u64` (by comparison when the codes
    /// need more bits).
    pub(crate) fn group_by_codes(&self, at: &[usize]) -> CodeGroups {
        let cells: Vec<u32> = (0..self.cells() as u32)
            .filter(|&cell| self.counts_of(cell as usize).iter().any(|&c| c > 0))
            .collect();
        let code = |i: usize, k: usize| self.codes_of(cells[i] as usize)[at[k]];
        let bits: Vec<u32> = (0..at.len())
            .map(|k| {
                let top = (0..cells.len()).map(|i| code(i, k)).max().unwrap_or(0);
                u32::BITS - top.leading_zeros()
            })
            .collect();
        let width: u32 = bits.iter().sum();
        let packed: Option<Vec<u64>> = (width <= u64::BITS).then(|| {
            (0..cells.len())
                .map(|i| (0..at.len()).fold(0, |acc, k| acc << bits[k] | u64::from(code(i, k))))
                .collect()
        });
        let key = |i: usize| (0..at.len()).map(move |k| code(i, k));
        let order = match &packed {
            Some(packed) => radix_order(packed, width),
            None => {
                let mut order: Vec<usize> = (0..cells.len()).collect();
                order.sort_by(|&a, &b| key(a).cmp(key(b)));
                order
            }
        };
        let same = |a: usize, b: usize| match &packed {
            Some(packed) => packed[a] == packed[b],
            None => key(a).eq(key(b)),
        };
        let mut groups = CodeGroups {
            width: at.len(),
            bins: self.bins,
            codes: Vec::new(),
            cells: Vec::with_capacity(cells.len()),
            ends: Vec::new(),
            counts: Vec::new(),
        };
        for (n, &i) in order.iter().enumerate() {
            if n == 0 || !same(order[n - 1], i) {
                if n > 0 {
                    groups.ends.push(n);
                }
                groups.codes.extend(key(i));
                groups.counts.extend(std::iter::repeat_n(0, self.bins));
            }
            let sums = groups.counts.len() - self.bins;
            for (acc, &c) in groups.counts[sums..]
                .iter_mut()
                .zip(self.counts_of(cells[i] as usize))
            {
                *acc += c;
            }
            groups.cells.push(cells[i]);
        }
        if !order.is_empty() {
            groups.ends.push(order.len());
        }
        groups
    }

    /// The same rows and counts over `attrs` (a subset of this cube's
    /// attributes, in any order), audited over `live`: the cells with a
    /// row grouped by their codes of `attrs`. Reads cells, not rows.
    /// Cells come in code-vector order; the stamp is this cube's.
    ///
    /// # Panics
    ///
    /// When an attribute of `attrs` is not in this cube.
    pub fn project(&self, attrs: &[usize], live: Option<RowSet>) -> CellCube {
        let at: Vec<usize> = attrs
            .iter()
            .map(|&a| {
                self.position(a)
                    .expect("projected attributes are in the cube")
            })
            .collect();
        let groups = self.group_by_codes(&at);
        let mut projected = vec![NO_CELL; self.cells()];
        for (to, (_, cells, _)) in groups.iter().enumerate() {
            for &cell in cells {
                projected[cell as usize] = to as u32;
            }
        }
        let (codes, counts) = (groups.codes, groups.counts);
        let map: Vec<u32> = match &self.rows.map {
            None => projected,
            Some(map) => map
                .iter()
                .map(|&cell| projected.get(cell as usize).copied().unwrap_or(NO_CELL))
                .collect(),
        };
        let cells = counts.len() / self.bins;
        CellCube {
            attrs: attrs.to_vec(),
            bins: self.bins,
            codes,
            counts,
            rows: Arc::new(CellRows {
                keys: Arc::clone(&self.rows.keys),
                map: Some(Arc::from(map)),
                live,
                cells,
                ranges: None,
            }),
            stamp: self.stamp,
            fingerprint: OnceLock::new(),
            lookup: None,
        }
    }

    /// Stamp the cube with a data version (part of its fingerprint).
    pub(crate) fn with_epoch(mut self, epoch: u64) -> Self {
        self.stamp = epoch;
        self.fingerprint = OnceLock::new();
        self
    }

    /// Extend the key column to `rows` table rows (new rows join no
    /// cell until patched).
    ///
    /// # Panics
    ///
    /// When the cube is not dense (see [`CellCube::from_table`]).
    pub fn grow(&mut self, rows: usize) {
        if self.rows.keys.len() < rows {
            self.drop_range_counts();
            let keys = self.dense_keys();
            while keys.len() < rows {
                keys.push(0);
            }
        }
    }

    /// Move one table row of a dense base cube: out of the cell and
    /// score bin it held while audited (`before`: its codes in cube
    /// attribute order and its bin; `None` when it was not audited),
    /// into the ones it holds now (`after`; `None` when it left). Two
    /// cells change, whatever the cube's size. A code vector the cube
    /// has not seen gets a new cell; cells left empty stay, with zero
    /// counts, and projections skip them. Each patch bumps the cube's
    /// stamp, so no split entry outlives a changed row.
    ///
    /// # Panics
    ///
    /// When the cube is not dense, `row` is beyond the key column, or
    /// `before` names a cell or bin the row cannot have been counted in
    /// — programming errors of the maintaining view.
    pub fn patch(&mut self, row: u32, before: Option<(&[u32], u32)>, after: Option<(&[u32], u32)>) {
        self.drop_range_counts();
        let w = self.attrs.len();
        if self.lookup.is_none() {
            self.lookup = Some(
                (0..self.cells())
                    .map(|cell| (Box::from(self.codes_of(cell)), cell as u32))
                    .collect(),
            );
        }
        if let Some((codes, bin)) = before {
            let cell = self.lookup.as_ref().expect("built above")[codes];
            let count = &mut self.counts[cell as usize * self.bins + bin as usize];
            *count = count
                .checked_sub(1)
                .expect("the row was counted in its cell");
        }
        if let Some((codes, bin)) = after {
            let lookup = self.lookup.as_mut().expect("built above");
            let cell = match lookup.get(codes) {
                Some(&cell) => cell,
                None => {
                    let cell = (self.codes.len() / w) as u32;
                    lookup.insert(Box::from(codes), cell);
                    self.codes.extend_from_slice(codes);
                    self.counts.extend(std::iter::repeat_n(0, self.bins));
                    cell
                }
            };
            self.counts[cell as usize * self.bins + bin as usize] += 1;
            let cells = self.cells();
            Arc::make_mut(&mut self.rows).cells = cells;
            let keys = self.dense_keys();
            if cell as usize >= CodeColumn::NARROW_DOMAIN {
                if let CodeColumn::Narrow(narrow) = keys {
                    *keys = CodeColumn::Wide(narrow.iter().map(|&k| u32::from(k)).collect());
                }
            }
            keys.set(row as usize, cell);
        }
        self.stamp += 1;
        self.fingerprint = OnceLock::new();
    }

    /// Forget the build's range counts: the rows they count have moved.
    fn drop_range_counts(&mut self) {
        if self.rows.ranges.is_some() {
            Arc::make_mut(&mut self.rows).ranges = None;
        }
    }

    fn dense_keys(&mut self) -> &mut CodeColumn {
        let rows = Arc::make_mut(&mut self.rows);
        assert!(rows.map.is_none(), "only a dense cube is patched");
        Arc::make_mut(&mut rows.keys)
    }
}

/// The positions of `keys` in ascending key order, equal keys in
/// position order: a least-significant-digit radix sort of their low
/// `bits` bits, a byte per pass.
fn radix_order(keys: &[u64], bits: u32) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    let mut next = vec![0; keys.len()];
    for shift in (0..bits).step_by(8) {
        let digit = |i: usize| (keys[i] >> shift & 0xff) as usize;
        let mut at = [0usize; 256];
        for &i in &order {
            at[digit(i)] += 1;
        }
        let mut start = 0;
        for slot in &mut at {
            (*slot, start) = (start, start + *slot);
        }
        for &i in &order {
            let slot = &mut at[digit(i)];
            next[*slot] = i;
            *slot += 1;
        }
        std::mem::swap(&mut order, &mut next);
    }
    order
}

/// The dictionary sizes of `attrs` (0 for non-categorical ones, which
/// callers reject).
pub(crate) fn domains(schema: &fairjob_store::Schema, attrs: &[usize]) -> Vec<u32> {
    attrs
        .iter()
        .map(|&a| schema.attribute(a).cardinality().unwrap_or(0) as u32)
        .collect()
}

/// The codes a key stands for: mixed-radix digits of the attributes
/// folded since the last densification, under the code vectors of the
/// densified prefixes.
#[derive(Debug, Clone, Default)]
struct Decoder {
    /// Domains folded since the last densification, in order.
    radixes: Vec<u32>,
    /// Code vectors of the densified prefixes, `width` codes each
    /// (empty with `width == 0` before any densification).
    prefixes: Vec<u32>,
    width: usize,
}

impl Decoder {
    fn codes(&self, mut key: u64, out: &mut Vec<u32>) {
        let start = out.len();
        out.resize(start + self.width + self.radixes.len(), 0);
        for (i, &radix) in self.radixes.iter().enumerate().rev() {
            out[start + self.width + i] = (key % u64::from(radix)) as u32;
            key /= u64::from(radix);
        }
        let prefix = key as usize * self.width;
        out[start..start + self.width].copy_from_slice(&self.prefixes[prefix..prefix + self.width]);
    }

    /// `visit(key, codes)` for the keys `0..space` of direct keys (no
    /// densified prefix) in order, their codes stepped like an odometer
    /// over the radixes rather than divided out of each key.
    fn walk(&self, space: usize, mut visit: impl FnMut(usize, &[u32])) {
        debug_assert_eq!(self.width, 0, "direct keys are never densified");
        let mut codes = vec![0u32; self.radixes.len()];
        for key in 0..space {
            visit(key, &codes);
            for (code, &radix) in codes.iter_mut().zip(&self.radixes).rev() {
                *code += 1;
                if *code < radix {
                    break;
                }
                *code = 0;
            }
        }
    }
}

/// Per-row keys while they are folded.
enum FoldKeys {
    /// Mixed-radix keys of a key space small enough to count directly.
    Direct(CodeColumn),
    /// Wider keys, densified as needed.
    General(Vec<u64>),
}

/// Folds the audited attributes' codes into per-row cube keys, one
/// attribute at a time (each a run of [`KeyFold::fold`] calls over
/// row-aligned code slices), then counts the audited rows into cells.
pub(crate) struct KeyFold {
    keys: FoldKeys,
    /// Key values possible so far.
    space: u128,
    decoder: Decoder,
    bins: usize,
    /// Rows audited.
    audited: usize,
    /// The domain being folded.
    domain: u32,
}

impl KeyFold {
    /// A fold over `rows` table rows, `audited` of them audited, for
    /// attributes of `domains` and `bins` score bins. `dense` asks for
    /// keys that are cells.
    pub(crate) fn new(
        domains: &[u32],
        bins: usize,
        rows: usize,
        audited: usize,
        dense: bool,
    ) -> Self {
        let space = key_space(domains);
        let direct = !dense && keys_directly(space, bins);
        KeyFold {
            keys: if direct {
                FoldKeys::Direct(CodeColumn::zeroed(space as usize, rows))
            } else {
                FoldKeys::General(vec![0; rows])
            },
            space: 1,
            decoder: Decoder::default(),
            bins,
            audited,
            domain: 1,
        }
    }

    /// Begin folding an attribute of `domain` values; `live` are the
    /// audited rows (densification reads only those).
    pub(crate) fn start(&mut self, domain: u32, live: Option<&RowSet>) {
        if let FoldKeys::General(_) = self.keys {
            if self.space * u128::from(domain) > u128::from(u64::MAX) {
                self.densify(live);
            }
        }
        self.space *= u128::from(domain);
        self.decoder.radixes.push(domain);
        self.domain = domain;
    }

    /// Fold the codes of rows `first_row..` of the current attribute.
    /// `Err((offset, code))` names the first code outside its domain;
    /// the keys are then unusable.
    pub(crate) fn fold<C: Slot>(
        &mut self,
        first_row: usize,
        codes: &[C],
    ) -> Result<(), (usize, u32)> {
        let domain = self.domain;
        if let Some(at) = codes.iter().position(|c| c.index() >= domain as usize) {
            return Err((at, codes[at].index() as u32));
        }
        let end = first_row + codes.len();
        match &mut self.keys {
            FoldKeys::Direct(CodeColumn::Narrow(keys)) => {
                // The key space is at most 256 here, so no step overflows.
                let d = domain as u8;
                for (key, c) in keys[first_row..end].iter_mut().zip(codes) {
                    *key = *key * d + c.index() as u8;
                }
            }
            FoldKeys::Direct(CodeColumn::Wide(keys)) => {
                for (key, c) in keys[first_row..end].iter_mut().zip(codes) {
                    *key = *key * domain + c.index() as u32;
                }
            }
            FoldKeys::General(keys) => {
                let d = u64::from(domain);
                for (key, c) in keys[first_row..end].iter_mut().zip(codes) {
                    *key = *key * d + c.index() as u64;
                }
            }
        }
        Ok(())
    }

    /// Replace the keys of the audited rows by their ranks among the
    /// distinct keys present (rows outside `live` get 0), and the
    /// decoder's radixes by the ranks' code vectors.
    fn densify(&mut self, live: Option<&RowSet>) {
        let FoldKeys::General(keys) = &mut self.keys else {
            return;
        };
        let mut distinct: Vec<u64> = match live {
            None => keys.clone(),
            Some(live) => live.rows().iter().map(|&r| keys[r as usize]).collect(),
        };
        distinct.sort_unstable();
        distinct.dedup();
        let rank = |key: u64| distinct.binary_search(&key).expect("a present key") as u64;
        match live {
            None => keys.iter_mut().for_each(|key| *key = rank(*key)),
            Some(live) => {
                let mut ranked = vec![0; keys.len()];
                for &row in live.rows() {
                    ranked[row as usize] = rank(keys[row as usize]);
                }
                *keys = ranked;
            }
        }
        let mut prefixes = Vec::new();
        for &key in &distinct {
            self.decoder.codes(key, &mut prefixes);
        }
        self.decoder = Decoder {
            width: self.decoder.width + self.decoder.radixes.len(),
            radixes: Vec::new(),
            prefixes,
        };
        self.space = distinct.len() as u128;
    }

    /// Count every audited row (`live`; `None` = every row) into its
    /// cell by its score bin in `bin_of`, keeping range counts for the
    /// row pass at `parallelism`, and assemble the cube over `attrs`.
    pub(crate) fn finish(
        mut self,
        attrs: Vec<usize>,
        bin_of: &CodeColumn,
        live: Option<RowSet>,
        parallelism: usize,
    ) -> CellCube {
        let bins = self.bins;
        if let FoldKeys::General(_) = self.keys {
            self.densify(live.as_ref());
        }
        match self.keys {
            FoldKeys::Direct(keys) if self.space > self.audited as u128 => {
                // More keys than audited rows: rank the keys present by
                // a presence table over the key space (one marking pass,
                // one prefix pass in key order).
                let mut map = vec![NO_CELL; self.space as usize];
                scan(&keys, live.as_ref(), 0..self.audited, |_, key| map[key] = 0);
                let mut cells = 0;
                let mut codes = Vec::new();
                self.decoder.walk(map.len(), |key, key_codes| {
                    if map[key] == 0 {
                        map[key] = cells;
                        cells += 1;
                        codes.extend_from_slice(key_codes);
                    }
                });
                let mut counts = vec![0u32; cells as usize * bins];
                scan(&keys, live.as_ref(), 0..self.audited, |row, key| {
                    counts[map[key] as usize * bins + bin_of.get(row as usize) as usize] += 1;
                });
                CellCube::assemble(attrs, bins, codes, counts, keys, Some(map), live, None)
            }
            FoldKeys::Direct(keys) => {
                let mut counts = vec![0u32; self.space as usize * bins];
                let ranges =
                    count_rows(&keys, bin_of, live.as_ref(), bins, &mut counts, parallelism);
                direct_cube(
                    attrs,
                    keys,
                    counts,
                    &self.decoder.radixes,
                    bins,
                    live,
                    ranges,
                )
            }
            FoldKeys::General(keys) => {
                let cells = self.space as usize;
                let keys = {
                    let mut column = CodeColumn::zeroed(cells, keys.len());
                    for (row, &key) in keys.iter().enumerate() {
                        column.set(row, key as u32);
                    }
                    column
                };
                let mut counts = vec![0u32; cells * bins];
                let ranges =
                    count_rows(&keys, bin_of, live.as_ref(), bins, &mut counts, parallelism);
                let mut codes = Vec::with_capacity(cells * attrs.len());
                for cell in 0..cells {
                    self.decoder.codes(cell as u64, &mut codes);
                }
                CellCube::assemble(attrs, bins, codes, counts, keys, None, live, ranges)
            }
        }
    }
}

/// `counts[key * bins + bin] += 1` for every audited row, range by
/// range in the row pass's ranges at `parallelism`; returns the rows
/// per key of each range when [`RangeCounts::kept`].
fn count_rows(
    keys: &CodeColumn,
    bin_of: &CodeColumn,
    live: Option<&RowSet>,
    bins: usize,
    counts: &mut [u32],
    parallelism: usize,
) -> Option<RangeCounts> {
    use CodeColumn::{Narrow, Wide};
    let audited = live.map_or(keys.len(), RowSet::len);
    let space = counts.len() / bins;
    let bounds = row_ranges(audited, parallelism);
    let kept = RangeCounts::kept(bounds.len() - 1, space, audited);
    let bounds = if kept { bounds } else { row_ranges(audited, 1) };
    let mut per_key = vec![0u32; if kept { (bounds.len() - 1) * space } else { 0 }];
    let mut per_range = per_key.chunks_mut(space.max(1));
    for at in bounds.windows(2).map(|w| w[0]..w[1]) {
        let per_key = per_range.next();
        match (keys, bin_of) {
            (Narrow(k), Narrow(b)) => count_in(k, b, live, at, bins, counts, per_key),
            (Narrow(k), Wide(b)) => count_in(k, b, live, at, bins, counts, per_key),
            (Wide(k), Narrow(b)) => count_in(k, b, live, at, bins, counts, per_key),
            (Wide(k), Wide(b)) => count_in(k, b, live, at, bins, counts, per_key),
        }
    }
    kept.then(|| RangeCounts::new(bounds, per_key))
}

fn count_in<K: Slot, B: Slot>(
    keys: &[K],
    bin_of: &[B],
    live: Option<&RowSet>,
    at: Range<usize>,
    bins: usize,
    counts: &mut [u32],
    per_key: Option<&mut [u32]>,
) {
    match per_key {
        None => scan_in(keys, live, at, |row, key| {
            counts[key * bins + bin_of[row as usize].index()] += 1;
        }),
        Some(per_key) => scan_in(keys, live, at, |row, key| {
            counts[key * bins + bin_of[row as usize].index()] += 1;
            per_key[key] += 1;
        }),
    }
}

/// The cube of direct mixed-radix `keys` (over `radixes`, the audited
/// attributes' domains) with their `counts` table and the count pass's
/// `ranges`: keys holding a row become cells, in key order — the code
/// vectors' lexicographic order.
pub(crate) fn direct_cube(
    attrs: Vec<usize>,
    keys: CodeColumn,
    counts: Vec<u32>,
    radixes: &[u32],
    bins: usize,
    live: Option<RowSet>,
    ranges: Option<RangeCounts>,
) -> CellCube {
    let space = counts.len() / bins;
    let decoder = Decoder {
        radixes: radixes.to_vec(),
        ..Decoder::default()
    };
    let mut map = vec![NO_CELL; space];
    let mut codes = Vec::new();
    let mut compact = Vec::new();
    decoder.walk(space, |key, key_codes| {
        let row = &counts[key * bins..(key + 1) * bins];
        if row.iter().any(|&c| c > 0) {
            map[key] = (compact.len() / bins) as u32;
            compact.extend_from_slice(row);
            codes.extend_from_slice(key_codes);
        }
    });
    CellCube::assemble(attrs, bins, codes, compact, keys, Some(map), live, ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairjob_store::schema::{AttributeKind, Schema};
    use fairjob_store::table::Value;

    /// A dense cube keeps its build's range counts until a patch moves
    /// rows; its parallel row pass then counts the ranges itself and
    /// gives every cell the rows that hold its codes now.
    #[test]
    fn patched_cubes_drop_their_range_counts() {
        let rows = 2 * PARALLEL_MIN_ROWS;
        let schema = Schema::builder()
            .categorical("tier", AttributeKind::Protected, &["a", "b", "c"])
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        for row in 0..rows {
            table
                .push_row(&[Value::cat(["a", "b", "c"][row % 3])])
                .unwrap();
        }
        let bins = CodeColumn::from_values(4, &(0..rows as u32).map(|r| r % 4).collect::<Vec<_>>());
        let mut cube = CellCube::from_table(&table, &[0], &bins, 4, None, true, 4).unwrap();
        assert!(
            cube.rows().ranges.is_some(),
            "a parallel build keeps range counts"
        );
        let mut codes: Vec<u32> = (0..rows).map(|row| (row % 3) as u32).collect();
        // Rows of the first range move to another tier.
        for row in (0..1_000u32).step_by(3) {
            let bin = row % 4;
            cube.patch(row, Some((&[0], bin)), Some((&[2], bin)));
            codes[row as usize] = 2;
        }
        let cells: Vec<(Vec<u32>, usize)> = (0..cube.cells())
            .map(|cell| {
                (
                    vec![cell as u32],
                    cube.counts_of(cell).iter().map(|&c| c as usize).sum(),
                )
            })
            .collect();
        let parts: Vec<Option<(&[u32], usize)>> = cells
            .iter()
            .map(|(cells, len)| Some((cells.as_slice(), *len)))
            .collect();
        for (cell, got) in cube.rows().rows_of_parts(&parts, 4).iter().enumerate() {
            let code = cube.codes_of(cell)[0];
            let want: Vec<u32> = (0..rows as u32)
                .filter(|&r| codes[r as usize] == code)
                .collect();
            assert_eq!(got.rows(), want.as_slice(), "tier {code}");
        }
    }

    #[test]
    fn decoder_inverts_the_mixed_radix_fold() {
        let decoder = Decoder {
            radixes: vec![2, 3, 5],
            ..Decoder::default()
        };
        let mut codes = Vec::new();
        // (1, 2, 4) over radixes (2, 3, 5): 1·15 + 2·5 + 4.
        decoder.codes(29, &mut codes);
        assert_eq!(codes, vec![1, 2, 4]);
        let densified = Decoder {
            radixes: vec![7],
            prefixes: vec![0, 9, 1, 3],
            width: 2,
        };
        codes.clear();
        densified.codes(7 + 6, &mut codes);
        assert_eq!(codes, vec![1, 3, 6]);
    }
}
