//! The incremental unfairness evaluation engine.
//!
//! Every search algorithm repeatedly evaluates `unfairness(P, f)` —
//! the average pairwise histogram distance of Definition 2 — over
//! partitionings that differ from one another in only a few positions:
//! sibling candidate splits share every untouched partition, and
//! consecutive greedy rounds share everything except the partitions the
//! committed split replaced. Recomputing the full O(k²) distance matrix
//! per evaluation (the seed behaviour) therefore wastes almost all of
//! its work; on the paper's 7300-worker dataset the full partitioning
//! has ~1800 partitions → ~1.6 M pairs per evaluation.
//!
//! [`EvalEngine`] fixes this at five levels:
//!
//! 1. **Memo cache** — every distance computed through the memo is
//!    cached under the ordered pair of the partitions' predicate
//!    fingerprints ([`fairjob_store::Predicate::fingerprint`]).
//!    Fingerprints are structural, so the same subgroup reached through
//!    different split orders hits the same entry. Distances between
//!    partitions untouched by a candidate split are never recomputed —
//!    across sibling candidates *and* across rounds. Full evaluations
//!    of a distance with an L1 form (`emd`, `tv`; level 3) skip the
//!    memo: a lookup costs as much as their closed-form distance.
//! 2. **Delta evaluation** — [`IncrementalEval`] maintains a keyed
//!    pairwise averager over the current partitioning and scores
//!    "replace partition p by its children" hypotheticals at
//!    O(k · changed) distances instead of O(k²), reverting afterwards at
//!    zero additional distance computations (the revert re-looks-up
//!    distances that were just cached).
//! 3. **Serial and chunked full evaluation** — [`EvalEngine::unfairness`]
//!    (and its `_union` and `_cross` forms) sums pair distances in (i, j)
//!    pair order. When the distance declares an L1 form
//!    ([`fairjob_hist::HistogramDistance::l1_form`], resolved once per
//!    engine: `emd`, `tv`), it computes every pair with no memo lookup,
//!    insert or registry entry, from the distance's batch form
//!    ([`fairjob_hist::HistogramDistance::pair_batch`]: every live
//!    histogram gathered once into one flat buffer, several pairs per
//!    inner loop, each pair's value `distance`'s bits) — or one
//!    `distance` call per pair when the distance has no batch form or
//!    declines the set (an empty histogram, mixed layouts), which then
//!    names the error. Otherwise each pair goes through the
//!    memo. Below 256 live partitions this runs in one serial loop.
//!    From 256 on, the pairs to compute (every pair, or the memo's
//!    misses after a serial hit/miss pass) are computed in fixed chunks
//!    of 1024 pairs on the persistent worker pool
//!    ([`crate::pool::WorkerPool`] — spawned once per process, reused
//!    across calls and epochs), as wide as
//!    [`crate::AuditConfig::threads`] allows, and the final sum is taken
//!    serially in pair order. Every path gives the same bits as
//!    [`crate::unfairness::average_pairwise`], and the chunked path's
//!    value and counters are independent of the thread count. A
//!    distance error in a worker propagates as [`AuditError::Distance`],
//!    not a panic.
//! 4. **Bound screen** — [`IncrementalEval::score_replacements_bounded`]
//!    upper-bounds a candidate replacement from warm memo entries plus
//!    the distance's cheap bounds
//!    ([`fairjob_hist::HistogramDistance::bounds`], fed by each
//!    histogram's cached prefix CDF) and abandons it before any exact
//!    solve when the bound plus [`crate::unfairness::PRUNE_MARGIN`]
//!    still falls short of the incumbent — the branch-and-bound step
//!    of the candidate search. Pruned candidates provably cannot win,
//!    so search results stay bit-identical.
//! 5. **Column screen** — for distances with a weighted-L1 form
//!    ([`fairjob_hist::HistogramDistance::l1_form`]: `emd`, `tv`),
//!    the engine scores every candidate of a worst-attribute round from
//!    sorted per-bin columns, with no pair distance, memo lookup or
//!    bound, and names the winner when no other candidate is within
//!    [`crate::unfairness::PRUNE_MARGIN`] of it. Ties fall back to
//!    levels 2 and 4, so winners stay bit-identical; reported values
//!    still come from level 3's full evaluations. Distances without the
//!    form, and wrappers that do not forward it, keep levels 2 and 4.
//!
//! On top of the distance paths sits the **split cache**:
//!
//! 6. **Split cache** — [`EvalEngine::split`] and
//!    [`EvalEngine::split_batch`] answer split requests from the
//!    context's cell cube ([`AuditContext::split`]: a partition's cells
//!    grouped by one attribute's code, no row read) and memoise the
//!    children under the parent's predicate fingerprint × attribute,
//!    sharing them as [`Arc<Partition>`]s ([`SplitChildren`]). Losing
//!    candidates — recomputed every greedy round by the seed — cost a
//!    lookup after first touch. Non-viable splits are negatively cached
//!    too, since greedy loops retry them each round. Entries hold cube
//!    cells, so they pass to another engine only when its context's
//!    cube has the same [`crate::CellCube::fingerprint`].
//!
//! The engine counts distances computed and cache hits, candidates
//! scored from columns and the screen's ties, plus splits
//! computed, split-cache hits and histograms built, and reports the
//! rows its context read into the cube ([`EngineStats`]); algorithms
//! surface the counters through [`crate::report::AuditResult::engine`]
//! and the CLI audit report.
//! Every cached or incremental result stays within 1e-9 of the naive
//! [`crate::AuditContext::unfairness`] on identical inputs.

use crate::context::AuditContext;
use crate::error::AuditError;
use crate::partition::Partition;
use crate::pool::{thread_budget, WorkerPool};
use crate::scratch::with_scratch;
use crate::unfairness::{PairwiseAverager, PRUNE_MARGIN};
use fairjob_hist::{Histogram, L1Form, PairBatch, ScratchStats};
use fairjob_store::Predicate;
use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// The shared children of one split: the engine hands the same `Arc`s
/// to every algorithm that asks, so a split is computed (cells grouped,
/// histograms built) at most once per engine lifetime.
pub type SplitChildren = Arc<Vec<Arc<Partition>>>;

/// One candidate partitioning, written as replacements of a base
/// partitioning: `(index into the base, children)` pairs, indexes
/// ascending.
pub(crate) type Replacements<'p> = Vec<(usize, &'p [Arc<Partition>])>;

/// Facts about one row at a point in time, as predicates and histograms
/// see it: the row's categorical codes (indexed by schema attribute id;
/// only splittable attributes are meaningful) and the bin index of its
/// score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowFacts {
    /// `codes[attr]` = dictionary code of attribute `attr` at this row.
    pub codes: Vec<u32>,
    /// Histogram bin of the row's score.
    pub bin: u32,
}

/// One changed row of an epoch delta. `before == None` means the row
/// was added within the epoch; `after == None` means it was removed.
/// A row touched several times in one epoch must be reported once, with
/// `before` its state at epoch start and `after` at epoch end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowChange {
    /// The row id (stable across the stream view's lifetime).
    pub row: u32,
    /// State at epoch start (`None` for rows added this epoch).
    pub before: Option<RowFacts>,
    /// State at epoch end (`None` for rows removed this epoch).
    pub after: Option<RowFacts>,
}

/// Does `pred` match a row in state `facts`? A missing state (the row
/// does not exist on that side of the epoch) matches nothing.
fn matches_facts(pred: &Predicate, facts: Option<&RowFacts>) -> bool {
    let Some(facts) = facts else { return false };
    pred.constraints()
        .iter()
        .all(|c| facts.codes.get(c.attr).copied() == Some(c.code))
}

/// What [`EngineCaches::invalidate`] did to a warm cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvalidationReport {
    /// Memoised distances dropped (a dirty or unknown endpoint).
    pub distances_evicted: usize,
    /// Memoised distances kept warm.
    pub distances_retained: usize,
}

/// The hasher of the engine's fingerprint-keyed maps: one folded
/// multiply per 64-bit half of every key word.
///
/// Every key these maps see is built from [`Predicate::fingerprint`]s
/// (plus a schema attribute index), which are already 128-bit FNV mixes
/// of schema attribute indexes and the dictionary codes the store
/// assigns in first-seen order. No byte from outside the program
/// reaches the hasher, so SipHash's resistance to crafted collisions
/// buys nothing here, while its cost dominated warm memo lookups. Both
/// halves of each word are mixed, so keys that differ in either half
/// still spread over the buckets.
#[derive(Debug, Clone, Copy)]
struct FingerprintHasher(u64);

impl Default for FingerprintHasher {
    fn default() -> Self {
        // A non-zero start (the first digits of pi), so an all-zero
        // key word does not fold to zero.
        FingerprintHasher(0x243f_6a88_85a3_08d3)
    }
}

impl FingerprintHasher {
    fn mix(&mut self, word: u64) {
        // 2^64 / golden ratio; folding the 128-bit product's halves
        // carries every input bit into the low bits that pick a bucket.
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let product = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }

    fn write_u128(&mut self, word: u128) {
        self.mix(word as u64);
        self.mix((word >> 64) as u64);
    }
}

/// The engine's one `BuildHasher`, for maps and sets keyed by
/// predicate fingerprints only (see [`FingerprintHasher`]).
type FingerprintBuild = BuildHasherDefault<FingerprintHasher>;

/// Cap on each cache's entry count: bounds an engine's memory.
const CACHE_CAPACITY: usize = 8_000_000;

/// Live partitions from which a full evaluation computes its missing
/// pairs in chunks on the worker pool instead of in one serial loop.
/// Below it, the pool's dispatch costs more than it saves.
const PARALLEL_THRESHOLD: usize = 256;

/// Fixed chunk size (in pairs) of a chunked full evaluation. Independent
/// of the thread count, so the chunk count — and with it the
/// `pool_tasks` counter and the solver counters, which restart per
/// chunk — is identical no matter how many workers run the chunks.
const PAIR_CHUNK: usize = 1024;

/// The engine's cache state, detached from any engine lifetime so it
/// can survive across audits (FairQL statements, stream epochs): the
/// distance memo, the split cache, and a fingerprint → predicate
/// registry of the memo's endpoints that lets
/// [`EngineCaches::invalidate`] map changed rows to affected distances.
///
/// Split entries hold cells of one cube; `cube` records its
/// fingerprint, and an engine whose context has another cube drops them
/// on adoption (a stream epoch that changed rows, a new `WHERE` or
/// attribute list). Both caches are bounded (8 M entries each) with
/// generation-based eviction: when a cache fills, entries not
/// touched-by-insert since the previous sweep are dropped in one pass —
/// a deterministic two-generation FIFO, so counters stay thread-count
/// independent.
#[derive(Debug)]
pub struct EngineCaches {
    /// Distance memo: ordered fingerprint pair → (distance, generation).
    memo: HashMap<(u128, u128), (f64, u32), FingerprintBuild>,
    /// Split cache: (parent fingerprint, attribute) → (children or
    /// `None` for non-viable, generation).
    splits: HashMap<(u128, usize), (Option<SplitChildren>, u32), FingerprintBuild>,
    /// Fingerprint of the cube the split entries were computed on.
    cube: Option<u128>,
    /// Every fingerprint that may appear in a memo key, with the
    /// predicate it stands for. Fingerprints missing here are evicted
    /// conservatively on invalidation.
    registry: HashMap<u128, Predicate, FingerprintBuild>,
    memo_generation: u32,
    split_generation: u32,
}

/// Drop stale generations from `map` once it reaches `capacity`.
/// Returns the number of entries evicted.
fn sweep<K: std::hash::Hash + Eq, V>(
    map: &mut HashMap<K, (V, u32), FingerprintBuild>,
    generation: &mut u32,
    capacity: usize,
) -> u64 {
    if map.len() < capacity {
        return 0;
    }
    let current = *generation;
    let before = map.len();
    map.retain(|_, (_, g)| *g == current);
    *generation = generation.wrapping_add(1);
    let mut evicted = (before - map.len()) as u64;
    if map.len() >= capacity {
        // Everything was current-generation: fall back to a full clear.
        evicted += map.len() as u64;
        map.clear();
    }
    evicted
}

impl Default for EngineCaches {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineCaches {
    /// Empty caches.
    pub fn new() -> Self {
        EngineCaches {
            memo: HashMap::default(),
            splits: HashMap::default(),
            cube: None,
            registry: HashMap::default(),
            memo_generation: 0,
            split_generation: 0,
        }
    }

    /// Number of memoised distances.
    pub fn distances(&self) -> usize {
        self.memo.len()
    }

    /// Number of cached split entries (positive and negative).
    pub fn splits(&self) -> usize {
        self.splits.len()
    }

    fn register(&mut self, fp: u128, pred: &Predicate) {
        if self.registry.len() >= CACHE_CAPACITY {
            // A full registry makes every fingerprint unknown at the
            // next invalidation — conservative, never wrong.
            self.registry.clear();
        }
        self.registry.entry(fp).or_insert_with(|| pred.clone());
    }

    fn get_distance(&self, key: (u128, u128)) -> Option<f64> {
        self.memo.get(&key).map(|&(d, _)| d)
    }

    fn insert_distance(&mut self, key: (u128, u128), d: f64) -> u64 {
        let evicted = sweep(&mut self.memo, &mut self.memo_generation, CACHE_CAPACITY);
        self.memo.insert(key, (d, self.memo_generation));
        evicted
    }

    fn get_split(&self, key: (u128, usize)) -> Option<Option<SplitChildren>> {
        self.splits.get(&key).map(|(e, _)| e.clone())
    }

    fn insert_split(&mut self, key: (u128, usize), entry: Option<SplitChildren>) -> u64 {
        let evicted = sweep(&mut self.splits, &mut self.split_generation, CACHE_CAPACITY);
        self.splits.insert(key, (entry, self.split_generation));
        evicted
    }

    /// Keep the split entries only if they were computed on the cube
    /// fingerprinted `cube`; they then belong to it.
    fn adopt_cube(&mut self, cube: u128) {
        if self.cube != Some(cube) {
            self.splits.clear();
            self.cube = Some(cube);
        }
    }

    /// Selective invalidation of the distance memo after an epoch of
    /// row changes: keep every distance whose partitions the changes
    /// cannot have touched and evict the rest (a dirty or unknown
    /// endpoint). Split entries need no invalidation: they belong to
    /// one cube, and a changed row changes the cube.
    pub fn invalidate(&mut self, changes: &[RowChange]) -> InvalidationReport {
        if changes.is_empty() {
            return InvalidationReport {
                distances_evicted: 0,
                distances_retained: self.memo.len(),
            };
        }
        // Dirty fingerprints: predicates matching any changed row's
        // before- or after-state. The always-true predicate (the root)
        // matches every change.
        let dirty: HashSet<u128, FingerprintBuild> = self
            .registry
            .iter()
            .filter(|(_, pred)| {
                changes.iter().any(|c| {
                    matches_facts(pred, c.before.as_ref()) || matches_facts(pred, c.after.as_ref())
                })
            })
            .map(|(&fp, _)| fp)
            .collect();
        let registry = &self.registry;
        let before = self.memo.len();
        self.memo.retain(|(a, b), _| {
            registry.contains_key(a)
                && registry.contains_key(b)
                && !dirty.contains(a)
                && !dirty.contains(b)
        });
        InvalidationReport {
            distances_evicted: before - self.memo.len(),
            distances_retained: self.memo.len(),
        }
    }
}

/// Counter snapshot of an engine's work (all monotonically increasing
/// over the engine's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Distances actually computed: memo misses, plus every pair of a
    /// full evaluation that skips the memo (distances with an L1 form).
    pub distances_computed: u64,
    /// Distance lookups served from the memo cache (0 for the full
    /// evaluations of distances with an L1 form, which skip it).
    pub cache_hits: u64,
    /// Splits computed from the context's cell cube (split-cache misses;
    /// includes non-viable attempts, which are negatively cached).
    pub splits_computed: u64,
    /// Split requests served from the split cache.
    pub split_cache_hits: u64,
    /// Rows read into the context's cell cube: every audited row once
    /// when the context builds its cube (in memory, filtered or paged),
    /// none when a stream view maintains it. Splits read cells, never
    /// rows, and the one row-order pass that builds the returned
    /// partitioning's row sets is not counted. Context-cumulative, like
    /// [`Self::shard_tasks`], but layout-independent.
    pub rows_scanned: u64,
    /// Child histograms built by computed splits.
    pub histograms_built: u64,
    /// Distance-memo entries dropped by generation-based eviction when
    /// the cache hit its capacity.
    pub cache_evictions: u64,
    /// Split-cache entries dropped by generation-based eviction when
    /// the cache hit its capacity.
    pub split_evictions: u64,
    /// Candidate pairs settled by the bound screen alone — exact solves
    /// the branch-and-bound pruning skipped.
    pub bounds_screened: u64,
    /// Distances computed while scoring candidates exactly (the
    /// survivors of the bound screen; a subset of `distances_computed`).
    pub exact_solves: u64,
    /// Candidate partitionings scored from sorted L1 columns by the
    /// column screen — no pair distance, memo lookup or bound.
    pub column_scored: u64,
    /// Column-screen rounds in which two or more candidates came within
    /// [`crate::unfairness::PRUNE_MARGIN`] of the best, so the round fell
    /// back to exact delta scoring.
    pub column_ties: u64,
    /// Chunks dispatched through the persistent worker pool (counted
    /// even when executed inline at one thread, so the counter is
    /// thread-count independent).
    pub pool_tasks: u64,
    /// Exact solves whose ground matrix was served from a cache tier
    /// (scratch-local slot or the process-wide ground cache) instead of
    /// being rebuilt. Zero for closed-form distances, which never build
    /// a ground matrix.
    pub ground_cache_hits: u64,
    /// Exact solves that reused a persistent solver workspace instead
    /// of allocating a fresh solver (solves beyond the first in their
    /// batch chunk).
    pub scratch_reuses: u64,
    /// Exact flow solves warm-started from the previous pair's round-1
    /// Dijkstra (consecutive chunk pairs sharing a support set).
    pub warm_starts: u64,
    /// Tasks the context build's classify pass ran: one per row range
    /// in memory, one per page read when paged. An in-memory build runs
    /// one range below 65 536 rows and, from 65 536 rows, one per
    /// thread (at most nine), so this counter follows the thread count
    /// there and is excluded from the layout-independence parity the
    /// other counters guarantee. Unlike the engine-local counters above,
    /// the build counters are **context-cumulative**: they live on the
    /// [`crate::AuditContext`] (the build runs before any engine
    /// exists).
    pub shard_tasks: u64,
    /// Rows the context build classified into score bins: every table
    /// row in memory, the rows of the score pages read when paged, none
    /// when a stream view or a prebuilt bin column supplies the bins.
    /// Independent of the thread count, but kept out of the
    /// layout-independence parity alongside
    /// [`Self::shard_tasks`] because the paged build meters only the
    /// rows it reads. Context-cumulative, like [`Self::shard_tasks`].
    pub rows_classified_parallel: u64,
    /// Page requests served from the paged store's buffer cache (0 for
    /// in-memory contexts). Like the build counters, the page counters
    /// are context-cumulative and **layout-dependent**: they vary with
    /// the `--mem-budget` cache size and page layout, never with the
    /// audit's results.
    pub page_hits: u64,
    /// Page requests that went to disk (context-cumulative).
    pub page_misses: u64,
    /// Cached pages evicted to respect the memory budget
    /// (context-cumulative).
    pub page_evictions: u64,
    /// Pages scans skipped via zone maps or candidate pruning without
    /// reading them (context-cumulative; `pages_skipped +
    /// pages_scanned` over one full-column scan equals that column's
    /// page count).
    pub pages_skipped: u64,
    /// Pages scans actually consumed, cache hit or miss alike
    /// (context-cumulative).
    pub pages_scanned: u64,
}

impl EngineStats {
    /// Total distance lookups the engine answered.
    pub fn lookups(&self) -> u64 {
        self.distances_computed + self.cache_hits
    }

    /// Total split requests the engine answered.
    pub fn split_lookups(&self) -> u64 {
        self.splits_computed + self.split_cache_hits
    }

    /// Accumulate another run's counters into this one — the
    /// aggregation a resident server's `METRICS` endpoint reports
    /// across every audit and epoch it has executed.
    pub fn merge(&mut self, other: &EngineStats) {
        self.distances_computed += other.distances_computed;
        self.cache_hits += other.cache_hits;
        self.splits_computed += other.splits_computed;
        self.split_cache_hits += other.split_cache_hits;
        self.rows_scanned += other.rows_scanned;
        self.histograms_built += other.histograms_built;
        self.cache_evictions += other.cache_evictions;
        self.split_evictions += other.split_evictions;
        self.bounds_screened += other.bounds_screened;
        self.exact_solves += other.exact_solves;
        self.column_scored += other.column_scored;
        self.column_ties += other.column_ties;
        self.pool_tasks += other.pool_tasks;
        self.ground_cache_hits += other.ground_cache_hits;
        self.scratch_reuses += other.scratch_reuses;
        self.warm_starts += other.warm_starts;
        self.shard_tasks += other.shard_tasks;
        self.rows_classified_parallel += other.rows_classified_parallel;
        self.page_hits += other.page_hits;
        self.page_misses += other.page_misses;
        self.page_evictions += other.page_evictions;
        self.pages_skipped += other.pages_skipped;
        self.pages_scanned += other.pages_scanned;
    }

    /// The ordered `(name, value)` view of every counter, the single
    /// source of truth for anything that renders stats (reports, serve
    /// responses, `EXPLAIN ANALYZE`). Order is the field order above.
    /// The exhaustive destructuring makes this function — and through
    /// it every renderer — fail to compile when a counter is added to
    /// the struct but not listed here.
    pub fn as_pairs(&self) -> [(&'static str, u64); 23] {
        let EngineStats {
            distances_computed,
            cache_hits,
            splits_computed,
            split_cache_hits,
            rows_scanned,
            histograms_built,
            cache_evictions,
            split_evictions,
            bounds_screened,
            exact_solves,
            column_scored,
            column_ties,
            pool_tasks,
            ground_cache_hits,
            scratch_reuses,
            warm_starts,
            shard_tasks,
            rows_classified_parallel,
            page_hits,
            page_misses,
            page_evictions,
            pages_skipped,
            pages_scanned,
        } = *self;
        [
            ("distances_computed", distances_computed),
            ("cache_hits", cache_hits),
            ("splits_computed", splits_computed),
            ("split_cache_hits", split_cache_hits),
            ("rows_scanned", rows_scanned),
            ("histograms_built", histograms_built),
            ("cache_evictions", cache_evictions),
            ("split_evictions", split_evictions),
            ("bounds_screened", bounds_screened),
            ("exact_solves", exact_solves),
            ("column_scored", column_scored),
            ("column_ties", column_ties),
            ("pool_tasks", pool_tasks),
            ("ground_cache_hits", ground_cache_hits),
            ("scratch_reuses", scratch_reuses),
            ("warm_starts", warm_starts),
            ("shard_tasks", shard_tasks),
            ("rows_classified_parallel", rows_classified_parallel),
            ("page_hits", page_hits),
            ("page_misses", page_misses),
            ("page_evictions", page_evictions),
            ("pages_skipped", pages_skipped),
            ("pages_scanned", pages_scanned),
        ]
    }
}

/// The memo key of a pair: its two fingerprints, smaller first, so
/// both orders of a pair share one entry.
fn pair_key(key_a: u128, key_b: u128) -> (u128, u128) {
    if key_a <= key_b {
        (key_a, key_b)
    } else {
        (key_b, key_a)
    }
}

/// The pairs `(i, j)`, `i < j < n`, of a full evaluation over `n`
/// partitions in its (i, j) order, from the pair numbered `start` on.
fn pairs_from(n: usize, start: usize) -> impl Iterator<Item = (usize, usize)> {
    let end = n * n.saturating_sub(1) / 2;
    row_segments(n, start..end).flat_map(|(i, js)| js.map(move |j| (i, j)))
}

/// The pairs numbered `range` of a full evaluation over `n` partitions,
/// in its (i, j) order, as row segments `(i, js)`: the pairs `(i, j)`
/// for `j` in `js`.
fn row_segments(n: usize, range: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> {
    // Row i holds the n − 1 − i pairs (i, i + 1..n).
    let (mut first, mut skip) = (0, range.start);
    while first < n && skip >= n - 1 - first {
        skip -= n - 1 - first;
        first += 1;
    }
    let mut left = range.len();
    (first..n).map_while(move |i| {
        let from = if i == first { i + 1 + skip } else { i + 1 };
        let to = n.min(from + left);
        left -= to - from;
        (from < to).then_some((i, from..to))
    })
}

/// The shared evaluation engine: a fingerprint-keyed distance memo
/// cache over one [`AuditContext`], plus the cached/incremental/parallel
/// evaluation paths built on it. Create one per algorithm run and route
/// every unfairness query through it.
pub struct EvalEngine<'c, 'a> {
    ctx: &'c AuditContext<'a>,
    /// Memo cache, split cache, and fingerprint registry — detachable
    /// state ([`EngineCaches`]) so FairQL sessions and streaming audits
    /// can carry it across engine lifetimes (seeded via
    /// [`AuditContext::seed_engine_caches`], returned on drop).
    caches: RefCell<EngineCaches>,
    /// True when the caches were adopted from the context; only then
    /// are they handed back on drop (engines built cold stay
    /// independent, preserving per-run counter semantics).
    adopted: bool,
    distances_computed: Cell<u64>,
    cache_hits: Cell<u64>,
    splits_computed: Cell<u64>,
    split_cache_hits: Cell<u64>,
    histograms_built: Cell<u64>,
    cache_evictions: Cell<u64>,
    split_evictions: Cell<u64>,
    bounds_screened: Cell<u64>,
    exact_solves: Cell<u64>,
    column_scored: Cell<u64>,
    column_ties: Cell<u64>,
    pool_tasks: Cell<u64>,
    ground_cache_hits: Cell<u64>,
    scratch_reuses: Cell<u64>,
    warm_starts: Cell<u64>,
    /// Pool width of the chunked paths, resolved once from the
    /// context's `threads` setting.
    threads: usize,
    /// The distance's weighted-L1 form on the context's layout,
    /// resolved once. `Some` sends full evaluations past the memo
    /// ([`EvalEngine::unfairness`]) and enables the column screen.
    l1_form: Option<L1Form>,
}

impl Drop for EvalEngine<'_, '_> {
    fn drop(&mut self) {
        if self.adopted {
            self.ctx
                .store_engine_caches(std::mem::take(&mut *self.caches.borrow_mut()));
        }
    }
}

impl<'c, 'a> EvalEngine<'c, 'a> {
    /// An engine over `ctx`: chunked full evaluation from 256 live
    /// partitions, worker threads from the context's `threads` setting
    /// (default: the machine's available parallelism capped at 8, read
    /// once per process, so building an engine makes no system call),
    /// caches capped at 8 M entries each. When the context carries
    /// seeded caches ([`AuditContext::seed_engine_caches`]) they are
    /// adopted warm — their split entries only if they were computed on
    /// a cube with this context's cube's fingerprint — and handed back
    /// when the engine drops.
    pub fn new(ctx: &'c AuditContext<'a>) -> Self {
        let threads = thread_budget(ctx.threads());
        let (caches, adopted) = match ctx.take_engine_caches() {
            Some(mut seeded) => {
                seeded.adopt_cube(ctx.cube().fingerprint());
                (seeded, true)
            }
            None => (EngineCaches::new(), false),
        };
        EvalEngine {
            ctx,
            caches: RefCell::new(caches),
            adopted,
            distances_computed: Cell::new(0),
            cache_hits: Cell::new(0),
            splits_computed: Cell::new(0),
            split_cache_hits: Cell::new(0),
            histograms_built: Cell::new(0),
            cache_evictions: Cell::new(0),
            split_evictions: Cell::new(0),
            bounds_screened: Cell::new(0),
            exact_solves: Cell::new(0),
            column_scored: Cell::new(0),
            column_ties: Cell::new(0),
            pool_tasks: Cell::new(0),
            ground_cache_hits: Cell::new(0),
            scratch_reuses: Cell::new(0),
            warm_starts: Cell::new(0),
            threads,
            l1_form: ctx.distance().l1_form(ctx.spec()),
        }
    }

    /// The audited context this engine evaluates against.
    pub fn ctx(&self) -> &'c AuditContext<'a> {
        self.ctx
    }

    /// The cache key of a partition: its predicate's structural
    /// fingerprint.
    pub fn key(part: &Partition) -> u128 {
        part.predicate.fingerprint()
    }

    /// Current counter values.
    pub fn stats(&self) -> EngineStats {
        let pages = self.ctx.page_counters();
        EngineStats {
            distances_computed: self.distances_computed.get(),
            cache_hits: self.cache_hits.get(),
            splits_computed: self.splits_computed.get(),
            split_cache_hits: self.split_cache_hits.get(),
            rows_scanned: self.ctx.cube_rows(),
            histograms_built: self.histograms_built.get(),
            cache_evictions: self.cache_evictions.get(),
            split_evictions: self.split_evictions.get(),
            bounds_screened: self.bounds_screened.get(),
            exact_solves: self.exact_solves.get(),
            column_scored: self.column_scored.get(),
            column_ties: self.column_ties.get(),
            pool_tasks: self.pool_tasks.get(),
            ground_cache_hits: self.ground_cache_hits.get(),
            scratch_reuses: self.scratch_reuses.get(),
            warm_starts: self.warm_starts.get(),
            shard_tasks: self.ctx.shard_tasks(),
            rows_classified_parallel: self.ctx.rows_classified_parallel(),
            page_hits: pages.hits,
            page_misses: pages.misses,
            page_evictions: pages.evictions,
            pages_skipped: pages.pages_skipped,
            pages_scanned: pages.pages_scanned,
        }
    }

    fn bump(counter: &Cell<u64>) {
        counter.set(counter.get() + 1);
    }

    fn note_screened(&self, pairs: u64) {
        self.bounds_screened.set(self.bounds_screened.get() + pairs);
    }

    fn note_exact_solves(&self, solves: u64) {
        self.exact_solves.set(self.exact_solves.get() + solves);
    }

    fn note_computed(&self, pairs: usize) {
        self.distances_computed
            .set(self.distances_computed.get() + pairs as u64);
    }

    fn note_pool_tasks(&self, chunks: u64) {
        self.pool_tasks.set(self.pool_tasks.get() + chunks);
    }

    fn note_scratch(&self, s: ScratchStats) {
        self.ground_cache_hits
            .set(self.ground_cache_hits.get() + s.ground_cache_hits);
        self.scratch_reuses
            .set(self.scratch_reuses.get() + s.scratch_reuses);
        self.warm_starts.set(self.warm_starts.get() + s.warm_starts);
    }

    /// One serial exact distance on this thread's persistent scratch.
    /// Each call is its own chunk (`begin_chunk`), so the counters it
    /// yields never depend on what previously ran on this thread —
    /// identical for every thread count and call interleaving.
    fn scratch_distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, AuditError> {
        let (d, stats) = with_scratch(|scratch| {
            scratch.begin_chunk();
            let d = self.ctx.distance().distance_with(a, b, scratch);
            (d, scratch.take_stats())
        });
        self.note_scratch(stats);
        Ok(d?)
    }

    /// An upper bound on the distance between two keyed histograms,
    /// without computing it: a warm memo entry answers exactly (second
    /// element `true`), otherwise the distance's bound provider answers
    /// (`false`). `None` means neither is available and the caller must
    /// fall back to exact scoring. Probes never touch the lookup
    /// counters — a bound pass is not a distance lookup.
    fn pair_upper(
        &self,
        key_a: u128,
        a: &Histogram,
        key_b: u128,
        b: &Histogram,
    ) -> Option<(f64, bool)> {
        if let Some(d) = self.caches.borrow().get_distance(pair_key(key_a, key_b)) {
            return Some((d, true));
        }
        self.ctx.distance().bounds(a, b).map(|bd| (bd.upper, false))
    }

    /// Record a partition's predicate in the cache registry so
    /// selective invalidation can later map changed rows to its cache
    /// entries. Returns the fingerprint.
    fn register(&self, part: &Partition) -> u128 {
        let fp = Self::key(part);
        self.caches.borrow_mut().register(fp, &part.predicate);
        fp
    }

    fn insert_cache(&self, key: (u128, u128), d: f64) {
        let evicted = self.caches.borrow_mut().insert_distance(key, d);
        self.cache_evictions
            .set(self.cache_evictions.get() + evicted);
    }

    /// Memoised distance between two keyed histograms.
    pub(crate) fn cached_distance(
        &self,
        key_a: u128,
        a: &Histogram,
        key_b: u128,
        b: &Histogram,
    ) -> Result<f64, AuditError> {
        let key = pair_key(key_a, key_b);
        if let Some(d) = self.caches.borrow().get_distance(key) {
            Self::bump(&self.cache_hits);
            return Ok(d);
        }
        let d = self.scratch_distance(a, b)?;
        Self::bump(&self.distances_computed);
        self.insert_cache(key, d);
        Ok(d)
    }

    /// The split of `part` by `attr`, served from the split cache when
    /// this (parent, attribute) pair was split before — including
    /// negatively: a split the context refused is remembered as `None`
    /// and never re-attempted. Cache misses group the parent's cube
    /// cells ([`AuditContext::split`]).
    pub fn split(&self, part: &Partition, attr: usize) -> Option<SplitChildren> {
        self.split_batch(&[(part, attr)])
            .pop()
            .expect("one request, one result")
    }

    /// Answer a batch of split requests in request order: a request the
    /// predicate already constrains is refused inline (neither cached
    /// nor counted), a cached one is a hit, and a miss groups the
    /// parent's cells and is cached for later requests — in this batch
    /// too. A split costs its cells, so the batch runs on the calling
    /// thread; children, counters and cache state depend on the
    /// requests alone.
    pub fn split_batch(&self, requests: &[(&Partition, usize)]) -> Vec<Option<SplitChildren>> {
        let mut caches = self.caches.borrow_mut();
        requests
            .iter()
            .map(|&(part, attr)| {
                if part.predicate.constrains(attr) {
                    return None;
                }
                let key = (Self::key(part), attr);
                if let Some(cached) = caches.get_split(key) {
                    Self::bump(&self.split_cache_hits);
                    return cached;
                }
                Self::bump(&self.splits_computed);
                let entry: Option<SplitChildren> = self.ctx.split(part, attr).map(|kids| {
                    self.histograms_built
                        .set(self.histograms_built.get() + kids.len() as u64);
                    Arc::new(kids.into_iter().map(Arc::new).collect::<Vec<_>>())
                });
                let evicted = caches.insert_split(key, entry.clone());
                self.split_evictions
                    .set(self.split_evictions.get() + evicted);
                entry
            })
            .collect()
    }

    /// Split every partition of `parts` by `attr` through the cache,
    /// keeping unsplittable partitions whole (shared, not cloned) — the
    /// engine-side counterpart of the algorithms' `split_all` helper.
    pub fn split_all(&self, parts: &[Arc<Partition>], attr: usize) -> Vec<Arc<Partition>> {
        let requests: Vec<(&Partition, usize)> = parts.iter().map(|p| (p.as_ref(), attr)).collect();
        let results = self.split_batch(&requests);
        let mut out = Vec::new();
        for (part, children) in parts.iter().zip(results) {
            match children {
                Some(kids) => out.extend(kids.iter().cloned()),
                None => out.push(Arc::clone(part)),
            }
        }
        out
    }

    /// Full evaluation of `unfairness(parts, f)` — identical to
    /// [`AuditContext::unfairness`] (pair order, the liveness rule
    /// [`Partition::is_live`], and final division match exactly). For a
    /// distance with an L1 form (`emd`, `tv`) every pair is computed,
    /// with no memo lookup, insert or registry entry: a lookup costs as
    /// much as the distance. Those pairs come from the distance's batch
    /// form when it takes every live histogram. For every other distance
    /// the pairs go through the memo. From 256 live partitions on, the
    /// pairs to compute are computed in chunks on the worker pool.
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] from the underlying distance, including
    /// errors raised inside parallel workers.
    pub fn unfairness<P: Borrow<Partition>>(&self, parts: &[P]) -> Result<f64, AuditError> {
        let refs: Vec<&Partition> = parts.iter().map(Borrow::borrow).collect();
        self.unfairness_refs(&refs)
    }

    /// Full evaluation over the union of two partition groups, without
    /// cloning either: [`EvalEngine::unfairness`] of `group` followed by
    /// `siblings`.
    ///
    /// # Errors
    ///
    /// As for [`EvalEngine::unfairness`].
    pub fn unfairness_union<P: Borrow<Partition>, Q: Borrow<Partition>>(
        &self,
        group: &[P],
        siblings: &[Q],
    ) -> Result<f64, AuditError> {
        let refs: Vec<&Partition> = group
            .iter()
            .map(Borrow::borrow)
            .chain(siblings.iter().map(Borrow::borrow))
            .collect();
        self.unfairness_refs(&refs)
    }

    /// Evaluation over cross pairs only (`group` × `siblings`), in one
    /// serial loop, mirroring [`AuditContext::unfairness_cross`]; the
    /// memo is used exactly when [`EvalEngine::unfairness`] uses it.
    ///
    /// # Errors
    ///
    /// As for [`EvalEngine::unfairness`].
    pub fn unfairness_cross<P: Borrow<Partition>, Q: Borrow<Partition>>(
        &self,
        group: &[P],
        siblings: &[Q],
    ) -> Result<f64, AuditError> {
        let ga: Vec<&Partition> = group
            .iter()
            .map(Borrow::borrow)
            .filter(|p| p.is_live())
            .collect();
        let gb: Vec<&Partition> = siblings
            .iter()
            .map(Borrow::borrow)
            .filter(|p| p.is_live())
            .collect();
        if ga.is_empty() || gb.is_empty() {
            return Ok(0.0);
        }
        let pairs = ga.len() * gb.len();
        let mut sum = 0.0;
        if self.l1_form.is_some() {
            let both: Vec<&Partition> = ga.iter().chain(&gb).copied().collect();
            if let Some(batch) = self.pair_batch(&both) {
                let mut row = Vec::with_capacity(gb.len());
                for a in 0..ga.len() {
                    row.clear();
                    batch.distances_into(a, ga.len()..both.len(), &mut row);
                    for d in &row {
                        sum += d;
                    }
                }
            } else {
                let distance = self.ctx.distance();
                for a in &ga {
                    for b in &gb {
                        sum += distance.distance(&a.histogram, &b.histogram)?;
                    }
                }
            }
            self.note_computed(pairs);
        } else {
            let ka: Vec<u128> = ga.iter().map(|p| self.register(p)).collect();
            let kb: Vec<u128> = gb.iter().map(|p| self.register(p)).collect();
            for (a, &key_a) in ga.iter().zip(&ka) {
                for (b, &key_b) in gb.iter().zip(&kb) {
                    sum += self.cached_distance(key_a, &a.histogram, key_b, &b.histogram)?;
                }
            }
        }
        Ok(sum / pairs as f64)
    }

    fn unfairness_refs(&self, parts: &[&Partition]) -> Result<f64, AuditError> {
        let live: Vec<&Partition> = parts.iter().copied().filter(|p| p.is_live()).collect();
        let n = live.len();
        if n < 2 {
            return Ok(0.0);
        }
        let pairs = n * (n - 1) / 2;
        if self.l1_form.is_some() {
            return self.unfairness_direct(&live, pairs);
        }
        let keys: Vec<u128> = live.iter().map(|p| self.register(p)).collect();
        // Note: no thread-count condition — at one thread the chunked
        // path runs its chunks inline, so counters (`pool_tasks`
        // included) are identical for every thread count.
        if n >= PARALLEL_THRESHOLD {
            return self.unfairness_parallel(&live, &keys, pairs);
        }
        let mut sum = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                sum +=
                    self.cached_distance(keys[i], &live[i].histogram, keys[j], &live[j].histogram)?;
            }
        }
        Ok(sum / pairs as f64)
    }

    /// The distance's batch form over the partitions' histograms
    /// ([`fairjob_hist::HistogramDistance::pair_batch`]), or `None` when
    /// it has none or declines this set.
    fn pair_batch(&self, parts: &[&Partition]) -> Option<PairBatch> {
        let hists: Vec<&Histogram> = parts.iter().map(|p| &p.histogram).collect();
        self.ctx.distance().pair_batch(&hists)
    }

    /// The full evaluation of a distance with an L1 form: every pair
    /// computed and summed in (i, j) pair order — in one serial loop
    /// below 256 live partitions, in fixed chunks on the pool from
    /// there — so the value is the memo path's bit for bit. Pairs come
    /// from the distance's batch form over all `live` histograms; when
    /// it has none or declines the set, each pair from `distance`.
    fn unfairness_direct(&self, live: &[&Partition], pairs: usize) -> Result<f64, AuditError> {
        let n = live.len();
        let batch = self.pair_batch(live);
        let mut sum = 0.0;
        if n >= PARALLEL_THRESHOLD {
            let chunks = match &batch {
                Some(batch) => self.batch_chunks(batch, pairs),
                None => self.pair_chunks(live, pairs, |range| {
                    pairs_from(n, range.start).take(range.len())
                })?,
            };
            for chunk in chunks {
                for v in chunk {
                    sum += v;
                }
            }
        } else if let Some(batch) = batch {
            let mut row = Vec::with_capacity(n);
            for i in 0..n {
                row.clear();
                batch.distances_into(i, i + 1..n, &mut row);
                for v in &row {
                    sum += v;
                }
            }
            self.note_computed(pairs);
        } else {
            let distance = self.ctx.distance();
            for i in 0..n {
                for j in i + 1..n {
                    sum += distance.distance(&live[i].histogram, &live[j].histogram)?;
                }
            }
            self.note_computed(pairs);
        }
        Ok(sum / pairs as f64)
    }

    /// The batch form of [`EvalEngine::pair_chunks`]: every pair of
    /// `batch`'s histograms in the same fixed [`PAIR_CHUNK`]-pair chunks
    /// on the pool, all reading the one shared buffer, so the chunk
    /// count and `pool_tasks` are the per-pair path's. Returns each
    /// chunk's values, chunks in (i, j) pair order.
    fn batch_chunks(&self, batch: &PairBatch, pairs: usize) -> Vec<Vec<f64>> {
        let n = batch.len();
        let chunk_count = pairs.div_ceil(PAIR_CHUNK);
        self.note_pool_tasks(chunk_count as u64);
        let chunks = WorkerPool::global().run_chunks(self.threads, chunk_count, |c| {
            let lo = c * PAIR_CHUNK;
            let hi = (lo + PAIR_CHUNK).min(pairs);
            let mut vals = Vec::with_capacity(hi - lo);
            for (i, js) in row_segments(n, lo..hi) {
                batch.distances_into(i, js, &mut vals);
            }
            vals
        });
        self.note_computed(pairs);
        chunks
    }

    /// The memo path's chunked full evaluation: serial hit/miss
    /// classification, the misses computed in
    /// [`EvalEngine::pair_chunks`], then a serial sum in (i, j) pair
    /// order so the floating-point result is thread-count independent.
    fn unfairness_parallel(
        &self,
        live: &[&Partition],
        keys: &[u128],
        pairs: usize,
    ) -> Result<f64, AuditError> {
        let n = live.len();
        let mut vals: Vec<f64> = Vec::with_capacity(pairs);
        // (position in `vals`, i, j) of each pair missing from the cache.
        let mut misses: Vec<(usize, usize, usize)> = Vec::new();
        {
            let caches = self.caches.borrow();
            let mut hits = 0u64;
            for i in 0..n {
                for j in i + 1..n {
                    match caches.get_distance(pair_key(keys[i], keys[j])) {
                        Some(d) => {
                            vals.push(d);
                            hits += 1;
                        }
                        None => {
                            misses.push((vals.len(), i, j));
                            vals.push(f64::NAN);
                        }
                    }
                }
            }
            self.cache_hits.set(self.cache_hits.get() + hits);
        }
        if !misses.is_empty() {
            let computed = self.pair_chunks(live, misses.len(), |range| {
                misses[range].iter().map(|&(_, i, j)| (i, j))
            })?;
            let mut caches = self.caches.borrow_mut();
            let mut evicted = 0u64;
            for (&(at, i, j), &d) in misses.iter().zip(computed.iter().flatten()) {
                vals[at] = d;
                evicted += caches.insert_distance(pair_key(keys[i], keys[j]), d);
            }
            self.cache_evictions
                .set(self.cache_evictions.get() + evicted);
        }
        let mut sum = 0.0;
        for v in &vals {
            sum += v;
        }
        Ok(sum / pairs as f64)
    }

    /// Compute `count` pair distances in fixed [`PAIR_CHUNK`]-pair
    /// chunks on the persistent worker pool: `pairs(range)` yields the
    /// `(i, j)` positions in `live` of the pairs numbered `range`, in
    /// order. Returns each chunk's values, chunks in order. The chunk
    /// count, and with it `pool_tasks` and the solver counters (which
    /// restart per chunk), does not depend on the thread count. A
    /// distance error in a worker comes back as [`AuditError`].
    fn pair_chunks<I>(
        &self,
        live: &[&Partition],
        count: usize,
        pairs: impl Fn(Range<usize>) -> I + Sync,
    ) -> Result<Vec<Vec<f64>>, AuditError>
    where
        I: Iterator<Item = (usize, usize)>,
    {
        let chunk_count = count.div_ceil(PAIR_CHUNK);
        self.note_pool_tasks(chunk_count as u64);
        let distance = self.ctx.distance();
        // Build the shared ground matrix once, serially, so no chunk
        // races to construct it and `ground_cache_hits` is identical
        // for every thread count.
        distance.prime(&live[0].histogram)?;
        let results: Vec<Result<(Vec<f64>, ScratchStats), AuditError>> = WorkerPool::global()
            .run_chunks(self.threads, chunk_count, |c| {
                let lo = c * PAIR_CHUNK;
                let hi = (lo + PAIR_CHUNK).min(count);
                with_scratch(|scratch| {
                    scratch.begin_chunk();
                    let mut vals = Vec::with_capacity(hi - lo);
                    for (i, j) in pairs(lo..hi) {
                        vals.push(distance.distance_with(
                            &live[i].histogram,
                            &live[j].histogram,
                            scratch,
                        )?);
                    }
                    Ok((vals, scratch.take_stats()))
                })
            });
        let mut chunks: Vec<Vec<f64>> = Vec::with_capacity(chunk_count);
        let mut solver = ScratchStats::default();
        for r in results {
            let (vals, stats) = r?;
            chunks.push(vals);
            solver.merge(stats);
        }
        self.note_scratch(solver);
        self.note_computed(count);
        Ok(chunks)
    }

    /// The column screen of the worst-attribute choice: score each
    /// candidate partitioning — `parts` with the candidate's
    /// `(index, children)` replacements applied, indexes ascending —
    /// from sorted L1 columns
    /// ([`fairjob_hist::L1Form::average_pairwise`]), with no pair
    /// distance, memo lookup or bound, and return the index of the one
    /// candidate within [`PRUNE_MARGIN`] of the best.
    ///
    /// `None` when the distance has no L1 form, or when two or more
    /// candidates come that close (counted in
    /// [`EngineStats::column_ties`]): the caller then scores every
    /// candidate exactly. A column score agrees with the exact average up
    /// to rounding (far below 1e-10 at audit sizes) and delta scoring
    /// stays within 1e-9 of it, so a candidate more than `PRUNE_MARGIN`
    /// below another could never win the exact search, and a lone
    /// survivor is its winner.
    pub(crate) fn column_winner(
        &self,
        parts: &[Arc<Partition>],
        candidates: &[Replacements<'_>],
    ) -> Option<usize> {
        let form = self.l1_form.as_ref()?;
        let mut scores: Vec<f64> = Vec::with_capacity(candidates.len());
        let mut columns: Vec<&[f64]> = Vec::new();
        for replacements in candidates {
            columns.clear();
            let mut replacements = replacements.iter().peekable();
            for (i, part) in parts.iter().enumerate() {
                let live = match replacements.next_if(|&&(at, _)| at == i) {
                    Some(&(_, children)) => children,
                    None => std::slice::from_ref(part),
                };
                for p in live.iter().filter(|p| p.is_live()) {
                    columns.push(form.column(&p.histogram)?);
                }
            }
            scores.push(form.average_pairwise(&columns));
        }
        self.column_scored
            .set(self.column_scored.get() + scores.len() as u64);
        let best = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // A NaN score counts as close, which forces exact scoring.
        let mut close =
            (0..scores.len()).filter(|&c| scores[c].is_nan() || scores[c] + PRUNE_MARGIN >= best);
        let winner = close.next()?;
        if close.next().is_some() {
            Self::bump(&self.column_ties);
            return None;
        }
        Some(winner)
    }
}

/// Delta evaluation of candidate splits over one partitioning.
///
/// Seeded once per greedy round with the current partitioning (for a
/// memoizing distance, all pair distances are already cached from the
/// previous round, so seeding computes nothing new after round one), it
/// answers "what would the average
/// pairwise distance be if these partitions were replaced by their
/// children?" at O(k · changed) distance lookups, restoring its state
/// afterwards without recomputing a single distance.
pub struct IncrementalEval<'e, 'c, 'a> {
    engine: &'e EvalEngine<'c, 'a>,
    averager: PairwiseAverager<'e, 'c, 'a>,
    /// Averager slot of each seeded partition, by position in the seed
    /// slice ([`EMPTY_SLOT`] for partitions that are not live, which are
    /// excluded from the average exactly as in
    /// [`AuditContext::unfairness`]).
    slots: Vec<usize>,
}

/// Slot sentinel for seeded partitions that are not live (and therefore
/// not in the averager).
const EMPTY_SLOT: usize = usize::MAX;

/// Outcome of a bounded candidate scoring
/// ([`IncrementalEval::score_replacements_bounded`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CandidateScore {
    /// The candidate was scored exactly — bit for bit the value
    /// [`IncrementalEval::score_replacements`] would have returned.
    Exact(f64),
    /// The candidate was abandoned before any exact solve: its average
    /// provably cannot exceed `upper_bound`, which fell short of the
    /// caller's incumbent by more than
    /// [`crate::unfairness::PRUNE_MARGIN`], so it cannot have won.
    Pruned {
        /// The bound screen's upper bound on the candidate's average.
        upper_bound: f64,
    },
}

impl<'e, 'c, 'a> IncrementalEval<'e, 'c, 'a> {
    /// Seed the evaluator with the current partitioning. Partitions that
    /// are not live ([`Partition::is_live`]) are skipped, matching the
    /// naive evaluation's filter.
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] from the underlying distance.
    pub fn new<P: Borrow<Partition>>(
        engine: &'e EvalEngine<'c, 'a>,
        parts: &[P],
    ) -> Result<Self, AuditError> {
        let mut averager = PairwiseAverager::keyed(engine);
        let mut slots = Vec::with_capacity(parts.len());
        for p in parts {
            let p = p.borrow();
            slots.push(if !p.is_live() {
                EMPTY_SLOT
            } else {
                averager.insert_keyed(engine.register(p), p.histogram.clone())?
            });
        }
        Ok(IncrementalEval {
            engine,
            averager,
            slots,
        })
    }

    /// Average pairwise distance of the seeded partitioning.
    pub fn average(&self) -> f64 {
        self.averager.average()
    }

    /// Score the hypothetical partitioning obtained by replacing each
    /// partition `index` (into the seed slice) with its `children`,
    /// then restore the seeded state. The restore performs no new
    /// distance computations — every distance it needs was computed (and
    /// cached) on the way in.
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] from the underlying distance.
    pub fn score_replacements<P: Borrow<Partition>>(
        &mut self,
        replacements: &[(usize, &[P])],
    ) -> Result<f64, AuditError> {
        match self.score_replacements_bounded(replacements, None)? {
            CandidateScore::Exact(value) => Ok(value),
            CandidateScore::Pruned { .. } => unreachable!("no incumbent was given"),
        }
    }

    /// [`IncrementalEval::score_replacements`] with branch-and-bound:
    /// given the incumbent best value, the candidate is first screened
    /// with an upper bound assembled from warm memo entries and the
    /// distance's cheap bounds — zero exact solves — and abandoned
    /// ([`CandidateScore::Pruned`]) when the bound plus
    /// [`crate::unfairness::PRUNE_MARGIN`] still falls short of the
    /// incumbent. A pruned candidate provably cannot have replaced the
    /// incumbent (replacement requires a strictly greater value), so
    /// searches built on this method return bit-identical winners and
    /// values. Candidates that survive the screen (or have no bound)
    /// are scored exactly, same as [`IncrementalEval::score_replacements`].
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] from the underlying distance.
    pub fn score_replacements_bounded<P: Borrow<Partition>>(
        &mut self,
        replacements: &[(usize, &[P])],
        incumbent: Option<f64>,
    ) -> Result<CandidateScore, AuditError> {
        let mut removed: Vec<(usize, u128, Histogram)> = Vec::with_capacity(replacements.len());
        for &(index, _) in replacements {
            if self.slots[index] == EMPTY_SLOT {
                continue;
            }
            if let Some((key, hist)) = self.averager.remove(self.slots[index])? {
                removed.push((index, key, hist));
            }
        }
        if let Some(best) = incumbent {
            if let Some((upper_bound, screened)) = self.candidate_upper_bound(replacements) {
                if upper_bound + PRUNE_MARGIN < best {
                    self.engine.note_screened(screened);
                    for (index, key, hist) in removed {
                        self.slots[index] = self.averager.insert_keyed(key, hist)?;
                    }
                    return Ok(CandidateScore::Pruned { upper_bound });
                }
            }
        }
        let before = self.engine.stats().distances_computed;
        let mut child_slots: Vec<usize> = Vec::new();
        for &(_, children) in replacements {
            for child in children.iter().map(Borrow::borrow).filter(|c| c.is_live()) {
                child_slots.push(
                    self.averager
                        .insert_keyed(self.engine.register(child), child.histogram.clone())?,
                );
            }
        }
        let value = self.averager.average();
        for slot in child_slots {
            self.averager.remove(slot)?;
        }
        for (index, key, hist) in removed {
            self.slots[index] = self.averager.insert_keyed(key, hist)?;
        }
        self.engine
            .note_exact_solves(self.engine.stats().distances_computed - before);
        Ok(CandidateScore::Exact(value))
    }

    /// Upper-bound the candidate average "replace these partitions by
    /// their children" from warm memo entries and cheap distance bounds
    /// alone — zero exact solves. Returns the bound plus the number of
    /// pairs settled by bounds rather than the memo (the exact solves a
    /// prune skips), or `None` when some needed pair has neither (the
    /// screen is inapplicable). Must be called with the replaced
    /// partitions already removed from the averager.
    fn candidate_upper_bound<P: Borrow<Partition>>(
        &self,
        replacements: &[(usize, &[P])],
    ) -> Option<(f64, u64)> {
        let children: Vec<(u128, &Histogram)> = replacements
            .iter()
            .flat_map(|&(_, kids)| kids.iter().map(Borrow::borrow))
            .filter(|c| c.is_live())
            .map(|c| (self.engine.register(c), &c.histogram))
            .collect();
        let total = self.averager.len() + children.len();
        if total < 2 {
            return Some((0.0, 0));
        }
        // The untouched pairs' sum is already maintained; only the
        // child × untouched and child × child pairs need bounding.
        let mut sum = self.averager.pair_sum();
        let mut screened = 0u64;
        for &(child_key, child) in &children {
            for (other_key, other) in self.averager.live_entries() {
                let (upper, warm) = self.engine.pair_upper(child_key, child, other_key, other)?;
                sum += upper;
                screened += u64::from(!warm);
            }
        }
        for (i, &(key_a, a)) in children.iter().enumerate() {
            for &(key_b, b) in &children[i + 1..] {
                let (upper, warm) = self.engine.pair_upper(key_a, a, key_b, b)?;
                sum += upper;
                screened += u64::from(!warm);
            }
        }
        let pairs = total * (total - 1) / 2;
        Some((sum / pairs as f64, screened))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::context::AuditConfig;
    use fairjob_hist::distance::{DistanceError, Emd1d, HistogramDistance};
    use fairjob_hist::{BinSpec, DistanceBounds};
    use fairjob_marketplace::toy::toy_workers;
    use std::sync::Arc;

    fn toy_ctx<'a>(table: &'a fairjob_store::table::Table, scores: &'a [f64]) -> AuditContext<'a> {
        AuditContext::new(table, scores, AuditConfig::default()).unwrap()
    }

    /// Completeness contract for [`EngineStats`]: the full-field struct
    /// literal below fails to compile the moment a counter is added to
    /// the struct, forcing whoever adds it to also register it here —
    /// and the distinct per-field values then verify that `merge` and
    /// `as_pairs` each cover the new field (a counter dropped by `merge`
    /// fails the doubling check; one dropped or mismapped by `as_pairs`
    /// fails the name/value checks, which every renderer inherits).
    #[test]
    fn stats_merge_and_pairs_cover_every_field() {
        let a = EngineStats {
            distances_computed: 1,
            cache_hits: 2,
            splits_computed: 3,
            split_cache_hits: 4,
            rows_scanned: 5,
            histograms_built: 6,
            cache_evictions: 7,
            split_evictions: 8,
            bounds_screened: 9,
            exact_solves: 10,
            column_scored: 11,
            column_ties: 12,
            pool_tasks: 13,
            ground_cache_hits: 14,
            scratch_reuses: 15,
            warm_starts: 16,
            shard_tasks: 17,
            rows_classified_parallel: 18,
            page_hits: 19,
            page_misses: 20,
            page_evictions: 21,
            pages_skipped: 22,
            pages_scanned: 23,
        };
        let pairs = a.as_pairs();
        // Every field value is distinct and present exactly once.
        let mut values: Vec<u64> = pairs.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, (1..=pairs.len() as u64).collect::<Vec<_>>());
        // Names are unique and non-empty.
        let mut names: Vec<&str> = pairs.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), pairs.len());
        assert!(names.iter().all(|n| !n.is_empty()));
        // Merging a stats value into itself doubles every counter.
        let mut merged = a;
        merged.merge(&a);
        for ((name, single), (_, double)) in pairs.iter().zip(merged.as_pairs().iter()) {
            assert_eq!(*double, single * 2, "merge dropped counter {name}");
        }
    }

    /// `Emd1d` without its L1 form: the same distances and exact
    /// bounds, so full evaluations go through the memo.
    struct PairwiseEmd;

    impl HistogramDistance for PairwiseEmd {
        fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
            Emd1d.distance(a, b)
        }
        fn bounds(&self, a: &Histogram, b: &Histogram) -> Option<DistanceBounds> {
            Emd1d.bounds(a, b)
        }
        fn name(&self) -> &'static str {
            "emd-pairwise"
        }
    }

    fn pairwise_config(threads: usize) -> AuditConfig {
        AuditConfig {
            threads: Some(threads),
            ..AuditConfig::with_distance(Arc::new(PairwiseEmd))
        }
    }

    #[test]
    fn cached_evaluation_is_bit_identical_to_naive() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, pairwise_config(1)).unwrap();
        let engine = EvalEngine::new(&ctx);
        let parts = ctx.split(&ctx.root(), 1).unwrap(); // 3 language groups
        let naive = ctx.unfairness(&parts).unwrap();
        assert_eq!(engine.unfairness(&parts).unwrap(), naive);
        let first = engine.stats();
        assert_eq!(first.distances_computed, 3);
        assert_eq!(first.cache_hits, 0);
        // Second evaluation of the same partitioning: all hits.
        assert_eq!(engine.unfairness(&parts).unwrap(), naive);
        let second = engine.stats();
        assert_eq!(second.distances_computed, 3);
        assert_eq!(second.cache_hits, 3);
    }

    #[test]
    fn l1_evaluation_is_bit_identical_to_naive_and_skips_the_memo() {
        let (t, scores) = toy_workers();
        let ctx = toy_ctx(&t, &scores);
        let engine = EvalEngine::new(&ctx);
        let parts = ctx.split(&ctx.root(), 1).unwrap(); // 3 language groups
        let naive = ctx.unfairness(&parts).unwrap();
        for pass in 1..=2u64 {
            assert_eq!(
                engine.unfairness(&parts).unwrap().to_bits(),
                naive.to_bits()
            );
            let stats = engine.stats();
            assert_eq!(stats.distances_computed, 3 * pass);
            assert_eq!(stats.cache_hits, 0);
        }
        assert_eq!(engine.caches.borrow().distances(), 0);
        assert!(engine.caches.borrow().registry.is_empty());
    }

    #[test]
    fn pairs_from_resumes_the_full_pair_order_anywhere() {
        for n in 0..9 {
            let all: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect();
            for start in 0..=all.len() {
                let resumed: Vec<(usize, usize)> = pairs_from(n, start).collect();
                assert_eq!(resumed, all[start..], "n {n}, start {start}");
            }
        }
    }

    #[test]
    fn union_and_cross_match_the_context() {
        let (t, scores) = toy_workers();
        let ctx = toy_ctx(&t, &scores);
        let engine = EvalEngine::new(&ctx);
        let genders = ctx.split(&ctx.root(), 0).unwrap();
        let langs = ctx.split(&genders[0], 1).unwrap();
        let sibs = std::slice::from_ref(&genders[1]);
        let union: Vec<Partition> = langs.iter().chain(sibs).cloned().collect();
        assert_eq!(
            engine.unfairness_union(&langs, sibs).unwrap(),
            ctx.unfairness(&union).unwrap()
        );
        assert_eq!(
            engine.unfairness_cross(&langs, sibs).unwrap(),
            ctx.unfairness_cross(&langs, sibs).unwrap()
        );
    }

    /// The bench harness's 500-worker population (`generate_uniform`,
    /// bucketised, scored by f1): its `all-attributes` partitioning has
    /// 434 partitions, enough for the chunked full evaluation.
    fn population_500() -> (fairjob_store::table::Table, Vec<f64>) {
        use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
        use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
        let mut workers = generate_uniform(500, 2019);
        bucketise_numeric_protected(&mut workers).unwrap();
        let scores = LinearScore::alpha("f1", 0.5).score_all(&workers).unwrap();
        (workers, scores)
    }

    /// The `all-attributes` partitioning of `population_500`, whose
    /// size crosses the chunked-evaluation threshold.
    fn chunked_input(workers: &fairjob_store::table::Table, scores: &[f64]) -> Vec<Partition> {
        let ctx = AuditContext::new(workers, scores, AuditConfig::default()).unwrap();
        let parts = crate::algorithms::all_attributes::AllAttributes
            .run(&ctx)
            .unwrap()
            .partitioning
            .partitions()
            .to_vec();
        assert!(
            parts.len() >= PARALLEL_THRESHOLD,
            "{} partitions",
            parts.len()
        );
        parts
    }

    /// The counters an engine's own work fixes: the build meters are
    /// context-cumulative and follow the context's thread budget.
    fn engine_local(stats: EngineStats) -> EngineStats {
        EngineStats {
            shard_tasks: 0,
            rows_classified_parallel: 0,
            ..stats
        }
    }

    #[test]
    fn parallel_path_matches_serial_for_any_thread_count() {
        let (workers, scores) = population_500();
        let parts = chunked_input(&workers, &scores);
        let hists: Vec<&Histogram> = parts.iter().map(|p| &p.histogram).collect();
        let expected = crate::unfairness::average_pairwise(&hists, &Emd1d).unwrap();
        let mut reference: Option<EngineStats> = None;
        for threads in [1, 2, 3, 7] {
            let ctx = AuditContext::new(&workers, &scores, pairwise_config(threads)).unwrap();
            let engine = EvalEngine::new(&ctx);
            // First pass: every pair misses and is computed in pool
            // chunks. Bit-identical because the final sum runs serially
            // in pair order.
            let first = engine.unfairness(&parts).unwrap();
            assert_eq!(first.to_bits(), expected.to_bits(), "{threads} threads");
            // Second pass: all hits.
            let second = engine.unfairness(&parts).unwrap();
            assert_eq!(second.to_bits(), expected.to_bits(), "{threads} threads");
            let stats = engine_local(engine.stats());
            assert_eq!(stats.cache_hits, stats.distances_computed);
            assert!(stats.pool_tasks > 0, "the chunked path never ran");
            match &reference {
                None => reference = Some(stats),
                Some(want) => assert_eq!(&stats, want, "{threads}-thread counters diverged"),
            }
        }
    }

    /// Under a distance with an L1 form, the three full evaluations
    /// compute every pair, in chunks from 256 live partitions, give the
    /// naive references' bits at every thread count, and leave the memo
    /// empty.
    #[test]
    fn l1_evaluations_match_the_naive_references_for_any_thread_count() {
        use fairjob_hist::distance::TotalVariation;
        let (workers, scores) = population_500();
        let parts = chunked_input(&workers, &scores);
        let (group, siblings) = parts.split_at(parts.len() / 3);
        let hists: Vec<&Histogram> = parts.iter().map(|p| &p.histogram).collect();
        let n = hists.len() as u64;
        let distances: [Arc<dyn HistogramDistance>; 2] =
            [Arc::new(Emd1d), Arc::new(TotalVariation)];
        for distance in distances {
            let name = distance.name();
            let expected = crate::unfairness::average_pairwise(&hists, distance.as_ref()).unwrap();
            let mut reference: Option<EngineStats> = None;
            for threads in [1, 2, 3, 7] {
                let cfg = AuditConfig {
                    threads: Some(threads),
                    ..AuditConfig::with_distance(Arc::clone(&distance))
                };
                let ctx = AuditContext::new(&workers, &scores, cfg).unwrap();
                let cross = ctx.unfairness_cross(group, siblings).unwrap();
                assert_eq!(
                    ctx.unfairness(&parts).unwrap().to_bits(),
                    expected.to_bits()
                );
                let engine = EvalEngine::new(&ctx);
                let values = [
                    (engine.unfairness(&parts).unwrap(), expected),
                    (engine.unfairness_union(group, siblings).unwrap(), expected),
                    (engine.unfairness_cross(group, siblings).unwrap(), cross),
                ];
                for (at, (got, want)) in values.into_iter().enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{name}, {threads} threads, #{at}"
                    );
                }
                let stats = engine_local(engine.stats());
                let cross_pairs = (group.len() * siblings.len()) as u64;
                assert_eq!(
                    stats.distances_computed,
                    n * (n - 1) + cross_pairs,
                    "{name}"
                );
                assert_eq!(stats.cache_hits, 0, "{name}");
                assert!(stats.pool_tasks > 0, "{name}: the chunked path never ran");
                assert_eq!(engine.caches.borrow().distances(), 0, "{name}");
                assert!(engine.caches.borrow().registry.is_empty(), "{name}");
                match &reference {
                    None => reference = Some(stats),
                    Some(want) => {
                        assert_eq!(&stats, want, "{name}: {threads}-thread counters diverged")
                    }
                }
            }
        }
    }

    /// A distance that always fails, for exercising worker error paths.
    struct AlwaysFails;

    impl HistogramDistance for AlwaysFails {
        fn distance(&self, _: &Histogram, _: &Histogram) -> Result<f64, DistanceError> {
            Err(DistanceError::EmptyHistogram)
        }
        fn name(&self) -> &'static str {
            "always-fails"
        }
    }

    #[test]
    fn distance_error_in_a_parallel_worker_propagates_as_audit_error() {
        let (workers, scores) = population_500();
        let parts = chunked_input(&workers, &scores);
        let cfg = AuditConfig {
            threads: Some(4),
            ..AuditConfig::with_distance(Arc::new(AlwaysFails))
        };
        let ctx = AuditContext::new(&workers, &scores, cfg).unwrap();
        let engine = EvalEngine::new(&ctx);
        // Must come back as Err, not a worker panic.
        let err = engine.unfairness(&parts).unwrap_err();
        assert!(
            matches!(err, AuditError::Distance(DistanceError::EmptyHistogram)),
            "{err:?}"
        );
    }

    /// A failing distance that declares `Emd1d`'s L1 form, so full
    /// evaluations take the direct path.
    struct FailsWithL1Form;

    impl HistogramDistance for FailsWithL1Form {
        fn distance(&self, _: &Histogram, _: &Histogram) -> Result<f64, DistanceError> {
            Err(DistanceError::EmptyHistogram)
        }
        fn name(&self) -> &'static str {
            "fails-with-l1-form"
        }
        fn l1_form(&self, spec: &BinSpec) -> Option<L1Form> {
            Emd1d.l1_form(spec)
        }
    }

    #[test]
    fn distance_error_on_the_direct_path_propagates_as_audit_error() {
        let (workers, scores) = population_500();
        let parts = chunked_input(&workers, &scores);
        let cfg = AuditConfig {
            threads: Some(4),
            ..AuditConfig::with_distance(Arc::new(FailsWithL1Form))
        };
        let ctx = AuditContext::new(&workers, &scores, cfg).unwrap();
        let engine = EvalEngine::new(&ctx);
        // From a pool worker (chunked) and from the serial loop alike:
        // an `Err`, not a panic.
        let small = &parts[..3];
        for result in [
            engine.unfairness(&parts),
            engine.unfairness(small),
            engine.unfairness_cross(&small[..1], &small[1..]),
        ] {
            let err = result.unwrap_err();
            assert!(
                matches!(err, AuditError::Distance(DistanceError::EmptyHistogram)),
                "{err:?}"
            );
        }
        assert_eq!(engine.stats().distances_computed, 0);
    }

    /// A set the batch form declines takes the per-pair path. A live
    /// partition on another layout makes every evaluation return the
    /// error `distance` names, from the chunked path, the serial loop
    /// and the cross evaluation alike. A partition whose histogram is
    /// empty is not live, whatever its rows: every evaluation skips it
    /// and gives the naive reference's value.
    #[test]
    fn declined_batches_return_the_per_pair_error() {
        let (workers, scores) = population_500();
        let parts = chunked_input(&workers, &scores);
        let cfg = AuditConfig {
            threads: Some(2),
            ..AuditConfig::default()
        };
        let ctx = AuditContext::new(&workers, &scores, cfg).unwrap();
        let engine = EvalEngine::new(&ctx);
        let other = BinSpec::equal_width(0.0, 1.0, 7).unwrap();
        let mut foreign = parts.clone();
        foreign[5].histogram = Histogram::from_counts(other, vec![1.0; 7]);
        let mut emptied = parts;
        // The rows stay; only the histogram decides liveness.
        emptied[5].histogram = Histogram::empty(ctx.spec().clone());
        for (parts, want) in [
            (&foreign, DistanceError::SpecMismatch),
            (&emptied, DistanceError::EmptyHistogram),
        ] {
            let hists: Vec<&Histogram> = parts.iter().map(|p| &p.histogram).collect();
            assert!(ctx.distance().pair_batch(&hists).is_none());
            assert_eq!(ctx.distance().distance(hists[0], hists[5]), Err(want));
        }
        for result in [
            engine.unfairness(&foreign),
            engine.unfairness(&foreign[..10]),
            engine.unfairness_cross(&foreign[..3], &foreign[3..10]),
        ] {
            assert_eq!(
                result,
                Err(AuditError::Distance(DistanceError::SpecMismatch))
            );
        }
        assert_eq!(engine.stats().distances_computed, 0);
        for (got, want) in [
            (engine.unfairness(&emptied), ctx.unfairness(&emptied)),
            (
                engine.unfairness(&emptied[..10]),
                ctx.unfairness(&emptied[..10]),
            ),
            (
                engine.unfairness_cross(&emptied[..3], &emptied[3..10]),
                ctx.unfairness_cross(&emptied[..3], &emptied[3..10]),
            ),
        ] {
            assert_eq!(got.unwrap().to_bits(), want.unwrap().to_bits());
        }
    }

    /// One liveness rule ([`Partition::is_live`]) for the naive
    /// reference and every engine evaluation: `population_500`'s
    /// `all-attributes` partitioning with partition 5's histogram
    /// emptied (its rows kept) gives the reference's bits on the serial
    /// and the chunked route, through the batch form and the memo, at
    /// 1 and 4 threads, and seeds `IncrementalEval` to the same average.
    #[test]
    fn partitions_without_mass_are_skipped_by_every_evaluation() {
        let (workers, scores) = population_500();
        let mut parts = chunked_input(&workers, &scores);
        let spec = parts[5].histogram.spec().clone();
        parts[5].histogram = Histogram::empty(spec);
        assert!(!parts[5].is_empty() && !parts[5].is_live());
        let (group, siblings) = parts.split_at(parts.len() / 3);
        for threads in [1, 4] {
            for cfg in [
                AuditConfig {
                    threads: Some(threads),
                    ..AuditConfig::default()
                },
                pairwise_config(threads),
            ] {
                let ctx = AuditContext::new(&workers, &scores, cfg).unwrap();
                let name = ctx.distance().name();
                let full = ctx.unfairness(&parts).unwrap();
                assert_eq!(full, 0.2311205237504325, "{name}");
                let engine = EvalEngine::new(&ctx);
                for (got, want) in [
                    (engine.unfairness(&parts), full),
                    (engine.unfairness_union(group, siblings), full),
                    (
                        engine.unfairness(&parts[..10]),
                        ctx.unfairness(&parts[..10]).unwrap(),
                    ),
                    (
                        engine.unfairness_cross(&parts[..3], &parts[3..10]),
                        ctx.unfairness_cross(&parts[..3], &parts[3..10]).unwrap(),
                    ),
                ] {
                    assert_eq!(
                        got.unwrap().to_bits(),
                        want.to_bits(),
                        "{name}, {threads} threads"
                    );
                }
                let seeded = IncrementalEval::new(&engine, &parts[..10]).unwrap();
                let naive = ctx.unfairness(&parts[..10]).unwrap();
                assert!((seeded.average() - naive).abs() < 1e-12, "{name}");
            }
        }
    }

    #[test]
    fn incremental_matches_naive_and_reverts_for_free() {
        let (t, scores) = toy_workers();
        let ctx = toy_ctx(&t, &scores);
        let engine = EvalEngine::new(&ctx);
        let genders = ctx.split(&ctx.root(), 0).unwrap();
        let male_langs = ctx.split(&genders[0], 1).unwrap();
        let mut inc = IncrementalEval::new(&engine, &genders).unwrap();
        assert!((inc.average() - ctx.unfairness(&genders).unwrap()).abs() < 1e-12);

        // Score "replace Male by its language split" and compare with the
        // naive evaluation of the materialised partitioning.
        let mut replaced = male_langs.clone();
        replaced.push(genders[1].clone());
        let naive = ctx.unfairness(&replaced).unwrap();
        let score = inc.score_replacements(&[(0, &male_langs)]).unwrap();
        assert!((score - naive).abs() < 1e-9, "{score} vs {naive}");
        // The evaluator reverted to the seeded state…
        assert!((inc.average() - ctx.unfairness(&genders).unwrap()).abs() < 1e-12);
        // …and re-scoring the same replacement computes nothing new.
        let computed_before = engine.stats().distances_computed;
        let again = inc.score_replacements(&[(0, &male_langs)]).unwrap();
        assert_eq!(again, score);
        assert_eq!(engine.stats().distances_computed, computed_before);
    }

    #[test]
    fn bounded_scoring_prunes_hopeless_candidates_and_matches_exact() {
        let (t, scores) = toy_workers();
        let ctx = toy_ctx(&t, &scores);
        let engine = EvalEngine::new(&ctx);
        let genders = ctx.split(&ctx.root(), 0).unwrap();
        let male_langs = ctx.split(&genders[0], 1).unwrap();
        let mut inc = IncrementalEval::new(&engine, &genders).unwrap();
        let exact = inc.score_replacements(&[(0, &male_langs)]).unwrap();
        // Beatable incumbent: the screen cannot prune, and the bounded
        // path returns the exact value, bit for bit.
        match inc
            .score_replacements_bounded(&[(0, &male_langs)], Some(0.0))
            .unwrap()
        {
            CandidateScore::Exact(v) => assert_eq!(v.to_bits(), exact.to_bits()),
            CandidateScore::Pruned { .. } => panic!("candidate beats a zero incumbent"),
        }
        // Unbeatable incumbent: pruned without a single new distance,
        // with the skipped pairs counted and the seeded state restored.
        let stats = engine.stats();
        match inc
            .score_replacements_bounded(&[(0, &male_langs)], Some(1e6))
            .unwrap()
        {
            CandidateScore::Pruned { upper_bound } => {
                assert!(upper_bound >= exact - 1e-9, "{upper_bound} < {exact}");
            }
            CandidateScore::Exact(_) => panic!("nothing beats an incumbent of 1e6"),
        }
        assert_eq!(engine.stats().distances_computed, stats.distances_computed);
        assert!(engine.stats().bounds_screened >= stats.bounds_screened);
        assert!((inc.average() - ctx.unfairness(&genders).unwrap()).abs() < 1e-12);
        // Scoring exactly again still matches the first run.
        let again = inc.score_replacements(&[(0, &male_langs)]).unwrap();
        assert_eq!(again.to_bits(), exact.to_bits());
    }

    #[test]
    fn split_cache_serves_repeat_requests_without_row_scans() {
        let (t, scores) = toy_workers();
        let ctx = toy_ctx(&t, &scores);
        let engine = EvalEngine::new(&ctx);
        let root = ctx.root();
        let first = engine.split(&root, 0).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.splits_computed, 1);
        assert_eq!(stats.split_cache_hits, 0);
        assert_eq!(stats.rows_scanned, root.len() as u64);
        assert_eq!(stats.histograms_built, first.len() as u64);
        // Same request again: served from the cache, same Arcs, no scan.
        let second = engine.split(&root, 0).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = engine.stats();
        assert_eq!(stats.splits_computed, 1);
        assert_eq!(stats.split_cache_hits, 1);
        assert_eq!(stats.rows_scanned, root.len() as u64);
        // The children match the context's direct split.
        let direct = ctx.split(&root, 0).unwrap();
        assert_eq!(first.len(), direct.len());
        for (cached, fresh) in first.iter().zip(&direct) {
            assert_eq!(cached.as_ref(), fresh);
        }
    }

    #[test]
    fn non_viable_splits_are_negatively_cached() {
        use fairjob_marketplace::toy::toy_schema;
        use fairjob_store::table::{Table, Value};
        // Every male speaks English, so splitting males by language
        // leaves one group: non-viable.
        let mut t = Table::new(toy_schema());
        let rows = [
            ("Male", "English", 0.9),
            ("Male", "English", 0.8),
            ("Female", "English", 0.2),
            ("Female", "Other", 0.1),
        ];
        for (gender, language, score) in rows {
            t.push_row(&[Value::cat(gender), Value::cat(language), Value::num(score)])
                .unwrap();
        }
        let scores: Vec<f64> = rows.iter().map(|r| r.2).collect();
        let ctx = toy_ctx(&t, &scores);
        let engine = EvalEngine::new(&ctx);
        // Children come in code order: males first.
        let genders = ctx.split(&ctx.root(), 0).unwrap();
        let males = &genders[0];
        assert_eq!(males.rows().rows(), &[0, 1]);
        assert!(engine.split(males, 1).is_none());
        assert_eq!(engine.stats().splits_computed, 1);
        // Retried (as every greedy round does): answered from the cache.
        assert!(engine.split(males, 1).is_none());
        let stats = engine.stats();
        assert_eq!(stats.splits_computed, 1);
        assert_eq!(stats.split_cache_hits, 1);
        // An attribute already constrained by the predicate is answered
        // inline without touching the cache or the counters.
        assert!(engine.split(males, 0).is_none());
        assert_eq!(engine.stats().split_lookups(), stats.split_lookups());
    }

    #[test]
    fn split_batch_is_thread_count_independent() {
        // Each thread count gets its own context: the build counters are
        // context-cumulative, so sharing one context across engines would
        // conflate the runs being compared.
        let (t, scores) = toy_workers();
        let at = |threads: usize| AuditConfig {
            threads: Some(threads),
            ..AuditConfig::default()
        };
        let ref_ctx = AuditContext::new(&t, &scores, at(1)).unwrap();
        let ref_root = ref_ctx.root();
        let reference = EvalEngine::new(&ref_ctx);
        let requests: Vec<(&Partition, usize)> =
            vec![(&ref_root, 0), (&ref_root, 1), (&ref_root, 0)];
        let expected = reference.split_batch(&requests);
        let expected_stats = reference.stats();
        for threads in [2, 3, 8] {
            let ctx = AuditContext::new(&t, &scores, at(threads)).unwrap();
            let root = ctx.root();
            let requests: Vec<(&Partition, usize)> = vec![(&root, 0), (&root, 1), (&root, 0)];
            let engine = EvalEngine::new(&ctx);
            let got = engine.split_batch(&requests);
            assert_eq!(engine.stats(), expected_stats, "{threads} threads");
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                match (g, e) {
                    (Some(g), Some(e)) => {
                        assert_eq!(g.len(), e.len());
                        for (a, b) in g.iter().zip(e.iter()) {
                            assert_eq!(a.as_ref(), b.as_ref());
                        }
                    }
                    (None, None) => {}
                    _ => panic!("viability differs at {threads} threads"),
                }
            }
        }
    }

    #[test]
    fn split_all_keeps_unsplittable_partitions_whole() {
        let (t, scores) = toy_workers();
        let ctx = toy_ctx(&t, &scores);
        let engine = EvalEngine::new(&ctx);
        let genders: Vec<Arc<Partition>> = engine
            .split(&ctx.root(), 0)
            .unwrap()
            .iter()
            .cloned()
            .collect();
        let by_lang = engine.split_all(&genders, 1);
        // Both genders split into 3 languages each on the toy data.
        assert_eq!(by_lang.len(), 6);
        // Splitting again by the same attribute is a no-op: every child
        // is constrained, so the same Arcs come straight back.
        let again = engine.split_all(&by_lang, 1);
        assert_eq!(again.len(), by_lang.len());
        for (a, b) in again.iter().zip(&by_lang) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    /// Splits register no predicate: after a `balanced` `emd` audit
    /// (the column screen picks each attribute, and full evaluations
    /// skip the memo) the registry and the memo are empty, while the
    /// split cache holds the audit's splits.
    #[test]
    fn split_path_leaves_the_registry_empty() {
        use crate::algorithms::{balanced::Balanced, AttributeChoice};
        let (workers, scores) = population_500();
        let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
        ctx.seed_engine_caches(EngineCaches::new());
        let result = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
        assert!(result.engine.splits_computed > 0);
        let caches = ctx.take_engine_caches().expect("caches handed back");
        assert!(
            caches.registry.is_empty(),
            "{} registered",
            caches.registry.len()
        );
        assert_eq!(caches.distances(), 0);
        assert_eq!(caches.splits() as u64, result.engine.splits_computed);
    }

    /// The fingerprint hasher spreads the engine's real keys like a
    /// uniform hash would. The keys are every memo key an
    /// `all-attributes` audit of a 500-worker population inserts under
    /// [`PairwiseEmd`] (the `prepare_population` recipe of the bench
    /// harness; `Emd1d` itself skips the memo), then the same
    /// keys with the high or the low 64-bit half of each fingerprint
    /// zeroed: a hasher that drops either half of a key word, or one of
    /// the pair's two fingerprints, piles them into a few buckets.
    #[test]
    fn fingerprint_hasher_spreads_memo_keys_over_the_low_bits() {
        use crate::algorithms::all_attributes::AllAttributes;
        use std::hash::BuildHasher;

        let (workers, scores) = population_500();
        let ctx = AuditContext::new(&workers, &scores, pairwise_config(1)).unwrap();
        ctx.seed_engine_caches(EngineCaches::new());
        AllAttributes.run(&ctx).unwrap();
        let caches = ctx
            .take_engine_caches()
            .expect("the engine hands its caches back");
        let keys: Vec<(u128, u128)> = caches.memo.keys().copied().collect();
        assert!(keys.len() > 50_000, "only {} memo keys", keys.len());

        const LOW: u128 = u64::MAX as u128;
        let build = FingerprintBuild::default();
        for (halves, mask) in [("both", !0), ("low", LOW), ("high", !LOW)] {
            let mut buckets = vec![0u32; 1 << 16];
            for &(a, b) in &keys {
                let hash = build.hash_one((a & mask, b & mask));
                buckets[(hash & 0xffff) as usize] += 1;
            }
            let mean = keys.len() as f64 / buckets.len() as f64;
            let max = buckets.iter().copied().max().unwrap_or(0);
            // A uniform hash puts at most ~10 of these keys in one
            // bucket (Poisson with this mean); a broken one, hundreds.
            assert!(
                f64::from(max) <= 10.0 * mean,
                "{halves} halves: fullest bucket holds {max} keys, mean {mean:.2}"
            );
        }
    }
}
