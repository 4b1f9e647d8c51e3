//! Average-pairwise-distance computations (Definition 2) over partition
//! histograms: the serial reference, the bound-pruned batch kernel
//! ([`pairwise_emd_batch`]), and the incremental [`PairwiseAverager`].

use crate::error::AuditError;
use crate::pool::WorkerPool;
use crate::scratch::with_scratch;
use fairjob_hist::{Histogram, HistogramDistance, ScratchStats};

/// Floating-point slack added to every bound-vs-incumbent comparison
/// before pruning. Pruning only ever *skips work whose outcome is
/// already decided*: a candidate is abandoned only when its upper bound
/// plus this margin is still below the incumbent, and the margin is
/// orders of magnitude above the accumulated rounding error of an
/// average over `< 2^32` pairs of values in `[0, 1]` (~1e-10), so a
/// pruned candidate can never have won and results stay bit-identical
/// to the unpruned search.
pub const PRUNE_MARGIN: f64 = 1e-7;

/// Fixed chunk size (in pairs) for batched exact solves. Independent of
/// the thread count, so chunk counts — and therefore the `pool_tasks`
/// counter and the serial chunk-order reduction — are identical no
/// matter how many workers execute the chunks.
pub(crate) const PAIR_CHUNK: usize = 1024;

/// What the screen pass decided about one pair. Computed independently
/// per pair (parallelisable) and merged serially in pair order, so the
/// screen's accumulations are bit-identical for every thread count.
#[derive(Clone, Copy)]
enum ScreenVerdict {
    /// The bound is exact: this value IS the distance.
    Exact(f64),
    /// Inexact bound: the pair must be solved; carry its upper bound.
    Bounded(f64),
    /// No bound available: the pair must be solved blind.
    Unbounded,
}

/// Screen one pair. Pure per-pair work — the only screen state
/// (`upper_sum`, `misses`, `all_bounded`) is accumulated by the caller
/// in serial pair order, which is what keeps the parallel screen
/// bit-identical to the serial one.
fn screen_pair(distance: &dyn HistogramDistance, a: &Histogram, b: &Histogram) -> ScreenVerdict {
    match distance.bounds(a, b) {
        Some(bd) if bd.exact => ScreenVerdict::Exact(bd.lower),
        Some(bd) => ScreenVerdict::Bounded(bd.upper),
        None => ScreenVerdict::Unbounded,
    }
}

/// Counters from one [`pairwise_emd_batch`] evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Candidate pairs laid out in the arena.
    pub pairs: u64,
    /// Pairs settled by the bound screen alone (no exact solver ran).
    pub bounds_screened: u64,
    /// Pairs that survived the screen and paid an exact solve.
    pub exact_solves: u64,
    /// Chunks dispatched through the worker-pool scheduler (counted
    /// even when executed inline at parallelism 1, so the counter is
    /// thread-count independent).
    pub pool_tasks: u64,
    /// Exact solves whose ground matrix came from a cache tier (the
    /// scratch-local slot or the process-wide ground cache). With a
    /// primed distance this equals `exact_solves` — no worker ever
    /// rebuilds a ground matrix.
    pub ground_cache_hits: u64,
    /// Exact solves beyond the first in their chunk — each one reused
    /// the worker's persistent solver workspace instead of allocating.
    pub scratch_reuses: u64,
    /// Exact flow solves that warm-started from the previous pair's
    /// round-1 Dijkstra (consecutive pairs sharing a support set).
    pub warm_starts: u64,
}

/// Result of one [`pairwise_emd_batch`] evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchValue {
    /// The exact average pairwise distance — bit-identical to
    /// [`average_pairwise`] over the same histograms whenever the
    /// distance's exact bounds are (they are for `Emd1d`).
    Average(f64),
    /// The batch was abandoned: its average provably cannot exceed this
    /// upper bound, which fell short of the caller's incumbent. No
    /// exact solves were spent.
    Abandoned(f64),
}

/// Value plus counters from one [`pairwise_emd_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOutcome {
    /// The average, or the upper bound it was abandoned at.
    pub value: BatchValue,
    /// What the funnel did to get there.
    pub stats: BatchStats,
}

/// Bound-pruned, batched pairwise-distance kernel.
///
/// Lays out every candidate pair in one flat structure-of-arrays arena
/// (row-major upper triangle — the serial evaluation order), screens
/// the arena with the distance's cheap bounds
/// ([`HistogramDistance::bounds`], fed by each histogram's cached
/// prefix CDF), and runs exact solves only on the survivors, in
/// fixed-size chunks on the persistent worker pool. The final reduction
/// is serial in pair order, so the result is bit-identical across
/// thread counts — and bit-identical to [`average_pairwise`] whenever
/// the screened values are (exact bounds reproduce `Emd1d` bit for
/// bit; distances without bounds simply have every pair solved).
///
/// With `abandon_below = Some(best)`, the kernel additionally gives up
/// on the whole batch — before any exact solve — when every pair had a
/// bound and the average of the upper bounds plus [`PRUNE_MARGIN`]
/// still falls below `best`. That is the branch-and-bound step of the
/// candidate search: an abandoned candidate provably cannot beat the
/// incumbent.
///
/// # Errors
///
/// [`AuditError::Distance`] from the underlying distance.
pub fn pairwise_emd_batch(
    histograms: &[&Histogram],
    distance: &dyn HistogramDistance,
    threads: usize,
    abandon_below: Option<f64>,
) -> Result<BatchOutcome, AuditError> {
    let mut stats = BatchStats::default();
    let live: Vec<&Histogram> = histograms
        .iter()
        .filter(|h| !h.is_empty())
        .copied()
        .collect();
    let n = live.len();
    if n < 2 {
        return Ok(BatchOutcome {
            value: BatchValue::Average(0.0),
            stats,
        });
    }
    let pair_count = n * (n - 1) / 2;
    let mut pair_i: Vec<u32> = Vec::with_capacity(pair_count);
    let mut pair_j: Vec<u32> = Vec::with_capacity(pair_count);
    for i in 0..n {
        for j in i + 1..n {
            pair_i.push(i as u32);
            pair_j.push(j as u32);
        }
    }
    stats.pairs = pair_count as u64;

    // Screen pass: settle what the cached-CDF bounds can, keep an upper
    // bound on the whole sum, and collect the survivors. Per-pair
    // verdicts are independent, so batches larger than one chunk compute
    // them on the worker pool; the accumulation below is always serial
    // in pair order, making the screen bit-identical across thread
    // counts (and to the single-threaded loop it replaced). The chunk
    // count depends only on the pair count, so `pool_tasks` stays
    // thread-count independent.
    let verdicts: Vec<ScreenVerdict> = if pair_count > PAIR_CHUNK {
        let n_chunks = pair_count.div_ceil(PAIR_CHUNK);
        stats.pool_tasks += n_chunks as u64;
        let chunked: Vec<Vec<ScreenVerdict>> =
            WorkerPool::global().run_chunks(threads.max(1), n_chunks, |c| {
                let lo = c * PAIR_CHUNK;
                let hi = (lo + PAIR_CHUNK).min(pair_count);
                (lo..hi)
                    .map(|k| {
                        let (a, b) = (live[pair_i[k] as usize], live[pair_j[k] as usize]);
                        screen_pair(distance, a, b)
                    })
                    .collect()
            });
        chunked.into_iter().flatten().collect()
    } else {
        (0..pair_count)
            .map(|k| {
                let (a, b) = (live[pair_i[k] as usize], live[pair_j[k] as usize]);
                screen_pair(distance, a, b)
            })
            .collect()
    };
    let mut vals: Vec<f64> = vec![f64::NAN; pair_count];
    let mut misses: Vec<usize> = Vec::new();
    let mut upper_sum = 0.0;
    let mut all_bounded = true;
    for (k, verdict) in verdicts.into_iter().enumerate() {
        match verdict {
            ScreenVerdict::Exact(d) => {
                vals[k] = d;
                upper_sum += d;
            }
            ScreenVerdict::Bounded(upper) => {
                misses.push(k);
                upper_sum += upper;
            }
            ScreenVerdict::Unbounded => {
                misses.push(k);
                all_bounded = false;
            }
        }
    }

    if let Some(best) = abandon_below {
        if all_bounded {
            let upper_avg = upper_sum / pair_count as f64;
            if upper_avg + PRUNE_MARGIN < best {
                stats.bounds_screened = pair_count as u64;
                return Ok(BatchOutcome {
                    value: BatchValue::Abandoned(upper_avg),
                    stats,
                });
            }
        }
    }
    stats.bounds_screened = (pair_count - misses.len()) as u64;
    stats.exact_solves = misses.len() as u64;

    // Exact solves on the survivors through the persistent pool. Prime
    // the distance's shared ground cache once, serially, so the workers
    // below only ever *hit* the cache — the build never races and the
    // hit counters stay independent of the thread schedule.
    if !misses.is_empty() {
        distance.prime(live[pair_i[misses[0]] as usize])?;
        let chunks: Vec<&[usize]> = misses.chunks(PAIR_CHUNK).collect();
        stats.pool_tasks += chunks.len() as u64;
        let results: Vec<Result<(Vec<f64>, ScratchStats), AuditError>> = WorkerPool::global()
            .run_chunks(threads.max(1), chunks.len(), |c| {
                with_scratch(|scratch| {
                    scratch.begin_chunk();
                    let chunk_vals: Result<Vec<f64>, AuditError> = chunks[c]
                        .iter()
                        .map(|&k| {
                            let (a, b) = (live[pair_i[k] as usize], live[pair_j[k] as usize]);
                            distance
                                .distance_with(a, b, scratch)
                                .map_err(AuditError::from)
                        })
                        .collect();
                    chunk_vals.map(|v| (v, scratch.take_stats()))
                })
            });
        let mut solver = ScratchStats::default();
        for (chunk, result) in chunks.iter().zip(results) {
            let (chunk_vals, chunk_stats) = result?;
            solver.merge(chunk_stats);
            for (&k, d) in chunk.iter().zip(chunk_vals) {
                vals[k] = d;
            }
        }
        stats.ground_cache_hits = solver.ground_cache_hits;
        stats.scratch_reuses = solver.scratch_reuses;
        stats.warm_starts = solver.warm_starts;
    }

    // Serial reduce in pair order.
    let mut sum = 0.0;
    for &v in &vals {
        sum += v;
    }
    Ok(BatchOutcome {
        value: BatchValue::Average(sum / pair_count as f64),
        stats,
    })
}

/// Average pairwise distance over a slice of histograms (empty
/// histograms are skipped; fewer than two non-empty → 0).
///
/// # Errors
///
/// [`AuditError::Distance`] from the underlying distance.
pub fn average_pairwise(
    histograms: &[&Histogram],
    distance: &dyn HistogramDistance,
) -> Result<f64, AuditError> {
    let live: Vec<&&Histogram> = histograms.iter().filter(|h| !h.is_empty()).collect();
    if live.len() < 2 {
        return Ok(0.0);
    }
    let mut sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..live.len() {
        for j in i + 1..live.len() {
            sum += distance.distance(live[i], live[j])?;
            pairs += 1;
        }
    }
    Ok(sum / pairs as f64)
}

/// Threaded average pairwise distance over the persistent worker pool.
/// Bit-identical to [`average_pairwise`] for every thread count (the
/// batch kernel reduces serially in pair order); pays off once
/// partition counts reach the high hundreds (the full partitioning of
/// the 7300-worker dataset has ~1800 partitions → ~1.6 M pairs).
///
/// # Errors
///
/// [`AuditError::Distance`] from the underlying distance.
pub fn average_pairwise_parallel(
    histograms: &[&Histogram],
    distance: &dyn HistogramDistance,
    threads: usize,
) -> Result<f64, AuditError> {
    match pairwise_emd_batch(histograms, distance, threads, None)?.value {
        BatchValue::Average(value) => Ok(value),
        BatchValue::Abandoned(_) => unreachable!("no abandon threshold was set"),
    }
}

/// Keyed distance lookup used by [`PairwiseAverager`] when driven by the
/// evaluation engine ([`crate::engine::EvalEngine`]): keys identify the
/// histograms' partitions so repeated pairs can be served from a memo
/// cache instead of recomputed.
pub trait DistanceOracle {
    /// Distance between two histograms identified by cache keys. Keys
    /// carrying [`UNKEYED_BIT`] must bypass any cache.
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] from the underlying distance.
    fn keyed_distance(
        &self,
        key_a: u128,
        a: &Histogram,
        key_b: u128,
        b: &Histogram,
    ) -> Result<f64, AuditError>;
}

/// Sentinel bit marking keys the averager assigned itself to histograms
/// inserted without a partition fingerprint ([`Predicate::fingerprint`]
/// keeps this bit clear). Oracles bypass their cache for such pairs.
///
/// [`Predicate::fingerprint`]: fairjob_store::Predicate::fingerprint
pub const UNKEYED_BIT: u128 = 1 << 127;

/// How the averager resolves distances: a plain distance (every call
/// computes) or a keyed oracle (calls may be served from a cache).
enum Oracle<'d> {
    Plain(&'d dyn HistogramDistance),
    Keyed(&'d dyn DistanceOracle),
}

fn oracle_distance(
    oracle: &Oracle<'_>,
    key_a: u128,
    a: &Histogram,
    key_b: u128,
    b: &Histogram,
) -> Result<f64, AuditError> {
    match oracle {
        Oracle::Plain(d) => Ok(d.distance(a, b)?),
        Oracle::Keyed(o) => o.keyed_distance(key_a, a, key_b, b),
    }
}

/// Neumaier-compensated add: `sum += x` keeping the low-order bits lost
/// to rounding in `comp`.
fn neumaier_add(sum: &mut f64, comp: &mut f64, x: f64) {
    let t = *sum + x;
    *comp += if sum.abs() >= x.abs() {
        (*sum - t) + x
    } else {
        (x - t) + *sum
    };
    *sum = t;
}

/// Recompute the pairwise sum exactly every this many insert/remove
/// operations. Bounds drift without changing asymptotics: the rebuild is
/// O(k²) distance *lookups* (cache hits under a keyed oracle), amortised
/// to O(k²/4096) per operation.
const REBUILD_EVERY: usize = 4096;

/// Incremental average-pairwise-distance maintenance.
///
/// Search procedures repeatedly ask "what is the average pairwise
/// distance if partition *p* were replaced by its children?" — a full
/// recomputation costs O(k²) distances while the delta touches only the
/// pairs involving *p* and its children. `PairwiseAverager` maintains
/// the pairwise sum under insertions and removals at O(k) distances per
/// operation.
///
/// The pairwise sum uses Neumaier-compensated summation plus a periodic
/// exact rebuild, keeping the incremental value within 1e-9 of a batch
/// computation over thousands of insert/remove cycles (load-bearing for
/// the evaluation engine's delta scoring).
///
/// Freed slot ids are reused by later inserts, so `remove` is only
/// idempotent until the next insert.
pub struct PairwiseAverager<'d> {
    oracle: Oracle<'d>,
    /// Live `(key, histogram)` entries by slot; removed slots are `None`.
    slots: Vec<Option<(u128, Histogram)>>,
    /// Slot ids freed by `remove`, reused by later inserts so the slots
    /// vector does not grow under score/revert cycles.
    free: Vec<usize>,
    live: usize,
    pair_sum: f64,
    comp: f64,
    ops_since_rebuild: usize,
    next_unkeyed: u64,
}

impl<'d> PairwiseAverager<'d> {
    /// An empty averager over the given distance (every pair computed).
    pub fn new(distance: &'d dyn HistogramDistance) -> Self {
        Self::with_oracle(Oracle::Plain(distance))
    }

    /// An empty averager resolving distances through a keyed oracle
    /// (pairs of keyed histograms may be served from the oracle's cache).
    pub fn keyed(oracle: &'d dyn DistanceOracle) -> Self {
        Self::with_oracle(Oracle::Keyed(oracle))
    }

    fn with_oracle(oracle: Oracle<'d>) -> Self {
        PairwiseAverager {
            oracle,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            pair_sum: 0.0,
            comp: 0.0,
            ops_since_rebuild: 0,
            next_unkeyed: 0,
        }
    }

    /// Seed with an initial set of histograms.
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] from the underlying distance.
    pub fn with_histograms(
        distance: &'d dyn HistogramDistance,
        histograms: impl IntoIterator<Item = Histogram>,
    ) -> Result<Self, AuditError> {
        let mut this = PairwiseAverager::new(distance);
        for h in histograms {
            this.insert(h)?;
        }
        Ok(this)
    }

    /// Number of live histograms.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live histograms remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert a histogram without a cache key (pairs involving it are
    /// always computed, never cached), returning its slot id. Empty
    /// histograms are accepted but contribute nothing (mirroring
    /// [`average_pairwise`]'s skip rule).
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] from the underlying distance.
    pub fn insert(&mut self, histogram: Histogram) -> Result<usize, AuditError> {
        let key = UNKEYED_BIT | u128::from(self.next_unkeyed);
        self.next_unkeyed += 1;
        self.insert_keyed(key, histogram)
    }

    /// Insert a histogram under a cache key (a partition fingerprint, or
    /// a key previously returned by [`PairwiseAverager::remove`]),
    /// returning its slot id.
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] from the underlying distance.
    pub fn insert_keyed(&mut self, key: u128, histogram: Histogram) -> Result<usize, AuditError> {
        if !histogram.is_empty() {
            let mut delta = 0.0;
            let mut delta_comp = 0.0;
            for (other_key, other) in self.slots.iter().flatten() {
                if !other.is_empty() {
                    let d = oracle_distance(&self.oracle, key, &histogram, *other_key, other)?;
                    neumaier_add(&mut delta, &mut delta_comp, d);
                }
            }
            neumaier_add(&mut self.pair_sum, &mut self.comp, delta + delta_comp);
            self.live += 1;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some((key, histogram));
                slot
            }
            None => {
                self.slots.push(Some((key, histogram)));
                self.slots.len() - 1
            }
        };
        self.maybe_rebuild()?;
        Ok(slot)
    }

    /// Remove the histogram at `slot`, returning its key and histogram
    /// (`None` if the slot was already removed). The freed slot id is
    /// reused by later inserts.
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] from the underlying distance.
    pub fn remove(&mut self, slot: usize) -> Result<Option<(u128, Histogram)>, AuditError> {
        let Some((key, victim)) = self.slots.get_mut(slot).and_then(Option::take) else {
            return Ok(None);
        };
        self.free.push(slot);
        if victim.is_empty() {
            return Ok(Some((key, victim)));
        }
        let mut delta = 0.0;
        let mut delta_comp = 0.0;
        for (other_key, other) in self.slots.iter().flatten() {
            if !other.is_empty() {
                let d = oracle_distance(&self.oracle, key, &victim, *other_key, other)?;
                neumaier_add(&mut delta, &mut delta_comp, d);
            }
        }
        neumaier_add(&mut self.pair_sum, &mut self.comp, -(delta + delta_comp));
        self.live -= 1;
        self.maybe_rebuild()?;
        Ok(Some((key, victim)))
    }

    fn maybe_rebuild(&mut self) -> Result<(), AuditError> {
        self.ops_since_rebuild += 1;
        if self.ops_since_rebuild < REBUILD_EVERY {
            return Ok(());
        }
        let (sum, comp) = {
            let live: Vec<(u128, &Histogram)> = self
                .slots
                .iter()
                .flatten()
                .filter(|(_, h)| !h.is_empty())
                .map(|(k, h)| (*k, h))
                .collect();
            let mut sum = 0.0;
            let mut comp = 0.0;
            for i in 0..live.len() {
                for j in i + 1..live.len() {
                    let d =
                        oracle_distance(&self.oracle, live[i].0, live[i].1, live[j].0, live[j].1)?;
                    neumaier_add(&mut sum, &mut comp, d);
                }
            }
            (sum, comp)
        };
        self.pair_sum = sum;
        self.comp = comp;
        self.ops_since_rebuild = 0;
        Ok(())
    }

    /// Current average pairwise distance (0 with fewer than two live
    /// histograms).
    pub fn average(&self) -> f64 {
        if self.live < 2 {
            return 0.0;
        }
        let pairs = self.live * (self.live - 1) / 2;
        (self.pair_sum + self.comp) / pairs as f64
    }

    /// The (compensated) pairwise distance sum over live entries — the
    /// numerator of [`PairwiseAverager::average`]. Used by the
    /// branch-and-bound scorer to extend the current sum with bounds on
    /// hypothetical new pairs.
    pub fn pair_sum(&self) -> f64 {
        self.pair_sum + self.comp
    }

    /// Iterate the live `(key, histogram)` entries in slot order.
    pub fn live_entries(&self) -> impl Iterator<Item = (u128, &Histogram)> {
        self.slots
            .iter()
            .flatten()
            .filter(|(_, h)| !h.is_empty())
            .map(|(k, h)| (*k, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairjob_hist::distance::Emd1d;
    use fairjob_hist::BinSpec;

    fn h(values: &[f64]) -> Histogram {
        Histogram::from_values(
            BinSpec::equal_width(0.0, 1.0, 10).unwrap(),
            values.iter().copied(),
        )
    }

    #[test]
    fn averages_all_pairs() {
        let (a, b, c) = (h(&[0.05]), h(&[0.55]), h(&[0.95]));
        // EMDs: a-b 0.5, a-c 0.9, b-c 0.4 -> avg 0.6.
        let avg = average_pairwise(&[&a, &b, &c], &Emd1d).unwrap();
        assert!((avg - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_histograms_are_skipped() {
        let (a, b) = (h(&[0.05]), h(&[0.95]));
        let e = Histogram::empty(BinSpec::equal_width(0.0, 1.0, 10).unwrap());
        let avg = average_pairwise(&[&a, &e, &b], &Emd1d).unwrap();
        assert!((avg - 0.9).abs() < 1e-9);
        assert_eq!(average_pairwise(&[&a, &e], &Emd1d).unwrap(), 0.0);
    }

    #[test]
    fn fewer_than_two_is_zero() {
        let a = h(&[0.5]);
        assert_eq!(average_pairwise(&[&a], &Emd1d).unwrap(), 0.0);
        assert_eq!(average_pairwise(&[], &Emd1d).unwrap(), 0.0);
    }

    #[test]
    fn parallel_matches_serial() {
        let hists: Vec<Histogram> = (0..25)
            .map(|i| h(&[i as f64 / 25.0, (i as f64 / 25.0 + 0.3).min(1.0)]))
            .collect();
        let refs: Vec<&Histogram> = hists.iter().collect();
        let serial = average_pairwise(&refs, &Emd1d).unwrap();
        for threads in [1, 2, 4, 7, 32] {
            let par = average_pairwise_parallel(&refs, &Emd1d, threads).unwrap();
            assert_eq!(
                serial.to_bits(),
                par.to_bits(),
                "threads={threads}: serial {serial} vs parallel {par}"
            );
        }
    }

    #[test]
    fn batch_kernel_screens_emd_pairs_without_solving() {
        let hists: Vec<Histogram> = (0..12)
            .map(|i| h(&[i as f64 / 12.0, (i as f64 / 12.0 + 0.2).min(1.0)]))
            .collect();
        let refs: Vec<&Histogram> = hists.iter().collect();
        let serial = average_pairwise(&refs, &Emd1d).unwrap();
        let out = pairwise_emd_batch(&refs, &Emd1d, 2, None).unwrap();
        assert_eq!(out.value, BatchValue::Average(serial));
        assert_eq!(out.stats.pairs, 66);
        // Emd1d has exact bounds, so the screen settles every pair.
        assert_eq!(out.stats.bounds_screened, 66);
        assert_eq!(out.stats.exact_solves, 0);
        assert_eq!(out.stats.pool_tasks, 0);
    }

    #[test]
    fn batch_kernel_solves_unbounded_distances_exactly() {
        use fairjob_hist::distance::TotalVariation;
        let hists: Vec<Histogram> = (0..10).map(|i| h(&[i as f64 / 10.0])).collect();
        let refs: Vec<&Histogram> = hists.iter().collect();
        let serial = average_pairwise(&refs, &TotalVariation).unwrap();
        for threads in [1usize, 3] {
            let out = pairwise_emd_batch(&refs, &TotalVariation, threads, None).unwrap();
            // TotalVariation offers no bounds: every pair is solved, and
            // the chunk count is thread-independent.
            assert_eq!(out.value, BatchValue::Average(serial), "threads={threads}");
            assert_eq!(out.stats.bounds_screened, 0);
            assert_eq!(out.stats.exact_solves, 45);
            assert_eq!(out.stats.pool_tasks, 1);
        }
    }

    #[test]
    fn batch_kernel_parallel_screen_is_bit_identical() {
        // 48 histograms -> 1128 pairs > PAIR_CHUNK, so the screen phase
        // itself goes through the worker pool; the result must stay
        // bit-identical to the serial reference for every thread count,
        // and the screen chunk count must be thread-independent.
        let hists: Vec<Histogram> = (0..48)
            .map(|i| h(&[i as f64 / 48.0, (i as f64 / 48.0 + 0.25).min(1.0)]))
            .collect();
        let refs: Vec<&Histogram> = hists.iter().collect();
        let serial = average_pairwise(&refs, &Emd1d).unwrap();
        let pairs: usize = 48 * 47 / 2;
        let screen_chunks = pairs.div_ceil(PAIR_CHUNK) as u64;
        for threads in [1usize, 2, 7] {
            let out = pairwise_emd_batch(&refs, &Emd1d, threads, None).unwrap();
            assert_eq!(out.value, BatchValue::Average(serial), "threads={threads}");
            assert_eq!(out.stats.pairs, pairs as u64);
            assert_eq!(out.stats.bounds_screened, pairs as u64);
            assert_eq!(out.stats.exact_solves, 0);
            assert_eq!(out.stats.pool_tasks, screen_chunks, "threads={threads}");
        }
    }

    #[test]
    fn batch_kernel_abandons_hopeless_candidates() {
        let spread: Vec<Histogram> = vec![h(&[0.05]), h(&[0.95]), h(&[0.5])];
        let tight: Vec<Histogram> = vec![h(&[0.48]), h(&[0.52]), h(&[0.5])];
        let spread_refs: Vec<&Histogram> = spread.iter().collect();
        let tight_refs: Vec<&Histogram> = tight.iter().collect();
        let incumbent = average_pairwise(&spread_refs, &Emd1d).unwrap();
        let out = pairwise_emd_batch(&tight_refs, &Emd1d, 1, Some(incumbent)).unwrap();
        let BatchValue::Abandoned(upper) = out.value else {
            panic!("tight candidate should be abandoned, got {:?}", out.value);
        };
        assert!(upper < incumbent);
        assert_eq!(out.stats.bounds_screened, out.stats.pairs);
        assert_eq!(out.stats.exact_solves, 0);
        // The incumbent itself must never be abandoned against its own
        // value (the upper bound equals the average for exact bounds).
        let again = pairwise_emd_batch(&spread_refs, &Emd1d, 1, Some(incumbent)).unwrap();
        assert_eq!(again.value, BatchValue::Average(incumbent));
    }

    #[test]
    fn averager_exposes_sum_and_live_entries() {
        let hists: Vec<Histogram> = [0.1, 0.5, 0.9].iter().map(|&v| h(&[v])).collect();
        let avg = PairwiseAverager::with_histograms(&Emd1d, hists).unwrap();
        let pairs = 3.0;
        assert!((avg.pair_sum() / pairs - avg.average()).abs() < 1e-15);
        assert_eq!(avg.live_entries().count(), 3);
        assert!(avg.live_entries().all(|(k, _)| k & UNKEYED_BIT != 0));
    }

    #[test]
    fn averager_matches_batch_computation() {
        let values = [0.05, 0.15, 0.35, 0.55, 0.75, 0.95];
        let hists: Vec<Histogram> = values
            .iter()
            .map(|&v| h(&[v, (v + 0.2).min(1.0)]))
            .collect();
        let refs: Vec<&Histogram> = hists.iter().collect();
        let batch = average_pairwise(&refs, &Emd1d).unwrap();
        let avg = PairwiseAverager::with_histograms(&Emd1d, hists.clone()).unwrap();
        assert!((avg.average() - batch).abs() < 1e-12);
        assert_eq!(avg.len(), 6);
    }

    #[test]
    fn averager_replace_one_by_children() {
        // Replace slot 0 by two "children" and compare with a batch
        // computation over the final set.
        let hists: Vec<Histogram> = [0.1, 0.5, 0.9].iter().map(|&v| h(&[v])).collect();
        let mut avg = PairwiseAverager::with_histograms(&Emd1d, hists).unwrap();
        avg.remove(0).unwrap();
        avg.insert(h(&[0.05])).unwrap();
        avg.insert(h(&[0.15])).unwrap();
        let final_set = [h(&[0.5]), h(&[0.9]), h(&[0.05]), h(&[0.15])];
        let refs: Vec<&Histogram> = final_set.iter().collect();
        let batch = average_pairwise(&refs, &Emd1d).unwrap();
        assert!((avg.average() - batch).abs() < 1e-12);
    }

    #[test]
    fn averager_handles_empty_histograms_and_double_remove() {
        let spec = BinSpec::equal_width(0.0, 1.0, 10).unwrap();
        let mut avg = PairwiseAverager::new(&Emd1d);
        let empty_slot = avg.insert(Histogram::empty(spec)).unwrap();
        avg.insert(h(&[0.1])).unwrap();
        avg.insert(h(&[0.9])).unwrap();
        assert_eq!(avg.len(), 2, "empty histogram does not count");
        assert!((avg.average() - 0.8).abs() < 1e-9);
        avg.remove(empty_slot).unwrap();
        avg.remove(empty_slot).unwrap(); // idempotent
        assert!((avg.average() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn averager_degenerate_sizes() {
        let mut avg = PairwiseAverager::new(&Emd1d);
        assert!(avg.is_empty());
        assert_eq!(avg.average(), 0.0);
        let slot = avg.insert(h(&[0.4])).unwrap();
        assert_eq!(avg.average(), 0.0);
        avg.remove(slot).unwrap();
        assert_eq!(avg.average(), 0.0);
        assert!(avg.is_empty());
    }

    #[test]
    fn averager_stays_exact_over_thousands_of_cycles() {
        // Churn one averager through thousands of insert/remove cycles
        // (crossing several exact-rebuild boundaries) and require the
        // incremental average to stay within 1e-9 of a fresh batch
        // computation. The old implementation drifted and masked it
        // with `.max(0.0)`.
        let fresh = |cycle: usize| {
            h(&[
                (cycle % 97) as f64 / 97.0,
                ((cycle % 53) as f64 / 53.0 + 0.1).min(1.0),
            ])
        };
        let base: Vec<Histogram> = (0..12)
            .map(|i| h(&[i as f64 / 12.0, ((i as f64 + 3.0) / 12.0).min(1.0)]))
            .collect();
        let mut avg = PairwiseAverager::with_histograms(&Emd1d, base.clone()).unwrap();
        let mut slots: Vec<usize> = (0..base.len()).collect();
        let mut finals: Vec<Histogram> = base.clone();
        for cycle in 0..5000usize {
            let victim = cycle % base.len();
            avg.remove(slots[victim]).unwrap();
            slots[victim] = avg.insert(fresh(cycle)).unwrap();
            finals[victim] = fresh(cycle);
        }
        let refs: Vec<&Histogram> = finals.iter().collect();
        let batch = average_pairwise(&refs, &Emd1d).unwrap();
        assert!(
            (avg.average() - batch).abs() < 1e-9,
            "incremental {} vs batch {} after 5000 cycles",
            avg.average(),
            batch
        );
        assert_eq!(avg.len(), base.len());
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut avg = PairwiseAverager::new(&Emd1d);
        let a = avg.insert(h(&[0.1])).unwrap();
        let _b = avg.insert(h(&[0.5])).unwrap();
        let (_, hist) = avg.remove(a).unwrap().expect("slot was live");
        assert_eq!(hist.total(), 1.0);
        assert!(avg.remove(a).unwrap().is_none(), "second remove is a no-op");
        let c = avg.insert(h(&[0.9])).unwrap();
        assert_eq!(c, a, "freed slot id is reused");
        assert!((avg.average() - 0.4).abs() < 1e-9);
    }
}
