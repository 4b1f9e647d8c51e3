//! Average-pairwise-distance computations (Definition 2) over partition
//! histograms: [`average_pairwise`], the serial reference every other
//! evaluation is checked against, and the crate-private
//! `PairwiseAverager` behind the engine's delta scoring
//! ([`crate::engine::IncrementalEval`]).

use crate::engine::EvalEngine;
use crate::error::AuditError;
use fairjob_hist::{Histogram, HistogramDistance};

/// Floating-point slack added to every bound-vs-incumbent comparison
/// before pruning. Pruning only ever *skips work whose outcome is
/// already decided*: a candidate is abandoned only when its upper bound
/// plus this margin is still below the incumbent, and the margin is
/// orders of magnitude above the accumulated rounding error of an
/// average over `< 2^32` pairs of values in `[0, 1]` (~1e-10), so a
/// pruned candidate can never have won and results stay bit-identical
/// to the unpruned search.
pub const PRUNE_MARGIN: f64 = 1e-7;

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
/// O(k²) distance *lookups* (memo hits), amortised
/// to O(k²/4096) per operation.
const REBUILD_EVERY: usize = 4096;

/// Incremental average-pairwise-distance maintenance.
///
/// Search procedures repeatedly ask "what is the average pairwise
/// distance if partition *p* were replaced by its children?" — a full
/// recomputation costs O(k²) distances while the delta touches only the
/// pairs involving *p* and its children. `PairwiseAverager` maintains
/// the pairwise sum under insertions and removals at O(k) distance
/// lookups per operation. Every entry carries a cache key (a partition
/// fingerprint), and every pair is resolved through the engine's memo,
/// so a pair met again is a cache hit.
///
/// The pairwise sum uses Neumaier-compensated summation plus a periodic
/// exact rebuild, keeping the incremental value within 1e-9 of a batch
/// computation over thousands of insert/remove cycles (load-bearing for
/// the evaluation engine's delta scoring).
///
/// Freed slot ids are reused by later inserts, so `remove` is only
/// idempotent until the next insert.
pub(crate) struct PairwiseAverager<'e, 'c, 'a> {
    engine: &'e EvalEngine<'c, 'a>,
    /// Live `(key, histogram)` entries by slot; removed slots are `None`.
    slots: Vec<Option<(u128, Histogram)>>,
    /// Slot ids freed by `remove`, reused by later inserts so the slots
    /// vector does not grow under score/revert cycles.
    free: Vec<usize>,
    live: usize,
    pair_sum: f64,
    comp: f64,
    ops_since_rebuild: usize,
}

impl<'e, 'c, 'a> PairwiseAverager<'e, 'c, 'a> {
    /// An empty averager resolving distances through the engine's memo.
    pub(crate) fn keyed(engine: &'e EvalEngine<'c, 'a>) -> Self {
        PairwiseAverager {
            engine,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            pair_sum: 0.0,
            comp: 0.0,
            ops_since_rebuild: 0,
        }
    }

    /// Number of live histograms.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The sum of `key`'s distances to every live non-empty entry.
    fn distance_sum(&self, key: u128, histogram: &Histogram) -> Result<f64, AuditError> {
        let mut sum = 0.0;
        let mut comp = 0.0;
        for (other_key, other) in self.slots.iter().flatten() {
            if !other.is_empty() {
                let d = self
                    .engine
                    .cached_distance(key, histogram, *other_key, other)?;
                neumaier_add(&mut sum, &mut comp, d);
            }
        }
        Ok(sum + comp)
    }

    /// Insert a histogram under a cache key (a partition fingerprint, or
    /// a key previously returned by [`PairwiseAverager::remove`]),
    /// returning its slot id. Empty histograms are accepted but
    /// contribute nothing (mirroring [`average_pairwise`]'s skip rule).
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] from the underlying distance.
    pub(crate) fn insert_keyed(
        &mut self,
        key: u128,
        histogram: Histogram,
    ) -> Result<usize, AuditError> {
        if !histogram.is_empty() {
            let delta = self.distance_sum(key, &histogram)?;
            neumaier_add(&mut self.pair_sum, &mut self.comp, delta);
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
    pub(crate) fn remove(&mut self, slot: usize) -> Result<Option<(u128, Histogram)>, AuditError> {
        let Some((key, victim)) = self.slots.get_mut(slot).and_then(Option::take) else {
            return Ok(None);
        };
        self.free.push(slot);
        if victim.is_empty() {
            return Ok(Some((key, victim)));
        }
        let delta = self.distance_sum(key, &victim)?;
        neumaier_add(&mut self.pair_sum, &mut self.comp, -delta);
        self.live -= 1;
        self.maybe_rebuild()?;
        Ok(Some((key, victim)))
    }

    fn maybe_rebuild(&mut self) -> Result<(), AuditError> {
        self.ops_since_rebuild += 1;
        if self.ops_since_rebuild < REBUILD_EVERY {
            return Ok(());
        }
        let live: Vec<(u128, &Histogram)> = self.live_entries().collect();
        let mut sum = 0.0;
        let mut comp = 0.0;
        for i in 0..live.len() {
            for j in i + 1..live.len() {
                let d = self
                    .engine
                    .cached_distance(live[i].0, live[i].1, live[j].0, live[j].1)?;
                neumaier_add(&mut sum, &mut comp, d);
            }
        }
        self.pair_sum = sum;
        self.comp = comp;
        self.ops_since_rebuild = 0;
        Ok(())
    }

    /// Current average pairwise distance (0 with fewer than two live
    /// histograms).
    pub(crate) fn average(&self) -> f64 {
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
    pub(crate) fn pair_sum(&self) -> f64 {
        self.pair_sum + self.comp
    }

    /// Iterate the live `(key, histogram)` entries in slot order.
    pub(crate) fn live_entries(&self) -> impl Iterator<Item = (u128, &Histogram)> {
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
    use crate::context::{AuditConfig, AuditContext};
    use fairjob_hist::distance::Emd1d;
    use fairjob_hist::BinSpec;
    use fairjob_marketplace::toy::toy_workers;

    fn h(values: &[f64]) -> Histogram {
        Histogram::from_values(
            BinSpec::equal_width(0.0, 1.0, 10).unwrap(),
            values.iter().copied(),
        )
    }

    /// Run `test` with an engine over the toy context, whose default
    /// `Emd1d` resolves the averager's pairs. The averager tests key
    /// their histograms with synthetic keys, one per distinct histogram,
    /// so the engine's memo serves exactly the pairs it has seen.
    fn with_engine(test: impl FnOnce(&EvalEngine<'_, '_>)) {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        test(&EvalEngine::new(&ctx));
    }

    /// An averager seeded with `hists` under keys `0..hists.len()`.
    fn seeded<'e, 'c, 'a>(
        engine: &'e EvalEngine<'c, 'a>,
        hists: &[Histogram],
    ) -> PairwiseAverager<'e, 'c, 'a> {
        let mut avg = PairwiseAverager::keyed(engine);
        for (key, hist) in hists.iter().enumerate() {
            avg.insert_keyed(key as u128, hist.clone()).unwrap();
        }
        avg
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
    fn averager_exposes_sum_and_live_entries() {
        with_engine(|engine| {
            let hists: Vec<Histogram> = [0.1, 0.5, 0.9].iter().map(|&v| h(&[v])).collect();
            let avg = seeded(engine, &hists);
            let pairs = 3.0;
            assert!((avg.pair_sum() / pairs - avg.average()).abs() < 1e-15);
            assert_eq!(avg.live_entries().count(), 3);
            let keys: Vec<u128> = avg.live_entries().map(|(k, _)| k).collect();
            assert_eq!(keys, [0, 1, 2], "entries keep their keys, in slot order");
        });
    }

    #[test]
    fn averager_matches_batch_computation() {
        with_engine(|engine| {
            let values = [0.05, 0.15, 0.35, 0.55, 0.75, 0.95];
            let hists: Vec<Histogram> = values
                .iter()
                .map(|&v| h(&[v, (v + 0.2).min(1.0)]))
                .collect();
            let refs: Vec<&Histogram> = hists.iter().collect();
            let batch = average_pairwise(&refs, &Emd1d).unwrap();
            let avg = seeded(engine, &hists);
            assert!((avg.average() - batch).abs() < 1e-12);
            assert_eq!(avg.len(), 6);
        });
    }

    #[test]
    fn averager_replace_one_by_children() {
        // Replace slot 0 by two "children" and compare with a batch
        // computation over the final set.
        with_engine(|engine| {
            let hists: Vec<Histogram> = [0.1, 0.5, 0.9].iter().map(|&v| h(&[v])).collect();
            let mut avg = seeded(engine, &hists);
            avg.remove(0).unwrap();
            avg.insert_keyed(3, h(&[0.05])).unwrap();
            avg.insert_keyed(4, h(&[0.15])).unwrap();
            let final_set = [h(&[0.5]), h(&[0.9]), h(&[0.05]), h(&[0.15])];
            let refs: Vec<&Histogram> = final_set.iter().collect();
            let batch = average_pairwise(&refs, &Emd1d).unwrap();
            assert!((avg.average() - batch).abs() < 1e-12);
        });
    }

    #[test]
    fn averager_handles_empty_histograms_and_double_remove() {
        with_engine(|engine| {
            let spec = BinSpec::equal_width(0.0, 1.0, 10).unwrap();
            let mut avg = PairwiseAverager::keyed(engine);
            let empty_slot = avg.insert_keyed(0, Histogram::empty(spec)).unwrap();
            avg.insert_keyed(1, h(&[0.1])).unwrap();
            avg.insert_keyed(2, h(&[0.9])).unwrap();
            assert_eq!(avg.len(), 2, "empty histogram does not count");
            assert!((avg.average() - 0.8).abs() < 1e-9);
            avg.remove(empty_slot).unwrap();
            avg.remove(empty_slot).unwrap(); // idempotent
            assert!((avg.average() - 0.8).abs() < 1e-9);
        });
    }

    #[test]
    fn averager_degenerate_sizes() {
        with_engine(|engine| {
            let mut avg = PairwiseAverager::keyed(engine);
            assert_eq!(avg.len(), 0);
            assert_eq!(avg.average(), 0.0);
            let slot = avg.insert_keyed(0, h(&[0.4])).unwrap();
            assert_eq!(avg.average(), 0.0);
            avg.remove(slot).unwrap();
            assert_eq!(avg.average(), 0.0);
            assert_eq!(avg.len(), 0);
        });
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
        with_engine(|engine| {
            let base: Vec<Histogram> = (0..12)
                .map(|i| h(&[i as f64 / 12.0, ((i as f64 + 3.0) / 12.0).min(1.0)]))
                .collect();
            let mut avg = seeded(engine, &base);
            let mut slots: Vec<usize> = (0..base.len()).collect();
            let mut finals: Vec<Histogram> = base.clone();
            for cycle in 0..5000usize {
                let victim = cycle % base.len();
                avg.remove(slots[victim]).unwrap();
                // Each cycle's histogram is new (97 · 53 > 5000), so it
                // takes a key of its own.
                let key = (base.len() + cycle) as u128;
                slots[victim] = avg.insert_keyed(key, fresh(cycle)).unwrap();
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
        });
    }

    #[test]
    fn freed_slots_are_reused() {
        with_engine(|engine| {
            let mut avg = PairwiseAverager::keyed(engine);
            let a = avg.insert_keyed(0, h(&[0.1])).unwrap();
            let _b = avg.insert_keyed(1, h(&[0.5])).unwrap();
            let (_, hist) = avg.remove(a).unwrap().expect("slot was live");
            assert_eq!(hist.total(), 1.0);
            assert!(avg.remove(a).unwrap().is_none(), "second remove is a no-op");
            let c = avg.insert_keyed(2, h(&[0.9])).unwrap();
            assert_eq!(c, a, "freed slot id is reused");
            assert!((avg.average() - 0.4).abs() < 1e-9);
        });
    }
}
