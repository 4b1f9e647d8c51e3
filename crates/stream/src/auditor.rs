//! The incremental audit loop: apply an epoch (the view patches its
//! cell cube), selectively invalidate the warm distance memo, re-audit,
//! keep the caches for the next epoch.

use crate::error::StreamError;
use crate::view::StreamView;
use fairjob_core::algorithms::Algorithm;
use fairjob_core::{AuditConfig, AuditContext, AuditResult, EngineCaches, InvalidationReport};
use fairjob_marketplace::stream::Event;

/// The outcome of one epoch of [`StreamAuditor::run_epoch`].
#[derive(Debug)]
pub struct EpochReport {
    /// Epoch stamp of the audited state.
    pub epoch: u64,
    /// Events applied this epoch.
    pub events: usize,
    /// Net row changes after coalescing.
    pub changes: usize,
    /// What selective invalidation did to the warm distance memo.
    pub invalidation: InvalidationReport,
    /// Live workers at audit time.
    pub live_workers: usize,
    /// The audit itself (partitioning, unfairness, engine counters).
    pub audit: AuditResult,
}

/// Maintains an audited view across epochs: each [`run_epoch`]
/// (1) applies the events to the [`StreamView`], which patches its cell
/// cube, (2) selectively invalidates the distance memo carried over
/// from the previous epoch against the epoch's net row changes,
/// (3) seeds the caches into a fresh per-epoch [`AuditContext`] — which
/// projects the view's cube and reads no row — and runs the algorithm,
/// and (4) takes the caches back for the next epoch.
///
/// The warm result is bit-identical to [`StreamAuditor::cold_audit`]
/// (a from-scratch audit of the compacted live population): retained
/// distances are exactly what a recompute would produce, and the
/// patched cube holds the integer counts a rebuild would count. Split
/// entries survive only an epoch that changed no row; any other epoch
/// recomputes its splits from the patched cube.
///
/// Parallel work inside each epoch's audit (candidate-split batches,
/// large pairwise evaluations) runs on the process-wide persistent
/// worker pool ([`fairjob_core::pool::WorkerPool::global`]), so worker
/// threads are spawned once for the life of the stream, not once per
/// epoch; histogram prefix-CDF caches are rebuilt lazily per partition
/// after patching, keeping warm-epoch bound screens as cheap as cold
/// ones.
///
/// [`run_epoch`]: StreamAuditor::run_epoch
#[derive(Debug)]
pub struct StreamAuditor {
    view: StreamView,
    config: AuditConfig,
    caches: Option<EngineCaches>,
}

impl StreamAuditor {
    /// Wrap a view. `config.bins` must match the view's histogram
    /// layout.
    ///
    /// # Errors
    ///
    /// [`StreamError::BinMismatch`] on disagreeing bin counts.
    pub fn new(view: StreamView, config: AuditConfig) -> Result<Self, StreamError> {
        if config.bins != view.spec().len() {
            return Err(StreamError::BinMismatch {
                view: view.spec().len(),
                config: config.bins,
            });
        }
        Ok(StreamAuditor {
            view,
            config,
            caches: None,
        })
    }

    /// The audited view.
    pub fn view(&self) -> &StreamView {
        &self.view
    }

    /// Audit the current state without applying events or bumping the
    /// epoch — the initial audit that warms the caches.
    ///
    /// # Errors
    ///
    /// [`StreamError`] from context construction or the algorithm.
    pub fn audit(&mut self, algorithm: &dyn Algorithm) -> Result<EpochReport, StreamError> {
        self.run(None, algorithm)
    }

    /// Apply one epoch of events, then re-audit incrementally.
    ///
    /// # Errors
    ///
    /// [`StreamError`] from event application (on which the auditor
    /// must be discarded — the view may hold a partial epoch), context
    /// construction, or the algorithm.
    pub fn run_epoch(
        &mut self,
        events: &[Event],
        algorithm: &dyn Algorithm,
    ) -> Result<EpochReport, StreamError> {
        self.run(Some(events), algorithm)
    }

    fn run(
        &mut self,
        events: Option<&[Event]>,
        algorithm: &dyn Algorithm,
    ) -> Result<EpochReport, StreamError> {
        let (event_count, changes) = match events {
            Some(events) => {
                let delta = self.view.apply_epoch(events)?;
                (events.len(), delta.changes)
            }
            None => (0, Vec::new()),
        };
        let mut caches = self.caches.take().unwrap_or_default();
        let invalidation = caches.invalidate(&changes);
        let ctx = self.view.context(self.config.clone())?;
        ctx.seed_engine_caches(caches);
        let audit = algorithm.run(&ctx).map_err(StreamError::Audit)?;
        // The engine adopted the seeded caches and parked them back on
        // the context when it dropped (inside `run`).
        self.caches = ctx.take_engine_caches();
        Ok(EpochReport {
            epoch: self.view.epoch(),
            events: event_count,
            changes: changes.len(),
            invalidation,
            live_workers: self.view.live_count(),
            audit,
        })
    }

    /// A from-scratch audit of the compacted live population — the
    /// baseline the incremental path is verified against. Builds a
    /// fresh table, a fresh cube and a cold engine; does not touch the
    /// auditor's warm caches.
    ///
    /// # Errors
    ///
    /// [`StreamError`] from compaction, context construction, or the
    /// algorithm.
    pub fn cold_audit(&self, algorithm: &dyn Algorithm) -> Result<AuditResult, StreamError> {
        let (table, scores) = self.view.compact()?;
        let ctx = AuditContext::new(&table, &scores, self.config.clone())?;
        algorithm.run(&ctx).map_err(StreamError::Audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::same_partitioning;
    use fairjob_core::algorithms::{balanced::Balanced, AttributeChoice};
    use fairjob_hist::distance::{DistanceError, Emd1d, HistogramDistance};
    use fairjob_hist::{DistanceBounds, Histogram};
    use fairjob_marketplace::stream::{generate_stream, StreamConfig};
    use std::sync::Arc;

    /// `Emd1d` without its L1 form: the same distances and exact
    /// bounds, so full evaluations go through the distance memo, which
    /// the default `emd` skips.
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

    fn auditor(workers: usize, seed: u64) -> (StreamAuditor, Vec<Vec<Event>>) {
        auditor_with(workers, seed, AuditConfig::default())
    }

    /// An auditor whose distance memoizes full evaluations.
    fn pairwise_auditor(workers: usize, seed: u64) -> (StreamAuditor, Vec<Vec<Event>>) {
        auditor_with(
            workers,
            seed,
            AuditConfig::with_distance(Arc::new(PairwiseEmd)),
        )
    }

    fn auditor_with(
        workers: usize,
        seed: u64,
        config: AuditConfig,
    ) -> (StreamAuditor, Vec<Vec<Event>>) {
        let scenario = generate_stream(&StreamConfig {
            initial: workers,
            epochs: 4,
            events_per_epoch: 6,
            seed,
            alpha: 0.5,
        });
        let view = StreamView::new(scenario.initial, scenario.scores, 10).unwrap();
        let auditor = StreamAuditor::new(view, config).unwrap();
        (auditor, scenario.events.epochs().to_vec())
    }

    /// Distances held in the auditor's warm memo.
    fn memo_size(auditor: &StreamAuditor) -> usize {
        auditor.caches.as_ref().map_or(0, EngineCaches::distances)
    }

    #[test]
    fn bin_mismatch_is_rejected() {
        let (auditor, _) = auditor(20, 1);
        let view = auditor.view;
        assert!(matches!(
            StreamAuditor::new(view, AuditConfig::with_bins(5)),
            Err(StreamError::BinMismatch { .. })
        ));
    }

    #[test]
    fn incremental_epochs_match_cold_rebuilds_bit_for_bit() {
        let algorithm = Balanced::new(AttributeChoice::Worst);
        let (mut auditor, epochs) = auditor(120, 7);
        let initial = auditor.audit(&algorithm).unwrap();
        assert_eq!(initial.epoch, 0);
        assert_eq!(initial.live_workers, 120);
        for events in &epochs {
            let warm = auditor.run_epoch(events, &algorithm).unwrap();
            let cold = auditor.cold_audit(&algorithm).unwrap();
            assert!(
                same_partitioning(&warm.audit.partitioning, &cold.partitioning),
                "epoch {}: warm and cold partitionings diverge",
                warm.epoch
            );
            assert_eq!(
                warm.audit.unfairness.to_bits(),
                cold.unfairness.to_bits(),
                "epoch {}: unfairness diverges",
                warm.epoch
            );
            assert_eq!(warm.live_workers, auditor.view().live_count());
        }
    }

    #[test]
    fn warm_epochs_reuse_cached_work() {
        let algorithm = Balanced::new(AttributeChoice::Worst);
        // The default `emd` reads no row (the view patched the cube)
        // and keeps no distance memo.
        let (mut auditor, epochs) = auditor(150, 13);
        auditor.audit(&algorithm).unwrap();
        let warm = auditor.run_epoch(&epochs[0], &algorithm).unwrap();
        let cold = auditor.cold_audit(&algorithm).unwrap();
        assert!(
            warm.audit.engine.rows_scanned < cold.engine.rows_scanned,
            "warm run scanned as many rows as cold ({} vs {})",
            warm.audit.engine.rows_scanned,
            cold.engine.rows_scanned
        );
        assert_eq!(warm.invalidation.distances_retained, 0);
        assert_eq!(memo_size(&auditor), 0);
        // A memoizing metric with the same distances reuses them.
        let (mut auditor, epochs) = pairwise_auditor(150, 13);
        auditor.audit(&algorithm).unwrap();
        let warm = auditor.run_epoch(&epochs[0], &algorithm).unwrap();
        let cold = auditor.cold_audit(&algorithm).unwrap();
        assert!(
            warm.invalidation.distances_retained > 0,
            "selective invalidation kept no distances: {:?}",
            warm.invalidation
        );
        assert!(
            warm.audit.engine.distances_computed < cold.engine.distances_computed,
            "warm run recomputed as many distances as cold ({} vs {})",
            warm.audit.engine.distances_computed,
            cold.engine.distances_computed
        );
    }

    #[test]
    fn empty_epoch_retains_everything() {
        let algorithm = Balanced::new(AttributeChoice::Worst);
        // The default `emd`: every split retained, no distance memo.
        let (mut auditor, _) = auditor(60, 21);
        let first = auditor.audit(&algorithm).unwrap();
        assert_eq!(first.invalidation, InvalidationReport::default());
        let second = auditor.run_epoch(&[], &algorithm).unwrap();
        assert_eq!(second.epoch, 1);
        assert_eq!(second.changes, 0);
        assert_eq!(second.invalidation.distances_evicted, 0);
        assert_eq!(second.invalidation.distances_retained, 0);
        assert_eq!(memo_size(&auditor), 0);
        // The cube is unchanged, so every split the audit needs is
        // already cached, and no row is read.
        assert_eq!(second.audit.engine.splits_computed, 0);
        assert_eq!(second.audit.engine.rows_scanned, 0);
        assert_eq!(
            first.audit.unfairness.to_bits(),
            second.audit.unfairness.to_bits()
        );
        // A memoizing metric with the same distances retains them all.
        let (mut auditor, _) = pairwise_auditor(60, 21);
        auditor.audit(&algorithm).unwrap();
        let second = auditor.run_epoch(&[], &algorithm).unwrap();
        assert_eq!(second.invalidation.distances_evicted, 0);
        assert!(second.invalidation.distances_retained > 0);
        assert_eq!(second.audit.engine.distances_computed, 0);
    }
}
