//! Immutable, published epoch states for concurrent readers.
//!
//! A [`StreamSnapshot`] is what a resident server hands to reader
//! sessions: `Arc` handles on the writer's table, scores, cell cube,
//! dictionary indexes and bin array, plus a materialised live row set
//! and the epoch stamp. Cloning is O(1) in the population size (the row set is
//! shared behind the snapshot's own `Arc` clone semantics — the struct
//! itself is cheap to clone and `Send + Sync`), so a server can
//! `Arc`-swap the "current" snapshot on every committed epoch while
//! any number of in-flight audits keep reading the one they started
//! with. The writer's next in-place mutation copies the touched shared
//! structure (`Arc::make_mut` copy-on-write in
//! [`crate::StreamView`]), never a published snapshot's.

use crate::error::StreamError;
use fairjob_core::{AuditConfig, AuditContext, CellCube};
use fairjob_hist::BinSpec;
use fairjob_store::column::CodeColumn;
use fairjob_store::index::IndexSet;
use fairjob_store::paged::{self, PagedWriteSummary};
use fairjob_store::table::Table;
use fairjob_store::RowSet;
use std::path::Path;
use std::sync::Arc;

/// One epoch's published state: everything a reader needs to run an
/// audit that is bit-identical to a cold audit of the same epoch,
/// without blocking or being blocked by the writer.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    table: Arc<Table>,
    scores: Arc<Vec<f64>>,
    live: RowSet,
    indexes: Arc<IndexSet>,
    cube: Arc<CellCube>,
    bin_of: Arc<CodeColumn>,
    spec: BinSpec,
    epoch: u64,
}

impl StreamSnapshot {
    /// Assemble a snapshot from a view's shared parts — used by
    /// [`crate::StreamView::snapshot`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        table: Arc<Table>,
        scores: Arc<Vec<f64>>,
        live: RowSet,
        indexes: Arc<IndexSet>,
        cube: Arc<CellCube>,
        bin_of: Arc<CodeColumn>,
        spec: BinSpec,
        epoch: u64,
    ) -> Self {
        StreamSnapshot {
            table,
            scores,
            live,
            indexes,
            cube,
            bin_of,
            spec,
            epoch,
        }
    }

    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live workers in the snapshot.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The snapshot's histogram bin layout.
    pub fn spec(&self) -> &BinSpec {
        &self.spec
    }

    /// The underlying (append-only) table, tombstoned rows included.
    pub fn table(&self) -> &Table {
        self.table.as_ref()
    }

    /// Per-row scores, aligned with [`StreamSnapshot::table`].
    pub fn scores(&self) -> &[f64] {
        self.scores.as_slice()
    }

    /// Build an audit context over the snapshot's live rows: the
    /// context projects the snapshot's cube (O(cells), no row read) and
    /// shares its bin array — no rebuild, no copy; audits over the
    /// context cannot observe any later epoch.
    ///
    /// # Errors
    ///
    /// [`StreamError::BinMismatch`] when `config.bins` disagrees with
    /// the snapshot's layout; [`StreamError::Audit`] for unusable
    /// configs.
    pub fn context(&self, config: AuditConfig) -> Result<AuditContext<'_>, StreamError> {
        self.check_bins(&config)?;
        AuditContext::from_parts(
            self.table.as_ref(),
            self.scores.as_slice(),
            config,
            Arc::clone(&self.bin_of),
            Some(self.live.clone()),
            Some(&self.cube),
            self.epoch,
        )
        .map_err(StreamError::Audit)
    }

    /// Like [`context`](Self::context), but restricted to `live` — a
    /// subset of the snapshot's live rows (typically the live set
    /// intersected with a query predicate's row set). The snapshot's
    /// bin assignments are reused; the context counts its own cube from
    /// the subset's rows.
    ///
    /// # Errors
    ///
    /// [`StreamError::BinMismatch`] when `config.bins` differs from the
    /// snapshot's bin layout; [`StreamError::Audit`] from context
    /// assembly.
    pub fn context_over(
        &self,
        config: AuditConfig,
        live: fairjob_store::rowset::RowSet,
    ) -> Result<AuditContext<'_>, StreamError> {
        self.check_bins(&config)?;
        AuditContext::from_parts(
            self.table.as_ref(),
            self.scores.as_slice(),
            config,
            Arc::clone(&self.bin_of),
            Some(live),
            None,
            self.epoch,
        )
        .map_err(StreamError::Audit)
    }

    fn check_bins(&self, config: &AuditConfig) -> Result<(), StreamError> {
        if config.bins != self.spec.len() {
            return Err(StreamError::BinMismatch {
                view: self.spec.len(),
                config: config.bins,
            });
        }
        Ok(())
    }

    /// The live row set (rows not tombstoned at snapshot time).
    pub fn live_rows(&self) -> &fairjob_store::rowset::RowSet {
        &self.live
    }

    /// The shared inverted indexes over the snapshot's table.
    pub fn indexes(&self) -> &fairjob_store::index::IndexSet {
        &self.indexes
    }

    /// Persist the snapshot to the paged columnar format: the full
    /// (uncompacted) table, row-aligned scores, the live bitmap, the
    /// epoch stamp and the bin count. Row ids are preserved, so a
    /// server restarted from the file ([`crate::StreamView::from_paged`])
    /// resumes at this epoch with the same worker ids — no event-log
    /// replay — and audits bit-identically to the writer.
    ///
    /// # Errors
    ///
    /// [`StreamError::Paged`] on write failures.
    pub fn write_paged(&self, path: &Path) -> Result<PagedWriteSummary, StreamError> {
        Ok(paged::write_paged(
            path,
            self.table.as_ref(),
            Some(self.scores.as_slice()),
            Some(&self.live),
            self.epoch,
            self.spec.len(),
        )?)
    }

    /// Materialise the snapshot's live population as a fresh, compacted
    /// table (row ids renumbered to `0..live_count`) with aligned
    /// scores — what a cold batch audit of this epoch would load.
    ///
    /// # Errors
    ///
    /// [`StreamError::Corrupt`] when the live set references a row the
    /// table does not have (a corrupted tombstone bitmap — cannot occur
    /// for sets the stream layer itself maintains);
    /// [`StreamError::Store`] from re-ingesting rows.
    pub fn compact(&self) -> Result<(Table, Vec<f64>), StreamError> {
        let corrupt = |row: usize| StreamError::Corrupt {
            row: row as u32,
            rows: self.table.len().min(self.scores.len()),
        };
        let mut rows = Vec::with_capacity(self.live.len());
        let mut scores = Vec::with_capacity(self.live.len());
        for row in self.live.iter() {
            rows.push(self.table.row(row).ok_or_else(|| corrupt(row))?);
            scores.push(*self.scores.get(row).ok_or_else(|| corrupt(row))?);
        }
        let mut table = Table::new(self.table.schema().clone());
        table.push_rows(&rows)?;
        Ok((table, scores))
    }
}

#[cfg(test)]
mod tests {
    use crate::view::StreamView;
    use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
    use fairjob_core::AuditConfig;
    use fairjob_marketplace::stream::{generate_stream, Event, StreamConfig};

    fn view(workers: usize, seed: u64) -> (StreamView, Vec<Vec<Event>>) {
        let scenario = generate_stream(&StreamConfig {
            initial: workers,
            epochs: 3,
            events_per_epoch: 8,
            seed,
            alpha: 0.5,
        });
        let view = StreamView::new(scenario.initial, scenario.scores, 10).unwrap();
        (view, scenario.events.epochs().to_vec())
    }

    #[test]
    fn snapshot_is_isolated_from_later_epochs() {
        let (mut v, epochs) = view(80, 31);
        let snap = v.snapshot();
        assert_eq!(snap.epoch(), 0);
        let before_live = snap.live_count();
        let before_scores = snap.scores().to_vec();
        for events in &epochs {
            v.apply_epoch(events).unwrap();
        }
        assert!(v.epoch() > 0);
        // The published snapshot still reads the epoch-0 state even
        // though the writer mutated every shared structure in place.
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.live_count(), before_live);
        assert_eq!(snap.scores(), before_scores.as_slice());
    }

    #[test]
    fn snapshot_audit_matches_cold_audit_of_same_epoch() {
        let algorithm = Balanced::new(AttributeChoice::Worst);
        let (mut v, epochs) = view(120, 32);
        v.apply_epoch(&epochs[0]).unwrap();
        let snap = v.snapshot();
        // Writer moves on; the snapshot's audit must still equal a cold
        // audit of the snapshot's own epoch, bit for bit.
        v.apply_epoch(&epochs[1]).unwrap();
        let ctx = snap.context(AuditConfig::default()).unwrap();
        let live = algorithm.run(&ctx).unwrap();
        let (table, scores) = snap.compact().unwrap();
        let cold_ctx =
            fairjob_core::AuditContext::new(&table, &scores, AuditConfig::default()).unwrap();
        let cold = algorithm.run(&cold_ctx).unwrap();
        assert_eq!(live.unfairness.to_bits(), cold.unfairness.to_bits());
        assert!(crate::same_partitioning(
            &live.partitioning,
            &cold.partitioning
        ));
    }

    #[test]
    fn snapshot_clone_is_cheap_and_equivalent() {
        let (v, _) = view(40, 33);
        let a = v.snapshot();
        let b = a.clone();
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.live_count(), b.live_count());
        assert_eq!(a.scores(), b.scores());
    }
}
