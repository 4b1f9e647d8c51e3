//! The mutable, epoch-versioned view over a worker population.

use crate::error::StreamError;
use crate::snapshot::StreamSnapshot;
use fairjob_core::{AuditConfig, AuditContext, AuditError, CellCube, RowChange, RowFacts};
use fairjob_hist::BinSpec;
use fairjob_marketplace::stream::Event;
use fairjob_store::bitmap::Bitmap;
use fairjob_store::column::CodeColumn;
use fairjob_store::index::IndexSet;
use fairjob_store::schema::DataType;
use fairjob_store::table::Table;
use fairjob_store::RowSet;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one epoch of events did to the view: the new epoch stamp and
/// the coalesced per-row changes (one [`RowChange`] per touched row,
/// `before` = state at epoch start, `after` = state at epoch end; rows
/// added **and** removed within the epoch, or mutated back to their
/// starting state, are dropped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochDelta {
    /// The epoch the view is now at.
    pub epoch: u64,
    /// Net row changes, ascending by row id.
    pub changes: Vec<RowChange>,
}

/// A mutable view over a worker population, maintained in place as
/// events apply:
///
/// * the table is **append-only** — worker ids are row indices,
///   assigned in arrival order, never reused;
/// * departures set a tombstone in the `live` bitmap instead of
///   deleting the row;
/// * the cell cube of the live rows over every splittable attribute,
///   the dictionary indexes (for FairQL's pushed-down scans) and the
///   per-row score-bin array are maintained in place (no per-epoch
///   rebuild; the cube patches two cells per changed row);
/// * every epoch bumps a version stamp and reports its net
///   [`RowChange`]s for selective cache invalidation.
///
/// [`StreamView::context`] snapshots the view into an
/// [`AuditContext`] restricted to the live rows; results over it are
/// bit-identical to a cold audit of the compacted live population
/// ([`StreamView::compact`]).
///
/// Every column of state is behind an `Arc` so
/// [`StreamView::snapshot`] can publish an immutable
/// [`crate::StreamSnapshot`] in O(live): concurrent readers audit the
/// published snapshot while the writer keeps applying epochs — the
/// first in-place mutation after a publication copies the touched
/// structure via `Arc::make_mut` (copy-on-write), never the reader's.
#[derive(Debug, Clone)]
pub struct StreamView {
    table: Arc<Table>,
    scores: Arc<Vec<f64>>,
    live: Bitmap,
    /// Shared with per-epoch contexts and published snapshots (`Arc`
    /// hand-off, no rebuild); mutated via `Arc::make_mut` between
    /// audits, when no context of *this* view is borrowing them.
    indexes: Arc<IndexSet>,
    /// The live rows' cell cube over every splittable attribute; each
    /// context projects it onto its audited attributes.
    cube: Arc<CellCube>,
    bin_of: Arc<CodeColumn>,
    spec: BinSpec,
    epoch: u64,
}

impl StreamView {
    /// Wrap an initial population. `scores` must be row-aligned with
    /// `table` and each in `[0, 1]`; `bins` fixes the histogram layout
    /// every epoch's audit will use.
    ///
    /// # Errors
    ///
    /// [`StreamError`] for an empty table, misaligned or out-of-range
    /// scores, or a bad bin count.
    pub fn new(table: Table, scores: Vec<f64>, bins: usize) -> Result<Self, StreamError> {
        Self::from_state(table, scores, None, 0, bins)
    }

    /// Reconstruct a view from persisted state — the snapshot-restart
    /// path ([`crate::StreamSnapshot::write_paged`] → `fairjob serve
    /// --snapshot`). `live` restricts to the non-tombstoned rows
    /// (`None` = all live); `epoch` resumes the writer's stamp.
    ///
    /// The derived structures (cell cube, dictionary indexes, score-bin
    /// array) are rebuilt from the columns. The stream layer maintains
    /// them incrementally to the from-scratch values (departures only
    /// tombstone; in-place edits mirror a rebuild — asserted in tests),
    /// so audits over the reloaded view are bit-identical to the
    /// writer's audits at the same epoch.
    ///
    /// # Errors
    ///
    /// [`StreamError`] for an empty table, misaligned or out-of-range
    /// scores, a bad bin count, or a live row beyond the table.
    pub fn from_state(
        table: Table,
        scores: Vec<f64>,
        live: Option<fairjob_store::RowSet>,
        epoch: u64,
        bins: usize,
    ) -> Result<Self, StreamError> {
        if table.is_empty() {
            return Err(StreamError::Audit(AuditError::EmptyTable));
        }
        if scores.len() != table.len() {
            return Err(StreamError::Audit(AuditError::ScoreLength {
                rows: table.len(),
                scores: scores.len(),
            }));
        }
        for (row, &s) in scores.iter().enumerate() {
            validate_score(row as u32, s)?;
        }
        let spec = BinSpec::equal_width(0.0, 1.0, bins)
            .map_err(|e| StreamError::Audit(AuditError::Bins(e.to_string())))?;
        let indexes = Arc::new(IndexSet::build(&table, &table.schema().splittable())?);
        // Bulk classification through the chunked kernel (identical
        // indices to per-row `bin_index`; asserted in the hist crate).
        // Epoch patching below stays per-row: deltas are small relative
        // to the initial population, so per-event updates beat
        // reclassifying the column.
        let bin_of = Arc::new(CodeColumn::from_values(bins, &spec.bin_indices(&scores)));
        let live = match live {
            Some(rows) => {
                if let Some(&last) = rows.rows().last() {
                    if last as usize >= table.len() {
                        return Err(StreamError::Corrupt {
                            row: last,
                            rows: table.len(),
                        });
                    }
                }
                Bitmap::from_rowset(&rows, table.len())
            }
            None => Bitmap::full(table.len()),
        };
        // One row range: the base cube is patched and only projected,
        // and neither keeps the build's range counts.
        let cube = CellCube::from_table(
            &table,
            &table.schema().splittable(),
            &bin_of,
            bins,
            Some(live.to_rowset()),
            true,
            1,
        )?;
        Ok(StreamView {
            table: Arc::new(table),
            scores: Arc::new(scores),
            live,
            indexes,
            cube: Arc::new(cube),
            bin_of,
            spec,
            epoch,
        })
    }

    /// Cold-start a view from an opened paged snapshot file: pages are
    /// materialised back into memory, the live bitmap, epoch and bin
    /// layout carried over, and the derived structures rebuilt (see
    /// [`StreamView::from_state`] for why that is exact).
    ///
    /// # Errors
    ///
    /// [`StreamError::Paged`] from page reads, or when the file was
    /// written without scores; [`StreamError`] from state validation.
    pub fn from_paged(store: &fairjob_store::PagedStore) -> Result<Self, StreamError> {
        let (table, scores) = store.materialize()?;
        let scores = scores.ok_or_else(|| {
            StreamError::Paged(fairjob_store::paged::PagedError::Corrupt(
                "paged file carries no scores; a stream view needs them".to_string(),
            ))
        })?;
        Self::from_state(
            table,
            scores,
            store.live().cloned(),
            store.epoch(),
            store.bins(),
        )
    }

    /// The underlying (append-only) table, tombstoned rows included.
    pub fn table(&self) -> &Table {
        self.table.as_ref()
    }

    /// Per-row scores, aligned with [`StreamView::table`].
    pub fn scores(&self) -> &[f64] {
        self.scores.as_slice()
    }

    /// The histogram bin layout of this view.
    pub fn spec(&self) -> &BinSpec {
        &self.spec
    }

    /// The current epoch (0 until the first [`StreamView::apply_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live (non-tombstoned) workers.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Is this worker id live?
    pub fn is_live(&self, worker: u32) -> bool {
        self.live.contains(worker)
    }

    /// The live rows as a sorted row set.
    pub fn live_rows(&self) -> RowSet {
        self.live.to_rowset()
    }

    /// Apply one epoch of events in order, maintaining every derived
    /// structure in place, and report the net row changes.
    ///
    /// # Errors
    ///
    /// [`StreamError`] for events targeting dead or unknown workers,
    /// invalid scores, or store-level failures (unknown attributes or
    /// labels, wrong arity). **On error the view may have applied a
    /// prefix of the epoch and must be discarded.**
    pub fn apply_epoch(&mut self, events: &[Event]) -> Result<EpochDelta, StreamError> {
        // Per touched row: its facts at epoch start (`None` = the row
        // did not exist yet). BTreeMap for ascending, deterministic
        // change order.
        let mut touched: BTreeMap<u32, Option<RowFacts>> = BTreeMap::new();
        for event in events {
            match event {
                Event::WorkerAdded { values, score } => {
                    let row = self.table.len() as u32;
                    validate_score(row, *score)?;
                    Arc::make_mut(&mut self.table).push_row(values)?;
                    let table = Arc::clone(&self.table);
                    Arc::make_mut(&mut self.indexes).push_row(table.as_ref())?;
                    Arc::make_mut(&mut self.bin_of).push(self.spec.bin_index(*score) as u32);
                    Arc::make_mut(&mut self.scores).push(*score);
                    self.live.grow(self.table.len());
                    self.live.insert(row);
                    touched.entry(row).or_insert(None);
                }
                Event::ScoreUpdated { worker, score } => {
                    self.ensure_live(*worker)?;
                    validate_score(*worker, *score)?;
                    self.record_before(&mut touched, *worker)?;
                    Arc::make_mut(&mut self.scores)[*worker as usize] = *score;
                    Arc::make_mut(&mut self.bin_of)
                        .set(*worker as usize, self.spec.bin_index(*score) as u32);
                }
                Event::AttributeChanged {
                    worker,
                    attribute,
                    value,
                } => {
                    self.ensure_live(*worker)?;
                    let attr = self.table.schema().index_of(attribute)?;
                    self.record_before(&mut touched, *worker)?;
                    let (old, new) =
                        Arc::make_mut(&mut self.table).set_cat(attr, *worker as usize, value)?;
                    if old != new {
                        let name = self.table.schema().attribute(attr).name.clone();
                        Arc::make_mut(&mut self.indexes).set_code(attr, *worker, new, &name)?;
                    }
                }
                Event::WorkerRemoved { worker } => {
                    self.ensure_live(*worker)?;
                    self.record_before(&mut touched, *worker)?;
                    self.live.remove(*worker);
                }
            }
        }
        self.epoch += 1;
        let mut changes = Vec::new();
        for (row, before) in touched {
            let after = if self.live.contains(row) {
                Some(self.facts(row)?)
            } else {
                None
            };
            // Net no-ops: added-and-removed within the epoch, or
            // mutated back to the starting state.
            if before == after {
                continue;
            }
            changes.push(RowChange { row, before, after });
        }
        self.patch_cube(&changes);
        Ok(EpochDelta {
            epoch: self.epoch,
            changes,
        })
    }

    /// Snapshot the view into an audit context over the live rows. The
    /// context projects the maintained cube onto its audited attributes
    /// (O(cells), no row read) and shares the bin array — no rebuild,
    /// no copy.
    ///
    /// # Errors
    ///
    /// [`StreamError::BinMismatch`] when `config.bins` disagrees with
    /// the view's layout; [`AuditError`] for unusable configs.
    pub fn context(&self, config: AuditConfig) -> Result<AuditContext<'_>, StreamError> {
        if config.bins != self.spec.len() {
            return Err(StreamError::BinMismatch {
                view: self.spec.len(),
                config: config.bins,
            });
        }
        AuditContext::from_parts(
            self.table.as_ref(),
            self.scores.as_slice(),
            config,
            Arc::clone(&self.bin_of),
            Some(self.live.to_rowset()),
            Some(&self.cube),
            self.epoch,
        )
        .map_err(StreamError::Audit)
    }

    /// Publish the current state as an immutable, cheaply-cloneable
    /// [`StreamSnapshot`]: `Arc` handles on the table, scores, cube,
    /// indexes and bin array plus a materialised live row set. Concurrent
    /// readers audit the snapshot while this view keeps mutating — the
    /// writer's next in-place change copies the shared structure, never
    /// the snapshot's.
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot::from_parts(
            Arc::clone(&self.table),
            Arc::clone(&self.scores),
            self.live.to_rowset(),
            Arc::clone(&self.indexes),
            Arc::clone(&self.cube),
            Arc::clone(&self.bin_of),
            self.spec.clone(),
            self.epoch,
        )
    }

    /// Materialise the live population as a fresh, compacted table (row
    /// ids renumbered to `0..live_count`) with aligned scores — what a
    /// cold batch audit of the current state would load.
    ///
    /// # Errors
    ///
    /// [`StreamError::Corrupt`] when the live bitmap references a row
    /// the table does not have (cannot occur for rows the view itself
    /// maintains); [`StreamError::Store`] from re-ingesting rows.
    pub fn compact(&self) -> Result<(Table, Vec<f64>), StreamError> {
        self.snapshot().compact()
    }

    /// The row's current facts, as predicates and histograms see it.
    ///
    /// # Errors
    ///
    /// [`StreamError::Corrupt`] for a row id beyond the table (a
    /// corrupted live bitmap); [`StreamError::Store`] from the column
    /// accessors.
    fn facts(&self, row: u32) -> Result<RowFacts, StreamError> {
        if row as usize >= self.table.len() || row as usize >= self.bin_of.len() {
            return Err(StreamError::Corrupt {
                row,
                rows: self.table.len().min(self.bin_of.len()),
            });
        }
        let mut codes = Vec::with_capacity(self.table.schema().width());
        for (attr, def) in self.table.schema().attributes().iter().enumerate() {
            codes.push(match def.dtype {
                DataType::Categorical { .. } => self.table.code_at(attr, row as usize)?,
                // Predicates never constrain non-categorical attributes;
                // a sentinel no real dictionary code reaches.
                _ => u32::MAX,
            });
        }
        Ok(RowFacts {
            codes,
            bin: self.bin_of.get(row as usize),
        })
    }

    /// Patch the cube with an epoch's net changes: each changed row
    /// leaves the cell and bin it started the epoch in and joins the
    /// ones it ends in.
    fn patch_cube(&mut self, changes: &[RowChange]) {
        if changes.is_empty() {
            return; // keeps a published snapshot's cube shared
        }
        let cube = Arc::make_mut(&mut self.cube);
        let attrs = cube.attributes().to_vec();
        let codes =
            |facts: &RowFacts| -> Vec<u32> { attrs.iter().map(|&a| facts.codes[a]).collect() };
        cube.grow(self.table.len());
        for change in changes {
            let before = change.before.as_ref().map(|f| (codes(f), f.bin));
            let after = change.after.as_ref().map(|f| (codes(f), f.bin));
            cube.patch(
                change.row,
                before.as_ref().map(|(c, bin)| (c.as_slice(), *bin)),
                after.as_ref().map(|(c, bin)| (c.as_slice(), *bin)),
            );
        }
    }

    fn record_before(
        &self,
        touched: &mut BTreeMap<u32, Option<RowFacts>>,
        row: u32,
    ) -> Result<(), StreamError> {
        if let std::collections::btree_map::Entry::Vacant(entry) = touched.entry(row) {
            entry.insert(Some(self.facts(row)?));
        }
        Ok(())
    }

    fn ensure_live(&self, worker: u32) -> Result<(), StreamError> {
        if self.live.contains(worker) {
            Ok(())
        } else {
            Err(StreamError::UnknownWorker { worker })
        }
    }
}

fn validate_score(worker: u32, score: f64) -> Result<(), StreamError> {
    if score.is_finite() && (0.0..=1.0).contains(&score) {
        Ok(())
    } else {
        Err(StreamError::BadScore {
            worker,
            value: score,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairjob_marketplace::stream::{generate_stream, StreamConfig};
    use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
    use fairjob_store::index::IndexSet;

    fn view(workers: usize, seed: u64) -> StreamView {
        let scenario = generate_stream(&StreamConfig {
            initial: workers,
            epochs: 0,
            events_per_epoch: 0,
            seed,
            alpha: 0.5,
        });
        StreamView::new(scenario.initial, scenario.scores, 10).unwrap()
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut t = generate_uniform(5, 1);
        bucketise_numeric_protected(&mut t).unwrap();
        assert!(matches!(
            StreamView::new(t.clone(), vec![0.5; 4], 10),
            Err(StreamError::Audit(AuditError::ScoreLength { .. }))
        ));
        assert!(matches!(
            StreamView::new(t.clone(), vec![0.5, 0.5, 1.5, 0.5, 0.5], 10),
            Err(StreamError::BadScore { worker: 2, .. })
        ));
        assert!(matches!(
            StreamView::new(t, vec![0.5; 5], 0),
            Err(StreamError::Audit(AuditError::Bins(_)))
        ));
    }

    #[test]
    fn score_update_moves_bin_and_reports_change() {
        let mut v = view(8, 3);
        let before_bin = v.bin_of.get(0);
        let delta = v
            .apply_epoch(&[Event::ScoreUpdated {
                worker: 0,
                score: 0.999,
            }])
            .unwrap();
        assert_eq!(v.epoch(), 1);
        assert_eq!(delta.epoch, 1);
        assert_eq!(v.scores()[0], 0.999);
        assert_eq!(v.bin_of.get(0), 9);
        assert_eq!(delta.changes.len(), 1);
        let c = &delta.changes[0];
        assert_eq!(c.row, 0);
        assert_eq!(c.before.as_ref().unwrap().bin, before_bin);
        assert_eq!(c.after.as_ref().unwrap().bin, 9);
    }

    #[test]
    fn arrival_extends_everything_in_place() {
        let mut v = view(6, 4);
        let scenario = generate_stream(&StreamConfig {
            initial: 2,
            epochs: 1,
            events_per_epoch: 30,
            seed: 9,
            alpha: 0.5,
        });
        let add = scenario.events.epochs()[0]
            .iter()
            .find(|e| matches!(e, Event::WorkerAdded { .. }))
            .expect("30 events contain an arrival")
            .clone();
        let delta = v.apply_epoch(std::slice::from_ref(&add)).unwrap();
        assert_eq!(v.table().len(), 7);
        assert_eq!(v.live_count(), 7);
        assert!(v.is_live(6));
        assert_eq!(v.scores().len(), 7);
        assert_eq!(v.bin_of.len(), 7);
        assert_eq!(delta.changes.len(), 1);
        assert!(delta.changes[0].before.is_none());
        assert!(delta.changes[0].after.is_some());
        // The maintained indexes match a from-scratch rebuild.
        let rebuilt = IndexSet::build(v.table(), &v.table().schema().splittable()).unwrap();
        for attr in v.table().schema().splittable() {
            let (maintained, fresh) = (v.indexes.get(attr).unwrap(), rebuilt.get(attr).unwrap());
            for code in 0..fresh.cardinality() as u32 {
                assert_eq!(maintained.rows_with_code(code), fresh.rows_with_code(code));
            }
        }
    }

    #[test]
    fn departure_tombstones_and_compaction_drops() {
        let mut v = view(5, 5);
        let delta = v
            .apply_epoch(&[Event::WorkerRemoved { worker: 2 }])
            .unwrap();
        assert_eq!(v.table().len(), 5, "the table never shrinks");
        assert_eq!(v.live_count(), 4);
        assert!(!v.is_live(2));
        assert!(delta.changes[0].after.is_none());
        let (compacted, scores) = v.compact().unwrap();
        assert_eq!(compacted.len(), 4);
        assert_eq!(scores.len(), 4);
        assert_eq!(
            compacted.row(2),
            v.table().row(3),
            "ids shift past the hole"
        );
        // Mutating the dead worker now fails.
        assert!(matches!(
            v.apply_epoch(&[Event::ScoreUpdated {
                worker: 2,
                score: 0.5
            }]),
            Err(StreamError::UnknownWorker { worker: 2 })
        ));
    }

    #[test]
    fn add_then_remove_within_epoch_coalesces_away() {
        let mut v = view(4, 6);
        let scenario = generate_stream(&StreamConfig {
            initial: 2,
            epochs: 1,
            events_per_epoch: 30,
            seed: 10,
            alpha: 0.5,
        });
        let add = scenario.events.epochs()[0]
            .iter()
            .find(|e| matches!(e, Event::WorkerAdded { .. }))
            .unwrap()
            .clone();
        let delta = v
            .apply_epoch(&[add, Event::WorkerRemoved { worker: 4 }])
            .unwrap();
        assert!(delta.changes.is_empty(), "net no-op reports no change");
        assert_eq!(
            v.table().len(),
            5,
            "the tombstoned row still occupies its id"
        );
        assert_eq!(v.live_count(), 4);
    }

    #[test]
    fn mutating_back_to_start_coalesces_away() {
        let mut v = view(4, 7);
        let original = v.scores()[1];
        let delta = v
            .apply_epoch(&[
                Event::ScoreUpdated {
                    worker: 1,
                    score: if original < 0.5 { 0.9 } else { 0.1 },
                },
                Event::ScoreUpdated {
                    worker: 1,
                    score: original,
                },
            ])
            .unwrap();
        assert!(delta.changes.is_empty());
    }

    #[test]
    fn attribute_change_updates_table_and_index() {
        let mut v = view(6, 8);
        let attr = v.table().schema().index_of("gender").unwrap();
        let old = v.table().code_at(attr, 3).unwrap();
        let new_label = if old == 0 { "Female" } else { "Male" };
        let delta = v
            .apply_epoch(&[Event::AttributeChanged {
                worker: 3,
                attribute: "gender".into(),
                value: new_label.into(),
            }])
            .unwrap();
        let new = v.table().code_at(attr, 3).unwrap();
        assert_ne!(old, new);
        assert!(v.indexes.get(attr).unwrap().rows_with_code(new).contains(3));
        assert!(!v.indexes.get(attr).unwrap().rows_with_code(old).contains(3));
        let c = &delta.changes[0];
        assert_eq!(c.before.as_ref().unwrap().codes[attr], old);
        assert_eq!(c.after.as_ref().unwrap().codes[attr], new);
        // Unknown label is rejected.
        assert!(v
            .apply_epoch(&[Event::AttributeChanged {
                worker: 3,
                attribute: "gender".into(),
                value: "Nope".into(),
            }])
            .is_err());
    }

    /// The panic regression: a corrupted live bitmap (row ids beyond
    /// the table) must surface as [`StreamError::Corrupt`] through the
    /// documented `Result` paths — `compact` and the facts collection —
    /// never as a panic. Fatal in a resident daemon, where a panic on a
    /// session thread kills the session (or poisons shared state).
    #[test]
    fn corrupted_live_bitmap_errors_instead_of_panicking() {
        let mut v = view(5, 9);
        v.live.grow(64);
        v.live.insert(50); // no row 50 in the 5-row table
        assert!(matches!(
            v.compact(),
            Err(StreamError::Corrupt { row: 50, rows: 5 })
        ));
        // The facts path (record_before on a "live" ghost row) errors
        // the same way instead of indexing out of bounds.
        assert!(matches!(
            v.apply_epoch(&[Event::ScoreUpdated {
                worker: 50,
                score: 0.5
            }]),
            Err(StreamError::Corrupt { row: 50, .. })
        ));
    }

    #[test]
    fn context_restricts_to_live_rows() {
        let mut v = view(10, 11);
        v.apply_epoch(&[Event::WorkerRemoved { worker: 0 }])
            .unwrap();
        let ctx = v.context(AuditConfig::default()).unwrap();
        assert_eq!(ctx.root().len(), 9);
        assert_eq!(ctx.epoch(), 1);
        assert!(ctx.live_rows().is_some());
        // Bin mismatch is caught.
        assert!(matches!(
            v.context(AuditConfig::with_bins(7)),
            Err(StreamError::BinMismatch {
                view: 10,
                config: 7
            })
        ));
    }
}
