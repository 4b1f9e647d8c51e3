//! Online ingestion and incremental audit maintenance.
//!
//! The paper audits a frozen snapshot of a marketplace; this crate
//! keeps the audit warm while the marketplace mutates. It replays the
//! event log of [`fairjob_marketplace::stream`] one epoch at a time
//! over a [`StreamView`] — an append-only table with a tombstone bitmap
//! for departures, in-place maintenance of the live rows' cell cube
//! (two cells patched per changed row), the dictionary indexes and the
//! bin array, and per-epoch change tracking — and re-audits at every
//! epoch boundary through [`StreamAuditor`], whose contexts project the
//! view's cube instead of reading rows, and which hands the evaluation
//! engine's distance memo across epochs after selectively invalidating
//! only the entries the epoch's changes could have touched
//! ([`fairjob_core::EngineCaches::invalidate`]).
//!
//! The contract, asserted by the `stream_ingest` bench and the replay-
//! parity proptests: a warm incremental re-audit after a small epoch
//! produces a partitioning **bit-identical** to a cold rebuild over the
//! compacted live population, while reading no row into its cube and
//! recomputing a fraction of the distances.

pub mod auditor;
pub mod error;
pub mod snapshot;
pub mod view;

pub use auditor::{EpochReport, StreamAuditor};
pub use error::StreamError;
pub use snapshot::StreamSnapshot;
pub use view::{EpochDelta, StreamView};

use fairjob_core::Partitioning;

/// Are two partitionings the same, structurally? Compares, partition by
/// partition in order: predicate constraints, sizes, and histogram
/// counts **bit for bit**. Row ids are deliberately not compared — a
/// cold rebuild over a compacted table renumbers rows, but predicates,
/// sizes and histograms are representation-independent.
pub fn same_partitioning(a: &Partitioning, b: &Partitioning) -> bool {
    let (pa, pb) = (a.partitions(), b.partitions());
    pa.len() == pb.len()
        && pa.iter().zip(pb).all(|(x, y)| {
            x.predicate.constraints() == y.predicate.constraints()
                && x.rows().len() == y.rows().len()
                && x.histogram.counts().len() == y.histogram.counts().len()
                && x.histogram
                    .counts()
                    .iter()
                    .zip(y.histogram.counts())
                    .all(|(c, d)| c.to_bits() == d.to_bits())
        })
}
