//! Per-worker solve workspaces for the exact EMD path.
//!
//! [`SolveScratch`] owns every buffer the exact solve needs: the
//! support-compaction index (`srcs`/`dsts` plus compacted
//! supplies/demands), the flat row-major compacted cost view, the
//! transport kernel with its Dijkstra scratch and cached round-1
//! Dijkstra for warm starts, and a scratch-local tier of the
//! process-wide [`GroundCache`]. A worker that keeps one scratch for its
//! lifetime solves an arbitrary stream of same-sized instances without
//! touching the allocator.
//!
//! # Warm starts and determinism
//!
//! Within a batch chunk, consecutive pairs that share a support set (and
//! therefore a compacted cost matrix) replay the previous solve's
//! round-1 Dijkstra instead of recomputing it; the kernel's module
//! documentation says why the replay is bit-identical to a cold solve
//! while seeding *final* duals would not be. Callers that need
//! counters independent of thread count call [`SolveScratch::begin_chunk`]
//! at deterministic chunk boundaries: it invalidates the warm state and
//! zeroes the per-chunk [`ScratchStats`], making both pure functions of
//! the chunk's contents.

use crate::bipartite::BipartiteFlow;
use crate::ground::{GroundCache, GroundMatrix};
use crate::EmdError;

/// Counters a scratch accumulates between [`SolveScratch::take_stats`]
/// calls. All deterministic per chunk once `begin_chunk` bounds them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Solves whose ground matrix was served from the scratch-local slot
    /// or the process-wide [`GroundCache`] (builds do not count).
    pub ground_cache_hits: u64,
    /// Solves beyond the first since the last `begin_chunk` — each one
    /// reused the workspace instead of allocating a fresh solver.
    pub scratch_reuses: u64,
    /// Solves that replayed the previous pair's round-1 Dijkstra.
    pub warm_starts: u64,
}

impl ScratchStats {
    /// Accumulate `other` into `self`.
    pub fn merge(&mut self, other: ScratchStats) {
        self.ground_cache_hits += other.ground_cache_hits;
        self.scratch_reuses += other.scratch_reuses;
        self.warm_starts += other.warm_starts;
    }
}

/// A reusable workspace owning every buffer the exact solve needs.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    /// The transport kernel, including its cached round-1 Dijkstra.
    pub(crate) bip: BipartiteFlow,
    /// Support-compaction index: original bin indices of non-empty bins.
    pub(crate) srcs: Vec<usize>,
    pub(crate) dsts: Vec<usize>,
    /// Compacted masses (parallel to `srcs`/`dsts`).
    pub(crate) supplies: Vec<f64>,
    pub(crate) demands: Vec<f64>,
    /// Flat row-major compacted cost view, `srcs.len() * dsts.len()`.
    pub(crate) costs: Vec<f64>,
    /// Previous pair's supports and costs — the warm-start comparands.
    pub(crate) prev_srcs: Vec<usize>,
    pub(crate) prev_dsts: Vec<usize>,
    pub(crate) prev_costs: Vec<f64>,
    /// Whether `prev_*` + the kernel's round-1 cache describe the last
    /// solve.
    pub(crate) warm_valid: bool,
    /// Whether any solve ran since the last `begin_chunk`.
    pub(crate) used: bool,
    /// Signature of the scratch-local ground matrix.
    ground_sig: Vec<u64>,
    sig_tmp: Vec<u64>,
    ground: Option<GroundMatrix>,
    pub(crate) stats: ScratchStats,
}

impl SolveScratch {
    /// A fresh, empty workspace. Buffers grow to the working-set size on
    /// first use and are retained afterwards.
    pub fn new() -> Self {
        SolveScratch::default()
    }

    /// Mark a deterministic batch-chunk boundary: invalidate the warm
    /// state and zero the per-chunk counters, so both depend only on the
    /// chunk's contents — never on which worker thread ran it.
    pub fn begin_chunk(&mut self) {
        self.warm_valid = false;
        self.used = false;
        self.stats = ScratchStats::default();
    }

    /// Record one solve: every solve after the first since `begin_chunk`
    /// reused the workspace rather than allocating a fresh solver.
    pub(crate) fn note_use(&mut self) {
        if self.used {
            self.stats.scratch_reuses += 1;
        }
        self.used = true;
    }

    /// Counters accumulated since the last `begin_chunk`/`take_stats`.
    pub fn stats(&self) -> ScratchStats {
        self.stats
    }

    /// Return the accumulated counters and zero them.
    pub fn take_stats(&mut self) -> ScratchStats {
        std::mem::take(&mut self.stats)
    }

    /// Resolve a ground matrix through the two cache tiers: the
    /// scratch-local slot (no locking, hit when the signature matches
    /// the last grid this scratch solved on) and the process-wide
    /// [`GroundCache`]. `fill_sig` writes the grid's exact fingerprint
    /// into a reused buffer; `build` materialises (and validates) the
    /// matrix on a process-wide first encounter.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn ground_for(
        &mut self,
        fill_sig: impl FnOnce(&mut Vec<u64>),
        build: impl FnOnce() -> Result<GroundMatrix, EmdError>,
    ) -> Result<GroundMatrix, EmdError> {
        self.sig_tmp.clear();
        fill_sig(&mut self.sig_tmp);
        if let Some(g) = &self.ground {
            if self.sig_tmp == self.ground_sig {
                self.stats.ground_cache_hits += 1;
                return Ok(g.clone());
            }
        }
        let (matrix, was_hit) = GroundCache::global().get_or_build(&self.sig_tmp, build)?;
        if was_hit {
            self.stats.ground_cache_hits += 1;
        }
        std::mem::swap(&mut self.ground_sig, &mut self.sig_tmp);
        self.ground = Some(matrix.clone());
        Ok(matrix)
    }

    /// Total element capacity of every buffer this scratch owns — the
    /// steady-state allocation probe. Two snapshots around a run of
    /// same-sized solves must be equal, or the zero-allocation contract
    /// is broken.
    pub fn footprint(&self) -> usize {
        self.bip.footprint()
            + self.srcs.capacity()
            + self.dsts.capacity()
            + self.supplies.capacity()
            + self.demands.capacity()
            + self.costs.capacity()
            + self.prev_srcs.capacity()
            + self.prev_dsts.capacity()
            + self.prev_costs.capacity()
            + self.ground_sig.capacity()
            + self.sig_tmp.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::{GridL1, GroundDistance};

    #[test]
    fn ground_for_serves_local_then_global() {
        let mut scratch = SolveScratch::new();
        // Unique signature so other tests sharing the global cache can't
        // interfere with the build/hit accounting below.
        let sig = [0xA12E_u64, 0x51, 1];
        let build = || GroundMatrix::build(&GridL1::new(0.0, 1.0, 6).unwrap());
        let first = scratch
            .ground_for(|s| s.extend_from_slice(&sig), build)
            .unwrap();
        // First encounter in the process: a build, not a hit.
        assert_eq!(scratch.stats().ground_cache_hits, 0);
        let second = scratch
            .ground_for(|s| s.extend_from_slice(&sig), build)
            .unwrap();
        assert_eq!(scratch.stats().ground_cache_hits, 1);
        assert_eq!(first.flat(), second.flat());
        // A second scratch gets the same matrix from the global tier.
        let mut other = SolveScratch::new();
        let third = other
            .ground_for(|s| s.extend_from_slice(&sig), build)
            .unwrap();
        assert_eq!(other.stats().ground_cache_hits, 1);
        assert_eq!(first.flat(), third.flat());
        assert_eq!(third.size(), 6);
    }

    #[test]
    fn begin_chunk_resets_counters_and_warm_state() {
        let mut scratch = SolveScratch::new();
        scratch.stats.ground_cache_hits = 3;
        scratch.warm_valid = true;
        scratch.used = true;
        scratch.begin_chunk();
        assert_eq!(scratch.stats(), ScratchStats::default());
        assert!(!scratch.warm_valid);
        assert!(!scratch.used);
    }

    #[test]
    fn take_stats_drains() {
        let mut scratch = SolveScratch::new();
        scratch.stats.warm_starts = 2;
        let taken = scratch.take_stats();
        assert_eq!(taken.warm_starts, 2);
        assert_eq!(scratch.stats(), ScratchStats::default());
        let mut acc = ScratchStats::default();
        acc.merge(taken);
        acc.merge(taken);
        assert_eq!(acc.warm_starts, 4);
    }
}
