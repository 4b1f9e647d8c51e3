//! Deterministic row-range sharding.
//!
//! The audit context's classify pass slices the table by **fixed row-id
//! ranges** — shard `s` of a [`ShardPlan`] owns the rows whose ids fall
//! in `[bounds[s], bounds[s+1])`. Per-shard results merged in shard
//! order are bit-identical to one serial pass for every shard count and
//! every thread count: columns are written elementwise and counts are
//! merged by integer addition (exact) — no floating-point reassociation
//! happens in any sharded merge.
//!
//! The plan itself is pure layout: dispatching shards onto worker
//! threads is the caller's business (`fairjob-core` runs them on its
//! `WorkerPool`), which keeps this crate dependency-free and the layout
//! testable in isolation.

use std::ops::Range;

/// Row-count granule the auto policy aims at per shard: small enough to
/// expose parallelism on large audits, large enough that per-shard
/// bookkeeping (one count array per code) stays negligible.
pub const AUTO_ROWS_PER_SHARD: usize = 65_536;

/// Upper bound the auto policy puts on the shard count, as a multiple
/// of the advertised parallelism (over-subscription evens out skewed
/// shards without drowning the pool in tiny tasks).
pub const AUTO_OVERSUBSCRIPTION: usize = 4;

/// How a store consumer wants its row-parallel kernels sharded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ShardPolicy {
    /// Pick a shard count from the row count and available parallelism
    /// (the default).
    #[default]
    Auto,
    /// Exactly this many shards (clamped to the row count); `Fixed(1)`
    /// runs every kernel as one serial walk.
    Fixed(usize),
}

impl ShardPolicy {
    /// Resolve the policy into a plan over `n_rows` rows. `parallelism`
    /// is the caller's thread budget (only consulted by
    /// [`ShardPolicy::Auto`]).
    pub fn plan(self, n_rows: usize, parallelism: usize) -> ShardPlan {
        match self {
            ShardPolicy::Fixed(shards) => ShardPlan::new(n_rows, shards),
            ShardPolicy::Auto => {
                let want = n_rows.div_ceil(AUTO_ROWS_PER_SHARD).max(1);
                let cap = parallelism.max(1) * AUTO_OVERSUBSCRIPTION;
                ShardPlan::new(n_rows, want.min(cap))
            }
        }
    }

    /// Parse the CLI / FairQL surface form: `auto` or a positive count.
    pub fn parse(text: &str) -> Option<ShardPolicy> {
        match text {
            "auto" => Some(ShardPolicy::Auto),
            n => n
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .map(ShardPolicy::Fixed),
        }
    }
}

impl std::fmt::Display for ShardPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPolicy::Auto => write!(f, "auto"),
            ShardPolicy::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// Fixed row-range shards over row ids `0..n_rows`.
///
/// Ranges are ceil-division even: the first `n_rows % shards` shards
/// hold one extra row. The layout depends only on `(n_rows, shards)` —
/// never on thread count or data — so every run of the same audit
/// produces the same shard boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n_rows: usize,
    /// `shards + 1` boundaries; shard `s` owns rows `bounds[s]..bounds[s+1]`.
    bounds: Vec<u32>,
}

impl ShardPlan {
    /// Plan `shards` row ranges over `0..n_rows` (clamped to at least 1
    /// shard and at most one shard per row, so no shard is empty unless
    /// the table is).
    pub fn new(n_rows: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, n_rows.max(1));
        let base = n_rows / shards;
        let extra = n_rows % shards;
        let mut bounds = Vec::with_capacity(shards + 1);
        let mut at = 0usize;
        bounds.push(0);
        for s in 0..shards {
            at += base + usize::from(s < extra);
            bounds.push(at as u32);
        }
        debug_assert_eq!(at, n_rows);
        ShardPlan { n_rows, bounds }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total rows the plan covers.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The row-id range owned by shard `s`.
    pub fn range(&self, s: usize) -> Range<usize> {
        self.bounds[s] as usize..self.bounds[s + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_rows_evenly() {
        let plan = ShardPlan::new(10, 3);
        assert_eq!(plan.shards(), 3);
        assert_eq!(plan.range(0), 0..4);
        assert_eq!(plan.range(1), 4..7);
        assert_eq!(plan.range(2), 7..10);
    }

    #[test]
    fn plan_clamps_shard_count() {
        assert_eq!(ShardPlan::new(2, 7).shards(), 2);
        assert_eq!(ShardPlan::new(5, 0).shards(), 1);
        // An empty table still yields one (empty) shard.
        let empty = ShardPlan::new(0, 4);
        assert_eq!(empty.shards(), 1);
        assert_eq!(empty.range(0), 0..0);
    }

    #[test]
    fn policy_resolution() {
        assert_eq!(ShardPolicy::Fixed(1).plan(100, 4).shards(), 1);
        assert_eq!(ShardPolicy::Fixed(3).plan(100, 1).shards(), 3);
        // Auto: one shard per granule, capped by parallelism.
        let auto = ShardPolicy::Auto.plan(AUTO_ROWS_PER_SHARD * 10, 2);
        assert_eq!(auto.shards(), 2 * AUTO_OVERSUBSCRIPTION);
        assert_eq!(ShardPolicy::Auto.plan(100, 8).shards(), 1);
    }

    #[test]
    fn policy_parses_surface_forms() {
        assert_eq!(ShardPolicy::parse("auto"), Some(ShardPolicy::Auto));
        assert_eq!(ShardPolicy::parse("5"), Some(ShardPolicy::Fixed(5)));
        assert_eq!(ShardPolicy::parse("off"), None);
        assert_eq!(ShardPolicy::parse("0"), None);
        assert_eq!(ShardPolicy::parse("nope"), None);
        assert_eq!(ShardPolicy::Auto.to_string(), "auto");
        assert_eq!(ShardPolicy::Fixed(5).to_string(), "5");
    }
}
