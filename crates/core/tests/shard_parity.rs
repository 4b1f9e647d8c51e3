//! Shard-layout parity: an audit's result — unfairness bits,
//! partitioning shape, and every layout-independent engine counter —
//! must not depend on the shard policy or the thread count. The sharded
//! kernels (per-shard split/classify merged in serial shard order) are
//! defined to be bit-identical to one serial walk; this suite holds
//! them to it across shard counts {1, 2, 3, 7, auto} × thread counts
//! {1, 2, 8}, against the one-shard, one-thread baseline.

mod common;

use common::{population, run_mem as run};
use fairjob_core::EngineStats;
use fairjob_store::ShardPolicy;
use proptest::prelude::*;

/// The counters defined to be independent of the shard layout: every
/// `EngineStats` counter except the two shard-work meters.
fn layout_independent(stats: &EngineStats) -> Vec<(&'static str, u64)> {
    stats
        .as_pairs()
        .into_iter()
        .filter(|(name, _)| *name != "shard_tasks" && *name != "rows_classified_parallel")
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every shard policy × thread count reproduces the one-shard,
    /// single-thread baseline bit for bit, counters included.
    #[test]
    fn audits_are_bit_identical_across_shard_layouts(
        size in 80usize..260,
        seed in 0u64..1_000,
    ) {
        let balanced = seed % 2 == 0;
        let (workers, scores) = population(size, seed, !balanced);
        let baseline = run(&workers, &scores, ShardPolicy::Fixed(1), 1, balanced);
        let policies = [
            ShardPolicy::Fixed(1),
            ShardPolicy::Fixed(2),
            ShardPolicy::Fixed(3),
            ShardPolicy::Fixed(7),
            ShardPolicy::Auto,
        ];
        // `rows_classified_parallel` must agree across every layout (it
        // meters rows, not shards); collect to cross-check.
        let mut rows_metered: Vec<u64> = vec![baseline.engine.rows_classified_parallel];
        for shards in policies {
            for threads in [1usize, 2, 8] {
                let got = run(&workers, &scores, shards, threads, balanced);
                prop_assert_eq!(
                    got.unfairness.to_bits(),
                    baseline.unfairness.to_bits(),
                    "shards={} threads={}: {} vs baseline {}",
                    shards, threads, got.unfairness, baseline.unfairness
                );
                prop_assert_eq!(got.partitioning.len(), baseline.partitioning.len());
                prop_assert_eq!(
                    layout_independent(&got.engine),
                    layout_independent(&baseline.engine),
                    "layout-independent counters diverged at shards={} threads={}",
                    shards, threads
                );
                prop_assert!(
                    got.engine.rows_classified_parallel > 0,
                    "sharded run metered no rows (shards={shards})"
                );
                rows_metered.push(got.engine.rows_classified_parallel);
            }
        }
        prop_assert!(
            rows_metered.iter().all(|&r| r == rows_metered[0]),
            "rows_classified_parallel is layout-dependent: {rows_metered:?}"
        );
    }

    /// `shard_tasks` is layout-dependent by definition but must be
    /// thread-count independent: the same shard count dispatches the
    /// same kernels no matter how many workers execute them.
    #[test]
    fn shard_tasks_do_not_depend_on_thread_count(
        size in 80usize..200,
        seed in 0u64..1_000,
    ) {
        let (workers, scores) = population(size, seed, false);
        for shards in [ShardPolicy::Fixed(2), ShardPolicy::Fixed(7)] {
            let reference = run(&workers, &scores, shards, 1, true);
            prop_assert!(reference.engine.shard_tasks > 0);
            for threads in [2usize, 8] {
                let got = run(&workers, &scores, shards, threads, true);
                prop_assert_eq!(
                    got.engine.shard_tasks,
                    reference.engine.shard_tasks,
                    "shards={} threads={}", shards, threads
                );
                prop_assert_eq!(
                    got.engine.rows_classified_parallel,
                    reference.engine.rows_classified_parallel
                );
            }
        }
    }
}
