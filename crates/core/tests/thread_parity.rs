//! Thread-count parity: an audit's result — unfairness bits,
//! partitioning shape, and every layout-independent engine counter —
//! must not depend on the thread count. The per-row passes (row ranges
//! merged in range order) and the engine's pooled paths are defined to
//! be bit-identical to one serial walk; this suite holds them to it at
//! 1, 2 and 8 threads, against the one-thread baseline.

mod common;

use common::{population, run_mem as run};
use fairjob_core::EngineStats;
use proptest::prelude::*;

/// The counters defined to be independent of the thread count: every
/// `EngineStats` counter except `shard_tasks`, which counts one
/// classify task per row range.
fn layout_independent(stats: &EngineStats) -> Vec<(&'static str, u64)> {
    stats
        .as_pairs()
        .into_iter()
        .filter(|(name, _)| *name != "shard_tasks")
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every thread count reproduces the one-thread baseline bit for
    /// bit, counters included.
    #[test]
    fn audits_are_bit_identical_across_thread_counts(
        size in 80usize..260,
        seed in 0u64..1_000,
    ) {
        let balanced = seed % 2 == 0;
        let (workers, scores) = population(size, seed, !balanced);
        let baseline = run(&workers, &scores, 1, balanced);
        for threads in [1usize, 2, 8] {
            let got = run(&workers, &scores, threads, balanced);
            prop_assert_eq!(
                got.unfairness.to_bits(),
                baseline.unfairness.to_bits(),
                "threads={}: {} vs baseline {}",
                threads, got.unfairness, baseline.unfairness
            );
            prop_assert_eq!(got.partitioning.len(), baseline.partitioning.len());
            prop_assert_eq!(
                layout_independent(&got.engine),
                layout_independent(&baseline.engine),
                "layout-independent counters diverged at threads={}",
                threads
            );
        }
    }
}
