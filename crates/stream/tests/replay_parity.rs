//! Replay parity: any event sequence driven through the incremental
//! streaming path must audit **bit-identically** to batch-loading the
//! final state cold — per epoch, for several engine thread counts. This
//! is the correctness contract of selective cache invalidation: a
//! retained memo entry is exactly the distance a recompute would
//! produce, and a patched split entry is exactly the kernel's output.

use fairjob_core::algorithms::{balanced::Balanced, unbalanced::Unbalanced, AttributeChoice};
use fairjob_core::AuditConfig;
use fairjob_marketplace::stream::{generate_stream, StreamConfig};
use fairjob_store::ShardPolicy;
use fairjob_stream::{same_partitioning, StreamAuditor, StreamView};
use proptest::prelude::*;

/// Replay `scenario` epochs through a warm auditor with `threads`
/// worker threads, asserting warm == cold at every epoch boundary.
fn assert_replay_parity(
    initial: usize,
    epochs: usize,
    events_per_epoch: usize,
    seed: u64,
    threads: usize,
    balanced: bool,
) {
    let scenario = generate_stream(&StreamConfig {
        initial,
        epochs,
        events_per_epoch,
        seed,
        alpha: 0.5,
    });
    let config = AuditConfig {
        threads: Some(threads),
        ..AuditConfig::default()
    };
    let view = StreamView::new(scenario.initial, scenario.scores, config.bins).unwrap();
    let mut auditor = StreamAuditor::new(view, config).unwrap();
    let balanced_algo = Balanced::new(AttributeChoice::Worst);
    let unbalanced_algo = Unbalanced::new(AttributeChoice::Worst);
    let algorithm: &dyn fairjob_core::algorithms::Algorithm = if balanced {
        &balanced_algo
    } else {
        &unbalanced_algo
    };
    auditor.audit(algorithm).unwrap();
    for events in scenario.events.epochs() {
        let warm = auditor.run_epoch(events, algorithm).unwrap();
        let cold = auditor.cold_audit(algorithm).unwrap();
        prop_assert!(
            same_partitioning(&warm.audit.partitioning, &cold.partitioning),
            "epoch {} ({} threads): warm partitioning {:?} != cold {:?}",
            warm.epoch,
            threads,
            warm.audit
                .partitioning
                .partitions()
                .iter()
                .map(|p| p.len())
                .collect::<Vec<_>>(),
            cold.partitioning
                .partitions()
                .iter()
                .map(|p| p.len())
                .collect::<Vec<_>>()
        );
        prop_assert_eq!(
            warm.audit.unfairness.to_bits(),
            cold.unfairness.to_bits(),
            "epoch {} ({} threads): warm unfairness {} != cold {}",
            warm.epoch,
            threads,
            warm.audit.unfairness,
            cold.unfairness
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Balanced search: warm replay == cold rebuild at every epoch, for
    /// serial and parallel engines.
    #[test]
    fn balanced_replay_matches_cold_batch(
        initial in 40usize..140,
        seed in 0u64..1_000,
        events_per_epoch in 3usize..12,
    ) {
        for threads in [1usize, 2, 3] {
            assert_replay_parity(initial, 4, events_per_epoch, seed, threads, true);
        }
    }

    /// Unbalanced search (different split pattern, per-partition
    /// stopping rule) under the same contract.
    #[test]
    fn unbalanced_replay_matches_cold_batch(
        initial in 40usize..120,
        seed in 0u64..1_000,
        events_per_epoch in 3usize..10,
    ) {
        for threads in [1usize, 3] {
            assert_replay_parity(initial, 3, events_per_epoch, seed, threads, false);
        }
    }

    /// The warm-cache replay path is shard-layout independent: the same
    /// event stream driven through auditors configured with fixed shard
    /// counts and `auto` produces bit-identical unfairness at every
    /// epoch, across thread counts.
    #[test]
    fn warm_replay_is_bit_identical_across_shard_layouts(
        initial in 40usize..120,
        seed in 0u64..1_000,
        events_per_epoch in 3usize..10,
    ) {
        let scenario = generate_stream(&StreamConfig {
            initial,
            epochs: 3,
            events_per_epoch,
            seed,
            alpha: 0.5,
        });
        let algorithm = Balanced::new(AttributeChoice::Worst);
        let run = |shards: ShardPolicy, threads: usize| -> Vec<u64> {
            let config = AuditConfig {
                shards,
                threads: Some(threads),
                ..AuditConfig::default()
            };
            let view = StreamView::new(
                scenario.initial.clone(),
                scenario.scores.clone(),
                config.bins,
            )
            .unwrap();
            let mut auditor = StreamAuditor::new(view, config).unwrap();
            let mut bits = vec![auditor.audit(&algorithm).unwrap().audit.unfairness.to_bits()];
            for events in scenario.events.epochs() {
                bits.push(auditor.run_epoch(events, &algorithm).unwrap().audit.unfairness.to_bits());
            }
            bits
        };
        let baseline = run(ShardPolicy::Fixed(1), 1);
        for shards in [ShardPolicy::Fixed(2), ShardPolicy::Fixed(7), ShardPolicy::Auto] {
            for threads in [1usize, 2, 8] {
                prop_assert_eq!(
                    run(shards, threads),
                    baseline.clone(),
                    "warm replay diverged at shards={} threads={}",
                    shards,
                    threads
                );
            }
        }
    }
}
