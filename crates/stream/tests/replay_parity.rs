//! Replay parity: any event sequence driven through the incremental
//! streaming path must audit **bit-identically** to batch-loading the
//! final state cold — per epoch, for several engine thread counts. This
//! is the correctness contract of selective cache invalidation: a
//! retained memo entry is exactly the distance a recompute would
//! produce, and a patched split entry is exactly the kernel's output.

use fairjob_core::algorithms::{
    balanced::Balanced, by_name, unbalanced::Unbalanced, Algorithm, AttributeChoice,
    ALGORITHM_NAMES,
};
use fairjob_core::{AuditConfig, AuditContext};
use fairjob_marketplace::stream::{generate_stream, StreamConfig};
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
    algorithm: &dyn Algorithm,
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
    let name = algorithm.name();
    auditor.audit(algorithm).unwrap();
    for events in scenario.events.epochs() {
        let warm = auditor.run_epoch(events, algorithm).unwrap();
        let cold = auditor.cold_audit(algorithm).unwrap();
        prop_assert!(
            same_partitioning(&warm.audit.partitioning, &cold.partitioning),
            "{}, epoch {} ({} threads): warm partitioning {:?} != cold {:?}",
            name,
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
            "{}, epoch {} ({} threads): warm unfairness {} != cold {}",
            name,
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
            let algorithm = Balanced::new(AttributeChoice::Worst);
            assert_replay_parity(initial, 4, events_per_epoch, seed, threads, &algorithm);
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
            let algorithm = Unbalanced::new(AttributeChoice::Worst);
            assert_replay_parity(initial, 3, events_per_epoch, seed, threads, &algorithm);
        }
    }

    /// Every algorithm `by_name` knows, the cell searches included,
    /// under the same contract: removed workers leave every partition.
    #[test]
    fn every_algorithm_replays_like_a_cold_batch(
        initial in 40usize..100,
        seed in 0u64..1_000,
        events_per_epoch in 4usize..10,
    ) {
        for name in ALGORITHM_NAMES {
            let algorithm = by_name(name, seed).unwrap();
            assert_replay_parity(initial, 3, events_per_epoch, seed, 2, algorithm.as_ref());
        }
    }

    /// The warm-cache replay path is layout independent: the same event
    /// stream driven through auditors at 1, 2 and 8 threads produces
    /// bit-identical unfairness at every epoch.
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
        let run = |threads: usize| -> Vec<u64> {
            let config = AuditConfig {
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
        let baseline = run(1);
        for threads in [2usize, 8] {
            prop_assert_eq!(
                run(threads),
                baseline.clone(),
                "warm replay diverged at threads={}",
                threads
            );
        }
    }
}

/// The cell searches follow a snapshot's live rows: on a stream state
/// with removed workers, `all-attributes` and `subset-exact` over the
/// snapshot equal a cold audit of the compacted table.
#[test]
fn cell_searches_on_a_snapshot_with_removed_workers_match_a_cold_audit() {
    let scenario = generate_stream(&StreamConfig {
        initial: 120,
        epochs: 3,
        events_per_epoch: 20,
        seed: 11,
        alpha: 0.5,
    });
    let mut view = StreamView::new(scenario.initial, scenario.scores, 10).unwrap();
    for events in scenario.events.epochs() {
        view.apply_epoch(events).unwrap();
    }
    let snapshot = view.snapshot();
    assert!(
        snapshot.live_count() < snapshot.table().len(),
        "the scenario must remove workers"
    );
    let (table, scores) = snapshot.compact().unwrap();
    for name in ["all-attributes", "subset-exact"] {
        let algorithm = by_name(name, 0).unwrap();
        let ctx = snapshot.context(AuditConfig::default()).unwrap();
        let warm = algorithm.run(&ctx).unwrap();
        let ctx = AuditContext::new(&table, &scores, AuditConfig::default()).unwrap();
        let cold = algorithm.run(&ctx).unwrap();
        assert!(
            same_partitioning(&warm.partitioning, &cold.partitioning),
            "{name}: {} partitions != cold {}",
            warm.partitioning.len(),
            cold.partitioning.len()
        );
        assert_eq!(
            warm.unfairness.to_bits(),
            cold.unfairness.to_bits(),
            "{name}"
        );
    }
}
