//! Stream-ingestion bench: replay a marketplace event stream (arrivals,
//! departures, score updates, profile edits) over a few-thousand-worker
//! population, re-auditing after every epoch two ways — incrementally
//! through [`StreamAuditor`] with warm engine caches and selective
//! invalidation, and cold by rebuilding the live population from
//! scratch.
//!
//! Beyond timing, this bench *asserts* the incremental path's contract
//! with real counters (row scans and EMD computations, not wall-clock),
//! after each small epoch (≤1% of rows mutated), with a bit-identical
//! partitioning and unfairness value:
//!
//! * under the default `emd` the warm audit scans at least 5× fewer
//!   rows than the cold rebuild (`rows_scanned`: rows read into the
//!   cell cube — the cold context reads every live row, while the view
//!   patches its cube as events apply and the warm context projects it,
//!   reading none), and keeps no distance memo (`emd` sums its full
//!   evaluations directly);
//! * under `PairwiseEmd`, `Emd1d` without its L1 form (the same
//!   distances, so the same splits), which memoizes full evaluations,
//!   the warm audit computes at least 5× fewer distances than the cold
//!   rebuild.
//!
//! The workload (size, seed) is deterministic and chosen so no epoch
//! flips a greedy split decision: when an epoch *does* change which
//! split the search commits, the affected subtree legitimately
//! recomputes (cold does the same work), so the distance ratio for that
//! one epoch can drop below 5× even though parity always holds.

use criterion::{criterion_group, criterion_main, Criterion};
use fairjob_bench::PairwiseEmd;
use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::{AuditConfig, AuditResult};
use fairjob_marketplace::stream::{generate_stream, StreamConfig, StreamScenario};
use fairjob_stream::{same_partitioning, EpochReport, StreamAuditor, StreamView};
use std::hint::black_box;
use std::sync::Arc;

/// Workers in the contract workload; epochs mutate at most
/// `EVENTS_PER_EPOCH` rows each, well under 1%.
const CONTRACT_WORKERS: usize = 2500;
const CONTRACT_EPOCHS: usize = 6;
const EVENTS_PER_EPOCH: usize = 12;
/// Seed picked so every epoch of the contract workload keeps the greedy
/// split structure stable (see module docs).
const CONTRACT_SEED: u64 = 1;

fn scenario(workers: usize, epochs: usize, events: usize, seed: u64) -> StreamScenario {
    generate_stream(&StreamConfig {
        initial: workers,
        epochs,
        events_per_epoch: events,
        seed,
        alpha: 0.5,
    })
}

fn auditor(scenario: &StreamScenario, config: AuditConfig) -> StreamAuditor {
    let view = StreamView::new(
        scenario.initial.clone(),
        scenario.scores.clone(),
        config.bins,
    )
    .expect("stream view");
    StreamAuditor::new(view, config).expect("stream auditor")
}

/// Replay `scenario` under `config`, checking every epoch's warm audit
/// against a cold rebuild: a small epoch, the same partitioning and
/// unfairness bits, then `check(warm, cold)`.
fn replay_checked(
    scenario: &StreamScenario,
    config: AuditConfig,
    mut check: impl FnMut(&EpochReport, &AuditResult),
) {
    let algorithm = Balanced::new(AttributeChoice::Worst);
    let mut auditor = auditor(scenario, config);
    auditor.audit(&algorithm).expect("initial audit");
    for events in scenario.events.epochs() {
        let warm = auditor.run_epoch(events, &algorithm).expect("warm epoch");
        let cold = auditor.cold_audit(&algorithm).expect("cold rebuild");
        let changed = warm.changes;
        assert!(
            changed * 100 <= auditor.view().live_count(),
            "epoch {} mutated {} rows — not a small epoch",
            warm.epoch,
            changed
        );
        assert!(
            same_partitioning(&warm.audit.partitioning, &cold.partitioning),
            "epoch {}: warm and cold partitionings diverge",
            warm.epoch
        );
        assert_eq!(
            warm.audit.unfairness.to_bits(),
            cold.unfairness.to_bits(),
            "epoch {}: unfairness diverged: warm {} vs cold {}",
            warm.epoch,
            warm.audit.unfairness,
            cold.unfairness
        );
        check(&warm, &cold);
    }
}

/// The counter/parity contract, asserted once with a real workload
/// before any timing runs.
fn assert_stream_contract() {
    let scenario = scenario(
        CONTRACT_WORKERS,
        CONTRACT_EPOCHS,
        EVENTS_PER_EPOCH,
        CONTRACT_SEED,
    );
    let (mut warm_rows, mut cold_rows) = (0u64, 0u64);
    replay_checked(&scenario, AuditConfig::default(), |warm, cold| {
        assert!(
            warm.audit.engine.rows_scanned.saturating_mul(5) <= cold.engine.rows_scanned,
            "epoch {}: incremental must scan >= 5x fewer rows: warm {} vs cold {}",
            warm.epoch,
            warm.audit.engine.rows_scanned,
            cold.engine.rows_scanned
        );
        assert_eq!(
            (
                warm.invalidation.distances_retained,
                warm.audit.engine.cache_hits
            ),
            (0, 0),
            "epoch {}: emd kept a distance memo",
            warm.epoch
        );
        warm_rows += warm.audit.engine.rows_scanned;
        cold_rows += cold.engine.rows_scanned;
    });
    let (mut warm_dists, mut cold_dists) = (0u64, 0u64);
    let pairwise = AuditConfig::with_distance(Arc::new(PairwiseEmd));
    replay_checked(&scenario, pairwise, |warm, cold| {
        assert!(
            warm.audit.engine.distances_computed.saturating_mul(5)
                <= cold.engine.distances_computed,
            "epoch {}: incremental must compute >= 5x fewer EMDs: warm {} vs cold {}",
            warm.epoch,
            warm.audit.engine.distances_computed,
            cold.engine.distances_computed
        );
        warm_dists += warm.audit.engine.distances_computed;
        cold_dists += cold.engine.distances_computed;
    });
    println!(
        "stream contract: {CONTRACT_WORKERS} workers, {CONTRACT_EPOCHS} epochs x \
         {EVENTS_PER_EPOCH} events; rows (emd): cold {cold_rows}, incremental {warm_rows} \
         ({}x fewer); EMDs (emd-pairwise): cold {cold_dists}, incremental {warm_dists} \
         ({}x fewer)",
        cold_rows / warm_rows.max(1),
        cold_dists / warm_dists.max(1),
    );
}

/// Replay every epoch incrementally (one warm-up audit, then warm
/// per-epoch audits); returns the final unfairness.
fn incremental_replay(scenario: &StreamScenario, algorithm: &dyn Algorithm) -> f64 {
    let mut auditor = auditor(scenario, AuditConfig::default());
    let mut report = auditor.audit(algorithm).expect("initial audit");
    for events in scenario.events.epochs() {
        report = auditor.run_epoch(events, algorithm).expect("warm epoch");
    }
    report.audit.unfairness
}

/// Replay every epoch with a from-scratch rebuild after each — the
/// maintenance strategy the incremental path replaces.
fn cold_replay(scenario: &StreamScenario, algorithm: &dyn Algorithm) -> f64 {
    let config = AuditConfig::default();
    let mut view = StreamView::new(
        scenario.initial.clone(),
        scenario.scores.clone(),
        config.bins,
    )
    .expect("stream view");
    let run_cold = |view: &StreamView| {
        let (table, scores) = view.compact().expect("compact");
        let ctx = fairjob_core::AuditContext::new(&table, &scores, config.clone()).expect("ctx");
        algorithm.run(&ctx).expect("cold audit").unfairness
    };
    let mut unfairness = run_cold(&view);
    for events in scenario.events.epochs() {
        view.apply_epoch(events).expect("apply epoch");
        unfairness = run_cold(&view);
    }
    unfairness
}

fn bench_stream_ingest(c: &mut Criterion) {
    assert_stream_contract();

    let timing = scenario(1200, 4, 8, 0xEDB7_2019);
    let algorithm = Balanced::new(AttributeChoice::Worst);
    let mut group = c.benchmark_group("stream_ingest");
    group.sample_size(10);
    group.bench_function("cold_rebuild_per_epoch", |b| {
        b.iter(|| black_box(cold_replay(&timing, &algorithm)))
    });
    group.bench_function("incremental_per_epoch", |b| {
        b.iter(|| black_box(incremental_replay(&timing, &algorithm)))
    });
    group.finish();
}

criterion_group!(benches, bench_stream_ingest);
criterion_main!(benches);
