//! End-to-end integration tests: the full generate → score → audit →
//! repair pipeline across crates.

use fairjob::core::algorithms::{
    all_attributes::AllAttributes, balanced::Balanced, beam::Beam, unbalanced::Unbalanced,
    Algorithm, AttributeChoice,
};
use fairjob::core::{AuditConfig, AuditContext};
use fairjob::marketplace::scoring::{LinearScore, RuleBasedScore, ScoringFunction};
use fairjob::marketplace::{bucketise_numeric_protected, generate_uniform};
use fairjob::repair::{repair_scores, RepairConfig, RepairTarget};
use fairjob::store::{Predicate, RowSet};

fn population(n: usize, seed: u64) -> fairjob::store::Table {
    let mut workers = generate_uniform(n, seed);
    bucketise_numeric_protected(&mut workers).unwrap();
    workers
}

#[test]
fn every_algorithm_produces_a_valid_cover() {
    let workers = population(400, 1);
    let scores = LinearScore::alpha("f1", 0.5).score_all(&workers).unwrap();
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
    let algorithms: Vec<Box<dyn Algorithm>> = vec![
        Box::new(Balanced::new(AttributeChoice::Worst)),
        Box::new(Balanced::new(AttributeChoice::Random { seed: 2 })),
        Box::new(Unbalanced::new(AttributeChoice::Worst)),
        Box::new(Unbalanced::new(AttributeChoice::Random { seed: 3 })),
        Box::new(Unbalanced::new(AttributeChoice::Worst).with_cross_stopping()),
        Box::new(Unbalanced::new(AttributeChoice::Worst).with_ancestor_siblings()),
        Box::new(AllAttributes),
        Box::new(Beam::new(2)),
    ];
    for algo in algorithms {
        let result = algo.run(&ctx).unwrap();
        result
            .partitioning
            .validate(workers.len())
            .unwrap_or_else(|e| panic!("{}: {e}", result.algorithm));
        // Reported unfairness is recomputable from the partitioning.
        let recomputed = ctx.unfairness(result.partitioning.partitions()).unwrap();
        assert!(
            (recomputed - result.unfairness).abs() < 1e-9,
            "{}: reported {} vs recomputed {recomputed}",
            result.algorithm,
            result.unfairness
        );
        assert!(result.unfairness >= 0.0);
    }
}

#[test]
fn audits_are_deterministic() {
    let workers = population(300, 4);
    let scores = LinearScore::alpha("f4", 1.0).score_all(&workers).unwrap();
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
    for _ in 0..2 {
        let a = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
        let b = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
        assert_eq!(a.unfairness, b.unfairness);
        assert_eq!(a.partitioning.len(), b.partitioning.len());
    }
}

#[test]
fn designed_bias_dominates_random_noise() {
    let workers = population(1000, 5);
    let random = LinearScore::alpha("f1", 0.5).score_all(&workers).unwrap();
    let biased = RuleBasedScore::f6(6).score_all(&workers).unwrap();
    let random_ctx = AuditContext::new(&workers, &random, AuditConfig::default()).unwrap();
    let biased_ctx = AuditContext::new(&workers, &biased, AuditConfig::default()).unwrap();
    let random_audit = Balanced::new(AttributeChoice::Worst)
        .run(&random_ctx)
        .unwrap();
    let biased_audit = Balanced::new(AttributeChoice::Worst)
        .run(&biased_ctx)
        .unwrap();
    assert!(
        biased_audit.unfairness > random_audit.unfairness + 0.3,
        "designed bias {:.3} should dominate noise {:.3}",
        biased_audit.unfairness,
        random_audit.unfairness
    );
    // And the audit pinpoints the designed attribute.
    let gender = workers.schema().index_of("gender").unwrap();
    assert_eq!(biased_audit.partitioning.attributes_used(), vec![gender]);
    assert!(
        (biased_audit.unfairness - 0.8).abs() < 0.05,
        "f6 separates genders by ~0.8"
    );
}

#[test]
fn repair_after_audit_eliminates_the_found_unfairness() {
    let workers = population(800, 7);
    let scores = RuleBasedScore::f7(8).score_all(&workers).unwrap();
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
    let audit = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
    assert!(audit.unfairness > 0.3);

    let groups: Vec<RowSet> = audit
        .partitioning
        .partitions()
        .iter()
        .map(|p| p.rows().clone())
        .collect();
    let repaired = repair_scores(
        &scores,
        &groups,
        &RepairConfig {
            lambda: 1.0,
            target: RepairTarget::Median,
        },
    )
    .unwrap();
    let rctx = AuditContext::new(&workers, &repaired, AuditConfig::default()).unwrap();
    let parts: Vec<_> = groups
        .iter()
        .map(|g| rctx.partition(Predicate::always(), g.clone()))
        .collect();
    let residual = rctx.unfairness(&parts).unwrap();
    assert!(
        residual < 0.02,
        "full repair should flatten the audited partitioning: {residual}"
    );
}

#[test]
fn partial_repair_interpolates_monotonically() {
    let workers = population(500, 9);
    let scores = RuleBasedScore::f6(10).score_all(&workers).unwrap();
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
    let audit = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
    let groups: Vec<RowSet> = audit
        .partitioning
        .partitions()
        .iter()
        .map(|p| p.rows().clone())
        .collect();
    let mut last = f64::INFINITY;
    for lambda in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let repaired = repair_scores(
            &scores,
            &groups,
            &RepairConfig {
                lambda,
                target: RepairTarget::Median,
            },
        )
        .unwrap();
        let rctx = AuditContext::new(&workers, &repaired, AuditConfig::default()).unwrap();
        let parts: Vec<_> = groups
            .iter()
            .map(|g| rctx.partition(Predicate::always(), g.clone()))
            .collect();
        let residual = rctx.unfairness(&parts).unwrap();
        assert!(
            residual <= last + 1e-6,
            "residual should fall as lambda grows: {residual} after {last}"
        );
        last = residual;
    }
}

#[test]
fn row_order_does_not_change_the_result() {
    // Build the same population in two different row orders.
    let workers = population(200, 11);
    let scores = LinearScore::alpha("f2", 0.3).score_all(&workers).unwrap();

    let mut reversed = fairjob::store::Table::new(workers.schema().clone());
    for row in (0..workers.len()).rev() {
        reversed.push_row(&workers.row(row).unwrap()).unwrap();
    }
    let reversed_scores: Vec<f64> = scores.iter().rev().copied().collect();

    let ctx_a = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
    let ctx_b = AuditContext::new(&reversed, &reversed_scores, AuditConfig::default()).unwrap();
    let a = Balanced::new(AttributeChoice::Worst).run(&ctx_a).unwrap();
    let b = Balanced::new(AttributeChoice::Worst).run(&ctx_b).unwrap();
    assert!((a.unfairness - b.unfairness).abs() < 1e-9);
    assert_eq!(a.partitioning.len(), b.partitioning.len());
}

#[test]
fn csv_roundtrip_preserves_audit_results() {
    let workers = population(150, 12);
    let text = fairjob::store::csv::to_csv(&workers);
    let back = fairjob::store::csv::from_csv(workers.schema().clone(), &text).unwrap();
    assert_eq!(workers, back);
    let scores = LinearScore::alpha("f1", 0.5).score_all(&back).unwrap();
    let ctx = AuditContext::new(&back, &scores, AuditConfig::default()).unwrap();
    assert!(Balanced::new(AttributeChoice::Worst).run(&ctx).is_ok());
}
