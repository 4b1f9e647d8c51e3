//! Audit → repair → re-audit: detect designed bias, repair the scores by
//! quantile alignment, and verify both that the audited partitioning is
//! fixed and that worker order *within* each group survived.
//!
//! ```text
//! cargo run --release --example repair_bias
//! ```

use fairjob::core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob::core::{AuditConfig, AuditContext};
use fairjob::marketplace::ranking::rank;
use fairjob::marketplace::scoring::{RuleBasedScore, ScoringFunction};
use fairjob::marketplace::{bucketise_numeric_protected, generate_uniform};
use fairjob::repair::{repair_scores, RepairConfig, RepairTarget};
use fairjob::store::{Predicate, RowSet};

fn main() {
    let mut workers = generate_uniform(1500, 9);
    bucketise_numeric_protected(&mut workers).expect("bucketise");

    // A requester whose scoring discriminates on gender and nationality.
    let f7 = RuleBasedScore::f7(31);
    let scores = f7.score_all(&workers).expect("scores");

    // --- Audit. ---
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).expect("ctx");
    let audit = Balanced::new(AttributeChoice::Worst)
        .run(&ctx)
        .expect("audit");
    println!("=== before repair ===\n{}", audit.render(&ctx, false));

    // --- Repair against the audited groups. ---
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
    .expect("repair");

    // --- Re-audit the same partitioning on repaired scores. ---
    let rctx = AuditContext::new(&workers, &repaired, AuditConfig::default()).expect("ctx");
    let reparts: Vec<_> = groups
        .iter()
        .map(|g| rctx.partition(Predicate::always(), g.clone()))
        .collect();
    println!(
        "=== after full repair ===\nunfairness of the audited partitioning: {:.4} (was {:.4})",
        rctx.unfairness(&reparts).expect("unfairness"),
        audit.unfairness
    );

    // --- Within-group ranking is preserved. ---
    let sample_group = &groups[0];
    let before: Vec<u32> = {
        let member_scores: Vec<f64> = sample_group.iter().map(|r| scores[r]).collect();
        rank(&member_scores, None).iter().map(|r| r.row).collect()
    };
    let after: Vec<u32> = {
        let member_scores: Vec<f64> = sample_group.iter().map(|r| repaired[r]).collect();
        rank(&member_scores, None).iter().map(|r| r.row).collect()
    };
    println!(
        "within-group ranking preserved in the largest audited group: {}",
        if before == after {
            "yes"
        } else {
            "NO (unexpected)"
        }
    );

    // --- What the platform sees: top-10 gender mix before vs after. ---
    let gender = workers.schema().index_of("gender").expect("attr");
    let mix = |s: &[f64]| {
        let top = rank(s, Some(10));
        let females = top
            .iter()
            .filter(|r| workers.code_at(gender, r.row as usize).expect("code") == 1)
            .count();
        format!("{females}/10 female")
    };
    println!("top-10 before repair: {}", mix(&scores));
    println!("top-10 after repair:  {}", mix(&repaired));
}

#[test]
fn main_runs() {
    main();
}
