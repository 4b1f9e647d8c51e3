//! Hiring feedback loop: how ranking bias compounds — and what repair
//! does to the loop.
//!
//! Simulates a marketplace where English-speaking workers start with a
//! moderate language-test advantage. Each round the platform ranks
//! workers, a requester hires from the top with position bias, and
//! hires raise the hired worker's approval rate. The advantage
//! compounds: the English share of hires drifts far above the group's
//! population share. Auditing the evolved scores shows the unfairness
//! the loop manufactured.
//!
//! ```text
//! cargo run --release --example feedback_loop
//! ```

use fairjob::core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob::core::{AuditConfig, AuditContext};
use fairjob::marketplace::hiring::{simulate_hiring, HiringConfig};
use fairjob::marketplace::scoring::{LinearScore, ScoringFunction};
use fairjob::marketplace::{bucketise_numeric_protected, generate_correlated, CorrelationConfig};

fn main() {
    // Mild initial correlation: English speakers test a bit better.
    let population_config = CorrelationConfig {
        language_to_test: 0.3,
        experience_to_approval: 0.0,
        country_to_approval: 0.0,
    };
    let mut workers = generate_correlated(1000, 21, &population_config);
    bucketise_numeric_protected(&mut workers).expect("bucketise");
    let language = workers.schema().index_of("language").expect("attr");

    let scorer = LinearScore::alpha("blend", 0.6);
    // Audit specifically across language groups: how unequal does the
    // scoring function treat them?
    let audit_unfairness = |workers: &fairjob::store::Table| -> f64 {
        let scores = scorer.score_all(workers).expect("scores");
        let cfg = AuditConfig {
            attributes: Some(vec!["language".into()]),
            ..Default::default()
        };
        let ctx = AuditContext::new(workers, &scores, cfg).expect("ctx");
        Balanced::new(AttributeChoice::Worst)
            .run(&ctx)
            .expect("audit")
            .unfairness
    };

    println!("=== hiring feedback loop (1000 workers, 120 rounds) ===\n");
    println!(
        "language-group unfairness before any hiring: {:.3}",
        audit_unfairness(&workers)
    );

    let config = HiringConfig {
        rounds: 120,
        top_k: 100,
        hires_per_round: 5,
        approval_boost: 4.0,
        ..Default::default()
    };
    let outcome =
        simulate_hiring(&mut workers, &scorer, language, &config).expect("simulation runs");

    // Population share of each language group vs its hire share.
    let total = workers.len() as f64;
    println!(
        "\n{:<10} {:>10} {:>10}",
        "language", "pop share", "hire share"
    );
    for (code, label) in ["English", "Indian", "Other"].iter().enumerate() {
        let size = workers
            .column(language)
            .as_categorical()
            .expect("categorical")
            .iter()
            .filter(|&&c| c == code as u32)
            .count() as f64;
        println!(
            "{:<10} {:>9.1}% {:>9.1}%",
            label,
            100.0 * size / total,
            100.0 * outcome.hire_share(code as u32)
        );
    }

    println!(
        "\nlanguage-group unfairness after the loop:  {:.3}",
        audit_unfairness(&workers)
    );
    println!(
        "\nThe loop concentrated hires on the initially-advantaged group and\n\
         *raised* the measurable unfairness of the same scoring function —\n\
         reputational feedback manufactured extra signal correlated with\n\
         language. Auditing before deployment (and repairing, see the\n\
         repair_bias example) is what prevents the compounding."
    );
}

#[test]
fn main_runs() {
    main();
}
