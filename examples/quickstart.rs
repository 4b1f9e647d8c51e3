//! Quickstart: generate a worker population, score it, and find its
//! most-unfair partitioning.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fairjob::core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob::core::{AuditConfig, AuditContext};
use fairjob::marketplace::scoring::{LinearScore, ScoringFunction};
use fairjob::marketplace::{bucketise_numeric_protected, generate_uniform};

fn main() {
    // 1. A population of 1000 workers with the paper's AMT-like schema:
    //    six protected attributes, two observed skill attributes.
    let mut workers = generate_uniform(1000, 42);

    // 2. Numeric protected attributes (year of birth, experience) must be
    //    discretised before they can define groups.
    bucketise_numeric_protected(&mut workers).expect("fresh population bucketises");

    // 3. A scoring function over the observed attributes — here the
    //    paper's f1: half language test, half approval rate.
    let f1 = LinearScore::alpha("f1", 0.5);
    let scores = f1
        .score_all(&workers)
        .expect("population has the observed attributes");

    // 4. Audit: which split of the workers on protected attributes makes
    //    this function look most unfair (highest average pairwise EMD
    //    between per-group score histograms)?
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default())
        .expect("scores align with the table");
    let result = Balanced::new(AttributeChoice::Worst)
        .run(&ctx)
        .expect("audit completes");

    println!("{}", result.render(&ctx, false));
    println!(
        "Interpretation: f1 blends two independent uniform attributes, so any\n\
         unfairness found here is sampling noise — compare the value above with\n\
         the biased_functions example, where the same audit finds designed bias."
    );
}

#[test]
fn main_runs() {
    main();
}
