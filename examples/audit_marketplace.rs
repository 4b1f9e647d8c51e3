//! End-to-end marketplace audit: simulate a crowdsourcing platform with
//! several posted tasks, audit where requester attention (exposure)
//! flows (Singh & Joachims, "Fairness of Exposure in Rankings"), then
//! audit the task-qualification functions and test the findings for
//! statistical significance.
//!
//! ```text
//! cargo run --release --example audit_marketplace
//! ```

use fairjob::core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob::core::exposure::{exposure_disparity, exposure_scores};
use fairjob::core::stats::permutation_test;
use fairjob::core::{AuditConfig, AuditContext};
use fairjob::marketplace::platform::Platform;
use fairjob::marketplace::ranking::ExposureModel;
use fairjob::marketplace::scoring::{LinearScore, RuleBasedScore};
use fairjob::marketplace::{bucketise_numeric_protected, generate_correlated, CorrelationConfig};

fn main() {
    // A population whose skills correlate with demographics — the
    // synthetic stand-in for real marketplace data (Qapa / TaskRabbit in
    // the paper's future work).
    let mut workers = generate_correlated(2000, 7, &CorrelationConfig::default());
    bucketise_numeric_protected(&mut workers).expect("bucketise");

    let mut platform = Platform::new(workers, ExposureModel::Logarithmic);

    // Requesters post tasks ranked by different qualification functions.
    let html_gig = LinearScore::alpha("html-css-jquery", 0.7);
    let moving_gig = LinearScore::alpha("furniture-assembly", 0.2);
    let biased_gig = RuleBasedScore::f7(99);
    platform
        .post_task("help with HTML, JavaScript, CSS and JQuery", &html_gig, 20)
        .expect("task");
    platform
        .post_task("assemble two IKEA wardrobes", &moving_gig, 20)
        .expect("task");
    platform
        .post_task("logo design (biased requester)", &biased_gig, 20)
        .expect("task");

    // Where did attention go, per language group?
    let language = platform
        .workers()
        .schema()
        .index_of("language")
        .expect("attr");
    println!("=== exposure per language group (3 tasks, log position bias) ===");
    let disparity =
        exposure_disparity(platform.workers(), platform.exposure(), language).expect("disparity");
    for &(code, mean, n) in &disparity.per_group {
        let label = platform
            .workers()
            .schema()
            .attribute(language)
            .label_of(code)
            .expect("label");
        println!("  {label:<10} mean exposure {mean:.4}  (n={n})");
    }
    println!(
        "exposure parity ratio (min/max group mean): {:.3}",
        disparity.parity_ratio.unwrap_or(0.0)
    );

    // The partitioning view of the same quantity: audit the normalised
    // exposure as pseudo-scores. Most workers in every group received
    // no exposure at all, and that shared mass at zero dominates the
    // histograms, so the EMD reads far lower than the parity ratio.
    let pseudo = exposure_scores(platform.exposure()).expect("normalise");
    let cfg = AuditConfig {
        attributes: Some(vec!["language".into()]),
        ..Default::default()
    };
    let ctx = AuditContext::new(platform.workers(), &pseudo, cfg).expect("ctx");
    let audit = Balanced::new(AttributeChoice::Worst)
        .run(&ctx)
        .expect("audit");
    println!(
        "exposure audit (EMD) across language groups: unfairness {:.3}",
        audit.unfairness
    );

    // Audit each task's scoring function.
    for log in platform.logs().to_vec() {
        let ctx = AuditContext::new(platform.workers(), &log.scores, AuditConfig::default())
            .expect("ctx");
        let audit = Balanced::new(AttributeChoice::Worst)
            .run(&ctx)
            .expect("audit");
        let significance =
            permutation_test(&ctx, &audit.partitioning, 99, 0xD1CE).expect("permutation test");
        println!(
            "\n=== task {} (function {}) ===\n{}",
            log.task_id,
            log.function,
            audit.render(&ctx, false)
        );
        println!(
            "permutation test: observed {:.3} vs null mean {:.3} (max {:.3}), p = {:.3} -> {}",
            significance.observed,
            significance.null_mean,
            significance.null_max,
            significance.p_value,
            if significance.p_value <= 0.05 {
                "unfairness is significant"
            } else {
                "consistent with sampling noise"
            }
        );
    }
}

#[test]
fn main_runs() {
    main();
}
