//! Design-choice ablations (extensions beyond the paper's tables).
//!
//! 1. **Bin count** — the paper never states its histogram bin count;
//!    sweep it and watch the unfairness values (EMD between subsampled
//!    histograms grows with finer bins on random data).
//! 2. **Distance metric** — the paper's future work asks about other
//!    metrics; run `balanced` under each bounded symmetric distance.
//! 3. **`unbalanced` ambiguity variants** — sibling scope and stopping
//!    comparison (see `algorithms::unbalanced` docs).
//! 4. **Beam width** — how much does greedy commitment lose against a
//!    wider beam?
//! 5. **Chunked full evaluation** — thread scaling of the engine's full
//!    evaluation on the 7300-worker `all-attributes` partitioning.
//! 6. **Greedy vs exact over the balanced space** — the balanced space
//!    is the subset lattice of attributes (2^m − 1 candidates), so its
//!    exact optimum is cheap; how much does greedy `balanced` lose?
//! 7. **Incremental vs batch pairwise averaging** — the engine's
//!    replace-one-partition-by-children delta scoring against a naive
//!    evaluation of each materialised candidate.
//!
//! ```text
//! cargo run -p fairjob-bench --release --bin ablations
//! ```

use fairjob_bench::{prepare_population, render_table};
use fairjob_core::algorithms::{
    all_attributes::AllAttributes, balanced::Balanced, beam::Beam, unbalanced::Unbalanced,
    Algorithm, AttributeChoice,
};
use fairjob_core::unfairness::average_pairwise;
use fairjob_core::{AuditConfig, AuditContext, EvalEngine, IncrementalEval, Partition};
use fairjob_hist::distance::{all_symmetric_distances, by_name};
use fairjob_hist::Histogram;
use fairjob_marketplace::scoring::{LinearScore, RuleBasedScore, ScoringFunction};
use std::time::{Duration, Instant};

/// The last result of five runs of `f`, and the median of their wall
/// times.
fn median_of_5<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut times = Vec::with_capacity(5);
    let mut last = None;
    for _ in 0..5 {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed());
    }
    times.sort_unstable();
    (last.expect("five runs"), times[2])
}

fn main() {
    let workers = prepare_population(500, 0xEDB7_2019);
    let f1_scores = LinearScore::alpha("f1", 0.5)
        .score_all(&workers)
        .expect("scores");
    let f6_scores = RuleBasedScore::f6(0xF00D)
        .score_all(&workers)
        .expect("scores");

    // 1. Bin-count sweep.
    println!("=== Ablation 1: histogram bin count (balanced, f1 and f6, 500 workers) ===\n");
    let mut rows = Vec::new();
    for bins in [5, 10, 20, 50, 100] {
        let mut row = vec![bins.to_string()];
        for scores in [&f1_scores, &f6_scores] {
            let ctx =
                AuditContext::new(&workers, scores, AuditConfig::with_bins(bins)).expect("ctx");
            let r = Balanced::new(AttributeChoice::Worst)
                .run(&ctx)
                .expect("balanced");
            row.push(format!(
                "{:.3} ({} parts)",
                r.unfairness,
                r.partitioning.len()
            ));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(&["bins", "f1 (random)", "f6 (biased)"], &rows)
    );

    // 2. Metric sweep.
    println!("=== Ablation 2: distance metric (balanced, 500 workers) ===\n");
    let mut rows = Vec::new();
    for dist in all_symmetric_distances() {
        let name = dist.name();
        let mut row = vec![name.to_string()];
        for scores in [&f1_scores, &f6_scores] {
            let cfg = AuditConfig::with_distance(by_name(name).expect("registered metric"));
            let ctx = AuditContext::new(&workers, scores, cfg).expect("ctx");
            let r = Balanced::new(AttributeChoice::Worst)
                .run(&ctx)
                .expect("balanced");
            let attrs: Vec<String> = r
                .partitioning
                .attributes_used()
                .iter()
                .map(|&a| workers.schema().attribute(a).name.clone())
                .collect();
            row.push(format!("{:.3} on {:?}", r.unfairness, attrs));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(&["metric", "f1 (random)", "f6 (biased)"], &rows)
    );

    // 3. unbalanced ambiguity variants.
    println!("=== Ablation 3: unbalanced pseudocode ambiguities (f6, 500 workers) ===\n");
    let ctx = AuditContext::new(&workers, &f6_scores, AuditConfig::default()).expect("ctx");
    let mut rows = Vec::new();
    let variants: [(&str, Unbalanced); 4] = [
        (
            "literal (union stop, local siblings)",
            Unbalanced::new(AttributeChoice::Worst),
        ),
        (
            "cross-pair stopping",
            Unbalanced::new(AttributeChoice::Worst).with_cross_stopping(),
        ),
        (
            "ancestor siblings",
            Unbalanced::new(AttributeChoice::Worst).with_ancestor_siblings(),
        ),
        (
            "cross + ancestors",
            Unbalanced::new(AttributeChoice::Worst)
                .with_cross_stopping()
                .with_ancestor_siblings(),
        ),
    ];
    for (label, algo) in variants {
        let r = algo.run(&ctx).expect("unbalanced variant");
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", r.unfairness),
            r.partitioning.len().to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["variant", "unfairness", "partitions"], &rows)
    );

    // 4. Beam width.
    println!("=== Ablation 4: beam width (f1, 500 workers) ===\n");
    let ctx = AuditContext::new(&workers, &f1_scores, AuditConfig::default()).expect("ctx");
    let mut rows = Vec::new();
    for width in [1, 2, 4, 8] {
        let r = Beam::new(width).run(&ctx).expect("beam");
        rows.push(vec![
            width.to_string(),
            format!("{:.4}", r.unfairness),
            format!("{:.2?}", r.elapsed),
            r.candidates_evaluated.to_string(),
        ]);
    }
    let balanced = Balanced::new(AttributeChoice::Worst)
        .run(&ctx)
        .expect("balanced");
    rows.push(vec![
        "balanced (greedy)".into(),
        format!("{:.4}", balanced.unfairness),
        format!("{:.2?}", balanced.elapsed),
        balanced.candidates_evaluated.to_string(),
    ]);
    println!(
        "{}",
        render_table(&["beam width", "unfairness", "time", "candidates"], &rows)
    );

    // 5. Chunked full evaluation.
    println!(
        "=== Ablation 5: chunked full evaluation (7300 workers, all-attributes partitioning) ===\n"
    );
    let big = prepare_population(7300, 0xEDB7_2019);
    let big_scores = LinearScore::alpha("f1", 0.5)
        .score_all(&big)
        .expect("scores");
    let at_threads = |threads: usize| {
        let cfg = AuditConfig {
            threads: Some(threads),
            ..AuditConfig::default()
        };
        AuditContext::new(&big, &big_scores, cfg).expect("ctx")
    };
    let full = AllAttributes
        .run(&at_threads(1))
        .expect("all-attributes")
        .partitioning;
    let parts = full.partitions();
    let hists: Vec<&Histogram> = parts.iter().map(|p| &p.histogram).collect();
    println!(
        "{} partitions, {} pairs; every engine is fresh, so every pair is computed\n",
        parts.len(),
        parts.len() * (parts.len() - 1) / 2
    );
    let mut rows = Vec::new();
    let (naive, naive_time) =
        median_of_5(|| average_pairwise(&hists, &fairjob_hist::distance::Emd1d).expect("naive"));
    rows.push(vec![
        "naive reference".into(),
        format!("{naive:.6}"),
        format!("{naive_time:.2?}"),
    ]);
    for threads in [1, 2, 4, 8] {
        let ctx = at_threads(threads);
        let (value, time) =
            median_of_5(|| EvalEngine::new(&ctx).unfairness(parts).expect("engine"));
        rows.push(vec![
            format!("engine, threads = {threads}"),
            format!("{value:.6}"),
            format!("{time:.2?}"),
        ]);
    }
    println!(
        "{}",
        render_table(&["mode", "avg EMD", "time (median of 5)"], &rows)
    );

    // 6. Greedy balanced vs exact over the balanced (subset) space.
    println!("=== Ablation 6: greedy balanced vs subset-exact (500 workers) ===\n");
    let mut rows = Vec::new();
    let biased_scores: Vec<(&str, &Vec<f64>)> = vec![("f1", &f1_scores), ("f6", &f6_scores)];
    for (name, scores) in biased_scores {
        let ctx = AuditContext::new(&workers, scores, AuditConfig::default()).expect("ctx");
        let greedy = Balanced::new(AttributeChoice::Worst)
            .run(&ctx)
            .expect("balanced");
        let exact = fairjob_core::algorithms::subsets::SubsetExact::default()
            .run(&ctx)
            .expect("subsets");
        rows.push(vec![
            name.to_string(),
            format!(
                "{:.4} ({} evals, {:.2?})",
                greedy.unfairness, greedy.candidates_evaluated, greedy.elapsed
            ),
            format!(
                "{:.4} ({} evals, {:.2?})",
                exact.unfairness, exact.candidates_evaluated, exact.elapsed
            ),
            format!("{:.4}", exact.unfairness - greedy.unfairness),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "function",
                "greedy balanced",
                "subset-exact (63 subsets)",
                "gap"
            ],
            &rows
        )
    );

    // 7. Incremental vs batch pairwise averaging (replace-one workload).
    println!("=== Ablation 7: incremental vs batch pairwise averaging ===\n");
    // Base: five of the six attributes split over the 7300 workers;
    // each candidate replaces one base partition by its split on the
    // sixth.
    let ctx = at_threads(1);
    let attrs = ctx.attributes().to_vec();
    let (pre_split, last) = (&attrs[..attrs.len() - 1], attrs[attrs.len() - 1]);
    let base = ctx.cells(pre_split);
    let candidates: Vec<(usize, Vec<Partition>)> = base
        .iter()
        .enumerate()
        .filter_map(|(i, p)| ctx.split(p, last).map(|children| (i, children)))
        .take(100)
        .collect();
    let t_batch = Instant::now();
    let mut batch_last = 0.0;
    for (k, children) in &candidates {
        let mut materialised: Vec<Partition> = base[..*k].to_vec();
        materialised.extend(children.iter().cloned());
        materialised.extend(base[k + 1..].iter().cloned());
        batch_last = ctx.unfairness(&materialised).expect("batch");
    }
    let batch_time = t_batch.elapsed();
    // Timed from the seeding, which computes the base's pairs once.
    let t_inc = Instant::now();
    let engine = EvalEngine::new(&ctx);
    let mut incremental = IncrementalEval::new(&engine, &base).expect("seed");
    let mut inc_last = 0.0;
    for (k, children) in &candidates {
        inc_last = incremental
            .score_replacements(&[(*k, children.as_slice())])
            .expect("delta");
    }
    let inc_time = t_inc.elapsed();
    let probes = format!(
        "time ({} replace-one probes, {} partitions)",
        candidates.len(),
        base.len()
    );
    println!(
        "{}",
        render_table(
            &["mode", &probes, "last value"],
            &[
                vec![
                    "batch recompute".into(),
                    format!("{batch_time:.2?}"),
                    format!("{batch_last:.6}")
                ],
                vec![
                    "incremental".into(),
                    format!("{inc_time:.2?}"),
                    format!("{inc_last:.6}")
                ],
            ]
        )
    );
}
