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
//! 5. **Parallel pairwise EMD** — thread scaling of the dominant kernel.
//! 6. **Greedy vs exact over the balanced space** — the balanced space
//!    is the subset lattice of attributes (2^m − 1 candidates), so its
//!    exact optimum is cheap; how much does greedy `balanced` lose?
//! 7. **Incremental vs batch pairwise averaging** — the
//!    replace-one-partition-by-children delta update.
//!
//! ```text
//! cargo run -p fairjob-bench --release --bin ablations
//! ```

use fairjob_bench::{prepare_population, render_table};
use fairjob_core::algorithms::{
    balanced::Balanced, beam::Beam, unbalanced::Unbalanced, Algorithm, AttributeChoice,
};
use fairjob_core::unfairness::{average_pairwise, average_pairwise_parallel};
use fairjob_core::{AuditConfig, AuditContext};
use fairjob_hist::distance::{all_symmetric_distances, by_name};
use fairjob_hist::Histogram;
use fairjob_marketplace::scoring::{LinearScore, RuleBasedScore, ScoringFunction};
use std::time::Instant;

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

    // 5. Parallel pairwise EMD.
    println!("=== Ablation 5: parallel pairwise EMD (1800-cell full partitioning scale) ===\n");
    let spec = fairjob_hist::BinSpec::equal_width(0.0, 1.0, 10).expect("spec");
    let hists: Vec<Histogram> = (0..1200)
        .map(|i| {
            let base = (i % 97) as f64 / 97.0;
            Histogram::from_values(
                spec.clone(),
                [base, (base + 0.31) % 1.0, (base + 0.62) % 1.0],
            )
        })
        .collect();
    let refs: Vec<&Histogram> = hists.iter().collect();
    let dist = fairjob_hist::distance::Emd1d;
    let mut rows = Vec::new();
    let t0 = Instant::now();
    let serial = average_pairwise(&refs, &dist).expect("serial");
    let serial_time = t0.elapsed();
    rows.push(vec![
        "serial".into(),
        format!("{serial:.6}"),
        format!("{serial_time:.2?}"),
    ]);
    for threads in [2, 4, 8] {
        let t = Instant::now();
        let par = average_pairwise_parallel(&refs, &dist, threads).expect("parallel");
        rows.push(vec![
            format!("{threads} threads"),
            format!("{par:.6}"),
            format!("{:.2?}", t.elapsed()),
        ]);
    }
    println!("{}", render_table(&["mode", "avg EMD", "time"], &rows));

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
    use fairjob_core::unfairness::PairwiseAverager;
    let dist = fairjob_hist::distance::Emd1d;
    let base: Vec<Histogram> = (0..400)
        .map(|i| {
            let v = (i % 89) as f64 / 89.0;
            Histogram::from_values(spec.clone(), [v, (v + 0.4) % 1.0])
        })
        .collect();
    // Workload: replace each of the first 100 histograms by two children.
    let t_batch = Instant::now();
    let mut batch_last = 0.0;
    for k in 0..100 {
        let mut set: Vec<&Histogram> = base.iter().collect();
        set.remove(k);
        // Batch recompute from scratch each step (children approximated
        // by reusing two other histograms — the arithmetic is identical).
        let extra = [&base[(k + 1) % 400], &base[(k + 2) % 400]];
        set.extend(extra);
        batch_last = average_pairwise(&set, &dist).expect("batch");
    }
    let batch_time = t_batch.elapsed();
    let t_inc = Instant::now();
    let mut averager =
        PairwiseAverager::with_histograms(&dist, base.iter().cloned()).expect("averager");
    let mut inc_last = 0.0;
    for k in 0..100 {
        averager.remove(k).expect("remove");
        let a = averager
            .insert(base[(k + 1) % 400].clone())
            .expect("insert");
        let b = averager
            .insert(base[(k + 2) % 400].clone())
            .expect("insert");
        inc_last = averager.average();
        // Undo so each step is a fresh replace-one probe.
        averager.remove(a).expect("remove");
        averager.remove(b).expect("remove");
        averager.insert(base[k].clone()).expect("insert");
    }
    let inc_time = t_inc.elapsed();
    println!(
        "{}",
        render_table(
            &[
                "mode",
                "time (100 replace-one probes, 400 hists)",
                "last value"
            ],
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
