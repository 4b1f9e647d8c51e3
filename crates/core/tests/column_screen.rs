//! The column screen of `balanced`'s attribute choice: for the two
//! metrics with an L1 form (`emd`, `tv`) every candidate is scored from
//! sorted per-bin columns, and the search must land exactly where the
//! pairwise search lands — same winner, same bits, same partitioning,
//! same split work — including when two candidates tie exactly and the
//! screen falls back to exact scoring.

mod common;

use common::population;
use fairjob_core::algorithms::{balanced::Balanced, paper_algorithms, Algorithm, AttributeChoice};
use fairjob_core::unfairness::average_pairwise;
use fairjob_core::{AuditConfig, AuditContext, AuditResult};
use fairjob_hist::distance::{Emd1d, TotalVariation};
use fairjob_hist::{BinSpec, DistanceBounds, DistanceError, Histogram, HistogramDistance};
use fairjob_store::schema::{AttributeKind, Schema};
use fairjob_store::table::{Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A distance without its L1 form: every other method forwards, so the
/// engine takes the pairwise path (delta scoring through the memo and
/// the bound screen) — the oracle the column screen must match.
struct Pairwise<D>(D);

impl<D: HistogramDistance> HistogramDistance for Pairwise<D> {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        self.0.distance(a, b)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn bounds(&self, a: &Histogram, b: &Histogram) -> Option<DistanceBounds> {
        self.0.bounds(a, b)
    }
}

/// A metric's name, the library distance, and the same distance behind
/// [`Pairwise`].
type Metric = (
    &'static str,
    Arc<dyn HistogramDistance>,
    Arc<dyn HistogramDistance>,
);

/// The two metrics with an L1 form.
fn l1_metrics() -> [Metric; 2] {
    [
        ("emd", Arc::new(Emd1d), Arc::new(Pairwise(Emd1d))),
        (
            "tv",
            Arc::new(TotalVariation),
            Arc::new(Pairwise(TotalVariation)),
        ),
    ]
}

fn config(distance: Arc<dyn HistogramDistance>, threads: usize) -> AuditConfig {
    AuditConfig {
        threads: Some(threads),
        ..AuditConfig::with_distance(distance)
    }
}

/// The column path and the pairwise path agree on everything but the
/// distance counters.
fn assert_same_answer(screened: &AuditResult, pairwise: &AuditResult, what: &str) {
    assert_eq!(screened.algorithm, pairwise.algorithm, "{what}");
    assert_eq!(
        screened.unfairness.to_bits(),
        pairwise.unfairness.to_bits(),
        "{what}: {} vs {}",
        screened.unfairness,
        pairwise.unfairness
    );
    assert_eq!(
        screened.partitioning.partitions(),
        pairwise.partitioning.partitions(),
        "{what}: partitioning"
    );
    assert_eq!(
        screened.candidates_evaluated, pairwise.candidates_evaluated,
        "{what}: candidates"
    );
    let (s, p) = (&screened.engine, &pairwise.engine);
    assert_eq!(s.splits_computed, p.splits_computed, "{what}: splits");
    assert_eq!(s.rows_scanned, p.rows_scanned, "{what}: rows");
    assert_eq!(s.histograms_built, p.histograms_built, "{what}: histograms");
    assert_eq!(p.column_scored, 0, "{what}: the oracle scored columns");
}

/// The paper's five algorithms (populations as `fairjob_bench`'s
/// `prepare_population` builds them) give the same answers with the
/// column screen, at one and at four threads, as on the pairwise path,
/// for both L1 metrics. The pairwise answers are thread-count
/// independent (`thread_parity`), so one serial oracle run serves both.
#[test]
fn paper_algorithms_match_the_pairwise_path() {
    let metrics = l1_metrics();
    let mut scored = 0;
    for size in [200usize, 500, 2_000] {
        for rule in [false, true] {
            let (workers, scores) = population(size, 0xEDB7_2019, rule);
            for (metric, library, oracle) in &metrics {
                let oracle_ctx =
                    AuditContext::new(&workers, &scores, config(oracle.clone(), 1)).unwrap();
                let pairwise: Vec<AuditResult> = paper_algorithms(7)
                    .iter()
                    .map(|algorithm| algorithm.run(&oracle_ctx).unwrap())
                    .collect();
                for threads in [1usize, 4] {
                    let ctx =
                        AuditContext::new(&workers, &scores, config(library.clone(), threads))
                            .unwrap();
                    for (algorithm, pairwise) in paper_algorithms(7).iter().zip(&pairwise) {
                        let what = format!(
                            "{} size={size} f{} {metric} threads={threads}",
                            algorithm.name(),
                            if rule { 7 } else { 1 }
                        );
                        let screened = algorithm.run(&ctx).unwrap();
                        assert_same_answer(&screened, pairwise, &what);
                        assert_eq!(screened.engine.column_ties, 0, "{what}");
                        scored += screened.engine.column_scored;
                    }
                }
            }
        }
    }
    assert!(scored > 0, "no candidate was scored from columns");
}

/// Two attributes with identical splits (a protected attribute and its
/// copy under another name) tie exactly in round one: the screen must
/// fall back to exact scoring and pick the winner today's loop picks —
/// whichever that is, since delta scoring may leave identical
/// candidates an ulp apart.
#[test]
fn exact_tie_falls_back_to_the_exact_loop() {
    let schema = Schema::builder()
        .categorical("gender", AttributeKind::Protected, &["Male", "Female"])
        .categorical("sex", AttributeKind::Protected, &["Male", "Female"])
        .categorical(
            "language",
            AttributeKind::Protected,
            &["English", "Indian", "Other"],
        )
        .build()
        .unwrap();
    let mut workers = Table::new(schema);
    let mut scores = Vec::new();
    for r in 0..600usize {
        let gender = if r % 2 == 0 { "Male" } else { "Female" };
        let language = ["English", "Indian", "Other"][(r / 2) % 3];
        workers
            .push_row(&[Value::cat(gender), Value::cat(gender), Value::cat(language)])
            .unwrap();
        // Gender moves scores far more than language, so the tied pair
        // is the worst attribute.
        let base = if r % 2 == 0 { 0.6 } else { 0.1 };
        scores.push(base + ((r * 37) % 100) as f64 / 400.0 + ((r / 2) % 3) as f64 * 0.01);
    }
    for (metric, library, oracle) in l1_metrics() {
        let ctx = AuditContext::new(&workers, &scores, config(library, 1)).unwrap();
        let oracle_ctx = AuditContext::new(&workers, &scores, config(oracle, 1)).unwrap();
        let screened = Balanced::new(AttributeChoice::Worst).run(&ctx).unwrap();
        let pairwise = Balanced::new(AttributeChoice::Worst)
            .run(&oracle_ctx)
            .unwrap();
        assert_same_answer(&screened, &pairwise, metric);
        assert!(
            screened.engine.column_ties >= 1,
            "{metric}: the tied round did not fall back"
        );
        // The tied pair split first: one of the two names is used.
        let used = screened.partitioning.attributes_used();
        assert!(used.contains(&0) != used.contains(&1), "{metric}: {used:?}");
    }
}

/// Histograms drawn from `seed`: `m` of them over `spec`, about one in
/// ten empty.
fn histograms(spec: &BinSpec, m: usize, seed: u64) -> Vec<Histogram> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let empty = rng.gen_range(0..10) == 0;
            let counts: Vec<f64> = (0..spec.len())
                .map(|_| {
                    if empty {
                        0.0
                    } else {
                        f64::from(rng.gen_range(0u32..40))
                    }
                })
                .collect();
            Histogram::from_counts(spec.clone(), counts)
        })
        .collect()
}

/// Strictly increasing, unevenly spaced edges over `[0, 1]`.
fn uneven_spec(bins: usize, seed: u64) -> BinSpec {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut edges = vec![0.0];
    for _ in 0..bins {
        let last = *edges.last().unwrap();
        edges.push(last + rng.gen_range(0.01f64..1.0));
    }
    let top = *edges.last().unwrap();
    BinSpec::from_edges(edges.into_iter().map(|e| e / top).collect()).unwrap()
}

/// The column average equals the pairwise average within 1e-12
/// relative.
fn assert_column_identity(distance: &dyn HistogramDistance, hists: &[Histogram]) {
    let form = distance.l1_form(hists[0].spec()).unwrap();
    let refs: Vec<&Histogram> = hists.iter().collect();
    let columns: Vec<&[f64]> = hists.iter().filter_map(|h| form.column(h)).collect();
    assert_eq!(
        columns.len(),
        hists.iter().filter(|h| !h.is_empty()).count()
    );
    let exact = average_pairwise(&refs, distance).unwrap();
    let column = form.average_pairwise(&columns);
    assert!(
        (column - exact).abs() <= 1e-12 * exact.abs(),
        "{}: column {column} vs pairwise {exact} over {} histograms",
        distance.name(),
        columns.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn column_average_equals_pairwise_average(
        m in 2usize..=300,
        bins in 1usize..=20,
        seed in 0u64..1_000_000,
    ) {
        let uniform = BinSpec::equal_width(0.0, 1.0, bins).unwrap();
        let uneven = uneven_spec(bins, seed);
        for spec in [&uniform, &uneven] {
            let hists = histograms(spec, m, seed);
            assert_column_identity(&Emd1d, &hists);
            assert_column_identity(&TotalVariation, &hists);
        }
    }
}

/// Metrics without an L1 form keep the pairwise path.
#[test]
fn only_the_l1_metrics_have_a_form() {
    let spec = BinSpec::equal_width(0.0, 1.0, 10).unwrap();
    for name in ["emd", "tv", "emd-exact", "ks", "jsd", "hellinger", "chi2"] {
        let distance = fairjob_hist::distance::by_name(name).unwrap();
        assert_eq!(
            distance.l1_form(&spec).is_some(),
            matches!(name, "emd" | "tv"),
            "{name}"
        );
    }
}
