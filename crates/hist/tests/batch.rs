//! The batch path of the histogram distances
//! ([`HistogramDistance::pair_batch`]) against their per-pair
//! `distance`, on seed-driven random histogram sets: every value a batch
//! returns carries `distance`'s bits, and a set the batch cannot take in
//! full is declined, leaving the per-pair path to name the error.

use fairjob_hist::distance::{by_name, EmdThresholded, HistogramDistance, METRIC_NAMES};
use fairjob_hist::{BinSpec, DistanceError, Histogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Random histogram sets checked against every metric.
const CASES: usize = 12_000;

/// A random layout: 1–64 bins (one bin in about one case in eight),
/// equal-width or explicit edges, over a random range. Returned twice:
/// the second copy is built separately from the same arguments, so it
/// is equal to the first without sharing its edges.
fn random_spec(rng: &mut StdRng) -> (BinSpec, BinSpec) {
    let bins = if rng.gen_bool(0.125) {
        1
    } else {
        rng.gen_range(1..=64usize)
    };
    let lo = rng.gen_range(-5.0..5.0);
    if rng.gen_bool(0.5) {
        let hi = lo + rng.gen_range(0.01..10.0);
        let build = || BinSpec::equal_width(lo, hi, bins).unwrap();
        (build(), build())
    } else {
        let mut edges = vec![lo];
        for _ in 0..bins {
            let gap = if rng.gen_bool(0.2) {
                rng.gen_range(1e-6..1e-3)
            } else {
                rng.gen_range(0.01..2.0)
            };
            edges.push(edges.last().unwrap() + gap);
        }
        let build = || BinSpec::from_edges(edges.clone()).unwrap();
        (build(), build())
    }
}

/// A value somewhere in (and a little past) `spec`'s range.
fn value_in(spec: &BinSpec, rng: &mut StdRng) -> f64 {
    let span = spec.hi() - spec.lo();
    spec.lo() + rng.gen_range(-0.05..1.05) * span
}

/// A random non-empty histogram on `spec`: integer counts, fractional
/// (`add_weighted`) counts whose running total can differ in the last
/// bit from the sum over bins, or all mass in one bin.
fn random_histogram(spec: &BinSpec, rng: &mut StdRng) -> Histogram {
    let values = rng.gen_range(1..=48usize);
    match rng.gen_range(0..4u32) {
        0 => Histogram::from_values(spec.clone(), (0..values).map(|_| value_in(spec, rng))),
        1 => {
            let indices: Vec<u32> = (0..values)
                .map(|_| rng.gen_range(0..spec.len()) as u32)
                .collect();
            Histogram::from_bin_indices_u32(spec.clone(), indices)
        }
        2 => {
            let mut h = Histogram::empty(spec.clone());
            while h.is_empty() {
                for _ in 0..values {
                    let weight = if rng.gen_bool(0.3) {
                        rng.gen_range(1e-9..1e-3)
                    } else {
                        rng.gen_range(0.0..3.0)
                    };
                    h.add_weighted(value_in(spec, rng), weight);
                }
            }
            h
        }
        _ => {
            let bin = rng.gen_range(0..spec.len());
            let mass = rng.gen_range(0.1..100.0);
            let mut counts = vec![0.0; spec.len()];
            counts[bin] = mass;
            Histogram::from_counts(spec.clone(), counts)
        }
    }
}

/// Why a histogram mixed into a set stops the batch from taking it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Odd {
    /// No mass.
    Empty,
    /// Another bin count, other edges, or the same edges on the other
    /// kind of layout.
    OtherLayout,
}

/// A histogram on a layout that differs from `spec`.
fn other_layout(spec: &BinSpec, rng: &mut StdRng) -> Histogram {
    let other = match rng.gen_range(0..3u32) {
        0 => BinSpec::equal_width(spec.lo(), spec.hi(), spec.len() % 64 + 1).unwrap(),
        1 => {
            let mut edges = spec.edges().to_vec();
            *edges.last_mut().unwrap() += 0.5;
            BinSpec::from_edges(edges).unwrap()
        }
        _ if spec.is_uniform() => BinSpec::from_edges(spec.edges().to_vec()).unwrap(),
        _ => BinSpec::equal_width(spec.lo(), spec.hi(), spec.len()).unwrap(),
    };
    assert_ne!(&other, spec);
    random_histogram(&other, rng)
}

/// One random set: 1–10 histograms on one layout, some on a separately
/// built copy of it (equal, not shared), maybe one odd histogram mixed
/// in at a random position.
fn random_set(rng: &mut StdRng) -> (BinSpec, Vec<Histogram>, Option<Odd>) {
    let (spec, copy) = random_spec(rng);
    assert_eq!(copy, spec);
    let count = rng.gen_range(1..=10usize);
    let mut set: Vec<Histogram> = (0..count)
        .map(|_| {
            let layout = if rng.gen_bool(0.1) { &copy } else { &spec };
            random_histogram(layout, rng)
        })
        .collect();
    let odd = match rng.gen_range(0..10u32) {
        0 => Some(Odd::Empty),
        1 => Some(Odd::OtherLayout),
        _ => None,
    };
    if let Some(odd) = odd {
        let h = match odd {
            Odd::Empty => Histogram::empty(spec.clone()),
            Odd::OtherLayout => other_layout(&spec, rng),
        };
        let at = rng.gen_range(0..=set.len());
        set.insert(at, h);
    }
    (spec, set, odd)
}

/// The metrics under test: every name `by_name` accepts, plus the
/// thresholded EMD that only the library API reaches.
fn metrics() -> Vec<Arc<dyn HistogramDistance>> {
    let mut all: Vec<Arc<dyn HistogramDistance>> = METRIC_NAMES
        .iter()
        .map(|&name| by_name(name).unwrap())
        .collect();
    all.push(Arc::new(EmdThresholded { threshold: 0.25 }));
    all
}

#[test]
fn batch_distances_keep_the_per_pair_bits_or_decline() {
    let mut rng = StdRng::seed_from_u64(0xBA7C_4ED1);
    let metrics = metrics();
    let mut batched = vec![0usize; metrics.len()];
    let mut declined = vec![0usize; metrics.len()];
    let mut pairs_checked = 0usize;
    let mut row = Vec::new();
    for case in 0..CASES {
        let (spec, set, odd) = random_set(&mut rng);
        let refs: Vec<&Histogram> = set.iter().collect();
        for (m, metric) in metrics.iter().enumerate() {
            let name = metric.name();
            let Some(batch) = metric.pair_batch(&refs) else {
                declined[m] += 1;
                if odd.is_none() {
                    assert!(
                        !matches!(name, "emd" | "tv"),
                        "case {case}: {name} declined a clean set on {spec:?}"
                    );
                }
                continue;
            };
            batched[m] += 1;
            assert_eq!(odd, None, "case {case}: {name} took a set with {odd:?}");
            assert_eq!(batch.len(), refs.len());
            // Whole rows (both orders of every pair, and each histogram
            // against itself), then a random sub-range of one row, so
            // every lane and remainder position is hit.
            for (i, a) in refs.iter().enumerate() {
                row.clear();
                batch.distances_into(i, 0..refs.len(), &mut row);
                assert_eq!(row.len(), refs.len());
                for (j, (b, got)) in refs.iter().zip(&row).enumerate() {
                    let want = metric.distance(a, b).unwrap();
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "case {case}: {name} ({i}, {j}) batch {got} vs distance {want} on {spec:?}"
                    );
                    pairs_checked += 1;
                }
            }
            let i = rng.gen_range(0..refs.len());
            let from = rng.gen_range(0..=refs.len());
            let to = rng.gen_range(from..=refs.len());
            row.clear();
            batch.distances_into(i, from..to, &mut row);
            for (j, got) in (from..to).zip(&row) {
                let want = metric.distance(refs[i], refs[j]).unwrap();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case}: {name} ({i}, {j})"
                );
            }
        }
        // A declined odd set leaves the error to the per-pair path: the
        // odd histogram against any other names it.
        if let (Some(odd), true) = (odd, refs.len() > 1) {
            let at = refs
                .iter()
                .position(|h| match odd {
                    Odd::Empty => h.is_empty(),
                    Odd::OtherLayout => h.spec() != &spec,
                })
                .unwrap();
            let other = (at + 1) % refs.len();
            for metric in &metrics {
                let name = metric.name();
                let err = metric.distance(refs[at], refs[other]).unwrap_err();
                let want = match odd {
                    Odd::Empty => DistanceError::EmptyHistogram,
                    Odd::OtherLayout => DistanceError::SpecMismatch,
                };
                assert_eq!(err, want, "case {case}: {name}");
            }
        }
    }
    for (m, metric) in metrics.iter().enumerate() {
        let name = metric.name();
        assert_eq!(batched[m] + declined[m], CASES, "{name}");
        if matches!(name, "emd" | "tv") {
            assert!(
                batched[m] >= CASES * 3 / 4,
                "{name}: {} batched",
                batched[m]
            );
        } else {
            assert_eq!(batched[m], 0, "{name} has no batch form");
        }
    }
    assert!(pairs_checked > 100_000, "{pairs_checked} pairs");
}

/// Histograms whose counts the cached CDF cannot take (a negative count
/// under a positive total, a NaN count): `Emd1d` declines, since its
/// `distance` errs on them; `TotalVariation` takes the finite ones and
/// keeps its bits. A negative total is empty to both.
#[test]
fn batches_decline_counts_their_distance_cannot_take() {
    let spec = BinSpec::equal_width(0.0, 1.0, 4).unwrap();
    let good = Histogram::from_counts(spec.clone(), vec![1.0, 2.0, 0.0, 3.0]);
    let negative = Histogram::from_counts(spec.clone(), vec![2.0, -0.5, 1.0, 0.0]);
    let nan = Histogram::from_counts(spec.clone(), vec![1.0, f64::NAN, 1.0, 0.0]);
    let emd = by_name("emd").unwrap();
    let tv = by_name("tv").unwrap();
    assert!(emd.distance(&good, &negative).is_err());
    assert!(emd.pair_batch(&[&good, &negative]).is_none());
    assert!(emd.pair_batch(&[&good, &nan]).is_none());
    assert!(tv.pair_batch(&[&good, &nan]).is_none());
    let negative_total = Histogram::from_counts(spec.clone(), vec![1.0, -3.0, 0.0, 0.5]);
    for metric in [&emd, &tv] {
        assert_eq!(
            metric.distance(&good, &negative_total),
            Err(DistanceError::EmptyHistogram)
        );
        assert!(metric.pair_batch(&[&good, &negative_total]).is_none());
    }
    let batch = tv.pair_batch(&[&good, &negative]).unwrap();
    let mut row = Vec::new();
    batch.distances_into(0, 1..2, &mut row);
    assert_eq!(
        row[0].to_bits(),
        tv.distance(&good, &negative).unwrap().to_bits()
    );
    // An empty set is declined; a one-histogram set has no pairs.
    assert!(emd.pair_batch(&[]).is_none());
    assert_eq!(emd.pair_batch(&[&good]).unwrap().len(), 1);
}
