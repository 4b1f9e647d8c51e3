//! Property-based tests for histograms and histogram distances.

use fairjob_hist::distance::{
    all_symmetric_distances, Emd1d, EmdExact, EmdThresholded, HistogramDistance, JensenShannon,
    TotalVariation,
};
use fairjob_hist::{BinSpec, Histogram};
use proptest::prelude::*;

fn values(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, 1..max_len)
}

fn hist(spec: &BinSpec, vals: &[f64]) -> Histogram {
    Histogram::from_values(spec.clone(), vals.iter().copied())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_value_lands_in_exactly_one_bin(vals in values(64), n in 1usize..32) {
        let spec = BinSpec::equal_width(0.0, 1.0, n).unwrap();
        let h = hist(&spec, &vals);
        prop_assert_eq!(h.total() as usize, vals.len());
    }

    #[test]
    fn merge_equals_concatenation(a in values(32), b in values(32)) {
        let spec = BinSpec::equal_width(0.0, 1.0, 10).unwrap();
        let mut ha = hist(&spec, &a);
        let hb = hist(&spec, &b);
        ha.merge(&hb);
        let mut both = a.clone();
        both.extend_from_slice(&b);
        let hc = hist(&spec, &both);
        prop_assert_eq!(ha.counts(), hc.counts());
    }

    #[test]
    fn all_distances_are_metric_like(a in values(48), b in values(48), c in values(48)) {
        let spec = BinSpec::equal_width(0.0, 1.0, 8).unwrap();
        let (ha, hb, hc) = (hist(&spec, &a), hist(&spec, &b), hist(&spec, &c));
        for dist in all_symmetric_distances() {
            let dab = dist.distance(&ha, &hb).unwrap();
            let dba = dist.distance(&hb, &ha).unwrap();
            prop_assert!(dab >= 0.0, "{} negative", dist.name());
            prop_assert!((dab - dba).abs() < 1e-9, "{} asymmetric", dist.name());
            let daa = dist.distance(&ha, &ha).unwrap();
            // sqrt in Hellinger amplifies 1e-16 rounding to ~1e-8.
            prop_assert!(daa.abs() < 1e-7, "{} self-distance {daa}", dist.name());
            // Triangle inequality for the true metrics (EMD, TV, Hellinger, KS).
            if matches!(dist.name(), "emd" | "tv" | "hellinger" | "ks") {
                let dbc = dist.distance(&hb, &hc).unwrap();
                let dac = dist.distance(&ha, &hc).unwrap();
                prop_assert!(dac <= dab + dbc + 1e-9, "{} triangle violated", dist.name());
            }
        }
    }

    #[test]
    fn emd_closed_form_matches_solvers(a in values(48), b in values(48)) {
        let spec = BinSpec::equal_width(0.0, 1.0, 8).unwrap();
        let (ha, hb) = (hist(&spec, &a), hist(&spec, &b));
        let closed = Emd1d.distance(&ha, &hb).unwrap();
        let exact = EmdExact.distance(&ha, &hb).unwrap();
        prop_assert!((closed - exact).abs() < 1e-8, "kernel: {closed} vs {exact}");
        // The transportation-simplex oracle on the full centre-distance
        // matrix.
        let (fa, fb) = (ha.frequencies().unwrap(), hb.frequencies().unwrap());
        let centres = spec.centres();
        let costs: Vec<Vec<f64>> = centres
            .iter()
            .map(|x| centres.iter().map(|y| (x - y).abs()).collect())
            .collect();
        let oracle = fairjob_emd::simplex::solve(&fa, &fb, &costs).unwrap().cost;
        prop_assert!((closed - oracle).abs() < 1e-8, "simplex: {closed} vs {oracle}");
    }

    #[test]
    fn emd_bounded_by_tv_times_span(a in values(48), b in values(48)) {
        // EMD <= TV * (max distance between bin centres): moving mass can
        // never cost more than moving the whole differing mass end to end.
        let spec = BinSpec::equal_width(0.0, 1.0, 10).unwrap();
        let (ha, hb) = (hist(&spec, &a), hist(&spec, &b));
        let emd = Emd1d.distance(&ha, &hb).unwrap();
        let tv = TotalVariation.distance(&ha, &hb).unwrap();
        prop_assert!(emd <= tv * 0.9 + 1e-9, "emd={emd} tv={tv}");
    }

    #[test]
    fn emd1d_bounds_are_bitwise_exact(a in values(48), b in values(48), n in 2usize..16) {
        // `bounds` and `distance` both read the cached CDFs; the
        // reference is the closed form over freshly normalised
        // frequencies.
        let spec = BinSpec::equal_width(0.0, 1.0, n).unwrap();
        let (ha, hb) = (hist(&spec, &a), hist(&spec, &b));
        let (fa, fb) = (ha.frequencies().unwrap(), hb.frequencies().unwrap());
        let want = fairjob_emd::emd_1d_grid(&fa, &fb, 0.0, 1.0).unwrap();
        let bd = Emd1d.bounds(&ha, &hb).unwrap();
        let d = Emd1d.distance(&ha, &hb).unwrap();
        prop_assert!(bd.exact);
        prop_assert_eq!(bd.lower.to_bits(), want.to_bits(), "lower={} want={}", bd.lower, want);
        prop_assert_eq!(bd.upper.to_bits(), want.to_bits(), "upper={} want={}", bd.upper, want);
        prop_assert_eq!(d.to_bits(), want.to_bits(), "distance={} want={}", d, want);
    }

    #[test]
    fn all_bound_providers_sandwich_their_distance(
        a in values(48),
        b in values(48),
        t in 0.05f64..1.0,
    ) {
        let spec = BinSpec::equal_width(0.0, 1.0, 8).unwrap();
        let (ha, hb) = (hist(&spec, &a), hist(&spec, &b));
        let dists: Vec<Box<dyn HistogramDistance>> = vec![
            Box::new(Emd1d),
            Box::new(EmdExact),
            Box::new(EmdThresholded { threshold: t }),
        ];
        for dist in dists {
            let bd = dist.bounds(&ha, &hb).expect("bounds available");
            let d = dist.distance(&ha, &hb).unwrap();
            prop_assert!(bd.lower <= d + 1e-9,
                "{}: lower {} > exact {}", dist.name(), bd.lower, d);
            prop_assert!(d <= bd.upper + 1e-9,
                "{}: exact {} > upper {}", dist.name(), d, bd.upper);
        }
    }

    #[test]
    fn jsd_at_most_one(a in values(48), b in values(48)) {
        let spec = BinSpec::equal_width(0.0, 1.0, 10).unwrap();
        let d = JensenShannon.distance(&hist(&spec, &a), &hist(&spec, &b)).unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d));
    }

    #[test]
    fn cdf_monotone(vals in values(64)) {
        let spec = BinSpec::equal_width(0.0, 1.0, 12).unwrap();
        let cdf = hist(&spec, &vals).cdf().unwrap();
        for w in cdf.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        prop_assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
    }
}
