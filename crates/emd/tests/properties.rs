//! Property-based tests: the exact solver agrees with the closed form
//! and with the transportation-simplex oracle, and EMD is a metric on
//! normalised histograms.

use fairjob_emd::bounds::{
    cdf_l1_grid, cdf_l1_positions, projection_lower, tv_lower, tv_upper, PrefixCdf,
};
use fairjob_emd::{
    emd_1d_grid, emd_1d_samples, emd_between, emd_cost_in, normalise, simplex, solve_emd,
    solve_emd_in, EmdConfig, GridL1, GroundDistance, PositionsL1, SolveScratch, TransportProblem,
};
use proptest::prelude::*;

/// The dense `n × n` cost matrix of `g`.
fn cost_matrix(g: &impl GroundDistance) -> Vec<Vec<f64>> {
    let n = g.size();
    (0..n)
        .map(|i| (0..n).map(|j| g.cost(i, j)).collect())
        .collect()
}

/// The transportation-simplex oracle's EMD between `a` and `b`, each
/// normalised to unit mass, on the full (uncompacted) cost matrix.
fn oracle(a: &[f64], b: &[f64], costs: &[Vec<f64>]) -> f64 {
    let (na, nb) = (normalise(a).unwrap(), normalise(b).unwrap());
    simplex::solve(&na, &nb, costs).unwrap().cost
}

/// Strategy: a mass vector of length `n` with at least one positive entry.
fn masses(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..10.0, n)
        .prop_filter("non-zero total", |v| v.iter().sum::<f64>() > 1e-6)
}

/// Strategy: a sparse mass vector — each bin is either exactly empty or
/// substantial, so support compaction and degenerate (zero-mass-row)
/// handling both get exercised, including single-bin instances. `len` is
/// a length or a range of lengths.
fn sparse_masses(len: impl Into<prop::collection::SizeRange>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0.0f64..1.0, 0.5f64..10.0), len)
        .prop_map(|v| {
            v.into_iter()
                .map(|(gate, x)| if gate < 0.6 { 0.0 } else { x })
                .collect::<Vec<f64>>()
        })
        .prop_filter("non-zero total", |v| v.iter().sum::<f64>() > 1e-6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn closed_form_matches_flow_solver(a in masses(8), b in masses(8)) {
        let exact = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        // A matrix ground takes the exact solver; a grid config would
        // take the closed form and compare it with itself.
        let m = cost_matrix(&GridL1::new(0.0, 1.0, 8).unwrap());
        let flow = emd_between(&a, &b, &EmdConfig::matrix(m)).unwrap();
        prop_assert!((exact - flow).abs() < 1e-7, "closed={exact} flow={flow}");
    }

    #[test]
    fn closed_form_matches_simplex_solver(a in masses(6), b in masses(6)) {
        let exact = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let simplex = oracle(&a, &b, &cost_matrix(&GridL1::new(0.0, 1.0, 6).unwrap()));
        prop_assert!((exact - simplex).abs() < 1e-7, "closed={exact} simplex={simplex}");
    }

    #[test]
    fn flow_and_simplex_agree_on_arbitrary_metric_grounds(
        a in masses(5),
        b in masses(5),
        pos in prop::collection::vec(0.0f64..100.0, 5),
    ) {
        // |xi - xj| for arbitrary positions is a metric ground distance.
        let m: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..5).map(|j| (pos[i] - pos[j]).abs()).collect())
            .collect();
        let flow = emd_between(&a, &b, &EmdConfig::matrix(m.clone())).unwrap();
        let simplex = oracle(&a, &b, &m);
        prop_assert!((flow - simplex).abs() < 1e-7, "flow={flow} simplex={simplex}");
    }

    #[test]
    fn emd_is_nonnegative_and_bounded(a in masses(10), b in masses(10)) {
        let d = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        prop_assert!(d >= 0.0);
        // Max possible distance: span between extreme bin centres.
        prop_assert!(d <= 0.9 + 1e-12);
    }

    #[test]
    fn emd_symmetry(a in masses(10), b in masses(10)) {
        let d1 = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let d2 = emd_1d_grid(&b, &a, 0.0, 1.0).unwrap();
        prop_assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn emd_identity(a in masses(10)) {
        let d = emd_1d_grid(&a, &a, 0.0, 1.0).unwrap();
        prop_assert!(d.abs() < 1e-12);
    }

    #[test]
    fn emd_triangle_inequality(a in masses(8), b in masses(8), c in masses(8)) {
        let dab = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let dbc = emd_1d_grid(&b, &c, 0.0, 1.0).unwrap();
        let dac = emd_1d_grid(&a, &c, 0.0, 1.0).unwrap();
        prop_assert!(dac <= dab + dbc + 1e-9, "d(a,c)={dac} > d(a,b)+d(b,c)={}", dab + dbc);
    }

    #[test]
    fn scale_invariance_of_normalised_emd(a in masses(6), b in masses(6), k in 0.1f64..50.0) {
        let d1 = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let scaled: Vec<f64> = a.iter().map(|x| x * k).collect();
        let d2 = emd_1d_grid(&scaled, &b, 0.0, 1.0).unwrap();
        prop_assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn sample_emd_matches_fine_histogram_emd(
        xs in prop::collection::vec(0.0f64..1.0, 1..40),
        ys in prop::collection::vec(0.0f64..1.0, 1..40),
    ) {
        // Binning error is bounded by one bin width per side.
        let exact = emd_1d_samples(&xs, &ys).unwrap();
        let bins = 1000usize;
        let mut ha = vec![0.0; bins];
        let mut hb = vec![0.0; bins];
        for &x in &xs { ha[((x * bins as f64) as usize).min(bins - 1)] += 1.0; }
        for &y in &ys { hb[((y * bins as f64) as usize).min(bins - 1)] += 1.0; }
        let approx = emd_1d_grid(&ha, &hb, 0.0, 1.0).unwrap();
        prop_assert!((exact - approx).abs() < 2.0 / bins as f64 + 1e-9,
            "exact={exact} approx={approx}");
    }

    #[test]
    fn normalise_produces_unit_mass(a in masses(12)) {
        let n = normalise(&a).unwrap();
        let t: f64 = n.iter().sum();
        prop_assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn signature_emd_properties(
        pa in prop::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..6),
        pb in prop::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..6),
    ) {
        use fairjob_emd::signature::{diameter, emd_hat, emd_signatures, Signature};
        let a = Signature::new(pa.iter().map(|p| p.0).collect(), pa.iter().map(|p| p.1).collect())
            .unwrap();
        let b = Signature::new(pb.iter().map(|p| p.0).collect(), pb.iter().map(|p| p.1).collect())
            .unwrap();
        // Partial-matching EMD: symmetric, non-negative, zero on self.
        let dab = emd_signatures(&a, &b).unwrap();
        let dba = emd_signatures(&b, &a).unwrap();
        prop_assert!(dab >= -1e-12);
        prop_assert!((dab - dba).abs() < 1e-8);
        prop_assert!(emd_signatures(&a, &a).unwrap().abs() < 1e-9);
        // EMD-hat with penalty >= diameter dominates the matched cost
        // and is symmetric.
        let pen = diameter(&a, &b).max(1.0);
        let hab = emd_hat(&a, &b, pen).unwrap();
        let hba = emd_hat(&b, &a, pen).unwrap();
        prop_assert!((hab - hba).abs() < 1e-8);
        prop_assert!(hab + 1e-9 >= dab * a.total().min(b.total()) / a.total().max(b.total()).max(1.0) * 0.0);
    }

    #[test]
    fn emd_hat_triangle_inequality(
        pa in prop::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..5),
        pb in prop::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..5),
        pc in prop::collection::vec((0.0f64..1.0, 0.1f64..5.0), 1..5),
    ) {
        use fairjob_emd::signature::{emd_hat, Signature};
        let mk = |pts: &[(f64, f64)]| {
            Signature::new(pts.iter().map(|p| p.0).collect(), pts.iter().map(|p| p.1).collect())
                .unwrap()
        };
        let (a, b, c) = (mk(&pa), mk(&pb), mk(&pc));
        // Positions live in [0,1], so penalty 1.0 >= the diameter.
        let ab = emd_hat(&a, &b, 1.0).unwrap();
        let bc = emd_hat(&b, &c, 1.0).unwrap();
        let ac = emd_hat(&a, &c, 1.0).unwrap();
        prop_assert!(ac <= ab + bc + 1e-8, "triangle violated: {ac} > {ab} + {bc}");
    }

    #[test]
    fn cdf_closed_form_is_bit_identical_on_grids(a in masses(10), b in masses(10)) {
        let pa = PrefixCdf::build(&a).unwrap();
        let pb = PrefixCdf::build(&b).unwrap();
        let exact = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let cached = cdf_l1_grid(&pa, &pb, 0.0, 1.0).unwrap();
        prop_assert_eq!(exact.to_bits(), cached.to_bits(),
            "exact={} cached={}", exact, cached);
    }

    #[test]
    fn cdf_closed_form_matches_positions_solver(
        a in masses(8),
        b in masses(8),
        gaps in prop::collection::vec(0.0f64..5.0, 8),
    ) {
        // Arbitrary sorted positions built from non-negative gaps.
        let mut pos = Vec::with_capacity(8);
        let mut x = 0.0;
        for g in gaps { x += g; pos.push(x); }
        let pa = PrefixCdf::build(&a).unwrap();
        let pb = PrefixCdf::build(&b).unwrap();
        let exact = fairjob_emd::emd_1d_positions(&a, &b, &pos).unwrap();
        let cached = cdf_l1_positions(&pa, &pb, &pos).unwrap();
        prop_assert_eq!(exact.to_bits(), cached.to_bits(),
            "exact={} cached={}", exact, cached);
        prop_assert!((exact - cached).abs() <= 1e-12);
    }

    #[test]
    fn bounds_sandwich_exact_emd_on_line_grounds(a in masses(9), b in masses(9)) {
        // 9 bins over [0,1]: centres lo + (i + 0.5)/9.
        let centres: Vec<f64> = (0..9).map(|i| (i as f64 + 0.5) / 9.0).collect();
        let pa = PrefixCdf::build(&a).unwrap();
        let pb = PrefixCdf::build(&b).unwrap();
        let exact = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let lower = projection_lower(&pa, &pb, &centres).unwrap()
            .max(tv_lower(&pa, &pb, 1.0 / 9.0).unwrap());
        let upper = tv_upper(&pa, &pb, centres[8] - centres[0]).unwrap();
        prop_assert!(lower <= exact + 1e-12, "lower {lower} > exact {exact}");
        prop_assert!(exact <= upper + 1e-12, "exact {exact} > upper {upper}");
    }

    #[test]
    fn bounds_sandwich_exact_emd_on_all_grounds(
        a in masses(6),
        b in masses(6),
        t in 0.05f64..1.0,
    ) {
        // The TV sandwich must hold for every ground-distance family the
        // solvers support: plain grid L1, thresholded grid, and a dense
        // matrix ground (here |i - j|^1.5, a metric on indices).
        let pa = PrefixCdf::build(&a).unwrap();
        let pb = PrefixCdf::build(&b).unwrap();
        let width = 1.0 / 6.0;

        let plain = emd_between(&a, &b, &EmdConfig::grid_l1(0.0, 1.0)).unwrap();
        let span = 5.0 * width;
        prop_assert!(tv_lower(&pa, &pb, width).unwrap() <= plain + 1e-9);
        prop_assert!(plain <= tv_upper(&pa, &pb, span).unwrap() + 1e-9);

        let thresh = emd_between(&a, &b, &EmdConfig::thresholded_grid(0.0, 1.0, t)).unwrap();
        prop_assert!(tv_lower(&pa, &pb, width.min(t)).unwrap() <= thresh + 1e-9);
        prop_assert!(thresh <= tv_upper(&pa, &pb, span.min(t)).unwrap() + 1e-9);

        let m: Vec<Vec<f64>> = (0..6)
            .map(|i| (0..6).map(|j| ((i as f64) - (j as f64)).abs().powf(1.5)).collect())
            .collect();
        let matrix = emd_between(&a, &b, &EmdConfig::matrix(m)).unwrap();
        let d_max = 5.0f64.powf(1.5);
        prop_assert!(tv_lower(&pa, &pb, 1.0).unwrap() <= matrix + 1e-9);
        prop_assert!(matrix <= tv_upper(&pa, &pb, d_max).unwrap() + 1e-9);
    }

    #[test]
    fn flow_and_simplex_agree_on_sparse_degenerate_instances(
        a in sparse_masses(7),
        b in sparse_masses(7),
        pos_idx in prop::collection::vec(0usize..4, 7),
    ) {
        // Positions drawn from only four distinct values: duplicates give
        // zero-cost edges and massively degenerate optimal plans, the
        // worst case for solver agreement.
        let levels = [0.0, 0.25, 0.5, 1.0];
        let pos: Vec<f64> = pos_idx.iter().map(|&i| levels[i]).collect();
        let g = PositionsL1::new(pos);
        let na = normalise(&a).unwrap();
        let nb = normalise(&b).unwrap();
        let f = solve_emd(&na, &nb, &g).unwrap();
        let s = oracle(&a, &b, &cost_matrix(&g));
        prop_assert!((f.cost - s).abs() < 1e-9, "flow={} simplex={s}", f.cost);
    }

    #[test]
    fn compacted_solve_matches_uncompacted_problem(
        a in sparse_masses(6),
        b in sparse_masses(6),
    ) {
        // solve_emd compacts onto the non-empty supports; a raw
        // TransportProblem keeps the zero-mass rows/columns until its own
        // solve compacts them, and the oracle never drops them. The
        // optimum must not depend on which formulation ran.
        let na = normalise(&a).unwrap();
        let nb = normalise(&b).unwrap();
        let g = GridL1::new(0.0, 1.0, 6).unwrap();
        let p = TransportProblem {
            supplies: na.clone(),
            demands: nb.clone(),
            costs: cost_matrix(&g),
        };
        let compacted = solve_emd(&na, &nb, &g).unwrap();
        let full = p.solve().unwrap();
        prop_assert_eq!(compacted.cost.to_bits(), full.cost.to_bits(),
            "compacted={} full={}", compacted.cost, full.cost);
        prop_assert_eq!(&compacted.flows, &full.flows);
        let s = simplex::solve(&p.supplies, &p.demands, &p.costs).unwrap().cost;
        prop_assert!((compacted.cost - s).abs() < 1e-9, "compacted={} simplex={s}", compacted.cost);
    }

    #[test]
    fn rectangular_problems_with_empty_rows_match_the_oracle(
        sup in sparse_masses(1..7),
        dem in sparse_masses(1..7),
        grid in prop::collection::vec(0.0f64..10.0, 36),
    ) {
        // Arbitrary m × n instances (m ≠ n included) whose zero rows and
        // columns the solve must compact away.
        let supplies = normalise(&sup).unwrap();
        let demands = normalise(&dem).unwrap();
        let costs: Vec<Vec<f64>> = (0..supplies.len())
            .map(|i| (0..demands.len()).map(|j| grid[i * 6 + j]).collect())
            .collect();
        let p = TransportProblem { supplies, demands, costs };
        let sol = p.solve().unwrap();
        let s = simplex::solve(&p.supplies, &p.demands, &p.costs).unwrap().cost;
        prop_assert!((sol.cost - s).abs() < 1e-9, "kernel={} simplex={s}", sol.cost);
        let mut out = vec![0.0; p.supplies.len()];
        let mut inn = vec![0.0; p.demands.len()];
        for &(i, j, f) in &sol.flows {
            out[i] += f;
            inn[j] += f;
        }
        for (i, (&got, &want)) in out.iter().zip(&p.supplies).enumerate() {
            prop_assert!((got - want).abs() < 1e-9, "supply {i}: shipped {got} of {want}");
        }
        for (j, (&got, &want)) in inn.iter().zip(&p.demands).enumerate() {
            prop_assert!((got - want).abs() < 1e-9, "demand {j}: received {got} of {want}");
        }
    }

    #[test]
    fn arena_scratch_is_bit_identical_to_legacy_path(
        pairs in prop::collection::vec((sparse_masses(6), sparse_masses(6)), 1..5),
    ) {
        // One long-lived scratch across pairs must reproduce the
        // fresh-scratch path bit for bit, flows included.
        let g = GridL1::new(0.0, 1.0, 6).unwrap();
        let mut scratch = SolveScratch::new();
        for (a, b) in &pairs {
            let na = normalise(a).unwrap();
            let nb = normalise(b).unwrap();
            let fresh = solve_emd(&na, &nb, &g).unwrap();
            let reused = solve_emd_in(&mut scratch, &na, &nb, &g).unwrap();
            prop_assert_eq!(fresh.cost.to_bits(), reused.cost.to_bits(),
                "fresh={} reused={}", fresh.cost, reused.cost);
            prop_assert_eq!(&fresh.flows, &reused.flows);
        }
    }

    #[test]
    fn warm_replay_is_bit_identical_to_cold(
        mask in prop::collection::vec(0.0f64..1.0, 6)
            .prop_map(|v| v.into_iter().map(|g| g < 0.5).collect::<Vec<bool>>()),
        vals in prop::collection::vec(prop::collection::vec(0.5f64..10.0, 6), 2..6),
    ) {
        // Every histogram shares one support pattern, so each solve after
        // the first replays the previous round-1 Dijkstra — and must
        // still match a cold solve bit for bit.
        prop_assume!(mask.iter().any(|&m| m));
        let g = GridL1::new(0.0, 1.0, 6).unwrap();
        let hists: Vec<Vec<f64>> = vals
            .iter()
            .map(|v| {
                let raw: Vec<f64> = v
                    .iter()
                    .zip(&mask)
                    .map(|(&x, &m)| if m { x } else { 0.0 })
                    .collect();
                normalise(&raw).unwrap()
            })
            .collect();
        let mut warm = SolveScratch::new();
        warm.begin_chunk();
        for w in hists.windows(2) {
            let hot = emd_cost_in(&mut warm, &w[0], &w[1], &g).unwrap();
            let cold = emd_cost_in(&mut SolveScratch::new(), &w[0], &w[1], &g).unwrap();
            prop_assert_eq!(hot.to_bits(), cold.to_bits(), "hot={} cold={}", hot, cold);
        }
        // Solves 2..k share supports and costs with their predecessor.
        prop_assert_eq!(warm.stats().warm_starts as usize, hists.len() - 2);
        prop_assert_eq!(warm.stats().scratch_reuses as usize, hists.len() - 2);
    }

    #[test]
    fn thresholded_emd_never_exceeds_plain_emd(a in masses(8), b in masses(8), t in 0.01f64..1.0) {
        let plain = emd_between(&a, &b, &EmdConfig::grid_l1(0.0, 1.0)).unwrap();
        let thresh = emd_between(&a, &b, &EmdConfig::thresholded_grid(0.0, 1.0, t)).unwrap();
        prop_assert!(thresh <= plain + 1e-9, "thresholded {thresh} > plain {plain}");
        prop_assert!(thresh <= t + 1e-9, "thresholded EMD exceeds the threshold");
    }
}
