//! Closed-form one-dimensional Earth Mover's Distance.
//!
//! On the real line with ground distance `|x - y|`, the EMD between two
//! unit-mass distributions equals the L1 distance between their cumulative
//! distribution functions (a classical result; see e.g. Vallender 1974 for
//! the Wasserstein-1 identity). For histograms on a shared grid this is a
//! single pass over the bins, which is what makes exploring thousands of
//! candidate partitionings feasible for the auditing algorithms.

use crate::EmdError;

/// EMD between two histograms on a shared equal-width grid over `[lo, hi]`.
///
/// Bin `i` of `n` is centred at `lo + (i + 0.5) * (hi - lo) / n`, so the
/// returned distance is in the same units as the score axis (for scores in
/// `[0, 1]` the EMD is itself in `[0, 1 - 1/n]`).
///
/// Inputs are normalised to unit mass internally; they may be raw counts.
///
/// # Errors
///
/// * [`EmdError::LengthMismatch`] / [`EmdError::Empty`] on shape problems.
/// * [`EmdError::BadGrid`] when `lo >= hi`.
/// * [`EmdError::ZeroMass`], [`EmdError::Negative`], [`EmdError::NonFinite`]
///   on invalid masses.
// `!(lo < hi)` deliberately treats NaN bounds as invalid.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn emd_1d_grid(a: &[f64], b: &[f64], lo: f64, hi: f64) -> Result<f64, EmdError> {
    if a.len() != b.len() {
        return Err(EmdError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(EmdError::Empty);
    }
    if !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
        return Err(EmdError::BadGrid {
            reason: "require finite lo < hi",
        });
    }
    crate::validate_masses(a)?;
    crate::validate_masses(b)?;
    let (ta, tb) = (crate::total(a), crate::total(b));
    crate::validate_total(ta)?;
    crate::validate_total(tb)?;
    // EMD = sum over the n-1 interior cut points of |CDF_a - CDF_b| * bin_width.
    let width = (hi - lo) / a.len() as f64;
    let mut ca = 0.0;
    let mut cb = 0.0;
    let mut acc = 0.0;
    for i in 0..a.len() - 1 {
        ca += a[i] / ta;
        cb += b[i] / tb;
        acc += (ca - cb).abs();
    }
    Ok(acc * width)
}

/// EMD between two weight vectors located at shared, **sorted** 1-D
/// positions with ground distance `|xi - xj|`.
///
/// Inputs are normalised internally. Positions must be non-decreasing;
/// this is debug-asserted (the public [`crate::emd_between`] entry point
/// checks it and falls back to an exact solver when violated).
///
/// # Errors
///
/// Same validation failures as [`emd_1d_grid`].
pub fn emd_1d_positions(a: &[f64], b: &[f64], positions: &[f64]) -> Result<f64, EmdError> {
    if a.len() != b.len() {
        return Err(EmdError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.len() != positions.len() {
        return Err(EmdError::LengthMismatch {
            left: a.len(),
            right: positions.len(),
        });
    }
    if a.is_empty() {
        return Err(EmdError::Empty);
    }
    debug_assert!(
        positions.windows(2).all(|w| w[0] <= w[1]),
        "positions must be sorted"
    );
    crate::validate_masses(a)?;
    crate::validate_masses(b)?;
    for (i, &p) in positions.iter().enumerate() {
        if !p.is_finite() {
            return Err(EmdError::NonFinite { index: i, value: p });
        }
    }
    let (ta, tb) = (crate::total(a), crate::total(b));
    crate::validate_total(ta)?;
    crate::validate_total(tb)?;
    // Between consecutive positions, |CDF_a - CDF_b| mass must travel the gap.
    let mut ca = 0.0;
    let mut cb = 0.0;
    let mut acc = 0.0;
    for i in 0..a.len() - 1 {
        ca += a[i] / ta;
        cb += b[i] / tb;
        acc += (ca - cb).abs() * (positions[i + 1] - positions[i]);
    }
    Ok(acc)
}

/// EMD (Wasserstein-1) between two raw sample sets on the line.
///
/// No binning: this is the exact distance between the two empirical
/// distributions, the binning-free oracle the property tests check
/// [`emd_1d_grid`] against. Samples need not be sorted and the two sets
/// may have different sizes.
///
/// # Errors
///
/// [`EmdError::Empty`] when either set is empty; [`EmdError::NonFinite`]
/// on NaN/infinite samples.
pub fn emd_1d_samples(xs: &[f64], ys: &[f64]) -> Result<f64, EmdError> {
    if xs.is_empty() || ys.is_empty() {
        return Err(EmdError::Empty);
    }
    for (i, &v) in xs.iter().enumerate() {
        if !v.is_finite() {
            return Err(EmdError::NonFinite { index: i, value: v });
        }
    }
    for (i, &v) in ys.iter().enumerate() {
        if !v.is_finite() {
            return Err(EmdError::NonFinite { index: i, value: v });
        }
    }
    let mut xs = xs.to_vec();
    let mut ys = ys.to_vec();
    xs.sort_by(|p, q| p.partial_cmp(q).expect("finite"));
    ys.sort_by(|p, q| p.partial_cmp(q).expect("finite"));
    // Sweep the merged support; between consecutive events, the CDF gap is
    // constant and contributes gap * |F_x - F_y|.
    let (nx, ny) = (xs.len() as f64, ys.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut acc = 0.0;
    let mut prev = xs[0].min(ys[0]);
    while i < xs.len() || j < ys.len() {
        let next = match (xs.get(i), ys.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => unreachable!(),
        };
        let fx = i as f64 / nx;
        let fy = j as f64 / ny;
        acc += (fx - fy).abs() * (next - prev);
        prev = next;
        while i < xs.len() && xs[i] <= next {
            i += 1;
        }
        while j < ys.len() && ys[j] <= next {
            j += 1;
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn point_masses_at_opposite_ends() {
        // 10 bins over [0,1]: centres 0.05 and 0.95.
        let mut a = vec![0.0; 10];
        let mut b = vec![0.0; 10];
        a[0] = 1.0;
        b[9] = 1.0;
        let d = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        assert!(close(d, 0.9));
    }

    #[test]
    fn adjacent_bins_cost_one_bin_width() {
        let a = [1.0, 0.0, 0.0, 0.0];
        let b = [0.0, 1.0, 0.0, 0.0];
        let d = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        assert!(close(d, 0.25));
    }

    #[test]
    fn grid_range_scales_distance() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        let d01 = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let d0100 = emd_1d_grid(&a, &b, 0.0, 100.0).unwrap();
        assert!(close(d0100, d01 * 100.0));
    }

    #[test]
    fn counts_and_frequencies_agree() {
        let counts = [3.0, 5.0, 2.0, 0.0];
        let freqs = [0.3, 0.5, 0.2, 0.0];
        let other = [0.0, 1.0, 4.0, 5.0];
        let d1 = emd_1d_grid(&counts, &other, 0.0, 1.0).unwrap();
        let d2 = emd_1d_grid(&freqs, &other, 0.0, 1.0).unwrap();
        assert!(close(d1, d2));
    }

    #[test]
    fn symmetry() {
        let a = [0.1, 0.4, 0.3, 0.2];
        let b = [0.7, 0.1, 0.1, 0.1];
        let d1 = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let d2 = emd_1d_grid(&b, &a, 0.0, 1.0).unwrap();
        assert!(close(d1, d2));
    }

    #[test]
    fn identity_of_indiscernibles() {
        let a = [0.1, 0.4, 0.3, 0.2];
        assert!(close(emd_1d_grid(&a, &a, 0.0, 1.0).unwrap(), 0.0));
    }

    #[test]
    fn bad_grid_rejected() {
        let a = [1.0];
        assert!(matches!(
            emd_1d_grid(&a, &a, 1.0, 0.0),
            Err(EmdError::BadGrid { .. })
        ));
        assert!(matches!(
            emd_1d_grid(&a, &a, f64::NAN, 1.0),
            Err(EmdError::BadGrid { .. })
        ));
    }

    #[test]
    fn single_bin_distance_is_zero() {
        // With one bin everything is in the same place.
        let d = emd_1d_grid(&[5.0], &[2.0], 0.0, 1.0).unwrap();
        assert!(close(d, 0.0));
    }

    #[test]
    fn positions_variant_matches_grid_on_centres() {
        let a = [0.2, 0.3, 0.5, 0.0];
        let b = [0.0, 0.1, 0.2, 0.7];
        let centres: Vec<f64> = (0..4).map(|i| (i as f64 + 0.5) / 4.0).collect();
        let dg = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let dp = emd_1d_positions(&a, &b, &centres).unwrap();
        assert!(close(dg, dp));
    }

    #[test]
    fn positions_with_uneven_spacing() {
        // All mass moves from 0.0 to 10.0.
        let d = emd_1d_positions(&[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 1.0, 10.0]).unwrap();
        assert!(close(d, 10.0));
    }

    #[test]
    fn samples_exact_wasserstein() {
        // {0, 0} vs {1, 1}: every unit travels 1.
        assert!(close(
            emd_1d_samples(&[0.0, 0.0], &[1.0, 1.0]).unwrap(),
            1.0
        ));
        // {0, 1} vs {0, 1}: identical.
        assert!(close(
            emd_1d_samples(&[0.0, 1.0], &[1.0, 0.0]).unwrap(),
            0.0
        ));
        // {0} vs {0, 1}: half the mass travels 1.
        assert!(close(emd_1d_samples(&[0.0], &[0.0, 1.0]).unwrap(), 0.5));
    }

    #[test]
    fn samples_unsorted_input_ok() {
        let d1 = emd_1d_samples(&[0.9, 0.1, 0.5], &[0.2, 0.8, 0.4]).unwrap();
        let d2 = emd_1d_samples(&[0.1, 0.5, 0.9], &[0.8, 0.4, 0.2]).unwrap();
        assert!(close(d1, d2));
    }

    #[test]
    fn samples_reject_nan() {
        assert!(matches!(
            emd_1d_samples(&[f64::NAN], &[0.0]),
            Err(EmdError::NonFinite { index: 0, .. })
        ));
    }

    #[test]
    fn samples_duplicate_heavy_inputs() {
        let xs = vec![0.25; 100];
        let ys = vec![0.75; 50];
        assert!(close(emd_1d_samples(&xs, &ys).unwrap(), 0.5));
    }

    #[test]
    fn positions_length_mismatch_reports_the_offending_side() {
        // a vs b mismatch reports b's length...
        assert!(matches!(
            emd_1d_positions(&[1.0, 1.0], &[1.0, 1.0, 1.0], &[0.0, 0.5]),
            Err(EmdError::LengthMismatch { left: 2, right: 3 })
        ));
        // ...and a vs positions mismatch reports positions' length, not
        // max(b.len(), positions.len()).
        assert!(matches!(
            emd_1d_positions(&[1.0, 1.0], &[1.0, 1.0], &[0.0, 0.5, 1.0, 1.5]),
            Err(EmdError::LengthMismatch { left: 2, right: 4 })
        ));
    }

    #[test]
    fn overflowing_totals_are_rejected_not_zeroed() {
        // Every entry is finite, but the totals overflow to +inf; dividing
        // by them used to zero both CDFs and return a silent 0.0.
        let huge = [1e308, 1e308];
        let other = [1.0, 0.0];
        assert!(matches!(
            emd_1d_grid(&huge, &other, 0.0, 1.0),
            Err(EmdError::NonFiniteTotal { .. })
        ));
        assert!(matches!(
            emd_1d_grid(&other, &huge, 0.0, 1.0),
            Err(EmdError::NonFiniteTotal { .. })
        ));
        assert!(matches!(
            emd_1d_positions(&huge, &other, &[0.0, 1.0]),
            Err(EmdError::NonFiniteTotal { .. })
        ));
        assert!(matches!(
            crate::normalise(&huge),
            Err(EmdError::NonFiniteTotal { .. })
        ));
    }

    #[test]
    fn grid_emd_upper_bound() {
        // EMD over [0,1] can never exceed the span between extreme centres.
        let a = [1.0, 0.0, 0.0, 0.0, 0.0];
        let b = [0.0, 0.0, 0.0, 0.0, 1.0];
        let d = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        assert!(d <= 1.0 - 1.0 / 5.0 + 1e-12);
    }
}
