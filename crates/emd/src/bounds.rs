//! Cheap, provably-correct bounds on the Earth Mover's Distance.
//!
//! The fairness audits evaluate Definition 2 — the average pairwise EMD
//! over per-partition score histograms — millions of times, and most of
//! those pairs are only looked at to be discarded (a losing candidate
//! partitioning, a pair whose distance is dominated by others). This
//! module provides the screening primitives that let the evaluation
//! engine's candidate screen in `fairjob-core` bound such pairs without
//! running an exact solver:
//!
//! * [`PrefixCdf`] — a reusable prefix-CDF, built once per histogram and
//!   shared across every pair the histogram participates in. For 1-D L1
//!   grounds the L1 distance between two prefix CDFs *is* the EMD
//!   (Vallender's identity), so [`cdf_l1_grid`] / [`cdf_l1_positions`]
//!   are exact — and, by construction, **bit-identical** to
//!   [`crate::emd_1d_grid`] / [`crate::emd_1d_positions`]: the
//!   normalisation and accumulation run in the same floating-point
//!   operation order.
//! * [`projection_lower`] — the mean-difference (projection) lower bound
//!   `|E_a[x] - E_b[x]| <= W1(a, b)`: any transport plan moves the mean
//!   by at most the mass-weighted distance it pays.
//! * [`tv_upper`] / [`tv_lower`] — total-variation sandwich
//!   `TV(a, b) * d_min <= EMD(a, b) <= TV(a, b) * d_max` for any ground
//!   distance bounded by `d_min`/`d_max` off the diagonal: an optimal
//!   plan moves exactly the differing mass `TV(a, b)`, and each unit of
//!   it costs between `d_min` and `d_max`. This is the bound family that
//!   makes Pele–Werman thresholded grounds screenable.
//!
//! Every bound is validated against the exact solvers by proptest
//! (`tests/properties.rs`).
//!
//! # Floating-point order policy
//!
//! Two classes of reduction live here, with different guarantees:
//!
//! * **Exact closed forms** ([`PrefixCdf::build`]'s prefix sum,
//!   [`cdf_l1_grid`], [`cdf_l1_positions`]) accumulate serially in
//!   index order — the *same* operation order as the exact solvers —
//!   and are asserted bit-identical to them.
//! * **Screening bounds** ([`tv_between`], [`PrefixCdf::mean`] and so
//!   [`projection_lower`], [`tv_upper`], [`tv_lower`]) are restructured
//!   into fixed-width lanes for instruction-level parallelism. They are
//!   deterministic (grouping depends only on bin count, never thread
//!   count) but **not** bit-identical to a serial sum; consumers treat
//!   them strictly as bounds with a pruning margin, so audit results
//!   remain bit-identical anyway.

use crate::EmdError;

/// A normalised mass vector together with its prefix CDF.
///
/// `norm[i]` is `masses[i] / total(masses)` and `cdf[i]` is the running
/// sum of `norm[..=i]`, accumulated in index order — exactly the
/// operations [`crate::emd_1d_grid`] performs internally, so closed
/// forms computed from two `PrefixCdf`s reproduce the exact solver
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixCdf {
    norm: Vec<f64>,
    cdf: Vec<f64>,
}

impl PrefixCdf {
    /// Build the prefix CDF of a mass vector (counts or frequencies).
    ///
    /// # Errors
    ///
    /// Same validation failures as [`crate::emd_1d_grid`]: empty input,
    /// negative/non-finite entries, zero or overflowing total.
    pub fn build(masses: &[f64]) -> Result<PrefixCdf, EmdError> {
        if masses.is_empty() {
            return Err(EmdError::Empty);
        }
        crate::validate_masses(masses)?;
        let t = crate::total(masses);
        crate::validate_total(t)?;
        // Two passes instead of one interleaved loop: the normalisation
        // is elementwise (`m / t`, vectorizable), while the prefix sum
        // stays a serial dependency chain. Each value still undergoes
        // exactly `m / t` then `acc += f` in index order, so the split
        // is bit-identical to the interleaved build — and therefore to
        // [`crate::emd_1d_grid`]'s internal accumulation (asserted by
        // the `*_bit_identical_to_exact` tests below).
        let norm: Vec<f64> = masses.iter().map(|&m| m / t).collect();
        let mut cdf = Vec::with_capacity(masses.len());
        let mut acc = 0.0;
        for &f in &norm {
            acc += f;
            cdf.push(acc);
        }
        Ok(PrefixCdf { norm, cdf })
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.norm.len()
    }

    /// True when there are no bins (never, for a successfully built CDF).
    pub fn is_empty(&self) -> bool {
        self.norm.is_empty()
    }

    /// The normalised masses.
    pub fn norm(&self) -> &[f64] {
        &self.norm
    }

    /// The prefix CDF values.
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// Mass-weighted mean position, given one position per bin.
    ///
    /// Accumulated in `LANES` independent lanes (see the module note
    /// on lane-restructured reductions): deterministic for a given
    /// input, but *not* bit-identical to a serial left-to-right sum.
    /// Feeds only the projection *bound*, never an exact distance.
    pub fn mean(&self, positions: &[f64]) -> f64 {
        lane_sum(self.norm.iter().zip(positions).map(|(f, x)| f * x))
    }
}

/// Lane width of the restructured bound reductions. Four independent
/// accumulators break the serial add dependency chain so the compiler
/// can keep multiple FMAs in flight (and vectorize where profitable).
const LANES: usize = 4;

/// Sum an iterator in [`LANES`] round-robin lanes, combining the lanes
/// pairwise at the end. The grouping depends only on the element count,
/// so the result is **deterministic** (same inputs ⇒ same bits, at any
/// thread count) but differs from the serial sum by normal rounding
/// reassociation. Only the inexact screening bounds use this; the exact
/// closed forms ([`cdf_l1_grid`] / [`cdf_l1_positions`]) keep their
/// serial order, which bit-identity tests assert.
fn lane_sum(values: impl Iterator<Item = f64>) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut lane = 0usize;
    for v in values {
        lanes[lane] += v;
        lane = (lane + 1) % LANES;
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

fn check_pair(a: &PrefixCdf, b: &PrefixCdf) -> Result<(), EmdError> {
    if a.len() != b.len() {
        return Err(EmdError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(())
}

/// Exact 1-D EMD on an equal-width grid over `[lo, hi]`, computed from
/// two cached prefix CDFs.
///
/// Bit-identical to [`crate::emd_1d_grid`] called on the same mass
/// vectors: both accumulate `|CDF_a[i] - CDF_b[i]|` over the `n - 1`
/// interior cuts in index order and multiply by the bin width once.
///
/// # Errors
///
/// [`EmdError::LengthMismatch`] on differing bin counts and
/// [`EmdError::BadGrid`] unless `lo < hi` with both finite.
// `!(lo < hi)` deliberately treats NaN bounds as invalid.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn cdf_l1_grid(a: &PrefixCdf, b: &PrefixCdf, lo: f64, hi: f64) -> Result<f64, EmdError> {
    check_pair(a, b)?;
    if !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
        return Err(EmdError::BadGrid {
            reason: "require finite lo < hi",
        });
    }
    let n = a.len();
    let width = (hi - lo) / n as f64;
    let mut acc = 0.0;
    for i in 0..n - 1 {
        acc += (a.cdf[i] - b.cdf[i]).abs();
    }
    Ok(acc * width)
}

/// Exact 1-D EMD at shared sorted positions, computed from two cached
/// prefix CDFs. Bit-identical to [`crate::emd_1d_positions`].
///
/// # Errors
///
/// [`EmdError::LengthMismatch`] on shape problems,
/// [`EmdError::NonFinite`] on non-finite positions.
pub fn cdf_l1_positions(a: &PrefixCdf, b: &PrefixCdf, positions: &[f64]) -> Result<f64, EmdError> {
    check_pair(a, b)?;
    if a.len() != positions.len() {
        return Err(EmdError::LengthMismatch {
            left: a.len(),
            right: positions.len(),
        });
    }
    for (i, &p) in positions.iter().enumerate() {
        if !p.is_finite() {
            return Err(EmdError::NonFinite { index: i, value: p });
        }
    }
    debug_assert!(
        positions.windows(2).all(|w| w[0] <= w[1]),
        "positions must be sorted"
    );
    let mut acc = 0.0;
    for i in 0..a.len() - 1 {
        acc += (a.cdf[i] - b.cdf[i]).abs() * (positions[i + 1] - positions[i]);
    }
    Ok(acc)
}

/// Total variation distance `0.5 * sum_i |a_i - b_i|` between two
/// normalised mass vectors.
///
/// Lane-restructured (see `lane_sum`): deterministic but not
/// order-identical to a serial sum. TV feeds only the sandwich
/// *bounds*; screening decisions downstream carry an explicit pruning
/// margin, so a last-ulp difference in a bound never changes which
/// pairs get solved exactly.
pub fn tv_between(a: &PrefixCdf, b: &PrefixCdf) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    0.5 * lane_sum(a.norm.iter().zip(&b.norm).map(|(x, y)| (x - y).abs()))
}

/// Mean-difference (projection) lower bound on the EMD with ground
/// distance `|x_i - x_j|` at the given positions.
///
/// Any transport plan that moves mass `m` over distance `d` changes the
/// mean by at most `m * d`, so the total cost is at least the absolute
/// mean shift: `|E_a[x] - E_b[x]| <= W1(a, b)`.
pub fn projection_lower(a: &PrefixCdf, b: &PrefixCdf, positions: &[f64]) -> Result<f64, EmdError> {
    check_pair(a, b)?;
    if a.len() != positions.len() {
        return Err(EmdError::LengthMismatch {
            left: a.len(),
            right: positions.len(),
        });
    }
    Ok((a.mean(positions) - b.mean(positions)).abs())
}

/// Total-variation upper bound `TV(a, b) * d_max` on the EMD under any
/// ground distance whose off-diagonal costs are at most `d_max`.
///
/// An optimal plan leaves `min(a_i, b_i)` in place in every bin, so it
/// transports exactly `TV(a, b)` mass, each unit costing at most
/// `d_max`.
pub fn tv_upper(a: &PrefixCdf, b: &PrefixCdf, d_max: f64) -> Result<f64, EmdError> {
    check_pair(a, b)?;
    Ok(tv_between(a, b) * d_max)
}

/// Total-variation lower bound `TV(a, b) * d_min` on the EMD under any
/// ground distance whose off-diagonal costs are at least `d_min`.
///
/// At least `TV(a, b)` mass must move between distinct bins (less would
/// leave some bin's surplus unplaced), and each moved unit costs at
/// least `d_min`.
pub fn tv_lower(a: &PrefixCdf, b: &PrefixCdf, d_min: f64) -> Result<f64, EmdError> {
    check_pair(a, b)?;
    Ok(tv_between(a, b) * d_min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{emd_1d_grid, emd_1d_positions};

    #[test]
    fn grid_closed_form_is_bit_identical_to_exact() {
        let a = [3.0, 5.0, 2.0, 0.0, 1.0];
        let b = [0.0, 1.0, 4.0, 5.0, 0.5];
        let pa = PrefixCdf::build(&a).unwrap();
        let pb = PrefixCdf::build(&b).unwrap();
        let exact = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let cached = cdf_l1_grid(&pa, &pb, 0.0, 1.0).unwrap();
        assert_eq!(exact.to_bits(), cached.to_bits());
    }

    #[test]
    fn positions_closed_form_is_bit_identical_to_exact() {
        let a = [0.2, 0.3, 0.5, 0.0];
        let b = [0.0, 0.1, 0.2, 0.7];
        let pos = [0.0, 0.4, 0.5, 3.0];
        let pa = PrefixCdf::build(&a).unwrap();
        let pb = PrefixCdf::build(&b).unwrap();
        let exact = emd_1d_positions(&a, &b, &pos).unwrap();
        let cached = cdf_l1_positions(&pa, &pb, &pos).unwrap();
        assert_eq!(exact.to_bits(), cached.to_bits());
    }

    #[test]
    fn projection_bound_never_exceeds_exact() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [0.0, 2.0, 2.0, 0.0];
        let pos = [0.125, 0.375, 0.625, 0.875];
        let pa = PrefixCdf::build(&a).unwrap();
        let pb = PrefixCdf::build(&b).unwrap();
        let exact = emd_1d_positions(&a, &b, &pos).unwrap();
        let lower = projection_lower(&pa, &pb, &pos).unwrap();
        assert!(lower <= exact + 1e-12, "lower {lower} > exact {exact}");
        // Symmetric masses around the centre: the means coincide, so the
        // projection bound is vacuous while the exact distance is not.
        assert!(lower.abs() < 1e-12);
        assert!(exact > 0.1);
    }

    #[test]
    fn tv_sandwich_holds_on_grid() {
        let a = [1.0, 0.0, 0.0, 0.0];
        let b = [0.0, 0.0, 0.0, 1.0];
        let pa = PrefixCdf::build(&a).unwrap();
        let pb = PrefixCdf::build(&b).unwrap();
        // 4 bins over [0,1]: adjacent centres 0.25 apart, extremes 0.75.
        let exact = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let upper = tv_upper(&pa, &pb, 0.75).unwrap();
        let lower = tv_lower(&pa, &pb, 0.25).unwrap();
        assert!(lower <= exact + 1e-12 && exact <= upper + 1e-12);
        // All mass moves end to end here, so the upper bound is tight.
        assert!((upper - exact).abs() < 1e-12);
    }

    #[test]
    fn build_rejects_bad_masses() {
        assert!(matches!(PrefixCdf::build(&[]), Err(EmdError::Empty)));
        assert!(matches!(
            PrefixCdf::build(&[0.0, 0.0]),
            Err(EmdError::ZeroMass)
        ));
        assert!(matches!(
            PrefixCdf::build(&[-1.0, 2.0]),
            Err(EmdError::Negative { index: 0, .. })
        ));
        assert!(matches!(
            PrefixCdf::build(&[1e308, 1e308]),
            Err(EmdError::NonFiniteTotal { .. })
        ));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let pa = PrefixCdf::build(&[1.0, 1.0]).unwrap();
        let pb = PrefixCdf::build(&[1.0, 1.0, 1.0]).unwrap();
        assert!(matches!(
            cdf_l1_grid(&pa, &pb, 0.0, 1.0),
            Err(EmdError::LengthMismatch { left: 2, right: 3 })
        ));
    }
}
