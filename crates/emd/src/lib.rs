//! Earth Mover's Distance (EMD) solvers.
//!
//! This crate is the numeric substrate for the fairness-auditing library:
//! the EDBT 2019 paper quantifies unfairness of a scoring function as the
//! average pairwise EMD between per-group score histograms, so everything
//! above this crate ultimately calls into it.
//!
//! There are two ways to a distance, cross-checked in the test suite
//! against each other and against an independent oracle:
//!
//! * [`d1`] — closed-form one-dimensional EMD. For histograms whose bins
//!   live on a line with an L1 ground distance the EMD equals the L1
//!   distance between the cumulative distributions, which is computable in
//!   a single pass. This is the fast path used by the auditing algorithms.
//! * [`transport`] — the one exact solver, for arbitrary ground-distance
//!   matrices (multi-dimensional embeddings, thresholded distances,
//!   unsorted positions). Every solve compacts both sides onto their
//!   non-empty supports and runs a successive-shortest-paths kernel
//!   specialised to the transportation problem, optionally on a reusable
//!   [`arena::SolveScratch`].
//!
//! [`simplex`] — the classical transportation simplex (north-west-corner
//! start + MODI pivoting) — is an entirely separate code path kept only
//! as the differential-testing oracle for the exact solver.
//!
//! [`bounds`] complements the solvers with cheap lower/upper bounds
//! (projection, total-variation sandwich) and reusable prefix CDFs whose
//! closed forms are bit-identical to [`d1`] — the screening layer the
//! auditing kernel uses to avoid exact solves entirely.
//!
//! Ground distances are abstracted behind [`ground::GroundDistance`];
//! [`ground::Thresholded`] implements the robust, saturated ground
//! distance of Pele & Werman (ICCV 2009) which the paper cites for EMD.
//!
//! # Conventions
//!
//! * Mass vectors are non-negative `f64` slices. [`emd_between`]
//!   normalises both sides to unit total mass, so the EMD is a true
//!   metric on distributions (given a metric ground distance); the raw
//!   transport entry points expect balanced inputs.
//! * Positions are points on the real line for the 1-D fast path, or
//!   arbitrary indices resolved through a ground-distance matrix for the
//!   exact solver.
//!
//! # Example
//!
//! ```
//! use fairjob_emd::{emd_1d_grid, emd_between, EmdConfig, GridL1, GroundDistance};
//!
//! // Two 4-bin histograms on the unit interval (bin centres 0.125 ... 0.875).
//! let a = [1.0, 0.0, 0.0, 0.0];
//! let b = [0.0, 0.0, 0.0, 1.0];
//! let d = emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
//! assert!((d - 0.75).abs() < 1e-12); // |0.125 - 0.875|
//!
//! // The exact solver agrees on the same ground given as a matrix (a
//! // grid config would take the closed form again).
//! let g = GridL1::new(0.0, 1.0, 4).unwrap();
//! let m = (0..4).map(|i| (0..4).map(|j| g.cost(i, j)).collect()).collect();
//! let d2 = emd_between(&a, &b, &EmdConfig::matrix(m)).unwrap();
//! assert!((d - d2).abs() < 1e-9);
//! ```

pub mod arena;
mod bipartite;
pub mod bounds;
pub mod d1;
pub mod error;
pub mod ground;
pub mod simplex;
pub mod transport;

pub use arena::{ScratchStats, SolveScratch};
pub use bounds::PrefixCdf;
pub use d1::{emd_1d_grid, emd_1d_positions, emd_1d_samples};
pub use error::EmdError;
pub use ground::{
    GridL1, GroundCache, GroundDistance, GroundKey, GroundMatrix, Matrix, PositionsL1, Thresholded,
};
pub use transport::{emd_cost_in, solve_emd, solve_emd_in, TransportProblem, TransportSolution};

/// Tolerance used throughout when comparing floating-point masses.
pub const MASS_EPS: f64 = 1e-9;

/// Configuration for the top-level [`emd_between`] entry point.
#[derive(Debug, Clone)]
pub struct EmdConfig {
    /// Ground distance between bin indices.
    pub ground: GroundKind,
}

/// Ground-distance selection for [`EmdConfig`].
#[derive(Debug, Clone)]
pub enum GroundKind {
    /// Bins are equal-width intervals of `[lo, hi]`; distance is the
    /// absolute difference of bin centres. Admits the closed-form path.
    GridL1 { lo: f64, hi: f64 },
    /// Bins sit at explicit 1-D positions; distance is `|xi - xj|`.
    /// Admits the closed-form path when positions are sorted.
    PositionsL1(Vec<f64>),
    /// Arbitrary dense ground-distance matrix (n×n).
    Matrix(Vec<Vec<f64>>),
    /// A grid-L1 ground distance saturated at `threshold` (Pele–Werman).
    ThresholdedGridL1 { lo: f64, hi: f64, threshold: f64 },
}

impl EmdConfig {
    /// Equal-width bins over `[lo, hi]` with L1 ground distance — the
    /// configuration the fairness audits use.
    pub fn grid_l1(lo: f64, hi: f64) -> Self {
        EmdConfig {
            ground: GroundKind::GridL1 { lo, hi },
        }
    }

    /// Explicit 1-D positions with L1 ground distance.
    pub fn positions_l1(positions: Vec<f64>) -> Self {
        EmdConfig {
            ground: GroundKind::PositionsL1(positions),
        }
    }

    /// Arbitrary ground-distance matrix.
    pub fn matrix(m: Vec<Vec<f64>>) -> Self {
        EmdConfig {
            ground: GroundKind::Matrix(m),
        }
    }

    /// Saturated grid distance `min(|ci - cj|, threshold)`.
    pub fn thresholded_grid(lo: f64, hi: f64, threshold: f64) -> Self {
        EmdConfig {
            ground: GroundKind::ThresholdedGridL1 { lo, hi, threshold },
        }
    }
}

/// Compute the EMD between two mass vectors under `config`, after
/// normalising both to unit total mass.
///
/// Dispatches to the closed-form 1-D algorithm when the ground distance is
/// an (unthresholded) L1 distance on the line, otherwise builds and solves
/// a transportation problem with the exact solver. Either way the answer
/// depends only on the two distributions and the ground costs.
///
/// # Errors
///
/// Returns [`EmdError`] when the inputs have mismatched lengths, negative
/// or non-finite mass, or a total that is zero or overflows.
pub fn emd_between(a: &[f64], b: &[f64], config: &EmdConfig) -> Result<f64, EmdError> {
    validate_masses(a)?;
    validate_masses(b)?;
    if a.len() != b.len() {
        return Err(EmdError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(EmdError::Empty);
    }
    let (a, b) = (&normalise(a)?, &normalise(b)?);

    match &config.ground {
        GroundKind::GridL1 { lo, hi } => d1::emd_1d_grid(a, b, *lo, *hi),
        GroundKind::PositionsL1(pos) => {
            if pos.len() != a.len() {
                return Err(EmdError::LengthMismatch {
                    left: pos.len(),
                    right: a.len(),
                });
            }
            if pos.windows(2).all(|w| w[0] <= w[1]) {
                d1::emd_1d_positions(a, b, pos)
            } else {
                let g = PositionsL1::new(pos.clone());
                transport::solve_emd(a, b, &g).map(|s| s.cost)
            }
        }
        GroundKind::Matrix(m) => {
            let g = Matrix::new(m.clone())?;
            if g.size() != a.len() {
                return Err(EmdError::LengthMismatch {
                    left: g.size(),
                    right: a.len(),
                });
            }
            transport::solve_emd(a, b, &g).map(|s| s.cost)
        }
        GroundKind::ThresholdedGridL1 { lo, hi, threshold } => {
            let g = Thresholded::new(GridL1::new(*lo, *hi, a.len())?, *threshold);
            transport::solve_emd(a, b, &g).map(|s| s.cost)
        }
    }
}

/// Sum of a mass vector.
pub fn total(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Return a copy of `v` scaled to unit total mass.
///
/// # Errors
///
/// [`EmdError::ZeroMass`] if the total is (numerically) zero, and
/// [`EmdError::NonFiniteTotal`] if it overflowed to infinity.
pub fn normalise(v: &[f64]) -> Result<Vec<f64>, EmdError> {
    let t = total(v);
    validate_total(t)?;
    Ok(v.iter().map(|x| x / t).collect())
}

/// Validate that a mass total is finite and large enough to divide by.
///
/// Finite entries can still sum to `+inf` (e.g. two `1e308` bins), and
/// dividing by an infinite total silently maps every entry to `0.0` —
/// the distance would come out as a plausible-looking `0.0` instead of
/// an error.
pub(crate) fn validate_total(t: f64) -> Result<(), EmdError> {
    if !t.is_finite() {
        return Err(EmdError::NonFiniteTotal { value: t });
    }
    if t <= MASS_EPS {
        return Err(EmdError::ZeroMass);
    }
    Ok(())
}

/// Validate that every entry of `v` is a finite, non-negative mass.
pub fn validate_masses(v: &[f64]) -> Result<(), EmdError> {
    for (i, &x) in v.iter().enumerate() {
        if !x.is_finite() {
            return Err(EmdError::NonFinite { index: i, value: x });
        }
        if x < 0.0 {
            return Err(EmdError::Negative { index: i, value: x });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_config_dispatches_to_closed_form() {
        let a = [0.5, 0.5, 0.0, 0.0];
        let b = [0.0, 0.0, 0.5, 0.5];
        let d = emd_between(&a, &b, &EmdConfig::grid_l1(0.0, 1.0)).unwrap();
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalisation_scales_out() {
        let a = [2.0, 0.0];
        let b = [0.0, 8.0];
        let d = emd_between(&a, &b, &EmdConfig::grid_l1(0.0, 1.0)).unwrap();
        assert!((d - 0.5).abs() < 1e-12);
        // The same two-point ground in every spelling: the closed forms
        // and the exact solver all see unit-mass inputs.
        let configs = [
            EmdConfig::grid_l1(0.0, 1.0),
            EmdConfig::positions_l1(vec![0.25, 0.75]),
            EmdConfig::matrix(vec![vec![0.0, 0.5], vec![0.5, 0.0]]),
            EmdConfig::thresholded_grid(0.0, 1.0, 1.0),
            EmdConfig::positions_l1(vec![0.75, 0.25]),
        ];
        for cfg in &configs {
            let d = emd_between(&[2.0, 0.0], &[0.0, 2.0], cfg).unwrap();
            assert!((d - 0.5).abs() < 1e-12, "{:?}: {d}", cfg.ground);
        }
    }

    #[test]
    fn rejects_negative_mass() {
        let err =
            emd_between(&[-1.0, 2.0], &[0.5, 0.5], &EmdConfig::grid_l1(0.0, 1.0)).unwrap_err();
        assert!(matches!(err, EmdError::Negative { index: 0, .. }));
    }

    #[test]
    fn rejects_nan() {
        let err =
            emd_between(&[f64::NAN, 1.0], &[0.5, 0.5], &EmdConfig::grid_l1(0.0, 1.0)).unwrap_err();
        assert!(matches!(err, EmdError::NonFinite { index: 0, .. }));
    }

    #[test]
    fn rejects_length_mismatch() {
        let err = emd_between(&[1.0], &[0.5, 0.5], &EmdConfig::grid_l1(0.0, 1.0)).unwrap_err();
        assert!(matches!(
            err,
            EmdError::LengthMismatch { left: 1, right: 2 }
        ));
    }

    #[test]
    fn rejects_empty() {
        let err = emd_between(&[], &[], &EmdConfig::grid_l1(0.0, 1.0)).unwrap_err();
        assert!(matches!(err, EmdError::Empty));
    }

    #[test]
    fn rejects_zero_mass_when_normalising() {
        let err = emd_between(&[0.0, 0.0], &[1.0, 0.0], &EmdConfig::grid_l1(0.0, 1.0)).unwrap_err();
        assert!(matches!(err, EmdError::ZeroMass));
    }

    #[test]
    fn unsorted_positions_fall_back_to_exact_solver() {
        // Positions deliberately out of order: 0.9, 0.1.
        let cfg = EmdConfig::positions_l1(vec![0.9, 0.1]);
        let d = emd_between(&[1.0, 0.0], &[0.0, 1.0], &cfg).unwrap();
        assert!((d - 0.8).abs() < 1e-9);
    }

    #[test]
    fn thresholded_ground_saturates() {
        // Bins at 0.125 and 0.875 (4 bins over [0,1] -> centres .125 .375 .625 .875).
        let a = [1.0, 0.0, 0.0, 0.0];
        let b = [0.0, 0.0, 0.0, 1.0];
        let d = emd_between(&a, &b, &EmdConfig::thresholded_grid(0.0, 1.0, 0.3)).unwrap();
        assert!((d - 0.3).abs() < 1e-9);
    }

    #[test]
    fn identical_inputs_have_zero_distance() {
        let a = [0.25, 0.25, 0.25, 0.25];
        let d = emd_between(&a, &a, &EmdConfig::grid_l1(0.0, 1.0)).unwrap();
        assert!(d.abs() < 1e-12);
    }
}
