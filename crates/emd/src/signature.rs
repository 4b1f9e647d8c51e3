//! EMD between *signatures* — weighted point sets with (possibly)
//! unequal total mass.
//!
//! Rubner's original EMD is defined between signatures `{(xᵢ, wᵢ)}`
//! rather than aligned histograms: the transport plan must move
//! `min(Σw_a, Σw_b)` mass and the cost is normalised by that amount
//! (partial matching — surplus mass on the heavier side stays put).
//! Pele & Werman's ÊMD (EMD-hat) instead *penalises* the unmatched mass
//! at a fixed rate, which restores the triangle inequality for
//! unequal-mass comparisons.
//!
//! Signatures are the natural representation when comparing worker
//! groups of very different sizes without normalising away the size
//! difference — e.g. "how much work would it take to turn group A's
//! score mass into group B's".

use crate::transport::TransportProblem;
use crate::{EmdError, MASS_EPS};

/// A weighted point set on the real line.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    positions: Vec<f64>,
    weights: Vec<f64>,
}

impl Signature {
    /// Build a signature from parallel position/weight vectors.
    ///
    /// # Errors
    ///
    /// [`EmdError::LengthMismatch`], [`EmdError::Empty`], or weight/
    /// position validation failures.
    pub fn new(positions: Vec<f64>, weights: Vec<f64>) -> Result<Self, EmdError> {
        if positions.len() != weights.len() {
            return Err(EmdError::LengthMismatch {
                left: positions.len(),
                right: weights.len(),
            });
        }
        if positions.is_empty() {
            return Err(EmdError::Empty);
        }
        crate::validate_masses(&weights)?;
        for (i, &p) in positions.iter().enumerate() {
            if !p.is_finite() {
                return Err(EmdError::NonFinite { index: i, value: p });
            }
        }
        if crate::total(&weights) <= MASS_EPS {
            return Err(EmdError::ZeroMass);
        }
        Ok(Signature { positions, weights })
    }

    /// Signature with unit weight at every sample point.
    ///
    /// # Errors
    ///
    /// As for [`Signature::new`].
    pub fn from_samples(samples: &[f64]) -> Result<Self, EmdError> {
        Signature::new(samples.to_vec(), vec![1.0; samples.len()])
    }

    /// Point positions.
    pub fn positions(&self) -> &[f64] {
        &self.positions
    }

    /// Point weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total mass.
    pub fn total(&self) -> f64 {
        crate::total(&self.weights)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Always false (empty signatures are unconstructible).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Rubner partial-matching EMD between two signatures with ground
/// distance `|xᵢ - xⱼ|`: optimal cost of moving `min(total_a, total_b)`
/// mass, divided by that amount.
///
/// # Errors
///
/// Propagates solver/validation failures.
pub fn emd_signatures(a: &Signature, b: &Signature) -> Result<f64, EmdError> {
    let (ta, tb) = (a.total(), b.total());
    let moved = ta.min(tb);
    // Equalise by adding a free-disposal sink/source point: surplus mass
    // on the heavier side flows to a virtual point at zero cost.
    let mut supplies = a.weights.to_vec();
    let mut demands = b.weights.to_vec();
    let mut costs: Vec<Vec<f64>> = a
        .positions
        .iter()
        .map(|&x| b.positions.iter().map(|&y| (x - y).abs()).collect())
        .collect();
    if ta > tb + MASS_EPS {
        // Virtual demand absorbing the surplus at zero cost.
        demands.push(ta - tb);
        for row in &mut costs {
            row.push(0.0);
        }
    } else if tb > ta + MASS_EPS {
        supplies.push(tb - ta);
        costs.push(vec![0.0; demands.len()]);
    }
    let problem = TransportProblem {
        supplies,
        demands,
        costs,
    };
    let solution = problem.solve()?;
    Ok(solution.cost / moved)
}

/// Pele–Werman ÊMD (EMD-hat): transport cost of the matched mass plus a
/// penalty of `penalty_per_unit` for every unit of unmatched surplus.
/// With `penalty_per_unit >= half the ground diameter`, ÊMD is a metric
/// on signatures of arbitrary mass.
///
/// Unlike [`emd_signatures`] the result is **not** normalised — it
/// scales with mass, as the metric property requires.
///
/// # Errors
///
/// Propagates solver/validation failures; rejects negative penalties as
/// [`EmdError::Negative`].
pub fn emd_hat(a: &Signature, b: &Signature, penalty_per_unit: f64) -> Result<f64, EmdError> {
    if !penalty_per_unit.is_finite() || penalty_per_unit < 0.0 {
        return Err(EmdError::Negative {
            index: 0,
            value: penalty_per_unit,
        });
    }
    let (ta, tb) = (a.total(), b.total());
    let surplus = (ta - tb).abs();
    let mut supplies = a.weights.to_vec();
    let mut demands = b.weights.to_vec();
    let mut costs: Vec<Vec<f64>> = a
        .positions
        .iter()
        .map(|&x| b.positions.iter().map(|&y| (x - y).abs()).collect())
        .collect();
    if ta > tb + MASS_EPS {
        demands.push(ta - tb);
        for row in &mut costs {
            row.push(0.0);
        }
    } else if tb > ta + MASS_EPS {
        supplies.push(tb - ta);
        costs.push(vec![0.0; demands.len()]);
    }
    let problem = TransportProblem {
        supplies,
        demands,
        costs,
    };
    let solution = problem.solve()?;
    Ok(solution.cost + penalty_per_unit * surplus)
}

/// The ground diameter of two signatures (largest pairwise position
/// distance) — the usual reference for choosing an ÊMD penalty.
pub fn diameter(a: &Signature, b: &Signature) -> f64 {
    let all = a.positions.iter().chain(b.positions.iter());
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in all {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    hi - lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(points: &[(f64, f64)]) -> Signature {
        Signature::new(
            points.iter().map(|p| p.0).collect(),
            points.iter().map(|p| p.1).collect(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Signature::new(vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(Signature::new(vec![], vec![]).is_err());
        assert!(Signature::new(vec![0.0], vec![-1.0]).is_err());
        assert!(Signature::new(vec![f64::NAN], vec![1.0]).is_err());
        assert!(Signature::new(vec![0.0], vec![0.0]).is_err());
        let s = Signature::from_samples(&[0.5, 0.7]).unwrap();
        assert_eq!(s.total(), 2.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn equal_mass_matches_plain_emd() {
        let a = sig(&[(0.0, 1.0)]);
        let b = sig(&[(1.0, 1.0)]);
        assert!((emd_signatures(&a, &b).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_matching_ignores_surplus() {
        // a has 2 units at 0; b has 1 unit at 1. Only 1 unit moves.
        let a = sig(&[(0.0, 2.0)]);
        let b = sig(&[(1.0, 1.0)]);
        let d = emd_signatures(&a, &b).unwrap();
        assert!((d - 1.0).abs() < 1e-9, "moved mass averages cost 1: {d}");
        // Surplus placed favourably: extra mass at b's location is free.
        let a2 = sig(&[(0.0, 1.0), (1.0, 1.0)]);
        let d2 = emd_signatures(&a2, &b).unwrap();
        // Optimal partial match: move the co-located unit (cost 0).
        assert!(d2.abs() < 1e-9, "{d2}");
    }

    #[test]
    fn signature_emd_is_symmetric() {
        let a = sig(&[(0.0, 2.0), (0.5, 1.0)]);
        let b = sig(&[(1.0, 1.5)]);
        let d1 = emd_signatures(&a, &b).unwrap();
        let d2 = emd_signatures(&b, &a).unwrap();
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn emd_hat_penalises_surplus() {
        let a = sig(&[(0.0, 2.0)]);
        let b = sig(&[(0.0, 1.0)]);
        // Matched mass moves nowhere; surplus 1 unit × penalty.
        let d = emd_hat(&a, &b, 0.7).unwrap();
        assert!((d - 0.7).abs() < 1e-9);
        // Zero penalty reduces to unnormalised partial cost.
        let d0 = emd_hat(&a, &b, 0.0).unwrap();
        assert!(d0.abs() < 1e-9);
        assert!(emd_hat(&a, &b, -1.0).is_err());
    }

    #[test]
    fn emd_hat_triangle_inequality_with_adequate_penalty() {
        // Penalty >= diameter guarantees the metric property; probe a few
        // fixed triples.
        let triples = [
            (sig(&[(0.0, 1.0)]), sig(&[(0.5, 2.0)]), sig(&[(1.0, 1.5)])),
            (
                sig(&[(0.2, 3.0), (0.8, 1.0)]),
                sig(&[(0.5, 1.0)]),
                sig(&[(0.9, 2.0)]),
            ),
            (sig(&[(0.1, 1.0)]), sig(&[(0.1, 4.0)]), sig(&[(0.7, 2.0)])),
        ];
        for (a, b, c) in &triples {
            let penalty = diameter(a, b)
                .max(diameter(b, c))
                .max(diameter(a, c))
                .max(1.0);
            let ab = emd_hat(a, b, penalty).unwrap();
            let bc = emd_hat(b, c, penalty).unwrap();
            let ac = emd_hat(a, c, penalty).unwrap();
            assert!(
                ac <= ab + bc + 1e-9,
                "triangle violated: {ac} > {ab} + {bc}"
            );
        }
    }

    #[test]
    fn diameter_spans_both_signatures() {
        let a = sig(&[(0.0, 1.0)]);
        let b = sig(&[(2.5, 1.0)]);
        assert!((diameter(&a, &b) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sample_signatures_match_sample_emd() {
        let xs = [0.1, 0.4, 0.9];
        let ys = [0.2, 0.5, 0.8];
        let a = Signature::from_samples(&xs).unwrap();
        let b = Signature::from_samples(&ys).unwrap();
        let via_sig = emd_signatures(&a, &b).unwrap();
        let via_samples = crate::d1::emd_1d_samples(&xs, &ys).unwrap();
        assert!((via_sig - via_samples).abs() < 1e-9);
    }
}
