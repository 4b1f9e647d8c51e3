//! The transportation problem: EMD as minimum-cost mass transport.
//!
//! [`TransportProblem`] is the general supplies/demands/cost formulation;
//! [`solve_emd`] is the convenience wrapper the rest of the workspace uses
//! (equal-length mass vectors plus a [`GroundDistance`]).
//!
//! Every exact solve takes one path: compact both sides onto their
//! non-empty supports, then run the transport kernel in
//! `crate::bipartite` on the compacted instance. The plain entry points
//! ([`TransportProblem::solve`], [`solve_emd`]) spin up a fresh
//! [`SolveScratch`] per call; [`solve_emd_in`] and [`emd_cost_in`] reuse
//! a caller-owned one, which makes a stream of same-sized solves
//! allocation-free and enables the round-1 warm start between
//! consecutive pairs that share a support set. Both produce
//! bit-identical results.

use std::mem;

use crate::arena::SolveScratch;
use crate::ground::GroundDistance;
use crate::{EmdError, MASS_EPS};

/// A transportation-problem instance: move `supplies` to `demands` at
/// minimum total cost, where moving one unit from supply `i` to demand `j`
/// costs `cost[i][j]`.
#[derive(Debug, Clone)]
pub struct TransportProblem {
    /// Supply at each source.
    pub supplies: Vec<f64>,
    /// Demand at each sink.
    pub demands: Vec<f64>,
    /// Dense cost matrix, `supplies.len()` × `demands.len()`.
    pub costs: Vec<Vec<f64>>,
}

/// An optimal transport plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportSolution {
    /// Total transport cost (the EMD when inputs are unit-mass).
    pub cost: f64,
    /// Non-zero flows as `(supply index, demand index, amount)`.
    pub flows: Vec<(usize, usize, f64)>,
}

impl TransportProblem {
    /// Validate shapes, signs and mass balance.
    ///
    /// # Errors
    ///
    /// The usual [`EmdError`] validation variants.
    pub fn validate(&self) -> Result<(), EmdError> {
        crate::validate_masses(&self.supplies)?;
        crate::validate_masses(&self.demands)?;
        if self.supplies.is_empty() || self.demands.is_empty() {
            return Err(EmdError::Empty);
        }
        if self.costs.len() != self.supplies.len() {
            return Err(EmdError::LengthMismatch {
                left: self.costs.len(),
                right: self.supplies.len(),
            });
        }
        for row in &self.costs {
            if row.len() != self.demands.len() {
                return Err(EmdError::LengthMismatch {
                    left: row.len(),
                    right: self.demands.len(),
                });
            }
            for (j, &c) in row.iter().enumerate() {
                if !c.is_finite() {
                    return Err(EmdError::NonFinite { index: j, value: c });
                }
                if c < 0.0 {
                    return Err(EmdError::Negative { index: j, value: c });
                }
            }
        }
        let (ts, td) = (crate::total(&self.supplies), crate::total(&self.demands));
        if (ts - td).abs() > MASS_EPS * ts.max(td).max(1.0) {
            return Err(EmdError::MassMismatch {
                left: ts,
                right: td,
            });
        }
        Ok(())
    }

    /// Validate, compact onto the non-empty supplies and demands, and
    /// solve to optimality. An instance whose supplies or demands are
    /// all (numerically) zero costs nothing and has no flows.
    ///
    /// # Errors
    ///
    /// Validation failures, or [`EmdError::SolverStalled`] on internal
    /// failure (never on valid input).
    pub fn solve(&self) -> Result<TransportSolution, EmdError> {
        self.validate()?;
        let mut scratch = SolveScratch::new();
        let (m, n) = compact(&mut scratch, &self.supplies, &self.demands, |i, j| {
            self.costs[i][j]
        });
        if m == 0 || n == 0 {
            return Ok(TransportSolution {
                cost: 0.0,
                flows: Vec::new(),
            });
        }
        let cost = solve_compacted(&mut scratch, false)?;
        Ok(TransportSolution {
            cost,
            flows: compacted_flows(&scratch, m, n),
        })
    }
}

/// Compact `a`/`b` onto their non-empty supports inside `scratch` and
/// fill the flat row-major compacted cost view from `cost`, which is
/// indexed by original positions. `a` and `b` may differ in length.
/// Returns the compacted dimensions; a side with no mass above
/// [`MASS_EPS`] compacts to zero.
fn compact(
    scratch: &mut SolveScratch,
    a: &[f64],
    b: &[f64],
    cost: impl Fn(usize, usize) -> f64,
) -> (usize, usize) {
    let SolveScratch {
        srcs,
        dsts,
        supplies,
        demands,
        costs,
        ..
    } = scratch;
    // Restrict to non-empty bins to keep instances small: typical score
    // histograms are sparse for small partitions.
    srcs.clear();
    supplies.clear();
    for (i, &x) in a.iter().enumerate() {
        if x > MASS_EPS {
            srcs.push(i);
            supplies.push(x);
        }
    }
    dsts.clear();
    demands.clear();
    for (j, &x) in b.iter().enumerate() {
        if x > MASS_EPS {
            dsts.push(j);
            demands.push(x);
        }
    }
    let (m, n) = (srcs.len(), dsts.len());
    costs.clear();
    costs.reserve(m * n);
    for &i in srcs.iter() {
        for &j in dsts.iter() {
            costs.push(cost(i, j));
        }
    }
    (m, n)
}

/// Compact `a`/`b` inside `scratch` and validate — mirroring
/// [`TransportProblem::validate`] on the compacted instance, except that
/// the O(m·n) cost walk is skipped for grounds that guarantee their costs
/// up front ([`GroundDistance::prevalidated`]). Returns the compacted
/// dimensions plus whether the instance matches the previous solve's
/// supports and costs exactly (the warm-start precondition).
fn prepare_compacted<G: GroundDistance + ?Sized>(
    scratch: &mut SolveScratch,
    a: &[f64],
    b: &[f64],
    ground: &G,
) -> Result<(usize, usize, bool), EmdError> {
    if a.len() != b.len() {
        return Err(EmdError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.len() != ground.size() {
        return Err(EmdError::LengthMismatch {
            left: a.len(),
            right: ground.size(),
        });
    }
    scratch.note_use();
    let had_warm = scratch.warm_valid;
    scratch.warm_valid = false;
    // Retire the previous instance into the warm-start comparands; the
    // swapped-out buffers become this solve's scratch space.
    mem::swap(&mut scratch.srcs, &mut scratch.prev_srcs);
    mem::swap(&mut scratch.dsts, &mut scratch.prev_dsts);
    mem::swap(&mut scratch.costs, &mut scratch.prev_costs);
    let (m, n) = compact(scratch, a, b, |i, j| ground.cost(i, j));
    if m == 0 || n == 0 {
        crate::validate_masses(a)?;
        crate::validate_masses(b)?;
        return Err(EmdError::ZeroMass);
    }
    crate::validate_masses(&scratch.supplies)?;
    crate::validate_masses(&scratch.demands)?;
    if !ground.prevalidated() {
        for (k, &c) in scratch.costs.iter().enumerate() {
            if !c.is_finite() {
                return Err(EmdError::NonFinite {
                    index: k % n,
                    value: c,
                });
            }
            if c < 0.0 {
                return Err(EmdError::Negative {
                    index: k % n,
                    value: c,
                });
            }
        }
    }
    let (ts, td) = (
        crate::total(&scratch.supplies),
        crate::total(&scratch.demands),
    );
    if (ts - td).abs() > MASS_EPS * ts.max(td).max(1.0) {
        return Err(EmdError::MassMismatch {
            left: ts,
            right: td,
        });
    }
    let warm = had_warm
        && scratch.srcs == scratch.prev_srcs
        && scratch.dsts == scratch.prev_dsts
        && scratch.costs == scratch.prev_costs;
    Ok((m, n, warm))
}

/// Solve the compacted instance in `scratch` with the transport kernel,
/// replaying the previous round-1 Dijkstra when `warm` holds. Leaves the
/// kernel's flow matrix populated so callers can read flows back.
fn solve_compacted(scratch: &mut SolveScratch, warm: bool) -> Result<f64, EmdError> {
    let cost = {
        let SolveScratch {
            bip,
            supplies,
            demands,
            costs,
            stats,
            ..
        } = scratch;
        if warm {
            stats.warm_starts += 1;
        }
        let mut want = 0.0;
        for &s in supplies.iter() {
            want += s;
        }
        let r = bip.solve(supplies, demands, costs, want, warm)?;
        if (r.flow - want).abs() > 1e-6 * want.max(1.0) {
            return Err(EmdError::SolverStalled {
                solver: "min-cost-flow (unbalanced)",
            });
        }
        r.cost
    };
    // The kernel's round-1 cache now describes this instance, whose
    // supports and costs will be swapped into `prev_*` at the next
    // prepare.
    scratch.warm_valid = true;
    Ok(cost)
}

/// The last solve's non-zero flows, mapped back to original indices.
fn compacted_flows(scratch: &SolveScratch, m: usize, n: usize) -> Vec<(usize, usize, f64)> {
    let mut flows = Vec::new();
    for si in 0..m {
        for dj in 0..n {
            let f = scratch.bip.flow_at(si, dj);
            if f > MASS_EPS {
                flows.push((scratch.srcs[si], scratch.dsts[dj], f));
            }
        }
    }
    flows
}

/// Solve the EMD between two equal-length mass vectors under `ground`,
/// reusing a caller-owned workspace. Bit-identical to [`solve_emd`];
/// allocation-free at steady state apart from the returned flow list
/// (use [`emd_cost_in`] when only the cost is needed).
///
/// # Errors
///
/// Validation failures as in [`TransportProblem::validate`].
pub fn solve_emd_in<G: GroundDistance + ?Sized>(
    scratch: &mut SolveScratch,
    a: &[f64],
    b: &[f64],
    ground: &G,
) -> Result<TransportSolution, EmdError> {
    let (m, n, warm) = prepare_compacted(scratch, a, b, ground)?;
    let cost = solve_compacted(scratch, warm)?;
    Ok(TransportSolution {
        cost,
        flows: compacted_flows(scratch, m, n),
    })
}

/// The cost-only hot path: [`solve_emd_in`] without materialising the
/// flow list. Zero heap traffic once the scratch has reached its
/// steady-state size.
///
/// # Errors
///
/// Validation failures as in [`TransportProblem::validate`].
pub fn emd_cost_in<G: GroundDistance + ?Sized>(
    scratch: &mut SolveScratch,
    a: &[f64],
    b: &[f64],
    ground: &G,
) -> Result<f64, EmdError> {
    let (_, _, warm) = prepare_compacted(scratch, a, b, ground)?;
    solve_compacted(scratch, warm)
}

/// Solve the EMD between two equal-length mass vectors under `ground`.
///
/// Both vectors must already carry (numerically) equal total mass; the
/// top-level [`crate::emd_between`] handles normalisation.
///
/// # Errors
///
/// Validation failures as in [`TransportProblem::validate`].
pub fn solve_emd<G: GroundDistance>(
    a: &[f64],
    b: &[f64],
    ground: &G,
) -> Result<TransportSolution, EmdError> {
    solve_emd_in(&mut SolveScratch::new(), a, b, ground)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GridL1;
    use crate::simplex;

    fn grid(n: usize) -> GridL1 {
        GridL1::new(0.0, 1.0, n).unwrap()
    }

    /// The transportation-simplex oracle's cost on the full, uncompacted
    /// instance.
    fn oracle(a: &[f64], b: &[f64], g: &GridL1) -> f64 {
        let costs: Vec<Vec<f64>> = (0..a.len())
            .map(|i| (0..b.len()).map(|j| g.cost(i, j)).collect())
            .collect();
        simplex::solve(a, b, &costs).unwrap().cost
    }

    #[test]
    fn both_solvers_agree_on_simple_instance() {
        let a = [0.5, 0.5, 0.0, 0.0];
        let b = [0.0, 0.0, 0.25, 0.75];
        let g = grid(4);
        let f = solve_emd(&a, &b, &g).unwrap();
        let s = oracle(&a, &b, &g);
        assert!((f.cost - s).abs() < 1e-9, "kernel={} simplex={s}", f.cost);
    }

    #[test]
    fn flows_conserve_mass() {
        let a = [0.3, 0.3, 0.4, 0.0];
        let b = [0.0, 0.1, 0.2, 0.7];
        let g = grid(4);
        let sol = solve_emd(&a, &b, &g).unwrap();
        let mut out = [0.0; 4];
        let mut inn = [0.0; 4];
        for (i, j, f) in &sol.flows {
            out[*i] += f;
            inn[*j] += f;
        }
        for i in 0..4 {
            assert!((out[i] - a[i]).abs() < 1e-9, "supply {i}");
            assert!((inn[i] - b[i]).abs() < 1e-9, "demand {i}");
        }
    }

    #[test]
    fn matches_closed_form_1d() {
        let a = [0.1, 0.2, 0.3, 0.4];
        let b = [0.4, 0.3, 0.2, 0.1];
        let g = grid(4);
        let exact = crate::d1::emd_1d_grid(&a, &b, 0.0, 1.0).unwrap();
        let kernel = solve_emd(&a, &b, &g).unwrap().cost;
        assert!((kernel - exact).abs() < 1e-9, "kernel={kernel}");
        let s = oracle(&a, &b, &g);
        assert!((s - exact).abs() < 1e-9, "simplex={s}");
    }

    #[test]
    fn unbalanced_problem_rejected() {
        let p = TransportProblem {
            supplies: vec![1.0],
            demands: vec![2.0],
            costs: vec![vec![1.0]],
        };
        assert!(matches!(p.solve(), Err(EmdError::MassMismatch { .. })));
    }

    #[test]
    fn ragged_cost_matrix_rejected() {
        let p = TransportProblem {
            supplies: vec![1.0, 1.0],
            demands: vec![2.0],
            costs: vec![vec![1.0], vec![]],
        };
        assert!(matches!(p.solve(), Err(EmdError::LengthMismatch { .. })));
    }

    #[test]
    fn zero_mass_rejected() {
        let g = grid(2);
        assert!(matches!(
            solve_emd(&[0.0, 0.0], &[1.0, 0.0], &g),
            Err(EmdError::ZeroMass)
        ));
    }

    #[test]
    fn all_zero_problem_costs_nothing() {
        // Balanced at zero mass: valid, with nothing to move.
        let p = TransportProblem {
            supplies: vec![0.0, 0.0],
            demands: vec![0.0, 0.0, 0.0],
            costs: vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]],
        };
        let sol = p.solve().unwrap();
        assert_eq!(sol.cost, 0.0);
        assert!(sol.flows.is_empty());
    }

    #[test]
    fn identical_histograms_cost_zero() {
        let a = [0.25, 0.25, 0.25, 0.25];
        let g = grid(4);
        assert!(solve_emd(&a, &a, &g).unwrap().cost.abs() < 1e-9);
        assert!(oracle(&a, &a, &g).abs() < 1e-9);
    }

    #[test]
    fn general_transport_instance() {
        // Classic 2x3 instance solvable by hand.
        // supplies: [20, 30]; demands: [10, 25, 15]
        // costs: [[2, 4, 6], [5, 1, 3]]
        // Optimal: x11=10, x13=10, x22=25, x23=5 -> 20+60+25+15 = 120.
        let p = TransportProblem {
            supplies: vec![20.0, 30.0],
            demands: vec![10.0, 25.0, 15.0],
            costs: vec![vec![2.0, 4.0, 6.0], vec![5.0, 1.0, 3.0]],
        };
        let kernel = p.solve().unwrap().cost;
        assert!((kernel - 120.0).abs() < 1e-6, "kernel: {kernel}");
        let s = simplex::solve(&p.supplies, &p.demands, &p.costs)
            .unwrap()
            .cost;
        assert!((s - 120.0).abs() < 1e-6, "simplex: {s}");
    }
}
