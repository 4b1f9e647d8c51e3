//! Pluggable distances between histograms.
//!
//! The paper measures unfairness with the Earth Mover's Distance
//! ([`Emd1d`], with [`EmdExact`] and [`EmdThresholded`] as general/robust
//! variants) and lists "other formulations and metrics for fairness" as
//! future work — those are the remaining implementations here. All of
//! them operate on *normalised* histograms so that partition sizes do not
//! leak into the distance.

use crate::bins::BinSpec;
use crate::histogram::Histogram;
use fairjob_emd::bounds;
use fairjob_emd::{
    EmdError, GridL1, GroundCache, GroundMatrix, PositionsL1, SolveScratch, Thresholded,
};
use std::fmt;
use std::ops::Range;

/// Errors from distance computation.
#[derive(Debug, Clone, PartialEq)]
pub enum DistanceError {
    /// The two histograms use different bin layouts.
    SpecMismatch,
    /// One of the histograms holds no mass.
    EmptyHistogram,
    /// The underlying EMD solver failed.
    Emd(EmdError),
}

impl fmt::Display for DistanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistanceError::SpecMismatch => write!(f, "histograms use different bin specs"),
            DistanceError::EmptyHistogram => write!(f, "cannot compare an empty histogram"),
            DistanceError::Emd(e) => write!(f, "emd: {e}"),
        }
    }
}

impl std::error::Error for DistanceError {}

impl From<EmdError> for DistanceError {
    fn from(e: EmdError) -> Self {
        DistanceError::Emd(e)
    }
}

/// Cheap, provable bounds on a distance, used by the evaluation
/// engine's candidate screen in `fairjob-core` to bound a candidate
/// partitioning — and abandon a hopeless one — without an exact solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceBounds {
    /// Provable lower bound: `lower <= distance(a, b)`.
    pub lower: f64,
    /// Provable upper bound: `distance(a, b) <= upper`.
    pub upper: f64,
    /// When true, `lower == upper` **bit-identically equals** the value
    /// [`HistogramDistance::distance`] would return — the bound *is* the
    /// answer and no exact solve is ever needed.
    pub exact: bool,
}

/// Which cached per-histogram vector an [`L1Form`] reads as a
/// histogram's column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1Column {
    /// The first `B − 1` values of the cached prefix CDF.
    PrefixCdf,
    /// The normalised frequencies ([`fairjob_emd::bounds::PrefixCdf::norm`]).
    Frequencies,
}

/// A distance's weighted-L1 form on one bin layout
/// ([`HistogramDistance::l1_form`]): for two non-empty histograms `a`,
/// `b` on that layout, `distance(a, b) = Σ_j w_j · |x_a[j] − x_b[j]|` in
/// exact arithmetic, where `x_h` is [`L1Form::column`] of `h` and the
/// weights `w` depend only on the layout.
///
/// Summed over every pair of a set of histograms, entry `j` contributes
/// the Gini mean difference of column entry `j`, so
/// [`L1Form::average_pairwise`] averages all pairs from one sort per
/// entry, without a single pair distance.
#[derive(Debug, Clone, PartialEq)]
pub struct L1Form {
    column: L1Column,
    weights: Vec<f64>,
}

impl L1Form {
    /// The column `x_h` of a histogram on the layout this form was made
    /// for: a view into its cached [`crate::CdfStats`], so building it
    /// allocates nothing after the first call. `None` for an empty
    /// histogram or one with another bin count.
    pub fn column<'h>(&self, h: &'h Histogram) -> Option<&'h [f64]> {
        let cdf = &h.cdf_stats()?.cdf;
        let (values, extra) = match self.column {
            L1Column::PrefixCdf => (cdf.cdf(), 1),
            L1Column::Frequencies => (cdf.norm(), 0),
        };
        (values.len() == self.weights.len() + extra).then(|| &values[..self.weights.len()])
    }

    /// The average of `distance` over every pair of `columns` (0 with
    /// fewer than two), from the sorted columns: over a column sorted
    /// ascending, `Σ_{p<q} |x_p − x_q| = Σ_r (2r − m + 1)·x_(r)` for `m`
    /// histograms. Costs `O(B · m log m)` and no pair distance; agrees
    /// with the pairwise average up to rounding. The sums run in a fixed
    /// order over sorted values, so the result does not depend on the
    /// order of `columns`.
    ///
    /// # Panics
    ///
    /// When a column is shorter than the form's weights (every column
    /// from [`L1Form::column`] has exactly their length).
    pub fn average_pairwise(&self, columns: &[&[f64]]) -> f64 {
        let m = columns.len();
        if m < 2 {
            return 0.0;
        }
        let mut sorted: Vec<f64> = Vec::with_capacity(m);
        let mut sum = 0.0;
        for (j, &w) in self.weights.iter().enumerate() {
            sorted.clear();
            sorted.extend(columns.iter().map(|c| c[j]));
            sorted.sort_unstable_by(f64::total_cmp);
            let mut gini = 0.0;
            for (r, &x) in sorted.iter().enumerate() {
                gini += (2.0 * r as f64 + 1.0 - m as f64) * x;
            }
            sum += w * gini;
        }
        sum / (m * (m - 1) / 2) as f64
    }
}

/// The per-pair arithmetic of a [`PairBatch`]: the operations of the
/// distance it came from, in that distance's order.
#[derive(Debug)]
enum BatchKernel {
    /// [`Emd1d`] on a uniform layout ([`bounds::cdf_l1_grid`]):
    /// `Σ |cdf_a − cdf_b|` over the interior cuts, times the bin width.
    Grid { width: f64 },
    /// [`Emd1d`] on explicit edges ([`bounds::cdf_l1_positions`]):
    /// `Σ |cdf_a − cdf_b| · gap` over the gaps between bin centres.
    Positions { gaps: Vec<f64> },
    /// [`TotalVariation`]: `½ · Σ |f_a − f_b|` over the frequencies.
    HalfL1,
}

/// Pairs of one batch computed side by side: each keeps its own
/// accumulator, so the lanes only add instruction-level parallelism.
const BATCH_LANES: usize = 4;

/// A set of histograms gathered once for many pair distances
/// ([`HistogramDistance::pair_batch`]): one row per histogram in one flat
/// row-major buffer, holding what the distance reads of it.
///
/// [`PairBatch::distances_into`] runs several pairs per inner loop, each
/// with its own accumulator taking exactly the distance's floating-point
/// operations in the distance's order, so every value has
/// [`HistogramDistance::distance`]'s bits.
#[derive(Debug)]
pub struct PairBatch {
    kernel: BatchKernel,
    /// Number of histograms (rows).
    len: usize,
    /// Row length: the values the kernel reads per histogram.
    width: usize,
    rows: Vec<f64>,
}

impl PairBatch {
    /// Gather one row per histogram with `fill`, which writes a row and
    /// returns `false` for a histogram the batch cannot take. `None` when
    /// any histogram is declined or a gathered value is not finite.
    fn gather(
        kernel: BatchKernel,
        width: usize,
        histograms: &[&Histogram],
        mut fill: impl FnMut(&Histogram, &mut [f64]) -> bool,
    ) -> Option<PairBatch> {
        let mut rows = vec![0.0; histograms.len() * width];
        for (r, h) in histograms.iter().enumerate() {
            let row = &mut rows[r * width..(r + 1) * width];
            if !fill(h, row) || !row.iter().all(|x| x.is_finite()) {
                return None;
            }
        }
        Some(PairBatch {
            kernel,
            len: histograms.len(),
            width,
            rows,
        })
    }

    /// Number of histograms (rows).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no histogram.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn row(&self, r: usize) -> &[f64] {
        &self.rows[r * self.width..(r + 1) * self.width]
    }

    /// Append `distance(h_i, h_j)` for every `j` in `js`, in order, to
    /// `out`, where `h_r` is the `r`-th histogram the batch was built
    /// from. Each value is bit-identical to
    /// [`HistogramDistance::distance`] on that pair.
    ///
    /// # Panics
    ///
    /// When `i` or a `j` is not below [`PairBatch::len`].
    pub fn distances_into(&self, i: usize, js: Range<usize>, out: &mut Vec<f64>) {
        assert!(i < self.len() && js.end <= self.len(), "row out of range");
        match &self.kernel {
            BatchKernel::Grid { width } => {
                self.run(i, js, out, |a, b, _| (a - b).abs(), |acc| acc * width)
            }
            BatchKernel::Positions { gaps } => {
                self.run(i, js, out, |a, b, k| (a - b).abs() * gaps[k], |acc| acc)
            }
            BatchKernel::HalfL1 => self.run(i, js, out, |a, b, _| (a - b).abs(), |acc| 0.5 * acc),
        }
    }

    /// The lane loop: `term(x_i[k], x_j[k], k)` accumulated over `k` in
    /// order from `0.0` for each pair, then `finish`ed.
    fn run(
        &self,
        i: usize,
        js: Range<usize>,
        out: &mut Vec<f64>,
        term: impl Fn(f64, f64, usize) -> f64,
        finish: impl Fn(f64) -> f64,
    ) {
        let w = self.width;
        let x = self.row(i);
        out.reserve(js.len());
        let mut j = js.start;
        while j + BATCH_LANES <= js.end {
            let ys: [&[f64]; BATCH_LANES] = std::array::from_fn(|l| self.row(j + l));
            let mut acc = [0.0f64; BATCH_LANES];
            for k in 0..w {
                let xk = x[k];
                for (a, y) in acc.iter_mut().zip(&ys) {
                    *a += term(xk, y[k], k);
                }
            }
            out.extend(acc.map(&finish));
            j += BATCH_LANES;
        }
        for j in j..js.end {
            let y = self.row(j);
            let mut acc = 0.0f64;
            for k in 0..w {
                acc += term(x[k], y[k], k);
            }
            out.push(finish(acc));
        }
    }
}

/// A distance (or divergence) between two histograms over the same bins.
///
/// Implementations must be symmetric unless documented otherwise
/// ([`Kl`] is the one asymmetric member, kept for completeness).
pub trait HistogramDistance: Send + Sync {
    /// Distance between `a` and `b`.
    ///
    /// # Errors
    ///
    /// [`DistanceError::SpecMismatch`] for differing layouts,
    /// [`DistanceError::EmptyHistogram`] when either side has no mass.
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError>;

    /// Short stable identifier for reports and benchmarks. For every
    /// metric [`by_name`] accepts this is the key it accepts, so a
    /// metric reads the same in a report, a query plan and a cache key
    /// however it was chosen.
    fn name(&self) -> &'static str;

    /// Cheap provable bounds on `distance(a, b)`, or `None` when this
    /// distance has no screening support (the default) or the pair is
    /// degenerate (mismatched specs, empty histograms). Callers fall
    /// back to [`HistogramDistance::distance`] on `None`, so returning
    /// it is always safe.
    fn bounds(&self, a: &Histogram, b: &Histogram) -> Option<DistanceBounds> {
        let _ = (a, b);
        None
    }

    /// [`HistogramDistance::distance`] on a caller-owned solver
    /// workspace. The default ignores the scratch; the exact-EMD
    /// implementations override it to reuse solver buffers, the shared
    /// ground-matrix cache, and the replayed first Dijkstra round. The
    /// returned value is always bit-identical to `distance`.
    fn distance_with(
        &self,
        a: &Histogram,
        b: &Histogram,
        scratch: &mut SolveScratch,
    ) -> Result<f64, DistanceError> {
        let _ = scratch;
        self.distance(a, b)
    }

    /// Pre-build any process-wide cached state for histograms laid out
    /// like `h` (the exact solver's ground matrix), so that workers
    /// solving afterwards — possibly in parallel — only ever hit the
    /// cache. The default does nothing.
    ///
    /// # Errors
    ///
    /// Implementations surface ground-construction failures here instead
    /// of at the first solve.
    fn prime(&self, h: &Histogram) -> Result<(), DistanceError> {
        let _ = h;
        Ok(())
    }

    /// This distance's weighted-L1 form on `spec`, or `None` (the
    /// default) when it has none. `Some` promises that for two non-empty
    /// histograms on `spec`, `distance(a, b)` equals the form's weighted
    /// L1 sum in exact arithmetic, so averages over many histograms can
    /// come from sorted columns ([`L1Form::average_pairwise`]). A
    /// wrapper that does not forward this method keeps callers on the
    /// pairwise path, which is correct, only slower.
    fn l1_form(&self, spec: &BinSpec) -> Option<L1Form> {
        let _ = spec;
        None
    }

    /// `histograms` gathered for batched pair distances, or `None` (the
    /// default) when this distance has no batch form or cannot take the
    /// whole set (an empty histogram, mixed layouts): callers then call
    /// [`HistogramDistance::distance`] per pair, which names the error.
    /// `Some` promises that every [`PairBatch::distances_into`] value is
    /// bit-identical to `distance` on the same pair. A wrapper that does
    /// not forward this method keeps callers on the per-pair path.
    fn pair_batch(&self, histograms: &[&Histogram]) -> Option<PairBatch> {
        let _ = histograms;
        None
    }
}

// Ground-cache signature tags. A signature is the exact bit-level
// fingerprint of the data a ground matrix is built from, so equal
// signatures guarantee equal matrices (no hashing, no collisions).
const SIG_POSITIONS: u64 = 0x706f_7331; // centres, L1
const SIG_THR_GRID: u64 = 0x7468_6731; // uniform grid, thresholded
const SIG_THR_POSITIONS: u64 = 0x7468_7031; // centres, thresholded

fn positions_sig(spec: &crate::bins::BinSpec, out: &mut Vec<u64>) {
    out.push(SIG_POSITIONS);
    out.push(spec.len() as u64);
    for i in 0..spec.len() {
        out.push(spec.centre(i).to_bits());
    }
}

fn thresholded_sig(spec: &crate::bins::BinSpec, threshold: f64, out: &mut Vec<u64>) {
    if spec.is_uniform() {
        out.push(SIG_THR_GRID);
        out.push(spec.len() as u64);
        out.push(spec.lo().to_bits());
        out.push(spec.hi().to_bits());
    } else {
        out.push(SIG_THR_POSITIONS);
        out.push(spec.len() as u64);
        for i in 0..spec.len() {
            out.push(spec.centre(i).to_bits());
        }
    }
    out.push(threshold.to_bits());
}

fn frequencies(a: &Histogram, b: &Histogram) -> Result<(Vec<f64>, Vec<f64>), DistanceError> {
    if a.spec() != b.spec() {
        return Err(DistanceError::SpecMismatch);
    }
    let fa = a.frequencies().ok_or(DistanceError::EmptyHistogram)?;
    let fb = b.frequencies().ok_or(DistanceError::EmptyHistogram)?;
    Ok((fa, fb))
}

/// Closed-form 1-D EMD over bin positions — the paper's measure and the
/// fast path used by the audit algorithms.
///
/// Uniform layouts use the grid closed form; non-uniform layouts use the
/// sorted-positions closed form over bin centres. Either way the distance
/// is in score units (for scores in `[0,1]`, at most `1 - binwidth`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Emd1d;

impl HistogramDistance for Emd1d {
    /// The closed form over each histogram's cached prefix CDF — the
    /// value [`Emd1d::bounds`] returns, bit-identical to the closed form
    /// over freshly normalised frequencies, with no per-pair allocation
    /// or validation. A pair the CDFs cannot answer (mismatched specs,
    /// an empty histogram, an invalid grid) takes the frequency path,
    /// which names the error.
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        if let Some(exact) = self.bounds(a, b) {
            return Ok(exact.lower);
        }
        let (fa, fb) = frequencies(a, b)?;
        let spec = a.spec();
        if spec.is_uniform() {
            Ok(fairjob_emd::emd_1d_grid(&fa, &fb, spec.lo(), spec.hi())?)
        } else {
            Ok(fairjob_emd::emd_1d_positions(&fa, &fb, &spec.centres())?)
        }
    }

    fn name(&self) -> &'static str {
        "emd"
    }

    /// Exact bounds from the cached prefix CDFs: Vallender's identity
    /// makes the CDF-L1 closed form *equal* to the 1-D EMD, and
    /// [`Histogram::cdf_stats`] + [`bounds::cdf_l1_grid`] replicate the
    /// floating-point operation order of [`fairjob_emd::emd_1d_grid`]
    /// over the histograms' frequencies, so the returned value is
    /// bit-identical to it (and is what `distance` returns).
    fn bounds(&self, a: &Histogram, b: &Histogram) -> Option<DistanceBounds> {
        if a.spec() != b.spec() {
            return None;
        }
        let (sa, sb) = (a.cdf_stats()?, b.cdf_stats()?);
        let spec = a.spec();
        let d = if spec.is_uniform() {
            bounds::cdf_l1_grid(&sa.cdf, &sb.cdf, spec.lo(), spec.hi()).ok()?
        } else {
            bounds::cdf_l1_positions(&sa.cdf, &sb.cdf, &spec.centres()).ok()?
        };
        Some(DistanceBounds {
            lower: d,
            upper: d,
            exact: true,
        })
    }

    /// The first `B − 1` values of the cached prefix CDF, each weighted
    /// by the factor [`bounds::cdf_l1_grid`] / [`bounds::cdf_l1_positions`]
    /// applies at that cut: the bin width on uniform layouts, the gap
    /// between consecutive centres otherwise.
    fn l1_form(&self, spec: &BinSpec) -> Option<L1Form> {
        let weights: Vec<f64> = if spec.is_uniform() {
            vec![(spec.hi() - spec.lo()) / spec.len() as f64; spec.len() - 1]
        } else {
            spec.centres().windows(2).map(|w| w[1] - w[0]).collect()
        };
        weights.iter().all(|w| w.is_finite()).then_some(L1Form {
            column: L1Column::PrefixCdf,
            weights,
        })
    }

    /// Rows of the first `B − 1` cached prefix-CDF values, run through
    /// [`Emd1d::bounds`]' closed form: the bin width on uniform layouts,
    /// the gaps between centres otherwise. Declines every set that has a
    /// pair `bounds` cannot answer: mixed layouts, a histogram without
    /// cached CDF statistics (empty or invalid counts), an invalid grid
    /// or a non-finite centre.
    // `!(lo < hi)` deliberately treats NaN bounds as invalid.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn pair_batch(&self, histograms: &[&Histogram]) -> Option<PairBatch> {
        let spec = histograms.first()?.spec();
        let n = spec.len();
        let kernel = if spec.is_uniform() {
            let (lo, hi) = (spec.lo(), spec.hi());
            if !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
                return None;
            }
            BatchKernel::Grid {
                width: (hi - lo) / n as f64,
            }
        } else {
            let centres = spec.centres();
            if !centres.iter().all(|c| c.is_finite()) {
                return None;
            }
            BatchKernel::Positions {
                gaps: centres.windows(2).map(|w| w[1] - w[0]).collect(),
            }
        };
        PairBatch::gather(kernel, n - 1, histograms, |h, row| match h.cdf_stats() {
            Some(stats) if h.spec() == spec => {
                row.copy_from_slice(&stats.cdf.cdf()[..n - 1]);
                true
            }
            _ => false,
        })
    }
}

/// EMD via the exact transportation solver. Numerically identical to
/// [`Emd1d`] on 1-D grounds (to ~1e-9); exists for differential testing
/// and as the exact baseline the bound screen is measured against.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmdExact;

impl HistogramDistance for EmdExact {
    /// [`HistogramDistance::distance_with`] on a fresh workspace.
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        self.distance_with(a, b, &mut SolveScratch::new())
    }

    fn name(&self) -> &'static str {
        "emd-exact"
    }

    /// Projection lower bound and total-variation upper bound around the
    /// transportation solver. Not exact (the solver takes a different
    /// numeric path), but valid for the L1-on-centres ground it uses.
    fn bounds(&self, a: &Histogram, b: &Histogram) -> Option<DistanceBounds> {
        if a.spec() != b.spec() {
            return None;
        }
        let (sa, sb) = (a.cdf_stats()?, b.cdf_stats()?);
        let spec = a.spec();
        let span = spec.centre(spec.len() - 1) - spec.centre(0);
        Some(DistanceBounds {
            lower: (sa.mean - sb.mean).abs(),
            upper: bounds::tv_between(&sa.cdf, &sb.cdf) * span,
            exact: false,
        })
    }

    /// Solve on the workspace: cached ground matrix (no per-pair centre
    /// walk or validation), reused solver buffers, and a replayed first
    /// Dijkstra round between consecutive pairs sharing a support set.
    /// Bit-identical to a solve on a fresh workspace.
    fn distance_with(
        &self,
        a: &Histogram,
        b: &Histogram,
        scratch: &mut SolveScratch,
    ) -> Result<f64, DistanceError> {
        let (fa, fb) = frequencies(a, b)?;
        let spec = a.spec();
        let ground = scratch.ground_for(
            |sig| positions_sig(spec, sig),
            || GroundMatrix::build(&PositionsL1::new(spec.centres())),
        )?;
        Ok(fairjob_emd::emd_cost_in(scratch, &fa, &fb, &ground)?)
    }

    fn prime(&self, h: &Histogram) -> Result<(), DistanceError> {
        let spec = h.spec();
        let mut sig = Vec::new();
        positions_sig(spec, &mut sig);
        GroundCache::global().get_or_build(&sig, || {
            GroundMatrix::build(&PositionsL1::new(spec.centres()))
        })?;
        Ok(())
    }
}

/// EMD with a saturated (thresholded) ground distance, after Pele &
/// Werman (ICCV 2009): bins further apart than `threshold` all cost
/// `threshold`. Robust to outlier mass.
#[derive(Debug, Clone, Copy)]
pub struct EmdThresholded {
    /// Saturation distance in score units.
    pub threshold: f64,
}

impl HistogramDistance for EmdThresholded {
    /// [`HistogramDistance::distance_with`] on a fresh workspace.
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        self.distance_with(a, b, &mut SolveScratch::new())
    }

    fn name(&self) -> &'static str {
        "emd-thresholded"
    }

    /// Total-variation sandwich for the saturated ground: off-diagonal
    /// costs lie in `[min(gap, t), min(span, t)]`, so
    /// `TV * d_min <= EMD_t <= TV * d_max`. The projection bound is *not*
    /// valid here (it bounds the unthresholded EMD from below, which the
    /// thresholded EMD can undercut).
    fn bounds(&self, a: &Histogram, b: &Histogram) -> Option<DistanceBounds> {
        if a.spec() != b.spec() || !self.threshold.is_finite() {
            return None;
        }
        let (sa, sb) = (a.cdf_stats()?, b.cdf_stats()?);
        let spec = a.spec();
        let centres = spec.centres();
        let span = centres[centres.len() - 1] - centres[0];
        let min_gap = centres
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(f64::INFINITY, f64::min);
        let tv = bounds::tv_between(&sa.cdf, &sb.cdf);
        // A single bin has no off-diagonal cost; TV is 0 there anyway.
        let d_min = if min_gap.is_finite() { min_gap } else { 0.0 };
        Some(DistanceBounds {
            lower: tv * d_min.min(self.threshold).max(0.0),
            upper: tv * span.min(self.threshold).max(0.0),
            exact: false,
        })
    }

    fn distance_with(
        &self,
        a: &Histogram,
        b: &Histogram,
        scratch: &mut SolveScratch,
    ) -> Result<f64, DistanceError> {
        let (fa, fb) = frequencies(a, b)?;
        let spec = a.spec();
        let threshold = self.threshold;
        let ground = scratch.ground_for(
            |sig| thresholded_sig(spec, threshold, sig),
            || build_thresholded_matrix(spec, threshold),
        )?;
        Ok(fairjob_emd::emd_cost_in(scratch, &fa, &fb, &ground)?)
    }

    fn prime(&self, h: &Histogram) -> Result<(), DistanceError> {
        let spec = h.spec();
        let mut sig = Vec::new();
        thresholded_sig(spec, self.threshold, &mut sig);
        GroundCache::global()
            .get_or_build(&sig, || build_thresholded_matrix(spec, self.threshold))?;
        Ok(())
    }
}

/// Snapshot the thresholded ground for `spec` into a validated matrix:
/// the grid distance for uniform layouts, distances between bin centres
/// otherwise, each saturated at `threshold`.
fn build_thresholded_matrix(
    spec: &crate::bins::BinSpec,
    threshold: f64,
) -> Result<GroundMatrix, EmdError> {
    if spec.is_uniform() {
        let g = GridL1::new(spec.lo(), spec.hi(), spec.len())?;
        GroundMatrix::build(&Thresholded::new(g, threshold))
    } else {
        GroundMatrix::build(&Thresholded::new(
            PositionsL1::new(spec.centres()),
            threshold,
        ))
    }
}

/// Total variation distance: `½ Σ |aᵢ - bᵢ|` ∈ [0, 1]. Ignores bin
/// geometry entirely (a useful contrast with EMD in the metric ablation).
#[derive(Debug, Clone, Copy, Default)]
pub struct TotalVariation;

impl HistogramDistance for TotalVariation {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        let (fa, fb) = frequencies(a, b)?;
        Ok(0.5 * fa.iter().zip(&fb).map(|(x, y)| (x - y).abs()).sum::<f64>())
    }

    fn name(&self) -> &'static str {
        "tv"
    }

    /// The normalised frequencies, each weighted ½.
    fn l1_form(&self, spec: &BinSpec) -> Option<L1Form> {
        Some(L1Form {
            column: L1Column::Frequencies,
            weights: vec![0.5; spec.len()],
        })
    }

    /// Rows of frequencies divided out as [`Histogram::frequencies`]
    /// does, by each histogram's own total (which can differ in the last
    /// bit from the cached CDF's normalisation). Declines mixed layouts,
    /// an empty histogram and non-finite frequencies.
    fn pair_batch(&self, histograms: &[&Histogram]) -> Option<PairBatch> {
        let spec = histograms.first()?.spec();
        PairBatch::gather(BatchKernel::HalfL1, spec.len(), histograms, |h, row| {
            if h.spec() != spec || h.is_empty() {
                return false;
            }
            let total = h.total();
            for (f, c) in row.iter_mut().zip(h.counts()) {
                *f = c / total;
            }
            true
        })
    }
}

/// Kolmogorov–Smirnov statistic: `max |CDF_a - CDF_b|` ∈ [0, 1].
#[derive(Debug, Clone, Copy, Default)]
pub struct KolmogorovSmirnov;

impl HistogramDistance for KolmogorovSmirnov {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        let (fa, fb) = frequencies(a, b)?;
        let mut ca = 0.0;
        let mut cb = 0.0;
        let mut m = 0.0f64;
        for (x, y) in fa.iter().zip(&fb) {
            ca += x;
            cb += y;
            m = m.max((ca - cb).abs());
        }
        Ok(m)
    }

    fn name(&self) -> &'static str {
        "ks"
    }
}

/// Jensen–Shannon divergence (base-2, so the value is in [0, 1]);
/// symmetric, finite smoothed KL to the mixture.
#[derive(Debug, Clone, Copy, Default)]
pub struct JensenShannon;

impl HistogramDistance for JensenShannon {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        let (fa, fb) = frequencies(a, b)?;
        let mut d = 0.0;
        for (&x, &y) in fa.iter().zip(&fb) {
            let m = (x + y) / 2.0;
            if x > 0.0 {
                d += 0.5 * x * (x / m).log2();
            }
            if y > 0.0 {
                d += 0.5 * y * (y / m).log2();
            }
        }
        Ok(d.max(0.0))
    }

    fn name(&self) -> &'static str {
        "jsd"
    }
}

/// Smoothed Kullback–Leibler divergence `KL(a ‖ b)`. **Asymmetric**; bins
/// are Laplace-smoothed with `epsilon` to keep the value finite when `b`
/// has empty bins.
#[derive(Debug, Clone, Copy)]
pub struct Kl {
    /// Additive smoothing mass per bin.
    pub epsilon: f64,
}

impl Default for Kl {
    fn default() -> Self {
        Kl { epsilon: 1e-6 }
    }
}

impl HistogramDistance for Kl {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        let (fa, fb) = frequencies(a, b)?;
        let n = fa.len() as f64;
        let smooth = |v: f64| (v + self.epsilon) / (1.0 + n * self.epsilon);
        let mut d = 0.0;
        for (&x, &y) in fa.iter().zip(&fb) {
            let (sx, sy) = (smooth(x), smooth(y));
            d += sx * (sx / sy).ln();
        }
        Ok(d.max(0.0))
    }

    fn name(&self) -> &'static str {
        "kl"
    }
}

/// Hellinger distance `√(1 - Σ √(aᵢ bᵢ))` ∈ [0, 1]; a bounded metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hellinger;

impl HistogramDistance for Hellinger {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        let (fa, fb) = frequencies(a, b)?;
        let bc: f64 = fa.iter().zip(&fb).map(|(x, y)| (x * y).sqrt()).sum();
        Ok((1.0 - bc.min(1.0)).sqrt())
    }

    fn name(&self) -> &'static str {
        "hellinger"
    }
}

/// Symmetrised χ² distance: `½ Σ (aᵢ-bᵢ)² / (aᵢ+bᵢ)` ∈ [0, 1].
#[derive(Debug, Clone, Copy, Default)]
pub struct ChiSquare;

impl HistogramDistance for ChiSquare {
    fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64, DistanceError> {
        let (fa, fb) = frequencies(a, b)?;
        let mut d = 0.0;
        for (&x, &y) in fa.iter().zip(&fb) {
            let s = x + y;
            if s > 0.0 {
                d += (x - y).powi(2) / s;
            }
        }
        Ok(0.5 * d)
    }

    fn name(&self) -> &'static str {
        "chi2"
    }
}

/// Resolve a metric by its short CLI/query name, which is also the
/// metric's [`HistogramDistance::name`]; `None` means the name is
/// unknown. The accepted set matches `fairjob audit --metric`.
pub fn by_name(name: &str) -> Option<std::sync::Arc<dyn HistogramDistance>> {
    Some(match name {
        "emd" => std::sync::Arc::new(Emd1d),
        "emd-exact" => std::sync::Arc::new(EmdExact),
        "tv" => std::sync::Arc::new(TotalVariation),
        "ks" => std::sync::Arc::new(KolmogorovSmirnov),
        "jsd" => std::sync::Arc::new(JensenShannon),
        "hellinger" => std::sync::Arc::new(Hellinger),
        "chi2" => std::sync::Arc::new(ChiSquare),
        _ => return None,
    })
}

/// The names [`by_name`] accepts, for error messages.
pub const METRIC_NAMES: &[&str] = &["emd", "emd-exact", "tv", "ks", "jsd", "hellinger", "chi2"];

/// All bounded symmetric distances, for metric-sweep ablations.
pub fn all_symmetric_distances() -> Vec<Box<dyn HistogramDistance>> {
    vec![
        Box::new(Emd1d),
        Box::new(TotalVariation),
        Box::new(KolmogorovSmirnov),
        Box::new(JensenShannon),
        Box::new(Hellinger),
        Box::new(ChiSquare),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::BinSpec;

    fn spec() -> BinSpec {
        BinSpec::equal_width(0.0, 1.0, 10).unwrap()
    }

    fn h(values: &[f64]) -> Histogram {
        Histogram::from_values(spec(), values.iter().copied())
    }

    /// The transportation-simplex oracle's EMD between `a` and `b` on the
    /// full matrix of distances between bin centres.
    fn simplex_oracle(a: &Histogram, b: &Histogram) -> f64 {
        let (fa, fb) = (a.frequencies().unwrap(), b.frequencies().unwrap());
        let centres = a.spec().centres();
        let costs: Vec<Vec<f64>> = centres
            .iter()
            .map(|x| centres.iter().map(|y| (x - y).abs()).collect())
            .collect();
        fairjob_emd::simplex::solve(&fa, &fb, &costs).unwrap().cost
    }

    #[test]
    fn emd_extremes() {
        let a = h(&[0.05]);
        let b = h(&[0.95]);
        let d = Emd1d.distance(&a, &b).unwrap();
        assert!((d - 0.9).abs() < 1e-12);
    }

    #[test]
    fn all_distances_zero_on_identical() {
        let a = h(&[0.1, 0.5, 0.9]);
        for dist in all_symmetric_distances() {
            let d = dist.distance(&a, &a).unwrap();
            assert!(d.abs() < 1e-9, "{}: {d}", dist.name());
        }
        assert!(Kl::default().distance(&a, &a).unwrap().abs() < 1e-9);
    }

    #[test]
    fn all_distances_symmetric() {
        let a = h(&[0.1, 0.2, 0.5]);
        let b = h(&[0.6, 0.9, 0.95]);
        for dist in all_symmetric_distances() {
            let d1 = dist.distance(&a, &b).unwrap();
            let d2 = dist.distance(&b, &a).unwrap();
            assert!((d1 - d2).abs() < 1e-12, "{}", dist.name());
        }
    }

    #[test]
    fn kl_is_asymmetric_but_nonnegative() {
        let a = h(&[0.1, 0.1, 0.2]);
        let b = h(&[0.8, 0.9]);
        let d1 = Kl::default().distance(&a, &b).unwrap();
        let d2 = Kl::default().distance(&b, &a).unwrap();
        assert!(d1 > 0.0 && d2 > 0.0);
        assert!((d1 - d2).abs() > 1e-6, "expected asymmetry: {d1} vs {d2}");
    }

    #[test]
    fn spec_mismatch_detected() {
        let a = h(&[0.5]);
        let b = Histogram::from_values(BinSpec::equal_width(0.0, 1.0, 5).unwrap(), [0.5]);
        for dist in all_symmetric_distances() {
            assert!(matches!(
                dist.distance(&a, &b),
                Err(DistanceError::SpecMismatch)
            ));
        }
    }

    #[test]
    fn empty_histogram_detected() {
        let a = h(&[0.5]);
        let e = Histogram::empty(spec());
        assert!(matches!(
            Emd1d.distance(&a, &e),
            Err(DistanceError::EmptyHistogram)
        ));
        assert!(matches!(
            Emd1d.distance(&e, &a),
            Err(DistanceError::EmptyHistogram)
        ));
    }

    #[test]
    fn tv_and_ks_bounded_by_one() {
        let a = h(&[0.01; 5]);
        let b = h(&[0.99; 5]);
        assert!((TotalVariation.distance(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        assert!((KolmogorovSmirnov.distance(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jsd_bounded_by_one_bit() {
        let a = h(&[0.01; 5]);
        let b = h(&[0.99; 5]);
        let d = JensenShannon.distance(&a, &b).unwrap();
        assert!(d <= 1.0 + 1e-12 && d > 0.99);
    }

    #[test]
    fn hellinger_disjoint_supports() {
        let a = h(&[0.05]);
        let b = h(&[0.95]);
        assert!((Hellinger.distance(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chi_square_bounded() {
        let a = h(&[0.05]);
        let b = h(&[0.95]);
        let d = ChiSquare.distance(&a, &b).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn emd_exact_matches_closed_form() {
        let a = h(&[0.12, 0.34, 0.55, 0.9]);
        let b = h(&[0.2, 0.21, 0.8]);
        let closed = Emd1d.distance(&a, &b).unwrap();
        let exact = EmdExact.distance(&a, &b).unwrap();
        assert!((closed - exact).abs() < 1e-9, "kernel: {exact}");
        let oracle = simplex_oracle(&a, &b);
        assert!((closed - oracle).abs() < 1e-9, "simplex: {oracle}");
    }

    #[test]
    fn thresholded_caps_distance() {
        let a = h(&[0.05]);
        let b = h(&[0.95]);
        let d = EmdThresholded { threshold: 0.25 }.distance(&a, &b).unwrap();
        assert!((d - 0.25).abs() < 1e-9);
    }

    #[test]
    fn emd_on_non_uniform_spec_uses_centres() {
        let s = BinSpec::from_edges(vec![0.0, 0.5, 0.6, 1.0]).unwrap();
        let a = Histogram::from_values(s.clone(), [0.1].iter().copied()); // centre 0.25
        let b = Histogram::from_values(s, [0.9].iter().copied()); // centre 0.8
        let d = Emd1d.distance(&a, &b).unwrap();
        assert!((d - 0.55).abs() < 1e-12);
    }

    #[test]
    fn emd1d_bounds_are_exact_and_bit_identical() {
        // The reference is the closed form over freshly normalised
        // frequencies, independent of the cached CDFs that `bounds` and
        // `distance` both read.
        let reference = |a: &Histogram, b: &Histogram| {
            let (fa, fb) = (a.frequencies().unwrap(), b.frequencies().unwrap());
            let spec = a.spec();
            if spec.is_uniform() {
                fairjob_emd::emd_1d_grid(&fa, &fb, spec.lo(), spec.hi()).unwrap()
            } else {
                fairjob_emd::emd_1d_positions(&fa, &fb, &spec.centres()).unwrap()
            }
        };
        let a = h(&[0.12, 0.34, 0.55, 0.9]);
        let b = h(&[0.2, 0.21, 0.8]);
        // Non-uniform specs get the positions closed form, still exact.
        let s = BinSpec::from_edges(vec![0.0, 0.5, 0.6, 1.0]).unwrap();
        let na = Histogram::from_values(s.clone(), [0.1, 0.55].iter().copied());
        let nb = Histogram::from_values(s.clone(), [0.9, 0.55].iter().copied());
        for (x, y) in [(&a, &b), (&na, &nb)] {
            let want = reference(x, y).to_bits();
            let bd = Emd1d.bounds(x, y).unwrap();
            assert!(bd.exact);
            assert_eq!(bd.lower.to_bits(), want);
            assert_eq!(bd.upper.to_bits(), want);
            assert_eq!(Emd1d.distance(x, y).unwrap().to_bits(), want);
        }

        // Pairs the CDFs cannot answer keep their typed errors, a
        // layout mismatch before an empty side.
        let empty = Histogram::empty(spec());
        assert!(matches!(
            Emd1d.distance(&empty, &empty),
            Err(DistanceError::EmptyHistogram)
        ));
        assert!(matches!(
            Emd1d.distance(&nb, &Histogram::empty(s)),
            Err(DistanceError::EmptyHistogram)
        ));
        assert!(matches!(
            Emd1d.distance(&a, &na),
            Err(DistanceError::SpecMismatch)
        ));
        assert!(matches!(
            Emd1d.distance(&empty, &nb),
            Err(DistanceError::SpecMismatch)
        ));
    }

    #[test]
    fn solver_bounds_sandwich_the_distance() {
        let a = h(&[0.05, 0.1, 0.4]);
        let b = h(&[0.6, 0.95]);
        let bd = EmdExact.bounds(&a, &b).unwrap();
        assert!(!bd.exact);
        let d = EmdExact.distance(&a, &b).unwrap();
        assert!(bd.lower <= d + 1e-9 && d <= bd.upper + 1e-9);
        let dist = EmdThresholded { threshold: 0.25 };
        let bd = dist.bounds(&a, &b).unwrap();
        let d = dist.distance(&a, &b).unwrap();
        assert!(bd.lower <= d + 1e-9 && d <= bd.upper + 1e-9);
    }

    #[test]
    fn bounds_degenerate_pairs_return_none() {
        let a = h(&[0.5]);
        let other_spec = Histogram::from_values(BinSpec::equal_width(0.0, 1.0, 5).unwrap(), [0.5]);
        assert!(Emd1d.bounds(&a, &other_spec).is_none());
        assert!(Emd1d.bounds(&a, &Histogram::empty(spec())).is_none());
        // Distances without screening support keep the default.
        assert!(TotalVariation.bounds(&a, &a).is_none());
    }

    #[test]
    fn distance_with_is_bit_identical_to_distance() {
        let hists = [
            h(&[0.12, 0.34, 0.55, 0.9]),
            h(&[0.2, 0.21, 0.8]),
            h(&[0.05, 0.5, 0.95]),
        ];
        let thresholded = EmdThresholded { threshold: 0.25 };
        let mut scratch = SolveScratch::new();
        for a in &hists {
            for b in &hists {
                for dist in [
                    &EmdExact as &dyn HistogramDistance,
                    &thresholded,
                    &Emd1d, // default impl must also agree
                ] {
                    let plain = dist.distance(a, b).unwrap();
                    let scratched = dist.distance_with(a, b, &mut scratch).unwrap();
                    assert_eq!(
                        plain.to_bits(),
                        scratched.to_bits(),
                        "{}: plain={plain} scratched={scratched}",
                        dist.name()
                    );
                }
            }
        }
    }

    #[test]
    fn prime_makes_every_scratch_solve_a_cache_hit() {
        // A spec unlikely to collide with other tests' cache entries.
        let s = BinSpec::equal_width(0.0, 0.731, 9).unwrap();
        let a = Histogram::from_values(s.clone(), [0.1, 0.3].iter().copied());
        let b = Histogram::from_values(s, [0.5, 0.7].iter().copied());
        let dist = EmdExact;
        dist.prime(&a).unwrap();
        let mut scratch = SolveScratch::new();
        scratch.begin_chunk();
        dist.distance_with(&a, &b, &mut scratch).unwrap();
        dist.distance_with(&b, &a, &mut scratch).unwrap();
        // Primed: both solves hit a cache tier, never build.
        assert_eq!(scratch.stats().ground_cache_hits, 2);
        assert_eq!(scratch.stats().scratch_reuses, 1);
    }

    #[test]
    fn warm_starts_fire_on_shared_supports() {
        let s = BinSpec::equal_width(0.0, 1.0, 8).unwrap();
        let mk = |vals: &[f64]| Histogram::from_values(s.clone(), vals.iter().copied());
        // Same support bins, different masses.
        let a = mk(&[0.1, 0.1, 0.4, 0.9]);
        let b = mk(&[0.1, 0.4, 0.4, 0.9]);
        let c = mk(&[0.1, 0.4, 0.9, 0.9]);
        let dist = EmdExact;
        let mut scratch = SolveScratch::new();
        scratch.begin_chunk();
        let d1 = dist.distance_with(&a, &b, &mut scratch).unwrap();
        let d2 = dist.distance_with(&a, &c, &mut scratch).unwrap();
        assert_eq!(scratch.stats().warm_starts, 1);
        // Warm-started values still match the cold path bit for bit.
        assert_eq!(d1.to_bits(), dist.distance(&a, &b).unwrap().to_bits());
        assert_eq!(d2.to_bits(), dist.distance(&a, &c).unwrap().to_bits());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Emd1d.name(), "emd");
        assert_eq!(EmdExact.name(), "emd-exact");
        // Every metric `by_name` accepts reports the key it was found by.
        for &key in METRIC_NAMES {
            assert_eq!(by_name(key).unwrap().name(), key);
        }
        for dist in all_symmetric_distances() {
            assert_eq!(by_name(dist.name()).unwrap().name(), dist.name());
        }
    }
}
