//! Bin layouts for score histograms.
//!
//! The paper builds histograms "by creating equal bins over the range of
//! f"; [`BinSpec::equal_width`] is that layout. [`BinSpec::from_edges`]
//! builds non-uniform layouts from explicit edges.

use std::fmt;
use std::sync::Arc;

/// The most bins a layout may have. Bin counts arrive from CLI flags and
/// FairQL text, and an audit holds one dense count vector per histogram,
/// so the count is bounded before anything is allocated for it. The
/// paper binaries use 10 bins and the ablations sweep up to 100.
pub const MAX_BINS: usize = 4096;

/// The [`BinError::BadSpec`] reason for a layout over [`MAX_BINS`].
const TOO_MANY_BINS: &str = "more than 4096 bins";

/// Errors from constructing or using a bin layout.
#[derive(Debug, Clone, PartialEq)]
pub enum BinError {
    /// `lo >= hi`, non-finite bound, zero bins or more than
    /// [`MAX_BINS`] bins requested.
    BadSpec(&'static str),
    /// Explicit edges were not strictly increasing.
    EdgesNotIncreasing {
        /// Index of the first offending edge.
        index: usize,
    },
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::BadSpec(reason) => write!(f, "bad bin spec: {reason}"),
            BinError::EdgesNotIncreasing { index } => {
                write!(f, "bin edges must be strictly increasing (edge {index})")
            }
        }
    }
}

impl std::error::Error for BinError {}

/// A one-dimensional bin layout over a closed interval.
///
/// Values below the first edge clamp into the first bin and values above
/// the last edge clamp into the last bin, so every finite value maps to a
/// bin; scoring functions are supposed to emit values in `[lo, hi]` but
/// clamping makes histogramming total.
///
/// Clones share one edge buffer, so every histogram of an audit holds
/// its context's layout for a reference-count bump, and comparing two
/// of them is a pointer check. Specs built separately still compare by
/// their edges.
#[derive(Debug, Clone)]
pub struct BinSpec {
    edges: Arc<[f64]>,
    /// True when the layout is an equal-width grid (enables the
    /// closed-form EMD fast path keyed on `(lo, hi, n)`).
    uniform: bool,
}

impl PartialEq for BinSpec {
    fn eq(&self, other: &Self) -> bool {
        // Both constructors keep every edge finite, so a shared buffer
        // equals itself element by element: the pointer check only
        // skips the compare.
        self.uniform == other.uniform
            && (Arc::ptr_eq(&self.edges, &other.edges) || self.edges == other.edges)
    }
}

impl BinSpec {
    /// `n` equal-width bins spanning `[lo, hi]` — the paper's layout.
    ///
    /// # Errors
    ///
    /// [`BinError::BadSpec`] for non-finite bounds, `lo >= hi`, a range
    /// wider than `f64::MAX` (its edges would not be finite), `n == 0`
    /// or `n > MAX_BINS`.
    // `!(lo < hi)` deliberately treats NaN bounds as invalid.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn equal_width(lo: f64, hi: f64, n: usize) -> Result<Self, BinError> {
        if !lo.is_finite() || !hi.is_finite() || !(lo < hi) {
            return Err(BinError::BadSpec("require finite lo < hi"));
        }
        if n == 0 {
            return Err(BinError::BadSpec("zero bins"));
        }
        if n > MAX_BINS {
            return Err(BinError::BadSpec(TOO_MANY_BINS));
        }
        let width = (hi - lo) / n as f64;
        let edges: Arc<[f64]> = (0..=n).map(|i| lo + i as f64 * width).collect();
        if !edges.iter().all(|e| e.is_finite()) {
            return Err(BinError::BadSpec("range too wide"));
        }
        Ok(BinSpec {
            edges,
            uniform: true,
        })
    }

    /// Bins from explicit, strictly increasing edges (`k+1` edges → `k`
    /// bins).
    ///
    /// # Errors
    ///
    /// [`BinError::BadSpec`] with fewer than two edges, more than
    /// [`MAX_BINS`] bins or non-finite edges;
    /// [`BinError::EdgesNotIncreasing`] otherwise.
    pub fn from_edges(edges: Vec<f64>) -> Result<Self, BinError> {
        if edges.len() < 2 {
            return Err(BinError::BadSpec("need at least two edges"));
        }
        if edges.len() - 1 > MAX_BINS {
            return Err(BinError::BadSpec(TOO_MANY_BINS));
        }
        for (i, w) in edges.windows(2).enumerate() {
            if !w[0].is_finite() || !w[1].is_finite() {
                return Err(BinError::BadSpec("non-finite edge"));
            }
            if w[0] >= w[1] {
                return Err(BinError::EdgesNotIncreasing { index: i + 1 });
            }
        }
        Ok(BinSpec {
            edges: edges.into(),
            uniform: false,
        })
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.edges.len() - 1
    }

    /// True when the spec has no bins (never constructible; for
    /// completeness of the container API).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lowest edge.
    pub fn lo(&self) -> f64 {
        self.edges[0]
    }

    /// Highest edge.
    pub fn hi(&self) -> f64 {
        *self.edges.last().expect("at least two edges")
    }

    /// Whether this is an equal-width grid.
    pub fn is_uniform(&self) -> bool {
        self.uniform
    }

    /// The edges (length `len() + 1`).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Centre of bin `i`.
    pub fn centre(&self, i: usize) -> f64 {
        (self.edges[i] + self.edges[i + 1]) / 2.0
    }

    /// All bin centres.
    pub fn centres(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.centre(i)).collect()
    }

    /// Map a value to its bin index. Out-of-range values clamp to the
    /// first/last bin; NaN maps to the first bin (histogram callers
    /// should filter NaN upstream — scores are validated on creation).
    // `!(value > lo)` deliberately routes NaN into the first bin.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn bin_index(&self, value: f64) -> usize {
        let n = self.len();
        if self.uniform {
            let lo = self.lo();
            let hi = self.hi();
            if !(value > lo) {
                return 0;
            }
            if value >= hi {
                return n - 1;
            }
            let idx = ((value - lo) / (hi - lo) * n as f64) as usize;
            idx.min(n - 1)
        } else {
            // Binary search over edges: find rightmost edge <= value.
            if !(value > self.edges[0]) {
                return 0;
            }
            if value >= self.edges[n] {
                return n - 1;
            }
            match self
                .edges
                .binary_search_by(|e| e.partial_cmp(&value).expect("finite edges"))
            {
                Ok(i) => i.min(n - 1),
                Err(i) => i - 1,
            }
        }
    }

    /// Bulk form of [`BinSpec::bin_index`]: the indices of a whole
    /// slice (a wrapper around [`BinSpec::bin_checked`]).
    pub fn bin_indices(&self, values: &[f64]) -> Vec<u32> {
        let mut out = vec![0; values.len()];
        self.bin_checked(values, &mut out);
        out
    }

    /// The binning kernel: write the bin of `values[i]` to `out[i]` —
    /// [`BinSpec::bin_index`]'s index for every `f64` — and return
    /// whether every value lay in `[lo, hi]` (NaN does not), in one
    /// pass with no data-dependent branch on the uniform layout.
    ///
    /// The uniform layout clamps in floating point before the cast,
    /// `((v - lo) / (hi - lo) * n).max(0.0).min(n - 1)`, with
    /// [`BinSpec::bin_index`]'s operation order: NaN and values at or
    /// below `lo` land in bin 0 (`max` returns its non-NaN operand),
    /// values at or above `hi` in bin `n - 1`, and the clamped value
    /// truncates exactly as the scalar path's integer cast does.
    /// Non-uniform layouts binary-search each value.
    ///
    /// # Panics
    ///
    /// When `out` and `values` differ in length.
    pub fn bin_checked<S: Slot>(&self, values: &[f64], out: &mut [S]) -> bool {
        assert_eq!(values.len(), out.len(), "one output slot per value");
        let (lo, hi) = (self.lo(), self.hi());
        let mut inside = true;
        if self.uniform {
            let width = hi - lo;
            let scale = self.len() as f64;
            let top = (self.len() - 1) as f64;
            for (slot, &v) in out.iter_mut().zip(values) {
                inside &= (v >= lo) & (v <= hi);
                let clamped = ((v - lo) / width * scale).max(0.0).min(top);
                // SAFETY: `max` returns its non-NaN operand and `min`
                // keeps the result at most `top`, so `clamped` is finite
                // in `[0, MAX_BINS - 1]` and its truncation fits an
                // `i32` — the unchecked cast's requirement. (The checked
                // cast compiles to a scalar convert per value; this one
                // to a packed convert.)
                let index = unsafe { clamped.to_int_unchecked::<i32>() };
                *slot = S::from_index(index as u32);
            }
        } else {
            for (slot, &v) in out.iter_mut().zip(values) {
                inside &= (v >= lo) & (v <= hi);
                *slot = S::from_index(self.bin_index(v) as u32);
            }
        }
        inside
    }
}

/// An element of a column of small unsigned indices (bins, dictionary
/// codes, cell keys): `u8` when every index is below 256, else `u32`.
pub trait Slot: Copy {
    /// `index` as a slot. A `u8` slot keeps the low byte, so callers
    /// pick it only for indices below 256.
    fn from_index(index: u32) -> Self;
    /// The slot's index.
    fn index(self) -> usize;
}

impl Slot for u8 {
    #[inline(always)]
    fn from_index(index: u32) -> Self {
        index as u8
    }
    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }
}

impl Slot for u32 {
    #[inline(always)]
    fn from_index(index: u32) -> Self {
        index
    }
    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_bin_indices_match_scalar_bin_index() {
        let uniform = BinSpec::equal_width(-2.0, 3.0, 7).unwrap();
        let skewed = BinSpec::from_edges(vec![0.0, 0.1, 0.5, 0.55, 2.0]).unwrap();
        let mut values = vec![
            f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -3.0,
            -2.0,
            3.0,
            4.0,
            0.0,
            0.1,
            0.5,
            0.55,
            2.0,
        ];
        // Dense sweep across and past both ranges, hitting edges exactly.
        for i in 0..=600 {
            values.push(-3.0 + i as f64 * 0.0125);
        }
        for spec in [&uniform, &skewed] {
            let bulk = spec.bin_indices(&values);
            assert_eq!(bulk.len(), values.len());
            for (&v, &idx) in values.iter().zip(&bulk) {
                assert_eq!(
                    idx as usize,
                    spec.bin_index(v),
                    "bulk kernel diverged at v={v} (uniform={})",
                    spec.is_uniform()
                );
            }
        }
    }

    #[test]
    fn shared_edges_compare_and_print_as_separate_ones() {
        let spec = BinSpec::equal_width(0.0, 1.0, 4).unwrap();
        let clone = spec.clone();
        assert!(Arc::ptr_eq(&spec.edges, &clone.edges));
        let separate = BinSpec::equal_width(0.0, 1.0, 4).unwrap();
        assert!(!Arc::ptr_eq(&spec.edges, &separate.edges));
        let mut edges = spec.edges().to_vec();
        edges[2] = f64::from_bits(edges[2].to_bits() + 1);
        let one_edge = BinSpec::from_edges(edges).unwrap();
        let explicit = BinSpec::from_edges(spec.edges().to_vec()).unwrap();
        assert_eq!(explicit.edges(), spec.edges());
        let specs = [&spec, &clone, &separate, &one_edge, &explicit];
        // Equality is the field-by-field comparison of edges and layout
        // kind, whether or not the edges are shared.
        for a in specs {
            for b in specs {
                let by_fields = a.edges() == b.edges() && a.is_uniform() == b.is_uniform();
                assert_eq!(a == b, by_fields, "{a:?} vs {b:?}");
            }
        }
        assert_eq!(clone, spec);
        assert_eq!(separate, spec);
        assert_ne!(one_edge, spec);
        assert_ne!(explicit, spec);
        let printed = "BinSpec { edges: [0.0, 0.25, 0.5, 0.75, 1.0], uniform: true }";
        assert_eq!(format!("{spec:?}"), printed);
        assert_eq!(format!("{clone:?}"), printed);
        assert_eq!(
            format!("{explicit:#?}"),
            "BinSpec {\n    edges: [\n        0.0,\n        0.25,\n        0.5,\n        \
             0.75,\n        1.0,\n    ],\n    uniform: false,\n}"
        );
    }

    #[test]
    fn equal_width_layout() {
        let s = BinSpec::equal_width(0.0, 1.0, 10).unwrap();
        assert_eq!(s.len(), 10);
        assert!(s.is_uniform());
        assert_eq!(s.lo(), 0.0);
        assert_eq!(s.hi(), 1.0);
        assert!((s.centre(0) - 0.05).abs() < 1e-12);
        assert!((s.centre(9) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn equal_width_rejects_bad_specs() {
        assert!(BinSpec::equal_width(1.0, 0.0, 10).is_err());
        assert!(BinSpec::equal_width(0.0, 1.0, 0).is_err());
        assert!(BinSpec::equal_width(f64::NAN, 1.0, 3).is_err());
        // The span overflows: the edges would be NaN and infinite.
        assert_eq!(
            BinSpec::equal_width(-1e308, 1e308, 10),
            Err(BinError::BadSpec("range too wide"))
        );
    }

    #[test]
    fn bin_count_is_bounded() {
        assert_eq!(
            BinSpec::equal_width(0.0, 1.0, MAX_BINS).unwrap().len(),
            MAX_BINS
        );
        let err = BinSpec::equal_width(0.0, 1.0, MAX_BINS + 1).unwrap_err();
        assert_eq!(err, BinError::BadSpec(TOO_MANY_BINS));
        assert!(err.to_string().contains(&MAX_BINS.to_string()));
        let edges = |bins: usize| (0..=bins).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(
            BinSpec::from_edges(edges(MAX_BINS)).unwrap().len(),
            MAX_BINS
        );
        assert!(matches!(
            BinSpec::from_edges(edges(MAX_BINS + 1)),
            Err(BinError::BadSpec(_))
        ));
    }

    #[test]
    fn bin_index_uniform() {
        let s = BinSpec::equal_width(0.0, 1.0, 10).unwrap();
        assert_eq!(s.bin_index(0.0), 0);
        assert_eq!(s.bin_index(0.05), 0);
        assert_eq!(s.bin_index(0.1), 1);
        assert_eq!(s.bin_index(0.95), 9);
        assert_eq!(s.bin_index(1.0), 9); // top edge is inclusive
        assert_eq!(s.bin_index(-5.0), 0); // clamp
        assert_eq!(s.bin_index(5.0), 9); // clamp
    }

    #[test]
    fn bin_index_explicit_edges() {
        let s = BinSpec::from_edges(vec![0.0, 0.1, 0.5, 1.0]).unwrap();
        assert_eq!(s.len(), 3);
        assert!(!s.is_uniform());
        assert_eq!(s.bin_index(0.05), 0);
        assert_eq!(s.bin_index(0.1), 1); // edge belongs to the right bin
        assert_eq!(s.bin_index(0.3), 1);
        assert_eq!(s.bin_index(0.7), 2);
        assert_eq!(s.bin_index(1.0), 2);
    }

    #[test]
    fn edges_must_increase() {
        assert!(matches!(
            BinSpec::from_edges(vec![0.0, 0.5, 0.5, 1.0]),
            Err(BinError::EdgesNotIncreasing { index: 2 })
        ));
        assert!(BinSpec::from_edges(vec![0.0]).is_err());
    }

    #[test]
    fn centres_cover_grid() {
        let s = BinSpec::equal_width(0.0, 2.0, 4).unwrap();
        let c = s.centres();
        assert_eq!(c.len(), 4);
        assert!((c[0] - 0.25).abs() < 1e-12);
        assert!((c[3] - 1.75).abs() < 1e-12);
    }
}
