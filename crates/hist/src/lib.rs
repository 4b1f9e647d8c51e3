//! Histograms of scores and pluggable histogram distances.
//!
//! The EDBT 2019 fairness audit represents each group of workers by "one
//! histogram of score distributions per partition" and compares groups
//! with the Earth Mover's Distance. This crate provides:
//!
//! * [`bins`] — bin layouts: equal-width grids (the paper's "equal bins
//!   over the range of f") and explicit edges, at most
//!   [`bins::MAX_BINS`] bins.
//! * [`histogram`] — dense counted histograms with merging, normalisation
//!   and summary statistics.
//! * [`distance`] — the [`distance::HistogramDistance`] trait with the EMD
//!   implementation used by the paper plus the alternative divergences its
//!   future-work section mentions (Jensen–Shannon, KL, total variation,
//!   Kolmogorov–Smirnov, Hellinger, χ²).
//!
//! # Example
//!
//! ```
//! use fairjob_hist::{BinSpec, Histogram};
//! use fairjob_hist::distance::{Emd1d, HistogramDistance};
//!
//! let spec = BinSpec::equal_width(0.0, 1.0, 10).unwrap();
//! let low = Histogram::from_values(spec.clone(), [0.05, 0.1, 0.15].iter().copied());
//! let high = Histogram::from_values(spec, [0.9, 0.95, 0.85].iter().copied());
//! let d = Emd1d.distance(&low, &high).unwrap();
//! assert!(d > 0.7, "mass must travel most of the unit interval: {d}");
//! ```

pub mod bins;
pub mod distance;
pub mod histogram;

pub use bins::BinSpec;
pub use distance::{DistanceBounds, DistanceError, HistogramDistance, L1Form, PairBatch};
pub use fairjob_emd::{ScratchStats, SolveScratch};
pub use histogram::{CdfStats, Histogram};
