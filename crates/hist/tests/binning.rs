//! The binning kernel (`BinSpec::bin_checked`) against the scalar
//! `BinSpec::bin_index` and the formula the bulk path used before the
//! kernel clamped in floating point, over seeded layouts and the values
//! where binning can go wrong: NaN, signed zeros, infinities,
//! subnormals, every edge and one ulp either side of it, and random bit
//! patterns.

use fairjob_hist::bins::MAX_BINS;
use fairjob_hist::BinSpec;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const CASES: usize = 10_000;

/// The uniform bulk formula before the kernel: a saturating cast to
/// `usize`, then a clamp to the last bin.
fn saturating_formula(spec: &BinSpec, v: f64) -> usize {
    let (lo, hi) = (spec.lo(), spec.hi());
    let n = spec.len();
    (((v - lo) / (hi - lo) * n as f64) as usize).min(n - 1)
}

fn next_up(v: f64) -> f64 {
    if v.is_nan() || v == f64::INFINITY {
        v
    } else if v == 0.0 {
        f64::from_bits(1)
    } else if v > 0.0 {
        f64::from_bits(v.to_bits() + 1)
    } else {
        f64::from_bits(v.to_bits() - 1)
    }
}

fn next_down(v: f64) -> f64 {
    -next_up(-v)
}

/// A bin count from 1 to `MAX_BINS`, mostly small.
fn bin_count(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..20) {
        0 => MAX_BINS,
        1 => 1,
        2..=5 => rng.gen_range(65..=MAX_BINS),
        _ => rng.gen_range(1..=64),
    }
}

/// `lo < hi`: the audit range, negative, tiny and wide ranges.
fn bounds(rng: &mut StdRng) -> (f64, f64) {
    match rng.gen_range(0..6) {
        0 => (0.0, 1.0),
        1 => {
            let lo = -rng.gen_range(1.0..1e6f64);
            (lo, lo + rng.gen_range(1e-3..1e6))
        }
        2 => {
            let lo = rng.gen_range(-1.0..1.0f64);
            (lo, lo + lo.abs().max(1e-300) * rng.gen_range(1e-12..1e-6))
        }
        3 => (0.0, f64::from_bits(rng.gen_range(1u64..1 << 52)) * 1e5),
        4 => (-rng.gen_range(1e290..1e300f64), rng.gen_range(1e290..1e300)),
        _ => {
            let lo = rng.gen_range(-1e3..1e3f64);
            (lo, lo + rng.gen_range(1e-9..1e9))
        }
    }
}

fn values(spec: &BinSpec, rng: &mut StdRng) -> Vec<f64> {
    let mut values = vec![
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MAX,
        f64::MIN,
    ];
    for &edge in spec.edges() {
        values.extend([next_down(edge), edge, next_up(edge)]);
    }
    for _ in 0..16 {
        values.push(f64::from_bits(rng.next_u64()));
        values.push(rng.gen_range(spec.lo()..spec.hi()));
    }
    values
}

fn assert_kernel_agrees(spec: &BinSpec, values: &[f64], case: usize) {
    let mut wide = vec![u32::MAX; values.len()];
    let inside = spec.bin_checked(values, &mut wide);
    let (lo, hi) = (spec.lo(), spec.hi());
    assert_eq!(
        inside,
        values.iter().all(|&v| lo <= v && v <= hi),
        "case {case}: batch flag"
    );
    for (&v, &index) in values.iter().zip(&wide) {
        let what = || format!("case {case}: v={v:e} ({:#x}) in {spec:?}", v.to_bits());
        assert_eq!(index as usize, spec.bin_index(v), "{}", what());
        if spec.is_uniform() {
            assert_eq!(index as usize, saturating_formula(spec, v), "{}", what());
        }
        let mut one = [0u32];
        let flag = spec.bin_checked(&[v], &mut one);
        assert_eq!(flag, lo <= v && v <= hi, "{}: flag", what());
    }
    if spec.len() <= 256 {
        let mut narrow = vec![u8::MAX; values.len()];
        assert_eq!(spec.bin_checked(values, &mut narrow), inside);
        assert!(
            narrow.iter().zip(&wide).all(|(&n, &w)| u32::from(n) == w),
            "case {case}: one-byte slots"
        );
    }
}

#[test]
fn kernel_matches_the_scalar_and_saturating_formulas() {
    let mut rng = StdRng::seed_from_u64(0xB1_45);
    for case in 0..CASES {
        let n = bin_count(&mut rng);
        let spec = if case % 10 == 9 {
            let mut edges: Vec<f64> = (0..=n).map(|_| rng.gen_range(-50.0..50.0)).collect();
            edges.sort_by(f64::total_cmp);
            edges.dedup();
            match BinSpec::from_edges(edges) {
                Ok(spec) => spec,
                Err(_) => continue, // a single distinct edge
            }
        } else {
            let (lo, hi) = bounds(&mut rng);
            BinSpec::equal_width(lo, hi, n).expect("finite lo < hi")
        };
        let values = values(&spec, &mut rng);
        assert_kernel_agrees(&spec, &values, case);
    }
}
