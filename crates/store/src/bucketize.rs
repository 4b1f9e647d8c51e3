//! Deriving categorical attributes from numeric ones.
//!
//! The paper's worker schema has numeric protected attributes (Year of
//! Birth ∈ [1950, 2009], Years of Experience ∈ [0, 30]) but partitions
//! are formed on attribute *values*, so numeric protected attributes are
//! discretised into bands first (the paper's exhaustive-search remark
//! implies ≤ 5 values per attribute). Bucketisation appends a derived
//! categorical column so the original values stay available.

use crate::column::Column;
use crate::schema::{AttributeDef, AttributeKind, DataType};
use crate::table::Table;
use crate::StoreError;

/// How to cut a numeric range into buckets.
#[derive(Debug, Clone)]
pub enum BucketSpec {
    /// `n` equal-width buckets over the attribute's declared range.
    EqualWidth {
        /// Number of buckets.
        n: usize,
    },
    /// Explicit interior boundaries (strictly increasing). `k` boundaries
    /// produce `k + 1` buckets.
    Boundaries {
        /// Interior cut points.
        cuts: Vec<f64>,
    },
}

/// Append to `table` a categorical column named `new_name`, derived by
/// bucketising numeric/integer attribute `source`. The new attribute
/// inherits [`AttributeKind::Protected`] iff the source is protected.
/// Bucket labels look like `[1950,1962)`; the final bucket is closed.
///
/// Returns the index of the new attribute.
///
/// # Errors
///
/// [`StoreError::NotNumeric`] for categorical sources,
/// [`StoreError::BadBuckets`] for invalid specs, and the
/// [`Table::append_column`] errors (duplicate name).
pub fn bucketize(
    table: &mut Table,
    source: &str,
    new_name: &str,
    spec: &BucketSpec,
) -> Result<usize, StoreError> {
    let src_idx = table.schema().index_of(source)?;
    let attr = table.schema().attribute(src_idx).clone();
    let (lo, hi) = match &attr.dtype {
        DataType::Numeric { min, max } => (*min, *max),
        DataType::Integer { min, max } => (*min as f64, *max as f64),
        DataType::Categorical { .. } => {
            return Err(StoreError::NotNumeric {
                attribute: attr.name.clone(),
            })
        }
    };
    let edges: Vec<f64> = match spec {
        BucketSpec::EqualWidth { n } => {
            if *n == 0 {
                return Err(StoreError::BadBuckets {
                    reason: "zero buckets",
                });
            }
            if lo >= hi && *n > 1 {
                return Err(StoreError::BadBuckets {
                    reason: "degenerate range",
                });
            }
            (0..=*n)
                .map(|i| lo + (hi - lo) * i as f64 / *n as f64)
                .collect()
        }
        BucketSpec::Boundaries { cuts } => {
            for w in cuts.windows(2) {
                if w[0] >= w[1] {
                    return Err(StoreError::BadBuckets {
                        reason: "cuts must strictly increase",
                    });
                }
            }
            if cuts.iter().any(|c| !c.is_finite() || *c <= lo || *c >= hi) {
                return Err(StoreError::BadBuckets {
                    reason: "cuts must lie strictly inside the attribute range",
                });
            }
            let mut edges = Vec::with_capacity(cuts.len() + 2);
            edges.push(lo);
            edges.extend_from_slice(cuts);
            edges.push(hi);
            edges
        }
    };
    let n_buckets = edges.len() - 1;
    let is_integer = matches!(attr.dtype, DataType::Integer { .. });
    let domain: Vec<String> = (0..n_buckets)
        .map(|i| {
            let (a, b) = (edges[i], edges[i + 1]);
            let closing = if i + 1 == n_buckets { ']' } else { ')' };
            if is_integer {
                format!("[{},{}{}", a.round() as i64, b.round() as i64, closing)
            } else {
                format!("[{a},{b}{closing}")
            }
        })
        .collect();

    let column = table.column(src_idx);
    let codes: Vec<u32> = if let Some(values) = column.as_numeric() {
        bucket_codes(values, &edges)
    } else if let Some(values) = column.as_integer() {
        let mut scratch = Vec::with_capacity(values.len());
        for chunk in values.chunks(CLASSIFY_CHUNK) {
            scratch.extend(chunk.iter().map(|&x| x as f64));
        }
        bucket_codes(&scratch, &edges)
    } else {
        // Unreachable for numeric/integer sources (categorical was
        // rejected above); kept as the error-propagating fallback.
        let mut codes = Vec::with_capacity(table.len());
        for row in 0..table.len() {
            let v = table.f64_at(src_idx, row)?;
            codes.push(bucket_of(v, &edges) as u32);
        }
        codes
    };
    let kind = if attr.kind == AttributeKind::Protected {
        AttributeKind::Protected
    } else {
        AttributeKind::Metadata
    };
    let def = AttributeDef {
        name: new_name.to_string(),
        kind,
        dtype: DataType::Categorical { domain },
    };
    table.append_column(def, Column::Categorical(codes))?;
    Ok(table.schema().width() - 1)
}

/// Bucketise **every** numeric/integer protected attribute of `table`
/// into `n` equal-width bands named `<attr>_band`, making them all
/// splittable. Returns the new attribute indexes. Attributes already
/// accompanied by a `<attr>_band` column are skipped (idempotent).
///
/// # Errors
///
/// Propagates [`StoreError`] from the individual bucketisations.
pub fn bucketize_all_protected(table: &mut Table, n: usize) -> Result<Vec<usize>, StoreError> {
    let candidates: Vec<String> = table
        .schema()
        .attributes()
        .iter()
        .filter(|a| {
            a.kind == AttributeKind::Protected && !matches!(a.dtype, DataType::Categorical { .. })
        })
        .map(|a| a.name.clone())
        .collect();
    let mut added = Vec::new();
    for name in candidates {
        let band = format!("{name}_band");
        if table.schema().index_of(&band).is_ok() {
            continue;
        }
        added.push(bucketize(
            table,
            &name,
            &band,
            &BucketSpec::EqualWidth { n },
        )?);
    }
    Ok(added)
}

/// Index of the bucket containing `v` (edges sorted; clamped at both
/// ends; final bucket closed above).
fn bucket_of(v: f64, edges: &[f64]) -> usize {
    let n = edges.len() - 1;
    if v <= edges[0] {
        return 0;
    }
    if v >= edges[n] {
        return n - 1;
    }
    match edges.binary_search_by(|e| e.partial_cmp(&v).expect("finite")) {
        Ok(i) => i.min(n - 1),
        Err(i) => i - 1,
    }
}

/// Fixed-width chunk the classification kernels walk per iteration of
/// their outer loop; bounds the live working set so the compare-count
/// inner loop stays in cache and autovectorizes.
const CLASSIFY_CHUNK: usize = 4096;

/// Bulk form of `bucket_of`: classify every value against `edges`
/// (`edges.len() >= 2`, strictly increasing) in one chunked, branchless
/// pass. The bucket of `v` is the clamped count of interior-or-upper
/// edges `<= v` — a pure compare-and-add over a handful of edges, which
/// the compiler vectorizes, unlike the per-value binary search.
///
/// Agrees with `bucket_of` for every finite `v` and at every edge
/// (ties go right, both ends clamped, final bucket closed above). The
/// only divergence is `NaN`, where `bucket_of` panics and this kernel
/// classifies into bucket 0 — table columns are range-validated on
/// insert, so `NaN` never reaches either path in practice.
pub fn bucket_codes(values: &[f64], edges: &[f64]) -> Vec<u32> {
    debug_assert!(edges.len() >= 2);
    let top = (edges.len() - 2) as u32;
    let cuts = &edges[1..];
    let mut codes = Vec::with_capacity(values.len());
    for chunk in values.chunks(CLASSIFY_CHUNK) {
        codes.extend(chunk.iter().map(|&v| {
            let mut c = 0u32;
            for &e in cuts {
                c += u32::from(e <= v);
            }
            c.min(top)
        }));
    }
    codes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::Value;
    use crate::RowSet;

    fn table() -> Table {
        let schema = Schema::builder()
            .categorical("gender", AttributeKind::Protected, &["Male", "Female"])
            .integer("yob", AttributeKind::Protected, 1950, 2009)
            .numeric("approval", AttributeKind::Observed, 25.0, 100.0)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (g, y, a) in [
            ("Male", 1950, 25.0),
            ("Female", 1961, 50.0),
            ("Male", 1962, 75.0),
            ("Female", 1999, 99.0),
            ("Male", 2009, 100.0),
        ] {
            t.push_row(&[Value::cat(g), Value::int(y), Value::num(a)])
                .unwrap();
        }
        t
    }

    #[test]
    fn equal_width_buckets_integer_attribute() {
        let mut t = table();
        let idx = bucketize(&mut t, "yob", "yob_band", &BucketSpec::EqualWidth { n: 5 }).unwrap();
        assert_eq!(idx, 3);
        let attr = t.schema().attribute(idx);
        assert_eq!(attr.cardinality(), Some(5));
        assert_eq!(attr.kind, AttributeKind::Protected);
        // Width 11.8: 1950->0, 1961->0, 1962->1, 1999->4, 2009->4.
        let codes = t.column(idx).as_categorical().unwrap();
        assert_eq!(codes, &[0, 0, 1, 4, 4]);
        // The derived attribute becomes splittable.
        assert!(t.schema().splittable().contains(&idx));
    }

    #[test]
    fn labels_render_intervals() {
        let mut t = table();
        let idx = bucketize(&mut t, "yob", "band", &BucketSpec::EqualWidth { n: 2 }).unwrap();
        let attr = t.schema().attribute(idx);
        assert_eq!(attr.label_of(0).unwrap(), "[1950,1980)");
        assert_eq!(attr.label_of(1).unwrap(), "[1980,2009]");
    }

    #[test]
    fn explicit_boundaries() {
        let mut t = table();
        let idx = bucketize(
            &mut t,
            "approval",
            "approval_band",
            &BucketSpec::Boundaries {
                cuts: vec![50.0, 90.0],
            },
        )
        .unwrap();
        let codes = t.column(idx).as_categorical().unwrap();
        // 25->0, 50->1 (edge goes right), 75->1, 99->2, 100->2.
        assert_eq!(codes, &[0, 1, 1, 2, 2]);
        // Derived from an observed attribute -> metadata, not splittable.
        assert_eq!(t.schema().attribute(idx).kind, AttributeKind::Metadata);
        assert!(!t.schema().splittable().contains(&idx));
    }

    #[test]
    fn bad_specs_rejected() {
        let mut t = table();
        assert!(matches!(
            bucketize(&mut t, "yob", "b", &BucketSpec::EqualWidth { n: 0 }),
            Err(StoreError::BadBuckets { .. })
        ));
        assert!(matches!(
            bucketize(
                &mut t,
                "yob",
                "b",
                &BucketSpec::Boundaries {
                    cuts: vec![1990.0, 1960.0]
                }
            ),
            Err(StoreError::BadBuckets { .. })
        ));
        assert!(matches!(
            bucketize(
                &mut t,
                "yob",
                "b",
                &BucketSpec::Boundaries { cuts: vec![1940.0] }
            ),
            Err(StoreError::BadBuckets { .. })
        ));
        assert!(matches!(
            bucketize(&mut t, "gender", "b", &BucketSpec::EqualWidth { n: 2 }),
            Err(StoreError::NotNumeric { .. })
        ));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut t = table();
        assert!(matches!(
            bucketize(&mut t, "yob", "gender", &BucketSpec::EqualWidth { n: 2 }),
            Err(StoreError::DuplicateAttribute { .. })
        ));
    }

    #[test]
    fn bucketize_all_protected_is_idempotent() {
        let mut t = table();
        let added = bucketize_all_protected(&mut t, 5).unwrap();
        assert_eq!(added.len(), 1, "only yob is numeric protected");
        assert_eq!(t.schema().index_of("yob_band").unwrap(), added[0]);
        // approval is observed -> untouched.
        assert!(t.schema().index_of("approval_band").is_err());
        // Second call adds nothing.
        assert!(bucketize_all_protected(&mut t, 5).unwrap().is_empty());
        assert!(t.schema().splittable().contains(&added[0]));
    }

    #[test]
    fn bulk_kernel_matches_scalar_bucket_of() {
        // Edges with exact-value collisions, boundary values, and
        // out-of-range values on both sides.
        let edges = [0.0, 1.5, 3.0, 4.5, 6.0];
        let mut values = vec![-1.0, 0.0, 0.1, 1.5, 2.9, 3.0, 4.5, 5.9, 6.0, 7.0];
        for i in 0..100 {
            values.push((i as f64) * 0.071 - 0.5);
        }
        let bulk = bucket_codes(&values, &edges);
        for (&v, &code) in values.iter().zip(&bulk) {
            assert_eq!(
                code as usize,
                bucket_of(v, &edges),
                "kernel diverged from bucket_of at v={v}"
            );
        }
    }

    #[test]
    fn buckets_cover_all_rows() {
        let mut t = table();
        let idx = bucketize(&mut t, "yob", "band", &BucketSpec::EqualWidth { n: 3 }).unwrap();
        let groups = crate::groupby::group_by(&t, &RowSet::all(t.len()), idx).unwrap();
        let covered: usize = groups.iter().map(|(_, rs)| rs.len()).sum();
        assert_eq!(covered, t.len());
    }
}
