//! Physical column storage.

/// A physical column of values, row-aligned with its table.
///
/// Categorical columns store dictionary codes (`u32` indexes into the
/// schema's declared domain), which makes splits and group-bys integer
/// comparisons instead of string comparisons.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Dictionary codes into the attribute's declared domain.
    Categorical(Vec<u32>),
    /// Real values.
    Numeric(Vec<f64>),
    /// Integer values.
    Integer(Vec<i64>),
}

impl Column {
    /// Create an empty column matching the given schema data type.
    pub fn empty_for(dtype: &crate::schema::DataType) -> Self {
        match dtype {
            crate::schema::DataType::Categorical { .. } => Column::Categorical(Vec::new()),
            crate::schema::DataType::Numeric { .. } => Column::Numeric(Vec::new()),
            crate::schema::DataType::Integer { .. } => Column::Integer(Vec::new()),
        }
    }

    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Categorical(v) => v.len(),
            Column::Numeric(v) => v.len(),
            Column::Integer(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Categorical codes, if this is a categorical column.
    pub fn as_categorical(&self) -> Option<&[u32]> {
        match self {
            Column::Categorical(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric values, if this is a numeric column.
    pub fn as_numeric(&self) -> Option<&[f64]> {
        match self {
            Column::Numeric(v) => Some(v),
            _ => None,
        }
    }

    /// Integer values, if this is an integer column.
    pub fn as_integer(&self) -> Option<&[i64]> {
        match self {
            Column::Integer(v) => Some(v),
            _ => None,
        }
    }

    /// The value of row `row` as an `f64`, when the column is numeric or
    /// integer (scoring functions read through this).
    pub fn value_as_f64(&self, row: usize) -> Option<f64> {
        match self {
            Column::Numeric(v) => v.get(row).copied(),
            Column::Integer(v) => v.get(row).map(|&x| x as f64),
            Column::Categorical(_) => None,
        }
    }
}

/// A row-aligned column of small non-negative integers — dictionary
/// codes or histogram bin indices — one byte per row when every value
/// of the domain fits (at most [`CodeColumn::NARROW_DOMAIN`] values),
/// four bytes otherwise. The per-row passes of an audit (classify, the
/// row sets of the returned partitioning) are bandwidth bound, so the
/// narrow form is their main lever.
///
/// Values must lie in the domain the column was created for; a narrow
/// column truncates wider values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeColumn {
    /// One byte per row (domain of at most 256 values).
    Narrow(Vec<u8>),
    /// Four bytes per row.
    Wide(Vec<u32>),
}

impl CodeColumn {
    /// Largest domain stored one byte per row.
    pub const NARROW_DOMAIN: usize = 256;

    /// `len` zeros, in the width a domain of `domain` values needs.
    pub fn zeroed(domain: usize, len: usize) -> Self {
        if domain <= Self::NARROW_DOMAIN {
            CodeColumn::Narrow(vec![0; len])
        } else {
            CodeColumn::Wide(vec![0; len])
        }
    }

    /// A copy of `values` (each `< domain`) in the width `domain` needs.
    pub fn from_values(domain: usize, values: &[u32]) -> Self {
        if domain <= Self::NARROW_DOMAIN {
            CodeColumn::Narrow(values.iter().map(|&value| value as u8).collect())
        } else {
            CodeColumn::Wide(values.to_vec())
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            CodeColumn::Narrow(v) => v.len(),
            CodeColumn::Wide(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of row `row` (panics when out of range).
    pub fn get(&self, row: usize) -> u32 {
        match self {
            CodeColumn::Narrow(v) => u32::from(v[row]),
            CodeColumn::Wide(v) => v[row],
        }
    }

    /// Overwrite row `row` (panics when out of range).
    pub fn set(&mut self, row: usize, value: u32) {
        match self {
            CodeColumn::Narrow(v) => v[row] = value as u8,
            CodeColumn::Wide(v) => v[row] = value,
        }
    }

    /// Append one row.
    pub fn push(&mut self, value: u32) {
        match self {
            CodeColumn::Narrow(v) => v.push(value as u8),
            CodeColumn::Wide(v) => v.push(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    #[test]
    fn code_column_width_follows_the_domain() {
        let values = [0u32, 255, 3];
        let narrow = CodeColumn::from_values(256, &values);
        assert_eq!(narrow, CodeColumn::Narrow(vec![0, 255, 3]));
        assert_eq!(narrow.get(1), 255);
        let mut wide = CodeColumn::from_values(257, &values);
        wide.push(256);
        wide.set(0, 7);
        assert_eq!(wide, CodeColumn::Wide(vec![7, 255, 3, 256]));
        assert_eq!(wide.get(3), 256);
        assert!(CodeColumn::zeroed(10, 0).is_empty());
    }

    #[test]
    fn empty_for_matches_dtype() {
        let c = Column::empty_for(&DataType::Categorical {
            domain: vec!["x".into()],
        });
        assert!(matches!(c, Column::Categorical(_)));
        assert!(c.is_empty());
        let n = Column::empty_for(&DataType::Numeric { min: 0.0, max: 1.0 });
        assert!(matches!(n, Column::Numeric(_)));
        let i = Column::empty_for(&DataType::Integer { min: 0, max: 1 });
        assert!(matches!(i, Column::Integer(_)));
    }

    #[test]
    fn accessors_are_type_safe() {
        let c = Column::Categorical(vec![0, 1, 0]);
        assert_eq!(c.as_categorical(), Some(&[0u32, 1, 0][..]));
        assert!(c.as_numeric().is_none());
        assert!(c.as_integer().is_none());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn value_as_f64_handles_integers() {
        let i = Column::Integer(vec![5, -3]);
        assert_eq!(i.value_as_f64(0), Some(5.0));
        assert_eq!(i.value_as_f64(1), Some(-3.0));
        assert_eq!(i.value_as_f64(2), None);
        let c = Column::Categorical(vec![0]);
        assert_eq!(c.value_as_f64(0), None);
    }
}
