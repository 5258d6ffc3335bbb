//! Data series containers.
//!
//! A data series of length `n` is treated interchangeably as a point in an
//! `n`-dimensional Euclidean space (Section 2 of the paper). The [`Dataset`]
//! type stores all series of a collection contiguously in a single `Vec<f32>`
//! so that sequential scans, summarization passes and index bulk-loading are
//! cache friendly and allocation free.

use std::sync::OnceLock;

use crate::error::{Error, Result};

/// A collection of fixed-length data series stored contiguously.
///
/// Series values use single precision, matching the paper's experimental
/// setup ("data series points are represented using single precision
/// values").
///
/// A dataset memoizes its content fingerprint
/// ([`Dataset::fingerprint_memo`]): a build, a dataset snapshot and every
/// load against the same value hash it once. [`Dataset::push`] and
/// [`Dataset::znormalize_all`] clear the memo, a clone carries it, and
/// equality ignores it.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    series_len: usize,
    values: Vec<f32>,
    fingerprint: OnceLock<u64>,
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.series_len == other.series_len && self.values == other.values
    }
}

impl Dataset {
    /// Creates an empty dataset of series with length `series_len`.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] if `series_len` is zero.
    pub fn new(series_len: usize) -> Result<Self> {
        if series_len == 0 {
            return Err(Error::InvalidParameter(
                "series length must be positive".into(),
            ));
        }
        Ok(Self {
            series_len,
            values: Vec::new(),
            fingerprint: OnceLock::new(),
        })
    }

    /// Creates an empty dataset with capacity pre-allocated for `n` series.
    pub fn with_capacity(series_len: usize, n: usize) -> Result<Self> {
        let mut d = Self::new(series_len)?;
        d.values.reserve(n * series_len);
        Ok(d)
    }

    /// Builds a dataset from a flat buffer of `n * series_len` values.
    ///
    /// # Errors
    /// Returns [`Error::DimensionMismatch`] if the buffer length is not a
    /// multiple of `series_len`.
    pub fn from_flat(series_len: usize, values: Vec<f32>) -> Result<Self> {
        if series_len == 0 {
            return Err(Error::InvalidParameter(
                "series length must be positive".into(),
            ));
        }
        if values.len() % series_len != 0 {
            return Err(Error::DimensionMismatch {
                expected: series_len,
                found: values.len() % series_len,
            });
        }
        Ok(Self {
            series_len,
            values,
            fingerprint: OnceLock::new(),
        })
    }

    /// Builds a dataset from a slice of equally-sized series.
    pub fn from_series<S: AsRef<[f32]>>(series_len: usize, series: &[S]) -> Result<Self> {
        let mut d = Self::with_capacity(series_len, series.len())?;
        for s in series {
            d.push(s.as_ref())?;
        }
        Ok(d)
    }

    /// Appends one series to the collection.
    ///
    /// # Errors
    /// Returns [`Error::DimensionMismatch`] if the series has the wrong
    /// length.
    pub fn push(&mut self, series: &[f32]) -> Result<()> {
        if series.len() != self.series_len {
            return Err(Error::DimensionMismatch {
                expected: self.series_len,
                found: series.len(),
            });
        }
        self.values.extend_from_slice(series);
        self.fingerprint.take();
        Ok(())
    }

    /// The length (dimensionality) of every series in the collection.
    #[inline]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// The number of series in the collection.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len() / self.series_len
    }

    /// Whether the collection holds no series.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns the `i`-th series.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn series(&self, i: usize) -> &[f32] {
        let start = i * self.series_len;
        &self.values[start..start + self.series_len]
    }

    /// Returns the `i`-th series, or `None` if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&[f32]> {
        if i < self.len() {
            Some(self.series(i))
        } else {
            None
        }
    }

    /// Iterates over all series in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.values.chunks_exact(self.series_len)
    }

    /// The raw flat value buffer (row-major, one series after another).
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.values
    }

    /// Size in bytes of the raw series payload.
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f32>()
    }

    /// Returns a new dataset containing only the series whose indices are in
    /// `indices` (in the given order). Useful for sampling.
    pub fn subset(&self, indices: &[usize]) -> Result<Self> {
        let mut d = Self::with_capacity(self.series_len, indices.len())?;
        for &i in indices {
            let s = self
                .get(i)
                .ok_or_else(|| Error::InvalidParameter(format!("index {i} out of bounds")))?;
            d.push(s)?;
        }
        Ok(d)
    }

    /// Z-normalizes every series in place (zero mean, unit variance).
    pub fn znormalize_all(&mut self) {
        let len = self.series_len;
        for chunk in self.values.chunks_exact_mut(len) {
            znormalize(chunk);
        }
        self.fingerprint.take();
    }

    /// The memo of the dataset's content fingerprint: `compute(self)` on
    /// the first call since the dataset was made or last changed, the
    /// value it returned on every later call, from any thread.
    ///
    /// The memo is `hydra_persist::fingerprint_dataset`'s alone, which is
    /// where the hash itself lives; any other caller would have to pass
    /// the same function to read a meaningful value.
    pub fn fingerprint_memo(&self, compute: impl FnOnce(&Self) -> u64) -> u64 {
        *self.fingerprint.get_or_init(|| compute(self))
    }
}

/// Z-normalizes a series in place: subtracts the mean and divides by the
/// standard deviation. Constant series are mapped to all zeros.
pub fn znormalize(series: &mut [f32]) {
    let n = series.len() as f32;
    if series.is_empty() {
        return;
    }
    let mean: f32 = series.iter().sum::<f32>() / n;
    let var: f32 = series.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let std = var.sqrt();
    if std <= f32::EPSILON {
        series.iter_mut().for_each(|v| *v = 0.0);
    } else {
        series.iter_mut().for_each(|v| *v = (*v - mean) / std);
    }
}

/// Returns a z-normalized copy of `series`.
pub fn znormalized(series: &[f32]) -> Vec<f32> {
    let mut out = series.to_vec();
    znormalize(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_length() {
        assert!(Dataset::new(0).is_err());
    }

    #[test]
    fn push_and_access() {
        let mut d = Dataset::new(3).unwrap();
        d.push(&[1.0, 2.0, 3.0]).unwrap();
        d.push(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.series(0), &[1.0, 2.0, 3.0]);
        assert_eq!(d.series(1), &[4.0, 5.0, 6.0]);
        assert_eq!(d.get(2), None);
        assert_eq!(d.series_len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn push_rejects_wrong_length() {
        let mut d = Dataset::new(3).unwrap();
        let err = d.push(&[1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            Error::DimensionMismatch {
                expected: 3,
                found: 2
            }
        );
    }

    #[test]
    fn from_flat_checks_multiple() {
        assert!(Dataset::from_flat(4, vec![0.0; 12]).is_ok());
        assert!(Dataset::from_flat(4, vec![0.0; 10]).is_err());
        assert!(Dataset::from_flat(0, vec![]).is_err());
    }

    #[test]
    fn from_series_roundtrip() {
        let d = Dataset::from_series(2, &[[1.0f32, 2.0], [3.0, 4.0]]).unwrap();
        let collected: Vec<&[f32]> = d.iter().collect();
        assert_eq!(collected, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        assert_eq!(d.as_flat(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.payload_bytes(), 16);
    }

    #[test]
    fn subset_selects_in_order() {
        let d = Dataset::from_series(2, &[[0.0f32, 0.0], [1.0, 1.0], [2.0, 2.0]]).unwrap();
        let s = d.subset(&[2, 0]).unwrap();
        assert_eq!(s.series(0), &[2.0, 2.0]);
        assert_eq!(s.series(1), &[0.0, 0.0]);
        assert!(d.subset(&[7]).is_err());
    }

    #[test]
    fn znormalize_zero_mean_unit_var() {
        let mut s = vec![1.0, 2.0, 3.0, 4.0];
        znormalize(&mut s);
        let mean: f32 = s.iter().sum::<f32>() / 4.0;
        let var: f32 = s.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-5);
    }

    #[test]
    fn znormalize_constant_series_becomes_zero() {
        let mut s = vec![5.0; 8];
        znormalize(&mut s);
        assert!(s.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn znormalize_all_applies_per_series() {
        let mut d = Dataset::from_series(4, &[[1.0f32, 2.0, 3.0, 4.0], [10.0, 10.0, 10.0, 10.0]])
            .unwrap();
        d.znormalize_all();
        assert!(d.series(1).iter().all(|&v| v == 0.0));
        let mean: f32 = d.series(0).iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
    }
}
