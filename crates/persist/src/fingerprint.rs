//! Build-parameter fingerprints.
//!
//! A snapshot records a single `u64` fingerprint of everything that shaped
//! the index: its kind, every build parameter, and the dataset content it
//! was built over. Loading recomputes the fingerprint from the *requested*
//! configuration and dataset and refuses
//! ([`crate::PersistError::FingerprintMismatch`]) to deserialize a snapshot
//! built differently — the on-disk analogue of "this binary was compiled
//! with different flags".
//!
//! The hash is FNV-1a 64 over a canonical little-endian byte stream. Floats
//! contribute their IEEE bit patterns, so the fingerprint is exact (no
//! epsilon comparisons) and deterministic across platforms.

use hydra_core::Dataset;

use crate::snapshot::{fnv1a64_continue, FNV_OFFSET_BASIS};

/// Incremental FNV-1a 64 hasher over typed values.
///
/// Slice pushes hash only the element bytes (no length prefix), so hashing a
/// buffer in one call or in chunks yields the same fingerprint — which lets
/// an index that stores its data in a permuted layout reproduce the
/// dataset-order fingerprint series by series.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self {
            state: FNV_OFFSET_BASIS,
        }
    }

    fn absorb(&mut self, bytes: &[u8]) {
        self.state = fnv1a64_continue(self.state, bytes);
    }

    /// Hashes a `u64`.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.absorb(&v.to_le_bytes());
        self
    }

    /// Hashes a `usize` (as a `u64`).
    pub fn push_usize(&mut self, v: usize) -> &mut Self {
        self.push_u64(v as u64)
    }

    /// Hashes an `f32` by bit pattern.
    pub fn push_f32(&mut self, v: f32) -> &mut Self {
        self.absorb(&v.to_bits().to_le_bytes());
        self
    }

    /// Hashes an `f64` by bit pattern.
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.absorb(&v.to_bits().to_le_bytes());
        self
    }

    /// Hashes a string's UTF-8 bytes followed by a NUL separator (so
    /// adjacent strings cannot alias).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.absorb(s.as_bytes());
        self.absorb(&[0]);
        self
    }

    /// Hashes a slice of `f32`s element by element (no length prefix; see
    /// the type-level docs).
    pub fn push_f32s(&mut self, v: &[f32]) -> &mut Self {
        for &x in v {
            self.push_f32(x);
        }
        self
    }

    /// The finished fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Content fingerprint of a dataset: its shape followed by every value's bit
/// pattern, in dataset order. Hashed once per dataset value, then read from
/// its memo ([`Dataset::fingerprint_memo`]) until it changes.
pub fn fingerprint_dataset(dataset: &Dataset) -> u64 {
    dataset.fingerprint_memo(|dataset| {
        let mut f = Fingerprint::new();
        f.push_usize(dataset.series_len());
        f.push_usize(dataset.len());
        f.push_f32s(dataset.as_flat());
        f.finish()
    })
}

/// Runs `work` — a tree build's inserts — while a helper thread fills
/// `dataset`'s fingerprint memo ([`fingerprint_dataset`]), which the build's
/// layout reads once the inserts are done.
pub fn while_fingerprinting<R>(dataset: &Dataset, work: impl FnOnce() -> R) -> R {
    hydra_core::workers::join(work, || fingerprint_dataset(dataset)).0
}

/// [`fingerprint_dataset`] computed one series at a time, for collections
/// with no flat slice to hand out (file-backed stores, grown stores with a
/// resident tail): the caller announces the shape, then feeds every series
/// **in dataset order**, and `finish` yields exactly the value
/// [`fingerprint_dataset`] would — which is how a streaming-ingested index
/// recomputes its content fingerprint at save time from an unaccounted
/// store scan.
#[derive(Debug, Clone)]
pub struct SeriesFingerprinter {
    f: Fingerprint,
    series_len: usize,
    expected: usize,
    fed: usize,
}

impl SeriesFingerprinter {
    /// Starts a fingerprint of `num_series` series of length `series_len`.
    pub fn new(series_len: usize, num_series: usize) -> Self {
        let mut f = Fingerprint::new();
        f.push_usize(series_len);
        f.push_usize(num_series);
        Self {
            f,
            series_len,
            expected: num_series,
            fed: 0,
        }
    }

    /// Feeds the next series (dataset order).
    ///
    /// # Panics
    /// Panics on a wrong series length or when more than the announced
    /// number of series is fed.
    pub fn push_series(&mut self, series: &[f32]) -> &mut Self {
        assert_eq!(series.len(), self.series_len, "series length mismatch");
        assert!(self.fed < self.expected, "more series than announced");
        self.fed += 1;
        self.f.push_f32s(series);
        self
    }

    /// The finished fingerprint.
    ///
    /// # Panics
    /// Panics unless exactly the announced number of series was fed.
    pub fn finish(&self) -> u64 {
        assert_eq!(self.fed, self.expected, "fewer series than announced");
        self.f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_deterministic_and_sensitive() {
        let mut a = Fingerprint::new();
        a.push_u64(1).push_f32(2.0).push_str("x");
        let mut b = Fingerprint::new();
        b.push_u64(1).push_f32(2.0).push_str("x");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.push_u64(1).push_f32(2.0).push_str("y");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn chunked_f32_pushes_match_one_push() {
        let data = [1.0f32, -2.0, 3.5, 0.0, 9.25];
        let mut whole = Fingerprint::new();
        whole.push_f32s(&data);
        let mut chunked = Fingerprint::new();
        chunked.push_f32s(&data[..2]).push_f32s(&data[2..]);
        assert_eq!(whole.finish(), chunked.finish());
    }

    #[test]
    fn dataset_fingerprint_depends_on_content_and_shape() {
        let a = Dataset::from_series(2, &[[1.0f32, 2.0], [3.0, 4.0]]).unwrap();
        let b = Dataset::from_series(2, &[[1.0f32, 2.0], [3.0, 4.0]]).unwrap();
        let c = Dataset::from_series(2, &[[1.0f32, 2.0], [3.0, 5.0]]).unwrap();
        let d = Dataset::from_series(4, &[[1.0f32, 2.0, 3.0, 4.0]]).unwrap();
        assert_eq!(fingerprint_dataset(&a), fingerprint_dataset(&b));
        assert_ne!(fingerprint_dataset(&a), fingerprint_dataset(&c));
        assert_ne!(fingerprint_dataset(&a), fingerprint_dataset(&d));
    }

    #[test]
    fn streamed_fingerprint_matches_dataset_fingerprint() {
        let data =
            Dataset::from_series(2, &[[0.0f32, 1.0], [2.0, 3.0], [4.0, 5.0]]).unwrap();
        let mut s = SeriesFingerprinter::new(2, 3);
        for series in data.iter() {
            s.push_series(series);
        }
        assert_eq!(s.finish(), fingerprint_dataset(&data));
    }

    #[test]
    fn the_dataset_memo_is_cleared_by_every_change_and_carried_by_a_clone() {
        let streamed = |d: &Dataset| {
            let mut s = SeriesFingerprinter::new(d.series_len(), d.len());
            d.iter().for_each(|series| {
                s.push_series(series);
            });
            s.finish()
        };
        let mut d = Dataset::from_series(2, &[[0.0f32, 1.0], [2.0, 3.0]]).unwrap();
        let first = fingerprint_dataset(&d);
        assert_eq!(first, streamed(&d));
        let copy = d.clone();
        assert_eq!(copy, d);
        assert_eq!(fingerprint_dataset(&copy), first);

        d.push(&[4.0, 5.0]).unwrap();
        assert_eq!(fingerprint_dataset(&d), streamed(&d));
        assert_ne!(fingerprint_dataset(&d), first);
        assert_ne!(copy, d);
        assert_eq!(fingerprint_dataset(&copy), first, "the clone keeps its own memo");

        let before = fingerprint_dataset(&d);
        d.znormalize_all();
        assert_eq!(fingerprint_dataset(&d), streamed(&d));
        assert_ne!(fingerprint_dataset(&d), before);

        // Equality ignores the memo: a hashed and an unhashed copy of the
        // same values are equal.
        let unhashed = Dataset::from_flat(2, d.as_flat().to_vec()).unwrap();
        assert_eq!(unhashed, d);
        assert_eq!(fingerprint_dataset(&unhashed), fingerprint_dataset(&d));
    }

    #[test]
    #[should_panic(expected = "fewer series than announced")]
    fn streamed_fingerprint_rejects_short_feeds() {
        SeriesFingerprinter::new(2, 3).finish();
    }
}
