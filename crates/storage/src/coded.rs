//! The compressed page tier: per-page affine u8 quantization and f16
//! truncation of series pages.
//!
//! A **coded page** stores every series of one buffer-pool page in a
//! reduced form — one byte (u8) or two (f16) per value instead of four —
//! plus, per series, the exact Euclidean norm of the quantization residual
//! `err = ‖series − decode(codes)‖`. Scans prune candidates on the decoded
//! approximation under the *conservative* bound `best_so_far + err`: by
//! the triangle inequality the true distance satisfies
//! `d(q, x) ≥ d(q, decode(x)) − err`, so a candidate abandoned at that
//! widened bound provably cannot beat the best answer, and only the
//! survivors pay an exact-f32 read. Every returned distance is recomputed
//! from exact f32 values with the same canonical kernel
//! ([`hydra_core::distance`]), which is what keeps answers **bit-identical**
//! to a raw-f32 store while `bytes_read` shrinks by roughly the code
//! width ratio.
//!
//! ## Codecs
//!
//! * [`PageCodec::F32`] — raw pages, no coded tier (the previous
//!   behaviour, and the default).
//! * [`PageCodec::U8`] — per-page affine quantization: the page header
//!   carries `min` and `scale`, each value encodes as
//!   `round((v − min) / scale)` clamped to `0..=255` and decodes as
//!   `min + code · scale` (Seismic-style `QuantizedSummary` layout,
//!   ~3.9× smaller at typical series lengths).
//! * [`PageCodec::F16`] — IEEE 754 binary16 truncation
//!   (round-to-nearest-even, via [`hydra_core::half`]), ~2× smaller with
//!   much tighter residuals.
//!
//! Encoding is total: non-finite inputs yield an infinite residual norm
//! for the affected series, which simply disables pruning for it (every
//! probe falls through to the exact read) — correctness never depends on
//! the data being well-behaved.
//!
//! ## On-disk form
//!
//! File-backed stores read coded pages from a sidecar file that
//! `hydra-persist` writes, validates and hands over as a path and the byte
//! offset of its first page record
//! ([`crate::SeriesStore::attach_coded_file`]); this crate parses no file
//! header. From that offset on, the file holds fixed-stride page records
//! — `[min f32][scale f32][errs f32 × count][codes width × len × count]`,
//! every page at stride [`page_disk_bytes`] of a full page so offsets are
//! computable, the last page possibly holding fewer series
//! ([`coded_records_bytes`] in all).

use hydra_core::{f16_bits_from_f32, f32_from_f16_bits, Error, Result};

/// How a [`crate::SeriesStore`] encodes its sealed pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageCodec {
    /// Raw f32 pages — no coded tier (the default).
    #[default]
    F32,
    /// Per-page affine u8 quantization (min/scale header), ~4× smaller.
    U8,
    /// IEEE 754 binary16 values, 2× smaller.
    F16,
}

impl PageCodec {
    /// Bytes per encoded value.
    pub fn code_bytes(self) -> usize {
        match self {
            PageCodec::F32 => 4,
            PageCodec::U8 => 1,
            PageCodec::F16 => 2,
        }
    }

    /// Stable lowercase name, as accepted by `--page-codec` and named by a
    /// coded sidecar's file suffix and kind.
    pub fn name(self) -> &'static str {
        match self {
            PageCodec::F32 => "f32",
            PageCodec::U8 => "u8",
            PageCodec::F16 => "f16",
        }
    }

    /// Parses a `--page-codec` value.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] for anything but `u8`, `f16`, `f32`.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "f32" => Ok(PageCodec::F32),
            "u8" => Ok(PageCodec::U8),
            "f16" => Ok(PageCodec::F16),
            other => Err(Error::InvalidParameter(format!(
                "unknown page codec '{other}' (expected u8, f16 or f32)"
            ))),
        }
    }
}

/// The encoded values of one page, in the codec's native width.
#[derive(Debug, Clone, PartialEq)]
pub enum PageCodes {
    /// One byte per value (affine codes).
    U8(Vec<u8>),
    /// One binary16 bit pattern per value.
    F16(Vec<u16>),
}

/// One encoded page: the affine header, per-series residual norms, and
/// the packed codes of `count` series.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedPage {
    /// Smallest finite value on the page (u8 codec; 0 for f16).
    pub min: f32,
    /// Quantization step (u8 codec; 1 for f16).
    pub scale: f32,
    /// Per-series residual norm `‖series − decode(codes)‖`, rounded *up*:
    /// an infinite entry disables pruning for that series.
    pub errs: Vec<f32>,
    /// Packed codes, `series_len` values per series.
    pub codes: PageCodes,
}

impl CodedPage {
    /// Encodes `values` (the concatenation of whole series, record order)
    /// with `codec`. `values.len()` must be a multiple of `series_len`.
    ///
    /// # Panics
    /// Panics if `codec` is [`PageCodec::F32`] (raw pages are not encoded)
    /// or the length is not a series multiple.
    pub fn encode(values: &[f32], series_len: usize, codec: PageCodec) -> Self {
        assert!(series_len > 0 && values.len() % series_len == 0);
        let count = values.len() / series_len;
        let (min, scale) = match codec {
            PageCodec::U8 => affine_params(values),
            PageCodec::F16 => (0.0, 1.0),
            PageCodec::F32 => panic!("f32 pages are stored raw, not encoded"),
        };
        let mut errs = Vec::with_capacity(count);
        let codes = match codec {
            PageCodec::U8 => {
                let mut codes = Vec::with_capacity(values.len());
                for series in values.chunks_exact(series_len) {
                    let mut residual = 0.0f64;
                    for &v in series {
                        let q = ((v - min) / scale).round();
                        let c = if q.is_finite() {
                            q.clamp(0.0, 255.0) as u8
                        } else {
                            0
                        };
                        codes.push(c);
                        let d = (v - (min + c as f32 * scale)) as f64;
                        residual += d * d;
                    }
                    errs.push(inflate_residual(residual));
                }
                PageCodes::U8(codes)
            }
            PageCodec::F16 => {
                let mut codes = Vec::with_capacity(values.len());
                for series in values.chunks_exact(series_len) {
                    let mut residual = 0.0f64;
                    for &v in series {
                        let c = f16_bits_from_f32(v);
                        codes.push(c);
                        let d = (v - f32_from_f16_bits(c)) as f64;
                        residual += d * d;
                    }
                    errs.push(inflate_residual(residual));
                }
                PageCodes::F16(codes)
            }
            PageCodec::F32 => unreachable!(),
        };
        Self {
            min,
            scale,
            errs,
            codes,
        }
    }

    /// Number of series on this page.
    pub fn count(&self) -> usize {
        self.errs.len()
    }

    /// Decodes series `idx` into `out` — exactly the values the fused
    /// kernels see (test/diagnostic path).
    pub fn decode_series(&self, idx: usize, series_len: usize, out: &mut Vec<f32>) {
        out.clear();
        let range = idx * series_len..(idx + 1) * series_len;
        match &self.codes {
            PageCodes::U8(c) => {
                out.extend(c[range].iter().map(|&b| self.min + b as f32 * self.scale))
            }
            PageCodes::F16(c) => out.extend(c[range].iter().map(|&b| f32_from_f16_bits(b))),
        }
    }

    /// Approximate heap footprint in f32-equivalents (for buffer-pool
    /// accounting).
    pub fn footprint_values(&self) -> usize {
        let code_bytes = match &self.codes {
            PageCodes::U8(c) => c.len(),
            PageCodes::F16(c) => c.len() * 2,
        };
        self.errs.len() + code_bytes.div_ceil(4) + 2
    }

    /// Serializes this page into its on-disk record (without padding to
    /// the full-page stride; the last page of a file is naturally short).
    pub fn to_disk_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.min.to_bits().to_le_bytes());
        out.extend_from_slice(&self.scale.to_bits().to_le_bytes());
        for &e in &self.errs {
            out.extend_from_slice(&e.to_bits().to_le_bytes());
        }
        match &self.codes {
            PageCodes::U8(c) => out.extend_from_slice(c),
            PageCodes::F16(c) => {
                for &v in c {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parses one on-disk page record of `count` series.
    ///
    /// # Errors
    /// [`Error::Storage`] if `bytes` is not exactly the record size.
    pub fn from_disk_bytes(
        bytes: &[u8],
        count: usize,
        series_len: usize,
        codec: PageCodec,
    ) -> Result<Self> {
        let expect = page_disk_bytes(count, series_len, codec);
        if bytes.len() as u64 != expect {
            return Err(Error::Storage(format!(
                "coded page holds {} bytes, expected {expect}",
                bytes.len()
            )));
        }
        let f32_at = |off: usize| {
            f32::from_bits(u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()))
        };
        let min = f32_at(0);
        let scale = f32_at(4);
        let errs: Vec<f32> = (0..count).map(|i| f32_at(8 + i * 4)).collect();
        let codes_off = 8 + count * 4;
        let codes = match codec {
            PageCodec::U8 => PageCodes::U8(bytes[codes_off..].to_vec()),
            PageCodec::F16 => PageCodes::F16(
                bytes[codes_off..]
                    .chunks_exact(2)
                    .map(|c| u16::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            PageCodec::F32 => {
                return Err(Error::Storage("f32 pages are never coded".into()));
            }
        };
        Ok(Self {
            min,
            scale,
            errs,
            codes,
        })
    }
}

/// On-disk size of a coded page record holding `count` series.
pub fn page_disk_bytes(count: usize, series_len: usize, codec: PageCodec) -> u64 {
    8 + (count * 4) as u64 + (count * series_len * codec.code_bytes()) as u64
}

/// On-disk size of the page records of `records` series grouped
/// `series_per_page` to a page: the full pages at stride
/// [`page_disk_bytes`], then the shorter last one.
pub fn coded_records_bytes(records: usize, series_len: usize, series_per_page: usize, codec: PageCodec) -> u64 {
    let (full, tail) = (records / series_per_page, records % series_per_page);
    let last = if tail > 0 { page_disk_bytes(tail, series_len, codec) } else { 0 };
    full as u64 * page_disk_bytes(series_per_page, series_len, codec) + last
}

/// Logical bytes one coded series charges to a query: the residual norm
/// plus the packed codes.
pub fn coded_series_bytes(series_len: usize, codec: PageCodec) -> u64 {
    4 + (series_len * codec.code_bytes()) as u64
}

/// The affine parameters of a u8 page: `min` over the finite values and
/// `scale = (max − min) / 255`, degenerating to `(0, 1)` when the page is
/// constant or holds no finite value (codes then all decode to `min`).
fn affine_params(values: &[f32]) -> (f32, f32) {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in values {
        if v.is_finite() {
            min = min.min(v);
            max = max.max(v);
        }
    }
    if !min.is_finite() || !max.is_finite() {
        return (0.0, 1.0);
    }
    let scale = (max - min) / 255.0;
    if scale.is_finite() && scale > 0.0 {
        (min, scale)
    } else {
        (min, 1.0)
    }
}

/// Rounds a residual norm *up* so the pruning bound stays conservative
/// against its own floating-point evaluation; non-finite residuals become
/// `+∞` (pruning disabled for the series).
fn inflate_residual(sum_sq: f64) -> f32 {
    let err = sum_sq.sqrt();
    if err.is_finite() {
        (err * 1.000_001 + 1e-7) as f32
    } else {
        f32::INFINITY
    }
}

/// The widened early-abandonment bound for pruning on a decoded
/// approximation: `best_so_far + err` plus a small guard absorbing the
/// float rounding of the kernel's partial sums. Every failure mode rounds
/// toward *not* pruning: an infinite bound (or overflow) never prunes.
pub fn conservative_threshold(best_so_far: f32, err: f32) -> f32 {
    if !best_so_far.is_finite() {
        return best_so_far;
    }
    let t = best_so_far + err;
    t + t * 1e-3 + 1e-3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_values(count: usize, len: usize) -> Vec<f32> {
        (0..count * len)
            .map(|i| (i as f32 * 0.7).sin() * 5.0 - 1.0)
            .collect()
    }

    #[test]
    fn codec_names_tags_and_parsing_round_trip() {
        for codec in [PageCodec::F32, PageCodec::U8, PageCodec::F16] {
            assert_eq!(PageCodec::parse(codec.name()).unwrap(), codec);
        }
        assert!(PageCodec::parse("lz4").is_err());
        assert_eq!(PageCodec::default(), PageCodec::F32);
        assert_eq!(PageCodec::U8.code_bytes(), 1);
        assert_eq!(PageCodec::F16.code_bytes(), 2);
    }

    #[test]
    fn u8_residual_norm_bounds_the_true_decode_error() {
        let len = 16;
        let values = page_values(5, len);
        let page = CodedPage::encode(&values, len, PageCodec::U8);
        assert_eq!(page.count(), 5);
        let mut decoded = Vec::new();
        for (idx, series) in values.chunks_exact(len).enumerate() {
            page.decode_series(idx, len, &mut decoded);
            let true_err = hydra_core::euclidean(series, &decoded);
            assert!(
                page.errs[idx] >= true_err,
                "series {idx}: stored err {} < true err {true_err}",
                page.errs[idx]
            );
            // And not wildly inflated: one quantization step per value.
            assert!(page.errs[idx] <= page.scale * (len as f32).sqrt() + 1e-3);
        }
    }

    #[test]
    fn f16_residuals_are_much_tighter_than_u8() {
        let len = 32;
        let values = page_values(4, len);
        let u8_page = CodedPage::encode(&values, len, PageCodec::U8);
        let f16_page = CodedPage::encode(&values, len, PageCodec::F16);
        for idx in 0..4 {
            assert!(f16_page.errs[idx] < u8_page.errs[idx]);
        }
    }

    #[test]
    fn encode_is_total_on_hostile_values() {
        let values = vec![f32::INFINITY, f32::NAN, 1.0, -2.0];
        for codec in [PageCodec::U8, PageCodec::F16] {
            let page = CodedPage::encode(&values, 2, codec);
            // The series containing non-finite values must never prune.
            assert_eq!(page.errs[0], f32::INFINITY, "{codec:?}");
            assert!(page.errs[1].is_finite());
        }
        // A constant page degenerates gracefully.
        let flat = CodedPage::encode(&[3.0; 8], 4, PageCodec::U8);
        let mut out = Vec::new();
        flat.decode_series(1, 4, &mut out);
        assert_eq!(out, vec![3.0; 4]);
        assert!(flat.errs.iter().all(|&e| e <= 1e-6));
    }

    #[test]
    fn disk_round_trip_is_exact() {
        let len = 7;
        for codec in [PageCodec::U8, PageCodec::F16] {
            let page = CodedPage::encode(&page_values(3, len), len, codec);
            let bytes = page.to_disk_bytes();
            assert_eq!(bytes.len() as u64, page_disk_bytes(3, len, codec));
            let back = CodedPage::from_disk_bytes(&bytes, 3, len, codec).unwrap();
            assert_eq!(back, page);
            assert!(CodedPage::from_disk_bytes(&bytes[1..], 3, len, codec).is_err());
        }
    }

    #[test]
    fn conservative_threshold_never_narrows_the_bound() {
        assert_eq!(conservative_threshold(f32::INFINITY, 1.0), f32::INFINITY);
        let t = conservative_threshold(10.0, 0.5);
        assert!(t > 10.5);
        // Overflow degrades to "never prune", not to a narrow bound.
        assert_eq!(conservative_threshold(f32::MAX, f32::MAX), f32::INFINITY);
        assert_eq!(conservative_threshold(1.0, f32::INFINITY), f32::INFINITY);
    }

    #[test]
    fn byte_economics_match_the_advertised_ratios() {
        // len=256: raw series = 1024 bytes; u8 codes + err = 260 (3.94x);
        // f16 = 516 (1.98x).
        assert_eq!(coded_series_bytes(256, PageCodec::U8), 260);
        assert_eq!(coded_series_bytes(256, PageCodec::F16), 516);
        assert_eq!(page_disk_bytes(16, 256, PageCodec::U8), 8 + 64 + 4096);
        // 7 full pages of 4 and a last page of 2.
        assert_eq!(
            coded_records_bytes(30, 8, 4, PageCodec::U8),
            7 * page_disk_bytes(4, 8, PageCodec::U8) + page_disk_bytes(2, 8, PageCodec::U8)
        );
        assert_eq!(coded_records_bytes(8, 8, 4, PageCodec::U8), 2 * page_disk_bytes(4, 8, PageCodec::U8));
    }
}
