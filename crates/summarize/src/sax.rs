//! Symbolic Aggregate approXimation (SAX) and the indexable iSAX
//! representation.
//!
//! SAX discretizes the PAA representation of a z-normalized series into
//! symbols drawn from an alphabet whose breakpoints are the quantiles of the
//! standard normal distribution (Lin et al.). iSAX (Shieh & Keogh) stores
//! each symbol at the maximum cardinality and allows comparisons between
//! words of different per-segment cardinalities by looking only at the most
//! significant bits — this is what makes SAX indexable and lets iSAX tree
//! nodes split one segment at a time by "promoting" one extra bit.

use crate::paa::paa;

/// Maximum number of bits per SAX symbol supported by this implementation
/// (cardinality 2⁸ = 256), matching the iSAX2+ defaults.
pub const MAX_CARD_BITS: u8 = 8;

/// Configuration of a SAX summarization: number of PAA segments and maximum
/// per-segment cardinality (as a number of bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaxParams {
    /// Number of PAA segments (the SAX word length `l`).
    pub segments: usize,
    /// Maximum bits per symbol (cardinality = 2^max_bits).
    pub max_bits: u8,
}

impl SaxParams {
    /// Creates SAX parameters, clamping `max_bits` to [`MAX_CARD_BITS`].
    pub fn new(segments: usize, max_bits: u8) -> Self {
        Self {
            segments: segments.max(1),
            max_bits: max_bits.clamp(1, MAX_CARD_BITS),
        }
    }

    /// The maximum cardinality `2^max_bits`.
    pub fn max_cardinality(&self) -> u16 {
        1u16 << self.max_bits
    }

    /// Whether these are values [`SaxParams::new`] could have produced. The
    /// fields are public, so parameters assembled field by field bypass its
    /// clamps; zero segments has no PAA, and a zero or oversized `max_bits`
    /// wraps the `max_bits - bits` shifts every word comparison uses.
    ///
    /// # Errors
    /// The reason the parameters are unusable.
    pub fn validate(&self) -> Result<(), String> {
        if self.segments == 0 {
            return Err("SAX needs at least one segment".into());
        }
        if !(1..=MAX_CARD_BITS).contains(&self.max_bits) {
            return Err(format!(
                "SAX max_bits must be in 1..={MAX_CARD_BITS}, got {}",
                self.max_bits
            ));
        }
        Ok(())
    }
}

impl Default for SaxParams {
    /// 16 segments at cardinality 256 — the configuration used in the paper.
    fn default() -> Self {
        Self::new(16, MAX_CARD_BITS)
    }
}

/// An iSAX word: per-segment symbols stored at maximum cardinality together
/// with the number of valid (most-significant) bits per segment.
///
/// The word is what an index inserts by, splits on and persists. An index
/// that bounds many words against one query may turn each segment's
/// `(bits, prefix)` region into the interval of full-cardinality symbols it
/// spans, `prefix << shift ..= ((prefix + 1) << shift) - 1`, and look
/// bounds up in a per-query table over the symbols, as `hydra-isax` does;
/// such intervals are derived from the word, never stored in place of it,
/// and [`mindist_paa_isax`] over the word is the reference they are tested
/// against.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IsaxWord {
    /// Symbols at maximum cardinality (only the top `bits[i]` bits are
    /// semantically meaningful for segment `i`).
    pub symbols: Vec<u16>,
    /// Number of valid bits per segment (1 ..= `MAX_CARD_BITS`).
    pub bits: Vec<u8>,
}

impl IsaxWord {
    /// Number of segments in the word.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the word has no segments.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The symbol of segment `i` truncated to its valid bits (i.e., the
    /// value actually used for comparisons at that segment's cardinality).
    pub fn truncated_symbol(&self, i: usize, max_bits: u8) -> u16 {
        self.symbols[i] >> (max_bits - self.bits[i])
    }

    /// Returns true if `other` (a full-cardinality word) falls inside the
    /// region represented by `self`, i.e. `self` is a prefix of `other` on
    /// every segment.
    pub fn contains(&self, other: &IsaxWord, max_bits: u8) -> bool {
        debug_assert_eq!(self.len(), other.len());
        (0..self.len()).all(|i| {
            let shift = max_bits - self.bits[i];
            (other.symbols[i] >> shift) == (self.symbols[i] >> shift)
        })
    }
}

/// Breakpoints of the standard normal distribution for an alphabet of size
/// `cardinality` (there are `cardinality - 1` breakpoints).
///
/// Symbol `s` covers the interval `[breakpoint[s-1], breakpoint[s])`, with
/// `breakpoint[-1] = -∞` and `breakpoint[cardinality-1] = +∞`.
pub fn normal_breakpoints(cardinality: u16) -> Vec<f32> {
    let c = cardinality.max(2) as usize;
    (1..c)
        .map(|i| inverse_normal_cdf(i as f64 / c as f64) as f32)
        .collect()
}

/// Converts a PAA value to a SAX symbol under the given breakpoints.
/// Symbol 0 is the lowest region.
pub fn value_to_symbol(value: f32, breakpoints: &[f32]) -> u16 {
    // Binary search the first breakpoint strictly greater than the value.
    match breakpoints.binary_search_by(|b| b.total_cmp(&value)) {
        Ok(pos) => (pos + 1) as u16,
        Err(pos) => pos as u16,
    }
}

/// Computes the full-cardinality SAX word of a series.
pub fn sax_word(series: &[f32], params: &SaxParams, breakpoints: &[f32]) -> IsaxWord {
    let p = paa(series, params.segments);
    let symbols = p
        .iter()
        .map(|&v| value_to_symbol(v, breakpoints))
        .collect();
    IsaxWord {
        symbols,
        bits: vec![params.max_bits; params.segments.min(series.len())],
    }
}

/// Lower bound (MINDIST) between the PAA representation of a query and an
/// iSAX word, following Shieh & Keogh. `series_len` is the original series
/// length; `breakpoints` must be the full-cardinality breakpoints used to
/// build the word. Each segment weighs the shortest PAA segment's length,
/// `⌊series_len / segments⌋`, as in [`crate::paa::paa_lower_bound`].
pub fn mindist_paa_isax(
    query_paa: &[f32],
    word: &IsaxWord,
    breakpoints: &[f32],
    series_len: usize,
    max_bits: u8,
) -> f32 {
    debug_assert_eq!(query_paa.len(), word.len());
    let l = word.len().max(1);
    let scale = (series_len / l) as f32;
    let full_card = breakpoints.len() + 1;
    let mut acc = 0.0f32;
    for i in 0..word.len() {
        let bits = word.bits[i];
        let shift = max_bits - bits;
        let prefix = (word.symbols[i] >> shift) as usize;
        // The region covered by this segment at its cardinality spans the
        // full-cardinality symbols [prefix << shift, ((prefix+1) << shift) - 1].
        let lo_sym = prefix << shift;
        let hi_sym = ((prefix + 1) << shift) - 1;
        // Lower edge of the region (or -inf) and upper edge (or +inf).
        let lower = if lo_sym == 0 {
            f32::NEG_INFINITY
        } else {
            breakpoints[lo_sym - 1]
        };
        let upper = if hi_sym >= full_card - 1 {
            f32::INFINITY
        } else {
            breakpoints[hi_sym]
        };
        let q = query_paa[i];
        let d = if q < lower {
            lower - q
        } else if q > upper {
            q - upper
        } else {
            0.0
        };
        acc += d * d;
    }
    (scale * acc).sqrt()
}

/// Acklam's rational approximation of the inverse standard normal CDF
/// (maximum relative error ≈ 1.15e-9, far below what SAX breakpoints need).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile only defined on (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::euclidean;

    #[test]
    fn inverse_normal_cdf_known_values() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.8413) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn breakpoints_are_sorted_and_symmetric() {
        for card in [2u16, 4, 8, 16, 64, 256] {
            let b = normal_breakpoints(card);
            assert_eq!(b.len(), card as usize - 1);
            for w in b.windows(2) {
                assert!(w[0] < w[1]);
            }
            // Symmetric around 0.
            let mid = b.len() / 2;
            for i in 0..mid {
                assert!((b[i] + b[b.len() - 1 - i]).abs() < 1e-4);
            }
        }
        // Cardinality 4 breakpoints from the SAX paper: -0.67, 0, 0.67.
        let b4 = normal_breakpoints(4);
        assert!((b4[0] + 0.6745).abs() < 1e-3);
        assert!(b4[1].abs() < 1e-6);
        assert!((b4[2] - 0.6745).abs() < 1e-3);
    }

    #[test]
    fn value_to_symbol_respects_regions() {
        let b = normal_breakpoints(4); // [-0.67, 0, 0.67]
        assert_eq!(value_to_symbol(-2.0, &b), 0);
        assert_eq!(value_to_symbol(-0.3, &b), 1);
        assert_eq!(value_to_symbol(0.3, &b), 2);
        assert_eq!(value_to_symbol(2.0, &b), 3);
    }

    #[test]
    fn sax_word_has_requested_shape() {
        let params = SaxParams::new(8, 8);
        let b = normal_breakpoints(params.max_cardinality());
        let s: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.7).sin()).collect();
        let w = sax_word(&s, &params, &b);
        assert_eq!(w.len(), 8);
        assert!(w.symbols.iter().all(|&sym| sym < 256));
        assert!(w.bits.iter().all(|&bit| bit == 8));
    }

    #[test]
    fn truncated_symbol_and_containment() {
        let full = IsaxWord {
            symbols: vec![0b1011_0010, 0b0100_1111],
            bits: vec![8, 8],
        };
        let region = IsaxWord {
            symbols: vec![0b1011_0010, 0b0100_1111],
            bits: vec![2, 4],
        };
        assert_eq!(region.truncated_symbol(0, 8), 0b10);
        assert_eq!(region.truncated_symbol(1, 8), 0b0100);
        assert!(region.contains(&full, 8));
        let other = IsaxWord {
            symbols: vec![0b0011_0010, 0b0100_1111],
            bits: vec![8, 8],
        };
        assert!(!region.contains(&other, 8));
    }

    #[test]
    fn mindist_lower_bounds_euclidean() {
        let params = SaxParams::new(16, 8);
        let b = normal_breakpoints(params.max_cardinality());
        let gen = |seed: u32, n: usize| -> Vec<f32> {
            let mut x = seed;
            let mut v: Vec<f32> = (0..n)
                .map(|_| {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    (x >> 16) as f32 / 65536.0 - 0.5
                })
                .collect();
            hydra_core::znormalize(&mut v);
            v
        };
        for seed in [3u32, 17, 99] {
            let q = gen(seed, 128);
            let c = gen(seed + 1, 128);
            let qp = paa(&q, params.segments);
            let w = sax_word(&c, &params, &b);
            let lb = mindist_paa_isax(&qp, &w, &b, 128, params.max_bits);
            let d = euclidean(&q, &c);
            assert!(lb <= d + 1e-3, "seed={seed}: lb={lb} d={d}");
            // Lower-cardinality words give looser (but still valid) bounds.
            let coarse = IsaxWord {
                symbols: w.symbols.clone(),
                bits: vec![2; w.len()],
            };
            let lb_coarse = mindist_paa_isax(&qp, &coarse, &b, 128, params.max_bits);
            assert!(lb_coarse <= lb + 1e-4);
        }
    }

    #[test]
    fn default_params_match_paper() {
        let p = SaxParams::default();
        assert_eq!(p.segments, 16);
        assert_eq!(p.max_cardinality(), 256);
    }

    #[test]
    fn validate_rejects_what_new_would_have_clamped() {
        assert!(SaxParams::new(0, 0).validate().is_ok());
        assert!(SaxParams::new(3, 200).validate().is_ok());
        for (segments, max_bits) in [(0, 8), (8, 0), (8, MAX_CARD_BITS + 1)] {
            assert!(SaxParams { segments, max_bits }.validate().is_err());
        }
    }
}
