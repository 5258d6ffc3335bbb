//! Piecewise Aggregate Approximation (PAA).
//!
//! PAA divides a series of length `n` into `l` equal-length segments and
//! represents each segment by the mean of its points (Keogh et al.). The
//! PAA distance multiplied by `sqrt(⌊n / l⌋)`, the square root of the
//! shortest segment's length, lower-bounds the Euclidean distance, which
//! SAX inherits.

/// Computes the PAA representation of `series` with `segments` segments.
///
/// When `segments` does not divide the series length, trailing segments are
/// one point shorter — the standard fractional-segment handling. The number
/// of segments is clamped to the series length.
///
/// # Panics
/// Panics if `segments == 0` or the series is empty.
pub fn paa(series: &[f32], segments: usize) -> Vec<f32> {
    assert!(segments > 0, "PAA requires at least one segment");
    assert!(!series.is_empty(), "PAA of an empty series is undefined");
    let segments = segments.min(series.len());
    let n = series.len();
    let mut out = Vec::with_capacity(segments);
    for s in 0..segments {
        // Segment boundaries chosen so every point belongs to exactly one
        // segment and segment sizes differ by at most one.
        let start = s * n / segments;
        let end = (s + 1) * n / segments;
        let len = (end - start).max(1);
        let mean: f32 = series[start..end].iter().sum::<f32>() / len as f32;
        out.push(mean);
    }
    out
}

/// Lower bound on the Euclidean distance between two series of length
/// `series_len`, computed from their PAA representations.
///
/// `LB = sqrt(⌊n / l⌋) * || paa(a) - paa(b) ||₂` (Keogh et al., 2001). A
/// segment of `m` points contributes at least `m` times its squared mean
/// difference to the distance, so the scale is the shortest segment's
/// length: with uneven segments, `n / l` would overshoot.
pub fn paa_lower_bound(paa_a: &[f32], paa_b: &[f32], series_len: usize) -> f32 {
    debug_assert_eq!(paa_a.len(), paa_b.len());
    let l = paa_a.len().max(1);
    let scale = (series_len / l) as f32;
    let sum: f32 = paa_a
        .iter()
        .zip(paa_b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    (scale * sum).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::euclidean;

    #[test]
    fn paa_of_constant_series_is_constant() {
        let s = vec![3.0f32; 16];
        assert_eq!(paa(&s, 4), vec![3.0; 4]);
    }

    #[test]
    fn paa_exact_when_segments_equal_length() {
        let s = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(paa(&s, 4), s);
    }

    #[test]
    fn paa_means_are_correct_for_even_split() {
        let s = vec![1.0, 3.0, 5.0, 7.0, 2.0, 4.0, 6.0, 8.0];
        assert_eq!(paa(&s, 2), vec![4.0, 5.0]);
    }

    #[test]
    fn paa_handles_non_divisible_lengths() {
        let s: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let p = paa(&s, 3);
        assert_eq!(p.len(), 3);
        // Segments are [0..3), [3..6), [6..10).
        assert!((p[0] - 1.0).abs() < 1e-6);
        assert!((p[1] - 4.0).abs() < 1e-6);
        assert!((p[2] - 7.5).abs() < 1e-6);
    }

    #[test]
    fn paa_clamps_segments_to_length() {
        let s = vec![1.0, 2.0];
        assert_eq!(paa(&s, 10).len(), 2);
    }

    #[test]
    fn lower_bound_never_exceeds_true_distance() {
        // Deterministic pseudo-random series.
        let gen = |seed: u32, n: usize| -> Vec<f32> {
            let mut x = seed;
            (0..n)
                .map(|_| {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    (x >> 16) as f32 / 65536.0 - 0.5
                })
                .collect()
        };
        for n in [32usize, 100, 256] {
            for l in [4usize, 8, 16] {
                let a = gen(1, n);
                let b = gen(99, n);
                let lb = paa_lower_bound(&paa(&a, l), &paa(&b, l), n);
                let d = euclidean(&a, &b);
                assert!(lb <= d + 1e-4, "n={n} l={l}: lb={lb} > d={d}");
            }
        }
    }

    #[test]
    fn lower_bound_scales_by_the_shortest_segment() {
        // Segments of one and two points: the first carries the whole
        // distance, at weight one.
        let (a, b) = ([1.0f32, 0.0, 0.0], [0.0f32; 3]);
        let lb = paa_lower_bound(&paa(&a, 2), &paa(&b, 2), 3);
        assert!(lb <= euclidean(&a, &b), "lb={lb}");
        assert_eq!(lb, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn zero_segments_panics() {
        let _ = paa(&[1.0], 0);
    }
}
