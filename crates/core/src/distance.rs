//! Euclidean distance kernels.
//!
//! The paper evaluates whole-matching similarity under the Euclidean
//! distance. All indexes in this workspace refine candidates with the
//! early-abandoning variant, which stops accumulating squared differences as
//! soon as the partial sum exceeds the best-so-far distance — the single
//! most important CPU optimization for leaf refinement.
//!
//! # The accumulation-order contract
//!
//! Every kernel in this module accumulates squared differences in **one
//! canonical order**, implemented once in the private `sum_squares_abandoning`
//! helper:
//!
//! * four independent accumulators over interleaved 4-element lanes
//!   (`acc_k` sums positions `j` with `j % 4 == k`), which lets the
//!   compiler vectorize the loop with FMA-friendly independent chains
//!   without relying on floating-point reassociation flags;
//! * abandonment checks every 8 positions (two 4-lanes), on the horizontal
//!   reduction `(acc0 + acc1) + (acc2 + acc3)` — reading the partial sum
//!   never alters the accumulators;
//! * the final value is that same reduction, followed by the scalar tail
//!   (`len % 4` trailing positions) added in index order.
//!
//! The helper walks its inputs as 8-wide `chunks_exact` blocks — one block
//! per abandonment check — rather than indexing position by position. That
//! is the same order, not a new one: every addition happens to the same
//! accumulator in the same sequence. What the blocks buy is that the hot
//! loop indexes slices of a length the compiler knows, so the per-element
//! bounds check an `a[j] - b[j]` closure kept (and which blocked packed
//! loads) is gone. The gain comes from removing bounds checks, never from
//! reassociating the sum; the unit tests pin every entry point against a
//! naive scalar transcription of the order above, bit for bit.
//!
//! This is a repo-wide correctness contract, not a style choice:
//! [`squared_euclidean`], [`euclidean_early_abandon`] and the fused
//! quantized-decode kernels ([`euclidean_early_abandon_u8`],
//! [`euclidean_early_abandon_f16`]) must produce **bit-identical** partial
//! sums for the same inputs, because a kept candidate's distance must not
//! depend on which entry point examined it. If `euclidean(a, b)` and
//! `euclidean_early_abandon(a, b, ∞)` could disagree by an ULP, the same
//! series refined through different code paths (sequential scan vs. tree
//! leaf vs. compressed-page refinement) would report distances apart by an
//! ULP and break the bit-identity contract of exact search. The property
//! suite pins the entry points against each other bit-for-bit.
//!
//! Thresholds are compared in **squared space end-to-end** via the private
//! `squared_threshold` helper, which saturates at [`f32::MAX`] instead of
//! overflowing to `inf`: a large-but-finite bound (e.g. `f32::MAX`) must
//! still abandon candidates whose squared sum overflows, not silently
//! disable abandonment.

/// The canonical accumulation order (see the module docs) over the
/// differences `x[j] - decode(y[j])`: 4-way lanes, abandonment check on the
/// horizontal sum every 8 positions, reduction `(acc0 + acc1) + (acc2 +
/// acc3)`, scalar tail in index order.
///
/// The slices are walked as `chunks_exact(8)` blocks, so the hot loop
/// indexes arrays of a known length — no per-element bounds check — and
/// only the remainder (shorter than 8) is indexed position by position.
///
/// Returns `None` as soon as a checked partial sum exceeds `threshold`
/// (a squared bound; pass `f32::INFINITY` to never abandon), otherwise
/// `Some(total squared sum)`. The callers have checked `x.len() == y.len()`.
#[inline(always)]
fn sum_squares_abandoning<Y: Copy>(
    x: &[f32],
    y: &[Y],
    decode: impl Fn(Y) -> f32,
    threshold: f32,
) -> Option<f32> {
    let reduce = |acc: &[f32; 4]| (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let mut acc = [0.0f32; 4];
    let (xs, ys) = (x.chunks_exact(8), y.chunks_exact(8));
    let (xr, yr) = (xs.remainder(), ys.remainder());
    // Check the abandonment condition every 8 positions: frequent enough
    // to save work, rare enough not to dominate the loop with branches.
    for (xb, yb) in xs.zip(ys) {
        let d: [f32; 8] = std::array::from_fn(|k| xb[k] - decode(yb[k]));
        for k in 0..4 {
            acc[k] += d[k] * d[k];
        }
        for k in 0..4 {
            acc[k] += d[4 + k] * d[4 + k];
        }
        if reduce(&acc) > threshold {
            return None;
        }
    }
    let rest = |j: usize| xr[j] - decode(yr[j]);
    // A last lone 4-lane is checked like a full block.
    let lanes = xr.len() & !3;
    if lanes == 4 {
        for (k, a) in acc.iter_mut().enumerate() {
            let d = rest(k);
            *a += d * d;
        }
        if reduce(&acc) > threshold {
            return None;
        }
    }
    let mut total = reduce(&acc);
    for j in lanes..xr.len() {
        let d = rest(j);
        total += d * d;
    }
    if total > threshold {
        return None;
    }
    Some(total)
}

/// The squared-space abandonment threshold for an un-squared bound,
/// saturated at [`f32::MAX`] instead of overflowing.
///
/// `best_so_far * best_so_far` overflows to `inf` for any finite bound
/// above `√f32::MAX ≈ 1.84e19`, which would make `partial > threshold`
/// unconditionally false and silently disable abandonment. Saturating is
/// exact: a partial squared sum can only exceed `f32::MAX` by being `inf`,
/// and a candidate whose squared distance is `inf` has (kernel-computed)
/// distance `inf`, which no finite bound keeps; conversely any finite
/// squared sum `≤ f32::MAX` has distance `≤ √f32::MAX`, below every bound
/// whose square overflowed. An infinite bound stays infinite (never
/// abandons).
#[inline]
fn squared_threshold(best_so_far: f32) -> f32 {
    let t = best_so_far * best_so_far;
    if t.is_finite() || !best_so_far.is_finite() {
        t
    } else {
        f32::MAX
    }
}

/// Squared Euclidean distance between two equally-sized slices, in the
/// canonical accumulation order (see the module docs).
///
/// # Panics
/// Panics if the slices have different lengths — in release builds too.
/// A silent truncation (or out-of-bounds read) on mismatched inputs would
/// corrupt answers unpredictably; the mismatch is always a caller bug.
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "squared_euclidean: slice lengths differ");
    sum_squares_abandoning(a, b, |v| v, f32::INFINITY)
        .expect("an infinite threshold never abandons")
}

/// Euclidean distance between two equally-sized slices.
///
/// # Panics
/// Panics if the slices have different lengths (see [`squared_euclidean`]).
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    squared_euclidean(a, b).sqrt()
}

/// Early-abandoning Euclidean distance.
///
/// Accumulates squared differences in the canonical order (see the module
/// docs) and returns `None` as soon as the partial sum exceeds
/// `best_so_far`² (i.e., the candidate cannot improve on the current best
/// answer). Returns `Some(distance)` otherwise; a returned distance is
/// bit-identical to [`euclidean`] on the same inputs, and never exceeds
/// `best_so_far`.
///
/// `best_so_far` is expressed in *un-squared* Euclidean units, matching the
/// distances returned by [`euclidean`]; the comparison itself happens in
/// squared space through the saturating private `squared_threshold`, so
/// large-but-finite bounds keep abandoning (no `inf` overflow). The
/// accumulation order is the same for every `best_so_far` (an infinite
/// bound merely never abandons), so a *kept* candidate's distance does not
/// depend on how good the best answer already was.
///
/// # Panics
/// Panics if the slices have different lengths — in release builds too,
/// consistent with [`squared_euclidean`] (the old `chunks(8).zip` silently
/// truncated mismatched slices in release builds).
#[inline]
pub fn euclidean_early_abandon(a: &[f32], b: &[f32], best_so_far: f32) -> Option<f32> {
    assert_eq!(
        a.len(),
        b.len(),
        "euclidean_early_abandon: slice lengths differ"
    );
    sum_squares_abandoning(a, b, |v| v, squared_threshold(best_so_far)).map(f32::sqrt)
}

/// Fused u8-decode + early-abandoning Euclidean distance — the compressed
/// page tier's scan kernel.
///
/// `codes` holds one u8 per position; position `j` decodes to
/// `min + codes[j] as f32 * scale` (the affine per-page quantization of
/// `hydra-storage`), and the decoded value feeds the canonical accumulation
/// order directly — no intermediate buffer. The result is bit-identical to
/// decoding into a scratch slice and calling [`euclidean_early_abandon`]
/// on it (the property suite pins this).
///
/// `threshold` is an un-squared bound like `best_so_far`; callers pass the
/// conservative `best + quantization_error` bound, so `None` proves the
/// *exact* distance cannot beat the best answer either.
///
/// # Panics
/// Panics if `query` and `codes` have different lengths.
#[inline]
pub fn euclidean_early_abandon_u8(
    query: &[f32],
    codes: &[u8],
    min: f32,
    scale: f32,
    threshold: f32,
) -> Option<f32> {
    assert_eq!(
        query.len(),
        codes.len(),
        "euclidean_early_abandon_u8: query and code lengths differ"
    );
    sum_squares_abandoning(
        query,
        codes,
        |c| min + c as f32 * scale,
        squared_threshold(threshold),
    )
    .map(f32::sqrt)
}

/// Fused f16-decode + early-abandoning Euclidean distance (see
/// [`euclidean_early_abandon_u8`]); `codes` holds IEEE 754 binary16 bit
/// patterns, decoded with [`crate::half::f32_from_f16_bits`].
///
/// # Panics
/// Panics if `query` and `codes` have different lengths.
#[inline]
pub fn euclidean_early_abandon_f16(query: &[f32], codes: &[u16], threshold: f32) -> Option<f32> {
    assert_eq!(
        query.len(),
        codes.len(),
        "euclidean_early_abandon_f16: query and code lengths differ"
    );
    sum_squares_abandoning(
        query,
        codes,
        crate::half::f32_from_f16_bits,
        squared_threshold(threshold),
    )
    .map(f32::sqrt)
}

/// Dot product of two equally-sized slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_euclidean_basic() {
        assert_eq!(squared_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn zero_distance_to_self() {
        let v = vec![1.5f32; 37];
        assert_eq!(squared_euclidean(&v, &v), 0.0);
        assert_eq!(euclidean(&v, &v), 0.0);
    }

    #[test]
    fn unrolled_matches_naive_on_odd_lengths() {
        for len in [1usize, 2, 3, 5, 7, 8, 9, 15, 16, 17, 63, 100] {
            let a: Vec<f32> = (0..len).map(|i| i as f32 * 0.37).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
            let naive: f32 = a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            let fast = squared_euclidean(&a, &b);
            let tol = 1e-5 * naive.abs().max(1.0);
            assert!((naive - fast).abs() < tol, "len={len}: {naive} vs {fast}");
        }
    }

    /// The heart of the kernel-consistency bugfix: both entry points share
    /// one accumulation order, so a kept candidate's distance is the same
    /// bit pattern through either — for every length, including tails.
    #[test]
    fn entry_points_agree_bit_for_bit() {
        for len in [1usize, 3, 4, 7, 8, 9, 15, 16, 17, 31, 64, 100, 257] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).cos() * 3.0).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 1.3).sin() * 2.0).collect();
            let exact = euclidean(&a, &b);
            let ea = euclidean_early_abandon(&a, &b, f32::INFINITY).unwrap();
            assert_eq!(exact.to_bits(), ea.to_bits(), "len={len}");
            // A kept candidate reports the exact bits under any bound.
            // (A bound exactly equal to the distance may abandon: squaring
            // the rounded sqrt can land just below the accumulated sum.)
            if let Some(kept) = euclidean_early_abandon(&a, &b, exact) {
                assert_eq!(exact.to_bits(), kept.to_bits(), "len={len}");
            }
        }
    }

    /// The canonical order of the module docs, transcribed naively over
    /// precomputed differences: the reference the block kernel must equal.
    fn canonical_reference(diffs: &[f32], threshold: f32) -> Option<f32> {
        let mut acc = [0.0f32; 4];
        let quads = diffs.len() / 4;
        for q in 0..quads {
            for k in 0..4 {
                acc[k] += diffs[4 * q + k] * diffs[4 * q + k];
            }
            // Checked after every second 4-lane, and after the last one.
            let checked = q % 2 == 1 || q + 1 == quads;
            if checked && (acc[0] + acc[1]) + (acc[2] + acc[3]) > threshold {
                return None;
            }
        }
        let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for d in &diffs[quads * 4..] {
            total += d * d;
        }
        if total > threshold {
            return None;
        }
        Some(total)
    }

    #[test]
    fn every_entry_point_equals_the_scalar_reference_bit_for_bit() {
        use crate::half::{f16_bits_from_f32, f32_from_f16_bits};
        let bits = |d: Option<f32>| d.map(f32::to_bits);
        let (min, scale) = (-3.25f32, 0.031f32);
        for len in (0usize..=40).chain(248..=264) {
            let q: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).cos() * 3.0).collect();
            let raw: Vec<f32> = (0..len).map(|i| (i as f32 * 1.3).sin() * 2.0).collect();
            let u8s: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let f16s: Vec<u16> = raw.iter().map(|&v| f16_bits_from_f32(v)).collect();
            let diffs = |decoded: Vec<f32>| -> Vec<f32> {
                q.iter().zip(&decoded).map(|(x, y)| x - y).collect()
            };
            let raw_diffs = diffs(raw.clone());
            let u8_diffs = diffs(u8s.iter().map(|&c| min + c as f32 * scale).collect());
            let f16_diffs = diffs(f16s.iter().map(|&c| f32_from_f16_bits(c)).collect());

            let whole = canonical_reference(&raw_diffs, f32::INFINITY).unwrap();
            assert_eq!(squared_euclidean(&q, &raw).to_bits(), whole.to_bits());
            let exact = whole.sqrt();
            let tight = exact * 0.5;
            for bound in [0.0, tight, exact, exact * 2.0, f32::MAX, f32::INFINITY] {
                let want = |d: &[f32]| {
                    bits(canonical_reference(d, squared_threshold(bound)).map(f32::sqrt))
                };
                assert_eq!(
                    bits(euclidean_early_abandon(&q, &raw, bound)),
                    want(&raw_diffs),
                    "f32 len={len} bound={bound}"
                );
                assert_eq!(
                    bits(euclidean_early_abandon_u8(&q, &u8s, min, scale, bound)),
                    want(&u8_diffs),
                    "u8 len={len} bound={bound}"
                );
                assert_eq!(
                    bits(euclidean_early_abandon_f16(&q, &f16s, bound)),
                    want(&f16_diffs),
                    "f16 len={len} bound={bound}"
                );
            }
        }
    }

    #[test]
    fn early_abandon_agrees_when_not_abandoning() {
        let a: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..64).map(|i| i as f32 + 1.0).collect();
        let exact = euclidean(&a, &b);
        let ea = euclidean_early_abandon(&a, &b, f32::INFINITY).unwrap();
        assert_eq!(exact.to_bits(), ea.to_bits());
        let ea2 = euclidean_early_abandon(&a, &b, exact + 1.0).unwrap();
        assert_eq!(exact.to_bits(), ea2.to_bits());
    }

    #[test]
    fn early_abandon_abandons_hopeless_candidates() {
        let a = vec![0.0f32; 256];
        let b = vec![10.0f32; 256];
        assert_eq!(euclidean_early_abandon(&a, &b, 1.0), None);
    }

    /// Regression: `best_so_far * best_so_far` used to overflow to `inf`
    /// for large-but-finite bounds, silently disabling abandonment — the
    /// kernel would then *keep* a candidate at distance `inf`, violating
    /// the `Some(d) ⟹ d ≤ best_so_far` contract.
    #[test]
    fn large_finite_bounds_still_abandon() {
        // Each term is (1e20)² = 1e40, far beyond f32::MAX: the squared
        // sum overflows to inf, so the candidate's distance is inf and no
        // finite bound may keep it.
        let a = vec![0.0f32; 8];
        let b = vec![1e20f32; 8];
        assert_eq!(euclidean(&a, &b), f32::INFINITY);
        for bound in [f32::MAX, 1e30f32, 2e19f32] {
            assert_eq!(
                euclidean_early_abandon(&a, &b, bound),
                None,
                "bound {bound} must abandon a candidate at distance inf"
            );
        }
        // An infinite bound never abandons — it faithfully reports inf.
        assert_eq!(
            euclidean_early_abandon(&a, &b, f32::INFINITY),
            Some(f32::INFINITY)
        );
        // Large-but-finite distances below a saturated bound are kept: the
        // clamp is exact, not merely conservative.
        let c = vec![1e18f32; 8];
        let d = euclidean(&a, &c);
        assert!(d.is_finite());
        assert_eq!(
            euclidean_early_abandon(&a, &c, f32::MAX).unwrap().to_bits(),
            d.to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "slice lengths differ")]
    fn squared_euclidean_rejects_mismatched_lengths() {
        squared_euclidean(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
    }

    /// Regression: the old `chunks(8).zip` silently truncated mismatched
    /// slices in release builds; the mismatch is now an explicit panic,
    /// consistent with [`squared_euclidean`].
    #[test]
    #[should_panic(expected = "slice lengths differ")]
    fn early_abandon_rejects_mismatched_lengths() {
        euclidean_early_abandon(&[1.0, 2.0, 3.0], &[1.0, 2.0], f32::INFINITY);
    }

    #[test]
    fn fused_u8_kernel_matches_decode_then_distance() {
        for len in [1usize, 4, 7, 8, 9, 31, 64, 100] {
            let q: Vec<f32> = (0..len).map(|i| (i as f32 * 0.9).sin() * 4.0).collect();
            let codes: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let (min, scale) = (-3.25f32, 0.031f32);
            let decoded: Vec<f32> = codes.iter().map(|&c| min + c as f32 * scale).collect();
            for bound in [f32::INFINITY, 5.0, 0.5] {
                let fused = euclidean_early_abandon_u8(&q, &codes, min, scale, bound);
                let two_step = euclidean_early_abandon(&q, &decoded, bound);
                assert_eq!(
                    fused.map(f32::to_bits),
                    two_step.map(f32::to_bits),
                    "len={len} bound={bound}"
                );
            }
        }
    }

    #[test]
    fn fused_f16_kernel_matches_decode_then_distance() {
        use crate::half::{f16_bits_from_f32, f32_from_f16_bits};
        let len = 67;
        let q: Vec<f32> = (0..len).map(|i| (i as f32 * 0.4).cos() * 2.0).collect();
        let codes: Vec<u16> = (0..len)
            .map(|i| f16_bits_from_f32((i as f32 * 1.7).sin() * 3.0))
            .collect();
        let decoded: Vec<f32> = codes.iter().map(|&c| f32_from_f16_bits(c)).collect();
        for bound in [f32::INFINITY, 4.0, 0.25] {
            let fused = euclidean_early_abandon_f16(&q, &codes, bound);
            let two_step = euclidean_early_abandon(&q, &decoded, bound);
            assert_eq!(
                fused.map(f32::to_bits),
                two_step.map(f32::to_bits),
                "bound={bound}"
            );
        }
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn triangle_inequality_spot_check() {
        let a = [0.0f32, 1.0, 2.0, 3.0];
        let b = [4.0f32, 2.0, 0.0, 1.0];
        let c = [1.0f32, 1.0, 1.0, 1.0];
        assert!(euclidean(&a, &b) <= euclidean(&a, &c) + euclidean(&c, &b) + 1e-6);
    }
}
