//! Property-based tests of the summarization invariants every index relies
//! on: all reduced-space distances must lower-bound the true Euclidean
//! distance.

#![cfg(test)]

use proptest::prelude::*;

use crate::apca::{eapca_segments, uniform_segments};
use crate::dft::DftSummarizer;
use crate::paa::{paa, paa_lower_bound};
use crate::sax::{mindist_paa_isax, normal_breakpoints, sax_word, SaxParams};

fn series_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paa_lower_bound_never_exceeds_euclidean(
        a in series_strategy(64),
        b in series_strategy(64),
        segments in 1usize..32,
    ) {
        let lb = paa_lower_bound(&paa(&a, segments), &paa(&b, segments), 64);
        let d = hydra_core::euclidean(&a, &b);
        prop_assert!(lb <= d + 1e-2, "PAA lower bound {lb} > distance {d}");
    }

    #[test]
    fn sax_mindist_never_exceeds_euclidean(
        a in series_strategy(64),
        b in series_strategy(64),
    ) {
        // SAX assumes z-normalized series.
        let a = hydra_core::znormalized(&a);
        let b = hydra_core::znormalized(&b);
        let params = SaxParams::new(8, 8);
        let breakpoints = normal_breakpoints(params.max_cardinality());
        let word = sax_word(&b, &params, &breakpoints);
        let lb = mindist_paa_isax(&paa(&a, 8), &word, &breakpoints, 64, 8);
        let d = hydra_core::euclidean(&a, &b);
        prop_assert!(lb <= d + 1e-2, "SAX MINDIST {lb} > distance {d}");
    }

    #[test]
    fn dft_lower_bound_never_exceeds_euclidean(
        a in series_strategy(32),
        b in series_strategy(32),
        coeffs in 1usize..16,
    ) {
        let dft = DftSummarizer::new(32, coeffs);
        let lb = dft.lower_bound(&dft.transform(&a), &dft.transform(&b));
        let d = hydra_core::euclidean(&a, &b);
        prop_assert!(lb <= d + 1e-2, "DFT lower bound {lb} > distance {d}");
    }

    #[test]
    fn eapca_stats_are_within_segment_range(
        s in series_strategy(48),
        segments in 1usize..12,
    ) {
        let segs = uniform_segments(48, segments);
        for (seg, st) in segs.iter().zip(eapca_segments(&s, &segs)) {
            let slice = &s[seg.start..seg.end];
            let min = slice.iter().copied().fold(f32::INFINITY, f32::min);
            let max = slice.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(st.mean >= min - 1e-3 && st.mean <= max + 1e-3);
            prop_assert!(st.std >= 0.0);
            prop_assert!(st.std <= (max - min) + 1e-3);
        }
    }

    #[test]
    fn dft_energy_is_parseval_with_every_coefficient_and_below_it_without(
        x in proptest::collection::vec(-100.0f32..100.0, 8..65),
        kept in 1usize..33,
    ) {
        // The summary's energy under `lower_bound`'s weights: DC and
        // Nyquist once, every other kept coefficient twice.
        let energy = |coefficients: usize| {
            let dft = DftSummarizer::new(x.len(), coefficients);
            let zero = vec![0.0f32; dft.summary_len()];
            dft.lower_bound(&dft.transform(&x), &zero).powi(2)
        };
        let norm2: f32 = x.iter().map(|v| v * v).sum();
        let all = energy(x.len() / 2 + 1);
        prop_assert!((all - norm2).abs() <= 1e-2 * norm2, "energy {all} vs ||x||^2 {norm2}");
        let some = energy(kept);
        prop_assert!(some <= norm2 * (1.0 + 1e-4), "kept {kept}: energy {some} > {norm2}");
    }

    #[test]
    fn paa_preserves_mean(s in series_strategy(40), segments in 1usize..20) {
        // The weighted mean of the PAA values equals the series mean.
        let p = paa(&s, segments);
        let segs = uniform_segments(40, segments.min(40));
        let weighted: f32 = p
            .iter()
            .zip(segs.iter())
            .map(|(v, seg)| v * seg.len() as f32)
            .sum::<f32>()
            / 40.0;
        let mean: f32 = s.iter().sum::<f32>() / 40.0;
        prop_assert!((weighted - mean).abs() < 1e-2);
    }
}
