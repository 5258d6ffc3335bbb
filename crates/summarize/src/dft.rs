//! Discrete Fourier Transform summarization.
//!
//! The paper's modified VA+file replaces the Karhunen–Loève transform with
//! the DFT, which decorrelates data series almost as well (energy compacts
//! into the low frequencies for autocorrelated series) while being dataset
//! independent and much cheaper to compute.
//!
//! The transform here is orthonormal (scaled by `1/sqrt(n)`), so by
//! Parseval's theorem the Euclidean distance between two series equals the
//! Euclidean distance between their full coefficient vectors; keeping only
//! the first `l` coefficients therefore yields a lower-bounding distance.

use std::f32::consts::PI;

/// Orthonormal real DFT summarizer keeping the first `coefficients` complex
/// coefficients (stored interleaved as `re, im, re, im, ...`).
#[derive(Debug, Clone)]
pub struct DftSummarizer {
    series_len: usize,
    coefficients: usize,
}

impl DftSummarizer {
    /// Creates a summarizer for series of length `series_len` keeping
    /// `coefficients` complex coefficients (so `2 * coefficients` reduced
    /// dimensions). The coefficient count is clamped to `series_len / 2 + 1`.
    pub fn new(series_len: usize, coefficients: usize) -> Self {
        let max_coeffs = series_len / 2 + 1;
        Self {
            series_len,
            coefficients: coefficients.clamp(1, max_coeffs.max(1)),
        }
    }

    /// Number of real values in a summary (`2 *` coefficients).
    pub fn summary_len(&self) -> usize {
        self.coefficients * 2
    }

    /// Length of the series this summarizer accepts.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Computes the truncated orthonormal DFT of `series`.
    ///
    /// # Panics
    /// Panics if `series.len() != self.series_len()`.
    pub fn transform(&self, series: &[f32]) -> Vec<f32> {
        assert_eq!(series.len(), self.series_len, "series length mismatch");
        let n = series.len();
        let (re, im) = if n.is_power_of_two() && n >= 2 {
            fft_real(series)
        } else {
            naive_dft(series)
        };
        let scale = 1.0 / (n as f32).sqrt();
        let mut out = Vec::with_capacity(self.summary_len());
        for k in 0..self.coefficients {
            out.push(re[k] * scale);
            out.push(im[k] * scale);
        }
        out
    }

    /// Lower bound on the Euclidean distance between two series given their
    /// truncated DFT summaries.
    ///
    /// Because the transform is orthonormal, the distance over any subset of
    /// coefficients never exceeds the true distance. Coefficients other than
    /// DC and (for even lengths) Nyquist appear twice in the full spectrum
    /// (conjugate symmetry), so their contribution is doubled, which keeps
    /// the bound as tight as possible while remaining a lower bound.
    pub fn lower_bound(&self, summary_a: &[f32], summary_b: &[f32]) -> f32 {
        debug_assert_eq!(summary_a.len(), summary_b.len());
        let mut acc = 0.0f32;
        for k in 0..self.coefficients {
            let dre = summary_a[2 * k] - summary_b[2 * k];
            let dim = summary_a[2 * k + 1] - summary_b[2 * k + 1];
            let contrib = dre * dre + dim * dim;
            let is_dc = k == 0;
            let is_nyquist = self.series_len % 2 == 0 && k == self.series_len / 2;
            if is_dc || is_nyquist {
                acc += contrib;
            } else {
                acc += 2.0 * contrib;
            }
        }
        acc.sqrt()
    }
}

/// Naive O(n²) DFT returning full real/imaginary spectra (used for
/// non-power-of-two lengths).
fn naive_dft(series: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let n = series.len();
    let mut re = vec![0.0f32; n];
    let mut im = vec![0.0f32; n];
    for (k, (rk, ik)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
        let mut sr = 0.0f32;
        let mut si = 0.0f32;
        for (t, &x) in series.iter().enumerate() {
            let angle = -2.0 * PI * (k as f32) * (t as f32) / n as f32;
            sr += x * angle.cos();
            si += x * angle.sin();
        }
        *rk = sr;
        *ik = si;
    }
    (re, im)
}

/// Iterative radix-2 Cooley–Tukey FFT over real input (imaginary part zero).
/// Returns full real/imaginary spectra.
fn fft_real(series: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let n = series.len();
    debug_assert!(n.is_power_of_two());
    let mut re: Vec<f32> = series.to_vec();
    let mut im = vec![0.0f32; n];

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }

    let mut len = 2;
    while len <= n {
        let angle = -2.0 * PI / len as f32;
        let (wr, wi) = (angle.cos(), angle.sin());
        let mut start = 0;
        while start < n {
            let mut cur_r = 1.0f32;
            let mut cur_i = 0.0f32;
            for k in 0..len / 2 {
                let even_r = re[start + k];
                let even_i = im[start + k];
                let odd_r = re[start + k + len / 2];
                let odd_i = im[start + k + len / 2];
                let tr = odd_r * cur_r - odd_i * cur_i;
                let ti = odd_r * cur_i + odd_i * cur_r;
                re[start + k] = even_r + tr;
                im[start + k] = even_i + ti;
                re[start + k + len / 2] = even_r - tr;
                im[start + k + len / 2] = even_i - ti;
                let next_r = cur_r * wr - cur_i * wi;
                cur_i = cur_r * wi + cur_i * wr;
                cur_r = next_r;
            }
            start += len;
        }
        len <<= 1;
    }
    (re, im)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::euclidean;

    fn pseudo_series(seed: u32, n: usize) -> Vec<f32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 16) as f32 / 65536.0 - 0.5
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        let s = pseudo_series(5, 64);
        let (fr, fi) = fft_real(&s);
        let (nr, ni) = naive_dft(&s);
        for k in 0..64 {
            assert!((fr[k] - nr[k]).abs() < 1e-2, "re[{k}]");
            assert!((fi[k] - ni[k]).abs() < 1e-2, "im[{k}]");
        }
    }

    #[test]
    fn dc_coefficient_is_scaled_sum() {
        let s = vec![1.0f32, 2.0, 3.0, 4.0];
        let d = DftSummarizer::new(4, 1);
        let summary = d.transform(&s);
        // DC = sum / sqrt(n) = 10 / 2 = 5.
        assert!((summary[0] - 5.0).abs() < 1e-5);
        assert!(summary[1].abs() < 1e-5);
    }

    #[test]
    fn parseval_energy_preserved_with_all_coefficients() {
        let s = pseudo_series(7, 32);
        let d = DftSummarizer::new(32, 17); // n/2 + 1 coefficients
        let a = d.transform(&s);
        let zero = vec![0.0f32; 32];
        let b = d.transform(&zero);
        let lb = d.lower_bound(&a, &b);
        let true_norm = euclidean(&s, &zero);
        assert!((lb - true_norm).abs() < 1e-2, "{lb} vs {true_norm}");
    }

    #[test]
    fn lower_bound_never_exceeds_distance() {
        for n in [32usize, 100, 256] {
            for coeffs in [2usize, 4, 8] {
                let d = DftSummarizer::new(n, coeffs);
                let a = pseudo_series(1, n);
                let b = pseudo_series(2, n);
                let lb = d.lower_bound(&d.transform(&a), &d.transform(&b));
                let dist = euclidean(&a, &b);
                assert!(lb <= dist + 1e-3, "n={n} coeffs={coeffs}: {lb} > {dist}");
            }
        }
    }

    #[test]
    fn more_coefficients_tighten_the_bound() {
        let n = 128;
        let a = pseudo_series(11, n);
        let b = pseudo_series(12, n);
        let mut prev = 0.0f32;
        for coeffs in [1usize, 2, 4, 8, 16, 32] {
            let d = DftSummarizer::new(n, coeffs);
            let lb = d.lower_bound(&d.transform(&a), &d.transform(&b));
            assert!(lb + 1e-4 >= prev, "bound should tighten monotonically");
            prev = lb;
        }
    }

    #[test]
    fn coefficients_clamped_to_nyquist() {
        let d = DftSummarizer::new(16, 100);
        assert_eq!(d.summary_len(), 18);
        assert_eq!(d.series_len(), 16);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn transform_rejects_wrong_length() {
        let d = DftSummarizer::new(16, 4);
        let _ = d.transform(&[0.0; 8]);
    }
}
