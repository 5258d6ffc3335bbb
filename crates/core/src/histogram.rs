//! Distance distribution estimation for the δ stop condition.
//!
//! Algorithm 2 of the paper stops early once the best-so-far distance drops
//! below `(1 + ε) · r_δ(Q)`, where `r_δ(Q)` is the largest radius such that
//! the ball centered at the query with that radius is empty with probability
//! at least δ. Following Ciaccia & Patella (and the paper's own
//! implementation), `r_δ` is estimated from the *overall* distance
//! distribution `F(·)`, approximated by a histogram of pairwise distances on
//! a sample of the dataset.
//!
//! For a dataset of `n` points whose distances to the query are i.i.d. with
//! CDF `F`, the nearest-neighbor distance exceeds `r` with probability
//! `(1 - F(r))^n`. Requiring that probability to be at least δ gives
//! `F(r) ≤ 1 - δ^(1/n)`, so `r_δ = F⁻¹(1 - δ^(1/n))`.

use crate::distance::euclidean;
use crate::series::Dataset;
use crate::workers::{answer_on_workers, batch_workers};

/// Pairs per work item of [`DistanceHistogram::from_pairwise`]'s fan-out.
const SAMPLE_CHUNK: usize = 1_024;

/// Histogram approximation of the overall pairwise distance distribution
/// `F(·)` of a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceHistogram {
    /// Upper edge of each bin (uniform width over `[0, max_distance]`).
    bin_edges: Vec<f32>,
    /// Cumulative counts per bin (last entry equals the total sample count).
    cumulative: Vec<u64>,
    /// Number of sampled distances.
    total: u64,
    /// Number of series in the dataset the histogram describes (the `n` in
    /// the `δ^(1/n)` correction).
    dataset_size: usize,
}

impl DistanceHistogram {
    /// Builds a histogram from explicit distance samples.
    ///
    /// `dataset_size` is the size of the full collection the samples
    /// describe; it controls the nearest-neighbor correction in
    /// [`DistanceHistogram::r_delta`].
    pub fn from_samples(samples: &[f32], num_bins: usize, dataset_size: usize) -> Self {
        let num_bins = num_bins.max(1);
        let max = samples
            .iter()
            .copied()
            .fold(0.0f32, f32::max)
            .max(f32::MIN_POSITIVE);
        let width = max / num_bins as f32;
        let mut counts = vec![0u64; num_bins];
        for &d in samples {
            let mut bin = (d / width) as usize;
            if bin >= num_bins {
                bin = num_bins - 1;
            }
            counts[bin] += 1;
        }
        let mut cumulative = Vec::with_capacity(num_bins);
        let mut acc = 0u64;
        let mut bin_edges = Vec::with_capacity(num_bins);
        for (i, c) in counts.iter().enumerate() {
            acc += c;
            cumulative.push(acc);
            bin_edges.push(width * (i as f32 + 1.0));
        }
        Self {
            bin_edges,
            cumulative,
            total: acc,
            dataset_size: dataset_size.max(1),
        }
    }

    /// Builds a histogram by sampling pairwise distances between series of a
    /// dataset.
    ///
    /// `sample_pairs` pairs are drawn with an xorshift64* generator seeded
    /// by `seed`, matching the paper's protocol of estimating `F` on a
    /// sample (they used a 100K series sample). Their distances are
    /// computed on the batch fan-out ([`crate::workers`]); see
    /// [`DistanceHistogram::from_pairwise`].
    pub fn from_dataset(dataset: &Dataset, sample_pairs: usize, num_bins: usize, seed: u64) -> Self {
        Self::from_pairwise(dataset.len(), sample_pairs, num_bins, seed, || (), |_, i, j| {
            euclidean(dataset.series(i), dataset.series(j))
        })
    }

    /// [`DistanceHistogram::from_dataset`] for collections that are not a
    /// [`Dataset`]: the caller supplies the pairwise distance as a closure
    /// over series positions `0..n`, with a per-worker `scratch` (read
    /// buffers, say).
    ///
    /// Every pair is drawn first; the distances are then computed in chunks
    /// of 1,024 pairs on up to one worker per chunk
    /// ([`crate::workers::answer_on_workers`]) and concatenated in chunk
    /// order. The sampling sequence depends only on `(n, sample_pairs,
    /// seed)` and every sample lands at its drawn position, so a histogram
    /// rebuilt through this entry point over the same collection — e.g. by
    /// a streaming-ingest path reading a grown series store instead of the
    /// original dataset — is bit-identical to the one `from_dataset` built,
    /// at any worker count.
    pub fn from_pairwise<S>(
        n: usize,
        sample_pairs: usize,
        num_bins: usize,
        seed: u64,
        scratch: impl Fn() -> S + Sync,
        dist: impl Fn(&mut S, usize, usize) -> f32 + Sync,
    ) -> Self {
        if n < 2 {
            return Self::from_samples(&[1.0], num_bins, n);
        }
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = || {
            // xorshift64* — deterministic, dependency-free sampling.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545F4914F6CDD1D);
            state
        };
        let mut pairs = Vec::with_capacity(sample_pairs);
        for _ in 0..sample_pairs {
            let i = (next() % n as u64) as usize;
            let mut j = (next() % n as u64) as usize;
            if i == j {
                j = (j + 1) % n;
            }
            pairs.push((i, j));
        }
        let chunks: Vec<&[(usize, usize)]> = pairs.chunks(SAMPLE_CHUNK).collect();
        let samples = answer_on_workers(&chunks, batch_workers(), scratch, |s, chunk| {
            chunk.iter().map(|&(i, j)| dist(s, i, j)).collect::<Vec<f32>>()
        })
        .concat();
        Self::from_samples(&samples, num_bins, n)
    }

    /// Evaluates the empirical CDF `F(r)`.
    pub fn cdf(&self, r: f32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if r <= 0.0 {
            return 0.0;
        }
        match self
            .bin_edges
            .iter()
            .position(|&edge| r <= edge)
        {
            Some(bin) => self.cumulative[bin] as f64 / self.total as f64,
            None => 1.0,
        }
    }

    /// Evaluates the empirical quantile function `F⁻¹(p)`.
    pub fn quantile(&self, p: f64) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        for (edge, &cum) in self.bin_edges.iter().zip(self.cumulative.iter()) {
            if cum >= target {
                return *edge;
            }
        }
        *self.bin_edges.last().unwrap_or(&0.0)
    }

    /// Estimates `r_δ`: the radius such that a ball of that radius around a
    /// query is empty with probability at least `δ`, under the i.i.d.
    /// approximation described in the module documentation.
    ///
    /// `δ = 1` yields radius 0 (the stop condition never fires), recovering
    /// plain ε-approximate behaviour as in the paper.
    pub fn r_delta(&self, delta: f32) -> f32 {
        let delta = delta.clamp(0.0, 1.0) as f64;
        if delta >= 1.0 {
            return 0.0;
        }
        let n = self.dataset_size as f64;
        // P[NN dist > r] = (1 - F(r))^n >= delta  =>  F(r) <= 1 - delta^(1/n)
        let p = 1.0 - delta.powf(1.0 / n);
        self.quantile(p)
    }

    /// Number of sampled distances in the histogram.
    pub fn sample_count(&self) -> u64 {
        self.total
    }

    /// Upper edge of each bin (persistence accessor; pairs with
    /// [`DistanceHistogram::from_parts`]).
    pub fn bin_edges(&self) -> &[f32] {
        &self.bin_edges
    }

    /// Cumulative counts per bin (persistence accessor).
    pub fn cumulative_counts(&self) -> &[u64] {
        &self.cumulative
    }

    /// Size of the dataset the histogram describes (the `n` of the
    /// `δ^(1/n)` correction; persistence accessor).
    pub fn dataset_size(&self) -> usize {
        self.dataset_size
    }

    /// Reassembles a histogram from its stored parts (the inverse of the
    /// accessors above), used when restoring an index snapshot.
    ///
    /// # Panics
    /// Panics if `bin_edges` and `cumulative` differ in length.
    pub fn from_parts(
        bin_edges: Vec<f32>,
        cumulative: Vec<u64>,
        total: u64,
        dataset_size: usize,
    ) -> Self {
        assert_eq!(
            bin_edges.len(),
            cumulative.len(),
            "bin edges and cumulative counts must pair up"
        );
        Self {
            bin_edges,
            cumulative,
            total,
            dataset_size: dataset_size.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_samples() -> Vec<f32> {
        // 1000 distances uniform on (0, 10].
        (1..=1000).map(|i| i as f32 / 100.0).collect()
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let h = DistanceHistogram::from_samples(&uniform_samples(), 50, 1000);
        let mut prev = 0.0;
        for i in 0..=100 {
            let r = i as f32 / 10.0;
            let c = h.cdf(r);
            assert!(c >= prev - 1e-12, "cdf must be monotone");
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
        assert_eq!(h.cdf(-1.0), 0.0);
        assert_eq!(h.cdf(1e9), 1.0);
    }

    #[test]
    fn quantile_inverts_cdf_approximately() {
        let h = DistanceHistogram::from_samples(&uniform_samples(), 100, 1000);
        let q = h.quantile(0.5);
        assert!((q - 5.0).abs() < 0.3, "median of U(0,10] should be ~5, got {q}");
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
    }

    #[test]
    fn r_delta_shrinks_with_dataset_size_and_delta() {
        let samples = uniform_samples();
        let small = DistanceHistogram::from_samples(&samples, 100, 100);
        let large = DistanceHistogram::from_samples(&samples, 100, 100_000);
        // A bigger dataset packs neighbors closer: r_delta must not grow.
        assert!(large.r_delta(0.9) <= small.r_delta(0.9) + 1e-6);
        // Larger delta demands a higher probability of emptiness => smaller radius.
        assert!(small.r_delta(0.99) <= small.r_delta(0.5) + 1e-6);
        // delta = 1 disables the stop condition entirely.
        assert_eq!(small.r_delta(1.0), 0.0);
    }

    #[test]
    fn from_dataset_is_deterministic_per_seed() {
        let mut d = Dataset::new(8).unwrap();
        for i in 0..64 {
            let s: Vec<f32> = (0..8).map(|j| ((i * 7 + j) % 13) as f32).collect();
            d.push(&s).unwrap();
        }
        let h1 = DistanceHistogram::from_dataset(&d, 500, 32, 42);
        let h2 = DistanceHistogram::from_dataset(&d, 500, 32, 42);
        let h3 = DistanceHistogram::from_dataset(&d, 500, 32, 7);
        assert_eq!(h1.quantile(0.5), h2.quantile(0.5));
        assert_eq!(h1.sample_count(), 500);
        // A different seed may (and generally will) give a slightly different
        // histogram, but must still be a valid distribution.
        assert!(h3.quantile(1.0) > 0.0);
    }

    #[test]
    fn from_pairwise_matches_from_dataset_bit_for_bit() {
        let mut d = Dataset::new(8).unwrap();
        for i in 0..64 {
            let s: Vec<f32> = (0..8).map(|j| ((i * 5 + j) % 17) as f32).collect();
            d.push(&s).unwrap();
        }
        let a = DistanceHistogram::from_dataset(&d, 300, 24, 11);
        let b = DistanceHistogram::from_pairwise(d.len(), 300, 24, 11, Vec::new, |buf, i, j| {
            buf.clear();
            buf.extend_from_slice(d.series(j));
            euclidean(d.series(i), buf)
        });
        assert_same(&a, &b, "from_pairwise");
    }

    fn assert_same(a: &DistanceHistogram, b: &DistanceHistogram, what: &str) {
        assert_eq!(a.bin_edges(), b.bin_edges(), "{what}");
        assert_eq!(a.cumulative_counts(), b.cumulative_counts(), "{what}");
        assert_eq!(a.sample_count(), b.sample_count(), "{what}");
        assert_eq!(a.dataset_size(), b.dataset_size(), "{what}");
    }

    /// The one-pair-at-a-time sampler the chunked fan-out replaced: each
    /// pair is drawn and measured before the next is drawn.
    fn sequential_reference(d: &Dataset, sample_pairs: usize, bins: usize, seed: u64) -> DistanceHistogram {
        let n = d.len();
        if n < 2 {
            return DistanceHistogram::from_samples(&[1.0], bins, n);
        }
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545F4914F6CDD1D);
            state
        };
        let mut samples = Vec::new();
        for _ in 0..sample_pairs {
            let i = (next() % n as u64) as usize;
            let mut j = (next() % n as u64) as usize;
            if i == j {
                j = (j + 1) % n;
            }
            samples.push(euclidean(d.series(i), d.series(j)));
        }
        DistanceHistogram::from_samples(&samples, bins, n)
    }

    #[test]
    fn the_histogram_is_bit_identical_at_any_worker_count() {
        let mut d = Dataset::new(8).unwrap();
        for i in 0..97 {
            let s: Vec<f32> = (0..8).map(|j| ((i * 11 + j * 3) % 23) as f32 * 0.37).collect();
            d.push(&s).unwrap();
        }
        let tiny = |n: usize| Dataset::from_flat(8, vec![0.5; 8 * n]).unwrap();
        for data in [tiny(0), tiny(1), d] {
            for samples in [0, 1, 1_023, 1_024, 1_025, 20_000] {
                let want = sequential_reference(&data, samples, 64, 5);
                for workers in [1, 2, 4, 16] {
                    let what = format!("n={} samples={samples} workers={workers}", data.len());
                    let got = crate::workers::with_batch_workers(workers, || {
                        DistanceHistogram::from_dataset(&data, samples, 64, 5)
                    });
                    assert_same(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn degenerate_datasets_do_not_panic() {
        let d = Dataset::new(4).unwrap();
        let h = DistanceHistogram::from_dataset(&d, 10, 10, 1);
        assert!(h.r_delta(0.5) >= 0.0);
        let h = DistanceHistogram::from_samples(&[], 10, 10);
        assert_eq!(h.cdf(1.0), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }
}
