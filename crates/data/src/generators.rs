//! Synthetic dataset generators.

use hydra_core::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples a standard normal value (Box–Muller).
fn normal<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// The dataset families used across the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Random-walk series (the paper's synthetic "Rand" datasets).
    RandomWalk,
    /// SIFT-descriptor-like vectors (non-negative, clustered).
    SiftLike,
    /// Deep-embedding-like vectors (L2-normalized Gaussian mixture).
    DeepLike,
    /// Seismograph-like series (noise with transient bursts).
    SeismicLike,
    /// MRI-like series (smooth, low frequency) standing in for SALD.
    MriLike,
}

impl DatasetKind {
    /// Name used in reports and CSV output.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::RandomWalk => "rand",
            DatasetKind::SiftLike => "sift-like",
            DatasetKind::DeepLike => "deep-like",
            DatasetKind::SeismicLike => "seismic-like",
            DatasetKind::MriLike => "sald-like",
        }
    }

    /// Generates a dataset of this kind.
    pub fn generate(&self, n: usize, len: usize, seed: u64) -> Dataset {
        match self {
            DatasetKind::RandomWalk => random_walk(n, len, seed),
            DatasetKind::SiftLike => sift_like(n, len, seed),
            DatasetKind::DeepLike => deep_like(n, len, seed),
            DatasetKind::SeismicLike => seismic_like(n, len, seed),
            DatasetKind::MriLike => mri_like(n, len, seed),
        }
    }

    /// All dataset kinds, in the order the paper discusses them.
    pub fn all() -> [DatasetKind; 5] {
        [
            DatasetKind::RandomWalk,
            DatasetKind::SiftLike,
            DatasetKind::DeepLike,
            DatasetKind::SeismicLike,
            DatasetKind::MriLike,
        ]
    }
}

/// Random-walk series: cumulative sums of N(0, 1) steps, z-normalized.
///
/// This is exactly the paper's synthetic data model ("generated as
/// random-walks using a summing process with steps following a Gaussian
/// distribution (0,1)"), which also models financial time series.
pub fn random_walk(n: usize, len: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dataset::with_capacity(len.max(1), n).expect("positive length");
    let mut series = vec![0.0f32; len.max(1)];
    for _ in 0..n {
        let mut acc = 0.0f32;
        for v in series.iter_mut() {
            acc += normal(&mut rng);
            *v = acc;
        }
        hydra_core::znormalize(&mut series);
        d.push(&series).expect("length is fixed");
    }
    d
}

/// SIFT-like vectors: non-negative, sparse-ish, clustered histograms.
///
/// SIFT descriptors are 128-dimensional gradient histograms: non-negative,
/// heavy-tailed per-dimension distributions with strong cluster structure.
/// The generator draws cluster centers with exponential coordinates and
/// perturbs them with truncated Gaussian noise.
pub fn sift_like(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = dim.max(1);
    let num_clusters = (n / 50).clamp(4, 256);
    let centers: Vec<Vec<f32>> = (0..num_clusters)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    // Exponential(λ=1/30): heavy-tailed non-negative values,
                    // scaled to the 0..255-ish range of SIFT components.
                    let u: f32 = rng.gen_range(f32::EPSILON..1.0);
                    (-u.ln()) * 30.0
                })
                .collect()
        })
        .collect();
    let mut d = Dataset::with_capacity(dim, n).expect("positive length");
    let mut v = vec![0.0f32; dim];
    for _ in 0..n {
        let c = &centers[rng.gen_range(0..num_clusters)];
        for (j, x) in v.iter_mut().enumerate() {
            *x = (c[j] + normal(&mut rng) * 8.0).max(0.0);
        }
        d.push(&v).expect("length is fixed");
    }
    d
}

/// Deep-embedding-like vectors: an L2-normalized Gaussian mixture with
/// anisotropic (correlated) within-cluster noise, mimicking the last-layer
/// CNN features of the Deep1B dataset.
pub fn deep_like(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = dim.max(1);
    let num_clusters = (n / 40).clamp(4, 512);
    let centers: Vec<Vec<f32>> = (0..num_clusters)
        .map(|_| (0..dim).map(|_| normal(&mut rng)).collect())
        .collect();
    // Per-dimension noise scales decay with the dimension index, giving the
    // anisotropy (a few dominant directions) typical of learned embeddings.
    let scales: Vec<f32> = (0..dim)
        .map(|j| 0.5 / (1.0 + j as f32 / 8.0))
        .collect();
    let mut d = Dataset::with_capacity(dim, n).expect("positive length");
    let mut v = vec![0.0f32; dim];
    for _ in 0..n {
        let c = &centers[rng.gen_range(0..num_clusters)];
        let mut norm = 0.0f32;
        for (j, x) in v.iter_mut().enumerate() {
            *x = c[j] + normal(&mut rng) * scales[j];
            norm += *x * *x;
        }
        let norm = norm.sqrt().max(f32::EPSILON);
        v.iter_mut().for_each(|x| *x /= norm);
        d.push(&v).expect("length is fixed");
    }
    d
}

/// Seismic-like series: low-amplitude background noise with occasional
/// high-amplitude transient bursts (events), z-normalized.
pub fn seismic_like(n: usize, len: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = len.max(1);
    let mut d = Dataset::with_capacity(len, n).expect("positive length");
    let mut series = vec![0.0f32; len];
    for _ in 0..n {
        // Background: AR(1)-style correlated noise.
        let mut prev = 0.0f32;
        for v in series.iter_mut() {
            prev = 0.6 * prev + normal(&mut rng) * 0.2;
            *v = prev;
        }
        // 1-3 bursts: decaying oscillation starting at a random onset.
        let bursts = rng.gen_range(1..=3);
        for _ in 0..bursts {
            let onset = rng.gen_range(0..len);
            let amp = rng.gen_range(2.0..8.0f32);
            let freq = rng.gen_range(0.1..0.6f32);
            for (t, v) in series.iter_mut().enumerate().skip(onset) {
                let dt = (t - onset) as f32;
                *v += amp * (-dt / 40.0).exp() * (freq * dt).sin();
            }
        }
        hydra_core::znormalize(&mut series);
        d.push(&series).expect("length is fixed");
    }
    d
}

/// MRI-like (SALD) series: smooth, low-frequency signals composed of a
/// handful of slow sinusoids plus small measurement noise, z-normalized.
pub fn mri_like(n: usize, len: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = len.max(1);
    let mut d = Dataset::with_capacity(len, n).expect("positive length");
    let mut series = vec![0.0f32; len];
    for _ in 0..n {
        let components = rng.gen_range(2..=4);
        let params: Vec<(f32, f32, f32)> = (0..components)
            .map(|_| {
                (
                    rng.gen_range(0.5..2.0f32),                       // amplitude
                    rng.gen_range(0.005..0.05f32),                    // frequency
                    rng.gen_range(0.0..2.0 * std::f32::consts::PI),   // phase
                )
            })
            .collect();
        for (t, v) in series.iter_mut().enumerate() {
            let mut x = 0.0f32;
            for &(a, f, p) in &params {
                x += a * (f * t as f32 + p).sin();
            }
            *v = x + normal(&mut rng) * 0.05;
        }
        hydra_core::znormalize(&mut series);
        d.push(&series).expect("length is fixed");
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_requested_shape() {
        for kind in DatasetKind::all() {
            let d = kind.generate(50, 64, 7);
            assert_eq!(d.len(), 50, "{}", kind.name());
            assert_eq!(d.series_len(), 64);
            assert!(d.iter().all(|s| s.iter().all(|v| v.is_finite())));
        }
        assert_eq!(DatasetKind::RandomWalk.name(), "rand");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for kind in DatasetKind::all() {
            let a = kind.generate(20, 32, 123);
            let b = kind.generate(20, 32, 123);
            let c = kind.generate(20, 32, 124);
            assert_eq!(a, b, "{}", kind.name());
            assert_ne!(a, c, "{}", kind.name());
        }
    }

    #[test]
    fn random_walk_is_znormalized() {
        let d = random_walk(10, 128, 3);
        for s in d.iter() {
            let mean: f32 = s.iter().sum::<f32>() / 128.0;
            let var: f32 = s.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 128.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn sift_like_is_non_negative_and_clustered() {
        let d = sift_like(300, 32, 9);
        assert!(d.iter().all(|s| s.iter().all(|&v| v >= 0.0)));
        // Clustering: the average NN distance should be much smaller than
        // the average pairwise distance.
        let mut nn_sum = 0.0f32;
        let mut all_sum = 0.0f32;
        let mut all_cnt = 0u32;
        for i in 0..30 {
            let mut best = f32::INFINITY;
            for j in 0..300 {
                if i == j {
                    continue;
                }
                let dist = hydra_core::euclidean(d.series(i), d.series(j));
                best = best.min(dist);
                all_sum += dist;
                all_cnt += 1;
            }
            nn_sum += best;
        }
        assert!(nn_sum / 30.0 < 0.8 * all_sum / all_cnt as f32);
    }

    #[test]
    fn deep_like_is_unit_norm() {
        let d = deep_like(50, 24, 11);
        for s in d.iter() {
            let norm: f32 = s.iter().map(|v| v * v).sum::<f32>();
            assert!((norm - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn mri_like_is_smoother_than_seismic() {
        // Smoothness proxy: mean squared first difference (both families are
        // z-normalized so the comparison is scale free).
        let roughness = |d: &Dataset| -> f32 {
            let mut acc = 0.0;
            for s in d.iter() {
                for w in s.windows(2) {
                    acc += (w[1] - w[0]) * (w[1] - w[0]);
                }
            }
            acc / d.len() as f32
        };
        let smooth = mri_like(30, 128, 5);
        let rough = seismic_like(30, 128, 5);
        assert!(roughness(&smooth) < roughness(&rough));
    }
}
