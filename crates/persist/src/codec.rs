//! Section codecs for the shared building blocks (histograms, codebooks,
//! quantizers, rotation matrices).
//!
//! Every index crate serializes its own private structures, but they all
//! embed the same handful of workspace types; centralizing those codecs
//! here keeps the per-index `save`/`load` code small and guarantees that,
//! e.g., a k-means codebook is laid out identically inside an IMI snapshot
//! and inside a FLANN snapshot.
//!
//! Each `put_*` has an exactly inverse `get_*`; the getters validate shape
//! invariants and report [`crate::PersistError::Corrupt`] on impossible
//! values instead of panicking.

use hydra_core::DistanceHistogram;
use hydra_summarize::linalg::Matrix;
use hydra_summarize::quantization::{KMeans, OptimizedProductQuantizer, ProductQuantizer};

use crate::error::{PersistError, Result};
use crate::snapshot::{Section, SectionReader};

/// Serializes a [`DistanceHistogram`].
pub fn put_histogram(s: &mut Section, h: &DistanceHistogram) {
    s.put_f32s(h.bin_edges());
    s.put_u64s(h.cumulative_counts());
    s.put_u64(h.sample_count());
    s.put_usize(h.dataset_size());
}

/// Deserializes a [`DistanceHistogram`] written by [`put_histogram`].
pub fn get_histogram(s: &mut SectionReader<'_>) -> Result<DistanceHistogram> {
    let bin_edges = s.get_f32s()?;
    let cumulative = s.get_u64s()?;
    let total = s.get_u64()?;
    let dataset_size = s.get_usize()?;
    if bin_edges.len() != cumulative.len() {
        return Err(PersistError::Corrupt(
            "histogram bin edges and counts differ in length".into(),
        ));
    }
    Ok(DistanceHistogram::from_parts(
        bin_edges,
        cumulative,
        total,
        dataset_size,
    ))
}

/// Serializes a [`KMeans`] codebook.
pub fn put_kmeans(s: &mut Section, km: &KMeans) {
    s.put_usize(km.k());
    s.put_usize(km.dim());
    s.put_f32s(km.centroids_flat());
}

/// Deserializes a [`KMeans`] codebook written by [`put_kmeans`].
pub fn get_kmeans(s: &mut SectionReader<'_>) -> Result<KMeans> {
    let k = s.get_usize()?;
    let dim = s.get_usize()?;
    let centroids = s.get_f32s()?;
    if k == 0 || dim == 0 || centroids.len() != k * dim {
        return Err(PersistError::Corrupt(format!(
            "k-means codebook shape mismatch: k={k}, dim={dim}, values={}",
            centroids.len()
        )));
    }
    Ok(KMeans::from_parts(centroids, dim, k))
}

/// Serializes a [`ProductQuantizer`] (all subspace codebooks).
pub fn put_product_quantizer(s: &mut Section, pq: &ProductQuantizer) {
    s.put_usize(pq.dim());
    s.put_usize(pq.num_subspaces());
    for sub in pq.subquantizers() {
        put_kmeans(s, sub);
    }
}

/// Deserializes a [`ProductQuantizer`] written by [`put_product_quantizer`].
pub fn get_product_quantizer(s: &mut SectionReader<'_>) -> Result<ProductQuantizer> {
    let dim = s.get_usize()?;
    let m = s.get_usize()?;
    if m == 0 || dim == 0 || dim % m != 0 {
        return Err(PersistError::Corrupt(format!(
            "product quantizer shape mismatch: dim={dim}, m={m}"
        )));
    }
    let sub_dim = dim / m;
    let mut subs = Vec::with_capacity(m);
    for _ in 0..m {
        let km = get_kmeans(s)?;
        if km.dim() != sub_dim {
            return Err(PersistError::Corrupt(format!(
                "subquantizer dimensionality {} does not divide dim {dim} into {m} parts",
                km.dim()
            )));
        }
        subs.push(km);
    }
    Ok(ProductQuantizer::from_parts(subs, dim))
}

/// Serializes an [`OptimizedProductQuantizer`] (rotation + codebooks).
pub fn put_opq(s: &mut Section, opq: &OptimizedProductQuantizer) {
    put_matrix(s, opq.rotation());
    put_product_quantizer(s, opq.pq());
}

/// Deserializes an [`OptimizedProductQuantizer`] written by [`put_opq`].
pub fn get_opq(s: &mut SectionReader<'_>) -> Result<OptimizedProductQuantizer> {
    let rotation = get_matrix(s)?;
    let pq = get_product_quantizer(s)?;
    if rotation.rows() != pq.dim() || rotation.cols() != pq.dim() {
        return Err(PersistError::Corrupt(
            "OPQ rotation does not match the codebook dimensionality".into(),
        ));
    }
    Ok(OptimizedProductQuantizer::from_parts(rotation, pq))
}

/// Serializes a row-major [`Matrix`].
pub fn put_matrix(s: &mut Section, m: &Matrix) {
    s.put_usize(m.rows());
    s.put_usize(m.cols());
    s.put_f64s(m.as_slice());
}

/// Deserializes a [`Matrix`] written by [`put_matrix`].
pub fn get_matrix(s: &mut SectionReader<'_>) -> Result<Matrix> {
    let rows = s.get_usize()?;
    let cols = s.get_usize()?;
    let data = s.get_f64s()?;
    if data.len() != rows * cols {
        return Err(PersistError::Corrupt(format!(
            "matrix shape mismatch: {rows}x{cols} with {} values",
            data.len()
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::Dataset;

    fn reader(s: &Section) -> SectionReader<'_> {
        SectionReader::new(s.as_bytes())
    }

    #[test]
    fn histogram_roundtrip_preserves_quantiles() {
        let samples: Vec<f32> = (1..=500).map(|i| i as f32 / 50.0).collect();
        let h = DistanceHistogram::from_samples(&samples, 64, 10_000);
        let mut s = Section::new();
        put_histogram(&mut s, &h);
        let got = get_histogram(&mut reader(&s)).unwrap();
        assert_eq!(got.sample_count(), h.sample_count());
        for p in [0.1f64, 0.5, 0.9] {
            assert_eq!(got.quantile(p), h.quantile(p));
        }
        assert_eq!(got.r_delta(0.9), h.r_delta(0.9));
    }

    #[test]
    fn kmeans_roundtrip_preserves_assignment() {
        let data: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![(i % 7) as f32, (i % 5) as f32, i as f32 * 0.1])
            .collect();
        let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
        let km = KMeans::fit(&refs, 4, 10, 3);
        let mut s = Section::new();
        put_kmeans(&mut s, &km);
        let got = get_kmeans(&mut reader(&s)).unwrap();
        assert_eq!(got.k(), km.k());
        assert_eq!(got.dim(), km.dim());
        for v in &data {
            assert_eq!(got.assign(v), km.assign(v));
            assert_eq!(got.distances(v), km.distances(v));
        }
    }

    #[test]
    fn pq_and_opq_roundtrips_preserve_codes_and_tables() {
        let data: Vec<Vec<f32>> = (0..60)
            .map(|i| (0..8).map(|j| ((i * 13 + j * 7) % 23) as f32 * 0.3 - 2.0).collect())
            .collect();
        let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
        let pq = ProductQuantizer::train(&refs, 2, 8, 8, 11);
        let mut s = Section::new();
        put_product_quantizer(&mut s, &pq);
        let got = get_product_quantizer(&mut reader(&s)).unwrap();
        for v in &data {
            assert_eq!(got.encode(v), pq.encode(v));
            assert_eq!(got.distance_table(v), pq.distance_table(v));
        }

        let opq = OptimizedProductQuantizer::train(&refs, 2, 8, 6, 2, 12);
        let mut s = Section::new();
        put_opq(&mut s, &opq);
        let got = get_opq(&mut reader(&s)).unwrap();
        for v in &data {
            assert_eq!(got.encode(v), opq.encode(v));
            assert_eq!(got.distance_table(v), opq.distance_table(v));
        }
    }

    #[test]
    fn matrix_roundtrip_is_exact() {
        let m = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.5, 0.25, 1e-300, 7.0]);
        let mut s = Section::new();
        put_matrix(&mut s, &m);
        let got = get_matrix(&mut reader(&s)).unwrap();
        assert_eq!(got, m);
    }

    #[test]
    fn corrupt_shapes_are_reported_not_panicked() {
        // Histogram with mismatched lengths.
        let mut s = Section::new();
        s.put_f32s(&[1.0, 2.0]);
        s.put_u64s(&[1]);
        s.put_u64(1);
        s.put_usize(10);
        assert!(matches!(
            get_histogram(&mut reader(&s)),
            Err(PersistError::Corrupt(_))
        ));
        // K-means with the wrong number of values.
        let mut s = Section::new();
        s.put_usize(2);
        s.put_usize(3);
        s.put_f32s(&[0.0; 5]);
        assert!(matches!(
            get_kmeans(&mut reader(&s)),
            Err(PersistError::Corrupt(_))
        ));
        // Matrix with the wrong number of values.
        let mut s = Section::new();
        s.put_usize(2);
        s.put_usize(2);
        s.put_f64s(&[0.0; 3]);
        assert!(matches!(
            get_matrix(&mut reader(&s)),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn dataset_helpers_are_reachable() {
        // Smoke-check the core Dataset type is visible from codec tests
        // (the dataset codec itself lives in crate::dataset).
        let d = Dataset::from_series(2, &[[1.0f32, 2.0]]).unwrap();
        assert_eq!(d.len(), 1);
    }
}
