//! Quantization-based summarizations.
//!
//! * [`ScalarQuantizer`] — per-dimension adaptive (equi-depth) scalar
//!   quantization, the cell grid of the VA+file. Provides lower and upper
//!   bounding distances between a query and a cell.
//! * [`KMeans`] — Lloyd's algorithm with k-means++ seeding; the building
//!   block of product quantization and of FLANN's hierarchical k-means tree.
//! * [`ProductQuantizer`] — splits vectors into `m` subspaces and quantizes
//!   each with its own codebook; supports asymmetric distance computation
//!   (ADC) through per-query lookup tables.
//! * [`OptimizedProductQuantizer`] — product quantization preceded by a
//!   learned orthonormal rotation (OPQ), trained by alternating between
//!   codebook updates and an orthogonal Procrustes solve.

use crate::linalg::{procrustes_rotation, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Scalar quantization (VA+file cells)
// ---------------------------------------------------------------------------

/// Per-dimension adaptive scalar quantizer.
///
/// For every dimension the training values are split into `2^bits`
/// equi-depth cells; a vector is encoded as one cell index per dimension.
/// Distances between a query and a cell are bounded from below (distance to
/// the nearest cell edge) and above (distance to the farthest cell edge),
/// exactly as the VA-file / VA+file do.
#[derive(Debug, Clone)]
pub struct ScalarQuantizer {
    bits: u8,
    /// Per dimension: cell edges of length `2^bits + 1` (first = training
    /// min, last = training max).
    edges: Vec<Vec<f32>>,
}

impl ScalarQuantizer {
    /// Trains a quantizer with `bits` bits per dimension from training
    /// vectors.
    ///
    /// # Panics
    /// Panics if `training` is empty or `bits == 0`.
    pub fn train(training: &[&[f32]], bits: u8) -> Self {
        assert!(!training.is_empty(), "training sample must not be empty");
        assert!(bits > 0 && bits <= 16, "bits must be in 1..=16");
        let dims = training[0].len();
        let cells = 1usize << bits;
        let mut edges = Vec::with_capacity(dims);
        let mut column = Vec::with_capacity(training.len());
        for d in 0..dims {
            column.clear();
            column.extend(training.iter().map(|v| v[d]));
            column.sort_by(f32::total_cmp);
            let mut e = Vec::with_capacity(cells + 1);
            for c in 0..=cells {
                // Equi-depth edges: the c-th edge is the (c/cells)-quantile of
                // the training values (VA+ adapts cell sizes to the data).
                let idx = ((c * (column.len() - 1)) as f64 / cells as f64).round() as usize;
                e.push(column[idx.min(column.len() - 1)]);
            }
            // Guard against duplicate edges in constant dimensions.
            for i in 1..e.len() {
                if e[i] <= e[i - 1] {
                    e[i] = e[i - 1] + f32::EPSILON;
                }
            }
            edges.push(e);
        }
        Self { bits, edges }
    }

    /// Bits per dimension.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.edges.len()
    }

    /// Number of cells per dimension (`2^bits`).
    pub fn cells(&self) -> usize {
        1usize << self.bits
    }

    /// Encodes a vector into one cell index per dimension.
    pub fn encode(&self, v: &[f32]) -> Vec<u16> {
        assert_eq!(v.len(), self.dims(), "dimension mismatch");
        v.iter()
            .enumerate()
            .map(|(d, &x)| self.encode_dim(d, x))
            .collect()
    }

    fn encode_dim(&self, dim: usize, x: f32) -> u16 {
        let e = &self.edges[dim];
        // Find the cell whose interval [e[c], e[c+1]) contains x.
        let cells = self.cells();
        let pos = e.partition_point(|edge| *edge <= x);
        (pos.saturating_sub(1)).min(cells - 1) as u16
    }

    /// Lower bound on the Euclidean distance between `query` and any vector
    /// whose code is `code`.
    pub fn lower_bound(&self, query: &[f32], code: &[u16]) -> f32 {
        let mut acc = 0.0f32;
        for d in 0..self.dims() {
            let e = &self.edges[d];
            let c = code[d] as usize;
            let lo = e[c];
            let hi = e[c + 1];
            let q = query[d];
            let diff = if q < lo {
                lo - q
            } else if q > hi {
                q - hi
            } else {
                0.0
            };
            acc += diff * diff;
        }
        acc.sqrt()
    }

    /// Approximate reconstruction: the center of each cell.
    pub fn decode(&self, code: &[u16]) -> Vec<f32> {
        (0..self.dims())
            .map(|d| {
                let e = &self.edges[d];
                let c = code[d] as usize;
                (e[c] + e[c + 1]) / 2.0
            })
            .collect()
    }

    /// Bytes needed to store one code (packed at `bits` per dimension).
    pub fn code_bytes(&self) -> usize {
        (self.dims() * self.bits as usize).div_ceil(8)
    }

    /// Per-dimension cell edges (persistence accessor; pairs with
    /// [`ScalarQuantizer::from_parts`]).
    pub fn edges(&self) -> &[Vec<f32>] {
        &self.edges
    }

    /// Reassembles a trained quantizer from its stored parts.
    ///
    /// # Panics
    /// Panics if `bits` is outside `1..=16` or any dimension does not carry
    /// exactly `2^bits + 1` edges.
    pub fn from_parts(bits: u8, edges: Vec<Vec<f32>>) -> Self {
        assert!(bits > 0 && bits <= 16, "bits must be in 1..=16");
        let cells = 1usize << bits;
        assert!(
            edges.iter().all(|e| e.len() == cells + 1),
            "each dimension must carry 2^bits + 1 edges"
        );
        Self { bits, edges }
    }
}

// ---------------------------------------------------------------------------
// k-means
// ---------------------------------------------------------------------------

/// Lloyd's k-means with k-means++ initialization.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Flattened centroids (`k` rows of `dim` values).
    centroids: Vec<f32>,
    dim: usize,
    k: usize,
}

impl KMeans {
    /// Fits `k` centroids to the training vectors with at most `max_iters`
    /// Lloyd iterations.
    ///
    /// # Panics
    /// Panics if `training` is empty or `k == 0`.
    pub fn fit(training: &[&[f32]], k: usize, max_iters: usize, seed: u64) -> Self {
        assert!(!training.is_empty(), "training sample must not be empty");
        assert!(k > 0, "k must be positive");
        let dim = training[0].len();
        let k = k.min(training.len());
        let mut rng = StdRng::seed_from_u64(seed);

        // k-means++ seeding.
        let mut centroids: Vec<f32> = Vec::with_capacity(k * dim);
        let first = rng.gen_range(0..training.len());
        centroids.extend_from_slice(training[first]);
        let mut dists: Vec<f32> = training
            .iter()
            .map(|v| hydra_core::squared_euclidean(v, training[first]))
            .collect();
        while centroids.len() / dim < k {
            let total: f32 = dists.iter().sum();
            let pick = if total <= 0.0 {
                rng.gen_range(0..training.len())
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut chosen = training.len() - 1;
                for (i, &d) in dists.iter().enumerate() {
                    if target < d {
                        chosen = i;
                        break;
                    }
                    target -= d;
                }
                chosen
            };
            centroids.extend_from_slice(training[pick]);
            let c = &training[pick];
            for (i, v) in training.iter().enumerate() {
                let d = hydra_core::squared_euclidean(v, c);
                if d < dists[i] {
                    dists[i] = d;
                }
            }
        }

        let mut km = Self { centroids, dim, k };

        // Lloyd iterations.
        let mut assignment = vec![0usize; training.len()];
        for _ in 0..max_iters {
            let mut changed = false;
            for (i, v) in training.iter().enumerate() {
                let a = km.assign(v);
                if a != assignment[i] {
                    assignment[i] = a;
                    changed = true;
                }
            }
            let mut sums = vec![0.0f64; km.k * dim];
            let mut counts = vec![0usize; km.k];
            for (i, v) in training.iter().enumerate() {
                let a = assignment[i];
                counts[a] += 1;
                for (d, &x) in v.iter().enumerate() {
                    sums[a * dim + d] += x as f64;
                }
            }
            for c in 0..km.k {
                if counts[c] == 0 {
                    // Re-seed empty clusters from a random training point.
                    let pick = rng.gen_range(0..training.len());
                    km.centroids[c * dim..(c + 1) * dim].copy_from_slice(training[pick]);
                    continue;
                }
                for d in 0..dim {
                    km.centroids[c * dim + d] = (sums[c * dim + d] / counts[c] as f64) as f32;
                }
            }
            if !changed {
                break;
            }
        }
        km
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Dimensionality of the centroids.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow of centroid `c`.
    pub fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }

    /// Index of the nearest centroid to `v`.
    pub fn assign(&self, v: &[f32]) -> usize {
        let mut best = 0;
        let mut best_d = f32::INFINITY;
        for c in 0..self.k {
            let d = hydra_core::squared_euclidean(v, self.centroid(c));
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }

    /// Squared distances from `v` to every centroid.
    pub fn distances(&self, v: &[f32]) -> Vec<f32> {
        (0..self.k)
            .map(|c| hydra_core::squared_euclidean(v, self.centroid(c)))
            .collect()
    }

    /// Memory footprint of the codebook in bytes.
    pub fn memory_footprint(&self) -> usize {
        self.centroids.len() * std::mem::size_of::<f32>()
    }

    /// The flattened centroid buffer (`k` rows of `dim` values; persistence
    /// accessor, pairs with [`KMeans::from_parts`]).
    pub fn centroids_flat(&self) -> &[f32] {
        &self.centroids
    }

    /// Reassembles a fitted codebook from its stored parts.
    ///
    /// # Panics
    /// Panics if the buffer does not hold exactly `k * dim` values or either
    /// dimension is zero.
    pub fn from_parts(centroids: Vec<f32>, dim: usize, k: usize) -> Self {
        assert!(k > 0 && dim > 0, "k and dim must be positive");
        assert_eq!(centroids.len(), k * dim, "centroid buffer shape mismatch");
        Self { centroids, dim, k }
    }
}

// ---------------------------------------------------------------------------
// Product quantization
// ---------------------------------------------------------------------------

/// Product quantizer: the vector is split into `m` contiguous subvectors,
/// each quantized with its own `k`-centroid codebook.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    subquantizers: Vec<KMeans>,
    dim: usize,
    sub_dim: usize,
}

impl ProductQuantizer {
    /// Trains a product quantizer with `m` subspaces of `k` centroids each.
    ///
    /// # Panics
    /// Panics if `training` is empty, or if the dimensionality is not a
    /// multiple of `m`.
    pub fn train(training: &[&[f32]], m: usize, k: usize, max_iters: usize, seed: u64) -> Self {
        assert!(!training.is_empty(), "training sample must not be empty");
        let dim = training[0].len();
        assert!(m > 0 && dim % m == 0, "dimension must be a multiple of m");
        let sub_dim = dim / m;
        let mut subquantizers = Vec::with_capacity(m);
        let mut sub_training: Vec<Vec<f32>> = Vec::with_capacity(training.len());
        for s in 0..m {
            sub_training.clear();
            sub_training.extend(
                training
                    .iter()
                    .map(|v| v[s * sub_dim..(s + 1) * sub_dim].to_vec()),
            );
            let refs: Vec<&[f32]> = sub_training.iter().map(|v| v.as_slice()).collect();
            subquantizers.push(KMeans::fit(&refs, k, max_iters, seed.wrapping_add(s as u64)));
        }
        Self {
            subquantizers,
            dim,
            sub_dim,
        }
    }

    /// Number of subspaces.
    pub fn num_subspaces(&self) -> usize {
        self.subquantizers.len()
    }

    /// Codebook size per subspace.
    pub fn codebook_size(&self) -> usize {
        self.subquantizers[0].k()
    }

    /// Original dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Encodes a vector into one centroid id per subspace.
    pub fn encode(&self, v: &[f32]) -> Vec<u16> {
        assert_eq!(v.len(), self.dim, "dimension mismatch");
        self.subquantizers
            .iter()
            .enumerate()
            .map(|(s, q)| q.assign(&v[s * self.sub_dim..(s + 1) * self.sub_dim]) as u16)
            .collect()
    }

    /// Reconstructs the approximate vector for a code.
    pub fn decode(&self, code: &[u16]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dim);
        for (s, q) in self.subquantizers.iter().enumerate() {
            out.extend_from_slice(q.centroid(code[s] as usize));
        }
        out
    }

    /// Builds the per-query ADC lookup table: `table[s][c]` is the squared
    /// distance between the query's `s`-th subvector and centroid `c` of
    /// subquantizer `s`.
    pub fn distance_table(&self, query: &[f32]) -> Vec<Vec<f32>> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        self.subquantizers
            .iter()
            .enumerate()
            .map(|(s, q)| q.distances(&query[s * self.sub_dim..(s + 1) * self.sub_dim]))
            .collect()
    }

    /// Builds the ADC lookup tables for a whole batch of queries in a single
    /// pass over the codebooks.
    ///
    /// Per-query construction ([`Self::distance_table`]) walks every
    /// codebook once per query; here each centroid is visited once and
    /// scored against all queries while it is hot in cache, so a batch of
    /// `B` queries costs one codebook pass instead of `B`. The returned
    /// tables are element-for-element identical to what
    /// [`Self::distance_table`] produces for each query (same distance
    /// kernel, same summation order), so batched search results match
    /// per-query search bit for bit.
    pub fn distance_tables(&self, queries: &[&[f32]]) -> Vec<Vec<Vec<f32>>> {
        for q in queries {
            assert_eq!(q.len(), self.dim, "dimension mismatch");
        }
        let mut tables: Vec<Vec<Vec<f32>>> = queries
            .iter()
            .map(|_| Vec::with_capacity(self.subquantizers.len()))
            .collect();
        for (s, sub) in self.subquantizers.iter().enumerate() {
            for table in &mut tables {
                table.push(vec![0.0f32; sub.k()]);
            }
            let lo = s * self.sub_dim;
            let hi = lo + self.sub_dim;
            for c in 0..sub.k() {
                let centroid = sub.centroid(c);
                for (qi, q) in queries.iter().enumerate() {
                    tables[qi][s][c] = hydra_core::squared_euclidean(&q[lo..hi], centroid);
                }
            }
        }
        tables
    }

    /// Asymmetric distance (ADC): approximate Euclidean distance between the
    /// query represented by `table` and the encoded vector `code`.
    pub fn adc_distance(table: &[Vec<f32>], code: &[u16]) -> f32 {
        code.iter()
            .enumerate()
            .map(|(s, &c)| table[s][c as usize])
            .sum::<f32>()
            .sqrt()
    }

    /// Memory footprint of all codebooks in bytes.
    pub fn memory_footprint(&self) -> usize {
        self.subquantizers
            .iter()
            .map(|q| q.memory_footprint())
            .sum()
    }

    /// The per-subspace codebooks (persistence accessor; pairs with
    /// [`ProductQuantizer::from_parts`]).
    pub fn subquantizers(&self) -> &[KMeans] {
        &self.subquantizers
    }

    /// Reassembles a trained product quantizer from its stored parts.
    ///
    /// # Panics
    /// Panics if there are no subquantizers, `dim` is not divisible by their
    /// count, or any subquantizer's dimensionality is not `dim / m`.
    pub fn from_parts(subquantizers: Vec<KMeans>, dim: usize) -> Self {
        let m = subquantizers.len();
        assert!(m > 0 && dim % m == 0, "dimension must be a multiple of m");
        let sub_dim = dim / m;
        assert!(
            subquantizers.iter().all(|q| q.dim() == sub_dim),
            "every subquantizer must cover dim / m dimensions"
        );
        Self {
            subquantizers,
            dim,
            sub_dim,
        }
    }
}

// ---------------------------------------------------------------------------
// Optimized product quantization
// ---------------------------------------------------------------------------

/// Product quantization preceded by a learned orthonormal rotation.
///
/// Training alternates between (1) fitting the PQ codebooks on rotated data
/// and (2) updating the rotation as the orthogonal Procrustes solution
/// aligning the original data with its PQ reconstruction (Ge et al., 2014).
#[derive(Debug, Clone)]
pub struct OptimizedProductQuantizer {
    rotation: Matrix,
    pq: ProductQuantizer,
    dim: usize,
}

impl OptimizedProductQuantizer {
    /// Trains OPQ with `m` subspaces of `k` centroids using `opq_iters`
    /// alternations.
    pub fn train(
        training: &[&[f32]],
        m: usize,
        k: usize,
        kmeans_iters: usize,
        opq_iters: usize,
        seed: u64,
    ) -> Self {
        assert!(!training.is_empty(), "training sample must not be empty");
        let dim = training[0].len();
        let n = training.len();
        let mut rotation = Matrix::identity(dim);

        // Original data as an n x d matrix (f64 for the Procrustes solve).
        let mut x = Matrix::zeros(n, dim);
        for (i, v) in training.iter().enumerate() {
            for (j, &val) in v.iter().enumerate() {
                x[(i, j)] = val as f64;
            }
        }

        let mut rotated: Vec<Vec<f32>> = training.iter().map(|v| v.to_vec()).collect();
        for it in 0..opq_iters.max(1) {
            // (1) Fit PQ on the rotated data.
            let refs: Vec<&[f32]> = rotated.iter().map(|v| v.as_slice()).collect();
            let fitted = ProductQuantizer::train(&refs, m, k, kmeans_iters, seed ^ it as u64);
            // (2) Update the rotation: align X with the reconstructions.
            let mut y = Matrix::zeros(n, dim);
            for (i, v) in rotated.iter().enumerate() {
                let rec = fitted.decode(&fitted.encode(v));
                for (j, &val) in rec.iter().enumerate() {
                    y[(i, j)] = val as f64;
                }
            }
            rotation = procrustes_rotation(&x, &y);
            // Re-rotate the training data for the next iteration.
            for (i, v) in training.iter().enumerate() {
                rotated[i] = Self::rotate_with(&rotation, v);
            }
        }
        // Final codebooks on the final rotation.
        let refs: Vec<&[f32]> = rotated.iter().map(|v| v.as_slice()).collect();
        let pq = ProductQuantizer::train(&refs, m, k, kmeans_iters, seed ^ 0xA5A5);
        Self { rotation, pq, dim }
    }

    fn rotate_with(rotation: &Matrix, v: &[f32]) -> Vec<f32> {
        // x' = x R  (row vector times rotation).
        let d = v.len();
        (0..d)
            .map(|j| {
                (0..d)
                    .map(|i| v[i] as f64 * rotation[(i, j)])
                    .sum::<f64>() as f32
            })
            .collect()
    }

    /// Applies the learned rotation to a vector.
    pub fn rotate(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.dim, "dimension mismatch");
        Self::rotate_with(&self.rotation, v)
    }

    /// Encodes a vector (rotation followed by PQ encoding).
    pub fn encode(&self, v: &[f32]) -> Vec<u16> {
        self.pq.encode(&self.rotate(v))
    }

    /// The underlying product quantizer (operating in rotated space).
    pub fn pq(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// Builds the ADC table for a query (rotating it first).
    pub fn distance_table(&self, query: &[f32]) -> Vec<Vec<f32>> {
        self.pq.distance_table(&self.rotate(query))
    }

    /// Builds the ADC tables for a batch of queries in one codebook pass
    /// (each query is rotated first). See
    /// [`ProductQuantizer::distance_tables`].
    pub fn distance_tables(&self, queries: &[&[f32]]) -> Vec<Vec<Vec<f32>>> {
        let rotated: Vec<Vec<f32>> = queries.iter().map(|q| self.rotate(q)).collect();
        let refs: Vec<&[f32]> = rotated.iter().map(|v| v.as_slice()).collect();
        self.pq.distance_tables(&refs)
    }

    /// Memory footprint (rotation matrix plus codebooks).
    pub fn memory_footprint(&self) -> usize {
        self.dim * self.dim * std::mem::size_of::<f64>() + self.pq.memory_footprint()
    }

    /// The learned rotation (persistence accessor; pairs with
    /// [`OptimizedProductQuantizer::from_parts`]).
    pub fn rotation(&self) -> &Matrix {
        &self.rotation
    }

    /// Reassembles a trained OPQ from its stored parts.
    ///
    /// # Panics
    /// Panics unless `rotation` is square with the codebook dimensionality.
    pub fn from_parts(rotation: Matrix, pq: ProductQuantizer) -> Self {
        let dim = pq.dim();
        assert!(
            rotation.rows() == dim && rotation.cols() == dim,
            "rotation must be square in the codebook dimensionality"
        );
        Self { rotation, pq, dim }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::euclidean;

    fn training_set(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    fn as_refs(v: &[Vec<f32>]) -> Vec<&[f32]> {
        v.iter().map(|x| x.as_slice()).collect()
    }

    #[test]
    fn scalar_quantizer_bounds_bracket_true_distance() {
        let train = training_set(200, 8, 1);
        let refs = as_refs(&train);
        let sq = ScalarQuantizer::train(&refs, 3);
        assert_eq!(sq.cells(), 8);
        assert_eq!(sq.dims(), 8);
        assert_eq!(sq.bits(), 3);
        let query = &train[0];
        for v in train.iter().skip(1).take(50) {
            let code = sq.encode(v);
            let d = euclidean(query, v);
            let lb = sq.lower_bound(query, &code);
            assert!(lb <= d + 1e-4, "lb {lb} > d {d}");
        }
    }

    #[test]
    fn scalar_quantizer_decode_falls_in_cell() {
        let train = training_set(100, 4, 3);
        let refs = as_refs(&train);
        let sq = ScalarQuantizer::train(&refs, 2);
        let v = &train[10];
        let code = sq.encode(v);
        let rec = sq.decode(&code);
        // The reconstruction must itself encode to the same cells.
        assert_eq!(sq.encode(&rec), code);
        assert!(sq.code_bytes() >= 1);
    }

    #[test]
    fn kmeans_separates_well_separated_clusters() {
        // Two clear clusters around (0,0) and (10,10).
        let mut data = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            data.push(vec![rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)]);
            data.push(vec![
                10.0 + rng.gen_range(-0.5f32..0.5),
                10.0 + rng.gen_range(-0.5f32..0.5),
            ]);
        }
        let refs = as_refs(&data);
        let km = KMeans::fit(&refs, 2, 20, 11);
        assert_eq!(km.k(), 2);
        assert_eq!(km.dim(), 2);
        let a = km.assign(&[0.0, 0.0]);
        let b = km.assign(&[10.0, 10.0]);
        assert_ne!(a, b);
        // Centroids land near the cluster centers.
        let near_origin = km.centroid(a);
        assert!(near_origin[0].abs() < 1.0 && near_origin[1].abs() < 1.0);
    }

    #[test]
    fn kmeans_handles_k_larger_than_data() {
        let data = training_set(3, 4, 9);
        let refs = as_refs(&data);
        let km = KMeans::fit(&refs, 10, 5, 1);
        assert_eq!(km.k(), 3);
    }

    #[test]
    fn pq_adc_approximates_true_distance() {
        let data = training_set(400, 16, 21);
        let refs = as_refs(&data);
        let pq = ProductQuantizer::train(&refs, 4, 16, 15, 5);
        assert_eq!(pq.num_subspaces(), 4);
        assert_eq!(pq.codebook_size(), 16);
        assert_eq!(pq.dim(), 16);
        let query = &data[0];
        let table = pq.distance_table(query);
        let mut err_sum = 0.0f32;
        let mut dist_sum = 0.0f32;
        for v in data.iter().skip(1).take(100) {
            let code = pq.encode(v);
            let adc = ProductQuantizer::adc_distance(&table, &code);
            let d = euclidean(query, v);
            err_sum += (adc - d).abs();
            dist_sum += d;
        }
        // The quantization error should be small relative to typical distances.
        assert!(err_sum / dist_sum < 0.35, "relative ADC error too large");
    }

    #[test]
    fn pq_decode_reduces_error_vs_random() {
        let data = training_set(300, 8, 31);
        let refs = as_refs(&data);
        let pq = ProductQuantizer::train(&refs, 2, 32, 15, 3);
        let mut rec_err = 0.0;
        let mut rand_err = 0.0;
        for (i, v) in data.iter().enumerate().take(50) {
            let rec = pq.decode(&pq.encode(v));
            rec_err += euclidean(v, &rec);
            rand_err += euclidean(v, &data[(i + 37) % data.len()]);
        }
        assert!(rec_err < rand_err, "PQ reconstruction should beat random");
    }

    #[test]
    fn batched_distance_tables_match_per_query_tables() {
        let data = training_set(300, 16, 51);
        let refs = as_refs(&data);
        let pq = ProductQuantizer::train(&refs, 4, 16, 10, 5);
        let queries: Vec<&[f32]> = data.iter().take(7).map(|v| v.as_slice()).collect();
        let batched = pq.distance_tables(&queries);
        assert_eq!(batched.len(), 7);
        for (q, table) in queries.iter().zip(batched.iter()) {
            let single = pq.distance_table(q);
            assert_eq!(table, &single, "batched ADC table must be bit-identical");
        }

        let opq = OptimizedProductQuantizer::train(&refs, 4, 16, 8, 2, 52);
        let batched = opq.distance_tables(&queries);
        for (q, table) in queries.iter().zip(batched.iter()) {
            assert_eq!(table, &opq.distance_table(q));
        }
    }

    #[test]
    fn opq_rotation_is_orthonormal_and_improves_or_matches_pq() {
        let data = training_set(200, 8, 41);
        let refs = as_refs(&data);
        let opq = OptimizedProductQuantizer::train(&refs, 2, 16, 10, 3, 13);
        // Rotation preserves norms.
        for v in data.iter().take(20) {
            let r = opq.rotate(v);
            let n1 = euclidean(v, &vec![0.0; 8]);
            let n2 = euclidean(&r, &vec![0.0; 8]);
            assert!((n1 - n2).abs() < 1e-3, "rotation must preserve norms");
        }
        // Codes decode into the rotated space with bounded error.
        let query = &data[0];
        let table = opq.distance_table(query);
        let mut err = 0.0;
        let mut tot = 0.0;
        for v in data.iter().skip(1).take(60) {
            let adc = ProductQuantizer::adc_distance(&table, &opq.encode(v));
            let d = euclidean(query, v);
            err += (adc - d).abs();
            tot += d;
        }
        assert!(err / tot < 0.4);
        assert!(opq.memory_footprint() > 0);
        assert!(opq.pq().memory_footprint() > 0);
    }
}
