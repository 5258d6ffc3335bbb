//! # hydra-imi
//!
//! The Inverted Multi-Index (Babenko & Lempitsky) with (optimized) product
//! quantization — the state-of-the-art quantization-based inverted index of
//! the Lernaean Hydra study (the paper uses the Faiss `IMI2x…,PQ32`
//! configuration).
//!
//! ## How it works
//!
//! The vector space is decomposed into two halves; each half gets its own
//! k-means codebook of `K` coarse centroids, so the cross product defines a
//! grid of `K²` cells. Every vector is assigned to the cell given by its two
//! nearest half-centroids and stored in that cell's inverted list as a
//! compact product-quantization code, after an OPQ rotation.
//!
//! A query ranks cells with the *multi-sequence algorithm* (cells visited in
//! increasing sum of half-distances), scans the inverted lists of the best
//! `nprobe` cells, and scores candidates with asymmetric distance
//! computation (ADC) on the codes. As in the paper, IMI never touches the
//! raw vectors at query time — which caps its attainable accuracy (MAP) and
//! is why its recall degrades on the hardest datasets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use hydra_core::{
    check_query, AnnIndex, Capabilities, Dataset, Error, Neighbor, QueryStats, Representation,
    Result, SearchParams, SearchResult, TopK,
};
use hydra_persist::{
    codec, fingerprint_dataset, DataSource, Fingerprint, PersistError, PersistentIndex, Section, StoreBacking,
};
use hydra_summarize::quantization::{KMeans, OptimizedProductQuantizer, ProductQuantizer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of an [`InvertedMultiIndex`].
#[derive(Debug, Clone, Copy)]
pub struct ImiConfig {
    /// Number of coarse centroids per half (the grid has `coarse_k²` cells).
    pub coarse_k: usize,
    /// Number of product-quantization subspaces.
    pub pq_m: usize,
    /// Codebook size per PQ subspace.
    pub pq_k: usize,
    /// Maximum number of training vectors used to fit codebooks.
    pub training_size: usize,
    /// k-means iterations.
    pub kmeans_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ImiConfig {
    fn default() -> Self {
        Self {
            coarse_k: 32,
            pq_m: 8,
            pq_k: 64,
            training_size: 4_096,
            kmeans_iters: 12,
            seed: 0x1111,
        }
    }
}

/// The IMI index.
pub struct InvertedMultiIndex {
    config: ImiConfig,
    series_len: usize,
    half: usize,
    coarse: [KMeans; 2],
    /// The fine quantizer: an OPQ rotation, then product quantization.
    fine: OptimizedProductQuantizer,
    /// `lists[i * coarse_k + j]` holds `(id, code)` pairs of cell `(i, j)`.
    lists: Vec<Vec<(u32, Vec<u16>)>>,
    num_series: usize,
    /// Content fingerprint of the build dataset. IMI is the one index that
    /// retains no raw vectors, so this is captured at build time and carried
    /// into snapshots, where loading validates it against the offered
    /// dataset.
    data_fingerprint: u64,
    /// Number of passes made over the PQ codebooks to build ADC lookup
    /// tables. Per-query search costs one pass per query; batched search
    /// costs one pass per batch — the counter makes that amortization
    /// observable (and testable) without perturbing [`QueryStats`], whose
    /// per-query values stay identical in both paths.
    adc_table_passes: AtomicU64,
}

impl InvertedMultiIndex {
    /// Builds an IMI over `dataset`.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or the dimensionality is not
    /// even and divisible by `pq_m`.
    pub fn build(dataset: &Dataset, config: ImiConfig) -> Result<Self> {
        if dataset.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let dim = dataset.series_len();
        if dim % 2 != 0 {
            return Err(Error::InvalidParameter(
                "IMI requires an even dimensionality".into(),
            ));
        }
        if dim % config.pq_m != 0 {
            return Err(Error::InvalidParameter(
                "dimensionality must be divisible by pq_m".into(),
            ));
        }
        let half = dim / 2;
        // Training sample: a prefix of the dataset (generators already
        // shuffle cluster membership, so a prefix is an unbiased sample).
        let train_n = dataset.len().min(config.training_size.max(1));
        let train_first: Vec<&[f32]> = (0..train_n).map(|i| &dataset.series(i)[..half]).collect();
        let train_second: Vec<&[f32]> = (0..train_n).map(|i| &dataset.series(i)[half..]).collect();
        let coarse = [
            KMeans::fit(&train_first, config.coarse_k, config.kmeans_iters, config.seed),
            KMeans::fit(
                &train_second,
                config.coarse_k,
                config.kmeans_iters,
                config.seed ^ 0xBEEF,
            ),
        ];
        let train_full: Vec<&[f32]> = (0..train_n).map(|i| dataset.series(i)).collect();
        let fine = OptimizedProductQuantizer::train(
            &train_full,
            config.pq_m,
            config.pq_k,
            config.kmeans_iters,
            3,
            config.seed ^ 0x0B0,
        );

        let k1 = coarse[0].k();
        let k2 = coarse[1].k();
        let mut lists = vec![Vec::new(); k1 * k2];
        for (id, v) in dataset.iter().enumerate() {
            let i = coarse[0].assign(&v[..half]);
            let j = coarse[1].assign(&v[half..]);
            lists[i * k2 + j].push((id as u32, fine.encode(v)));
        }
        Ok(Self {
            config,
            series_len: dim,
            half,
            coarse,
            fine,
            lists,
            num_series: dataset.len(),
            data_fingerprint: fingerprint_dataset(dataset),
            adc_table_passes: AtomicU64::new(0),
        })
    }

    /// Cumulative number of codebook passes spent building ADC lookup
    /// tables since the index was built. [`AnnIndex::search`] adds one per
    /// query; [`AnnIndex::search_batch`] adds one per batch.
    pub fn adc_table_passes(&self) -> u64 {
        self.adc_table_passes.load(Ordering::Relaxed)
    }

    /// Number of non-empty cells.
    pub fn non_empty_cells(&self) -> usize {
        self.lists.iter().filter(|l| !l.is_empty()).count()
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &ImiConfig {
        &self.config
    }

    /// Multi-sequence traversal: visits cells in increasing
    /// `d1[i] + d2[j]` order, scanning inverted lists until the query's
    /// `nprobe` (at least one) non-empty lists have been read; candidates are ranked by ADC against
    /// the precomputed lookup `table`. `pushed` is a reusable scratch bitmap
    /// (cleared on entry), so batched callers allocate it once per batch.
    fn query_cells(
        &self,
        query: &[f32],
        table: &[Vec<f32>],
        params: &SearchParams,
        stats: &mut QueryStats,
        pushed: &mut Vec<bool>,
    ) -> Vec<Neighbor> {
        let nprobe = params.mode.nprobe().max(1);
        let k1 = self.coarse[0].k();
        let k2 = self.coarse[1].k();
        // Sorted half-distances.
        let mut d1: Vec<(f32, usize)> = self.coarse[0]
            .distances(&query[..self.half])
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d, i))
            .collect();
        let mut d2: Vec<(f32, usize)> = self.coarse[1]
            .distances(&query[self.half..])
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d, i))
            .collect();
        stats.lower_bound_computations += (k1 + k2) as u64;
        d1.sort_by(|a, b| a.0.total_cmp(&b.0));
        d2.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Multi-sequence algorithm over the sorted grid.
        #[derive(PartialEq)]
        struct Cell(f32, usize, usize);
        impl Eq for Cell {}
        impl PartialOrd for Cell {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Cell {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0
                    .total_cmp(&other.0)
                    .then(self.1.cmp(&other.1))
                    .then(self.2.cmp(&other.2))
            }
        }
        let mut heap: BinaryHeap<Reverse<Cell>> = BinaryHeap::new();
        pushed.clear();
        pushed.resize(k1 * k2, false);
        heap.push(Reverse(Cell(d1[0].0 + d2[0].0, 0, 0)));
        pushed[0] = true;

        let mut top = TopK::new(params.k);
        let mut visited_lists = 0usize;
        while let Some(Reverse(Cell(_, a, b))) = heap.pop() {
            if visited_lists >= nprobe {
                break;
            }
            let cell = d1[a].1 * k2 + d2[b].1;
            let list = &self.lists[cell];
            if !list.is_empty() {
                visited_lists += 1;
                stats.leaves_visited += 1;
                for (id, code) in list {
                    stats.distance_computations += 1;
                    let d = ProductQuantizer::adc_distance(table, code);
                    top.push(Neighbor::new(*id as usize, d));
                }
            }
            // Push grid successors.
            if a + 1 < k1 {
                let idx = (a + 1) * k2 + b;
                if !pushed[idx] {
                    pushed[idx] = true;
                    heap.push(Reverse(Cell(d1[a + 1].0 + d2[b].0, a + 1, b)));
                }
            }
            if b + 1 < k2 {
                let idx = a * k2 + b + 1;
                if !pushed[idx] {
                    pushed[idx] = true;
                    heap.push(Reverse(Cell(d1[a].0 + d2[b + 1].0, a, b + 1)));
                }
            }
        }
        top.into_sorted()
    }
}

impl PersistentIndex for InvertedMultiIndex {
    type Config = ImiConfig;
    const KIND: &'static str = "imi";

    fn hash_config(config: &ImiConfig, f: &mut Fingerprint) {
        f.push_usize(config.coarse_k);
        f.push_usize(config.pq_m);
        f.push_usize(config.pq_k);
        f.push_usize(config.training_size);
        f.push_usize(config.kmeans_iters);
        f.push_u64(config.seed);
    }

    /// Snapshots the two coarse codebooks, the fine OPQ quantizer — the
    /// expensive k-means/Procrustes training — and every inverted list with
    /// its PQ codes. IMI never touches raw vectors at query time, so the
    /// snapshot alone fully determines query behaviour; the dataset is only
    /// used to validate the fingerprint.
    fn save(&self, path: &Path) -> hydra_persist::Result<()> {
        // IMI does not retain the raw vectors, so the dataset fingerprint is
        // captured once at build time and carried in the header.
        let mut w = Self::snapshot_writer(&self.config, self.data_fingerprint);

        let mut meta = Section::new();
        meta.put_usize(self.series_len);
        meta.put_usize(self.half);
        meta.put_usize(self.num_series);
        w.push(meta);

        let mut coarse = Section::new();
        codec::put_kmeans(&mut coarse, &self.coarse[0]);
        codec::put_kmeans(&mut coarse, &self.coarse[1]);
        w.push(coarse);

        let mut fine = Section::new();
        codec::put_opq(&mut fine, &self.fine);
        w.push(fine);

        let mut lists = Section::new();
        lists.put_usize(self.lists.len());
        for list in &self.lists {
            lists.put_usize(list.len());
            for (id, code) in list {
                lists.put_u32(*id);
                lists.put_u16s(code);
            }
        }
        w.push(lists);

        w.write_to(path)
    }

    /// IMI holds no raw-series store — everything it needs from the data
    /// is the fingerprint and the shape, both free on a streamed source,
    /// so the lazy path costs nothing extra here.
    fn load_from(
        path: &Path,
        source: DataSource<'_>,
        config: &ImiConfig,
        _backing: StoreBacking<'_>,
    ) -> hydra_persist::Result<Self> {
        let data_fingerprint = source.fingerprint();
        let mut r = Self::open_snapshot(path, config, data_fingerprint)?;

        let mut meta = r.next_section()?;
        let series_len = meta.get_usize()?;
        let half = meta.get_usize()?;
        let num_series = meta.get_usize()?;
        if series_len != source.series_len() || num_series != source.len() || half * 2 != series_len
        {
            return Err(PersistError::Corrupt(
                "snapshot metadata disagrees with the dataset".into(),
            ));
        }

        let mut sec = r.next_section()?;
        let coarse0 = codec::get_kmeans(&mut sec)?;
        let coarse1 = codec::get_kmeans(&mut sec)?;
        if coarse0.dim() != half || coarse1.dim() != half {
            return Err(PersistError::Corrupt(
                "coarse codebooks do not cover half the dimensionality".into(),
            ));
        }

        let mut sec = r.next_section()?;
        let fine = codec::get_opq(&mut sec)?;

        let mut sec = r.next_section()?;
        let cell_count = sec.get_usize()?;
        if cell_count != coarse0.k() * coarse1.k() {
            return Err(PersistError::Corrupt(
                "inverted-list grid does not match the coarse codebooks".into(),
            ));
        }
        let (code_len, code_k) = (fine.pq().num_subspaces(), fine.pq().codebook_size());
        let mut lists = Vec::with_capacity(cell_count);
        for _ in 0..cell_count {
            let len = sec.get_usize()?;
            let mut list = Vec::with_capacity(len.min(num_series));
            for _ in 0..len {
                let id = sec.get_u32()?;
                if id as usize >= num_series {
                    return Err(PersistError::Corrupt(format!(
                        "inverted list id {id} out of range"
                    )));
                }
                let code = sec.get_u16s()?;
                if code.len() != code_len || code.iter().any(|&c| c as usize >= code_k) {
                    return Err(PersistError::Corrupt(
                        "PQ code does not fit the fine codebooks".into(),
                    ));
                }
                list.push((id, code));
            }
            lists.push(list);
        }

        Ok(Self {
            config: *config,
            series_len,
            half,
            coarse: [coarse0, coarse1],
            fine,
            lists,
            num_series,
            data_fingerprint,
            adc_table_passes: AtomicU64::new(0),
        })
    }
}

impl AnnIndex for InvertedMultiIndex {
    fn name(&self) -> &'static str {
        "IMI"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact: false,
            ng_approximate: true,
            epsilon_approximate: false,
            delta_epsilon_approximate: false,
            disk_resident: true,
            streaming_insert: false,
            representation: Representation::Opq,
        }
    }

    fn num_series(&self) -> usize {
        self.num_series
    }

    fn series_len(&self) -> usize {
        self.series_len
    }

    fn memory_footprint(&self) -> usize {
        let codes: usize = self
            .lists
            .iter()
            .map(|l| l.iter().map(|(_, c)| c.len() * 2 + 4).sum::<usize>())
            .sum();
        codes
            + self.coarse[0].memory_footprint()
            + self.coarse[1].memory_footprint()
            + self.fine.memory_footprint()
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult> {
        check_query(self.capabilities(), self.series_len, query, params)?;
        let table = self.fine.distance_table(query);
        self.adc_table_passes.fetch_add(1, Ordering::Relaxed);
        let mut stats = QueryStats::new();
        let mut pushed = Vec::new();
        let neighbors = self.query_cells(query, &table, params, &mut stats, &mut pushed);
        Ok(SearchResult::new(neighbors, stats))
    }

    /// Batched search: the ADC lookup tables of every valid query in the
    /// batch are built in a *single* pass over the PQ codebooks (each
    /// centroid is scored against all queries while cache-hot), and the
    /// multi-sequence scratch bitmap is allocated once per batch. Answers,
    /// per-query [`QueryStats`] and per-query errors are identical to
    /// [`Self::search`].
    fn search_batch(
        &self,
        queries: &[&[f32]],
        params: &SearchParams,
    ) -> Vec<Result<SearchResult>> {
        // Validate once; the same pass decides which queries get a table,
        // so the table iterator below cannot fall out of step with the
        // per-query results.
        let checks: Vec<Result<()>> = queries
            .iter()
            .map(|q| check_query(self.capabilities(), self.series_len, q, params))
            .collect();
        let valid: Vec<&[f32]> = queries
            .iter()
            .zip(&checks)
            .filter(|(_, c)| c.is_ok())
            .map(|(q, _)| *q)
            .collect();
        let mut tables = if valid.is_empty() {
            Vec::new()
        } else {
            self.adc_table_passes.fetch_add(1, Ordering::Relaxed);
            self.fine.distance_tables(&valid)
        }
        .into_iter();
        let mut pushed = Vec::new();
        queries
            .iter()
            .zip(checks)
            .map(|(query, check)| {
                check?;
                let table = tables.next().expect("one table per valid query");
                let mut stats = QueryStats::new();
                let neighbors = self.query_cells(query, &table, params, &mut stats, &mut pushed);
                Ok(SearchResult::new(neighbors, stats))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_data::{deep_like, exact_knn, sift_like};

    fn recall(found: &[Neighbor], truth: &[Neighbor]) -> f64 {
        let ids: std::collections::HashSet<usize> = truth.iter().map(|n| n.index).collect();
        found.iter().filter(|n| ids.contains(&n.index)).count() as f64 / truth.len() as f64
    }

    fn build(n: usize, dim: usize) -> (Dataset, InvertedMultiIndex) {
        let data = sift_like(n, dim, 3);
        let config = ImiConfig {
            coarse_k: 16,
            pq_m: 8,
            pq_k: 32,
            training_size: 800,
            kmeans_iters: 8,
            seed: 7,
        };
        let imi = InvertedMultiIndex::build(&data, config).unwrap();
        (data, imi)
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let empty = Dataset::new(8).unwrap();
        assert!(InvertedMultiIndex::build(&empty, ImiConfig::default()).is_err());
        let odd = deep_like(10, 7, 1);
        assert!(InvertedMultiIndex::build(&odd, ImiConfig::default()).is_err());
        let not_divisible = deep_like(10, 10, 1);
        let cfg = ImiConfig {
            pq_m: 4,
            ..ImiConfig::default()
        };
        assert!(InvertedMultiIndex::build(&not_divisible, cfg).is_err());
    }

    #[test]
    fn every_vector_lands_in_exactly_one_list() {
        let (data, imi) = build(500, 16);
        let total: usize = imi.lists.iter().map(|l| l.len()).sum();
        assert_eq!(total, data.len());
        assert!(imi.non_empty_cells() > 1);
    }

    #[test]
    fn recall_improves_with_nprobe() {
        let (data, imi) = build(600, 16);
        let queries = sift_like(8, 16, 99);
        let mut r_small = 0.0;
        let mut r_large = 0.0;
        for q in queries.iter() {
            let gt = exact_knn(&data, q, 10);
            let small = imi.search(q, &SearchParams::ng(10, 1)).unwrap();
            let large = imi.search(q, &SearchParams::ng(10, 128)).unwrap();
            r_small += recall(&small.neighbors, &gt);
            r_large += recall(&large.neighbors, &gt);
        }
        // Larger nprobe scans a superset of inverted lists, so *coverage* of
        // the true neighbors is monotone — but the final top-k is ranked by
        // ADC, and quantization noise can displace the odd true neighbor
        // once more false candidates are in play. Allow that displacement
        // (up to half a neighbor per query summed over the workload) while
        // still catching any real traversal regression.
        assert!(
            r_large >= r_small - 0.4,
            "recall dropped with larger nprobe: {r_small} -> {r_large}"
        );
        assert!(r_large / 8.0 > 0.5, "IMI recall too low: {}", r_large / 8.0);
    }

    #[test]
    fn opq_variant_builds_and_answers() {
        let (data, imi) = build(300, 16);
        let q = data.series(0);
        let res = imi.search(q, &SearchParams::ng(5, 16)).unwrap();
        assert_eq!(res.neighbors.len(), 5);
        assert!(res.stats.leaves_visited <= 16);
        assert!(res.stats.distance_computations > 0);
    }

    #[test]
    fn batch_search_matches_per_query_search_with_fewer_table_passes() {
        let (_, imi) = build(500, 16);
        let queries = sift_like(6, 16, 41);
        let refs: Vec<&[f32]> = queries.iter().collect();
        let params = SearchParams::ng(10, 16);

        let base = imi.adc_table_passes();
        let sequential: Vec<_> = refs.iter().map(|q| imi.search(q, &params).unwrap()).collect();
        assert_eq!(
            imi.adc_table_passes() - base,
            6,
            "per-query search builds one ADC table pass per query"
        );

        let before_batch = imi.adc_table_passes();
        let batched = imi.search_batch(&refs, &params);
        assert_eq!(
            imi.adc_table_passes() - before_batch,
            1,
            "batched search amortizes ADC table construction to one codebook pass"
        );

        assert_eq!(batched.len(), sequential.len());
        for (b, s) in batched.iter().zip(sequential.iter()) {
            let b = b.as_ref().unwrap();
            assert_eq!(b.neighbors.len(), s.neighbors.len());
            for (x, y) in b.neighbors.iter().zip(s.neighbors.iter()) {
                assert_eq!(x.index, y.index);
                assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            }
            assert_eq!(b.stats, s.stats, "batching must not change per-query stats");
        }
    }

    #[test]
    fn batch_search_keeps_failures_per_query() {
        let (_, imi) = build(200, 16);
        let good = sift_like(2, 16, 43);
        let bad = vec![0.0f32; 10];
        let refs: Vec<&[f32]> = vec![good.series(0), &bad, good.series(1)];
        let results = imi.search_batch(&refs, &SearchParams::ng(5, 8));
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        // A mode no query can use fails the whole batch query-by-query,
        // with the same error kind per query as `search` (dimension is
        // checked before mode, in both entry points).
        let rejected = imi.search_batch(&refs, &SearchParams::exact(5));
        assert_eq!(rejected.len(), 3);
        for (q, r) in refs.iter().zip(rejected.iter()) {
            let single = imi.search(q, &SearchParams::exact(5)).unwrap_err();
            let batch = r.as_ref().unwrap_err();
            assert_eq!(
                std::mem::discriminant(batch),
                std::mem::discriminant(&single),
                "batch error kind must match per-query error kind"
            );
        }
    }

    #[test]
    fn guarantee_modes_are_rejected() {
        let (_, imi) = build(100, 16);
        let q = vec![0.0f32; 16];
        assert!(imi.search(&q, &SearchParams::exact(1)).is_err());
        assert!(imi.search(&q, &SearchParams::epsilon(1, 0.5)).is_err());
        assert!(imi.search(&[0.0; 5], &SearchParams::ng(1, 1)).is_err());
    }

    #[test]
    fn metadata_is_consistent() {
        let (_, imi) = build(200, 16);
        assert_eq!(imi.name(), "IMI");
        assert!(imi.capabilities().disk_resident);
        assert!(!imi.capabilities().exact);
        assert_eq!(imi.num_series(), 200);
        assert_eq!(imi.series_len(), 16);
        assert!(imi.memory_footprint() > 0);
        assert_eq!(imi.config().coarse_k, 16);
    }
}
