//! Skip-sequential VA+file search.

use std::path::Path;

use hydra_core::{
    check_query, AnnIndex, Capabilities, Dataset, DistanceHistogram, Error, Neighbor, QueryStats,
    Representation, Result, SearchMode, SearchParams, SearchResult, TopK,
};
use hydra_persist::{
    codec, Collection, DataSource, Fingerprint, LazyHistogram, PersistError, PersistentIndex,
    Section, StoreBacking, WordColumn,
};
use hydra_storage::{SeriesStore, StorageConfig};
use hydra_summarize::DftSummarizer;

/// Configuration of a [`VaPlusFile`].
#[derive(Debug, Clone, Copy)]
pub struct VaPlusFileConfig {
    /// Number of DFT coefficients kept (the paper uses 16 reduced
    /// dimensions, i.e. 8 complex coefficients).
    pub dft_coefficients: usize,
    /// Bits per quantized dimension of the approximation file, in `1..=8`.
    pub bits_per_dim: u8,
    /// Simulated storage configuration for the raw series.
    pub storage: StorageConfig,
    /// Number of pairwise-distance samples for the δ-ε histogram.
    pub histogram_samples: usize,
    /// Seed for histogram sampling.
    pub seed: u64,
}

impl Default for VaPlusFileConfig {
    fn default() -> Self {
        Self {
            dft_coefficients: 8,
            bits_per_dim: 4,
            storage: StorageConfig::on_disk(),
            histogram_samples: 20_000,
            seed: 0xFA11E,
        }
    }
}

/// The VA+file index.
pub struct VaPlusFile {
    config: VaPlusFileConfig,
    dft: DftSummarizer,
    /// The approximation file, kept in memory as in the paper's setup: the
    /// equi-depth cells of every series' DFT summary, in dataset order.
    cells: WordColumn,
    /// Dataset-ordered raw series (the simulated on-disk layout).
    collection: Collection,
    /// The δ-ε histogram, derived on first use after a build or an ingest
    /// batch.
    histogram: LazyHistogram,
}

/// The approximation file of `collection`, from an unaccounted scan of its
/// store: equi-depth cells (the "+" of VA+) trained on exactly its DFT
/// summaries. A build and an ingest batch both derive it so, which makes
/// ingest *equivalent* to a fresh build: every derived byte matches.
fn approximate(dft: &DftSummarizer, collection: &Collection, bits_per_dim: u8) -> WordColumn {
    let mut summaries = Vec::with_capacity(collection.len() * dft.summary_len());
    collection.store().for_each_series(&mut |_, series| {
        summaries.extend(dft.transform(series));
    });
    WordColumn::trained(&summaries, dft.summary_len(), bits_per_dim)
}

impl VaPlusFile {
    /// Builds a VA+file over `dataset`.
    ///
    /// # Errors
    /// [`Error::EmptyDataset`], or [`Error::InvalidParameter`] if
    /// `bits_per_dim` is outside `1..=8`.
    pub fn build(dataset: &Dataset, config: VaPlusFileConfig) -> Result<Self> {
        if dataset.is_empty() {
            return Err(Error::EmptyDataset);
        }
        if !(1..=8).contains(&config.bits_per_dim) {
            return Err(Error::InvalidParameter(format!(
                "VA+file bits_per_dim must be in 1..=8, got {}",
                config.bits_per_dim
            )));
        }
        let dft = DftSummarizer::new(dataset.series_len(), config.dft_coefficients);
        let collection = Collection::dataset_order(dataset, config.storage)?;
        Ok(Self {
            config,
            cells: approximate(&dft, &collection, config.bits_per_dim),
            dft,
            collection,
            histogram: LazyHistogram::default(),
        })
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &VaPlusFileConfig {
        &self.config
    }

    /// The distance histogram used for δ-ε-approximate search, sampled
    /// over the collection first if a build or an ingest batch left it
    /// empty ([`LazyHistogram::get_or_sample`]).
    pub fn histogram(&self) -> &DistanceHistogram {
        let (samples, seed) = (self.config.histogram_samples, self.config.seed);
        self.histogram.get_or_sample(&self.collection, samples, seed)
    }

    /// The simulated storage layer holding the raw series.
    pub fn store(&self) -> &SeriesStore {
        self.collection.store()
    }

    /// Number of quantization cells per reduced dimension.
    pub fn cells_per_dim(&self) -> usize {
        self.cells.cells()
    }

    /// Skip-sequential search shared by every mode.
    ///
    /// Phase 1 scans the approximation file, computing a lower bound per
    /// candidate. Phase 2 refines candidates in increasing
    /// lower-bound order, reading raw series from disk, until the lower
    /// bound exceeds `bsf / (1 + ε)` (or the candidate budget is exhausted
    /// in ng mode, or the δ stop condition fires).
    fn skip_sequential(&self, query: &[f32], params: &SearchParams) -> SearchResult {
        let mut stats = QueryStats::new();
        let one_plus_eps = 1.0 + params.mode.epsilon();
        let (nprobe, r_delta) = match params.mode {
            SearchMode::Ng { nprobe } => (Some(nprobe.max(1)), 0.0),
            SearchMode::DeltaEpsilon { delta, .. } if delta < 1.0 => {
                (None, self.histogram().r_delta(delta))
            }
            _ => (None, 0.0),
        };

        // Phase 1: sequential scan of the in-memory approximation file, one
        // gap-table read per cell.
        let gaps = self.cells.gaps(&self.dft.transform(query));
        let n = self.collection.len();
        let mut candidates: Vec<(f32, usize)> =
            (0..n).map(|id| (self.cells.bound_squared(&gaps, id).sqrt(), id)).collect();
        stats.lower_bound_computations += n as u64;
        // No upper-bound pre-prune (the classic VA-file phase-1 filter): a
        // cell's upper bound covers only the kept DFT coefficients, not the
        // energy the truncation drops, so it is no upper bound on the true
        // distance and the filter could discard a true neighbour.
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Phase 2: refine in increasing lower-bound order.
        let mut top = TopK::new(params.k);
        let delta_threshold = one_plus_eps * r_delta;
        let mut refined = 0usize;
        for &(lb, id) in &candidates {
            let bsf = top.kth_distance();
            if lb > bsf / one_plus_eps {
                break;
            }
            if let Some(limit) = nprobe {
                if refined >= limit {
                    break;
                }
            }
            stats.series_scanned += 1;
            stats.distance_computations += 1;
            if let Some(d) = self.collection.store().refine(id, query, bsf, &mut stats) {
                top.push(Neighbor::new(id, d));
            }
            refined += 1;
            if r_delta > 0.0 && top.is_full() && top.kth_distance() <= delta_threshold {
                stats.delta_stop_triggered = true;
                break;
            }
        }
        stats.leaves_visited = refined as u64;
        SearchResult::new(top.into_sorted(), stats)
    }
}

impl PersistentIndex for VaPlusFile {
    type Config = VaPlusFileConfig;
    const KIND: &'static str = "va+file";

    fn hash_config(config: &VaPlusFileConfig, f: &mut Fingerprint) {
        // The snapshot layout: 2 = `u8` cells. A snapshot of `u16` cells
        // fails to load as built differently.
        f.push_u64(2);
        f.push_usize(config.dft_coefficients);
        f.push_u64(config.bits_per_dim as u64);
        f.push_usize(config.histogram_samples);
        f.push_u64(config.seed);
    }

    /// Snapshots the approximation file — the trained equi-depth cell
    /// edges and one `u8` cell per dimension and series — and the δ-ε
    /// histogram. The DFT summarizer is stateless (it is
    /// fully determined by the configuration) and the raw series store is
    /// re-attached from the dataset at load time (resident, or file-backed
    /// straight onto the dataset snapshot), so neither is stored.
    fn save(&self, path: &Path) -> hydra_persist::Result<()> {
        let mut w = Self::snapshot_writer(&self.config, self.collection.fingerprint());

        let mut meta = Section::new();
        meta.put_usize(self.collection.series_len());
        meta.put_usize(self.collection.len());
        w.push(meta);

        let mut cells = Section::new();
        self.cells.put(&mut cells);
        w.push(cells);

        let mut hist = Section::new();
        codec::put_histogram(&mut hist, self.histogram());
        w.push(hist);

        w.write_to(path)
    }

    /// Loads without ever materializing a streamed dataset: shape and
    /// fingerprint come from the source's header facts, and the raw series
    /// re-attach straight from the validated snapshot file.
    fn load_from(
        path: &Path,
        source: DataSource<'_>,
        config: &VaPlusFileConfig,
        backing: StoreBacking<'_>,
    ) -> hydra_persist::Result<Self> {
        let data_fingerprint = source.fingerprint();
        let mut r = Self::open_snapshot(path, config, data_fingerprint)?;

        let mut meta = r.next_section()?;
        let series_len = meta.get_usize()?;
        let num_series = meta.get_usize()?;
        if series_len != source.series_len() || num_series != source.len() {
            return Err(PersistError::Corrupt(
                "snapshot metadata disagrees with the dataset".into(),
            ));
        }

        let dft = DftSummarizer::new(series_len, config.dft_coefficients);
        let cells = WordColumn::get(&mut r.next_section()?, num_series, dft.summary_len())?;

        let mut sec = r.next_section()?;
        let histogram = codec::get_histogram(&mut sec)?;
        let collection =
            Collection::attach(path, source, data_fingerprint, None, config.storage, backing)?;

        Ok(Self {
            config: *config,
            dft,
            cells,
            collection,
            histogram: LazyHistogram::new(histogram),
        })
    }
}

impl AnnIndex for VaPlusFile {
    fn name(&self) -> &'static str {
        "VA+file"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact: true,
            ng_approximate: true,
            epsilon_approximate: true,
            delta_epsilon_approximate: true,
            disk_resident: true,
            streaming_insert: true,
            representation: Representation::Dft,
        }
    }

    fn num_series(&self) -> usize {
        self.collection.len()
    }

    fn series_len(&self) -> usize {
        self.collection.series_len()
    }

    fn memory_footprint(&self) -> usize {
        // The approximation file plus the cell edges.
        self.cells.heap_bytes()
    }

    fn store_counters(&self) -> Option<hydra_core::StoreCounters> {
        Some(self.collection.counters())
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult> {
        check_query(self.capabilities(), self.series_len(), query, params)?;
        Ok(self.skip_sequential(query, params))
    }

    /// Streaming ingest by append-and-requantize: the batch is appended to
    /// the raw-series store (which keeps dataset order), then the cell
    /// edges and approximation file are re-derived over the grown
    /// collection exactly as a fresh build would derive them, and the
    /// histogram is reset for the next δ-ε query or save to sample the same
    /// way — so answers are bit-identical to building over the full
    /// collection at once.
    fn insert_batch(&mut self, batch: &[&[f32]]) -> Result<()> {
        self.collection.check_lengths(batch)?;
        if batch.is_empty() {
            return Ok(());
        }
        for series in batch {
            self.collection.append(series)?;
        }
        self.cells = approximate(&self.dft, &self.collection, self.config.bits_per_dim);
        self.histogram.reset();
        self.collection.store().reset_io();
        Ok(())
    }

    /// Batched search: the batch's workers ([`Collection::answer_batch`])
    /// answer the queries, each exactly as [`Self::search`] would, in query
    /// order.
    fn search_batch(
        &self,
        queries: &[&[f32]],
        params: &SearchParams,
    ) -> Vec<Result<SearchResult>> {
        self.collection.answer_batch(queries, |query| self.search(query, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_data::{exact_knn, random_walk};

    fn build_small(n: usize, len: usize) -> (Dataset, VaPlusFile) {
        let data = random_walk(n, len, 23);
        let config = VaPlusFileConfig {
            dft_coefficients: 8,
            bits_per_dim: 4,
            storage: StorageConfig::in_memory(),
            histogram_samples: 2_000,
            seed: 3,
        };
        let va = VaPlusFile::build(&data, config).unwrap();
        (data, va)
    }

    #[test]
    fn build_rejects_empty_dataset() {
        let empty = Dataset::new(8).unwrap();
        assert!(VaPlusFile::build(&empty, VaPlusFileConfig::default()).is_err());
    }

    #[test]
    fn exact_search_matches_brute_force() {
        let (data, va) = build_small(400, 64);
        for qi in [0usize, 57, 399] {
            let query = data.series(qi);
            let res = va.search(query, &SearchParams::exact(10)).unwrap();
            let gt = exact_knn(&data, query, 10);
            for (a, b) in res.neighbors.iter().zip(gt.iter()) {
                assert!(
                    (a.distance - b.distance).abs() < 1e-4,
                    "VA+file exact search must match brute force"
                );
            }
        }
    }

    #[test]
    fn exact_search_refines_fewer_series_than_a_full_scan() {
        let (data, va) = build_small(1000, 64);
        let q = data.series(3);
        let res = va.search(q, &SearchParams::exact(1)).unwrap();
        assert_eq!(res.neighbors[0].index, 3);
        assert!(
            (res.stats.series_scanned as usize) < data.len(),
            "the VA filter should prune raw-data accesses"
        );
    }

    #[test]
    fn epsilon_guarantee_holds_and_reduces_refinements() {
        let (data, va) = build_small(500, 64);
        let queries = random_walk(6, 64, 91);
        for q in queries.iter() {
            let exact = va.search(q, &SearchParams::exact(5)).unwrap();
            let relaxed = va.search(q, &SearchParams::epsilon(5, 2.0)).unwrap();
            let gt = exact_knn(&data, q, 5);
            let bound = 3.0 * gt[4].distance + 1e-4;
            for n in &relaxed.neighbors {
                assert!(n.distance <= bound);
            }
            assert!(relaxed.stats.series_scanned <= exact.stats.series_scanned);
        }
    }

    #[test]
    fn ng_mode_bounds_refined_candidates() {
        let (_, va) = build_small(500, 64);
        let queries = random_walk(3, 64, 5);
        for q in queries.iter() {
            let res = va.search(q, &SearchParams::ng(5, 10)).unwrap();
            assert!(res.stats.series_scanned <= 10);
            assert!(!res.neighbors.is_empty());
        }
    }

    #[test]
    fn delta_epsilon_mode_returns_sorted_answers() {
        let (data, va) = build_small(300, 64);
        let q = data.series(9);
        let res = va
            .search(q, &SearchParams::delta_epsilon(5, 0.9, 1.0))
            .unwrap();
        assert_eq!(res.neighbors.len(), 5);
        for w in res.neighbors.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn snapshot_roundtrip_answers_identically_and_checks_fingerprint() {
        let (data, va) = build_small(300, 64);
        let path = std::env::temp_dir().join(format!(
            "hydra-vafile-roundtrip-{}.snap",
            std::process::id()
        ));
        va.save(&path).unwrap();
        let loaded = VaPlusFile::load(&path, &data, va.config()).unwrap();
        assert_eq!(loaded.cells_per_dim(), va.cells_per_dim());
        for qi in [0usize, 42, 299] {
            let q = data.series(qi);
            for params in [SearchParams::exact(5), SearchParams::ng(5, 10)] {
                let a = va.search(q, &params).unwrap();
                let b = loaded.search(q, &params).unwrap();
                assert_eq!(a.neighbors.len(), b.neighbors.len());
                for (x, y) in a.neighbors.iter().zip(b.neighbors.iter()) {
                    assert_eq!(x.index, y.index);
                    assert_eq!(x.distance.to_bits(), y.distance.to_bits());
                }
                assert_eq!(a.stats, b.stats);
            }
        }
        let other = VaPlusFileConfig {
            bits_per_dim: va.config().bits_per_dim + 1,
            ..*va.config()
        };
        assert!(matches!(
            VaPlusFile::load(&path, &data, &other),
            Err(hydra_persist::PersistError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ingest_matches_fresh_build_bit_for_bit() {
        let data = random_walk(300, 64, 23);
        let config = VaPlusFileConfig {
            dft_coefficients: 8,
            bits_per_dim: 4,
            storage: StorageConfig::in_memory(),
            histogram_samples: 2_000,
            seed: 3,
        };
        let fresh = VaPlusFile::build(&data, config).unwrap();

        let head =
            Dataset::from_flat(64, data.as_flat()[..200 * 64].to_vec()).unwrap();
        let mut grown = VaPlusFile::build(&head, config).unwrap();
        let tail: Vec<&[f32]> = (200..300).map(|i| data.series(i)).collect();
        grown.insert_batch(&tail[..37]).unwrap();
        grown.insert_batch(&tail[37..]).unwrap();

        assert_eq!(grown.num_series(), fresh.num_series());
        for qi in [0usize, 57, 250, 299] {
            let q = data.series(qi);
            for params in [
                SearchParams::exact(5),
                SearchParams::ng(5, 10),
                SearchParams::delta_epsilon(5, 0.9, 1.0),
            ] {
                let a = fresh.search(q, &params).unwrap();
                let b = grown.search(q, &params).unwrap();
                assert_eq!(a.neighbors.len(), b.neighbors.len());
                for (x, y) in a.neighbors.iter().zip(b.neighbors.iter()) {
                    assert_eq!(x.index, y.index);
                    assert_eq!(x.distance.to_bits(), y.distance.to_bits());
                }
                assert_eq!(a.stats, b.stats);
            }
        }

        // A grown index snapshots byte-identically to the fresh build: the
        // save-time fingerprint recompute covers the ingested series.
        let dir = std::env::temp_dir();
        let fresh_path = dir.join(format!("hydra-vafile-fresh-{}.snap", std::process::id()));
        let grown_path = dir.join(format!("hydra-vafile-grown-{}.snap", std::process::id()));
        fresh.save(&fresh_path).unwrap();
        grown.save(&grown_path).unwrap();
        assert_eq!(
            std::fs::read(&fresh_path).unwrap(),
            std::fs::read(&grown_path).unwrap(),
            "a grown VA+file must snapshot byte-identically to a fresh build"
        );
        std::fs::remove_file(&fresh_path).ok();
        std::fs::remove_file(&grown_path).ok();

        // Dimension mismatches reject the whole batch without growing.
        let before = grown.num_series();
        assert!(grown.insert_batch(&[&[0.0f32; 3]]).is_err());
        assert_eq!(grown.num_series(), before);
    }

    #[test]
    fn capabilities_and_metadata() {
        let (_, va) = build_small(2_000, 32);
        assert_eq!(va.name(), "VA+file");
        assert!(va.capabilities().disk_resident);
        assert!(va.capabilities().delta_epsilon_approximate);
        assert_eq!(va.num_series(), 2_000);
        assert_eq!(va.series_len(), 32);
        assert_eq!(va.cells_per_dim(), 16);
        // One byte a cell and 257 edges a dimension: less than two bytes a
        // cell and 17 edges a dimension, when each row was a `Vec<u16>`.
        let (n, dims) = (2_000, va.dft.summary_len());
        assert_eq!(va.memory_footprint(), n * dims + dims * 257 * 4);
        assert!(va.memory_footprint() < n * dims * 2 + dims * 17 * 4);
        assert!(va.search(&[0.0; 4], &SearchParams::exact(1)).is_err());
    }

    #[test]
    fn bits_per_dim_outside_one_to_eight_is_rejected_at_build() {
        let data = random_walk(50, 32, 1);
        for bits_per_dim in [0u8, 9, 16] {
            let config = VaPlusFileConfig { bits_per_dim, ..VaPlusFileConfig::default() };
            let built = VaPlusFile::build(&data, config);
            assert!(matches!(built, Err(Error::InvalidParameter(_))), "{bits_per_dim}");
        }
    }

    /// Whether the δ-ε histogram is sampled: the probe the lazy contract
    /// is read through.
    fn sampled(va: &VaPlusFile) -> bool {
        va.histogram.get().is_some()
    }

    #[test]
    fn the_histogram_is_sampled_once_on_first_delta_epsilon_use_as_a_fresh_build_would() {
        let data = random_walk(300, 32, 42);
        let config = VaPlusFileConfig {
            storage: StorageConfig::in_memory(),
            histogram_samples: 2_000,
            seed: 3,
            ..VaPlusFileConfig::default()
        };
        let fresh = VaPlusFile::build(&data, config).unwrap();
        assert!(!sampled(&fresh), "a build leaves the histogram unsampled");
        let head = Dataset::from_flat(32, data.as_flat()[..150 * 32].to_vec()).unwrap();
        let tail: Vec<&[f32]> = (150..300).map(|i| data.series(i)).collect();
        // Uneven chunks; `eager` samples after every batch, as ingest did
        // before the histogram was derived on use.
        let grow = |eager: bool| {
            let mut index = VaPlusFile::build(&head, config).unwrap();
            for chunk in [&tail[..1], &tail[1..38], &tail[38..]] {
                index.insert_batch(chunk).unwrap();
                assert!(!sampled(&index), "a batch resets the histogram");
                if eager {
                    index.histogram();
                }
            }
            index
        };
        let delta_eps = SearchParams::delta_epsilon(5, 0.5, 0.5);
        let queries = [0usize, 77, 200, 299].map(|qi| data.series(qi));

        // Exact, ε, ng and δ = 1 never read it; a save does, and a grown
        // index never sampled snapshots byte-identically to a fresh build.
        let unsampled = grow(false);
        for params in [
            SearchParams::exact(5),
            SearchParams::epsilon(5, 1.0),
            SearchParams::ng(5, 2),
            SearchParams::delta_epsilon(5, 1.0, 1.0),
        ] {
            for q in queries {
                unsampled.search(q, &params).unwrap();
            }
            unsampled.search_batch(&queries, &params);
        }
        assert!(!sampled(&unsampled));
        let dir = std::env::temp_dir();
        let fresh_path = dir.join(format!("hydra-vafile-lazy-fresh-{}.snap", std::process::id()));
        let grown_path = dir.join(format!("hydra-vafile-lazy-grown-{}.snap", std::process::id()));
        fresh.save(&fresh_path).unwrap();
        unsampled.save(&grown_path).unwrap();
        assert!(sampled(&unsampled));
        assert_eq!(std::fs::read(&fresh_path).unwrap(), std::fs::read(&grown_path).unwrap());
        std::fs::remove_file(&fresh_path).ok();
        std::fs::remove_file(&grown_path).ok();

        // The first δ-ε query samples it: answers and counters are the
        // eagerly sampled index's, answers and logical counters a fresh
        // build's.
        let (lazy, eager) = (grow(false), grow(true));
        let bits = |r: &SearchResult| -> Vec<(usize, u32)> {
            r.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect()
        };
        let logical = |r: &SearchResult| {
            let s = r.stats;
            let counts = [s.distance_computations, s.lower_bound_computations];
            (counts, s.leaves_visited, s.nodes_visited, s.series_scanned, s.delta_stop_triggered)
        };
        for q in queries {
            let got = lazy.search(q, &delta_eps).unwrap();
            assert!(sampled(&lazy));
            let want = eager.search(q, &delta_eps).unwrap();
            assert_eq!(got.stats, want.stats);
            assert_eq!(bits(&got), bits(&want));
            let reference = fresh.search(q, &delta_eps).unwrap();
            assert_eq!(bits(&got), bits(&reference));
            assert_eq!(logical(&got), logical(&reference));
        }
        assert_eq!(lazy.histogram(), fresh.histogram());
        assert_eq!(lazy.store_counters(), eager.store_counters());

        // Eight racing δ-ε queries on a freshly grown index: one sample,
        // eight identical answers.
        let raced = grow(false);
        let barrier = std::sync::Barrier::new(8);
        let answers: Vec<(Vec<hydra_core::Neighbor>, usize)> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let answer = raced.search(queries[1], &delta_eps).unwrap();
                        (answer.neighbors, std::ptr::from_ref(raced.histogram()) as usize)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let want = fresh.search(queries[1], &delta_eps).unwrap().neighbors;
        assert!(answers.iter().all(|answer| *answer == (want.clone(), answers[0].1)));
    }
}
