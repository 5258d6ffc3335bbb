//! SRS: solving c-approximate NN queries with a tiny index.

use std::path::Path;

use hydra_core::{
    check_query, AnnIndex, Capabilities, Dataset, Error, Neighbor, QueryStats, Representation,
    Result, SearchMode, SearchParams, SearchResult, TopK,
};
use hydra_persist::{
    Collection, DataSource, Fingerprint, PersistError, PersistentIndex, Section, StoreBacking,
};
use hydra_storage::{SeriesStore, StorageConfig};
use hydra_summarize::GaussianProjection;

use crate::stats::chi_squared_cdf;

/// Configuration of an [`Srs`] index.
#[derive(Debug, Clone, Copy)]
pub struct SrsConfig {
    /// Number of projected dimensions `m` (the paper uses 16 so the
    /// projections of all datasets fit in memory).
    pub projected_dims: usize,
    /// Maximum fraction of the dataset examined per query (the `t`
    /// parameter of SRS; examining everything degenerates to a linear scan).
    pub max_examined_fraction: f64,
    /// Simulated storage configuration for the raw series.
    pub storage: StorageConfig,
    /// RNG seed for the projection matrix.
    pub seed: u64,
}

impl Default for SrsConfig {
    fn default() -> Self {
        Self {
            projected_dims: 16,
            max_examined_fraction: 0.4,
            storage: StorageConfig::on_disk(),
            seed: 0x5125,
        }
    }
}

/// The SRS index: projected signatures in memory, raw data on (simulated)
/// disk.
pub struct Srs {
    config: SrsConfig,
    projection: GaussianProjection,
    /// Projected points, flattened (`n × m`).
    projected: Vec<f32>,
    /// Dataset-ordered raw series (the simulated on-disk layout).
    collection: Collection,
}

impl Srs {
    /// Builds an SRS index over `dataset`.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or the configuration is
    /// invalid.
    pub fn build(dataset: &Dataset, config: SrsConfig) -> Result<Self> {
        if dataset.is_empty() {
            return Err(Error::EmptyDataset);
        }
        if config.projected_dims == 0 {
            return Err(Error::InvalidParameter(
                "projected dimensionality must be positive".into(),
            ));
        }
        let m = config.projected_dims;
        let projection = GaussianProjection::new(dataset.series_len(), m, config.seed);
        let mut projected = Vec::with_capacity(dataset.len() * m);
        for s in dataset.iter() {
            projected.extend_from_slice(&projection.project(s));
        }
        Ok(Self {
            config,
            projection,
            projected,
            collection: Collection::dataset_order(dataset, config.storage)?,
        })
    }

    fn projected_point(&self, id: usize) -> &[f32] {
        let m = self.config.projected_dims;
        &self.projected[id * m..(id + 1) * m]
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &SrsConfig {
        &self.config
    }

    /// The simulated storage layer holding the raw series.
    pub fn store(&self) -> &SeriesStore {
        self.collection.store()
    }

    /// Incremental search in the projected space with the SRS
    /// early-termination test.
    ///
    /// Points are examined in increasing projected distance. For 2-stable
    /// projections, `‖proj(o−q)‖² / ‖o−q‖²` follows a χ²_m distribution, so
    /// once `χ²_m-CDF(proj_next² / (bsf/(1+ε))²)` exceeds δ, any unexamined
    /// point is closer than `bsf/(1+ε)` with probability below `1 − δ`, and
    /// the current answer is δ-ε-correct.
    fn search_impl(&self, query: &[f32], params: &SearchParams) -> SearchResult {
        let mut stats = QueryStats::new();
        let k = params.k;
        let num_series = self.collection.len();
        let (epsilon, delta) = (params.mode.epsilon(), params.mode.delta());
        let budget = match params.mode {
            SearchMode::Ng { nprobe } => nprobe.max(1),
            _ => (num_series as f64 * self.config.max_examined_fraction).ceil() as usize,
        };
        let one_plus_eps = 1.0 + epsilon;
        let m = self.config.projected_dims;

        // Rank all points by projected distance (the projected table is tiny
        // and lives in memory — this is SRS's linear-size index).
        let qp = self.projection.project(query);
        let mut order: Vec<(f32, usize)> = (0..num_series)
            .map(|id| (hydra_core::squared_euclidean(&qp, self.projected_point(id)), id))
            .collect();
        stats.lower_bound_computations += num_series as u64;
        order.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut top = TopK::new(k);
        let mut examined = 0usize;
        for &(proj_sq, id) in &order {
            if examined >= budget.max(k) {
                break;
            }
            // Early-termination test (skipped for exact / ng modes where
            // delta = 1 never triggers it before the budget runs out).
            let bsf = top.kth_distance();
            if top.is_full() && bsf.is_finite() && delta < 1.0 {
                let r = (bsf / one_plus_eps) as f64;
                if r > 0.0 {
                    let statistic = proj_sq as f64 / (r * r);
                    if chi_squared_cdf(statistic, m) >= delta as f64 {
                        stats.delta_stop_triggered = true;
                        break;
                    }
                }
            }
            stats.series_scanned += 1;
            stats.distance_computations += 1;
            let store = self.collection.store();
            if let Some(d) = store.refine(id, query, top.kth_distance(), &mut stats) {
                top.push(Neighbor::new(id, d));
            }
            examined += 1;
        }
        stats.leaves_visited = examined as u64;
        SearchResult::new(top.into_sorted(), stats)
    }
}

impl PersistentIndex for Srs {
    type Config = SrsConfig;
    const KIND: &'static str = "srs";

    fn hash_config(config: &SrsConfig, f: &mut Fingerprint) {
        f.push_usize(config.projected_dims);
        f.push_f64(config.max_examined_fraction);
        f.push_u64(config.seed);
    }

    /// Snapshots the projected table — SRS's "tiny index", whose
    /// construction is the one full pass over the raw data the method ever
    /// makes. The Gaussian projection matrix is deterministic in the seed
    /// and is re-sampled at load time; the raw series store is re-created
    /// from the dataset.
    fn save(&self, path: &Path) -> hydra_persist::Result<()> {
        let mut w = Self::snapshot_writer(&self.config, self.collection.fingerprint());

        let mut meta = Section::new();
        meta.put_usize(self.collection.series_len());
        meta.put_usize(self.collection.len());
        meta.put_usize(self.config.projected_dims);
        w.push(meta);

        let mut projected = Section::new();
        projected.put_f32s(&self.projected);
        w.push(projected);

        w.write_to(path)
    }

    /// Loads without ever materializing a streamed dataset: shape and
    /// fingerprint come from the source's header facts, and the raw series
    /// re-attach straight from the validated snapshot file.
    fn load_from(
        path: &Path,
        source: DataSource<'_>,
        config: &SrsConfig,
        backing: StoreBacking<'_>,
    ) -> hydra_persist::Result<Self> {
        let data_fingerprint = source.fingerprint();
        let mut r = Self::open_snapshot(path, config, data_fingerprint)?;

        let mut meta = r.next_section()?;
        let series_len = meta.get_usize()?;
        let num_series = meta.get_usize()?;
        let m = meta.get_usize()?;
        if series_len != source.series_len() || num_series != source.len() || m != config.projected_dims
        {
            return Err(PersistError::Corrupt(
                "snapshot metadata disagrees with the dataset or configuration".into(),
            ));
        }

        let mut sec = r.next_section()?;
        let projected = sec.get_f32s()?;
        if projected.len() != num_series * m {
            return Err(PersistError::Corrupt(
                "projected table does not cover every series".into(),
            ));
        }

        let collection =
            Collection::attach(path, source, data_fingerprint, None, config.storage, backing)?;

        Ok(Self {
            config: *config,
            projection: GaussianProjection::new(series_len, m, config.seed),
            projected,
            collection,
        })
    }
}

impl AnnIndex for Srs {
    fn name(&self) -> &'static str {
        "SRS"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact: false,
            ng_approximate: true,
            epsilon_approximate: true,
            delta_epsilon_approximate: true,
            disk_resident: true,
            streaming_insert: true,
            representation: Representation::Signatures,
        }
    }

    fn num_series(&self) -> usize {
        self.collection.len()
    }

    fn series_len(&self) -> usize {
        self.collection.series_len()
    }

    fn memory_footprint(&self) -> usize {
        self.projected.len() * std::mem::size_of::<f32>() + self.projection.memory_footprint()
    }

    fn store_counters(&self) -> Option<hydra_core::StoreCounters> {
        Some(self.collection.counters())
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult> {
        check_query(self.capabilities(), self.series_len(), query, params)?;
        Ok(self.search_impl(query, params))
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

    /// Streaming ingest: each new series is projected with the (build-time,
    /// seed-deterministic) Gaussian matrix and appended to the projected
    /// table and the raw store — exactly the per-series work
    /// [`Srs::build`] does, so a grown index is structurally identical to a
    /// fresh build over the same collection.
    fn insert_batch(&mut self, batch: &[&[f32]]) -> Result<()> {
        self.collection.check_lengths(batch)?;
        for series in batch {
            self.projected.extend_from_slice(&self.projection.project(series));
            self.collection.append(series)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_data::{exact_knn, random_walk};

    fn recall(found: &[Neighbor], truth: &[Neighbor]) -> f64 {
        let ids: std::collections::HashSet<usize> = truth.iter().map(|n| n.index).collect();
        found.iter().filter(|n| ids.contains(&n.index)).count() as f64 / truth.len() as f64
    }

    fn build(n: usize, len: usize) -> (Dataset, Srs) {
        let data = random_walk(n, len, 13);
        let config = SrsConfig {
            projected_dims: 8,
            max_examined_fraction: 0.5,
            storage: StorageConfig::in_memory(),
            seed: 4,
        };
        (data.clone(), Srs::build(&data, config).unwrap())
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let empty = Dataset::new(4).unwrap();
        assert!(Srs::build(&empty, SrsConfig::default()).is_err());
        let one = random_walk(2, 8, 1);
        let bad = SrsConfig {
            projected_dims: 0,
            ..SrsConfig::default()
        };
        assert!(Srs::build(&one, bad).is_err());
    }

    #[test]
    fn delta_epsilon_queries_have_reasonable_recall() {
        let (data, srs) = build(500, 64);
        let queries = random_walk(8, 64, 71);
        let mut total = 0.0;
        for q in queries.iter() {
            let res = srs
                .search(q, &SearchParams::delta_epsilon(10, 0.99, 0.0))
                .unwrap();
            let gt = exact_knn(&data, q, 10);
            total += recall(&res.neighbors, &gt);
        }
        assert!(total / 8.0 > 0.5, "SRS recall too low: {}", total / 8.0);
    }

    #[test]
    fn examined_fraction_bounds_work() {
        let (_, srs) = build(400, 32);
        let q_owned = random_walk(1, 32, 2);
        let q = q_owned.series(0);
        let res = srs
            .search(q, &SearchParams::delta_epsilon(5, 0.9, 1.0))
            .unwrap();
        assert!(res.stats.series_scanned <= 200 + 5);
        // ng mode examines exactly nprobe raw series (or fewer).
        let ng = srs.search(q, &SearchParams::ng(5, 20)).unwrap();
        assert!(ng.stats.series_scanned <= 20);
    }

    #[test]
    fn larger_epsilon_examines_no_more_data() {
        let (_, srs) = build(400, 32);
        let q_owned = random_walk(1, 32, 6);
        let q = q_owned.series(0);
        let tight = srs
            .search(q, &SearchParams::delta_epsilon(5, 0.9, 0.0))
            .unwrap();
        let loose = srs
            .search(q, &SearchParams::delta_epsilon(5, 0.9, 4.0))
            .unwrap();
        assert!(loose.stats.series_scanned <= tight.stats.series_scanned);
    }

    #[test]
    fn exact_mode_is_rejected_and_metadata_consistent() {
        let (_, srs) = build(100, 32);
        let q = vec![0.0f32; 32];
        assert!(srs.search(&q, &SearchParams::exact(1)).is_err());
        assert!(srs.search(&[0.0; 4], &SearchParams::ng(1, 1)).is_err());
        assert_eq!(srs.name(), "SRS");
        assert!(srs.capabilities().delta_epsilon_approximate);
        assert!(srs.capabilities().disk_resident);
        assert!(!srs.capabilities().exact);
        assert_eq!(srs.num_series(), 100);
        assert_eq!(srs.series_len(), 32);
        assert!(srs.memory_footprint() > 0);
        assert_eq!(srs.config().projected_dims, 8);
        assert_eq!(srs.store().len(), 100);
    }
}
