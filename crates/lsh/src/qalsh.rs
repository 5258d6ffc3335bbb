//! QALSH: query-aware locality-sensitive hashing with dynamic collision
//! counting.

use std::path::Path;

use hydra_core::{
    check_query, AnnIndex, Capabilities, Dataset, Error, Neighbor, QueryStats, Representation,
    Result, SearchParams, SearchResult, TopK,
};
use hydra_persist::{
    fingerprint_dataset, DataSource, Fingerprint, PersistError, PersistentIndex, Section, StoreBacking,
};
use hydra_summarize::GaussianProjection;

/// Configuration of a [`Qalsh`] index.
#[derive(Debug, Clone, Copy)]
pub struct QalshConfig {
    /// Number of hash functions (1-D Gaussian projections).
    pub num_hashes: usize,
    /// Bucket half-width `w/2` in units of the projection scale.
    pub bucket_width: f32,
    /// Collision-count threshold: a point becomes a candidate after
    /// colliding with the query in at least this many hash tables.
    pub collision_threshold: usize,
    /// Approximation ratio `c` used by virtual rehashing (radius grows by
    /// this factor each round).
    pub approximation_ratio: f32,
    /// Maximum fraction of the dataset refined per query.
    pub max_refined_fraction: f64,
    /// RNG seed for the projections.
    pub seed: u64,
}

impl Default for QalshConfig {
    fn default() -> Self {
        Self {
            num_hashes: 32,
            bucket_width: 1.0,
            collision_threshold: 8,
            approximation_ratio: 2.0,
            max_refined_fraction: 0.3,
            seed: 0x0A15,
        }
    }
}

/// The QALSH index. Raw vectors are kept in memory (the method is
/// in-memory-only in the paper's study).
pub struct Qalsh {
    config: QalshConfig,
    data: Dataset,
    projection: GaussianProjection,
    /// Per hash function: (projection value, id) sorted by value — the
    /// "B+-tree" of the original implementation.
    tables: Vec<Vec<(f32, u32)>>,
}

impl Qalsh {
    /// Builds a QALSH index over `dataset`.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or the configuration is
    /// invalid.
    pub fn build(dataset: &Dataset, config: QalshConfig) -> Result<Self> {
        if dataset.is_empty() {
            return Err(Error::EmptyDataset);
        }
        if config.num_hashes == 0 || config.collision_threshold == 0 {
            return Err(Error::InvalidParameter(
                "QALSH needs at least one hash function and a positive collision threshold".into(),
            ));
        }
        if config.collision_threshold > config.num_hashes {
            return Err(Error::InvalidParameter(
                "collision threshold cannot exceed the number of hash functions".into(),
            ));
        }
        let projection =
            GaussianProjection::new(dataset.series_len(), config.num_hashes, config.seed);
        let mut tables = Vec::with_capacity(config.num_hashes);
        for h in 0..config.num_hashes {
            let mut table: Vec<(f32, u32)> = dataset
                .iter()
                .enumerate()
                .map(|(id, s)| (projection.project_one(s, h), id as u32))
                .collect();
            table.sort_by(|a, b| a.0.total_cmp(&b.0));
            tables.push(table);
        }
        Ok(Self {
            config,
            data: dataset.clone(),
            projection,
            tables,
        })
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &QalshConfig {
        &self.config
    }

    /// Query-aware search with virtual rehashing.
    fn search_impl(&self, query: &[f32], params: &SearchParams) -> SearchResult {
        let mut stats = QueryStats::new();
        let k = params.k;
        let n = self.data.len();
        let max_refined =
            ((n as f64 * self.config.max_refined_fraction).ceil() as usize).max(k);
        let c = self.config.approximation_ratio.max(1.0 + params.mode.epsilon()).max(1.01);

        // Per-table query projections and cursors expanding outwards from
        // the query's position (query-aware: buckets are anchored on the
        // query itself).
        let q_proj: Vec<f32> = (0..self.config.num_hashes)
            .map(|h| self.projection.project_one(query, h))
            .collect();
        let starts: Vec<usize> = self
            .tables
            .iter()
            .zip(q_proj.iter())
            .map(|(table, &qp)| table.partition_point(|(v, _)| *v < qp))
            .collect();
        let mut lo: Vec<isize> = starts.iter().map(|&s| s as isize - 1).collect();
        let mut hi: Vec<usize> = starts.clone();

        let mut collisions = vec![0u16; n];
        let mut refined = vec![false; n];
        let mut top = TopK::new(k);
        let mut refined_count = 0usize;

        // Virtual rehashing: radius grows geometrically; in each round every
        // table absorbs the points whose projection falls within w/2 · R of
        // the query projection, updating collision counts.
        let mut radius = self.config.bucket_width;
        let mut rounds = 0usize;
        while refined_count < max_refined && rounds < 64 {
            rounds += 1;
            let mut progressed = false;
            for h in 0..self.config.num_hashes {
                let table = &self.tables[h];
                let window = radius * self.config.bucket_width;
                // Expand right cursor.
                while hi[h] < table.len() && (table[hi[h]].0 - q_proj[h]).abs() <= window {
                    let id = table[hi[h]].1 as usize;
                    collisions[id] += 1;
                    hi[h] += 1;
                    progressed = true;
                    if collisions[id] as usize >= self.config.collision_threshold && !refined[id] {
                        refined[id] = true;
                        refined_count += 1;
                        stats.series_scanned += 1;
                        stats.distance_computations += 1;
                        if let Some(d) = hydra_core::euclidean_early_abandon(
                            query,
                            self.data.series(id),
                            top.kth_distance(),
                        ) {
                            top.push(Neighbor::new(id, d));
                        }
                    }
                }
                // Expand left cursor.
                while lo[h] >= 0 && (q_proj[h] - table[lo[h] as usize].0).abs() <= window {
                    let id = table[lo[h] as usize].1 as usize;
                    collisions[id] += 1;
                    lo[h] -= 1;
                    progressed = true;
                    if collisions[id] as usize >= self.config.collision_threshold && !refined[id] {
                        refined[id] = true;
                        refined_count += 1;
                        stats.series_scanned += 1;
                        stats.distance_computations += 1;
                        if let Some(d) = hydra_core::euclidean_early_abandon(
                            query,
                            self.data.series(id),
                            top.kth_distance(),
                        ) {
                            top.push(Neighbor::new(id, d));
                        }
                    }
                }
                if refined_count >= max_refined {
                    break;
                }
            }
            // Termination test: the k-th best distance is within c·R, so with
            // high probability no unexamined point can improve it by more
            // than the approximation ratio.
            if top.is_full() && top.kth_distance() <= c * radius {
                stats.delta_stop_triggered = true;
                break;
            }
            if !progressed && hi.iter().enumerate().all(|(h, &x)| x >= self.tables[h].len())
                && lo.iter().all(|&x| x < 0)
            {
                break;
            }
            radius *= c;
        }
        stats.leaves_visited = rounds as u64;
        SearchResult::new(top.into_sorted(), stats)
    }
}

impl PersistentIndex for Qalsh {
    type Config = QalshConfig;
    const KIND: &'static str = "qalsh";

    fn hash_config(config: &QalshConfig, f: &mut Fingerprint) {
        f.push_usize(config.num_hashes);
        f.push_f32(config.bucket_width);
        f.push_usize(config.collision_threshold);
        f.push_f32(config.approximation_ratio);
        f.push_f64(config.max_refined_fraction);
        f.push_u64(config.seed);
    }

    /// Snapshots the sorted hash tables (the "B+-trees" of the original
    /// implementation, one per hash function). The projection matrix is
    /// deterministic in the seed and the raw vectors are re-attached from
    /// the dataset, so neither is stored.
    fn save(&self, path: &Path) -> hydra_persist::Result<()> {
        let mut w = Self::snapshot_writer(&self.config, fingerprint_dataset(&self.data));

        let mut meta = Section::new();
        meta.put_usize(self.data.series_len());
        meta.put_usize(self.data.len());
        meta.put_usize(self.tables.len());
        w.push(meta);

        let mut tables = Section::new();
        for table in &self.tables {
            tables.put_usize(table.len());
            for &(value, id) in table {
                tables.put_f32(value);
                tables.put_u32(id);
            }
        }
        w.push(tables);

        w.write_to(path)
    }

    fn load_from(
        path: &Path,
        source: DataSource<'_>,
        config: &QalshConfig,
        _backing: StoreBacking<'_>,
    ) -> hydra_persist::Result<Self> {
        let dataset = &*source.materialized()?;
        let mut r = Self::open_snapshot(path, config, fingerprint_dataset(dataset))?;

        let mut meta = r.next_section()?;
        let series_len = meta.get_usize()?;
        let n = meta.get_usize()?;
        let table_count = meta.get_usize()?;
        if series_len != dataset.series_len() || n != dataset.len() || table_count != config.num_hashes
        {
            return Err(PersistError::Corrupt(
                "snapshot metadata disagrees with the dataset or configuration".into(),
            ));
        }

        let mut sec = r.next_section()?;
        let mut tables = Vec::with_capacity(table_count);
        for _ in 0..table_count {
            let len = sec.get_usize()?;
            if len != n {
                return Err(PersistError::Corrupt(
                    "hash table does not cover every point".into(),
                ));
            }
            let mut table = Vec::with_capacity(len);
            for _ in 0..len {
                let value = sec.get_f32()?;
                let id = sec.get_u32()?;
                if id as usize >= n {
                    return Err(PersistError::Corrupt(format!(
                        "hash table id {id} out of range"
                    )));
                }
                table.push((value, id));
            }
            tables.push(table);
        }

        Ok(Self {
            config: *config,
            data: dataset.clone(),
            projection: GaussianProjection::new(series_len, config.num_hashes, config.seed),
            tables,
        })
    }
}

impl AnnIndex for Qalsh {
    fn name(&self) -> &'static str {
        "QALSH"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact: false,
            ng_approximate: true,
            epsilon_approximate: false,
            delta_epsilon_approximate: true,
            disk_resident: false,
            streaming_insert: false,
            representation: Representation::Signatures,
        }
    }

    fn num_series(&self) -> usize {
        self.data.len()
    }

    fn series_len(&self) -> usize {
        self.data.series_len()
    }

    fn memory_footprint(&self) -> usize {
        // Hash tables plus the raw data QALSH keeps in memory.
        self.tables
            .iter()
            .map(|t| t.len() * (std::mem::size_of::<f32>() + std::mem::size_of::<u32>()))
            .sum::<usize>()
            + self.projection.memory_footprint()
            + self.data.payload_bytes()
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult> {
        check_query(self.capabilities(), self.series_len(), query, params)?;
        Ok(self.search_impl(query, params))
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

    fn build(n: usize, len: usize) -> (Dataset, Qalsh) {
        let data = random_walk(n, len, 29);
        let config = QalshConfig {
            num_hashes: 24,
            bucket_width: 1.0,
            collision_threshold: 6,
            approximation_ratio: 2.0,
            max_refined_fraction: 0.4,
            seed: 8,
        };
        (data.clone(), Qalsh::build(&data, config).unwrap())
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let empty = Dataset::new(4).unwrap();
        assert!(Qalsh::build(&empty, QalshConfig::default()).is_err());
        let one = random_walk(4, 8, 1);
        assert!(Qalsh::build(
            &one,
            QalshConfig {
                num_hashes: 0,
                ..QalshConfig::default()
            }
        )
        .is_err());
        assert!(Qalsh::build(
            &one,
            QalshConfig {
                num_hashes: 4,
                collision_threshold: 10,
                ..QalshConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn delta_epsilon_queries_have_reasonable_recall() {
        let (data, q) = build(500, 64);
        let queries = random_walk(8, 64, 3);
        let mut total = 0.0;
        for query in queries.iter() {
            let res = q
                .search(query, &SearchParams::delta_epsilon(10, 0.9, 1.0))
                .unwrap();
            let gt = exact_knn(&data, query, 10);
            total += recall(&res.neighbors, &gt);
        }
        assert!(total / 8.0 > 0.4, "QALSH recall too low: {}", total / 8.0);
    }

    #[test]
    fn refinement_budget_is_respected() {
        let (data, q) = build(400, 32);
        let query = data.series(7);
        let res = q
            .search(query, &SearchParams::delta_epsilon(5, 0.9, 1.0))
            .unwrap();
        assert!(res.stats.series_scanned as usize <= 400);
        assert!(res.stats.series_scanned as usize <= (400.0 * 0.4) as usize + 5);
        assert!(!res.neighbors.is_empty());
    }

    #[test]
    fn unsupported_modes_are_rejected() {
        let (_, q) = build(100, 32);
        let query = vec![0.0f32; 32];
        assert!(q.search(&query, &SearchParams::exact(1)).is_err());
        assert!(q.search(&query, &SearchParams::epsilon(1, 1.0)).is_err());
        assert!(q.search(&query, &SearchParams::ng(1, 5)).is_ok());
        assert!(q.search(&[0.0; 3], &SearchParams::ng(1, 5)).is_err());
    }

    #[test]
    fn metadata_is_consistent() {
        let (_, q) = build(150, 32);
        assert_eq!(q.name(), "QALSH");
        assert!(!q.capabilities().disk_resident);
        assert!(q.capabilities().delta_epsilon_approximate);
        assert_eq!(q.num_series(), 150);
        assert_eq!(q.series_len(), 32);
        assert!(q.memory_footprint() > 150 * 32 * 4);
        assert_eq!(q.config().num_hashes, 24);
    }
}
