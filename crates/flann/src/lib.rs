//! # hydra-flann
//!
//! A FLANN-style ensemble (Muja & Lowe) for ng-approximate nearest-neighbor
//! search: randomized kd-trees searched jointly with a shared priority
//! queue, a hierarchical k-means tree, and an auto-selection wrapper that
//! picks between them — mirroring the library the Lernaean Hydra paper
//! evaluates as "Flann".
//!
//! Both algorithms are in-memory and provide no guarantees; the
//! speed/accuracy knob is the number of leaf/point checks (`max_checks`),
//! mapped onto the `nprobe` parameter of [`hydra_core::SearchMode::Ng`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod kdforest;
mod kmeans_tree;

pub use kdforest::{KdForest, KdForestConfig};
pub use kmeans_tree::{KMeansTree, KMeansTreeConfig};

use std::path::Path;

use hydra_core::{
    AnnIndex, Capabilities, Dataset, Error, Representation, Result, SearchParams, SearchResult,
};
use hydra_persist::{
    fingerprint_dataset, DataSource, Fingerprint, PersistError, PersistentIndex, Section, StoreBacking,
};

/// Which algorithm a [`Flann`] instance selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlannAlgorithm {
    /// Ensemble of randomized kd-trees.
    RandomizedKdTrees,
    /// Hierarchical k-means tree.
    HierarchicalKMeans,
}

/// Configuration of the [`Flann`] auto-selection wrapper.
#[derive(Debug, Clone, Copy)]
pub struct FlannConfig {
    /// kd-forest configuration (used when the kd-tree algorithm is chosen).
    pub kd: KdForestConfig,
    /// k-means-tree configuration (used when that algorithm is chosen).
    pub kmeans: KMeansTreeConfig,
    /// Force a specific algorithm instead of auto-selecting.
    pub force: Option<FlannAlgorithm>,
}

impl Default for FlannConfig {
    fn default() -> Self {
        Self {
            kd: KdForestConfig::default(),
            kmeans: KMeansTreeConfig::default(),
            force: None,
        }
    }
}

enum Inner {
    Kd(KdForest),
    KMeans(KMeansTree),
}

/// The FLANN-style auto-selecting index.
pub struct Flann {
    inner: Inner,
    algorithm: FlannAlgorithm,
    /// The full configuration the wrapper was built with (both algorithms'
    /// parameters), kept for snapshot fingerprinting.
    config: FlannConfig,
}

impl Flann {
    /// Builds a FLANN index, auto-selecting the algorithm.
    ///
    /// The (simplified) selection rule follows FLANN's empirical guidance:
    /// strongly clustered data with moderate dimensionality favours the
    /// hierarchical k-means tree, everything else the randomized kd-forest.
    /// The heuristic compares the dataset's mean nearest-centroid distance
    /// under a coarse k-means against the global spread.
    pub fn build(dataset: &Dataset, config: FlannConfig) -> Result<Self> {
        if dataset.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let algorithm = match config.force {
            Some(a) => a,
            None => {
                if dataset.series_len() <= 64 && dataset.len() >= 1000 {
                    FlannAlgorithm::HierarchicalKMeans
                } else {
                    FlannAlgorithm::RandomizedKdTrees
                }
            }
        };
        let inner = match algorithm {
            FlannAlgorithm::RandomizedKdTrees => Inner::Kd(KdForest::build(dataset, config.kd)?),
            FlannAlgorithm::HierarchicalKMeans => {
                Inner::KMeans(KMeansTree::build(dataset, config.kmeans)?)
            }
        };
        Ok(Self {
            inner,
            algorithm,
            config,
        })
    }

    /// Which algorithm was selected.
    pub fn algorithm(&self) -> FlannAlgorithm {
        self.algorithm
    }

    /// The configuration the wrapper was built with.
    pub fn config(&self) -> &FlannConfig {
        &self.config
    }
}

impl PersistentIndex for Flann {
    type Config = FlannConfig;
    const KIND: &'static str = "flann";

    /// Both algorithms' parameters plus the forced choice: auto-selection
    /// is deterministic in the dataset, so this pins the built structure.
    fn hash_config(config: &FlannConfig, f: &mut Fingerprint) {
        KdForest::push_fingerprint(&config.kd, f);
        KMeansTree::push_fingerprint(&config.kmeans, f);
        f.push_u64(match config.force {
            None => 0,
            Some(FlannAlgorithm::RandomizedKdTrees) => 1,
            Some(FlannAlgorithm::HierarchicalKMeans) => 2,
        });
    }

    /// Snapshots which algorithm auto-selection picked followed by that
    /// algorithm's structure (kd-forest node arenas, or the hierarchical
    /// k-means tree with its per-node codebooks). The raw vectors are
    /// re-attached from the dataset at load time.
    fn save(&self, path: &Path) -> hydra_persist::Result<()> {
        let data = match &self.inner {
            Inner::Kd(i) => i.data(),
            Inner::KMeans(i) => i.data(),
        };
        let mut w = Self::snapshot_writer(&self.config, fingerprint_dataset(data));
        let mut algo = Section::new();
        algo.put_u8(match self.algorithm {
            FlannAlgorithm::RandomizedKdTrees => 0,
            FlannAlgorithm::HierarchicalKMeans => 1,
        });
        w.push(algo);
        match &self.inner {
            Inner::Kd(i) => i.persist_sections(&mut w),
            Inner::KMeans(i) => i.persist_sections(&mut w),
        }
        w.write_to(path)
    }

    fn load_from(
        path: &Path,
        source: DataSource<'_>,
        config: &FlannConfig,
        _backing: StoreBacking<'_>,
    ) -> hydra_persist::Result<Self> {
        let dataset = &*source.materialized()?;
        let mut r = Self::open_snapshot(path, config, fingerprint_dataset(dataset))?;

        let mut algo = r.next_section()?;
        let algorithm = match algo.get_u8()? {
            0 => FlannAlgorithm::RandomizedKdTrees,
            1 => FlannAlgorithm::HierarchicalKMeans,
            tag => {
                return Err(PersistError::Corrupt(format!(
                    "invalid FLANN algorithm tag {tag}"
                )))
            }
        };
        let inner = match algorithm {
            FlannAlgorithm::RandomizedKdTrees => {
                Inner::Kd(KdForest::restore_sections(&mut r, dataset, config.kd)?)
            }
            FlannAlgorithm::HierarchicalKMeans => {
                Inner::KMeans(KMeansTree::restore_sections(&mut r, dataset, config.kmeans)?)
            }
        };
        Ok(Self {
            inner,
            algorithm,
            config: *config,
        })
    }
}

impl AnnIndex for Flann {
    fn name(&self) -> &'static str {
        "FLANN"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact: false,
            ng_approximate: true,
            epsilon_approximate: false,
            delta_epsilon_approximate: false,
            disk_resident: false,
            streaming_insert: false,
            representation: Representation::Partitions,
        }
    }

    fn num_series(&self) -> usize {
        match &self.inner {
            Inner::Kd(i) => i.num_series(),
            Inner::KMeans(i) => i.num_series(),
        }
    }

    fn series_len(&self) -> usize {
        match &self.inner {
            Inner::Kd(i) => i.series_len(),
            Inner::KMeans(i) => i.series_len(),
        }
    }

    fn memory_footprint(&self) -> usize {
        match &self.inner {
            Inner::Kd(i) => i.memory_footprint(),
            Inner::KMeans(i) => i.memory_footprint(),
        }
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult> {
        match &self.inner {
            Inner::Kd(i) => i.search(query, params),
            Inner::KMeans(i) => i.search(query, params),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_data::{exact_knn, sift_like};
    use hydra_core::Neighbor;

    fn recall(found: &[Neighbor], truth: &[Neighbor]) -> f64 {
        let ids: std::collections::HashSet<usize> = truth.iter().map(|n| n.index).collect();
        found.iter().filter(|n| ids.contains(&n.index)).count() as f64 / truth.len() as f64
    }

    #[test]
    fn auto_selection_picks_an_algorithm_and_answers() {
        let data = sift_like(1200, 32, 3);
        let flann = Flann::build(&data, FlannConfig::default()).unwrap();
        assert_eq!(flann.algorithm(), FlannAlgorithm::HierarchicalKMeans);
        let small = sift_like(200, 96, 3);
        let flann2 = Flann::build(&small, FlannConfig::default()).unwrap();
        assert_eq!(flann2.algorithm(), FlannAlgorithm::RandomizedKdTrees);
        assert_eq!(flann.name(), "FLANN");
        assert!(!flann.capabilities().exact);
        assert!(flann.memory_footprint() > 0);
        assert_eq!(flann.num_series(), 1200);
        assert_eq!(flann.series_len(), 32);
    }

    #[test]
    fn both_forced_algorithms_reach_reasonable_recall() {
        let data = sift_like(800, 24, 5);
        let queries = sift_like(6, 24, 55);
        for algo in [
            FlannAlgorithm::RandomizedKdTrees,
            FlannAlgorithm::HierarchicalKMeans,
        ] {
            let flann = Flann::build(
                &data,
                FlannConfig {
                    force: Some(algo),
                    ..FlannConfig::default()
                },
            )
            .unwrap();
            let mut total = 0.0;
            for q in queries.iter() {
                let res = flann.search(q, &hydra_core::SearchParams::ng(10, 400)).unwrap();
                let gt = exact_knn(&data, q, 10);
                total += recall(&res.neighbors, &gt);
            }
            assert!(total / 6.0 > 0.6, "{algo:?} recall too low: {}", total / 6.0);
        }
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let empty = Dataset::new(8).unwrap();
        assert!(Flann::build(&empty, FlannConfig::default()).is_err());
    }
}
