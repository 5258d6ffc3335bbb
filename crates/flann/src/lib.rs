//! # hydra-flann
//!
//! A FLANN-style index (Muja & Lowe) for ng-approximate nearest-neighbor
//! search, mirroring the library the Lernaean Hydra paper evaluates as
//! "Flann": one [`Flann`] index that holds the dataset and, at build time,
//! selects one of two algorithms for it — randomized kd-trees searched
//! jointly with a shared priority queue, or a hierarchical k-means tree.
//! Both algorithms are crate-private; [`Flann::search`](hydra_core::AnnIndex::search)
//! passes every query through [`hydra_core::check_query`] and then
//! dispatches to the selected one.
//!
//! The index is in-memory and provides no guarantees; the speed/accuracy
//! knob is the number of point checks (`max_checks`), mapped onto the
//! `nprobe` parameter of [`hydra_core::SearchMode::Ng`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod kdforest;
mod kmeans_tree;

pub use kdforest::KdForestConfig;
pub use kmeans_tree::KMeansTreeConfig;

use kdforest::KdForest;
use kmeans_tree::KMeansTree;

use std::path::Path;

use hydra_core::{
    check_query, AnnIndex, Capabilities, Dataset, Error, Representation, Result, SearchParams,
    SearchResult,
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

/// Configuration of a [`Flann`] index: both algorithms' parameters, of
/// which the build uses the selected one's.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlannConfig {
    /// kd-forest configuration (used when the kd-tree algorithm is chosen).
    pub kd: KdForestConfig,
    /// k-means-tree configuration (used when that algorithm is chosen).
    pub kmeans: KMeansTreeConfig,
}

/// The algorithm a [`Flann`] index runs.
enum Algorithm {
    Kd(KdForest),
    KMeans(KMeansTree),
}

/// The FLANN-style auto-selecting index.
pub struct Flann {
    data: Dataset,
    algorithm: Algorithm,
    /// The full configuration the index was built with (both algorithms'
    /// parameters), kept for snapshot fingerprinting.
    config: FlannConfig,
}

impl Flann {
    /// Builds a FLANN index, auto-selecting the algorithm.
    ///
    /// The (simplified) selection rule follows FLANN's empirical guidance:
    /// a large collection (at least 1000 series) of moderate dimensionality
    /// (at most 64 values) gets the hierarchical k-means tree, everything
    /// else the randomized kd-forest.
    pub fn build(dataset: &Dataset, config: FlannConfig) -> Result<Self> {
        if dataset.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let algorithm = if dataset.series_len() <= 64 && dataset.len() >= 1000 {
            Algorithm::KMeans(KMeansTree::build(dataset, config.kmeans)?)
        } else {
            Algorithm::Kd(KdForest::build(dataset, config.kd)?)
        };
        Ok(Self {
            data: dataset.clone(),
            algorithm,
            config,
        })
    }

    /// Which algorithm was selected.
    pub fn algorithm(&self) -> FlannAlgorithm {
        match self.algorithm {
            Algorithm::Kd(_) => FlannAlgorithm::RandomizedKdTrees,
            Algorithm::KMeans(_) => FlannAlgorithm::HierarchicalKMeans,
        }
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &FlannConfig {
        &self.config
    }
}

impl PersistentIndex for Flann {
    type Config = FlannConfig;
    const KIND: &'static str = "flann";

    /// Both algorithms' parameters: auto-selection is deterministic in the
    /// dataset, so this pins the built structure. The trailing 0 is what
    /// the fingerprint always held for an auto-selected build, kept so
    /// every snapshot saved before stays loadable.
    fn hash_config(config: &FlannConfig, f: &mut Fingerprint) {
        KdForest::push_fingerprint(&config.kd, f);
        KMeansTree::push_fingerprint(&config.kmeans, f);
        f.push_u64(0);
    }

    /// Snapshots which algorithm auto-selection picked followed by that
    /// algorithm's structure (kd-forest node arenas, or the hierarchical
    /// k-means tree with its per-node codebooks). The raw vectors are
    /// re-attached from the dataset at load time.
    fn save(&self, path: &Path) -> hydra_persist::Result<()> {
        let mut w = Self::snapshot_writer(&self.config, fingerprint_dataset(&self.data));
        let mut algo = Section::new();
        algo.put_u8(match self.algorithm() {
            FlannAlgorithm::RandomizedKdTrees => 0,
            FlannAlgorithm::HierarchicalKMeans => 1,
        });
        w.push(algo);
        match &self.algorithm {
            Algorithm::Kd(forest) => forest.persist_sections(&self.data, &mut w),
            Algorithm::KMeans(tree) => tree.persist_sections(&self.data, &mut w),
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
            0 => Algorithm::Kd(KdForest::restore_sections(&mut r, dataset)?),
            1 => Algorithm::KMeans(KMeansTree::restore_sections(&mut r, dataset)?),
            tag => {
                return Err(PersistError::Corrupt(format!(
                    "invalid FLANN algorithm tag {tag}"
                )))
            }
        };
        Ok(Self {
            data: dataset.clone(),
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
        self.data.len()
    }

    fn series_len(&self) -> usize {
        self.data.series_len()
    }

    fn memory_footprint(&self) -> usize {
        let structure = match &self.algorithm {
            Algorithm::Kd(forest) => forest.memory_footprint(),
            Algorithm::KMeans(tree) => tree.memory_footprint(),
        };
        structure + self.data.payload_bytes()
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult> {
        check_query(self.capabilities(), self.series_len(), query, params)?;
        let (k, max_checks) = (params.k, params.mode.nprobe().max(params.k));
        Ok(match &self.algorithm {
            Algorithm::Kd(forest) => forest.search(&self.data, query, k, max_checks),
            Algorithm::KMeans(tree) => tree.search(&self.data, query, k, max_checks),
        })
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
        // Each algorithm is forced through the input the selection rule
        // picks it for: 800 series get the kd-forest, 1000 the k-means
        // tree.
        for (n, algo) in [
            (800, FlannAlgorithm::RandomizedKdTrees),
            (1000, FlannAlgorithm::HierarchicalKMeans),
        ] {
            let data = sift_like(n, 24, 5);
            let queries = sift_like(6, 24, 55);
            let flann = Flann::build(&data, FlannConfig::default()).unwrap();
            assert_eq!(flann.algorithm(), algo);
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
