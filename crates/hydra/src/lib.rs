//! # hydra
//!
//! Facade crate for the Lernaean Hydra benchmark: a unified Rust
//! implementation of data-series and high-dimensional approximate
//! similarity search, reproducing *"Return of the Lernaean Hydra:
//! Experimental Evaluation of Data Series Approximate Similarity Search"*
//! (Echihabi et al., PVLDB 2019).
//!
//! This crate re-exports the whole workspace behind one dependency:
//!
//! * the core types and the generic exact/ε/δ-ε search driver
//!   ([`hydra_core`]),
//! * the summarizations ([`hydra_summarize`]), the simulated disk layer
//!   ([`hydra_storage`]), the dataset/query generators ([`hydra_data`]) and
//!   the metrics/benchmark runner ([`hydra_eval`]),
//! * every method of the study: [`DsTree`], [`Isax2Plus`], [`VaPlusFile`],
//!   [`Hnsw`], [`InvertedMultiIndex`], [`Srs`], [`Qalsh`] and [`Flann`],
//! * sharded scale-out ([`hydra_shard`]): [`partition()`] a dataset,
//!   wrap per-shard indexes in a [`ShardedIndex`], and every consumer of
//!   [`AnnIndex`] — the figure binaries, the workload runners, serving —
//!   works over shards unchanged.
//!
//! ## Quick example
//!
//! ```
//! use hydra::prelude::*;
//!
//! // 1. Generate a small random-walk dataset and a query workload.
//! let data = hydra::data::random_walk(2_000, 64, 7);
//! let workload = hydra::data::noisy_queries(&data, 10, &[0.1], 8);
//! let truth = hydra::data::ground_truth(&data, &workload, 10);
//!
//! // 2. Build a DSTree and answer delta-epsilon-approximate 10-NN queries.
//! let index = DsTree::build(&data, DsTreeConfig::default()).unwrap();
//! let report = hydra::eval::run_workload(
//!     &index,
//!     &workload,
//!     &truth,
//!     &SearchParams::delta_epsilon(10, 0.99, 1.0),
//! );
//! assert!(report.accuracy.map > 0.5);
//!
//! // 3. Same workload, serving mode: 4 worker threads, batched queries.
//! //    Accuracy and cost counters are identical to the sequential run.
//! let parallel = hydra::eval::run_workload_parallel(
//!     &index,
//!     &workload,
//!     &truth,
//!     &SearchParams::delta_epsilon(10, 0.99, 1.0),
//!     4,
//! );
//! assert_eq!(parallel.accuracy, report.accuracy);
//! ```
//!
//! Every index also accepts whole batches through
//! [`AnnIndex::search_batch`]; IMI, VA+file, SRS and QALSH override it to
//! amortize per-query setup (ADC tables, scratch buffers) across the batch.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use hydra_core as core;
pub use hydra_data as data;
pub use hydra_eval as eval;
pub use hydra_persist as persist;
pub use hydra_shard as shard;
pub use hydra_storage as storage;
pub use hydra_summarize as summarize;

pub use hydra_core::{
    merge_top_k, AnnIndex, Capabilities, Dataset, DistanceHistogram, Error, Neighbor, QueryStats,
    Representation, Result, SearchKey, SearchMode, SearchParams, SearchResult,
};
pub use hydra_data::{partition, PartitionScheme, ShardMap};
pub use hydra_shard::ShardedIndex;
pub use hydra_dstree::{DsTree, DsTreeConfig};
pub use hydra_flann::{Flann, FlannAlgorithm, FlannConfig, KdForest, KdForestConfig, KMeansTree, KMeansTreeConfig};
pub use hydra_persist::{PersistError, PersistentIndex, StoreBacking};
pub use hydra_hnsw::{Hnsw, HnswConfig};
pub use hydra_imi::{ImiConfig, InvertedMultiIndex};
pub use hydra_isax::{Isax2Plus, IsaxConfig};
pub use hydra_lsh::{Qalsh, QalshConfig, Srs, SrsConfig};
pub use hydra_storage::{FileIoMode, PageCodec, StorageConfig};
pub use hydra_vafile::{VaPlusFile, VaPlusFileConfig};

/// Convenience prelude pulling in the types most programs need.
pub mod prelude {
    pub use hydra_core::{AnnIndex, Dataset, Neighbor, SearchMode, SearchParams};
    pub use hydra_dstree::{DsTree, DsTreeConfig};
    pub use hydra_flann::{Flann, FlannConfig};
    pub use hydra_hnsw::{Hnsw, HnswConfig};
    pub use hydra_imi::{ImiConfig, InvertedMultiIndex};
    pub use hydra_isax::{Isax2Plus, IsaxConfig};
    pub use hydra_lsh::{Qalsh, QalshConfig, Srs, SrsConfig};
    pub use hydra_persist::PersistentIndex;
    pub use hydra_shard::ShardedIndex;
    pub use hydra_storage::StorageConfig;
    pub use hydra_vafile::{VaPlusFile, VaPlusFileConfig};
}

/// The standard laptop-scale build configuration of every method in the
/// zoo — the **single source of truth** shared by [`build_all_methods`],
/// the figure harness (`hydra-bench`) and the snapshot-boot registry
/// ([`standard_registry`]).
///
/// Snapshot fingerprints hash the full build configuration, so a saver and
/// a loader must construct configurations from the same place or loading
/// fails with [`PersistError::FingerprintMismatch`]; centralizing them here
/// is what lets `fig* --save-index` runs and a later `hydra-serve` boot
/// agree by construction.
#[derive(Debug, Clone, Copy)]
pub struct StandardConfigs {
    /// DSTree build parameters.
    pub dstree: DsTreeConfig,
    /// iSAX2+ build parameters.
    pub isax: IsaxConfig,
    /// VA+file build parameters.
    pub vafile: VaPlusFileConfig,
    /// SRS build parameters.
    pub srs: SrsConfig,
    /// IMI build parameters (only applicable when the series length is a
    /// multiple of 8).
    pub imi: ImiConfig,
    /// HNSW build parameters (in-memory scenarios only).
    pub hnsw: HnswConfig,
    /// QALSH build parameters (in-memory scenarios only).
    pub qalsh: QalshConfig,
    /// FLANN auto-tuning parameters (in-memory scenarios only).
    pub flann: FlannConfig,
}

/// The standard zoo configuration under one storage configuration and
/// build seed. `storage` is shared by the disk-capable methods — build it
/// with [`StorageConfig::in_memory`] (buffer pool larger than the dataset)
/// or [`StorageConfig::on_disk`] (a small pool) plus the `with_pool_pages`
/// / `with_page_codec` / `with_io_mode` serving knobs. The knobs shape only
/// I/O economics: they are not part of any snapshot fingerprint and never
/// change answers (coded stores prune on compressed pages but recompute
/// every returned distance from exact f32 series; both I/O modes move the
/// same page bytes through the same accounting path), so a serving process
/// may pick any of them for snapshots saved under the defaults.
pub fn standard_configs(storage: StorageConfig, seed: u64) -> StandardConfigs {
    StandardConfigs {
        dstree: DsTreeConfig {
            storage,
            seed,
            ..DsTreeConfig::default()
        },
        isax: IsaxConfig {
            storage,
            seed,
            ..IsaxConfig::default()
        },
        vafile: VaPlusFileConfig {
            storage,
            seed,
            ..VaPlusFileConfig::default()
        },
        srs: SrsConfig {
            storage,
            seed,
            ..SrsConfig::default()
        },
        imi: ImiConfig {
            seed,
            ..ImiConfig::default()
        },
        hnsw: HnswConfig {
            m: 8,
            ef_construction: 128,
            seed,
        },
        qalsh: QalshConfig {
            seed,
            ..QalshConfig::default()
        },
        flann: FlannConfig::default(),
    }
}

/// A snapshot-loading registry covering the whole zoo under
/// [`standard_configs`]`(storage, seed)`: every kind is registered —
/// including the memory-only methods, whose snapshots simply never occur
/// in on-disk scenario directories — so
/// [`persist::LoaderRegistry::load_any`] can restore any snapshot a
/// `fig* --save-index` run (or [`PersistentIndex::save`] under the same
/// configs) produced. Whether the loaded stores are resident or
/// file-backed is chosen per load via
/// [`persist::LoaderRegistry::load_any_backed`], not here.
pub fn standard_registry(storage: StorageConfig, seed: u64) -> persist::LoaderRegistry {
    let configs = standard_configs(storage, seed);
    let mut registry = persist::LoaderRegistry::new();
    registry.register::<DsTree>(configs.dstree);
    registry.register::<Isax2Plus>(configs.isax);
    registry.register::<VaPlusFile>(configs.vafile);
    registry.register::<Srs>(configs.srs);
    registry.register::<InvertedMultiIndex>(configs.imi);
    registry.register::<Hnsw>(configs.hnsw);
    registry.register::<Qalsh>(configs.qalsh);
    registry.register::<Flann>(configs.flann);
    registry
}

/// Builds every method of the study over the same dataset with reasonable
/// laptop-scale defaults, returning them behind the uniform [`AnnIndex`]
/// interface. Used by the examples and the benchmark harness.
///
/// `in_memory` selects the storage configuration of the disk-capable
/// methods ([`StorageConfig::in_memory`] vs. [`StorageConfig::on_disk`])
/// and whether the memory-only methods are built at all. The
/// configurations are exactly [`standard_configs`].
pub fn build_all_methods(
    dataset: &Dataset,
    in_memory: bool,
    seed: u64,
) -> Vec<Box<dyn AnnIndex>> {
    let storage = if in_memory {
        StorageConfig::in_memory()
    } else {
        StorageConfig::on_disk()
    };
    let configs = standard_configs(storage, seed);
    let mut methods: Vec<Box<dyn AnnIndex>> = Vec::new();
    methods.push(Box::new(
        DsTree::build(dataset, configs.dstree).expect("DSTree build"),
    ));
    methods.push(Box::new(
        Isax2Plus::build(dataset, configs.isax).expect("iSAX2+ build"),
    ));
    methods.push(Box::new(
        VaPlusFile::build(dataset, configs.vafile).expect("VA+file build"),
    ));
    methods.push(Box::new(
        Srs::build(dataset, configs.srs).expect("SRS build"),
    ));
    if dataset.series_len() % 8 == 0 {
        methods.push(Box::new(
            InvertedMultiIndex::build(dataset, configs.imi).expect("IMI build"),
        ));
    }
    if in_memory {
        methods.push(Box::new(
            Hnsw::build(dataset, configs.hnsw).expect("HNSW build"),
        ));
        methods.push(Box::new(
            Qalsh::build(dataset, configs.qalsh).expect("QALSH build"),
        ));
        methods.push(Box::new(
            Flann::build(dataset, configs.flann).expect("FLANN build"),
        ));
    }
    methods
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_methods_in_memory_includes_memory_only_methods() {
        let data = data::random_walk(300, 32, 5);
        let methods = build_all_methods(&data, true, 1);
        let names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
        assert!(names.contains(&"DSTree"));
        assert!(names.contains(&"iSAX2+"));
        assert!(names.contains(&"VA+file"));
        assert!(names.contains(&"SRS"));
        assert!(names.contains(&"IMI"));
        assert!(names.contains(&"HNSW"));
        assert!(names.contains(&"QALSH"));
        assert!(names.contains(&"FLANN"));
    }

    #[test]
    fn the_standard_registry_loads_what_the_standard_configs_built() {
        let data = data::random_walk(200, 32, 11);
        let configs = standard_configs(StorageConfig::in_memory(), 3);
        let index = Isax2Plus::build(&data, configs.isax).unwrap();
        let path = std::env::temp_dir().join(format!(
            "hydra-facade-registry-{}.snap",
            std::process::id()
        ));
        index.save(&path).unwrap();
        let registry = standard_registry(StorageConfig::in_memory(), 3);
        assert_eq!(registry.kinds().len(), 8);
        assert!(registry.contains("isax2+") && registry.contains("flann"));
        let loaded = registry.load_any(&path, &data).unwrap();
        assert_eq!(loaded.name(), "iSAX2+");
        let q = data.series(0);
        let a = index.search(q, &SearchParams::ng(5, 8)).unwrap();
        let b = loaded.search(q, &SearchParams::ng(5, 8)).unwrap();
        assert_eq!(a.neighbors, b.neighbors);
        // A different seed is a different fingerprint: loading must refuse.
        let other = standard_registry(StorageConfig::in_memory(), 4);
        assert!(matches!(
            other.load_any(&path, &data),
            Err(PersistError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshots_load_at_any_pool_size_and_backing() {
        // The serving knobs — pool capacity and store backing — are not
        // part of the snapshot fingerprint: one snapshot saved under the
        // defaults boots with any `--pool-pages` and either backing, and
        // answers bit-identically.
        let data = data::random_walk(250, 32, 8);
        let dir = std::env::temp_dir().join(format!(
            "hydra-facade-pooled-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let on_disk = StorageConfig::on_disk();
        let index = DsTree::build(&data, standard_configs(on_disk, 5).dstree).unwrap();
        let path = dir.join("walk-dstree.snap");
        index.save(&path).unwrap();
        let baseline = index.search(data.series(3), &SearchParams::exact(5)).unwrap();
        for pool_pages in [Some(1), Some(4), None] {
            let storage = pool_pages.map_or(on_disk, |pages| on_disk.with_pool_pages(pages));
            let registry = standard_registry(storage, 5);
            for backing in [
                StoreBacking::Resident,
                StoreBacking::FileBacked {
                    dataset_snapshot: None,
                },
            ] {
                let loaded = registry.load_any_backed(&path, &data, backing).unwrap();
                let got = loaded.search(data.series(3), &SearchParams::exact(5)).unwrap();
                assert_eq!(got.neighbors, baseline.neighbors,
                    "pool {pool_pages:?} / {backing:?} drifted");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshots_load_under_any_page_codec_with_identical_answers() {
        // The page codec is a serving knob like the pool: one snapshot
        // saved under the defaults boots with any --page-codec, and the
        // answers — neighbors AND distances — are bit-identical, because
        // coded stores only prune on compressed pages and recompute every
        // returned distance from exact f32 series.
        let data = data::random_walk(250, 32, 9);
        let dir = std::env::temp_dir().join(format!(
            "hydra-facade-tiered-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let on_disk = StorageConfig::on_disk();
        let index = DsTree::build(&data, standard_configs(on_disk, 9).dstree).unwrap();
        let path = dir.join("walk-dstree.snap");
        index.save(&path).unwrap();
        let baseline = index.search(data.series(7), &SearchParams::exact(5)).unwrap();
        for codec in [PageCodec::U8, PageCodec::F16] {
            let registry =
                standard_registry(on_disk.with_pool_pages(2).with_page_codec(codec), 9);
            for backing in [
                StoreBacking::Resident,
                StoreBacking::FileBacked {
                    dataset_snapshot: None,
                },
            ] {
                let loaded = registry.load_any_backed(&path, &data, backing).unwrap();
                let got = loaded.search(data.series(7), &SearchParams::exact(5)).unwrap();
                assert_eq!(
                    got.neighbors, baseline.neighbors,
                    "codec {:?} / {backing:?} drifted",
                    codec
                );
                // Only a file-backed store has a coded tier; a resident one
                // holds the exact values and ignores the codec.
                let file_backed = matches!(backing, StoreBacking::FileBacked { .. });
                let counters = loaded.store_counters().unwrap();
                assert_eq!(
                    counters.compressed_bytes_read > 0,
                    file_backed,
                    "codec {codec:?} / {backing:?}: compressed pages are scanned file-backed only"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_all_methods_on_disk_excludes_memory_only_methods() {
        let data = data::random_walk(300, 32, 5);
        let methods = build_all_methods(&data, false, 1);
        let names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
        assert!(!names.contains(&"HNSW"));
        assert!(!names.contains(&"QALSH"));
        assert!(!names.contains(&"FLANN"));
        assert!(names.iter().all(|n| !n.is_empty()));
        for m in &methods {
            assert!(m.capabilities().disk_resident, "{} must be disk capable", m.name());
        }
    }
}
