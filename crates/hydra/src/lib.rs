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
//!   [`Hnsw`], [`InvertedMultiIndex`], [`Srs`], [`Qalsh`] and [`Flann`] —
//!   and the one table that enumerates them, [`zoo()`]: a row per method
//!   under its standard configuration, which [`build_all_methods`],
//!   [`standard_registry`], the figure harness and the test matrices all
//!   iterate instead of spelling the eight out again,
//! * sharded scale-out ([`hydra_shard`]): [`partition()`] a dataset,
//!   wrap per-shard indexes in a [`ShardedIndex`], and every consumer of
//!   [`AnnIndex`] — the figure binaries, the workload runner, serving —
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
//! ```
//!
//! Every index also accepts whole batches through
//! [`AnnIndex::search_batch`]; IMI, VA+file, SRS and QALSH override it to
//! amortize per-query setup (ADC tables, scratch buffers) across the batch.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::path::Path;

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
pub use hydra_flann::{Flann, FlannAlgorithm, FlannConfig, KdForestConfig, KMeansTreeConfig};
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

/// What [`Method::build`] returns: an index behind the uniform
/// [`AnnIndex`] interface (it coerces to `Box<dyn AnnIndex>`) that can
/// also snapshot itself — [`PersistentIndex::save`] without the type.
pub trait ZooIndex: AnnIndex {
    /// [`PersistentIndex::save`].
    ///
    /// # Errors
    /// [`PersistError::Io`] if the file cannot be written.
    fn save(&self, path: &Path) -> persist::Result<()>;
}

impl<T: AnnIndex + PersistentIndex> ZooIndex for T {
    fn save(&self, path: &Path) -> persist::Result<()> {
        PersistentIndex::save(self, path)
    }
}

/// One row of [`zoo`]: a method of the study under its standard
/// laptop-scale build configuration. The row *is* that configuration —
/// the only things to do with one are to build it, to teach a
/// [`persist::LoaderRegistry`] to load what it built, and to ask whether
/// it takes part in a scenario.
pub struct Method {
    kind: &'static str,
    scenarios: Scenarios,
    build: Box<BuildFn>,
    register: Box<dyn Fn(&mut persist::LoaderRegistry)>,
}

type BuildFn = dyn Fn(&Dataset) -> Result<Box<dyn ZooIndex>>;

/// The scenarios a row takes part in, as a predicate over `(in_memory,
/// series_len)`.
type Scenarios = fn(bool, usize) -> bool;
const EVERY_SCENARIO: Scenarios = |_, _| true;
const MEMORY_ONLY: Scenarios = |in_memory, _| in_memory;
/// IMI's default product quantizer cuts a series into 8 equal sub-vectors.
const LENGTH_MULTIPLE_OF_8: Scenarios = |_, series_len| series_len % 8 == 0;

impl Method {
    /// The snapshot kind tag of the method ([`PersistentIndex::KIND`]).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Whether the method takes part in a scenario: memory-only methods
    /// only in memory, and IMI only when its product quantizer divides
    /// the series evenly.
    pub fn in_scenario(&self, in_memory: bool, series_len: usize) -> bool {
        (self.scenarios)(in_memory, series_len)
    }

    /// Builds the method over `dataset`.
    ///
    /// # Errors
    /// Whatever the method's own `build` reports.
    pub fn build(&self, dataset: &Dataset) -> Result<Box<dyn ZooIndex>> {
        (self.build)(dataset)
    }

    /// Registers the loader of the snapshots [`Method::build`] saves.
    pub fn register(&self, registry: &mut persist::LoaderRegistry) {
        (self.register)(registry)
    }
}

/// The one place a row's index type appears.
fn method<T>(
    build: fn(&Dataset, T::Config) -> Result<T>,
    config: T::Config,
    scenarios: Scenarios,
) -> Method
where
    T: AnnIndex + PersistentIndex + 'static,
    T::Config: Copy + Send + Sync + 'static,
{
    Method {
        kind: T::KIND,
        scenarios,
        build: Box::new(move |dataset| Ok(Box::new(build(dataset, config)?))),
        register: Box::new(move |registry| registry.register::<T>(config)),
    }
}

/// The zoo: every method of the study (the paper's Table 1), one row
/// each, under its standard laptop-scale build configuration — the
/// **single source of truth** behind [`build_all_methods`],
/// [`standard_registry`], the figure harness (`hydra-bench`) and the test
/// matrices. Adding a ninth method is adding one row.
///
/// Snapshot fingerprints hash the full build configuration, so a saver and
/// a loader must take it from the same place or loading fails with
/// [`PersistError::FingerprintMismatch`]; both taking it from this table
/// is what lets `fig* --save-index` runs and a later `hydra-serve` boot
/// agree by construction.
///
/// `storage` is shared by the disk-capable methods — build it with
/// [`StorageConfig::in_memory`] (buffer pool larger than the dataset) or
/// [`StorageConfig::on_disk`] (a small pool) plus the `with_pool_pages` /
/// `with_page_codec` / `with_io_mode` serving knobs. The knobs shape only
/// I/O economics: they are not part of any snapshot fingerprint and never
/// change answers (coded stores prune on compressed pages but recompute
/// every returned distance from exact f32 series; both I/O modes move the
/// same page bytes through the same accounting path), so a serving process
/// may pick any of them for snapshots saved under the defaults.
#[rustfmt::skip] // one row, one line
pub fn zoo(storage: StorageConfig, seed: u64) -> Vec<Method> {
    vec![
        method(DsTree::build, DsTreeConfig { storage, seed, ..Default::default() }, EVERY_SCENARIO),
        method(Isax2Plus::build, IsaxConfig { storage, seed, ..Default::default() }, EVERY_SCENARIO),
        method(VaPlusFile::build, VaPlusFileConfig { storage, seed, ..Default::default() }, EVERY_SCENARIO),
        method(Srs::build, SrsConfig { storage, seed, ..Default::default() }, EVERY_SCENARIO),
        method(InvertedMultiIndex::build, ImiConfig { seed, ..Default::default() }, LENGTH_MULTIPLE_OF_8),
        method(Hnsw::build, HnswConfig { m: 8, ef_construction: 128, seed }, MEMORY_ONLY),
        method(Qalsh::build, QalshConfig { seed, ..Default::default() }, MEMORY_ONLY),
        method(Flann::build, FlannConfig::default(), MEMORY_ONLY),
    ]
}

/// A snapshot-loading registry covering the whole [`zoo`]`(storage,
/// seed)`: every kind is registered — including the memory-only methods,
/// whose snapshots simply never occur in on-disk scenario directories — so
/// [`persist::LoaderRegistry::load_any`] can restore any snapshot a
/// `fig* --save-index` run (or a [`Method::build`] of the same table)
/// produced. Whether the loaded stores are resident or file-backed is
/// chosen per load via [`persist::LoaderRegistry::load_any_backed`], not
/// here.
pub fn standard_registry(storage: StorageConfig, seed: u64) -> persist::LoaderRegistry {
    let mut registry = persist::LoaderRegistry::new();
    for method in zoo(storage, seed) {
        method.register(&mut registry);
    }
    registry
}

/// Builds every method of the study over the same dataset with reasonable
/// laptop-scale defaults, returning them behind the uniform [`AnnIndex`]
/// interface. Used by the examples and the benchmark harness.
///
/// `in_memory` selects the storage configuration of the disk-capable
/// methods ([`StorageConfig::in_memory`] vs. [`StorageConfig::on_disk`])
/// and, with the series length, which rows of the [`zoo`] are built
/// ([`Method::in_scenario`]).
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
    zoo(storage, seed)
        .iter()
        .filter(|method| method.in_scenario(in_memory, dataset.series_len()))
        .map(|method| -> Box<dyn AnnIndex> {
            method
                .build(dataset)
                .unwrap_or_else(|e| panic!("{} build: {e}", method.kind()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the `kind` row of `zoo(storage, seed)` over `data`.
    fn build_row(kind: &str, storage: StorageConfig, seed: u64, data: &Dataset) -> Box<dyn ZooIndex> {
        let zoo = zoo(storage, seed);
        let row = zoo.iter().find(|m| m.kind() == kind).expect("no such row");
        row.build(data).unwrap()
    }

    #[test]
    fn the_table_is_the_zoo() {
        let table = zoo(StorageConfig::in_memory(), 1);
        let mut kinds: Vec<&str> = table.iter().map(Method::kind).collect();
        kinds.sort_unstable();
        assert!(kinds.windows(2).all(|w| w[0] != w[1]), "duplicate kind in {kinds:?}");
        assert_eq!(standard_registry(StorageConfig::in_memory(), 1).kinds(), kinds);

        let names = |series_len: usize, in_memory: bool| -> Vec<&'static str> {
            let data = data::random_walk(120, series_len, 5);
            build_all_methods(&data, in_memory, 1).iter().map(|m| m.name()).collect()
        };
        let all = ["DSTree", "iSAX2+", "VA+file", "SRS", "IMI", "HNSW", "QALSH", "FLANN"];
        assert_eq!(names(32, true), all);
        let without_imi: Vec<&str> = all.iter().copied().filter(|n| *n != "IMI").collect();
        assert_eq!(names(60, true), without_imi, "60 is not a multiple of 8");
        assert_eq!(names(32, false), all[..5], "the last three rows are memory-only");
    }

    #[test]
    fn the_rows_fingerprint_as_they_did_before_there_was_a_table() {
        // Recorded at the commit before the table existed (PR 19), from the
        // hand-written configurations it replaced: a row whose configuration
        // drifts by one value stops loading every snapshot saved before it.
        // IMI's moved once on purpose, when `ImiConfig::use_opq` was removed,
        // and VA+file's when its snapshot layout entered the fingerprint.
        let recorded: [(&str, u64); 8] = [
            ("dstree", 0x340ae1425a471209),
            ("isax2+", 0x77c987e1b3bf1bf4),
            ("va+file", 0xe583645d1c234a92),
            ("srs", 0x5da5a9aca92f5b55),
            ("imi", 0x52f7d9d3d3a59af1),
            ("hnsw", 0x834be295b95e3794),
            ("qalsh", 0x61675014768ffda8),
            ("flann", 0x42f5143b1ca5296d),
        ];
        let data = data::random_walk(200, 32, 11);
        let path = std::env::temp_dir().join(format!(
            "hydra-facade-fingerprints-{}.snap",
            std::process::id()
        ));
        let table = zoo(StorageConfig::in_memory(), 3);
        assert_eq!(table.len(), recorded.len());
        for (row, (kind, fingerprint)) in table.iter().zip(recorded) {
            assert_eq!(row.kind(), kind);
            row.build(&data).unwrap().save(&path).unwrap();
            assert_eq!(persist::peek_fingerprint(&path).unwrap(), fingerprint, "{kind}");
        }
        std::fs::remove_file(&path).ok();
    }

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
        let index = build_row("isax2+", StorageConfig::in_memory(), 3, &data);
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
