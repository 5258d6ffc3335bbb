//! Zoo-wide persistence integration: every index of the study is built,
//! snapshotted, restored in the same process, and must answer a whole
//! workload **identically** to the freshly built instance — same neighbors
//! (bit-for-bit distances), same per-query cost counters, same workload
//! accuracy. This is the acceptance contract of `hydra-persist`: a server
//! booting from snapshots is indistinguishable from one that paid the
//! build.

mod common;

use common::temp_dir;
use hydra::prelude::*;
use hydra::{AnnIndex, Dataset, PersistentIndex, StoreBacking};

/// Interrogates two indexes that must be indistinguishable — a fresh build
/// and its reload, or two loads of one snapshot: every query of a workload
/// must produce identical neighbors, distances and cost counters, and the
/// evaluation harness must report identical accuracy.
fn assert_indistinguishable(want: &dyn AnnIndex, got: &dyn AnnIndex, data: &Dataset) {
    let name = want.name();
    let workload = hydra::data::noisy_queries(data, 10, &[0.0, 0.2], 1234);
    let k = 10;
    let truth = hydra::data::ground_truth(data, &workload, k);
    let caps = want.capabilities();
    let mut params = vec![SearchParams::ng(k, 16)];
    if caps.exact {
        params.push(SearchParams::exact(k));
    }
    if caps.delta_epsilon_approximate {
        params.push(SearchParams::delta_epsilon(k, 0.9, 1.0));
    }
    for p in &params {
        for query in workload.iter() {
            let a = want.search(query, p).unwrap();
            let b = got.search(query, p).unwrap();
            // The shared accounting contract: identical across reloads and
            // backings alike.
            common::assert_same_answer(name, &b, &a, common::StatsMatch::Full);
        }
        // The evaluation harness sees identical accuracy too (both runs
        // start from the same post-build / post-load storage state and
        // replay the same access sequence).
        let ra = hydra::eval::run_workload(want, &workload, &truth, p);
        let rb = hydra::eval::run_workload(got, &workload, &truth, p);
        assert_eq!(ra.accuracy, rb.accuracy, "{name}: workload accuracy drifted");
    }
}

#[test]
fn every_index_in_the_zoo_roundtrips_identically() {
    let dir = temp_dir("zoo");
    let data = hydra::data::random_walk(500, 32, 4242);
    let storage = StorageConfig::in_memory();
    let registry = hydra::standard_registry(storage, 1);
    let visited = common::for_each_method(&hydra::zoo(storage, 1), |_| true, |method| {
        let path = common::snapshot_path(&dir, "zoo", method.kind());
        let built = method.build(&data).unwrap();
        built.save(&path).unwrap();
        let loaded = registry
            .load_any(&path, &data)
            .unwrap_or_else(|e| panic!("{} snapshot failed to load: {e}", method.kind()));
        assert_indistinguishable(built.as_ref(), loaded.as_ref(), &data);
    });
    assert_eq!(visited, 8);

    // FLANN's row auto-tunes; pin both of its algorithms too, each through
    // the input the selection rule picks it for (the 500 series above
    // select the kd-forest, 1000 short ones the k-means tree).
    let cfg = FlannConfig::default();
    for (data, algorithm) in [
        (data, hydra::FlannAlgorithm::RandomizedKdTrees),
        (hydra::data::random_walk(1000, 32, 4243), hydra::FlannAlgorithm::HierarchicalKMeans),
    ] {
        let path = dir.join(format!("flann-{algorithm:?}.snap"));
        let built = Flann::build(&data, cfg).unwrap();
        assert_eq!(built.algorithm(), algorithm);
        built.save(&path).unwrap();
        assert_indistinguishable(&built, &Flann::load(&path, &data, &cfg).unwrap(), &data);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every disk-capable method of the zoo, loaded file-backed and proven
/// byte-identical to the resident load of the same snapshot, at pool sizes
/// {1 page, ~dataset/2, effectively-infinite} — through the type-erased
/// registry path a server boots with. Small pages force real multi-page
/// traffic and eviction at the small pools.
#[test]
fn disk_capable_zoo_loads_file_backed_identically_at_every_pool_size() {
    let dir = temp_dir("file-backed-zoo");
    let data = hydra::data::random_walk(500, 32, 515);
    let data_snapshot = dir.join("walk.data.snap");
    hydra::persist::dataset::save_dataset(&data, &data_snapshot).unwrap();
    // 500 series × 32 × 4 B = 64 000 B of raw data; 4 KiB pages → ~16 pages.
    let pooled = |buffer_pool_pages| StorageConfig {
        page_bytes: 4096,
        buffer_pool_pages,
        codec: hydra::PageCodec::F32,
        io: hydra::FileIoMode::Pread,
    };
    let on_disk = |method: &hydra::Method| method.in_scenario(false, data.series_len());
    let visited = common::for_each_method(&hydra::zoo(pooled(1), 1), on_disk, |method| {
        let snapshot = common::snapshot_path(&dir, "walk", method.kind());
        method.build(&data).unwrap().save(&snapshot).unwrap();
        for pool in [1usize, 8, usize::MAX / 2] {
            let registry = hydra::standard_registry(pooled(pool), 1);
            let load = |backing| {
                registry
                    .load_any_backed(&snapshot, &data, backing)
                    .unwrap_or_else(|e| panic!("{} at pool {pool}: {e}", method.kind()))
            };
            let resident = load(StoreBacking::Resident);
            let filed = load(StoreBacking::FileBacked {
                dataset_snapshot: Some(&data_snapshot),
            });
            assert_indistinguishable(resident.as_ref(), filed.as_ref(), &data);
        }
    });
    assert_eq!(visited, 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshots_of_one_kind_refuse_to_load_as_another() {
    let dir = temp_dir("cross-kind");
    let data = hydra::data::random_walk(200, 32, 99);
    let storage = StorageConfig::in_memory();
    let isax_cfg = IsaxConfig {
        storage,
        histogram_samples: 500,
        ..IsaxConfig::default()
    };
    let isax = Isax2Plus::build(&data, isax_cfg).unwrap();
    let path = dir.join("index.snap");
    isax.save(&path).unwrap();

    // Another index's loader must fail with KindMismatch — never by
    // misinterpreting the payload.
    let dstree_cfg = DsTreeConfig {
        storage,
        ..DsTreeConfig::default()
    };
    match DsTree::load(&path, &data, &dstree_cfg) {
        Err(hydra::PersistError::KindMismatch { expected, found }) => {
            assert_eq!(expected, "dstree");
            assert_eq!(found, "isax2+");
        }
        Err(other) => panic!("expected KindMismatch, got {other:?}"),
        Ok(_) => panic!("an iSAX snapshot must not load as a DSTree"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_snapshots_yield_typed_errors_at_the_index_level() {
    let dir = temp_dir("damage");
    let data = hydra::data::random_walk(150, 32, 7);
    let cfg = HnswConfig {
        m: 4,
        ef_construction: 32,
        seed: 1,
    };
    let hnsw = Hnsw::build(&data, cfg).unwrap();
    let path = dir.join("hnsw.snap");
    hnsw.save(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Truncation.
    std::fs::write(&path, &pristine[..pristine.len() - 12]).unwrap();
    assert!(matches!(
        Hnsw::load(&path, &data, &cfg),
        Err(hydra::PersistError::Truncated)
    ));

    // A flipped payload byte.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    assert!(matches!(
        Hnsw::load(&path, &data, &cfg),
        Err(hydra::PersistError::ChecksumMismatch { .. })
    ));

    // A future format version.
    let mut future = pristine.clone();
    future[8..12].copy_from_slice(&(hydra::persist::FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &future).unwrap();
    assert!(matches!(
        Hnsw::load(&path, &data, &cfg),
        Err(hydra::PersistError::VersionMismatch { .. })
    ));

    // The pristine file still loads after all that.
    std::fs::write(&path, &pristine).unwrap();
    assert!(Hnsw::load(&path, &data, &cfg).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
