//! Zoo-wide persistence integration: every index of the study is built,
//! snapshotted, restored in the same process, and must answer a whole
//! workload **identically** to the freshly built instance — same neighbors
//! (bit-for-bit distances), same per-query cost counters, same workload
//! accuracy. This is the acceptance contract of `hydra-persist`: a server
//! booting from snapshots is indistinguishable from one that paid the
//! build.

mod common;

use std::path::Path;

use common::temp_dir;
use hydra::prelude::*;
use hydra::{AnnIndex, Dataset, PersistentIndex, StoreBacking};

/// Saves, reloads and interrogates one index: every query of the workload
/// must produce identical neighbors, distances and cost counters, and the
/// evaluation harness must report identical accuracy.
fn assert_roundtrip_identical<T>(index: &T, data: &Dataset, config: &T::Config, dir: &Path)
where
    T: AnnIndex + PersistentIndex,
{
    let path = dir.join(format!("{}.snap", T::KIND.replace('+', "plus")));
    index.save(&path).unwrap();
    let loaded = T::load(&path, data, config)
        .unwrap_or_else(|e| panic!("{} snapshot failed to load: {e}", T::KIND));

    let workload = hydra::data::noisy_queries(data, 10, &[0.0, 0.2], 1234);
    let k = 10;
    let caps = index.capabilities();
    let mut params = vec![SearchParams::ng(k, 16)];
    if caps.exact {
        params.push(SearchParams::exact(k));
    }
    if caps.delta_epsilon_approximate {
        params.push(SearchParams::delta_epsilon(k, 0.9, 1.0));
    }
    for p in &params {
        for query in workload.iter() {
            let a = index.search(query, p).unwrap();
            let b = loaded.search(query, p).unwrap();
            common::assert_same_answer(index.name(), &b, &a, common::StatsMatch::Full);
        }
        // The evaluation harness sees identical accuracy too (both runs
        // start from the same post-build / post-load storage state and
        // replay the same access sequence).
        let truth = hydra::data::ground_truth(data, &workload, k);
        let ra = hydra::eval::run_workload(index, &workload, &truth, p);
        let rb = hydra::eval::run_workload(&loaded, &workload, &truth, p);
        assert_eq!(
            ra.accuracy,
            rb.accuracy,
            "{}: workload accuracy drifted after reload",
            index.name()
        );
    }
}

#[test]
fn every_index_in_the_zoo_roundtrips_identically() {
    let dir = temp_dir("zoo");
    let data = hydra::data::random_walk(500, 32, 4242);
    let storage = StorageConfig::in_memory();

    let cfg = DsTreeConfig {
        leaf_capacity: 32,
        storage,
        histogram_samples: 2_000,
        seed: 1,
        ..DsTreeConfig::default()
    };
    assert_roundtrip_identical(&DsTree::build(&data, cfg).unwrap(), &data, &cfg, &dir);

    let cfg = IsaxConfig {
        leaf_capacity: 32,
        storage,
        histogram_samples: 2_000,
        seed: 2,
        ..IsaxConfig::default()
    };
    assert_roundtrip_identical(&Isax2Plus::build(&data, cfg).unwrap(), &data, &cfg, &dir);

    let cfg = VaPlusFileConfig {
        storage,
        histogram_samples: 2_000,
        seed: 3,
        ..VaPlusFileConfig::default()
    };
    assert_roundtrip_identical(&VaPlusFile::build(&data, cfg).unwrap(), &data, &cfg, &dir);

    let cfg = SrsConfig {
        projected_dims: 8,
        storage,
        seed: 4,
        ..SrsConfig::default()
    };
    assert_roundtrip_identical(&Srs::build(&data, cfg).unwrap(), &data, &cfg, &dir);

    let cfg = ImiConfig {
        coarse_k: 8,
        pq_m: 8,
        pq_k: 16,
        training_size: 400,
        kmeans_iters: 6,
        seed: 5,
        ..ImiConfig::default()
    };
    assert_roundtrip_identical(
        &InvertedMultiIndex::build(&data, cfg).unwrap(),
        &data,
        &cfg,
        &dir,
    );

    let cfg = HnswConfig {
        m: 6,
        ef_construction: 48,
        seed: 6,
    };
    assert_roundtrip_identical(&Hnsw::build(&data, cfg).unwrap(), &data, &cfg, &dir);

    let cfg = QalshConfig {
        num_hashes: 16,
        collision_threshold: 4,
        seed: 7,
        ..QalshConfig::default()
    };
    assert_roundtrip_identical(&Qalsh::build(&data, cfg).unwrap(), &data, &cfg, &dir);

    // FLANN, both inner algorithms.
    for force in [
        hydra::FlannAlgorithm::RandomizedKdTrees,
        hydra::FlannAlgorithm::HierarchicalKMeans,
    ] {
        let cfg = FlannConfig {
            force: Some(force),
            ..FlannConfig::default()
        };
        let dir = temp_dir(&format!("flann-{force:?}"));
        assert_roundtrip_identical(&Flann::build(&data, cfg).unwrap(), &data, &cfg, &dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Loads one snapshot twice — resident and file-backed — at the given
/// buffer-pool geometry and proves the two indistinguishable over a whole
/// workload: same neighbors (bit-for-bit distances), same per-query
/// `QueryStats` (the shared accounting contract), same accuracy.
fn assert_file_backed_load_identical<T>(
    snapshot: &Path,
    data_snapshot: &Path,
    data: &Dataset,
    config: &T::Config,
) where
    T: AnnIndex + PersistentIndex,
{
    let resident = T::load_backed(snapshot, data, config, StoreBacking::Resident)
        .unwrap_or_else(|e| panic!("{}: resident load failed: {e}", T::KIND));
    let filed = T::load_backed(
        snapshot,
        data,
        config,
        StoreBacking::FileBacked {
            dataset_snapshot: Some(data_snapshot),
        },
    )
    .unwrap_or_else(|e| panic!("{}: file-backed load failed: {e}", T::KIND));

    let workload = hydra::data::noisy_queries(data, 8, &[0.0, 0.2], 777);
    let k = 10;
    let caps = resident.capabilities();
    let mut params = vec![SearchParams::ng(k, 16)];
    if caps.exact {
        params.push(SearchParams::exact(k));
    }
    if caps.delta_epsilon_approximate {
        params.push(SearchParams::delta_epsilon(k, 0.9, 1.0));
    }
    for p in &params {
        for query in workload.iter() {
            let a = resident.search(query, p).unwrap();
            let b = filed.search(query, p).unwrap();
            // The shared accounting contract: identical across backings.
            common::assert_same_answer(T::KIND, &b, &a, common::StatsMatch::Full);
        }
        let truth = hydra::data::ground_truth(data, &workload, k);
        let ra = hydra::eval::run_workload(&resident, &workload, &truth, p);
        let rb = hydra::eval::run_workload(&filed, &workload, &truth, p);
        assert_eq!(ra.accuracy, rb.accuracy, "{}: accuracy drifted", T::KIND);
    }
}

/// Every disk-capable method of the zoo, loaded file-backed and proven
/// byte-identical to the resident load of the same snapshot, at pool sizes
/// {1 page, ~dataset/2, effectively-infinite}. Small pages force real
/// multi-page traffic and eviction at the small pools.
#[test]
fn disk_capable_zoo_loads_file_backed_identically_at_every_pool_size() {
    let dir = temp_dir("file-backed-zoo");
    let data = hydra::data::random_walk(500, 32, 515);
    let data_snapshot = dir.join("walk.data.snap");
    hydra::persist::dataset::save_dataset(&data, &data_snapshot).unwrap();
    // 500 series × 32 × 4 B = 64 000 B of raw data; 4 KiB pages → ~16 pages.
    let pools = [1usize, 8, usize::MAX / 2];
    let page_bytes = 4096;

    let base = StorageConfig {
        page_bytes,
        buffer_pool_pages: 1,
        codec: hydra::PageCodec::F32,
        io: hydra::FileIoMode::Pread,
    };
    let dstree_cfg = DsTreeConfig {
        leaf_capacity: 32,
        storage: base,
        histogram_samples: 2_000,
        seed: 1,
        ..DsTreeConfig::default()
    };
    let isax_cfg = IsaxConfig {
        leaf_capacity: 32,
        storage: base,
        histogram_samples: 2_000,
        seed: 2,
        ..IsaxConfig::default()
    };
    let va_cfg = VaPlusFileConfig {
        storage: base,
        histogram_samples: 2_000,
        seed: 3,
        ..VaPlusFileConfig::default()
    };
    let srs_cfg = SrsConfig {
        projected_dims: 8,
        storage: base,
        seed: 4,
        ..SrsConfig::default()
    };
    DsTree::build(&data, dstree_cfg)
        .unwrap()
        .save(&dir.join("walk-dstree.snap"))
        .unwrap();
    Isax2Plus::build(&data, isax_cfg)
        .unwrap()
        .save(&dir.join("walk-isax2.snap"))
        .unwrap();
    VaPlusFile::build(&data, va_cfg)
        .unwrap()
        .save(&dir.join("walk-vafile.snap"))
        .unwrap();
    Srs::build(&data, srs_cfg)
        .unwrap()
        .save(&dir.join("walk-srs.snap"))
        .unwrap();

    for pool in pools {
        let storage = StorageConfig {
            page_bytes,
            buffer_pool_pages: pool,
            codec: hydra::PageCodec::F32,
            io: hydra::FileIoMode::Pread,
        };
        assert_file_backed_load_identical::<DsTree>(
            &dir.join("walk-dstree.snap"),
            &data_snapshot,
            &data,
            &DsTreeConfig { storage, ..dstree_cfg },
        );
        assert_file_backed_load_identical::<Isax2Plus>(
            &dir.join("walk-isax2.snap"),
            &data_snapshot,
            &data,
            &IsaxConfig { storage, ..isax_cfg },
        );
        assert_file_backed_load_identical::<VaPlusFile>(
            &dir.join("walk-vafile.snap"),
            &data_snapshot,
            &data,
            &VaPlusFileConfig { storage, ..va_cfg },
        );
        assert_file_backed_load_identical::<Srs>(
            &dir.join("walk-srs.snap"),
            &data_snapshot,
            &data,
            &SrsConfig { storage, ..srs_cfg },
        );
    }

    // The same snapshots also travel through the type-erased registry path
    // a server boots with: answers at pool size 1 equal answers at ∞.
    let mut registry = hydra::persist::LoaderRegistry::new();
    registry.register::<DsTree>(DsTreeConfig {
        storage: StorageConfig {
            page_bytes,
            buffer_pool_pages: 1,
            codec: hydra::PageCodec::F32,
            io: hydra::FileIoMode::Pread,
        },
        ..dstree_cfg
    });
    let tiny = registry
        .load_any_backed(
            &dir.join("walk-dstree.snap"),
            &data,
            StoreBacking::FileBacked {
                dataset_snapshot: Some(&data_snapshot),
            },
        )
        .unwrap();
    let resident = DsTree::load(&dir.join("walk-dstree.snap"), &data, &dstree_cfg).unwrap();
    let q = data.series(17);
    assert_eq!(
        tiny.search(q, &SearchParams::exact(5)).unwrap().neighbors,
        resident.search(q, &SearchParams::exact(5)).unwrap().neighbors,
    );
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
