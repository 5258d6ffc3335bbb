//! Zoo-wide persistence integration: every index of the study is built,
//! snapshotted, restored in the same process, and must answer a whole
//! workload **identically** to the freshly built instance — same neighbors
//! (bit-for-bit distances), same per-query cost counters, same workload
//! accuracy. This is the acceptance contract of `hydra-persist`: a server
//! booting from snapshots is indistinguishable from one that paid the
//! build.

mod common;

use common::{assert_equivalent, temp_dir, Load, Variant, Zoo};
use hydra::prelude::*;

#[test]
fn every_index_in_the_zoo_roundtrips_identically() {
    let (dir, zoo) = (temp_dir("zoo"), Zoo::new(StorageConfig::in_memory(), 1));
    let data = hydra::data::random_walk(500, 32, 4242);
    // In batches, as a server's batcher asks them (and each query alone).
    let reload = |row, data, dir| {
        let v = Variant { load: Load::Resident, batch: Some((5, 1)), ..Variant::of(row) };
        assert_equivalent(&zoo, data, &v, dir);
    };
    for (method, _) in zoo.rows(data.series_len(), 8, |_| true) {
        reload(method.kind(), &data, &dir);
    }
    // FLANN's row auto-tunes; pin both of its algorithms, each through the
    // input the selection rule picks it for: the 500 series above select
    // the kd-forest, 1000 short ones the k-means tree.
    let short = hydra::data::random_walk(1000, 32, 4243);
    for (data, algorithm) in [
        (&data, hydra::FlannAlgorithm::RandomizedKdTrees),
        (&short, hydra::FlannAlgorithm::HierarchicalKMeans),
    ] {
        assert_eq!(Flann::build(data, FlannConfig::default()).unwrap().algorithm(), algorithm);
    }
    reload("flann", &short, &dir.join("short"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Every disk-capable method of the zoo, loaded file-backed and proven
/// identical to the resident load of the same snapshot, at pool sizes
/// {1 page, ~dataset/2, effectively-infinite} — through the type-erased
/// registry path a server boots with. Small pages force real multi-page
/// traffic and eviction at the small pools.
#[test]
fn disk_capable_zoo_loads_file_backed_identically_at_every_pool_size() {
    let dir = temp_dir("file-backed-zoo");
    let data = hydra::data::random_walk(500, 32, 515);
    // 500 series × 32 × 4 B = 64 000 B of raw data; 4 KiB pages → ~16 pages.
    let zoo = Zoo::new(StorageConfig { page_bytes: 4096, ..StorageConfig::on_disk() }, 1);
    for (method, _) in zoo.rows(data.series_len(), 5, |caps| caps.disk_resident) {
        for pool in [1, 8, usize::MAX / 2] {
            let v = Variant { load: Load::file(pool), ..Variant::of(method.kind()) };
            assert_equivalent(&zoo, &data, &v, &dir);
        }
    }
    // A resident load ignores the pool and the codec: it reads no coded page.
    for codec in [hydra::PageCodec::U8, hydra::PageCodec::F16] {
        let coded = Zoo { storage: zoo.storage.with_pool_pages(1).with_page_codec(codec), ..zoo };
        let v = Variant { load: Load::Resident, ..Variant::of("dstree") };
        let io = assert_equivalent(&coded, &data, &v, &dir).store_counters().unwrap();
        assert_eq!(io.compressed_bytes_read, 0, "{v} under {codec:?} read coded pages");
    }
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
