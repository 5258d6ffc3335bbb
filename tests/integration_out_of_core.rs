//! Out-of-core acceptance tests: a dataset whose raw series exceed the
//! configured buffer pool is built, snapshotted, loaded **file-backed**,
//! and served — concurrently and over a live `hydra-serve` session — with
//! answers byte-identical to the resident path, while the pool's
//! hit/miss/eviction counters show genuine eviction traffic.
//!
//! The standard-config snapshot directory comes from
//! [`common::on_disk_zoo`] (built once per process, shared read-only);
//! tests that need bespoke storage configs or that mutate their directory
//! (sidecar materialization from a cold start) keep private temp dirs.

mod common;

use std::path::Path;
use std::time::Duration;

use hydra::prelude::*;
use hydra::FileIoMode::Pread;
use hydra::StoreBacking;
use hydra_serve::{boot_from_dir, boot_from_dir_with, BootOptions, ServeClient, Server, ServerConfig};

use common::{assert_equivalent, Load, Variant, Zoo};

/// Saves the out-of-core dataset's snapshot into `dir` and returns the
/// dataset plus the snapshot path — the raw series (≈ 300 KiB) are ~5× a
/// default 64 KiB page, the genuinely disk-resident regime.
fn ooc_scenario(dir: &Path) -> (hydra::Dataset, std::path::PathBuf) {
    let data = common::ooc_dataset();
    let data_snapshot = dir.join("walk.data.snap");
    hydra::persist::dataset::save_dataset(&data, &data_snapshot).unwrap();
    (data, data_snapshot)
}

#[test]
fn parallel_workloads_over_a_file_backed_store_are_deterministic() {
    let dir = common::temp_dir("ooc-parallel");
    let zoo = Zoo::new(StorageConfig::on_disk(), 3);
    for threads in [1, 2] {
        let v = Variant { load: Load::file(1), threads, ..Variant::of("dstree") };
        let filed = assert_equivalent(&zoo, &common::ooc_dataset(), &v, &dir);
        // The thrashing pool really evicted (the dataset is ~5× its capacity).
        let io = filed.store_counters().unwrap();
        assert!(io.pool_evictions > 0 && io.pool_misses > 0, "{v}: no eviction traffic: {io:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backed_eviction_traffic_is_real_and_pinned() {
    let dir = common::temp_dir("ooc-evictions");
    let data = hydra::data::random_walk(256, 16, 4242);
    let data_snapshot = dir.join("walk.data.snap");
    hydra::persist::dataset::save_dataset(&data, &data_snapshot).unwrap();
    // 2 series per page (128 B pages), pool of 4 pages = 8 of 256 series.
    let config = SrsConfig {
        projected_dims: 8,
        storage: StorageConfig {
            page_bytes: 128,
            buffer_pool_pages: 4,
            codec: hydra::PageCodec::F32,
            io: hydra::FileIoMode::Pread,
        },
        seed: 7,
        ..SrsConfig::default()
    };
    let snapshot = dir.join("walk-srs.snap");
    Srs::build(&data, config).unwrap().save(&snapshot).unwrap();
    let filed = Srs::load_backed(
        &snapshot,
        &data,
        &config,
        StoreBacking::FileBacked {
            dataset_snapshot: Some(&data_snapshot),
        },
    )
    .unwrap();

    // A full sweep in record order: 128 pages through a 4-page pool.
    let mut stats = hydra::QueryStats::new();
    let store = filed.store();
    store.read_range(0, 256, &mut stats, &mut |_, _| {});
    let io = store.io_snapshot();
    assert_eq!(io.pool_misses, 128, "every page is cold exactly once");
    assert_eq!(io.pool_hits, 0);
    assert_eq!(io.pool_evictions, 128 - 4, "all but the pool's capacity evicted");
    assert_eq!(io.bytes_read, 256 * 16 * 4, "every raw byte transferred once");
    assert_eq!(stats.random_ios, 1);
    assert_eq!(stats.sequential_ios, 127);
    // Sweep again: the pool holds the *last* 4 pages, the scan starts at
    // page 0 — LRU gives zero hits on a cyclic scan larger than the cache.
    store.read_range(0, 256, &mut stats, &mut |_, _| {});
    let io = store.io_snapshot();
    assert_eq!(io.pool_misses, 256);
    assert_eq!(io.pool_hits, 0);
    assert_eq!(io.bytes_read, 2 * 256 * 16 * 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hydra_serve_over_a_file_backed_boot_answers_byte_identically() {
    let zoo = common::on_disk_zoo();
    let (dir, data) = (&zoo.dir, &zoo.data);
    let seed = 5;

    // Offline twin: resident boot under the default pool. Server: the same
    // snapshots booted file-backed behind a single-page pool — the raw
    // series are ~5× the cache.
    let resident = boot_from_dir(dir, &hydra::standard_registry(hydra::StorageConfig::on_disk(), seed)).unwrap();
    let ooc_registry = hydra::standard_registry(hydra::StorageConfig::on_disk().with_pool_pages(1), seed);
    let booted = boot_from_dir_with(
        dir,
        &ooc_registry,
        BootOptions { file_backed: true },
    )
    .unwrap();
    assert_eq!(booted.indexes.len(), 5);
    let handle = Server::spawn(
        booted.indexes,
        "127.0.0.1:0",
        ServerConfig {
            batch_window: Duration::from_millis(2),
            max_batch: 16,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    let workload = hydra::data::noisy_queries(data, 10, &[0.0, 0.2], 33);
    let truth = hydra::data::ground_truth(data, &workload, common::K);
    for served in &resident.indexes {
        let whole = Variant::of(served.index.name());
        for params in &common::settings(served.index.capabilities(), &whole) {
            let answers = common::replay(addr, &served.name, params, &workload, 3);
            for (q, query) in workload.iter().enumerate() {
                let offline = served.index.search(query, params).unwrap();
                let context = format!("{} {params:?} query {q} out-of-core", served.name);
                common::assert_same_neighbors(&context, &answers[q], &offline.neighbors);
            }
            let offline_report =
                hydra::eval::run_workload(served.index.as_ref(), &workload, &truth, params);
            assert_eq!(
                common::accuracy(answers.iter().map(Vec::as_slice), &truth),
                offline_report.accuracy,
                "{} {params:?}: accuracy drifted between file-backed serving and offline",
                served.name
            );
        }
    }

    let mut control = ServeClient::connect(addr).unwrap();
    control.shutdown().unwrap();
    drop(control);
    let stats = handle.join();
    assert!(stats.queries > 0);
}

#[test]
fn page_codec_matrix_answers_bit_identically_and_cuts_read_traffic() {
    // One scan-shaped refiner (DSTree: contiguous leaf runs through
    // `scan_refine`) and one candidate-shaped refiner (VA+file: per-record
    // `refine`) cover both coded read paths.
    let (dir, zoo) = (common::temp_dir("ooc-codec-matrix"), Zoo::new(StorageConfig::on_disk(), 3));
    let mut dstree_io = std::collections::HashMap::new();
    for row in ["dstree", "va+file"] {
        for codec in [hydra::PageCodec::F32, hydra::PageCodec::U8, hydra::PageCodec::F16] {
            for pool in [1, 4] {
                let v = Variant { load: Load::File { pool, io: Pread, codec }, ..Variant::of(row) };
                let filed = assert_equivalent(&zoo, &common::ooc_dataset(), &v, &dir);
                if (row, pool) == ("dstree", 1) {
                    dstree_io.insert(codec.name(), filed.store_counters().unwrap());
                }
            }
        }
    }
    // Equal pool, same access pattern, smaller pages: the coded tiers move
    // genuinely fewer bytes, u8 at least 3× fewer than raw f32 pages, and
    // the coded traffic is broken out in its own counter.
    let (raw, u8s, f16) = (&dstree_io["f32"], &dstree_io["u8"], &dstree_io["f16"]);
    assert!(u8s.bytes_read * 3 <= raw.bytes_read, "u8 read {u8s:?}, raw {raw:?}");
    assert!(u8s.bytes_read < f16.bytes_read && f16.bytes_read < raw.bytes_read);
    assert_eq!(raw.compressed_bytes_read, 0);
    assert!(u8s.compressed_bytes_read > 0 && u8s.compressed_bytes_read <= u8s.bytes_read);
    assert!(f16.compressed_bytes_read > 0 && f16.compressed_bytes_read <= f16.bytes_read);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backing_matrix_is_bit_identical_to_resident_across_pools_and_threads() {
    let (dir, zoo) = (common::temp_dir("ooc-backing-matrix"), Zoo::new(StorageConfig::on_disk(), 5));
    let data = common::ooc_dataset();
    // The shared fixture is this zoo saved over this data: its snapshots are
    // the builds the engine would make (IMI's dominates the debug suite).
    let whole = dir.join("whole/shard-0");
    std::fs::create_dir_all(&whole).unwrap();
    for entry in std::fs::read_dir(common::on_disk_zoo().dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "snap") {
            std::fs::copy(&path, whole.join(path.file_name().unwrap())).unwrap();
        }
    }
    // A thrashing single page, half the dataset's pages, and all of them.
    let pages = (data.len() * data.series_len() * 4).div_ceil(zoo.storage.page_bytes);
    for (method, _) in zoo.rows(data.series_len(), 5, |caps| caps.disk_resident) {
        for io in [Pread, hydra::FileIoMode::Mmap] {
            for pool in [1, (pages / 2).max(1), pages * 4] {
                let load = Load::File { pool, io, codec: hydra::PageCodec::F32 };
                assert_equivalent(&zoo, &data, &Variant { load, ..Variant::of(method.kind()) }, &dir);
            }
        }
        // Batches through the thrashing pool at every worker count: on one
        // worker the batch is the query loop, store counters included.
        for workers in [1, 2, 4] {
            let v = Variant { load: Load::file(1), batch: Some((5, workers)), ..Variant::of(method.kind()) };
            let io = assert_equivalent(&zoo, &data, &v, &dir).store_counters(); // IMI keeps none
            assert!(io.is_none_or(|io| io.pool_evictions > 0), "{v}: the pool must thrash");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_core_boot_writes_reusable_sidecars_for_tree_indexes() {
    // Private dir: this test asserts sidecar materialization from a cold
    // start, so it must not share a directory other boots already warmed.
    let dir = common::temp_dir("ooc-sidecars");
    let (data, _) = ooc_scenario(&dir);
    let zoo = hydra::zoo(hydra::StorageConfig::on_disk(), 5);
    let saved = common::for_each_method(&zoo, |method| method.kind() == "isax2+", |method| {
        let snapshot = common::snapshot_path(&dir, "walk", method.kind());
        method.build(&data).unwrap().save(&snapshot).unwrap();
    });
    assert_eq!(saved, 1);
    let registry = hydra::standard_registry(hydra::StorageConfig::on_disk().with_pool_pages(1), 5);
    let options = BootOptions { file_backed: true };
    boot_from_dir_with(&dir, &registry, options).unwrap();
    let sidecar = dir.join("walk-isax2.snap.series");
    assert!(
        sidecar.exists(),
        "a file-backed boot materializes the leaf-ordered flat file once"
    );
    let first = std::fs::read(&sidecar).unwrap();
    // A second boot reuses the verified sidecar byte-for-byte.
    boot_from_dir_with(&dir, &registry, options).unwrap();
    assert_eq!(std::fs::read(&sidecar).unwrap(), first);
    std::fs::remove_dir_all(&dir).ok();
}

/// The draws' seeds: the axes' stream is the first whose sixteen draws hold
/// a sharded × grown and a grown × file-backed u8 variant; the batches'
/// stream is the first whose draws hold a file-backed batch on one worker
/// and one on several.
const SEEDS: [u64; 2] = [7, 1];

/// Sixteen variants drawn from a fixed seed over every axis each row
/// supports: the combinations no hand-written matrix reaches.
#[test]
fn composed_draws_hold_every_contract() {
    let dir = common::temp_dir("ooc-draws");
    // 256 × 32 series on 4 KiB pages span 8 of them: small pools evict.
    let storage = StorageConfig { page_bytes: 4096, ..StorageConfig::on_disk() };
    let (zoo, data) = (Zoo::new(storage.with_pool_pages(4), 5), hydra::data::random_walk(256, 32, 77));
    let (rows, mut rng) = (zoo.rows(data.series_len(), 8, |_| true), SEEDS);
    let draws: Vec<Variant> = (0..16).map(|_| common::draw(&mut rng, &rows, data.len())).collect();
    for (i, v) in draws.iter().enumerate() {
        assert_equivalent(&zoo, &data, v, &dir.join(format!("draw-{i}")));
    }
    let u8_file = |v: &Variant| matches!(v.load, Load::File { codec: hydra::PageCodec::U8, .. });
    assert!(draws.iter().any(|v| v.shards.is_some() && v.grow.is_some()), "no sharded × grown draw");
    assert!(draws.iter().any(|v| v.grow.is_some() && u8_file(v)), "no grown × file-backed u8 draw");
    let filed = draws.iter().filter(|v| matches!(v.load, Load::File { .. }));
    let workers: Vec<usize> = filed.map(|v| v.batch.unwrap().1).collect();
    assert!(workers.contains(&1) && workers.iter().any(|&w| w > 1), "file-backed batches at {workers:?} workers");
    std::fs::remove_dir_all(&dir).ok();
}
