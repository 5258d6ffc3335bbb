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

use hydra::persist::backing::with_batch_workers;
use hydra::prelude::*;
use hydra::StoreBacking;
use hydra_serve::{boot_from_dir, boot_from_dir_with, BootOptions, ServeClient, Server, ServerConfig};

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
    let (data, data_snapshot) = ooc_scenario(&dir);
    let config = DsTreeConfig {
        storage: StorageConfig::on_disk().with_pool_pages(1),
        histogram_samples: 2_000,
        seed: 3,
        ..DsTreeConfig::default()
    };
    let built = DsTree::build(&data, config).unwrap();
    let snapshot = dir.join("walk-dstree.snap");
    built.save(&snapshot).unwrap();
    let filed = DsTree::load_backed(
        &snapshot,
        &data,
        &config,
        StoreBacking::FileBacked {
            dataset_snapshot: Some(&data_snapshot),
        },
    )
    .unwrap();
    assert!(filed.store().is_file_backed());

    let workload = hydra::data::noisy_queries(&data, 12, &[0.0, 0.2], 99);
    let truth = hydra::data::ground_truth(&data, &workload, 10);
    for params in [SearchParams::exact(10), SearchParams::ng(10, 8)] {
        let baseline = hydra::eval::run_workload(&built, &workload, &truth, &params);
        for threads in [1usize, 2, 4] {
            let report =
                hydra::eval::run_workload_parallel(&filed, &workload, &truth, &params, threads);
            assert_eq!(
                report.accuracy, baseline.accuracy,
                "file-backed accuracy drifted at {threads} threads ({params:?})"
            );
            // CPU-side work is pool-independent and must not move either;
            // only the I/O-operation split may shift with interleaving
            // (same caveat as the resident store under parallelism).
            assert_eq!(
                report.stats.distance_computations, baseline.stats.distance_computations,
                "distance computations drifted at {threads} threads"
            );
            assert_eq!(report.stats.bytes_read, baseline.stats.bytes_read);
        }
    }
    // The thrashing pool really evicted (the dataset is ~5× its capacity).
    let io = filed.store().io_snapshot();
    assert!(io.pool_evictions > 0, "no eviction traffic: {io:?}");
    assert!(io.pool_misses > 0);
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

    let k = 10;
    let workload = hydra::data::noisy_queries(data, 10, &[0.0, 0.2], 33);
    let truth = hydra::data::ground_truth(data, &workload, k);
    for served in &resident.indexes {
        let caps = served.index.capabilities();
        let mut settings = vec![SearchParams::ng(k, 16)];
        if caps.exact {
            settings.push(SearchParams::exact(k));
        }
        for params in &settings {
            let answers = common::replay(addr, &served.name, params, &workload, 3);
            let mut per_query = Vec::with_capacity(workload.len());
            for (q, query) in workload.iter().enumerate() {
                let offline = served.index.search(query, params).unwrap();
                let wire = &answers[q];
                assert_eq!(
                    wire.len(),
                    offline.neighbors.len(),
                    "{} {params:?} query {q}: answer size drifted out-of-core",
                    served.name
                );
                for (a, b) in wire.iter().zip(offline.neighbors.iter()) {
                    assert_eq!(a.index, b.index, "{} query {q}: neighbor drifted", served.name);
                    assert_eq!(
                        a.distance.to_bits(),
                        b.distance.to_bits(),
                        "{} query {q}: distance drifted",
                        served.name
                    );
                }
                let answer_truth = &truth.answers[q];
                per_query.push((
                    hydra::eval::recall(wire, answer_truth),
                    hydra::eval::average_precision(wire, answer_truth),
                    hydra::eval::mean_relative_error(wire, answer_truth),
                ));
            }
            let served_accuracy = hydra::eval::AccuracySummary::from_queries(&per_query);
            let offline_report =
                hydra::eval::run_workload(served.index.as_ref(), &workload, &truth, params);
            assert_eq!(
                served_accuracy, offline_report.accuracy,
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
    let dir = common::temp_dir("ooc-codec-matrix");
    let (data, data_snapshot) = ooc_scenario(&dir);
    // One scan-shaped refiner (DSTree: contiguous leaf runs through
    // `scan_refine`) and one candidate-shaped refiner (VA+file: per-record
    // `refine`) cover both coded read paths.
    let dstree_base = DsTreeConfig {
        storage: StorageConfig::on_disk(),
        histogram_samples: 2_000,
        seed: 3,
        ..DsTreeConfig::default()
    };
    let vafile_base = VaPlusFileConfig {
        storage: StorageConfig::on_disk(),
        seed: 3,
        ..VaPlusFileConfig::default()
    };
    let dstree_snap = dir.join("walk-dstree.snap");
    DsTree::build(&data, dstree_base).unwrap().save(&dstree_snap).unwrap();
    let vafile_snap = dir.join("walk-vafile.snap");
    VaPlusFile::build(&data, vafile_base).unwrap().save(&vafile_snap).unwrap();

    let workload = hydra::data::noisy_queries(&data, 8, &[0.0, 0.2], 17);
    let truth = hydra::data::ground_truth(&data, &workload, 10);
    let settings = [SearchParams::exact(10), SearchParams::ng(10, 8)];

    // The resident-f32 twin is the answer oracle: every matrix cell must
    // reproduce its neighbors *and* distance bits exactly.
    let baseline_answers = |index: &dyn hydra::AnnIndex| -> Vec<Vec<(usize, u32)>> {
        settings
            .iter()
            .flat_map(|params| {
                workload.iter().map(move |q| {
                    index
                        .search(q, params)
                        .unwrap()
                        .neighbors
                        .iter()
                        .map(|n| (n.index, n.distance.to_bits()))
                        .collect()
                })
            })
            .collect()
    };
    let dstree_resident = DsTree::load_backed(
        &dstree_snap,
        &data,
        &dstree_base,
        StoreBacking::Resident,
    )
    .unwrap();
    let vafile_resident =
        VaPlusFile::load_backed(&vafile_snap, &data, &vafile_base, StoreBacking::Resident)
            .unwrap();
    let oracle_dstree = baseline_answers(&dstree_resident);
    let oracle_vafile = baseline_answers(&vafile_resident);

    // bytes_read per codec for the thrashing single-page pool, collected
    // from the matrix sweep below (threads = 1 cell, file-backed).
    let mut dstree_bytes = std::collections::HashMap::new();
    for codec in [
        hydra::PageCodec::F32,
        hydra::PageCodec::U8,
        hydra::PageCodec::F16,
    ] {
        for pool in [1usize, 4] {
            let storage = StorageConfig::on_disk().with_pool_pages(pool).with_page_codec(codec);
            let dstree_cfg = DsTreeConfig { storage, ..dstree_base };
            let vafile_cfg = VaPlusFileConfig { storage, ..vafile_base };
            let backing = StoreBacking::FileBacked {
                dataset_snapshot: Some(&data_snapshot),
            };
            let dstree = DsTree::load_backed(&dstree_snap, &data, &dstree_cfg, backing).unwrap();
            let vafile =
                VaPlusFile::load_backed(&vafile_snap, &data, &vafile_cfg, backing).unwrap();
            assert_eq!(
                baseline_answers(&dstree),
                oracle_dstree,
                "dstree answers drifted ({codec:?}, pool {pool})"
            );
            assert_eq!(
                baseline_answers(&vafile),
                oracle_vafile,
                "va+file answers drifted ({codec:?}, pool {pool})"
            );
            // Parallel serving over the coded tier: accuracy and CPU-side
            // counters must match the sequential run exactly.
            for params in &settings {
                let seq = hydra::eval::run_workload(&dstree, &workload, &truth, params);
                for threads in [1usize, 4] {
                    let par = hydra::eval::run_workload_parallel(
                        &dstree, &workload, &truth, params, threads,
                    );
                    assert_eq!(
                        par.accuracy, seq.accuracy,
                        "accuracy drifted ({codec:?}, pool {pool}, {threads} threads)"
                    );
                    assert_eq!(
                        par.stats.distance_computations,
                        seq.stats.distance_computations
                    );
                    assert_eq!(par.stats.bytes_read, seq.stats.bytes_read);
                }
            }
            if pool == 1 {
                dstree_bytes.insert(codec.name(), dstree.store().io_snapshot());
            }
        }
    }
    // Equal pool, same access pattern, smaller pages: the coded tiers move
    // genuinely fewer bytes, u8 at least 3× fewer than raw f32 pages, and
    // the coded traffic is broken out in its own counter.
    let raw = &dstree_bytes["f32"];
    let u8s = &dstree_bytes["u8"];
    let f16 = &dstree_bytes["f16"];
    assert!(
        u8s.bytes_read * 3 <= raw.bytes_read,
        "u8 pages read {} bytes vs raw {}",
        u8s.bytes_read,
        raw.bytes_read
    );
    assert!(f16.bytes_read < raw.bytes_read);
    assert!(u8s.bytes_read < f16.bytes_read);
    assert_eq!(raw.compressed_bytes_read, 0);
    assert!(u8s.compressed_bytes_read > 0);
    assert!(u8s.compressed_bytes_read <= u8s.bytes_read);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backing_matrix_is_bit_identical_to_resident_across_pools_and_threads() {
    let dir = common::temp_dir("ooc-backing-matrix");
    let (data, data_snapshot) = ooc_scenario(&dir);
    let seed = 5;
    let on_disk = hydra::StorageConfig::on_disk();
    let workload = hydra::data::noisy_queries(&data, 8, &[0.0, 0.2], 21);
    let truth = hydra::data::ground_truth(&data, &workload, 10);

    // Pool axis: a thrashing single page, half the dataset's pages, and a
    // pool the dataset fits in entirely.
    let total_pages = (data.len() * data.series_len() * 4).div_ceil(on_disk.page_bytes);
    let pools = [1usize, (total_pages / 2).max(1), total_pages * 4];

    let on_disk_rows = |method: &hydra::Method| method.in_scenario(false, data.series_len());
    let visited = common::for_each_method(&hydra::zoo(on_disk, seed), on_disk_rows, |method| {
        let name = method.kind();
        let snapshot = common::snapshot_path(&dir, "walk", name);
        method.build(&data).unwrap().save(&snapshot).unwrap();
        // One loader, generic over the serving knobs (pool, backing
        // transfer mode) that must never leak into answers.
        let load = |storage, backing| {
            hydra::standard_registry(storage, seed)
                .load_any_backed(&snapshot, &data, backing)
                .unwrap()
        };
        let resident = load(on_disk, StoreBacking::Resident);
        let caps = resident.capabilities();
        let mut settings = vec![SearchParams::ng(10, 8)];
        if caps.exact {
            settings.push(SearchParams::exact(10));
        }
        // The resident twin is the oracle: neighbors, distance bits and the
        // logical bytes_read of every query, plus the workload-level
        // accuracy/CPU report.
        let oracle: Vec<Vec<(Vec<(usize, u32)>, u64)>> = settings
            .iter()
            .map(|params| {
                workload
                    .iter()
                    .map(|q| {
                        let r = resident.search(q, params).unwrap();
                        (
                            r.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect(),
                            r.stats.bytes_read,
                        )
                    })
                    .collect()
            })
            .collect();
        let oracle_reports: Vec<_> = settings
            .iter()
            .map(|params| hydra::eval::run_workload(resident.as_ref(), &workload, &truth, params))
            .collect();

        for io in [hydra::FileIoMode::Pread, hydra::FileIoMode::Mmap] {
            for &pool in &pools {
                let cell = format!("{name} ({} backing, pool {pool})", io.name());
                let filed = load(
                    on_disk.with_pool_pages(pool).with_io_mode(io),
                    StoreBacking::FileBacked {
                        dataset_snapshot: Some(&data_snapshot),
                    },
                );
                for (s, params) in settings.iter().enumerate() {
                    for (qi, q) in workload.iter().enumerate() {
                        let r = filed.search(q, params).unwrap();
                        let got: Vec<(usize, u32)> =
                            r.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect();
                        assert_eq!(
                            got, oracle[s][qi].0,
                            "{cell} {params:?} query {qi}: neighbors/distances drifted"
                        );
                        assert_eq!(
                            r.stats.bytes_read, oracle[s][qi].1,
                            "{cell} {params:?} query {qi}: logical bytes_read drifted"
                        );
                    }
                    for threads in [1usize, 4] {
                        let par = hydra::eval::run_workload_parallel(
                            filed.as_ref(),
                            &workload,
                            &truth,
                            params,
                            threads,
                        );
                        assert_eq!(
                            par.accuracy, oracle_reports[s].accuracy,
                            "{cell} {params:?}: accuracy drifted at {threads} threads"
                        );
                        assert_eq!(
                            par.stats.distance_computations,
                            oracle_reports[s].stats.distance_computations,
                            "{cell} {params:?}: CPU work drifted at {threads} threads"
                        );
                        assert_eq!(
                            par.stats.bytes_read, oracle_reports[s].stats.bytes_read,
                            "{cell} {params:?}: bytes_read drifted at {threads} threads"
                        );
                    }
                }
            }
        }
    });
    assert_eq!(visited, 5, "the whole on-disk scenario");
    std::fs::remove_dir_all(&dir).ok();
}

/// Worker counts every batch test runs at, whatever the host's core count.
const BATCH_WORKERS: [usize; 3] = [1, 2, 4];

/// A batched answer against the per-query `search` answer: neighbor ids
/// and distance bits, and the logical counters — everything but the
/// I/O-operation split, which depends on the shared pool's state.
fn assert_same_answer(cell: &str, got: &hydra::SearchResult, want: &hydra::SearchResult) {
    let bits = |r: &hydra::SearchResult| -> Vec<(usize, u32)> {
        r.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect()
    };
    assert_eq!(bits(got), bits(want), "{cell}: neighbors/distances drifted");
    let logical = |r: &hydra::SearchResult| {
        let s = &r.stats;
        (s.bytes_read, s.distance_computations, s.lower_bound_computations, s.leaves_visited)
    };
    assert_eq!(logical(got), logical(want), "{cell}: logical counters drifted");
}

/// The batch contract of a disk index over a store larger than its pool,
/// at every worker count: a batch whose middle query has the wrong length
/// errs at that position only, and the other answers equal per-query
/// `search`. On one worker the batch *is* the per-query loop, I/O
/// included: the store's counters after it equal the loop's on every
/// field.
fn assert_batch_is_the_query_loop(
    name: &str,
    index: &dyn hydra::AnnIndex,
    store: &hydra::storage::SeriesStore,
    data: &hydra::Dataset,
    params: &SearchParams,
) {
    assert!(store.is_file_backed(), "{name}: only a file-backed batch fans out");
    // A far-away query defeats pruning (every leaf looks equally
    // promising), so its search genuinely sweeps the collection.
    let far = vec![100.0f32; data.series_len()];
    let bad = vec![0.0f32; data.series_len() - 1];
    let batch: Vec<&[f32]> = vec![data.series(3), &far, &bad, data.series(3), &far];

    store.reset_io();
    let individual: Vec<_> = batch.iter().map(|q| index.search(q, params)).collect();
    let loop_io = store.io_snapshot();
    assert!(loop_io.pool_evictions > 0, "{name}: the pool must thrash");

    for workers in BATCH_WORKERS {
        store.reset_io();
        let results = with_batch_workers(workers, || index.search_batch(&batch, params));
        let batch_io = store.io_snapshot();
        assert_eq!(results.len(), batch.len());
        for (q, (got, want)) in results.iter().zip(&individual).enumerate() {
            let cell = format!("{name} query {q} at {workers} workers");
            match want {
                Ok(want) => {
                    let got = got.as_ref().unwrap_or_else(|e| panic!("{cell}: {e}"));
                    assert_same_answer(&cell, got, want);
                }
                Err(_) => assert!(q == 2 && got.is_err(), "{cell}: only query 2 may fail"),
            }
        }
        assert!(results[2].is_err(), "{name}: the malformed query fails in place");
        if workers == 1 {
            assert_eq!(batch_io, loop_io, "{name}: a one-worker batch moved the store counters");
        }
    }
}

#[test]
fn batch_search_on_one_worker_is_the_query_loop_io_included() {
    let dir = common::temp_dir("ooc-batch");
    let (data, data_snapshot) = ooc_scenario(&dir);
    // A 2-page pool against ~5 pages of raw series: an exact search sweeps
    // more pages than the pool holds, so every batch runs under eviction.
    let (storage, seed) = (StorageConfig::on_disk().with_pool_pages(2), 3);
    let backing = StoreBacking::FileBacked {
        dataset_snapshot: Some(&data_snapshot),
    };
    let params = SearchParams::exact(10);
    // (Typed, for `store()`: the zoo's rows under this test's pool.)
    let snapshot = dir.join("walk-dstree.snap");
    let dstree_config = DsTreeConfig {
        storage,
        histogram_samples: 2_000,
        seed,
        ..DsTreeConfig::default()
    };
    DsTree::build(&data, dstree_config).unwrap().save(&snapshot).unwrap();
    let dstree = DsTree::load_backed(&snapshot, &data, &dstree_config, backing).unwrap();
    assert_batch_is_the_query_loop("dstree", &dstree, dstree.store(), &data, &params);
    let snapshot = dir.join("walk-isax2.snap");
    let isax_config = IsaxConfig { storage, seed, ..IsaxConfig::default() };
    Isax2Plus::build(&data, isax_config).unwrap().save(&snapshot).unwrap();
    let isax = Isax2Plus::load_backed(&snapshot, &data, &isax_config, backing).unwrap();
    assert_batch_is_the_query_loop("isax2", &isax, isax.store(), &data, &params);
    let snapshot = dir.join("walk-vafile.snap");
    let vafile_config = VaPlusFileConfig { storage, seed, ..VaPlusFileConfig::default() };
    VaPlusFile::build(&data, vafile_config).unwrap().save(&snapshot).unwrap();
    let vafile = VaPlusFile::load_backed(&snapshot, &data, &vafile_config, backing).unwrap();
    assert_batch_is_the_query_loop("vafile", &vafile, vafile.store(), &data, &params);
    let snapshot = dir.join("walk-srs.snap");
    let srs_config = SrsConfig { storage, seed, ..SrsConfig::default() };
    Srs::build(&data, srs_config).unwrap().save(&snapshot).unwrap();
    let srs = Srs::load_backed(&snapshot, &data, &srs_config, backing).unwrap();
    let ng = SearchParams::ng(10, 16);
    assert_batch_is_the_query_loop("srs", &srs, srs.store(), &data, &ng);
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
