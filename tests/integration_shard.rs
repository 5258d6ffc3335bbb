//! Partition-equivalence acceptance suite for sharded scale-out (PR 6's
//! tentpole contract): splitting a dataset into `S` shards and searching
//! them through a [`ShardedIndex`] must be **indistinguishable** from
//! searching the unsharded index whenever the search class carries a
//! guarantee —
//!
//! * brute force and every exact-capable method answer **bit-identically**
//!   (same neighbors, same distance bits) at any shard count, either
//!   partition scheme, and any worker-thread count;
//! * ε-approximate search at ε = 0 collapses to exact and must also be
//!   bit-identical;
//! * ng-approximate methods have no such guarantee (the per-shard effort
//!   knob does *more* total work), so their accuracy must stay within
//!   documented bounds: a sharded run may not be meaningfully *worse* than
//!   the unsharded run;
//! * the merged [`hydra::QueryStats`] equal the field-wise sum of the
//!   per-shard searches — work is added, never hidden;
//! * all of the above holds when every shard is served **file-backed**
//!   from per-shard snapshot directories (the multi-process worker
//!   layout), not just resident.

mod common;

use common::Scan;
use hydra::prelude::*;
use hydra::{
    merge_top_k, partition, Capabilities, PartitionScheme, QueryStats, ShardedIndex, StoreBacking,
};

fn sharded_scan(
    data: &hydra::Dataset,
    scheme: PartitionScheme,
    num_shards: usize,
) -> ShardedIndex {
    ShardedIndex::from_partition(data, scheme, num_shards, |shard, _| {
        Ok(Box::new(Scan {
            data: shard.clone(),
        }))
    })
    .unwrap()
}

/// The exact searches a method supports: plain exact, plus ε = 0 when the
/// method carries the ε guarantee (ε = 0 means approximation ratio 1 —
/// the same contract as exact, so the same bit-identity requirement).
fn guaranteed_settings(caps: &Capabilities, k: usize) -> Vec<SearchParams> {
    let mut settings = Vec::new();
    if caps.exact {
        settings.push(SearchParams::exact(k));
        if caps.epsilon_approximate {
            settings.push(SearchParams::epsilon(k, 0.0));
        }
    }
    settings
}

fn assert_bit_identical(
    label: &str,
    params: &SearchParams,
    sharded: &dyn AnnIndex,
    unsharded: &dyn AnnIndex,
    workload: &hydra::data::QueryWorkload,
) {
    for (q, query) in workload.iter().enumerate() {
        let a = sharded.search(query, params).unwrap();
        let b = unsharded.search(query, params).unwrap();
        // Shards each do part of the work: only the answer must match.
        let context = format!("{label} {params:?} query {q}");
        common::assert_same_answer(&context, &a, &b, common::StatsMatch::Ignored);
    }
}

#[test]
fn sharded_scan_is_bit_identical_across_schemes_shard_counts_and_threads() {
    let data = hydra::data::random_walk(301, 24, 31);
    let unsharded = Scan { data: data.clone() };
    let k = 7;
    let workload = hydra::data::noisy_queries(&data, 12, &[0.0, 0.3], 41);
    let truth = hydra::data::ground_truth(&data, &workload, k);
    let params = SearchParams::exact(k);
    let baseline = hydra::eval::run_workload(&unsharded, &workload, &truth, &params);
    assert_eq!(baseline.accuracy.map, 1.0, "brute force must be perfect");

    for scheme in [PartitionScheme::Contiguous, PartitionScheme::Strided] {
        for num_shards in [1usize, 2, 5] {
            let sharded = sharded_scan(&data, scheme, num_shards);
            assert_eq!(sharded.num_series(), data.len());
            assert_eq!(sharded.series_len(), data.series_len());
            let label = format!("scan/{scheme:?}/S={num_shards}");
            assert_bit_identical(&label, &params, &sharded, &unsharded, &workload);

            // Every shard scans all of its series: the merged counters are
            // the whole dataset per query, exactly as unsharded.
            let one = sharded.search(workload.iter().next().unwrap(), &params).unwrap();
            assert_eq!(one.stats.distance_computations, data.len() as u64, "{label}");

            // The whole workload through the threaded runner: accuracy and
            // CPU counters equal the sequential unsharded baseline.
            for threads in [1usize, 4] {
                let report = hydra::eval::run_workload_parallel(
                    &sharded, &workload, &truth, &params, threads,
                );
                assert_eq!(
                    report.accuracy, baseline.accuracy,
                    "{label} accuracy drifted at {threads} threads"
                );
                assert_eq!(
                    report.stats.distance_computations,
                    baseline.stats.distance_computations,
                    "{label} work drifted at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn sharded_zoo_guaranteed_searches_are_bit_identical_to_unsharded() {
    // The unsharded twins come from the shared snapshot fixture (the same
    // directory the serving test boots); the sharded builds are the same
    // rows of the zoo, built per shard.
    let fixture = common::in_memory_zoo();
    let data = &fixture.data;
    let storage = hydra::StorageConfig::in_memory();
    let registry = hydra::standard_registry(storage, 9);
    let k = 10;
    let workload = hydra::data::noisy_queries(data, 10, &[0.0, 0.2], 123);

    let mut checked = 0;
    let in_memory = |method: &hydra::Method| method.in_scenario(true, data.series_len());
    let visited = common::for_each_method(&hydra::zoo(storage, 9), in_memory, |method| {
        let snapshot = common::snapshot_path(&fixture.dir, "zoo", method.kind());
        let unsharded = registry.load_any(&snapshot, data).unwrap();
        let settings = guaranteed_settings(&unsharded.capabilities(), k);
        if settings.is_empty() {
            return; // no guarantee class to hold the method to
        }
        for num_shards in [1usize, 2, 5] {
            let sharded = ShardedIndex::from_partition(
                data,
                PartitionScheme::Contiguous,
                num_shards,
                |shard, _| Ok(method.build(shard)?),
            )
            .unwrap();
            for params in &settings {
                let label = format!("{}/S={num_shards}", method.kind());
                assert_bit_identical(&label, params, &sharded, unsharded.as_ref(), &workload);
                checked += 1;
            }
        }
    });
    assert_eq!(visited, 8, "the guarantee sweep must consider the whole zoo");
    // DSTree, iSAX2+ and VA+file are the exact+ε methods of the zoo:
    // 3 methods × 2 settings × 3 shard counts.
    assert_eq!(checked, 18, "the exact-capable zoo shrank unexpectedly");
}

#[test]
fn sharded_zoo_ng_accuracy_stays_within_documented_bounds() {
    // ng-approximate search has no equivalence guarantee: the effort knob
    // (nprobe / candidates) applies *per shard*, so a sharded run does at
    // least as much work and in practice lands at equal-or-better
    // accuracy. The documented bound: sharding may not cost more than 0.05
    // MAP on this workload.
    let fixture = common::in_memory_zoo();
    let data = &fixture.data;
    let storage = hydra::StorageConfig::in_memory();
    let registry = hydra::standard_registry(storage, 9);
    let k = 10;
    let workload = hydra::data::noisy_queries(data, 10, &[0.0, 0.2], 321);
    let truth = hydra::data::ground_truth(data, &workload, k);
    let params = SearchParams::ng(k, 16);

    let in_memory = |method: &hydra::Method| method.in_scenario(true, data.series_len());
    let visited = common::for_each_method(&hydra::zoo(storage, 9), in_memory, |method| {
        let snapshot = common::snapshot_path(&fixture.dir, "zoo", method.kind());
        let served = registry.load_any(&snapshot, data).unwrap();
        let sharded = ShardedIndex::from_partition(
            data,
            PartitionScheme::Contiguous,
            2,
            |shard, _| Ok(method.build(shard)?),
        )
        .unwrap();
        let unsharded = hydra::eval::run_workload(served.as_ref(), &workload, &truth, &params);
        let shard_run = hydra::eval::run_workload(&sharded, &workload, &truth, &params);
        assert!(
            shard_run.accuracy.map + 0.05 >= unsharded.accuracy.map,
            "{}: sharded ng accuracy fell out of bounds (sharded MAP {} vs unsharded {})",
            method.kind(),
            shard_run.accuracy.map,
            unsharded.accuracy.map
        );
        // Answers stay well-formed after the global remap.
        let answer = sharded.search(workload.iter().next().unwrap(), &params).unwrap();
        assert!(answer.neighbors.len() <= k);
        assert!(answer.neighbors.iter().all(|n| n.index < data.len()));
    });
    assert_eq!(visited, 8, "the ng sweep must cover the whole zoo");
}

#[test]
fn merged_query_stats_equal_the_field_wise_sum_of_per_shard_searches() {
    let data = &common::in_memory_zoo().data;
    let k = 10;
    let workload = hydra::data::noisy_queries(data, 6, &[0.0, 0.2], 55);

    // Two identical sharded builds: one searched through the fan-out, the
    // twin searched shard by shard and merged by hand. Using a fresh twin
    // matters — some stores warm per-instance caches, so re-searching the
    // *same* shards would under-count I/O. A tree and a scan-shaped filter,
    // exact and ng, cover the ways a shard charges its counters.
    let zoo = hydra::zoo(hydra::StorageConfig::in_memory(), 9);
    let tree_and_filter = |method: &hydra::Method| ["dstree", "va+file"].contains(&method.kind());
    let visited = common::for_each_method(&zoo, tree_and_filter, |method| {
        let build = || {
            ShardedIndex::from_partition(data, PartitionScheme::Contiguous, 2, |shard, _| {
                Ok(method.build(shard)?)
            })
            .unwrap()
        };
        for params in [SearchParams::exact(k), SearchParams::ng(k, 16)] {
            let (sharded, twin) = (build(), build());
            for query in workload.iter() {
                let merged = sharded.search(query, &params).unwrap();
                let mut stats = QueryStats::new();
                let mut per_shard = Vec::new();
                for (s, shard) in twin.shards().iter().enumerate() {
                    let result = shard.search(query, &params).unwrap();
                    stats.merge(&result.stats);
                    per_shard.push(
                        result
                            .neighbors
                            .iter()
                            .map(|n| Neighbor::new(twin.map().to_global(s, n.index), n.distance))
                            .collect::<Vec<_>>(),
                    );
                }
                let expected = merge_top_k(params.k, &per_shard);
                let cell = format!("{} {params:?}", method.kind());
                assert_eq!(merged.neighbors, expected, "{cell}: merge drifted");
                assert_eq!(merged.stats, stats, "{cell}: stats are not the per-shard sum");
            }
        }
    });
    assert_eq!(visited, 2);
}

#[test]
fn file_backed_sharded_search_matches_the_resident_unsharded_index() {
    // The multi-process layout, in one process: every shard is saved to
    // its own snapshot directory (what `fig4 --save-index --shards S`
    // writes and a `hydra-serve --shard-role worker` boots), loaded back
    // **file-backed**, and the fan-out over those out-of-core shards must
    // still answer bit-identically to the resident unsharded index.
    let dir = common::temp_dir("shard-filebacked");
    let data = common::ooc_dataset();
    // Typed, for `store()`: the zoo's DSTree row under on-disk storage.
    let config = DsTreeConfig {
        storage: hydra::StorageConfig::on_disk(),
        seed: 5,
        ..DsTreeConfig::default()
    };
    let unsharded = DsTree::build(&data, config).unwrap();
    let k = 10;
    let workload = hydra::data::noisy_queries(&data, 8, &[0.0, 0.2], 66);
    let truth = hydra::data::ground_truth(&data, &workload, k);
    let params = SearchParams::exact(k);
    let baseline = hydra::eval::run_workload(&unsharded, &workload, &truth, &params);

    for num_shards in [2usize, 5] {
        let (map, shards) = partition(&data, PartitionScheme::Contiguous, num_shards).unwrap();
        let mut loaded: Vec<Box<dyn AnnIndex>> = Vec::new();
        for (s, shard_data) in shards.iter().enumerate() {
            let shard_dir = dir.join(format!("s{num_shards}-shard-{s}"));
            std::fs::create_dir_all(&shard_dir).unwrap();
            let data_snapshot = shard_dir.join("walk.data.snap");
            hydra::persist::dataset::save_dataset(shard_data, &data_snapshot).unwrap();
            let snapshot = shard_dir.join("walk-dstree.snap");
            DsTree::build(shard_data, config)
                .unwrap()
                .save(&snapshot)
                .unwrap();
            let filed = DsTree::load_backed(
                &snapshot,
                shard_data,
                &config,
                StoreBacking::FileBacked {
                    dataset_snapshot: Some(&data_snapshot),
                },
            )
            .unwrap();
            assert!(filed.store().is_file_backed());
            loaded.push(Box::new(filed));
        }
        let sharded = ShardedIndex::new(loaded, map).unwrap();
        let label = format!("dstree-filebacked/S={num_shards}");
        assert_bit_identical(&label, &params, &sharded, &unsharded, &workload);
        // Sharding changes how much pruning work exact search does (every
        // shard restarts its best-so-far at infinity), but the answers —
        // and therefore the accuracy — may not move, at any thread count;
        // and the CPU counters must be deterministic across thread counts.
        let sequential = hydra::eval::run_workload(&sharded, &workload, &truth, &params);
        assert_eq!(sequential.accuracy, baseline.accuracy, "{label}: accuracy drifted");
        for threads in [1usize, 4] {
            let report =
                hydra::eval::run_workload_parallel(&sharded, &workload, &truth, &params, threads);
            assert_eq!(
                report.accuracy, baseline.accuracy,
                "{label}: accuracy drifted at {threads} threads"
            );
            assert_eq!(
                report.stats.distance_computations, sequential.stats.distance_computations,
                "{label}: CPU work drifted at {threads} threads"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
