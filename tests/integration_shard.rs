//! Sharded scale-out. The partition-equivalence contract — a
//! [`ShardedIndex`] answers exact and ε = 0 queries bit-identically to the
//! unsharded index at any shard count, scheme and thread count, resident or
//! file-backed per shard — is the differential engine's `S=` axis
//! (`tests/common/engine.rs`). Beyond it: ng accuracy stays within a
//! documented bound, and the merged [`hydra::QueryStats`] are the
//! field-wise sum of the per-shard searches — work is added, never hidden.

mod common;

use common::{assert_equivalent, obtain, Load, Variant, Zoo};
use hydra::prelude::*;
use hydra::{merge_top_k, partition, PartitionScheme, QueryStats};

const CONTIGUOUS: PartitionScheme = PartitionScheme::Contiguous;

#[test]
fn sharded_scan_is_bit_identical_across_schemes_shard_counts_and_threads() {
    let (data, dir) = (hydra::data::random_walk(301, 24, 31), common::temp_dir("shard-scan"));
    for scheme in [CONTIGUOUS, PartitionScheme::Strided] {
        for shards in [1, 2, 5] {
            let v = Variant { shards: Some((shards, scheme)), ..Variant::of("scan") };
            let sharded = assert_equivalent(&Zoo::new(StorageConfig::in_memory(), 9), &data, &v, &dir);
            // Every shard scans all of its series: the merged counters are
            // the whole dataset per query, exactly as unsharded.
            let one = sharded.search(data.series(0), &SearchParams::exact(7)).unwrap();
            assert_eq!(one.stats.distance_computations, data.len() as u64, "{v}");
        }
    }
}

#[test]
#[should_panic(expected = "row \"dstre\" is neither \"scan\" nor a zoo kind")]
fn a_row_that_is_neither_scan_nor_a_zoo_kind_is_refused() {
    let (data, dir) = (hydra::data::random_walk(40, 24, 31), common::temp_dir("shard-misspelt"));
    obtain(&Zoo::new(StorageConfig::in_memory(), 9), &data, &Variant::of("dstre"), &dir);
}

#[test]
fn sharded_zoo_guaranteed_searches_are_bit_identical_to_unsharded() {
    let zoo = Zoo::new(StorageConfig::in_memory(), 9);
    let (data, dir) = (hydra::data::random_walk(400, 32, 2024), common::temp_dir("shard-zoo"));
    let mut checked = 0;
    for (method, caps) in zoo.rows(data.series_len(), 8, |_| true) {
        for shards in [1, 2, 5] {
            let v = Variant { shards: Some((shards, CONTIGUOUS)), ..Variant::of(method.kind()) };
            // A row with no guarantee class has nothing to be held to.
            if !common::settings(caps, &v).is_empty() {
                checked += common::settings(caps, &v).len();
                assert_equivalent(&zoo, &data, &v, &dir);
            }
        }
    }
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
    let zoo = Zoo::new(StorageConfig::in_memory(), 9);
    let (data, dir) = (hydra::data::random_walk(400, 32, 2024), common::temp_dir("shard-ng"));
    let k = common::K;
    let workload = hydra::data::noisy_queries(&data, 10, &[0.0, 0.2], 321);
    let truth = hydra::data::ground_truth(&data, &workload, k);
    let params = SearchParams::ng(k, 16);
    for (method, _) in zoo.rows(data.series_len(), 8, |_| true) {
        let served = obtain(&zoo, &data, &Variant::of(method.kind()), &dir);
        let v = Variant { shards: Some((2, CONTIGUOUS)), ..Variant::of(method.kind()) };
        let sharded = obtain(&zoo, &data, &v, &dir);
        let unsharded = hydra::eval::run_workload(served.as_ref(), &workload, &truth, &params);
        let shard_run = hydra::eval::run_workload(sharded.as_ref(), &workload, &truth, &params);
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
    }
}

#[test]
fn merged_query_stats_equal_the_field_wise_sum_of_per_shard_searches() {
    let data = hydra::data::random_walk(400, 32, 2024);
    let workload = hydra::data::noisy_queries(&data, 6, &[0.0, 0.2], 55);
    let (map, parts) = partition(&data, CONTIGUOUS, 2).unwrap();
    let (zoo, dir) = (Zoo::new(StorageConfig::in_memory(), 9), common::temp_dir("shard-stats"));

    // The fan-out against its shards searched one by one and merged by
    // hand. Each side is a fresh build — some stores warm per-instance
    // caches, so re-searching the *same* shards would under-count I/O. A
    // tree and a scan-shaped filter, exact and ng, cover the ways a shard
    // charges its counters.
    for row in ["dstree", "va+file"] {
        let v = Variant { shards: Some((2, CONTIGUOUS)), ..Variant::of(row) };
        for params in [SearchParams::exact(common::K), SearchParams::ng(common::K, 16)] {
            let sharded = obtain(&zoo, &data, &v, &dir);
            let twin: Vec<_> = parts.iter().map(|p| obtain(&zoo, p, &Variant::of(row), &dir)).collect();
            for query in workload.iter() {
                let merged = sharded.search(query, &params).unwrap();
                let mut stats = QueryStats::new();
                let mut per_shard = Vec::new();
                for (s, shard) in twin.iter().enumerate() {
                    let result = shard.search(query, &params).unwrap();
                    stats.merge(&result.stats);
                    let global = |n: &Neighbor| Neighbor::new(map.to_global(s, n.index), n.distance);
                    per_shard.push(result.neighbors.iter().map(global).collect::<Vec<_>>());
                }
                let expected = merge_top_k(params.k, &per_shard);
                let cell = format!("{v} {params:?}");
                assert_eq!(merged.neighbors, expected, "{cell}: merge drifted");
                assert_eq!(merged.stats, stats, "{cell}: stats are not the per-shard sum");
            }
        }
    }
}

#[test]
fn file_backed_sharded_search_matches_the_resident_unsharded_index() {
    // The multi-process layout in one process: every shard saved to its own
    // snapshot directory (what `fig4 --save-index --shards S` writes and a
    // `hydra-serve --shard-role worker` boots) and loaded file-backed.
    let (dir, zoo) = (common::temp_dir("shard-filebacked"), Zoo::new(StorageConfig::on_disk(), 5));
    for shards in [2, 5] {
        let load = Load::file(zoo.storage.buffer_pool_pages);
        let v = Variant { shards: Some((shards, CONTIGUOUS)), load, threads: 4, ..Variant::of("dstree") };
        assert_equivalent(&zoo, &common::ooc_dataset(), &v, &dir);
        // Each shard served from its own leaf-ordered series file.
        for s in 0..shards {
            let sidecar = format!("S{shards}-contiguous/shard-{s}/walk-dstree.snap.series");
            assert!(dir.join(&sidecar).exists(), "{v}: no {sidecar}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
