//! Integration tests of the evaluation harness: the properties the paper's
//! figures rely on (accuracy/efficiency trade-off curves, measure
//! relationships, I/O accounting) hold end to end.

mod common;

use common::{assert_equivalent, Variant, Zoo};
use hydra::prelude::*;
use hydra_eval::run_workload;

#[test]
fn throughput_accuracy_tradeoff_curves_are_monotone_for_ng_search() {
    // Figure 3/4 backbone: as nprobe grows, accuracy grows and work grows.
    let data = hydra::data::random_walk(2_000, 64, 31);
    let workload = hydra::data::noisy_queries(&data, 10, &[0.1], 32);
    let truth = hydra::data::ground_truth(&data, &workload, 10);
    let dstree = DsTree::build(&data, DsTreeConfig::default()).unwrap();

    let mut prev_map = 0.0;
    let mut prev_work = 0;
    for nprobe in [1usize, 4, 16, 64] {
        let report = run_workload(&dstree, &workload, &truth, &SearchParams::ng(10, nprobe));
        assert!(
            report.accuracy.map + 1e-9 >= prev_map,
            "MAP must not decrease with nprobe"
        );
        assert!(report.stats.distance_computations >= prev_work);
        prev_map = report.accuracy.map;
        prev_work = report.stats.distance_computations;
    }
    assert!(prev_map > 0.5, "large nprobe should reach decent accuracy");
}

#[test]
fn recall_equals_map_for_methods_that_rerank_with_true_distances() {
    // Figure 5a: Avg Recall == MAP for every method except IMI, because all
    // other methods sort candidates by their true Euclidean distances.
    let data = hydra::data::sift_like(1_500, 32, 33);
    let workload = hydra::data::noisy_queries(&data, 8, &[0.1], 34);
    let truth = hydra::data::ground_truth(&data, &workload, 10);
    let methods = hydra::build_all_methods(&data, true, 35);
    for method in &methods {
        let params = if method.capabilities().exact {
            SearchParams::exact(10)
        } else {
            SearchParams::ng(10, 128)
        };
        let report = run_workload(method.as_ref(), &workload, &truth, &params);
        if method.name() == "IMI" {
            continue;
        }
        assert!(
            (report.accuracy.avg_recall - report.accuracy.map).abs() < 0.05,
            "{}: recall {} vs MAP {} should nearly coincide",
            method.name(),
            report.accuracy.avg_recall,
            report.accuracy.map
        );
    }
}

#[test]
fn on_disk_configuration_charges_more_random_io_than_in_memory() {
    let data = hydra::data::random_walk(3_000, 64, 41);
    let workload = hydra::data::noisy_queries(&data, 6, &[0.1], 42);
    let truth = hydra::data::ground_truth(&data, &workload, 10);

    let on_disk = DsTree::build(
        &data,
        DsTreeConfig {
            storage: StorageConfig::on_disk(),
            ..DsTreeConfig::default()
        },
    )
    .unwrap();
    let in_mem = DsTree::build(
        &data,
        DsTreeConfig {
            storage: StorageConfig::in_memory(),
            ..DsTreeConfig::default()
        },
    )
    .unwrap();
    let params = SearchParams::epsilon(10, 1.0);
    let disk_report = run_workload(&on_disk, &workload, &truth, &params);
    // Warm the in-memory pool once, then measure (the paper's in-memory
    // scenario keeps data cached between queries).
    let _ = run_workload(&in_mem, &workload, &truth, &params);
    let mem_report = run_workload(&in_mem, &workload, &truth, &params);
    assert!(
        disk_report.stats.random_ios > mem_report.stats.random_ios,
        "on-disk must charge more random I/O ({} vs {})",
        disk_report.stats.random_ios,
        mem_report.stats.random_ios
    );
}

#[test]
fn effect_of_k_first_neighbor_dominates_cost() {
    // Figure 7: going from k=1 to k=100 costs much less than finding the
    // first neighbor (total time grows sublinearly in k).
    let data = hydra::data::random_walk(2_000, 64, 51);
    let workload = hydra::data::noisy_queries(&data, 6, &[0.1], 52);
    let dstree = DsTree::build(&data, DsTreeConfig::default()).unwrap();
    let mut work = Vec::new();
    for k in [1usize, 10, 100] {
        let truth = hydra::data::ground_truth(&data, &workload, k);
        let report = run_workload(&dstree, &workload, &truth, &SearchParams::epsilon(k, 1.0));
        work.push(report.stats.distance_computations as f64);
    }
    // Cost at k=100 is far less than 100x the cost at k=1.
    assert!(work[2] < work[0] * 50.0, "k=100 cost {} vs k=1 cost {}", work[2], work[0]);
    assert!(work[0] <= work[1] && work[1] <= work[2]);
}

/// The rows without ε-search (IMI with its one shared ADC table pass,
/// QALSH, HNSW and FLANN) and VA+file answer many-query `search_batch`
/// calls, on one batch worker and on four, exactly as they answer each
/// query through `search`: answers and every counter.
#[test]
fn batches_answer_as_the_query_loop_across_the_index_zoo() {
    let (dir, zoo) = (common::temp_dir("batch-zoo"), Zoo::new(StorageConfig::in_memory(), 71));
    let data = hydra::data::sift_like(1_200, 32, 71);
    let rows = zoo.rows(data.series_len(), 5, |caps| {
        !caps.epsilon_approximate || caps.representation == hydra::Representation::Dft
    });
    for (method, _) in rows {
        for workers in [1, 4] {
            let v = Variant { batch: Some((11, workers)), ..Variant::of(method.kind()) };
            assert_equivalent(&zoo, &data, &v, &dir);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
