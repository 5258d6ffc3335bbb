//! Integration tests of the evaluation harness: the properties the paper's
//! figures rely on (accuracy/efficiency trade-off curves, measure
//! relationships, I/O accounting) hold end to end.

use hydra::prelude::*;
use hydra_eval::{run_workload, run_workload_parallel};

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

#[test]
fn parallel_runner_matches_sequential_runner_across_the_index_zoo() {
    // The determinism contract of `search_batch` / `run_workload_parallel`,
    // end to end: for every method whose cost counters are query-local
    // (no shared buffer-pool state), accuracy AND summed stats at 1, 2 and
    // 4 threads are identical to the sequential runner. Covers the batch
    // overrides (IMI's shared ADC pass, QALSH's scratch reuse) and the
    // default per-query fallback (HNSW, FLANN).
    let data = hydra::data::sift_like(1_200, 32, 71);
    let workload = hydra::data::noisy_queries(&data, 11, &[0.0, 0.1, 0.25], 72);
    let truth = hydra::data::ground_truth(&data, &workload, 10);
    let params = SearchParams::ng(10, 32);

    let methods: Vec<Box<dyn AnnIndex>> = vec![
        Box::new(
            InvertedMultiIndex::build(
                &data,
                ImiConfig {
                    coarse_k: 16,
                    pq_k: 32,
                    training_size: 600,
                    ..ImiConfig::default()
                },
            )
            .unwrap(),
        ),
        Box::new(
            Qalsh::build(
                &data,
                QalshConfig {
                    seed: 73,
                    ..QalshConfig::default()
                },
            )
            .unwrap(),
        ),
        Box::new(
            Hnsw::build(
                &data,
                HnswConfig {
                    m: 8,
                    ef_construction: 64,
                    seed: 74,
                },
            )
            .unwrap(),
        ),
        Box::new(Flann::build(&data, FlannConfig::default()).unwrap()),
    ];
    for method in &methods {
        let sequential = run_workload(method.as_ref(), &workload, &truth, &params);
        for threads in [1usize, 2, 4] {
            let parallel =
                run_workload_parallel(method.as_ref(), &workload, &truth, &params, threads);
            assert_eq!(
                parallel.accuracy,
                sequential.accuracy,
                "{} accuracy diverged at {threads} threads",
                method.name()
            );
            assert_eq!(
                parallel.stats,
                sequential.stats,
                "{} summed stats diverged at {threads} threads",
                method.name()
            );
            assert_eq!(parallel.num_queries, sequential.num_queries);
        }
    }

    // Disk-backed methods keep answers and query-local counters identical;
    // only the random/sequential I/O split may shift with interleaving.
    let va = VaPlusFile::build(&data, VaPlusFileConfig::default()).unwrap();
    let sequential = run_workload(&va, &workload, &truth, &SearchParams::exact(10));
    let parallel = run_workload_parallel(&va, &workload, &truth, &SearchParams::exact(10), 4);
    assert_eq!(parallel.accuracy, sequential.accuracy);
    assert_eq!(
        parallel.stats.distance_computations,
        sequential.stats.distance_computations
    );
    assert_eq!(
        parallel.stats.lower_bound_computations,
        sequential.stats.lower_bound_computations
    );
    assert_eq!(parallel.stats.bytes_read, sequential.stats.bytes_read);
    assert!((parallel.accuracy.avg_recall - 1.0).abs() < 1e-12, "exact stays exact in parallel");
}
