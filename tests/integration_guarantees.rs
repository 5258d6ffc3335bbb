//! End-to-end verification of the paper's accuracy guarantees
//! (Definitions 5–7) for the extended data-series methods.

use hydra::prelude::*;
use hydra::summarize::SaxParams;
use hydra::AnnIndex;

/// Checks Definition 5: every returned distance is within (1 + ε) of the
/// exact k-th-NN distance; at ε = 0 the answer is the exact one.
fn assert_epsilon_guarantee(
    index: &dyn AnnIndex,
    data: &hydra::Dataset,
    queries: &hydra::data::QueryWorkload,
    k: usize,
    epsilon: f32,
) {
    for query in queries.iter() {
        let res = index.search(query, &SearchParams::epsilon(k, epsilon)).unwrap();
        let exact = hydra::data::exact_knn(data, query, k);
        let bound = (1.0 + epsilon) * exact[k - 1].distance + 1e-4;
        for n in &res.neighbors {
            assert!(
                n.distance <= bound,
                "{}: distance {} exceeds (1+{})·{}",
                index.name(),
                n.distance,
                epsilon,
                exact[k - 1].distance
            );
        }
        if epsilon == 0.0 {
            assert_eq!(res.neighbors.len(), k, "{}", index.name());
            for (n, e) in res.neighbors.iter().zip(&exact) {
                assert!(
                    (n.distance - e.distance).abs() <= 1e-4,
                    "{}: exact answer {} != scan {}",
                    index.name(),
                    n.distance,
                    e.distance
                );
            }
        }
    }
}

/// Every method at its default parameters and at the extremes of its main
/// knob: DSTree leaf capacity, iSAX2+ segment count, VA+file bits per
/// dimension.
#[test]
fn epsilon_guarantee_holds_for_all_extended_methods() {
    let data = hydra::data::random_walk(1_000, 64, 11);
    let queries = hydra::data::noisy_queries(&data, 6, &[0.2, 0.5], 12);
    let mut indexes: Vec<Box<dyn AnnIndex>> = Vec::new();
    for leaf_capacity in [DsTreeConfig::default().leaf_capacity, 32, 512] {
        let config = DsTreeConfig {
            leaf_capacity,
            ..DsTreeConfig::default()
        };
        indexes.push(Box::new(DsTree::build(&data, config).unwrap()));
    }
    for sax in [
        IsaxConfig::default().sax,
        SaxParams::new(8, 8),
        SaxParams::new(32, 8),
    ] {
        let config = IsaxConfig {
            sax,
            ..IsaxConfig::default()
        };
        indexes.push(Box::new(Isax2Plus::build(&data, config).unwrap()));
    }
    for bits_per_dim in [VaPlusFileConfig::default().bits_per_dim, 2, 6] {
        let config = VaPlusFileConfig {
            bits_per_dim,
            ..VaPlusFileConfig::default()
        };
        indexes.push(Box::new(VaPlusFile::build(&data, config).unwrap()));
    }
    for eps in [0.0f32, 1.0, 3.0] {
        for index in &indexes {
            assert_epsilon_guarantee(index.as_ref(), &data, &queries, 5, eps);
        }
    }
}

#[test]
fn epsilon_zero_delta_one_degenerates_to_exact_search() {
    // The paper: when delta = 1 and epsilon = 0, Algorithm 2 is equivalent to
    // the exact Algorithm 1.
    let data = hydra::data::seismic_like(600, 128, 13);
    let queries = hydra::data::noisy_queries(&data, 5, &[0.3], 14);
    let dstree = DsTree::build(&data, DsTreeConfig::default()).unwrap();
    for query in queries.iter() {
        let exact = dstree.search(query, &SearchParams::exact(10)).unwrap();
        let degenerate = dstree
            .search(query, &SearchParams::delta_epsilon(10, 1.0, 0.0))
            .unwrap();
        let a: Vec<f32> = exact.neighbors.iter().map(|n| n.distance).collect();
        let b: Vec<f32> = degenerate.neighbors.iter().map(|n| n.distance).collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}

#[test]
fn increasing_epsilon_reduces_work_monotonically_in_aggregate() {
    let data = hydra::data::random_walk(2_000, 64, 17);
    let queries = hydra::data::noisy_queries(&data, 8, &[0.2], 18);
    let truth = hydra::data::ground_truth(&data, &queries, 10);
    let dstree = DsTree::build(&data, DsTreeConfig::default()).unwrap();

    let mut prev_work = u64::MAX;
    for eps in [0.0f32, 1.0, 2.0, 5.0] {
        let report = hydra::eval::run_workload(
            &dstree,
            &queries,
            &truth,
            &SearchParams::epsilon(10, eps),
        );
        assert!(
            report.stats.distance_computations <= prev_work,
            "work must not increase with epsilon"
        );
        prev_work = report.stats.distance_computations;
        // Accuracy may drop with epsilon but the relative error never exceeds it.
        assert!(report.accuracy.mre <= eps as f64 + 1e-6);
    }
}

#[test]
fn delta_epsilon_accuracy_is_high_in_practice() {
    // The paper observes that delta-epsilon answers are near exact in
    // practice because the first ng-approximate answer is already good.
    let data = hydra::data::mri_like(1_000, 64, 19);
    let queries = hydra::data::noisy_queries(&data, 8, &[0.2], 20);
    let truth = hydra::data::ground_truth(&data, &queries, 10);
    for index in [
        Box::new(DsTree::build(&data, DsTreeConfig::default()).unwrap()) as Box<dyn AnnIndex>,
        Box::new(Isax2Plus::build(&data, IsaxConfig::default()).unwrap()),
    ] {
        let report = hydra::eval::run_workload(
            index.as_ref(),
            &queries,
            &truth,
            &SearchParams::delta_epsilon(10, 0.95, 1.0),
        );
        assert!(
            report.accuracy.map > 0.6,
            "{} delta-epsilon MAP too low: {}",
            index.name(),
            report.accuracy.map
        );
    }
}

#[test]
fn ng_answers_are_never_better_than_exact_and_visit_fewer_leaves() {
    let data = hydra::data::random_walk(1_500, 64, 23);
    let queries = hydra::data::noisy_queries(&data, 6, &[0.1], 24);
    let dstree = DsTree::build(&data, DsTreeConfig::default()).unwrap();
    let isax = Isax2Plus::build(&data, IsaxConfig::default()).unwrap();
    for index in [&dstree as &dyn AnnIndex, &isax] {
        for query in queries.iter() {
            let exact = index.search(query, &SearchParams::exact(5)).unwrap();
            let ng = index.search(query, &SearchParams::ng(5, 1)).unwrap();
            // Compare rank by rank: the ng answer at any rank is never closer
            // than the exact answer at the same rank. (The ng answer may hold
            // fewer than k neighbors if the single visited leaf is small.)
            for (ng_n, exact_n) in ng.neighbors.iter().zip(exact.neighbors.iter()) {
                assert!(ng_n.distance + 1e-6 >= exact_n.distance);
            }
            assert!(ng.stats.leaves_visited <= exact.stats.leaves_visited.max(1));
            assert!(ng.stats.distance_computations <= exact.stats.distance_computations);
        }
    }
}
