//! Cross-crate integration tests: every method of the study, built over the
//! same datasets and queried through the uniform `AnnIndex` interface.

use hydra::core::search::SearchSpec;
use hydra::core::{knn_search, HierarchicalIndex};
use hydra::persist::Ungated;
use hydra::prelude::*;
use hydra::{AnnIndex, DistanceHistogram, PageCodec, StoreBacking};

fn recall(found: &[hydra::Neighbor], truth: &[hydra::Neighbor]) -> f64 {
    let ids: std::collections::HashSet<usize> = truth.iter().map(|n| n.index).collect();
    found.iter().filter(|n| ids.contains(&n.index)).count() as f64 / truth.len() as f64
}

#[test]
fn all_methods_answer_knn_queries_on_random_walks() {
    let data = hydra::data::random_walk(1_200, 64, 101);
    let workload = hydra::data::noisy_queries(&data, 8, &[0.1], 102);
    let truth = hydra::data::ground_truth(&data, &workload, 10);
    let methods = hydra::build_all_methods(&data, true, 103);
    assert_eq!(methods.len(), 8, "all eight methods must build in memory");

    for method in &methods {
        // Pick a generous effort setting for each method family.
        let params = if method.capabilities().exact {
            SearchParams::exact(10)
        } else if method.capabilities().delta_epsilon_approximate {
            SearchParams::delta_epsilon(10, 0.99, 0.0)
        } else {
            SearchParams::ng(10, 256)
        };
        let mut total_recall = 0.0;
        for (q, query) in workload.iter().enumerate() {
            let res = method.search(query, &params).expect("query must succeed");
            assert!(res.neighbors.len() <= 10);
            // Distances must be sorted and consistent with the raw data for
            // methods that report true distances (all but IMI, which ranks
            // by compressed-domain distances only).
            for w in res.neighbors.windows(2) {
                assert!(w[0].distance <= w[1].distance, "{}", method.name());
            }
            if method.name() != "IMI" {
                for n in &res.neighbors {
                    let true_d = hydra::core::euclidean(query, data.series(n.index));
                    assert!(
                        (n.distance - true_d).abs() < 1e-3,
                        "{} must report true distances",
                        method.name()
                    );
                }
            }
            total_recall += recall(&res.neighbors, &truth.answers[q]);
        }
        let avg = total_recall / workload.len() as f64;
        let floor = match method.name() {
            "DSTree" | "iSAX2+" | "VA+file" => 0.99, // exact mode
            "IMI" => 0.3,                             // compressed-domain only
            _ => 0.5,
        };
        assert!(
            avg >= floor,
            "{} recall {avg} below floor {floor}",
            method.name()
        );
    }
}

#[test]
fn exact_methods_agree_with_each_other_and_with_ground_truth() {
    let data = hydra::data::mri_like(800, 128, 7);
    let queries = hydra::data::noisy_queries(&data, 5, &[0.2], 8);
    let truth = hydra::data::ground_truth(&data, &queries, 5);

    let dstree = DsTree::build(&data, DsTreeConfig::default()).unwrap();
    let isax = Isax2Plus::build(&data, IsaxConfig::default()).unwrap();
    let va = VaPlusFile::build(&data, VaPlusFileConfig::default()).unwrap();

    for (q, query) in queries.iter().enumerate() {
        let expected: Vec<f32> = truth.answers[q].iter().map(|n| n.distance).collect();
        for index in [&dstree as &dyn AnnIndex, &isax, &va] {
            let res = index.search(query, &SearchParams::exact(5)).unwrap();
            let got: Vec<f32> = res.neighbors.iter().map(|n| n.distance).collect();
            for (g, e) in got.iter().zip(expected.iter()) {
                assert!(
                    (g - e).abs() < 1e-3,
                    "{} disagrees with ground truth",
                    index.name()
                );
            }
        }
    }
}

#[test]
fn disk_resident_methods_report_io_activity() {
    let data = hydra::data::random_walk(2_000, 64, 55);
    let workload = hydra::data::noisy_queries(&data, 5, &[0.1], 56);
    let truth = hydra::data::ground_truth(&data, &workload, 10);
    let methods = hydra::build_all_methods(&data, false, 57);

    for method in &methods {
        assert!(method.capabilities().disk_resident);
        let params = if method.capabilities().exact {
            SearchParams::exact(10)
        } else {
            SearchParams::ng(10, 64)
        };
        let report = hydra::eval::run_workload(method.as_ref(), &workload, &truth, &params);
        if method.name() == "IMI" {
            // IMI never touches the raw data.
            assert_eq!(report.stats.random_ios, 0, "IMI reads no raw data");
        } else {
            assert!(
                report.stats.random_ios + report.stats.sequential_ios > 0,
                "{} must charge simulated I/O",
                method.name()
            );
        }
    }
}

#[test]
fn methods_reject_unsupported_modes_consistently() {
    let data = hydra::data::random_walk(300, 32, 5);
    let methods = hydra::build_all_methods(&data, true, 6);
    let query = vec![0.0f32; 32];
    for method in &methods {
        let caps = method.capabilities();
        for (mode_supported, params) in [
            (caps.exact, SearchParams::exact(5)),
            (caps.ng_approximate, SearchParams::ng(5, 4)),
            (caps.epsilon_approximate, SearchParams::epsilon(5, 1.0)),
            (
                caps.delta_epsilon_approximate,
                SearchParams::delta_epsilon(5, 0.9, 1.0),
            ),
        ] {
            let result = method.search(&query, &params);
            assert_eq!(
                result.is_ok(),
                mode_supported,
                "{} capabilities disagree with search() for {:?}",
                method.name(),
                params.mode
            );
        }
    }
}

/// The traversal of both trees is pinned to the counters the commit before
/// the `prepare` → `min_dist` split produced: hoisting the query-only part
/// of a lower bound (and handing out child lists by reference) may change
/// how long a bound takes, never how many are computed, which leaves are
/// visited or how many candidates are refined. Each row moved once since,
/// on purpose, when leaf members became gated on their kept SAX words
/// (each gate check is a lower bound, so that column rose; fewer members
/// are compared, so the last fell):
/// - iSAX2+, when leaves also became bounded by their members' envelope:
///   8808/3780/8507, 8808/790/2987 and 8808/12/176 before (an ng query's
///   one leaf is now the envelope-closest);
/// - DSTree: 276/109/10394, 202/60/5739 and 120/12/1139 before. Its node
///   bounds did not change, so neither did the leaves it visits.
#[test]
fn tree_traversal_counters_are_pinned_across_the_prepare_split() {
    let data = hydra::data::random_walk(1_500, 64, 211);
    let queries = hydra::data::noisy_queries(&data, 12, &[0.0, 0.1, 0.25], 212);
    let dstree = DsTree::build(&data, DsTreeConfig::default()).unwrap();
    let isax = Isax2Plus::build(&data, IsaxConfig::default()).unwrap();
    // (lower_bound_computations, leaves_visited, distance_computations),
    // summed over the twelve queries.
    let pinned: [(&dyn AnnIndex, [(SearchParams, [u64; 3]); 3]); 2] = [
        (
            &dstree,
            [
                (SearchParams::exact(10), [10670, 109, 1336]),
                (SearchParams::epsilon(10, 1.0), [5941, 60, 1300]),
                (SearchParams::ng(10, 1), [1259, 12, 678]),
            ],
        ),
        (
            &isax,
            [
                (SearchParams::exact(10), [12649, 602, 1241]),
                (SearchParams::epsilon(10, 1.0), [10521, 79, 883]),
                (SearchParams::ng(10, 1), [9066, 12, 201]),
            ],
        ),
    ];
    for (index, settings) in pinned {
        for (params, want) in settings {
            let mut got = [0u64; 3];
            for query in queries.iter() {
                let stats = index.search(query, &params).unwrap().stats;
                got[0] += stats.lower_bound_computations;
                got[1] += stats.leaves_visited;
                got[2] += stats.distance_computations;
            }
            assert_eq!(got, want, "{} {:?}", index.name(), params.mode);
        }
    }
}

/// What the gate test needs of a tree that gates leaf members on kept
/// per-series summaries: its δ-ε histogram, its ungated reference, and its
/// configuration under another storage setting.
trait GatedTree: HierarchicalIndex + PersistentIndex {
    fn histogram(&self) -> &DistanceHistogram;
    fn ungated(&self) -> Ungated<'_, Self>;
    fn with_storage(config: &Self::Config, storage: StorageConfig) -> Self::Config;
}

impl GatedTree for DsTree {
    fn histogram(&self) -> &DistanceHistogram {
        DsTree::histogram(self)
    }
    fn ungated(&self) -> Ungated<'_, Self> {
        DsTree::ungated(self)
    }
    fn with_storage(config: &DsTreeConfig, storage: StorageConfig) -> DsTreeConfig {
        DsTreeConfig { storage, ..*config }
    }
}

impl GatedTree for Isax2Plus {
    fn histogram(&self) -> &DistanceHistogram {
        Isax2Plus::histogram(self)
    }
    fn ungated(&self) -> Ungated<'_, Self> {
        Isax2Plus::ungated(self)
    }
    fn with_storage(config: &IsaxConfig, storage: StorageConfig) -> IsaxConfig {
        IsaxConfig { storage, ..*config }
    }
}

/// `built`, resident, and its snapshot loaded file-backed behind an 8-page
/// pool with f32 and with u8 pages: against its ungated reference, every
/// guarantee mode answers the same ids and distance bits and visits the
/// same leaves, while comparing no more series and reading fewer bytes.
fn assert_gated_answers_as_ungated<T: GatedTree>(
    tree: &str,
    data: &hydra::Dataset,
    built: T,
    config: &T::Config,
) {
    let dir = std::env::temp_dir().join(format!("hydra-gate-{tree}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tree.snap");
    built.save(&path).unwrap();
    let file_backed = |codec| {
        let storage = StorageConfig::on_disk()
            .with_pool_pages(8)
            .with_page_codec(codec);
        let backing = StoreBacking::FileBacked {
            dataset_snapshot: None,
        };
        T::load_backed(&path, data, &T::with_storage(config, storage), backing).unwrap()
    };
    let stores = [
        ("resident", built),
        ("file f32", file_backed(PageCodec::F32)),
        ("file u8", file_backed(PageCodec::U8)),
    ];
    let queries = hydra::data::noisy_queries(data, 12, &[0.0, 0.1, 0.25], 212);
    for (store, index) in &stores {
        for params in [
            SearchParams::exact(5),
            SearchParams::epsilon(5, 1.0),
            SearchParams::delta_epsilon(5, 0.9, 1.0),
            SearchParams::ng(5, 3),
        ] {
            let spec = SearchSpec::from_params(&params, || Some(index.histogram()));
            let (mut gated_bytes, mut ungated_bytes) = (0, 0);
            for q in queries.iter() {
                let gated = knn_search(index, q, &spec);
                let ungated = knn_search(&index.ungated(), q, &spec);
                let bits = |r: &hydra::SearchResult| -> Vec<(usize, u32)> {
                    r.neighbors
                        .iter()
                        .map(|n| (n.index, n.distance.to_bits()))
                        .collect()
                };
                let at = format!("{tree} {store} {:?}", params.mode);
                assert_eq!(bits(&gated), bits(&ungated), "{at}");
                assert_eq!(gated.stats.leaves_visited, ungated.stats.leaves_visited, "{at}");
                assert!(
                    gated.stats.distance_computations <= ungated.stats.distance_computations,
                    "{at}"
                );
                gated_bytes += gated.stats.bytes_read;
                ungated_bytes += ungated.stats.bytes_read;
            }
            assert!(
                gated_bytes < ungated_bytes,
                "{tree} {store} {:?}: {gated_bytes} bytes gated, {ungated_bytes} ungated",
                params.mode
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Both trees gate each member of a visited leaf on its kept SAX word
/// before the store reads it. The gate only skips members the
/// early-abandoning kernel would refuse, so it is invisible in the answers
/// of every mode, on every store.
#[test]
fn gated_search_answers_exactly_as_the_ungated_reference_and_reads_less() {
    let data = hydra::data::random_walk(600, 64, 17);
    let dstree = DsTreeConfig {
        leaf_capacity: 16,
        initial_segments: 4,
        max_segments: 8,
        storage: StorageConfig::in_memory(),
        histogram_samples: 2_000,
        seed: 5,
    };
    let built = DsTree::build(&data, dstree).unwrap();
    assert_gated_answers_as_ungated("dstree", &data, built, &dstree);
    let isax = IsaxConfig {
        sax: hydra::summarize::sax::SaxParams::new(8, 8),
        leaf_capacity: 16,
        storage: StorageConfig::in_memory(),
        histogram_samples: 2_000,
        seed: 5,
    };
    let built = Isax2Plus::build(&data, isax).unwrap();
    assert_gated_answers_as_ungated("isax", &data, built, &isax);
}
