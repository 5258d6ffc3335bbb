//! The query door: `hydra::core::check_query` is the one place that decides
//! what `search` accepts, so every row of the zoo must answer a query
//! exactly as its Table 1 row says — through `search`, through a mixed
//! `search_batch`, and through a 2-shard `ShardedIndex` alike (the
//! differential engine's door axis, `common::assert_door`).

mod common;

use hydra::prelude::*;

/// The engine's door axis over the whole zoo.
#[test]
fn every_row_answers_exactly_its_table_1_row_through_every_entry_point() {
    let (dir, zoo) = (common::temp_dir("door"), common::Zoo::new(StorageConfig::in_memory(), 3));
    let cases = common::assert_door(&zoo, &hydra::data::random_walk(300, 32, 4711), 8, &dir);
    // (whole, 2-shard) × 8 rows × (exact: 3 inputs, ng: 3, ε: 4, δ-ε: 6).
    assert_eq!(cases, 2 * 8 * 16);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_k_beyond_the_collection_returns_at_most_every_series() {
    let data = hydra::data::random_walk(200, 32, 4712);
    let n = data.len();
    let k = 1usize << 36;
    let queries = hydra::data::noisy_queries(&data, 3, &[0.2], 4713);
    let bits = |a: &[Neighbor]| -> Vec<(usize, u32)> {
        a.iter().map(|x| (x.index, x.distance.to_bits())).collect()
    };
    for method in hydra::zoo(StorageConfig::in_memory(), 3) {
        let index = method.build(&data).unwrap();
        let caps = index.capabilities();
        for (mode, _) in common::door_modes().into_iter().filter(|(mode, _)| caps.supports(mode)) {
            let label = format!("{} {mode:?}", method.kind());
            for query in queries.iter() {
                let got = index.search(query, &SearchParams { k, mode }).unwrap();
                assert!(got.neighbors.len() <= n, "{label}");
                if mode == SearchMode::Exact {
                    let want = hydra::data::exact_knn(&data, query, n);
                    assert_eq!(bits(&got.neighbors), bits(&want), "{label}");
                }
            }
        }
    }
}
