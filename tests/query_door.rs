//! The query door: `hydra::core::check_query` is the one place that decides
//! what `search` accepts, so every row of the zoo must answer a query
//! exactly as its Table 1 row says — through `search`, through a mixed
//! `search_batch`, and through a 2-shard `ShardedIndex` alike.

use std::mem::discriminant;

use hydra::prelude::*;
use hydra::{Error, PartitionScheme, SearchResult, ShardedIndex};

/// What can be wrong with a query: nothing, its length, or one of the
/// knobs the door checks.
#[derive(Debug, Clone, Copy)]
enum Input {
    Valid,
    WrongLength,
    KZero,
    NanEpsilon,
    DeltaMinusOne,
    DeltaTwo,
}

const INPUTS: [Input; 6] = [
    Input::Valid,
    Input::WrongLength,
    Input::KZero,
    Input::NanEpsilon,
    Input::DeltaMinusOne,
    Input::DeltaTwo,
];

/// The four modes of Table 1, each at a valid setting.
const MODES: [SearchMode; 4] = [
    SearchMode::Exact,
    SearchMode::Ng { nprobe: 8 },
    SearchMode::Epsilon { epsilon: 1.0 },
    SearchMode::DeltaEpsilon {
        epsilon: 1.0,
        delta: 0.9,
    },
];

/// The parameters and query length of `input` under `mode`, or `None`
/// where the mode has no such knob (ε outside the ε modes, δ outside δ-ε).
fn case(mode: SearchMode, input: Input, series_len: usize) -> Option<(SearchParams, usize)> {
    let params = |mode| SearchParams { k: 5, mode };
    Some(match (input, mode) {
        (Input::Valid, _) => (params(mode), series_len),
        (Input::WrongLength, _) => (params(mode), series_len + 1),
        (Input::KZero, _) => (SearchParams { k: 0, mode }, series_len),
        (Input::NanEpsilon, SearchMode::Epsilon { .. }) => {
            (params(SearchMode::Epsilon { epsilon: f32::NAN }), series_len)
        }
        (Input::NanEpsilon, SearchMode::DeltaEpsilon { delta, .. }) => (
            params(SearchMode::DeltaEpsilon {
                epsilon: f32::NAN,
                delta,
            }),
            series_len,
        ),
        (Input::DeltaMinusOne | Input::DeltaTwo, SearchMode::DeltaEpsilon { epsilon, .. }) => {
            let delta = if matches!(input, Input::DeltaTwo) { 2.0 } else { -1.0 };
            (params(SearchMode::DeltaEpsilon { epsilon, delta }), series_len)
        }
        _ => return None,
    })
}

/// Which error, if any, the door owes `input` on a method whose row does
/// (`supported`) or does not list the mode: length first, then the row,
/// then the knobs.
fn expected(input: Input, supported: bool) -> Option<Error> {
    match input {
        Input::WrongLength => Some(Error::DimensionMismatch {
            expected: 0,
            found: 0,
        }),
        _ if !supported => Some(Error::UnsupportedMode(String::new())),
        Input::Valid => None,
        _ => Some(Error::InvalidParameter(String::new())),
    }
}

fn variant(outcome: &hydra::Result<SearchResult>) -> Option<std::mem::Discriminant<Error>> {
    outcome.as_ref().err().map(discriminant)
}

#[test]
fn every_row_answers_exactly_its_table_1_row_through_every_entry_point() {
    let data = hydra::data::random_walk(300, 32, 4711);
    let len = data.series_len();
    let good = data.series(7).to_vec();
    let mut cases = 0;
    for method in hydra::zoo(StorageConfig::in_memory(), 3) {
        let index = method.build(&data).unwrap();
        let sharded = ShardedIndex::from_partition(&data, PartitionScheme::Strided, 2, |d, _| {
            Ok(method.build(d)?)
        })
        .unwrap();
        let caps = index.capabilities();
        for mode in MODES {
            for input in INPUTS {
                let Some((params, query_len)) = case(mode, input, len) else {
                    continue;
                };
                cases += 1;
                let query = vec![0.5f32; query_len];
                let label = format!("{} {params:?} {input:?}", method.kind());
                let batch: Vec<&[f32]> = vec![&good, &query, &good];
                let mut batched = index.search_batch(&batch, &params);
                let mut sharded_batch = sharded.search_batch(&batch, &params);
                assert_eq!(batched.len(), 3, "{label}");
                assert_eq!(sharded_batch.len(), 3, "{label}");
                let outcomes = [
                    index.search(&query, &params),
                    batched.remove(1),
                    sharded.search(&query, &params),
                    sharded_batch.remove(1),
                ];
                let want = expected(input, caps.supports(&mode));
                for outcome in &outcomes {
                    assert_eq!(
                        variant(outcome),
                        want.as_ref().map(discriminant),
                        "{label}: {outcome:?}"
                    );
                }
                if matches!(input, Input::Valid) {
                    assert_eq!(outcomes[0].is_ok(), caps.supports(&mode), "{label}");
                }
                // The batch's well-formed queries share only the
                // parameters with the odd one out: a bad length fails its
                // own position alone.
                let others_ok = caps.supports(&mode)
                    && matches!(input, Input::Valid | Input::WrongLength);
                for other in batched.iter().chain(&sharded_batch) {
                    assert_eq!(other.is_ok(), others_ok, "{label}: {other:?}");
                }
            }
        }
    }
    // 8 rows × (exact: 3 inputs, ng: 3, ε: 4, δ-ε: 6).
    assert_eq!(cases, 8 * 16);
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
        for mode in MODES.into_iter().filter(|mode| caps.supports(mode)) {
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
