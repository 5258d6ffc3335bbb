//! Shared fixtures for the root integration tests: per-test temp
//! directories, build-once-per-process snapshot zoos, the one answer
//! comparator, the differential engine ([`engine`]) the equivalence
//! suites run on, the serving suites' deployments ([`serving`]), and the
//! pipelined TCP replay helper.
//!
//! Each `tests/*.rs` file is its own test binary; `mod common;` compiles
//! this module into each of them, which is why helpers unused by one
//! binary are expected.

#![allow(dead_code)]

mod engine;
#[allow(unused_imports)] // binaries that use no engine item
pub use engine::*;
pub mod serving;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use hydra::core::{euclidean, TopK};
use hydra::persist::layout;
use hydra::prelude::*;
use hydra::{Capabilities, Neighbor, QueryStats, Representation, SearchResult};
use hydra_serve::{Request, ResponseBody, ServeClient};

/// Brute-force linear scan: the reference [`AnnIndex`] whose sharded
/// equivalence is provable on paper (the true top-k of a union is the
/// merge of the true top-k of its parts), so any drift is the harness's.
/// Exact-only, one distance computation per series.
pub struct Scan {
    /// The series it scans.
    pub data: hydra::Dataset,
}

impl AnnIndex for Scan {
    fn name(&self) -> &'static str {
        "scan"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact: true,
            ng_approximate: false,
            epsilon_approximate: false,
            delta_epsilon_approximate: false,
            disk_resident: false,
            streaming_insert: false,
            representation: Representation::Raw,
        }
    }
    fn num_series(&self) -> usize {
        self.data.len()
    }
    fn series_len(&self) -> usize {
        self.data.series_len()
    }
    fn memory_footprint(&self) -> usize {
        self.data.payload_bytes()
    }
    fn search(&self, query: &[f32], params: &SearchParams) -> hydra::Result<SearchResult> {
        hydra::core::check_query(self.capabilities(), self.series_len(), query, params)?;
        let mut stats = QueryStats::new();
        stats.distance_computations = self.data.len() as u64;
        Ok(SearchResult::new(
            brute_force_top_k(&self.data, query, params.k),
            stats,
        ))
    }
}

/// The true top-k of `data` under the Euclidean distance, sorted by
/// (distance, id) — the shared kernel of [`Scan`] and the scripted workers
/// of the router fault-injection tests.
pub fn brute_force_top_k(data: &hydra::Dataset, query: &[f32], k: usize) -> Vec<Neighbor> {
    let mut top = TopK::new(k);
    for (i, series) in data.iter().enumerate() {
        top.push(Neighbor::new(i, euclidean(query, series)));
    }
    top.into_sorted()
}

/// How much of their [`QueryStats`] two answers must share.
#[derive(Debug, Clone, Copy)]
pub enum StatsMatch {
    /// Every counter.
    Full,
    /// Everything but the I/O-*operation* counters, which depend on the
    /// shared buffer pool's page-residency history (a pool hit charges no
    /// operation) and so legitimately differ between a fresh build and a
    /// grown one and between reader interleavings.
    ExceptIoOperations,
    /// Nothing: the two sides do different work for the same answer.
    Ignored,
}

/// The one answer comparator of the integration suites: `got` must hold
/// `want`'s neighbours — as many, the same ids in the same order, the same
/// distances bit for bit — and match its cost counters as far as `stats`
/// demands.
pub fn assert_same_answer(
    context: &str,
    got: &SearchResult,
    want: &SearchResult,
    stats: StatsMatch,
) {
    assert_same_neighbors(context, &got.neighbors, &want.neighbors);
    let (mut got_stats, mut want_stats) = (got.stats, want.stats);
    match stats {
        StatsMatch::Full => {}
        StatsMatch::ExceptIoOperations => {
            for s in [&mut got_stats, &mut want_stats] {
                (s.random_ios, s.sequential_ios) = (0, 0);
            }
        }
        StatsMatch::Ignored => return,
    }
    assert_eq!(got_stats, want_stats, "{context}: QueryStats drifted");
}

/// [`assert_same_answer`] for an answer that carries no counters, such as
/// one read off the wire.
pub fn assert_same_neighbors(context: &str, got: &[Neighbor], want: &[Neighbor]) {
    assert_eq!(got.len(), want.len(), "{context}: answer set size drifted");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.index, b.index, "{context}: neighbor drifted");
        assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{context}: distance bits drifted");
    }
}

/// The accuracy of `answers` against `truth`, as the workload runners
/// report it.
pub fn accuracy<'a>(
    answers: impl IntoIterator<Item = &'a [Neighbor]>,
    truth: &hydra::data::GroundTruth,
) -> hydra::eval::AccuracySummary {
    use hydra::eval::{average_precision, mean_relative_error, recall};
    let rows: Vec<_> = answers.into_iter().zip(&truth.answers)
        .map(|(a, t)| (recall(a, t), average_precision(a, t), mean_relative_error(a, t)))
        .collect();
    hydra::eval::AccuracySummary::from_queries(&rows)
}

/// The head of `data`: its first `h` series as an owned dataset.
pub fn head(data: &hydra::Dataset, h: usize) -> hydra::Dataset {
    let flat = &data.as_flat()[..h * data.series_len()];
    hydra::Dataset::from_flat(data.series_len(), flat.to_vec()).unwrap()
}

/// A fresh, empty temp directory owned by one test. The name carries the
/// process id (parallel `cargo test` binaries must not collide) and the
/// caller's tag (parallel tests within one binary must not either).
pub fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hydra-integration-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One prepared snapshot directory: the dataset it was built from and
/// where the snapshots live. Shared fixtures are built once per process —
/// do **not** delete `dir` at the end of a test; other tests in the
/// binary may still be using it (it lives under the OS temp directory).
pub struct ZooFixture {
    /// The snapshot directory (dataset snapshot + one `.snap` per method).
    pub dir: PathBuf,
    /// The dataset every snapshot in `dir` was built over.
    pub data: hydra::Dataset,
}

/// The out-of-core test dataset: 1200 × 64 raw series (≈ 300 KiB), ~5× a
/// default 64 KiB page, so a 1-page pool genuinely thrashes.
pub fn ooc_dataset() -> hydra::Dataset {
    let data = hydra::data::random_walk(1_200, 64, 8181);
    assert!(
        data.len() * data.series_len() * 4 > StorageConfig::on_disk().page_bytes,
        "the dataset must not fit one page"
    );
    data
}

/// The one method-matrix driver of the integration suites: visits every
/// row of `zoo` that `filter` keeps and returns how many it visited.
/// Callers assert the count, so a filter that silently keeps nothing
/// fails the test instead of passing it.
pub fn for_each_method(
    zoo: &[hydra::Method],
    filter: impl Fn(&hydra::Method) -> bool,
    mut visit: impl FnMut(&hydra::Method),
) -> usize {
    let mut visited = 0;
    for method in zoo.iter().filter(|method| filter(method)) {
        visit(method);
        visited += 1;
    }
    visited
}

/// Saves `data`'s snapshot plus every method of the scenario under
/// `prefix` in `dir`, exactly as `fig* --save-index` lays a directory out:
/// `<prefix>.data.snap` and one `<prefix>-<kind>.snap` per row of the zoo that
/// is in the scenario. Returns how many methods it saved.
pub fn save_zoo(
    dir: &Path,
    prefix: &str,
    data: &hydra::Dataset,
    in_memory: bool,
    seed: u64,
) -> usize {
    let storage = if in_memory {
        hydra::StorageConfig::in_memory()
    } else {
        hydra::StorageConfig::on_disk()
    };
    hydra::persist::dataset::save_dataset(data, &layout::dataset_snapshot(dir, prefix)).unwrap();
    for_each_method(
        &hydra::zoo(storage, seed),
        |method| method.in_scenario(in_memory, data.series_len()),
        |method| {
            let built = method.build(data).unwrap();
            built.save(&layout::index_snapshot(dir, prefix, method.kind())).unwrap();
        },
    )
}

/// Build-once-per-process registry of shared fixture directories, keyed by
/// fixture name: the first caller builds and snapshots the zoo, later
/// callers (other tests of the same binary) reuse the directory as-is.
static SAVED: Mutex<BTreeMap<&'static str, PathBuf>> = Mutex::new(BTreeMap::new());

fn shared_zoo(
    key: &'static str,
    data: fn() -> hydra::Dataset,
    prefix: &str,
    in_memory: bool,
    seed: u64,
) -> ZooFixture {
    let mut saved = SAVED.lock().unwrap();
    let data_now = data();
    if let Some(dir) = saved.get(key) {
        return ZooFixture {
            dir: dir.clone(),
            data: data_now,
        };
    }
    let dir = temp_dir(key);
    let methods = save_zoo(&dir, prefix, &data_now, in_memory, seed);
    assert_eq!(methods, if in_memory { 8 } else { 5 }, "{key}: the scenario's zoo changed");
    saved.insert(key, dir.clone());
    ZooFixture {
        dir,
        data: data_now,
    }
}

/// The in-memory serving zoo (PR 4's fixture): 400 × 32 random walks,
/// `zoo(StorageConfig::in_memory(), 9)`, all 8 methods,
/// prefix `zoo`.
pub fn in_memory_zoo() -> ZooFixture {
    shared_zoo("zoo-inmemory", || hydra::data::random_walk(400, 32, 2024), "zoo", true, 9)
}

/// The on-disk out-of-core zoo (PR 5's fixture): [`ooc_dataset`],
/// `zoo(StorageConfig::on_disk(), 5)`, the 5 disk-capable
/// methods, prefix `walk`.
pub fn on_disk_zoo() -> ZooFixture {
    shared_zoo("zoo-ondisk", ooc_dataset, "walk", false, 5)
}

/// Replays `workload` against one served index through `connections`
/// concurrent TCP connections, returning the answers in workload order.
/// Queries are pipelined per connection (send all, then collect by request
/// id), so server-side micro-batchers genuinely see bursts.
pub fn replay(
    addr: SocketAddr,
    index_name: &str,
    params: &SearchParams,
    workload: &hydra::data::QueryWorkload,
    connections: usize,
) -> Vec<Vec<Neighbor>> {
    let queries: Vec<&[f32]> = workload.iter().collect();
    let n = queries.len();
    let chunk = n.div_ceil(connections).max(1);
    let mut merged: Vec<Option<Vec<Neighbor>>> = vec![None; n];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, shard) in queries.chunks(chunk).enumerate() {
            let handle = scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                for (i, query) in shard.iter().enumerate() {
                    client
                        .send(&Request::Query {
                            request_id: (i + 1) as u64,
                            index: index_name.to_string(),
                            params: *params,
                            query: query.to_vec(),
                        })
                        .expect("send");
                }
                let mut answers: Vec<Option<Vec<Neighbor>>> = vec![None; shard.len()];
                for _ in 0..shard.len() {
                    let response = client.recv().expect("recv");
                    let slot = (response.request_id - 1) as usize;
                    match response.body {
                        ResponseBody::Answer { neighbors } => {
                            assert!(answers[slot].is_none(), "duplicate response id");
                            answers[slot] = Some(neighbors);
                        }
                        other => panic!("query {} failed: {other:?}", response.request_id),
                    }
                }
                (c, answers)
            });
            handles.push(handle);
        }
        for handle in handles {
            let (c, answers) = handle.join().expect("replay connection panicked");
            for (i, answer) in answers.into_iter().enumerate() {
                merged[c * chunk + i] = Some(answer.expect("unanswered query"));
            }
        }
    });
    merged.into_iter().map(|a| a.unwrap()).collect()
}
