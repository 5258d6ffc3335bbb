//! The adapter: every call the benchmark makes into the system under test
//! goes through this file, and it leans on the narrowest stable surface —
//! per-index `*Config { storage, seed, ..Default::default() }`,
//! `PersistentIndex::save`, `LoaderRegistry`, `boot_from_dir_with`,
//! `Server::spawn`, `Router::spawn`, `ServeClient` — and never on the
//! facade's `standard_configs*` / `standard_registry*` families, which
//! ROADMAP item 2 plans to collapse. The README lists these signatures so a
//! later change knows what the (frozen) benchmark depends on.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use hydra::core::{predict_first_leaf, HierarchicalIndex};
use hydra::data::{GroundTruth, QueryWorkload};
use hydra::persist::dataset::save_dataset as persist_save_dataset;
use hydra::persist::{journal_path, JournalWriter, PersistentIndex};
use hydra::storage::SeriesStore;
use hydra::{PartitionScheme, ShardedIndex, StoreBacking};
use hydra_serve::{
    boot_from_dir_with, BootOptions, Request, Response, ResponseBody, Router, RouterConfig,
    ServeClient, ServedIndex, Server, ServerConfig,
};

pub use hydra::core::StoreCounters;
pub use hydra::persist::LoaderRegistry;
pub use hydra::{
    AnnIndex, Dataset, DsTree, Error as SutError, FileIoMode, Isax2Plus, Neighbor, PageCodec,
    QueryStats, SearchParams, SearchResult, StorageConfig, VaPlusFile,
};
pub use hydra_obs::TrackingAllocator;
pub use hydra_serve::{RouterHandle, ServerHandle};

/// Length of every series and query.
pub const SERIES_LEN: usize = 256;
/// Dataset name inside snapshot directories (`rand256.data.snap`).
pub const DATASET: &str = "rand256";
/// Served name of the DSTree snapshot (`rand256-dstree.snap`).
pub const DSTREE_SERVED: &str = "rand256-dstree";

// ---------------------------------------------------------------------------
// data, eval
// ---------------------------------------------------------------------------

/// The `rand256` dataset: `n` random walks of length 256.
pub fn generate(n: usize, seed: u64) -> Dataset {
    hydra::data::random_walk(n, SERIES_LEN, seed)
}

/// `count` distinct queries, the repository's easy/medium/hard noise mix
/// interleaved.
pub fn query_pool(data: &Dataset, count: usize, seed: u64) -> QueryWorkload {
    hydra::data::noisy_queries(data, count, &[0.0, 0.1, 0.25], seed)
}

/// Brute-force exact `k`-NN answers, served from `cache_dir` when a run
/// with the same inputs left them there.
pub fn oracle_cached(
    data: &Dataset,
    queries: &QueryWorkload,
    k: usize,
    cache_dir: &Path,
) -> GroundTruth {
    hydra::data::ground_truth_cached(data, queries, k, cache_dir).0
}

/// Brute-force exact `k`-NN answers, always computed.
pub fn oracle(data: &Dataset, queries: &QueryWorkload, k: usize) -> GroundTruth {
    hydra::data::ground_truth(data, queries, k)
}

/// One brute-force scan (the reference every index must beat).
pub fn scan(data: &Dataset, query: &[f32], k: usize) -> Vec<Neighbor> {
    hydra::data::exact_knn(data, query, k)
}

/// Average precision of one answer against the oracle's.
pub fn average_precision(found: &[Neighbor], truth: &[Neighbor]) -> f64 {
    hydra::eval::metrics::average_precision(found, truth)
}

/// The first `n` series of `data` as their own dataset.
pub fn prefix(data: &Dataset, n: usize) -> Dataset {
    let flat = data.as_flat()[..n * data.series_len()].to_vec();
    Dataset::from_flat(data.series_len(), flat).expect("a prefix of a dataset is a dataset")
}

/// Splits `data` into `shards` contiguous shard datasets.
pub fn contiguous_shards(data: &Dataset, shards: usize) -> Vec<Dataset> {
    hydra::partition(data, PartitionScheme::Contiguous, shards)
        .expect("contiguous partition")
        .1
}

// ---------------------------------------------------------------------------
// core, summarize (kernel probes)
// ---------------------------------------------------------------------------

/// Thin aliases of the distance kernels and query transforms the probes
/// time.
pub mod kernels {
    pub use hydra::core::{
        euclidean, euclidean_early_abandon, euclidean_early_abandon_f16,
        euclidean_early_abandon_u8, f16_bits_from_f32, merge_top_k,
    };
    pub use hydra::summarize::dft::DftSummarizer;
    pub use hydra::summarize::paa::paa;
    pub use hydra::summarize::sax::{normal_breakpoints, sax_word, SaxParams};
}

// ---------------------------------------------------------------------------
// storage, indexes
// ---------------------------------------------------------------------------

/// Storage whose pool always holds the whole dataset (resident scenario).
pub fn resident() -> StorageConfig {
    StorageConfig::in_memory()
}

/// Storage behind a `pages`-page pool with the given codec and I/O mode.
pub fn pooled(pages: usize, codec: PageCodec, io: FileIoMode) -> StorageConfig {
    StorageConfig::on_disk()
        .with_pool_pages(pages)
        .with_page_codec(codec)
        .with_io_mode(io)
}

/// Builds a DSTree with default parameters over `data`.
pub fn build_dstree(data: &Dataset, storage: StorageConfig, seed: u64) -> DsTree {
    DsTree::build(data, dstree_config(storage, seed)).expect("DSTree build")
}

/// Builds an iSAX2+ index with default parameters over `data`.
pub fn build_isax(data: &Dataset, storage: StorageConfig, seed: u64) -> Isax2Plus {
    Isax2Plus::build(data, isax_config(storage, seed)).expect("iSAX2+ build")
}

/// Builds a VA+file with default parameters over `data`.
pub fn build_vafile(data: &Dataset, storage: StorageConfig, seed: u64) -> VaPlusFile {
    VaPlusFile::build(data, vafile_config(storage, seed)).expect("VA+file build")
}

fn dstree_config(storage: StorageConfig, seed: u64) -> hydra::DsTreeConfig {
    hydra::DsTreeConfig {
        storage,
        seed,
        ..Default::default()
    }
}

fn isax_config(storage: StorageConfig, seed: u64) -> hydra::IsaxConfig {
    hydra::IsaxConfig {
        storage,
        seed,
        ..Default::default()
    }
}

fn vafile_config(storage: StorageConfig, seed: u64) -> hydra::VaPlusFileConfig {
    hydra::VaPlusFileConfig {
        storage,
        seed,
        ..Default::default()
    }
}

/// A 2-shard in-process DSTree over contiguous halves of `data`.
pub struct Sharded(ShardedIndex);

impl Sharded {
    /// Builds one resident DSTree per contiguous half.
    pub fn build(data: &Dataset, seed: u64) -> Self {
        Sharded(
            ShardedIndex::from_partition(data, PartitionScheme::Contiguous, 2, |shard, _| {
                Ok(Box::new(build_dstree(shard, resident(), seed)) as Box<dyn AnnIndex>)
            })
            .expect("sharded DSTree build"),
        )
    }

    /// Fan-out over both shards plus the merge (global ids).
    pub fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult, SutError> {
        self.0.search(query, params)
    }

    /// One shard searched directly (shard-local ids).
    pub fn shard_search(
        &self,
        shard: usize,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<SearchResult, SutError> {
        self.0.shards()[shard].search(query, params)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.0.num_shards()
    }
}

/// The leaf a best-first search would refine first (I/O-free descent).
pub fn first_leaf<I: HierarchicalIndex>(index: &I, query: &[f32]) -> Option<usize> {
    predict_first_leaf(index, query)
}

/// The series store behind a DSTree, for the isolated storage probes.
pub struct Store<'a>(&'a SeriesStore);

impl<'a> Store<'a> {
    /// The store of `index`.
    pub fn of(index: &'a DsTree) -> Self {
        Store(index.store())
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Series per 64 KiB page.
    pub fn series_per_page(&self) -> usize {
        self.0.config().page_bytes / (SERIES_LEN * std::mem::size_of::<f32>())
    }

    /// `SeriesStore::read`; returns the first value so the read is used.
    pub fn read(&self, record: usize, stats: &mut QueryStats) -> f32 {
        self.0.read(record, stats)[0]
    }

    /// `SeriesStore::refine`: on a coded store the candidate is probed
    /// through its compressed page first.
    pub fn refine(
        &self,
        record: usize,
        query: &[f32],
        bound: f32,
        stats: &mut QueryStats,
    ) -> Option<f32> {
        self.0.refine(record, query, bound, stats)
    }

    /// Pins and prefetches the pages of `ranges`, then releases them.
    pub fn pin_and_release(&self, ranges: &[(usize, usize)]) -> usize {
        let pages = self.0.pin_working_set(ranges, true);
        self.0.release_working_set(&pages);
        pages.len()
    }
}

/// An empty resident store that only grows (the append probe).
pub struct AppendStore(SeriesStore);

impl AppendStore {
    /// An empty store for series of [`SERIES_LEN`].
    pub fn new() -> Self {
        AppendStore(SeriesStore::new(SERIES_LEN, resident()).expect("valid store parameters"))
    }

    /// `SeriesStore::append`.
    pub fn append(&mut self, series: &[f32]) -> usize {
        self.0.append(series).expect("matching series length")
    }
}

impl Default for AppendStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Any index behind the uniform query interface.
pub struct Index(Box<dyn AnnIndex>);

impl Index {
    /// Wraps a concrete index.
    pub fn new<T: AnnIndex + 'static>(index: T) -> Self {
        Index(Box::new(index))
    }

    /// One query.
    pub fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult, SutError> {
        self.0.search(query, params)
    }

    /// One batch of queries under one parameter setting.
    pub fn search_batch(
        &self,
        queries: &[&[f32]],
        params: &SearchParams,
    ) -> Vec<Result<SearchResult, SutError>> {
        self.0.search_batch(queries, params)
    }

    /// Streaming ingest of one chunk.
    pub fn insert_batch(&mut self, batch: &[&[f32]]) -> Result<(), SutError> {
        self.0.insert_batch(batch)
    }

    /// Cumulative counters of the backing store (zero without one).
    pub fn store_counters(&self) -> StoreCounters {
        self.0.store_counters().unwrap_or_default()
    }

    /// Number of series indexed.
    pub fn num_series(&self) -> usize {
        self.0.num_series()
    }
}

// ---------------------------------------------------------------------------
// persist
// ---------------------------------------------------------------------------

/// Where the dataset snapshot lives inside a snapshot directory.
pub fn dataset_snapshot(dir: &Path) -> PathBuf {
    dir.join(format!("{DATASET}.data.snap"))
}

/// Where the index snapshot of `kind` (`dstree`, `isax2`, ...) lives.
pub fn index_snapshot(dir: &Path, kind: &str) -> PathBuf {
    dir.join(format!("{DATASET}-{kind}.snap"))
}

/// Saves the dataset snapshot of a directory.
pub fn save_dataset(data: &Dataset, dir: &Path) {
    persist_save_dataset(data, &dataset_snapshot(dir)).expect("dataset snapshot save");
}

/// Saves one index snapshot.
pub fn save_index<T: PersistentIndex>(index: &T, path: &Path) {
    index.save(path).expect("index snapshot save");
}

/// A loader registry for the three disk-capable tree/scan methods under one
/// storage configuration and build seed (the seed is part of the snapshot
/// fingerprint; the storage configuration is a pure serving knob).
pub fn registry(storage: StorageConfig, seed: u64) -> LoaderRegistry {
    let mut registry = LoaderRegistry::new();
    registry.register::<DsTree>(dstree_config(storage, seed));
    registry.register::<Isax2Plus>(isax_config(storage, seed));
    registry.register::<VaPlusFile>(vafile_config(storage, seed));
    registry
}

/// Loads any registered snapshot, resident, against its dataset.
pub fn load(registry: &LoaderRegistry, snapshot: &Path, data: &Dataset) -> Index {
    Index(registry.load_any(snapshot, data).expect("snapshot load"))
}

/// Loads a DSTree snapshot as its concrete type (the storage probes need
/// its store): resident, or file-backed on the dataset snapshot.
pub fn load_dstree(
    snapshot: &Path,
    data: &Dataset,
    storage: StorageConfig,
    seed: u64,
    file_backed: Option<&Path>,
) -> DsTree {
    let backing = match file_backed {
        Some(dataset_snapshot) => StoreBacking::FileBacked {
            dataset_snapshot: Some(dataset_snapshot),
        },
        None => StoreBacking::Resident,
    };
    DsTree::load_backed(snapshot, data, &dstree_config(storage, seed), backing)
        .expect("DSTree snapshot load")
}

/// Loads a base snapshot and replays the ingest journal beside it.
pub fn load_journaled(registry: &LoaderRegistry, snapshot: &Path, base: &Dataset) -> Index {
    Index(
        registry
            .load_any_journaled(snapshot, base, StoreBacking::Resident)
            .expect("base + journal load"),
    )
}

/// The write-ahead journal of an ingesting index.
pub struct Journal(JournalWriter);

impl Journal {
    /// Creates (truncating) the journal beside `snapshot`.
    pub fn create(snapshot: &Path) -> Self {
        let base = hydra::persist::peek_fingerprint(snapshot).expect("base snapshot header");
        Journal(
            JournalWriter::create(&journal_path(snapshot), base, SERIES_LEN)
                .expect("journal create"),
        )
    }

    /// Appends one chunk, flushed before returning.
    pub fn append_batch(&mut self, batch: &[&[f32]]) -> Result<(), String> {
        self.0.append_batch(batch).map_err(|e| e.to_string())
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// Boots every index snapshot of `dir`, resident, through the serving boot
/// path and serves them on an ephemeral loopback port with the default
/// configuration.
pub fn boot_server(dir: &Path, registry: &LoaderRegistry) -> ServerHandle {
    let options = BootOptions { file_backed: false };
    spawn_server(
        boot_from_dir_with(dir, registry, options)
            .expect("boot")
            .indexes,
    )
}

/// Boots the one index snapshot of `dir` out-of-core (raw series file-backed
/// on the dataset snapshot) and hands it back for in-process queries.
pub fn boot_out_of_core(dir: &Path, registry: &LoaderRegistry) -> Index {
    let options = BootOptions { file_backed: true };
    let mut indexes = boot_from_dir_with(dir, registry, options)
        .expect("boot")
        .indexes;
    Index(indexes.pop().expect("the directory holds one index").index)
}

/// Serves an index that answers every query with an empty neighbor list and
/// does no work, under the name `noop`: what remains is serving overhead.
pub fn serve_noop() -> ServerHandle {
    spawn_server(vec![ServedIndex {
        name: "noop".to_string(),
        index: Box::new(NoopIndex),
    }])
}

fn spawn_server(indexes: Vec<ServedIndex>) -> ServerHandle {
    Server::spawn(indexes, "127.0.0.1:0", ServerConfig::default()).expect("server spawn")
}

/// A router in front of `workers` (shard order), default configuration.
pub fn spawn_router(workers: &[SocketAddr]) -> RouterHandle {
    Router::spawn(workers, "127.0.0.1:0", RouterConfig::default()).expect("router spawn")
}

/// Stops a server and waits for its threads.
pub fn stop_server(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// Stops a router and waits for its threads.
pub fn stop_router(handle: RouterHandle) {
    handle.shutdown();
    handle.join();
}

/// One client connection.
pub struct Client {
    inner: ServeClient,
    index: String,
}

impl Client {
    /// Connects to `addr`; every query addresses the served index `index`.
    pub fn connect(addr: SocketAddr, index: &str) -> Self {
        let inner =
            ServeClient::connect_with_retry(addr, Duration::from_secs(10)).expect("connect");
        // A lost response must fail the operation, not hang the run.
        inner
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        Client {
            inner,
            index: index.to_string(),
        }
    }

    /// Sends one query without waiting; returns its request id.
    pub fn send(&mut self, query: &[f32], params: &SearchParams) -> Result<u64, String> {
        let request = self.request(query, params);
        self.inner.send(&request).map_err(|e| e.to_string())?;
        Ok(request.request_id())
    }

    /// Receives the next response: the id of the request it answers, and
    /// its neighbors or its error frame as text. The outer error is a
    /// transport or protocol failure — the connection is unusable after it.
    pub fn recv(&mut self) -> Result<(u64, Result<Vec<Neighbor>, String>), String> {
        let response = self.inner.recv().map_err(|e| e.to_string())?;
        let answer = match response.body {
            ResponseBody::Answer { neighbors } => Ok(neighbors),
            ResponseBody::Error { code, message } => Err(format!("{code:?}: {message}")),
            other => Err(format!("unexpected response body {other:?}")),
        };
        Ok((response.request_id, answer))
    }

    /// The server's (or router's) metrics registry, scraped over the wire.
    pub fn scrape(&mut self) -> Scrape {
        Scrape::parse(&self.inner.stats().expect("stats scrape"))
    }

    fn request(&mut self, query: &[f32], params: &SearchParams) -> Request {
        query_request(self.inner.fresh_id(), &self.index, params, query)
    }
}

/// A query request frame (also what the codec probes encode and decode).
pub fn query_request(id: u64, index: &str, params: &SearchParams, query: &[f32]) -> Request {
    Request::Query {
        request_id: id,
        index: index.to_string(),
        params: *params,
        query: query.to_vec(),
    }
}

/// Wire codec entry points for the encode/decode probes.
pub mod wire {
    use super::{Neighbor, Request, Response, ResponseBody};
    use hydra_serve::protocol::read_frame;
    use hydra_serve::{REQUEST_MAGIC, RESPONSE_MAGIC};

    pub use super::query_request;

    /// An answer response frame.
    pub fn answer_response(id: u64, neighbors: Vec<Neighbor>) -> Response {
        Response {
            request_id: id,
            body: ResponseBody::Answer { neighbors },
        }
    }

    /// Encodes a request as a complete frame.
    pub fn encode_request(request: &Request) -> Vec<u8> {
        request.encode()
    }

    /// Encodes a response as a complete frame.
    pub fn encode_response(response: &Response) -> Vec<u8> {
        response.encode()
    }

    /// The payload of a request frame (what `decode_request` takes).
    pub fn request_payload(frame: &[u8]) -> Vec<u8> {
        read_frame(&mut &frame[..], REQUEST_MAGIC)
            .expect("well-formed frame")
            .expect("non-empty frame")
    }

    /// The payload of a response frame.
    pub fn response_payload(frame: &[u8]) -> Vec<u8> {
        read_frame(&mut &frame[..], RESPONSE_MAGIC)
            .expect("well-formed frame")
            .expect("non-empty frame")
    }

    /// Decodes a request payload.
    pub fn decode_request(payload: &[u8]) -> Request {
        Request::decode(payload).expect("decodable request")
    }

    /// Decodes a response payload.
    pub fn decode_response(payload: &[u8]) -> Response {
        Response::decode(payload).expect("decodable response")
    }
}

struct NoopIndex;

impl AnnIndex for NoopIndex {
    fn name(&self) -> &'static str {
        "noop"
    }
    fn capabilities(&self) -> hydra::Capabilities {
        hydra::Capabilities {
            exact: true,
            ng_approximate: true,
            epsilon_approximate: true,
            delta_epsilon_approximate: true,
            disk_resident: false,
            streaming_insert: false,
            representation: hydra::Representation::Raw,
        }
    }
    fn num_series(&self) -> usize {
        1
    }
    fn series_len(&self) -> usize {
        SERIES_LEN
    }
    fn memory_footprint(&self) -> usize {
        0
    }
    fn search(&self, _query: &[f32], _params: &SearchParams) -> Result<SearchResult, SutError> {
        Ok(SearchResult::default())
    }
}

// ---------------------------------------------------------------------------
// obs
// ---------------------------------------------------------------------------

/// Peak-heap accounting of the tracking allocator `main` installs.
pub mod heap {
    pub use hydra_obs::{heap_peak_bytes, reset_heap_peak};
}

/// Metric handles for the instrumentation-cost probes.
pub mod obs_probe {
    pub use hydra_obs::MetricsRegistry;
}

/// One parsed Prometheus text scrape: sample line key (name plus label
/// set, verbatim) to value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    fn parse(text: &str) -> Self {
        Scrape(
            text.lines()
                .filter(|line| !line.starts_with('#'))
                .filter_map(|line| {
                    let (key, value) = line.rsplit_once(' ')?;
                    Some((key.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// The sample with exactly this key (0 when absent).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Sum of the samples of `family` that carry every one of `labels`,
    /// whatever order the server renders its label sets in.
    pub fn labelled(&self, family: &str, labels: &[(&str, &str)]) -> f64 {
        let wanted: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        let prefix = format!("{family}{{");
        self.0
            .range(prefix.clone()..)
            .take_while(|(key, _)| key.starts_with(&prefix))
            .filter(|(key, _)| wanted.iter().all(|label| key.contains(label.as_str())))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Sum of every sample whose key starts with `prefix` (all label sets of
    /// one family).
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.0
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Sample-wise `self + other` (summing the registries of two workers).
    pub fn plus(&self, other: &Scrape) -> Scrape {
        let mut sum = self.0.clone();
        for (k, v) in &other.0 {
            *sum.entry(k.clone()).or_default() += v;
        }
        Scrape(sum)
    }

    /// Sample-wise `self - earlier`.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }
}
