//! The serving loop: connections, the micro-batching queue, and the
//! batcher that drains it into [`AnnIndex::search_batch`] calls.
//!
//! ## Threading model
//!
//! Drawn once for both roles — the connection engine
//! (`listener.rs`) is the top two lines, a role is what its handler does
//! with a request:
//!
//! ```text
//! acceptor ──spawns──▶ per-connection reader ──Request──▶ handler
//!                      per-connection writer ◀─encoded response frames─┐
//!                                                                      │
//!  server  list/stats/reload/shutdown: answered inline ────────────────┤
//!          query ──Job──▶ micro-batch queue ──▶ batcher: recv first    │
//!          job, gather until the batch window closes or the batch is   │
//!          full, group by (index, SearchKey), ONE search_batch call    │
//!          per group per tick ─────────────────────────────────────────┤
//!  router  query: written to every worker link (many in flight per     │
//!          link), then the next request is read; the link reader       │
//!          thread that delivers the last worker's answer merges ───────┤
//!          anything else: waits for the connection's own queries,      │
//!          then answered inline ───────────────────────────────────────┘
//! ```
//!
//! Each connection gets one reader thread (parsing frames and handing
//! them to the role's handler) and one writer thread (putting response
//! frames on the wire), so a slow client never blocks the batcher. The
//! single batcher thread makes batching *deterministic
//! work amortization*: every tick turns all compatible pending queries
//! into one [`AnnIndex::search_batch`] call, whose contract guarantees answers
//! identical to per-query [`AnnIndex::search`]. That contract is what the
//! end-to-end test (`tests/integration_serve.rs`) pins: served answers are
//! byte-identical to offline ones.
//!
//! ## Failure semantics
//!
//! A malformed frame yields one protocol-error response (request id 0)
//! and closes that connection; other connections and the batcher are
//! unaffected. Per-query failures (unknown index, unsupported mode,
//! dimension mismatch) are error responses on the query's own id —
//! exactly mirroring `search_batch`'s per-query `Err` positions — and
//! never poison the rest of a batch.
//!
//! ## Hot reload
//!
//! The served index set lives in an **epoch**: an immutable
//! `Arc<Epoch>` holding the zoo plus a monotonically increasing id.
//! A reload frame (on a server spawned with a [`Reloader`]) builds a
//! complete replacement zoo *outside* any lock, then swaps the epoch
//! pointer. Queries are routed by index *name* and the batcher resolves
//! the epoch pointer **once per tick**, so every answer in one
//! micro-batch comes from one coherent epoch — a swap never tears a
//! batch across generations, never drops a connection, and old epochs
//! die only when their last in-flight tick finishes (the `Arc` keeps
//! them alive exactly that long). A failed reload (damaged snapshot,
//! vanished directory) answers with a typed error and leaves the
//! current epoch serving untouched.

use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{mpsc, Arc, RwLock};
use std::time::{Duration, Instant};

use hydra::{AnnIndex, QueryStats, SearchKey, SearchParams};
use hydra_obs::{Counter, Gauge, Histogram, MetricsRegistry, QueryTrace, Stage};

use crate::listener::{Handler, Listener, Reply};
use crate::protocol::{ErrorCode, IndexInfo, Request, ResponseBody};

/// One index behind the server, addressable by name.
pub struct ServedIndex {
    /// The name queries address it by (by convention the snapshot file
    /// stem, e.g. `rand256-isax2`).
    pub name: String,
    /// The index itself.
    pub index: Box<dyn AnnIndex>,
}

impl std::fmt::Debug for ServedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedIndex")
            .field("name", &self.name)
            .field("method", &self.index.name())
            .field("num_series", &self.index.num_series())
            .finish()
    }
}

/// Rebuilds the full served index set on a reload request — typically by
/// re-booting the snapshot directory the server originally came from
/// (journals included). Runs on the requesting connection's reader
/// thread, **outside** the epoch lock: a slow reload delays only its own
/// connection, never in-flight queries. Returning `Err` leaves the
/// current epoch serving untouched.
pub type Reloader = Box<dyn Fn() -> Result<Vec<ServedIndex>, String> + Send + Sync>;

/// One generation of the served zoo: the immutable index set every query
/// admitted to a given batcher tick is answered from, plus the
/// monotonically increasing id reload acks report (0 at boot, +1 per
/// successful reload).
struct Epoch {
    id: u64,
    indexes: Vec<ServedIndex>,
}

/// The spawn-time zoo validation, shared with reload: an empty or
/// name-colliding replacement set must fail exactly like a bad boot.
fn validate_zoo(indexes: &[ServedIndex]) -> Result<(), String> {
    if indexes.is_empty() {
        return Err("refusing to serve zero indexes".into());
    }
    let mut names: Vec<&str> = indexes.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    if names.windows(2).any(|w| w[0] == w[1]) {
        return Err("duplicate served index names".into());
    }
    Ok(())
}

/// The server's settable knobs, each a `hydra-serve` flag. A socket write
/// toward a client times out after a fixed 30 s: that is what bounds how
/// long a client that stops reading its responses can delay
/// [`ServerHandle::join`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// How long the batcher gathers requests after the first one of a tick
    /// before draining the batch. Larger windows amortize more per-batch
    /// setup (ADC tables, scratch buffers) at the cost of added latency.
    pub batch_window: Duration,
    /// Upper bound on requests gathered per tick; a full batch drains
    /// immediately without waiting out the window.
    pub max_batch: usize,
    /// Slow-query log threshold (`None` = off, the default). A query
    /// whose total served time — queue wait plus its amortized share of
    /// the batched search plus response encoding — reaches this bound
    /// writes one structured line (index, params key, stage breakdown
    /// from its [`QueryTrace`]) to stderr.
    pub slow_query: Option<Duration>,
}

impl Default for ServerConfig {
    /// 1 ms window, 64 requests, no slow-query log — latency-lean
    /// defaults for local serving. (The write timeout is a fixed 30 s.)
    fn default() -> Self {
        Self {
            batch_window: Duration::from_millis(1),
            max_batch: 64,
            slow_query: None,
        }
    }
}

/// Counters the server accumulates while running (readable after
/// shutdown via [`ServerHandle::join`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries answered (including per-query errors).
    pub queries: u64,
    /// Micro-batch ticks drained.
    pub ticks: u64,
    /// `search_batch` calls issued (one per (index, setting) group per
    /// tick — ≤ `queries`, and the whole point of serving in batches).
    pub batch_calls: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Successful epoch swaps (equals the final epoch id).
    pub reloads: u64,
}

/// One queued query: everything the batcher needs to answer it and route
/// the response back to its connection.
struct Job {
    request_id: u64,
    /// The *name* of the index, resolved against the tick's epoch only
    /// when the batch drains — a pre-resolved slot could dangle across a
    /// reload that happened between enqueue and drain.
    index: String,
    params: SearchParams,
    query: Vec<f32>,
    reply: Reply,
    /// When the reader enqueued this job — the start of its enqueue
    /// stage span (queue wait is drain time minus this).
    enqueued_at: Instant,
}

/// Every pre-resolved metric handle the serving loop touches (the wire
/// counters are the [`Listener`]'s). Resolved once at spawn so the hot
/// path never takes the registry mutex — each update is one relaxed atomic
/// RMW, which is what keeps the instrumented path answer- and
/// stats-identical to the uninstrumented one. These handles are the
/// server's only books: [`ServerStats`] is read off them at `join`.
struct Metrics {
    registry: MetricsRegistry,
    queries_total: Counter,
    ticks_total: Counter,
    batch_calls_total: Counter,
    /// Jobs enqueued but not yet drained (std's mpsc has no len(); the
    /// reader increments on enqueue, the batcher decrements per drained
    /// job, so the gauge is exact between ticks).
    queue_depth: Gauge,
    /// Jobs per drained tick — how full the batch window ran.
    batch_occupancy: Histogram,
    /// (index, parameter-key) groups per tick.
    groups_per_tick: Histogram,
    /// End-to-end served latency per query, in microseconds: queue wait
    /// + amortized share of the batched search + response encoding. Its
    /// `_count` reconciles exactly with `hydra_queries_total` for
    /// queries that reached the batcher.
    query_micros: Histogram,
    /// Per-stage latency histograms (microseconds).
    stage_enqueue_micros: Histogram,
    stage_search_micros: Histogram,
    stage_write_micros: Histogram,
    /// The 8 numeric [`QueryStats`] counters summed over every answered
    /// query, in `QueryStats::counters()` order. This is the scrape-side
    /// half of the reconciliation contract: summing the per-answer stats
    /// client-side must give exactly these values.
    query_stats: Vec<Counter>,
    /// Error responses by kind.
    errors_unknown_index: Counter,
    errors_search: Counter,
    errors_shutdown: Counter,
    /// The epoch currently being served.
    epoch: Gauge,
    reloads_success: Counter,
    reloads_failed: Counter,
    /// Duration of the most recent reload attempt (success or failure).
    reload_last_micros: Gauge,
    /// Outcome of the most recent reload attempt: 1 success, 0 failure,
    /// -1 never attempted.
    reload_last_ok: Gauge,
    /// Queries written to the slow-query log.
    slow_queries_total: Counter,
}

impl Metrics {
    fn new(registry: MetricsRegistry) -> Self {
        let query_stats = QueryStats::default()
            .counters()
            .iter()
            .map(|(name, _)| registry.counter("hydra_query_stats_total", &[("counter", name)]))
            .collect();
        let m = Self {
            queries_total: registry.counter("hydra_queries_total", &[]),
            ticks_total: registry.counter("hydra_ticks_total", &[]),
            batch_calls_total: registry.counter("hydra_batch_calls_total", &[]),
            queue_depth: registry.gauge("hydra_batch_queue_depth", &[]),
            batch_occupancy: registry.histogram("hydra_batch_occupancy", &[]),
            groups_per_tick: registry.histogram("hydra_batch_groups", &[]),
            query_micros: registry.histogram("hydra_query_micros", &[]),
            stage_enqueue_micros: registry
                .histogram("hydra_stage_micros", &[("stage", Stage::Enqueue.name())]),
            stage_search_micros: registry
                .histogram("hydra_stage_micros", &[("stage", Stage::ShardSearch.name())]),
            stage_write_micros: registry
                .histogram("hydra_stage_micros", &[("stage", Stage::Write.name())]),
            query_stats,
            errors_unknown_index: registry
                .counter("hydra_query_errors_total", &[("kind", "unknown_index")]),
            errors_search: registry.counter("hydra_query_errors_total", &[("kind", "search")]),
            errors_shutdown: registry.counter("hydra_query_errors_total", &[("kind", "shutdown")]),
            epoch: registry.gauge("hydra_epoch", &[]),
            reloads_success: registry.counter("hydra_reloads_total", &[("outcome", "success")]),
            reloads_failed: registry.counter("hydra_reloads_total", &[("outcome", "failed")]),
            reload_last_micros: registry.gauge("hydra_reload_last_micros", &[]),
            reload_last_ok: registry.gauge("hydra_reload_last_ok", &[]),
            slow_queries_total: registry.counter("hydra_slow_queries_total", &[]),
            registry,
        };
        m.reload_last_ok.set(-1);
        m
    }

    /// Adds one answered query's stats into the scrapeable sums.
    fn observe_query_stats(&self, stats: &QueryStats) {
        for ((_, value), counter) in stats.counters().iter().zip(&self.query_stats) {
            counter.add(*value);
        }
    }
}

/// Refreshes the live buffer-pool gauges from the served indexes, then
/// renders the registry — the body of a `Stats` scrape. Store counters
/// are polled at scrape time (not accumulated per query) because they
/// are the *store's* cumulative truth; gauges, not counters, because a
/// reload replaces the stores and the values legitimately reset.
fn render_stats(registry: &MetricsRegistry, epoch: &Epoch) -> String {
    for served in &epoch.indexes {
        if let Some(counters) = served.index.store_counters() {
            for (name, value) in counters.counters() {
                registry
                    .gauge("hydra_store", &[("index", served.name.as_str()), ("counter", name)])
                    .set(value as i64);
            }
        }
    }
    registry.render()
}

struct Inner {
    /// The current generation of the served zoo. Readers clone the `Arc`
    /// (queries, listings); a reload swaps the pointer under the brief
    /// write lock after building the replacement outside it.
    epoch: RwLock<Arc<Epoch>>,
    /// How to rebuild the zoo on a reload frame; `None` answers reloads
    /// with a typed error.
    reloader: Option<Reloader>,
    config: ServerConfig,
    listener: Arc<Listener>,
    metrics: Metrics,
}

impl Inner {
    /// The epoch answering right now. Each caller holds its clone for one
    /// coherent unit of work (a tick, a listing) — never across two.
    fn current_epoch(&self) -> Arc<Epoch> {
        Arc::clone(&self.epoch.read().expect("epoch lock"))
    }

    /// Rebuilds the zoo via the [`Reloader`] and swaps it in as the next
    /// epoch. The rebuild runs outside any lock; only the pointer swap
    /// (and the id increment that orders concurrent reloads) holds the
    /// write lock.
    fn reload(&self) -> Result<u64, String> {
        let Some(reloader) = &self.reloader else {
            return Err("this server was started without a reload source".into());
        };
        // Both outcomes are observable through the registry
        // (ServerStats.reloads reports the successes).
        let t0 = Instant::now();
        let rebuilt = reloader().and_then(|indexes| {
            validate_zoo(&indexes)?;
            Ok(indexes)
        });
        let elapsed = t0.elapsed();
        self.metrics
            .reload_last_micros
            .set(elapsed.as_micros().min(i64::MAX as u128) as i64);
        let indexes = match rebuilt {
            Ok(indexes) => indexes,
            Err(message) => {
                self.metrics.reloads_failed.inc();
                self.metrics.reload_last_ok.set(0);
                return Err(message);
            }
        };
        let mut slot = self.epoch.write().expect("epoch lock");
        let next = Arc::new(Epoch {
            id: slot.id + 1,
            indexes,
        });
        let id = next.id;
        *slot = next;
        self.metrics.reloads_success.inc();
        self.metrics.reload_last_ok.set(1);
        self.metrics.epoch.set(id.min(i64::MAX as u64) as i64);
        Ok(id)
    }
}

/// A running server. Obtained from [`Server::spawn`]; dropping the handle
/// does **not** stop the server — call [`ServerHandle::shutdown`] (or send
/// a shutdown frame) and then [`ServerHandle::join`].
pub struct ServerHandle {
    inner: Arc<Inner>,
    acceptor: std::thread::JoinHandle<()>,
    batcher: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server actually listens on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.listener.local_addr()
    }

    /// The metrics registry this server records into — the same one a
    /// `Stats` frame renders. Handy for in-process scraping in tests.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics.registry
    }

    /// Asks the server to stop accepting and drain, as a shutdown frame
    /// would.
    pub fn shutdown(&self) {
        self.inner.listener.begin_shutdown();
    }

    /// Waits for the acceptor, every connection and the batcher to finish,
    /// then reports the run's counters.
    ///
    /// # Panics
    /// Propagates a panic of the acceptor or batcher thread (neither is
    /// expected to panic; connection threads cannot reach here poisoned —
    /// their failures close only their own connection).
    pub fn join(self) -> ServerStats {
        self.acceptor.join().expect("acceptor panicked");
        self.batcher.join().expect("batcher panicked");
        let m = &self.inner.metrics;
        ServerStats {
            queries: m.queries_total.get(),
            ticks: m.ticks_total.get(),
            batch_calls: m.batch_calls_total.get(),
            connections: self.inner.listener.connections(),
            reloads: m.reloads_success.get(),
        }
    }
}

/// The hydra-serve server: binds, spawns the serving threads, and hands
/// back a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `indexes` with the given batching configuration.
    ///
    /// # Errors
    /// An [`std::io::Error`] if the listener cannot bind, or if `indexes`
    /// is empty or contains duplicate names (both are configuration bugs
    /// that must fail before the first request, not answer it wrongly).
    pub fn spawn<A: ToSocketAddrs>(
        indexes: Vec<ServedIndex>,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        Self::spawn_with_metrics(indexes, addr, config, None, MetricsRegistry::new())
    }

    /// [`Server::spawn`] in full. With a [`Reloader`], reload frames
    /// rebuild the zoo through it and atomically swap the served epoch
    /// (without one they are answered with a typed error). The server
    /// records into the caller's [`MetricsRegistry`], so boot-time gauges
    /// (per-index load times, journal replays) registered before the
    /// server exists appear in the same `Stats` scrape as the serving
    /// counters.
    ///
    /// # Errors
    /// Exactly the [`Server::spawn`] errors.
    pub fn spawn_with_metrics<A: ToSocketAddrs>(
        indexes: Vec<ServedIndex>,
        addr: A,
        config: ServerConfig,
        reloader: Option<Reloader>,
        registry: MetricsRegistry,
    ) -> std::io::Result<ServerHandle> {
        validate_zoo(&indexes)
            .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))?;
        let inner = Arc::new(Inner {
            epoch: RwLock::new(Arc::new(Epoch { id: 0, indexes })),
            reloader,
            config,
            listener: Listener::bind(addr, &registry, "hydra")?,
            metrics: Metrics::new(registry),
        });
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let batcher = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || batcher_loop(&inner, &job_rx))
        };
        // The batcher exits once every Job sender is gone: the one the
        // per-connection closure owns (dropped when accepting ends), its
        // clones when their connections retire.
        let shared = Arc::clone(&inner);
        let acceptor = inner.listener.spawn(move || Connection {
            inner: Arc::clone(&shared),
            jobs: job_tx.clone(),
        });
        Ok(ServerHandle {
            inner,
            acceptor,
            batcher,
        })
    }
}

/// The server's side of one connection: listings, scrapes, reloads and the
/// shutdown ack are answered inline on the reader thread; queries travel
/// to the batcher with a clone of the connection's [`Reply`].
struct Connection {
    inner: Arc<Inner>,
    jobs: mpsc::Sender<Job>,
}

impl Handler for Connection {
    fn handle(&mut self, request: Request, reply: &Reply) {
        let inner = &self.inner;
        match request {
            Request::Query {
                request_id,
                index,
                params,
                query,
            } => {
                // Name resolution is deferred to the batcher tick: the epoch
                // answering this query is whichever one is current when its
                // tick drains, never a slot index captured before a reload.
                let job = Job {
                    request_id,
                    index,
                    params,
                    query,
                    reply: reply.clone(),
                    enqueued_at: Instant::now(),
                };
                inner.metrics.queue_depth.add(1);
                if self.jobs.send(job).is_err() {
                    // The batcher is gone (shutdown raced the request). Still
                    // an answered query for the stats, like every other error.
                    inner.metrics.queue_depth.add(-1);
                    inner.metrics.queries_total.inc();
                    inner.metrics.errors_shutdown.inc();
                    let (code, message) = (ErrorCode::Search, "server is shutting down".into());
                    reply.send(request_id, ResponseBody::Error { code, message });
                }
            }
            Request::ListIndexes { request_id } => {
                let epoch = inner.current_epoch();
                let indexes = epoch
                    .indexes
                    .iter()
                    .map(|s| IndexInfo::describe(&s.name, s.index.as_ref()))
                    .collect();
                reply.send(request_id, ResponseBody::Indexes { indexes });
            }
            Request::Reload { request_id } => {
                // Synchronous on this connection's reader thread: the rebuild
                // stalls only this connection's own pipeline; queries from
                // other connections keep draining against the old epoch until
                // the swap.
                let body = match inner.reload() {
                    Ok(epoch) => ResponseBody::ReloadAck { epoch },
                    Err(message) => ResponseBody::Error {
                        code: ErrorCode::Unavailable,
                        message,
                    },
                };
                reply.send(request_id, body);
            }
            Request::Stats { request_id } => {
                // Answered inline on the reader thread, like listings: a
                // scrape reads atomics and polls store counters but runs no
                // search, so it cannot perturb answers or per-query stats.
                let epoch = inner.current_epoch();
                let text = render_stats(&inner.metrics.registry, &epoch);
                reply.send(request_id, ResponseBody::Stats { text });
            }
            Request::Shutdown { request_id } => {
                reply.send(request_id, ResponseBody::ShutdownAck);
                inner.listener.begin_shutdown();
            }
        }
    }
}

fn batcher_loop(inner: &Arc<Inner>, jobs: &mpsc::Receiver<Job>) {
    loop {
        // Block for the first request of a tick...
        let first = match jobs.recv() {
            Ok(job) => job,
            Err(_) => break, // every sender gone: acceptor and readers done
        };
        let mut batch = vec![first];
        // ...then gather until the window closes or the batch fills.
        let deadline = Instant::now() + inner.config.batch_window;
        while batch.len() < inner.config.max_batch {
            let now = Instant::now();
            let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
            else {
                break;
            };
            match jobs.recv_timeout(left) {
                Ok(job) => batch.push(job),
                Err(_) => break, // window elapsed, or all senders gone
            }
        }
        drain_tick(inner, batch);
    }
}

/// Answers one tick's batch: group by (index, parameter key) — only
/// queries sharing both may legally share a `search_batch` call — and
/// issue exactly one batched call per group, routing each result to its
/// connection.
///
/// The epoch is resolved **once**, up front: every query of the tick —
/// including unknown-index errors — is answered against the same index
/// generation, so a concurrent reload can never mix epochs within one
/// response batch.
fn drain_tick(inner: &Arc<Inner>, batch: Vec<Job>) {
    let m = &inner.metrics;
    m.ticks_total.inc();
    m.queries_total.add(batch.len() as u64);
    m.queue_depth.add(-(batch.len() as i64));
    m.batch_occupancy.observe(batch.len() as u64);
    // The moment the tick starts working is where every job's enqueue
    // (queue-wait) span ends.
    let drained_at = Instant::now();
    let epoch = inner.current_epoch();
    let mut groups: BTreeMap<(usize, SearchKey), Vec<Job>> = BTreeMap::new();
    for job in batch {
        let Some(slot) = epoch.indexes.iter().position(|s| s.name == job.index) else {
            m.errors_unknown_index.inc();
            let message = format!("no index named {:?} is served", job.index);
            finish_job(
                inner,
                &job,
                ResponseBody::Error {
                    code: ErrorCode::UnknownIndex,
                    message,
                },
                drained_at,
                Duration::ZERO,
            );
            continue;
        };
        groups
            .entry((slot, job.params.key()))
            .or_default()
            .push(job);
    }
    m.groups_per_tick.observe(groups.len() as u64);
    for ((slot, _), group) in groups {
        m.batch_calls_total.inc();
        let params = group[0].params;
        let queries: Vec<&[f32]> = group.iter().map(|j| j.query.as_slice()).collect();
        let t0 = Instant::now();
        let results = epoch.indexes[slot].index.search_batch(&queries, &params);
        let group_elapsed = t0.elapsed();
        m.stage_search_micros.observe_micros(group_elapsed);
        // One batched call measures one wall-clock; each query's share is
        // the amortized mean.
        let amortized = group_elapsed / group.len() as u32;
        debug_assert_eq!(results.len(), group.len());
        // Pair results back by position, but never let a contract-breaking
        // index (fewer results than queries) leave a request unanswered —
        // a client with no read timeout would wait forever. Such requests
        // get an error response naming the broken index instead.
        let mut results = results.into_iter();
        for job in &group {
            let body = match results.next() {
                Some(Ok(answer)) => {
                    m.observe_query_stats(&answer.stats);
                    ResponseBody::Answer {
                        neighbors: answer.neighbors,
                    }
                }
                Some(Err(e)) => {
                    m.errors_search.inc();
                    ResponseBody::Error {
                        code: ErrorCode::Search,
                        message: e.to_string(),
                    }
                }
                None => {
                    m.errors_search.inc();
                    ResponseBody::Error {
                        code: ErrorCode::Search,
                        message: format!(
                            "index {:?} violated the search_batch contract: fewer results than queries",
                            epoch.indexes[slot].name
                        ),
                    }
                }
            };
            finish_job(inner, job, body, drained_at, amortized);
        }
    }
}

/// Encodes and sends one job's response, observing its latency spans and
/// writing the slow-query log line when the configured threshold is hit.
/// `search_share` is the job's amortized share of its group's batched
/// search (zero for jobs that never reached an index).
fn finish_job(
    inner: &Arc<Inner>,
    job: &Job,
    body: ResponseBody,
    drained_at: Instant,
    search_share: Duration,
) {
    let m = &inner.metrics;
    let queue_wait = drained_at.saturating_duration_since(job.enqueued_at);
    m.stage_enqueue_micros.observe_micros(queue_wait);
    job.reply.send_observed(job.request_id, body, |encode_elapsed| {
        m.stage_write_micros.observe_micros(encode_elapsed);
        let total = queue_wait + search_share + encode_elapsed;
        m.query_micros.observe_micros(total);
        if inner.config.slow_query.is_some_and(|threshold| total >= threshold) {
            m.slow_queries_total.inc();
            let mut trace = QueryTrace::new();
            trace.record(Stage::Enqueue, queue_wait);
            if !search_share.is_zero() {
                trace.record(Stage::ShardSearch, search_share);
            }
            trace.record(Stage::Write, encode_elapsed);
            eprintln!(
                "slow-query request_id={} index={:?} params={:?} total_ms={:.1} stages: {}",
                job.request_id,
                job.index,
                job.params.key(),
                total.as_secs_f64() * 1e3,
                trace.breakdown(),
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra::core::{Capabilities, Representation};
    use hydra::{Error, Neighbor, QueryStats, Result, SearchResult};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Answers with the query's first value as the neighbor id; counts
    /// batched entry-point calls so micro-batching is observable.
    struct Echo {
        batch_calls: AtomicU64,
    }

    impl AnnIndex for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities {
                exact: true,
                ng_approximate: true,
                epsilon_approximate: false,
                delta_epsilon_approximate: false,
                disk_resident: false,
                streaming_insert: false,
                representation: Representation::Raw,
            }
        }
        fn num_series(&self) -> usize {
            100
        }
        fn series_len(&self) -> usize {
            2
        }
        fn memory_footprint(&self) -> usize {
            0
        }
        fn search(&self, query: &[f32], _params: &SearchParams) -> Result<SearchResult> {
            if query.len() != 2 {
                return Err(Error::DimensionMismatch {
                    expected: 2,
                    found: query.len(),
                });
            }
            Ok(SearchResult::new(
                vec![Neighbor::new(query[0] as usize, query[1])],
                QueryStats::new(),
            ))
        }
        fn search_batch(
            &self,
            queries: &[&[f32]],
            params: &SearchParams,
        ) -> Vec<Result<SearchResult>> {
            self.batch_calls.fetch_add(1, Ordering::Relaxed);
            queries.iter().map(|q| self.search(q, params)).collect()
        }
    }

    fn echo_server(slow_query: Option<Duration>) -> ServerHandle {
        Server::spawn(
            vec![ServedIndex {
                name: "echo".into(),
                index: Box::new(Echo {
                    batch_calls: AtomicU64::new(0),
                }),
            }],
            "127.0.0.1:0",
            ServerConfig {
                batch_window: Duration::from_millis(1),
                slow_query,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn refuses_empty_and_duplicate_index_sets() {
        assert!(Server::spawn(Vec::new(), "127.0.0.1:0", ServerConfig::default()).is_err());
        let dup = || ServedIndex {
            name: "same".into(),
            index: Box::new(Echo {
                batch_calls: AtomicU64::new(0),
            }) as Box<dyn AnnIndex>,
        };
        assert!(
            Server::spawn(vec![dup(), dup()], "127.0.0.1:0", ServerConfig::default()).is_err()
        );
    }

    #[test]
    fn serves_pipelined_queries_lists_and_shuts_down_cleanly() {
        let handle = echo_server(None);
        let addr = handle.local_addr();
        let mut client = crate::client::ServeClient::connect(addr).unwrap();
        // List first.
        let infos = client.list_indexes().unwrap();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].name, "echo");
        assert_eq!(infos[0].method, "echo");
        assert!(infos[0].capabilities().ng_approximate);
        // Pipeline a burst of queries, then collect responses by id.
        let n = 20u64;
        for i in 0..n {
            client
                .send(&Request::Query {
                    request_id: 100 + i,
                    index: "echo".into(),
                    params: SearchParams::ng(1, 4),
                    query: vec![i as f32, 0.5],
                })
                .unwrap();
        }
        let mut seen = std::collections::BTreeMap::new();
        for _ in 0..n {
            let resp = client.recv().unwrap();
            match resp.body {
                ResponseBody::Answer { neighbors } => {
                    seen.insert(resp.request_id, neighbors[0].index);
                }
                other => panic!("expected an answer, got {other:?}"),
            }
        }
        for i in 0..n {
            assert_eq!(seen[&(100 + i)], i as usize, "answers must match their ids");
        }
        // Unknown index and bad dimensionality are per-request errors.
        let resp = client
            .call(&Request::Query {
                request_id: 7,
                index: "nope".into(),
                params: SearchParams::exact(1),
                query: vec![0.0, 0.0],
            })
            .unwrap();
        assert!(matches!(
            resp.body,
            ResponseBody::Error {
                code: ErrorCode::UnknownIndex,
                ..
            }
        ));
        let resp = client
            .call(&Request::Query {
                request_id: 8,
                index: "echo".into(),
                params: SearchParams::exact(1),
                query: vec![0.0, 0.0, 0.0],
            })
            .unwrap();
        assert!(matches!(
            resp.body,
            ResponseBody::Error {
                code: ErrorCode::Search,
                ..
            }
        ));
        // Shutdown is acknowledged, then the server exits.
        let resp = client.call(&Request::Shutdown { request_id: 9 }).unwrap();
        assert_eq!(resp.body, ResponseBody::ShutdownAck);
        drop(client);
        let stats = handle.join();
        assert_eq!(stats.queries, n + 2);
        assert!(stats.connections >= 1);
        assert!(stats.ticks >= 1);
        // Batching must have amortized: strictly fewer search_batch calls
        // than queries (the pipelined burst shares ticks).
        assert!(
            stats.batch_calls < stats.queries,
            "{} batch calls for {} queries — micro-batching never grouped anything",
            stats.batch_calls,
            stats.queries
        );
    }

    #[test]
    fn malformed_frames_get_a_protocol_error_and_a_hangup() {
        let handle = echo_server(None);
        let addr = handle.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"garbage everywhere").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let resp = crate::protocol::read_response(&mut reader).unwrap().unwrap();
        assert_eq!(resp.request_id, 0);
        assert!(matches!(
            resp.body,
            ResponseBody::Error {
                code: ErrorCode::Protocol,
                ..
            }
        ));
        // The server hangs up after a framing error.
        assert!(crate::protocol::read_response(&mut reader).unwrap().is_none());
        // A fresh connection still works: the bad one poisoned nothing.
        let mut client = crate::client::ServeClient::connect(addr).unwrap();
        let resp = client
            .call(&Request::Query {
                request_id: 1,
                index: "echo".into(),
                params: SearchParams::ng(1, 1),
                query: vec![3.0, 0.25],
            })
            .unwrap();
        assert!(matches!(resp.body, ResponseBody::Answer { .. }));
        client.call(&Request::Shutdown { request_id: 2 }).unwrap();
        drop(client);
        handle.join();
    }

    #[test]
    fn reload_swaps_epochs_on_a_live_connection() {
        // Each reload serves a fresh generation under a new name; the
        // reloader fails from generation 3 on, pinning that a failed
        // reload leaves the current epoch serving.
        let gen = Arc::new(AtomicU64::new(0));
        let make_gen = |n: u64| ServedIndex {
            name: format!("gen{n}"),
            index: Box::new(Echo {
                batch_calls: AtomicU64::new(0),
            }) as Box<dyn AnnIndex>,
        };
        let reloader: Reloader = {
            let gen = Arc::clone(&gen);
            Box::new(move || {
                let n = gen.fetch_add(1, Ordering::SeqCst) + 1;
                if n >= 3 {
                    return Err("the snapshot directory is on fire".into());
                }
                Ok(vec![make_gen(n)])
            })
        };
        let handle = Server::spawn_with_metrics(
            vec![make_gen(0)],
            "127.0.0.1:0",
            ServerConfig::default(),
            Some(reloader),
            MetricsRegistry::new(),
        )
        .unwrap();
        let mut client = crate::client::ServeClient::connect(handle.local_addr()).unwrap();
        let ask = |client: &mut crate::client::ServeClient, name: &str, id: u64| {
            client
                .call(&Request::Query {
                    request_id: id,
                    index: name.into(),
                    params: SearchParams::ng(1, 4),
                    query: vec![9.0, 0.5],
                })
                .unwrap()
                .body
        };
        assert!(matches!(ask(&mut client, "gen0", 1), ResponseBody::Answer { .. }));
        // Swap to generation 1 — the same connection keeps working, the
        // old name vanishes, the new one answers.
        assert_eq!(client.reload().unwrap(), 1);
        assert!(matches!(
            ask(&mut client, "gen0", 2),
            ResponseBody::Error {
                code: ErrorCode::UnknownIndex,
                ..
            }
        ));
        assert!(matches!(ask(&mut client, "gen1", 3), ResponseBody::Answer { .. }));
        let listed = client.list_indexes().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "gen1");
        assert_eq!(client.reload().unwrap(), 2);
        // Generation 3 fails to build: a typed error, and generation 2
        // keeps serving untouched.
        assert!(client.reload().is_err());
        assert!(matches!(ask(&mut client, "gen2", 4), ResponseBody::Answer { .. }));
        client.shutdown().unwrap();
        drop(client);
        let stats = handle.join();
        assert_eq!(stats.reloads, 2);
    }

    #[test]
    fn reload_without_a_source_is_a_typed_error() {
        let handle = echo_server(None);
        let mut client = crate::client::ServeClient::connect(handle.local_addr()).unwrap();
        let resp = client.call(&Request::Reload { request_id: 6 }).unwrap();
        assert!(matches!(
            resp.body,
            ResponseBody::Error {
                code: ErrorCode::Unavailable,
                ..
            }
        ));
        // The zoo is untouched and still answering.
        assert_eq!(client.list_indexes().unwrap()[0].name, "echo");
        client.shutdown().unwrap();
        drop(client);
        assert_eq!(handle.join().reloads, 0);
    }

    #[test]
    fn handle_shutdown_stops_an_idle_server() {
        let handle = echo_server(None);
        handle.shutdown();
        let stats = handle.join();
        assert_eq!(stats.queries, 0);
    }

    #[test]
    fn shutdown_completes_despite_an_idle_connection() {
        let handle = echo_server(None);
        let addr = handle.local_addr();
        // A connection that never sends a byte and never closes: its
        // reader sits blocked in read_request until shutdown closes the
        // read half.
        let idle = TcpStream::connect(addr).unwrap();
        let mut client = crate::client::ServeClient::connect(addr).unwrap();
        client.shutdown().unwrap();
        drop(client);
        // join() must still complete; a watchdog turns a regression into
        // a failure instead of a hung test run.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(handle.join());
        });
        let stats = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("join must not hang on an idle connection");
        assert_eq!(stats.queries, 0);
        drop(idle);
    }

    #[test]
    fn the_slow_query_log_counts_each_answer_at_or_over_its_threshold() {
        // A zero threshold makes every answered query slow; none is by default.
        for (slow_query, slow) in [(Some(Duration::ZERO), 3), (None, 0)] {
            let handle = echo_server(slow_query);
            let mut client = crate::client::ServeClient::connect(handle.local_addr()).unwrap();
            for i in 1..=3 {
                let query = vec![i as f32, 0.5];
                let (index, params) = ("echo".into(), SearchParams::ng(1, 4));
                let request = Request::Query { request_id: i, index, params, query };
                let answer = client.call(&request).unwrap().body;
                assert!(matches!(answer, ResponseBody::Answer { .. }), "{answer:?}");
            }
            let line = format!("hydra_slow_queries_total {slow}");
            assert!(handle.metrics().render().lines().any(|l| l == line), "{line}");
            client.shutdown().unwrap();
            handle.join();
        }
    }
}
