//! The scale-out router: one process speaking the serving protocol on
//! both sides. Clients talk to it exactly as they would to a single
//! [`crate::server::Server`]; behind it, `S` worker servers each hold one
//! shard of every index (built by `fig* --save-index DIR --shards S`,
//! booted with `hydra-serve --shard-role worker`).
//!
//! ## Topology
//!
//! ```text
//! client ──HSRQ──▶ router ──HSRQ──▶ worker 0 (shard 0 snapshots)
//!                    │  fan-out
//!                    ├─────HSRQ──▶ worker 1 (shard 1 snapshots)
//!                    └─────HSRQ──▶ worker S-1
//!        ◀──HSRP── merge: local ids → global via ShardMap,
//!                  top-k by (distance, global id)
//! ```
//!
//! The router is the multi-process twin of the in-process
//! `hydra_shard::ShardedIndex`: worker order is shard order, calls fan out
//! through the same [`fan_out`], worker-local ids are translated through
//! the same [`ShardMap`], and per-worker answers are merged by the same
//! (distance, global id) rule ([`hydra::merge_top_k`]) — so for exact
//! search a routed answer is bit-identical to the in-process sharded
//! answer, which is bit-identical to the unsharded one
//! (`tests/integration_router.rs`).
//!
//! ## Failure semantics
//!
//! A query is answered *completely or not at all* — a partial top-k
//! silently missing one shard's neighbors would be a wrong answer wearing
//! a right answer's clothes. Any worker failure (connect refused, call
//! timeout, malformed or mismatched response, worker-side error) turns
//! the whole query into one typed error response
//! ([`ErrorCode::Unavailable`], naming the worker and the failure) on the
//! query's own request id, within the per-worker timeout — the router
//! never hangs a client on a dead worker, and other connections are
//! unaffected. Failed workers are reconnected lazily with exponential
//! backoff (so a flapping worker cannot turn every query into a connect
//! storm), and a worker restart is picked up on the next attempt.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hydra::shard::fan_out;
use hydra::{merge_top_k, Neighbor, PartitionScheme, ShardMap};
use hydra_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::client::ServeClient;
use crate::listener::{Handler, Listener, Reply};
use crate::protocol::{ErrorCode, IndexInfo, Request, ResponseBody};

/// Tuning knobs of the router's worker links and client side.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Read timeout for one worker call: a worker that accepts a query but
    /// never answers fails the call after this long instead of hanging the
    /// client forever.
    pub worker_timeout: Duration,
    /// Bound on one reconnection attempt to a failed worker.
    pub connect_timeout: Duration,
    /// How long boot retries the initial connection to each worker —
    /// generous, because workers validate whole snapshot directories
    /// before they listen.
    pub boot_timeout: Duration,
    /// First retry delay after a worker failure; doubles per consecutive
    /// failure up to [`backoff_max`](Self::backoff_max), resets on the
    /// first success.
    pub backoff_initial: Duration,
    /// Cap on the reconnection backoff.
    pub backoff_max: Duration,
    /// How the shards were cut from the original dataset. Only affects the
    /// local→global id translation: contiguous shards are prefix-sum
    /// offsets, strided shards interleave. Must match the `--shards` run
    /// that produced the worker snapshot directories.
    pub scheme: PartitionScheme,
    /// Socket write timeout toward clients (`None` = never time out), same
    /// role as [`crate::server::ServerConfig::write_timeout`].
    pub write_timeout: Option<Duration>,
}

impl Default for RouterConfig {
    /// 30 s worker calls, 5 s reconnects, 120 s boot, 100 ms → 5 s
    /// backoff, contiguous shards.
    fn default() -> Self {
        Self {
            worker_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(5),
            boot_timeout: Duration::from_secs(120),
            backoff_initial: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
            scheme: PartitionScheme::Contiguous,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Counters the router accumulates while running (readable after shutdown
/// via [`RouterHandle::join`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Queries answered, including error answers.
    pub queries: u64,
    /// Individual worker-call failures (timeouts, refused connects,
    /// malformed responses, worker-side errors) — each one also produced
    /// an [`ErrorCode::Unavailable`] or propagated error answer. The sum
    /// of the links' `hydra_router_worker_errors_total`.
    pub worker_errors: u64,
    /// Client connections accepted.
    pub connections: u64,
}

/// One index as the router serves it: the merged advertisement plus the
/// map translating each worker's local ids to global ids.
struct RouterIndex {
    info: IndexInfo,
    map: ShardMap,
}

/// The link state of one worker: a connection when healthy, a backoff
/// clock when not. The mutex serializes calls per worker (each link is one
/// protocol connection, and `ServeClient::call` is one-in-one-out).
struct LinkState {
    client: Option<ServeClient>,
    backoff: Duration,
    next_attempt: Instant,
}

/// Live health metrics of one worker link, all under a
/// `worker="host:port"` label so a scrape of the router shows exactly
/// which shard is slow, flapping, or backing off.
struct WorkerMetrics {
    /// Calls currently inside [`WorkerLink::call`] — queued on the link
    /// lock or on the wire. Per link this hovers between 0 and the number
    /// of concurrently routed queries touching that worker.
    in_flight: Gauge,
    calls_total: Counter,
    /// Calls that did not produce the body they were made for: the worker
    /// was unreachable, backing off, timed out, babbled, or answered with
    /// an error of its own.
    errors_total: Counter,
    /// Subset of `errors_total` where the call ran into the configured
    /// worker timeout (classified by elapsed wall-clock, since the
    /// underlying error is an opaque socket error).
    timeouts_total: Counter,
    /// Successful (re)connections made by the call path — boot
    /// connections are not counted, so a nonzero value means the link
    /// failed at least once after boot.
    reconnects_total: Counter,
    /// The link's *current* backoff delay in microseconds; resets to the
    /// configured initial on the first success.
    backoff_micros: Gauge,
    call_micros: Histogram,
}

impl WorkerMetrics {
    fn new(registry: &MetricsRegistry, addr: SocketAddr) -> Self {
        let addr = addr.to_string();
        let labels: &[(&str, &str)] = &[("worker", addr.as_str())];
        Self {
            in_flight: registry.gauge("hydra_router_worker_in_flight", labels),
            calls_total: registry.counter("hydra_router_worker_calls_total", labels),
            errors_total: registry.counter("hydra_router_worker_errors_total", labels),
            timeouts_total: registry.counter("hydra_router_worker_timeouts_total", labels),
            reconnects_total: registry.counter("hydra_router_worker_reconnects_total", labels),
            backoff_micros: registry.gauge("hydra_router_worker_backoff_micros", labels),
            call_micros: registry.histogram("hydra_router_worker_call_micros", labels),
        }
    }
}

struct WorkerLink {
    addr: SocketAddr,
    state: Mutex<LinkState>,
    metrics: WorkerMetrics,
}

/// What a failed worker call turns into: the code and message of the
/// error response the client gets.
type CallError = (ErrorCode, String);

impl WorkerLink {
    /// Drops the connection and arms the backoff clock: after a failure
    /// the stream position is unknowable, so a fresh connection — no
    /// sooner than the doubled backoff allows — is the only safe
    /// continuation.
    fn back_off(&self, state: &mut LinkState, config: &RouterConfig) {
        state.client = None;
        state.next_attempt = Instant::now() + state.backoff;
        state.backoff = (state.backoff * 2).min(config.backoff_max);
        self.publish_backoff(state);
    }

    fn publish_backoff(&self, state: &LinkState) {
        self.metrics
            .backoff_micros
            .set(state.backoff.as_micros() as i64);
    }

    /// Fails the link over an answer that was the expected body but
    /// cannot be true (stream state is no longer trustworthy).
    fn poison(&self, config: &RouterConfig) {
        self.back_off(&mut self.state.lock().expect("link lock"), config);
        self.metrics.errors_total.inc();
    }

    /// One call to this worker, made for one kind of body: `expect` picks
    /// it out of the response (handing anything else back). A worker-side
    /// error passes through under the worker's name; any other body
    /// poisons the link. `what` names the call in that message.
    fn call<T>(
        &self,
        config: &RouterConfig,
        what: &str,
        make: impl FnOnce(u64) -> Request,
        expect: impl FnOnce(ResponseBody) -> Result<T, ResponseBody>,
    ) -> Result<T, CallError> {
        self.metrics.in_flight.add(1);
        self.metrics.calls_total.inc();
        let result = self
            .exchange(config, make)
            .and_then(|body| match expect(body) {
                Ok(expected) => Ok(expected),
                Err(ResponseBody::Error { code, message }) => {
                    Err((code, format!("worker {}: {message}", self.addr)))
                }
                Err(other) => {
                    self.back_off(&mut self.state.lock().expect("link lock"), config);
                    let message = format!("worker {} answered a {what} with {other:?}", self.addr);
                    Err((ErrorCode::Unavailable, message))
                }
            });
        if result.is_err() {
            self.metrics.errors_total.inc();
        }
        self.metrics.in_flight.add(-1);
        result
    }

    /// One request/response exchange with this worker: reconnect if needed
    /// (respecting the backoff clock), send, await. The link lock
    /// serializes exchanges per worker.
    fn exchange(
        &self,
        config: &RouterConfig,
        make: impl FnOnce(u64) -> Request,
    ) -> Result<ResponseBody, CallError> {
        let mut state = self.state.lock().expect("link lock");
        if state.client.is_none() {
            if Instant::now() < state.next_attempt {
                return Err((
                    ErrorCode::Unavailable,
                    format!("worker {} is backing off after a failure", self.addr),
                ));
            }
            match ServeClient::connect_within(self.addr, config.connect_timeout) {
                Ok(client) => {
                    client.set_read_timeout(Some(config.worker_timeout)).ok();
                    state.client = Some(client);
                    self.metrics.reconnects_total.inc();
                }
                Err(e) => {
                    self.back_off(&mut state, config);
                    return Err((
                        ErrorCode::Unavailable,
                        format!("worker {} is unreachable: {e}", self.addr),
                    ));
                }
            }
        }
        let client = state.client.as_mut().expect("client just ensured");
        let request = make(client.fresh_id());
        let t0 = Instant::now();
        let result = client.call(&request);
        let elapsed = t0.elapsed();
        self.metrics.call_micros.observe_micros(elapsed);
        match result {
            Ok(response) => {
                state.backoff = config.backoff_initial;
                self.publish_backoff(&state);
                Ok(response.body)
            }
            Err(e) => {
                if elapsed >= config.worker_timeout {
                    self.metrics.timeouts_total.inc();
                }
                self.back_off(&mut state, config);
                Err((
                    ErrorCode::Unavailable,
                    format!("worker {} failed mid-call: {e}", self.addr),
                ))
            }
        }
    }
}

struct Inner {
    workers: Vec<WorkerLink>,
    indexes: Vec<RouterIndex>,
    config: RouterConfig,
    listener: Arc<Listener>,
    registry: MetricsRegistry,
    queries_total: Counter,
}

impl Inner {
    /// Fans one query out to every worker and merges, or explains why not.
    /// Worker order is shard order: worker `w`'s local id `i` is global id
    /// `map.to_global(w, i)`.
    fn route_query(
        &self,
        index: &str,
        params: &hydra::SearchParams,
        query: &[f32],
    ) -> ResponseBody {
        let Some(rix) = self.indexes.iter().find(|rix| rix.info.name == index) else {
            return ResponseBody::Error {
                code: ErrorCode::UnknownIndex,
                message: format!("no index named {index:?} is served"),
            };
        };
        let call_worker = |w: usize| -> Result<Vec<Neighbor>, CallError> {
            let link = &self.workers[w];
            let mut neighbors = link.call(
                &self.config,
                "query",
                |request_id| Request::Query {
                    request_id,
                    index: index.to_string(),
                    params: *params,
                    query: query.to_vec(),
                },
                |body| match body {
                    ResponseBody::Answer { neighbors } => Ok(neighbors),
                    other => Err(other),
                },
            )?;
            // A decodable answer can still carry garbage ids (a buggy or
            // corrupted worker); remapping one would fabricate a neighbor
            // some *other* worker owns.
            if neighbors.iter().any(|n| n.index >= rix.map.shard_len(w)) {
                link.poison(&self.config);
                let message = format!("worker {} answered an out-of-range series id", link.addr);
                return Err((ErrorCode::Unavailable, message));
            }
            for n in &mut neighbors {
                n.index = rix.map.to_global(w, n.index);
            }
            Ok(neighbors)
        };
        let answers: Result<Vec<_>, _> = fan_out(self.workers.len(), call_worker)
            .into_iter()
            .collect();
        match answers {
            Ok(answers) => ResponseBody::Answer {
                neighbors: merge_top_k(params.k, &answers),
            },
            Err((code, message)) => ResponseBody::Error { code, message },
        }
    }
}

/// The router's side of a connection. Requests are handled in order, each
/// fanning out to all workers before the next is read (the engine's
/// contract): cross-*connection* queries still overlap — each connection
/// has its own reader thread — and the workers run their own
/// micro-batchers.
impl Handler for Arc<Inner> {
    fn handle(&mut self, request: Request, reply: &Reply) {
        match request {
            Request::Query {
                request_id,
                index,
                params,
                query,
            } => {
                self.queries_total.inc();
                reply.send(request_id, self.route_query(&index, &params, &query));
            }
            Request::ListIndexes { request_id } => {
                let indexes = self.indexes.iter().map(|rix| rix.info.clone()).collect();
                reply.send(request_id, ResponseBody::Indexes { indexes });
            }
            Request::Reload { request_id } => {
                // Fan the reload out to every worker, all-or-nothing like a
                // query: a zoo where only some shards reloaded would merge
                // answers across snapshot generations. The first failure
                // ends it; the acked epoch is the minimum across workers —
                // the number of reloads every worker has completed at least.
                let epochs: Result<Vec<u64>, CallError> = self
                    .workers
                    .iter()
                    .map(|link| {
                        link.call(
                            &self.config,
                            "reload",
                            |request_id| Request::Reload { request_id },
                            |body| match body {
                                ResponseBody::ReloadAck { epoch } => Ok(epoch),
                                other => Err(other),
                            },
                        )
                    })
                    .collect();
                let body = match epochs {
                    Ok(epochs) => ResponseBody::ReloadAck {
                        epoch: epochs.into_iter().min().unwrap_or(0),
                    },
                    Err((code, message)) => ResponseBody::Error { code, message },
                };
                reply.send(request_id, body);
            }
            Request::Stats { request_id } => {
                // The router answers with its *own* registry — per-worker
                // link health, fan-out and wire counters. Scraping a worker's
                // query/stage metrics means scraping that worker directly;
                // merging texts here would conflate two processes' clocks.
                let text = self.registry.render();
                reply.send(request_id, ResponseBody::Stats { text });
            }
            Request::Shutdown { request_id } => {
                // Whole-deployment shutdown: acknowledge, pass the frame on
                // to every reachable worker (best effort — a dead worker
                // has nothing to stop), then stop routing.
                reply.send(request_id, ResponseBody::ShutdownAck);
                for link in &self.workers {
                    let _ = link.call(
                        &self.config,
                        "shutdown",
                        |request_id| Request::Shutdown { request_id },
                        |body| match body {
                            ResponseBody::ShutdownAck => Ok(()),
                            other => Err(other),
                        },
                    );
                }
                self.listener.begin_shutdown();
            }
        }
    }
}

/// A running router. Obtained from [`Router::spawn`]; dropping the handle
/// does **not** stop it — call [`RouterHandle::shutdown`] (or send a
/// shutdown frame) and then [`RouterHandle::join`].
pub struct RouterHandle {
    inner: Arc<Inner>,
    acceptor: std::thread::JoinHandle<()>,
}

impl RouterHandle {
    /// The address the router actually listens on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.listener.local_addr()
    }

    /// The router's metrics registry — the same one a stats frame scrapes
    /// over the wire, exposed for in-process inspection in tests.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Stops the router itself. Workers are **not** told to stop — only a
    /// client's shutdown frame is forwarded to them (that is the whole-
    /// deployment shutdown path the CI smoke uses).
    pub fn shutdown(&self) {
        self.inner.listener.begin_shutdown();
    }

    /// Waits for the acceptor and every client connection to finish, then
    /// reports the run's counters.
    ///
    /// # Panics
    /// Propagates a panic of the acceptor thread (not expected).
    pub fn join(self) -> RouterStats {
        self.acceptor.join().expect("acceptor panicked");
        let links = self.inner.workers.iter();
        RouterStats {
            queries: self.inner.queries_total.get(),
            worker_errors: links.map(|link| link.metrics.errors_total.get()).sum(),
            connections: self.inner.listener.connections(),
        }
    }
}

/// The scale-out router: connects to the workers, validates their
/// listings agree, and serves the merged zoo.
pub struct Router;

impl Router {
    /// Connects to `workers` (shard order — worker `w` must hold shard `w`
    /// of every index), validates that every worker serves the same index
    /// names with the same method and series length, and binds `addr` for
    /// clients.
    ///
    /// # Errors
    /// An [`std::io::Error`] if `workers` is empty, a worker cannot be
    /// reached within [`RouterConfig::boot_timeout`], the workers'
    /// listings disagree (serving a zoo where shard 1 of `rand256-dstree`
    /// is missing would answer every query wrongly), the shard sizes are
    /// not a valid split under [`RouterConfig::scheme`], or the listener
    /// cannot bind.
    pub fn spawn<A: ToSocketAddrs>(
        workers: &[SocketAddr],
        addr: A,
        config: RouterConfig,
    ) -> std::io::Result<RouterHandle> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        if workers.is_empty() {
            return Err(invalid("refusing to route to zero workers".into()));
        }
        // Boot: list every worker's zoo, with the boot clients kept as the
        // initial link connections.
        let registry = MetricsRegistry::new();
        let mut links = Vec::with_capacity(workers.len());
        let mut listings: Vec<Vec<IndexInfo>> = Vec::with_capacity(workers.len());
        for &worker in workers {
            let mut client = ServeClient::connect_with_retry(worker, config.boot_timeout)?;
            client.set_read_timeout(Some(config.worker_timeout)).ok();
            let mut listing = client
                .list_indexes()
                .map_err(|e| invalid(format!("worker {worker} listing failed: {e}")))?;
            listing.sort_by(|a, b| a.name.cmp(&b.name));
            listings.push(listing);
            let metrics = WorkerMetrics::new(&registry, worker);
            metrics
                .backoff_micros
                .set(config.backoff_initial.as_micros() as i64);
            links.push(WorkerLink {
                addr: worker,
                state: Mutex::new(LinkState {
                    client: Some(client),
                    backoff: config.backoff_initial,
                    next_attempt: Instant::now(),
                }),
                metrics,
            });
        }
        // Validate agreement and build the merged view.
        let mut indexes = Vec::with_capacity(listings[0].len());
        for (listing, &worker) in listings.iter().zip(workers).skip(1) {
            if listing.len() != listings[0].len() {
                return Err(invalid(format!(
                    "worker {worker} serves {} indexes but worker {} serves {} — every \
                     worker must hold one shard of the same zoo",
                    listing.len(),
                    workers[0],
                    listings[0].len()
                )));
            }
        }
        for (i, first) in listings[0].iter().enumerate() {
            let mut lens = Vec::with_capacity(workers.len());
            for (listing, &worker) in listings.iter().zip(workers) {
                let info = &listing[i];
                if info.name != first.name
                    || info.method != first.method
                    || info.series_len != first.series_len
                    || info.capabilities() != first.capabilities()
                {
                    return Err(invalid(format!(
                        "worker {worker} serves {:?} ({} over series of length {}) where \
                         worker {} serves {:?} ({} over series of length {})",
                        info.name,
                        info.method,
                        info.series_len,
                        workers[0],
                        first.name,
                        first.method,
                        first.series_len
                    )));
                }
                lens.push(info.num_series as usize);
            }
            let map = ShardMap::from_lens(config.scheme, &lens).map_err(|e| {
                invalid(format!(
                    "shard sizes {lens:?} of index {:?} are not a valid {} split: {e}",
                    first.name,
                    config.scheme.label()
                ))
            })?;
            let mut info = first.clone();
            info.num_series = map.total() as u64;
            indexes.push(RouterIndex { info, map });
        }
        let inner = Arc::new(Inner {
            workers: links,
            indexes,
            config,
            listener: Listener::bind(addr, config.write_timeout, &registry, "hydra_router")?,
            queries_total: registry.counter("hydra_router_queries_total", &[]),
            registry,
        });
        let shared = Arc::clone(&inner);
        let acceptor = inner.listener.spawn(move || Arc::clone(&shared));
        Ok(RouterHandle { inner, acceptor })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServedIndex, Server, ServerConfig, ServerHandle};
    use hydra::core::{Capabilities, Representation};
    use hydra::{AnnIndex, QueryStats, Result, SearchParams, SearchResult};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    /// A worker-side stand-in: `num_series` ids, neighbor distance is
    /// `base + local id`, so merged global answers are fully predictable.
    struct Ramp {
        num_series: usize,
        base: f32,
    }

    impl AnnIndex for Ramp {
        fn name(&self) -> &'static str {
            "ramp"
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
            self.num_series
        }
        fn series_len(&self) -> usize {
            2
        }
        fn memory_footprint(&self) -> usize {
            0
        }
        fn search(&self, _query: &[f32], params: &SearchParams) -> Result<SearchResult> {
            let neighbors = (0..self.num_series.min(params.k))
                .map(|i| Neighbor::new(i, self.base + i as f32))
                .collect();
            Ok(SearchResult::new(neighbors, QueryStats::new()))
        }
    }

    fn ramp_worker(name: &str, num_series: usize, base: f32) -> ServerHandle {
        Server::spawn(
            vec![ServedIndex {
                name: name.into(),
                index: Box::new(Ramp { num_series, base }),
            }],
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap()
    }

    fn fast_config() -> RouterConfig {
        RouterConfig {
            worker_timeout: Duration::from_millis(500),
            connect_timeout: Duration::from_millis(200),
            boot_timeout: Duration::from_secs(5),
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(100),
            ..RouterConfig::default()
        }
    }

    #[test]
    fn routes_and_merges_across_two_workers() {
        // Worker 0: ids 0..3 at distances 10,11,12. Worker 1: ids 0..2 at
        // distances 5,6 → global 3,4. Merged top-3: (5, g3), (6, g4), (10, g0).
        let w0 = ramp_worker("ramp", 3, 10.0);
        let w1 = ramp_worker("ramp", 2, 5.0);
        let router = Router::spawn(
            &[w0.local_addr(), w1.local_addr()],
            "127.0.0.1:0",
            fast_config(),
        )
        .unwrap();
        let mut client = ServeClient::connect(router.local_addr()).unwrap();
        let infos = client.list_indexes().unwrap();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].name, "ramp");
        assert_eq!(infos[0].num_series, 5, "merged listing sums the shards");
        let response = client
            .call(&Request::Query {
                request_id: 1,
                index: "ramp".into(),
                params: SearchParams::exact(3),
                query: vec![0.0, 0.0],
            })
            .unwrap();
        match response.body {
            ResponseBody::Answer { neighbors } => {
                assert_eq!(
                    neighbors,
                    vec![
                        Neighbor::new(3, 5.0),
                        Neighbor::new(4, 6.0),
                        Neighbor::new(0, 10.0),
                    ]
                );
            }
            other => panic!("expected an answer, got {other:?}"),
        }
        // Unknown index is the router's own typed error, no worker calls.
        let response = client
            .call(&Request::Query {
                request_id: 2,
                index: "nope".into(),
                params: SearchParams::exact(1),
                query: vec![0.0, 0.0],
            })
            .unwrap();
        assert!(matches!(
            response.body,
            ResponseBody::Error {
                code: ErrorCode::UnknownIndex,
                ..
            }
        ));
        // Client shutdown reaches the workers through the router.
        client.shutdown().unwrap();
        drop(client);
        let stats = router.join();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.worker_errors, 0);
        w0.join();
        w1.join();
    }

    #[test]
    fn boot_rejects_disagreeing_workers_and_zero_workers() {
        assert!(Router::spawn(&[], "127.0.0.1:0", fast_config()).is_err());
        let w0 = ramp_worker("ramp", 3, 0.0);
        let w1 = ramp_worker("other", 3, 0.0);
        let err = Router::spawn(
            &[w0.local_addr(), w1.local_addr()],
            "127.0.0.1:0",
            fast_config(),
        );
        assert!(err.is_err(), "mismatched index names must fail the boot");
        w0.shutdown();
        w1.shutdown();
        w0.join();
        w1.join();
    }

    #[test]
    fn malformed_client_frames_hang_up_that_connection_only() {
        let w0 = ramp_worker("ramp", 2, 0.0);
        let router =
            Router::spawn(&[w0.local_addr()], "127.0.0.1:0", fast_config()).unwrap();
        let mut bad = TcpStream::connect(router.local_addr()).unwrap();
        bad.write_all(b"not a frame at all").unwrap();
        bad.flush().unwrap();
        let mut reader = BufReader::new(bad.try_clone().unwrap());
        let resp = crate::protocol::read_response(&mut reader).unwrap().unwrap();
        assert_eq!(resp.request_id, 0);
        assert!(matches!(
            resp.body,
            ResponseBody::Error {
                code: ErrorCode::Protocol,
                ..
            }
        ));
        assert!(crate::protocol::read_response(&mut reader).unwrap().is_none());
        // A fresh connection still routes.
        let mut client = ServeClient::connect(router.local_addr()).unwrap();
        assert_eq!(client.list_indexes().unwrap().len(), 1);
        client.shutdown().unwrap();
        drop(client);
        router.join();
        w0.join();
    }
}
