//! The scale-out router: one process speaking the serving protocol on
//! both sides. Clients talk to it exactly as they would to a single
//! [`crate::server::Server`]; behind it, `S` worker servers each hold one
//! shard of every index (built by `fig* --save-index DIR --shards S`,
//! booted with `hydra-serve --shard-role worker`).
//!
//! ## Topology
//!
//! ```text
//! client ──HSRQ──▶ router ══HSRQ══▶ worker 0 (shard 0 snapshots)
//! client ──HSRQ──▶   │  every query written to every link, many in
//!                    │  flight per link under link-local ids
//!                    ╠═════HSRQ══▶ worker 1 (shard 1 snapshots)
//!                    ╚═════HSRQ══▶ worker S-1
//!        ◀──HSRP── gather: local ids → global via ShardMap, top-k by
//!                  (distance, global id), merged by whichever link's
//!                  reader thread delivers the last worker's answer
//! ```
//!
//! The router is the multi-process twin of the in-process
//! `hydra_shard::ShardedIndex`: worker order is shard order, worker-local
//! ids are translated through the same [`ShardMap`], and per-worker
//! answers are merged by the same (distance, global id) rule
//! ([`hydra::merge_top_k`]) — so for exact search a routed answer is
//! bit-identical to the in-process sharded answer, which is bit-identical
//! to the unsharded one (`tests/integration_router.rs`).
//!
//! ## Links
//!
//! Each worker link is one protocol connection carrying up to 64 calls
//! at once (the workers' default `max_batch`; beyond it the router stops
//! reading the client connection that wants to send more). A client connection's reader thread
//! writes a query to every link and goes back to reading; it never waits
//! for a worker. One reader thread per live worker connection decodes the
//! responses, matches each to its call by the link-local request id, and
//! completes it — for a query, by filling that worker's slot of the
//! query's gather. So queries of different clients, and pipelined
//! queries of one client, overlap on every worker (whose micro-batcher
//! sees them together), and their answers go back in completion order,
//! each on its own request id.
//!
//! ## Failure semantics
//!
//! A query is answered *completely or not at all* — a partial top-k
//! silently missing one shard's neighbors would be a wrong answer wearing
//! a right answer's clothes. Any worker failure (connect refused, call
//! timeout, malformed or unmatched response, worker-side error) turns
//! the whole query into one typed error response
//! ([`ErrorCode::Unavailable`], naming the worker and the failure) on the
//! query's own request id, within the per-worker timeout — the router
//! never hangs a client on a dead worker, and other connections are
//! unaffected. After a failure the stream position of a worker connection
//! is unknowable, so *every* call in flight on it fails with it, each
//! exactly once. Failed workers are reconnected lazily with exponential
//! backoff, 100 ms doubling to 5 s (so a flapping worker cannot turn every
//! query into a connect storm), and a worker restart is picked up on the
//! next attempt.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt::Display;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hydra::core::Answer;
use hydra::{merge_top_k, ShardMap};
use hydra_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::client::ServeClient;
use crate::listener::{Handler, Listener, Reply};
use crate::protocol::{
    read_response, ErrorCode, IndexInfo, ProtocolError, Request, Response, ResponseBody,
};

/// The router's settable knobs, each a `hydra-serve` flag. The rest are
/// fixed: a reconnection attempt to a failed worker gives up after 5 s,
/// the reconnection backoff starts at 100 ms and doubles per consecutive
/// failure up to 5 s (reset by the first success), and a socket write
/// toward a client times out after 30 s, as on a server.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Read timeout for one worker call: a worker that accepts a query but
    /// never answers fails the call after this long instead of hanging the
    /// client forever.
    pub worker_timeout: Duration,
    /// How long boot retries the initial connection to each worker —
    /// generous, because workers validate whole snapshot directories
    /// before they listen.
    pub boot_timeout: Duration,
}

impl Default for RouterConfig {
    /// 30 s worker calls, 120 s boot.
    fn default() -> Self {
        Self {
            worker_timeout: Duration::from_secs(30),
            boot_timeout: Duration::from_secs(120),
        }
    }
}

/// Bound on one reconnection attempt to a failed worker.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// First retry delay after a worker failure; doubles per consecutive
/// failure up to [`BACKOFF_MAX`], resets on the first success.
const BACKOFF_INITIAL: Duration = Duration::from_millis(100);

/// Cap on the reconnection backoff.
const BACKOFF_MAX: Duration = Duration::from_secs(5);

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
/// map translating each worker's local ids to global ids (shared with the
/// calls in flight, which outlive the request that made them).
struct RouterIndex {
    info: IndexInfo,
    map: Arc<ShardMap>,
}

/// Calls in flight on one link at most: the workers' default `max_batch`,
/// so one link can fill a worker's tick. At the cap [`WorkerLink::start`]
/// blocks the client connection's reader thread that called it — which is
/// TCP back-pressure toward that client.
const MAX_IN_FLIGHT: usize = 64;

/// The id a request to a worker is built under; the link that sends it
/// overwrites it with its own next id ([`WorkerLink::start`]). Client ids
/// cannot number a link's calls — every client counts from 1.
const UNNUMBERED: u64 = u64::MAX;

/// What a failed worker call turns into: the code and message of the
/// error response the client gets.
type CallError = (ErrorCode, String);

/// How a call in flight ends: handed its link and either the response
/// body, with the generation of the connection it arrived on, or why there
/// will be none. Runs exactly once, outside the link lock, on the thread
/// that ended the call — the connection's reader, or a caller that took
/// the connection down.
type Completion = Box<dyn FnOnce(&WorkerLink, Result<(u64, ResponseBody), CallError>) + Send>;

/// One call written to a worker and not yet completed.
struct Pending {
    sent: Instant,
    complete: Completion,
}

/// The link state of one worker: a connection when healthy, a backoff
/// clock when not, and the calls in flight on the connection.
struct LinkState {
    /// Write half of the live connection; its read half belongs to the
    /// reader thread spawned with it.
    writer: Option<TcpStream>,
    /// Connections dropped so far. A reader thread remembers the value it
    /// was spawned under and touches nothing once it has moved on, so a
    /// late reader of a dropped connection can never complete, fail or
    /// time out a call made on its successor.
    generation: u64,
    /// Calls in flight on `writer`, by link-local request id. Ids ascend,
    /// so the first entry is the oldest call. Emptied — every call failed
    /// — whenever the connection is dropped.
    pending: BTreeMap<u64, Pending>,
    next_id: u64,
    backoff: Duration,
    next_attempt: Instant,
    /// Reader threads not yet joined: the live connection's, plus those
    /// of dropped connections that have not been reaped since.
    readers: Vec<JoinHandle<()>>,
}

/// Live health metrics of one worker link, all under a
/// `worker="host:port"` label so a scrape of the router shows exactly
/// which shard is slow, flapping, or backing off.
struct WorkerMetrics {
    /// Calls written to the worker and not yet completed — between 0 and
    /// [`MAX_IN_FLIGHT`].
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
    /// The link's *current* backoff delay in microseconds; resets to
    /// [`BACKOFF_INITIAL`] on the first success.
    backoff_micros: Gauge,
    /// Per call, from its frame being written to its completion.
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
    config: RouterConfig,
    state: Mutex<LinkState>,
    /// Signalled whenever `pending` shrinks: wakes callers parked at
    /// [`MAX_IN_FLIGHT`].
    room: Condvar,
    metrics: WorkerMetrics,
}

impl WorkerLink {
    /// A link with no connection yet, free to connect at once.
    fn new(addr: SocketAddr, config: RouterConfig, registry: &MetricsRegistry) -> Self {
        let link = Self {
            addr,
            config,
            state: Mutex::new(LinkState {
                writer: None,
                generation: 0,
                pending: BTreeMap::new(),
                next_id: 1,
                backoff: BACKOFF_INITIAL,
                next_attempt: Instant::now(),
                readers: Vec::new(),
            }),
            room: Condvar::new(),
            metrics: WorkerMetrics::new(registry, addr),
        };
        link.publish_backoff(BACKOFF_INITIAL);
        link
    }

    fn lock(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().expect("link lock")
    }

    fn publish_backoff(&self, backoff: Duration) {
        self.metrics.backoff_micros.set(backoff.as_micros() as i64);
    }

    /// Makes `client` the link's connection and spawns its reader thread,
    /// reaping the readers of earlier connections that have exited.
    fn install(self: &Arc<Self>, state: &mut LinkState, client: ServeClient) {
        let (reader, writer) = client.into_halves();
        // A worker that stops reading must fail the calls behind it, not
        // park a writer that holds the link lock.
        writer
            .set_write_timeout(Some(self.config.worker_timeout))
            .ok();
        state.writer = Some(writer);
        let (exited, live): (Vec<_>, Vec<_>) = std::mem::take(&mut state.readers)
            .into_iter()
            .partition(JoinHandle::is_finished);
        for reader in exited {
            reader.join().expect("link reader panicked");
        }
        state.readers = live;
        let (link, generation) = (Arc::clone(self), state.generation);
        state.readers.push(std::thread::spawn(move || {
            link.read_responses(generation, reader);
        }));
    }

    /// Arms the backoff clock: no connection attempt sooner than the
    /// current backoff allows, and twice as long after the next failure.
    fn back_off(&self, state: &mut LinkState) {
        state.next_attempt = Instant::now() + state.backoff;
        state.backoff = (state.backoff * 2).min(BACKOFF_MAX);
        self.publish_backoff(state.backoff);
    }

    /// Drops the connection and backs off: after a failure the stream
    /// position is unknowable, so a fresh connection is the only safe
    /// continuation, and no call in flight on the old one can still be
    /// answered. Returns those calls for [`fail_calls`](Self::fail_calls),
    /// which must run after the lock is released.
    fn drop_connection(&self, state: &mut LinkState) -> BTreeMap<u64, Pending> {
        if let Some(writer) = state.writer.take() {
            // Wakes the connection's reader, which finds the generation
            // moved on and exits.
            let _ = writer.shutdown(Shutdown::Both);
        }
        state.generation += 1;
        self.back_off(state);
        self.metrics.in_flight.set(0);
        self.room.notify_all();
        std::mem::take(&mut state.pending)
    }

    /// Completes every call of a dropped connection with the one typed
    /// error, naming `reason`.
    fn fail_calls(&self, calls: BTreeMap<u64, Pending>, reason: &dyn Display) {
        for call in calls.into_values() {
            let elapsed = call.sent.elapsed();
            self.metrics.call_micros.observe_micros(elapsed);
            if elapsed >= self.config.worker_timeout {
                self.metrics.timeouts_total.inc();
            }
            let message = format!("worker {} failed mid-call: {reason}", self.addr);
            (call.complete)(self, Err((ErrorCode::Unavailable, message)));
        }
    }

    /// Fails connection `generation` — if it is still the link's — and
    /// every call in flight on it.
    fn fail(&self, generation: u64, reason: &dyn Display) {
        let calls = {
            let mut state = self.lock();
            if state.generation != generation {
                return;
            }
            self.drop_connection(&mut state)
        };
        self.fail_calls(calls, reason);
    }

    /// Shuts the link for good: fails what is in flight and joins every
    /// reader thread. Only once nothing can call [`start`](Self::start)
    /// any more.
    fn close(&self) {
        let (calls, readers) = {
            let mut state = self.lock();
            let calls = self.drop_connection(&mut state);
            (calls, std::mem::take(&mut state.readers))
        };
        self.fail_calls(calls, &"the router is shutting down");
        for reader in readers {
            reader.join().expect("link reader panicked");
        }
    }

    /// Starts one call to this worker and returns without waiting for its
    /// answer. Under the link lock: waits for room below
    /// [`MAX_IN_FLIGHT`], reconnects if the link is down and its backoff
    /// allows, numbers `frame` — an encoded request, whose id is
    /// overwritten — with the link's next id, registers the call and
    /// writes the frame.
    ///
    /// `done` runs exactly once, on another thread or — when the request
    /// never reaches the wire — on this one before `start` returns. It
    /// gets what `expect` made of the response body; an `Err` from
    /// `expect` says what was wrong with a body that decoded but cannot be
    /// true (completing "worker … answered …"), which takes the connection
    /// down like any other failure. A worker-side error passes through
    /// under the worker's name and leaves the connection up.
    fn start<T>(
        self: &Arc<Self>,
        frame: &mut [u8],
        expect: impl FnOnce(ResponseBody) -> Result<T, String> + Send + 'static,
        done: impl FnOnce(Result<T, CallError>) + Send + 'static,
    ) {
        self.metrics.calls_total.inc();
        let complete: Completion = Box::new(move |link, result| {
            let result = result.and_then(|(generation, body)| match body {
                ResponseBody::Error { code, message } => {
                    Err((code, format!("worker {}: {message}", link.addr)))
                }
                body => expect(body).map_err(|wrong| {
                    link.fail(generation, &"another call's answer could not be trusted");
                    let message = format!("worker {} answered {wrong}", link.addr);
                    (ErrorCode::Unavailable, message)
                }),
            });
            if result.is_err() {
                link.metrics.errors_total.inc();
            }
            done(result);
        });
        let mut state = self.lock();
        while state.pending.len() >= MAX_IN_FLIGHT {
            state = self.room.wait(state).expect("link lock");
        }
        let refused = if state.writer.is_some() {
            None
        } else if Instant::now() < state.next_attempt {
            Some("is backing off after a failure".to_string())
        } else {
            match ServeClient::connect_within(self.addr, CONNECT_TIMEOUT) {
                Ok(client) => {
                    self.install(&mut state, client);
                    self.metrics.reconnects_total.inc();
                    None
                }
                Err(e) => {
                    self.back_off(&mut state);
                    Some(format!("is unreachable: {e}"))
                }
            }
        };
        if let Some(refused) = refused {
            drop(state);
            let message = format!("worker {} {refused}", self.addr);
            return complete(self, Err((ErrorCode::Unavailable, message)));
        }
        let id = state.next_id;
        state.next_id += 1;
        Request::set_frame_id(frame, id);
        let sent = Instant::now();
        state.pending.insert(id, Pending { sent, complete });
        self.metrics.in_flight.set(state.pending.len() as i64);
        let writer = state.writer.as_mut().expect("connection just ensured");
        if let Err(e) = writer.write_all(frame) {
            let calls = self.drop_connection(&mut state);
            drop(state);
            self.fail_calls(calls, &e);
        }
    }

    /// [`start`](Self::start), then waits for the call's completion — how
    /// the boot listing, reloads and the forwarded shutdown are made.
    fn call<T: Send + 'static>(
        self: &Arc<Self>,
        request: &Request,
        expect: impl FnOnce(ResponseBody) -> Result<T, String> + Send + 'static,
    ) -> Result<T, CallError> {
        let (done, completion) = mpsc::channel();
        self.start(&mut request.encode(), expect, move |result| {
            let _ = done.send(result);
        });
        completion
            .recv()
            .expect("a started call is completed exactly once")
    }

    /// Completes the call `response` answers. An id no call in flight
    /// carries means the stream cannot be trusted any further.
    fn answer(&self, generation: u64, response: Response) -> Result<(), ProtocolError> {
        let call = {
            let mut state = self.lock();
            if state.generation != generation {
                return Ok(());
            }
            let Some(call) = state.pending.remove(&response.request_id) else {
                return Err(ProtocolError::Corrupt(format!(
                    "response id {} matches no call in flight",
                    response.request_id
                )));
            };
            self.metrics.in_flight.set(state.pending.len() as i64);
            self.room.notify_all();
            if state.backoff != BACKOFF_INITIAL {
                state.backoff = BACKOFF_INITIAL;
                self.publish_backoff(state.backoff);
            }
            call
        };
        self.metrics.call_micros.observe_micros(call.sent.elapsed());
        (call.complete)(self, Ok((generation, response.body)));
        Ok(())
    }

    /// The reader thread of connection `generation`: decodes responses and
    /// completes their calls until the connection fails or is dropped.
    ///
    /// It only ever waits at a frame boundary, and no longer than the
    /// oldest call in flight has left of `worker_timeout` — so the timeout
    /// strikes between frames, where giving up loses no bytes, or as a
    /// read error *inside* a frame, which ends the connection like any
    /// other. Either way every call in flight fails with it.
    fn read_responses(&self, generation: u64, mut reader: BufReader<TcpStream>) {
        let timeout = self.config.worker_timeout;
        let failure = loop {
            let wait = {
                let state = self.lock();
                if state.generation != generation {
                    return;
                }
                match state.pending.first_key_value() {
                    Some((_, oldest)) => {
                        (oldest.sent + timeout).saturating_duration_since(Instant::now())
                    }
                    None => timeout,
                }
            };
            if wait.is_zero() {
                break ProtocolError::Io(format!("no response within {timeout:?}"));
            }
            reader.get_ref().set_read_timeout(Some(wait)).ok();
            match reader.fill_buf() {
                Ok([]) => break ProtocolError::Truncated,
                Ok(_) => {}
                // Only the read timeout (or a signal): nothing consumed,
                // nothing wrong with the stream.
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => continue,
                Err(e) => break e.into(),
            }
            match read_response(&mut reader) {
                Ok(Some(response)) => {
                    if let Err(e) = self.answer(generation, response) {
                        break e;
                    }
                }
                Ok(None) => break ProtocolError::Truncated,
                Err(e) => break e,
            }
        };
        self.fail(generation, &failure);
    }
}

/// One routed query: a slot per worker, filled by the link readers as the
/// workers answer. Whichever fills the last slot merges and replies;
/// whichever brings the first error replies with it instead, and the rest
/// is discarded.
struct Gather {
    reply: Reply,
    request_id: u64,
    k: usize,
    /// One slot per worker, in shard order, holding its neighbors under
    /// global ids; `None` once the reply has been sent.
    slots: Mutex<Option<Vec<Option<Answer>>>>,
    /// Held for [`ClientConn::wait_for_own_queries`] until the last
    /// worker's call has completed.
    _in_flight: mpsc::Sender<Infallible>,
}

impl Gather {
    fn fill(&self, w: usize, result: Result<Answer, CallError>) {
        let mut slots = self.slots.lock().expect("gather lock");
        let Some(answers) = slots.as_mut() else {
            return;
        };
        let body = match result {
            Ok(neighbors) => {
                answers[w] = Some(neighbors);
                if answers.iter().any(Option::is_none) {
                    return;
                }
                // Every slot is filled: unwrap them, in shard order.
                let answers: Vec<Answer> = slots.take().into_iter().flatten().flatten().collect();
                ResponseBody::Answer {
                    neighbors: merge_top_k(self.k, &answers),
                }
            }
            Err((code, message)) => {
                *slots = None;
                ResponseBody::Error { code, message }
            }
        };
        self.reply.send(self.request_id, body);
    }
}

struct Inner {
    workers: Vec<Arc<WorkerLink>>,
    indexes: Vec<RouterIndex>,
    listener: Arc<Listener>,
    registry: MetricsRegistry,
    queries_total: Counter,
}

/// The router's side of one client connection. A query is written to every
/// worker link and left there — the handler returns to reading the next
/// request at once, so pipelined queries overlap on the workers and are
/// answered in completion order. Every other request is a barrier: it is
/// handled only after this connection's own queries have completed, so a
/// scrape counts them and "query, then shutdown" still answers the query.
struct ClientConn {
    inner: Arc<Inner>,
    /// Cloned into every [`Gather`] this connection starts; never sent on.
    in_flight: mpsc::Sender<Infallible>,
    /// Disconnects once every clone of `in_flight` has been dropped.
    drained: mpsc::Receiver<Infallible>,
}

impl ClientConn {
    fn new(inner: Arc<Inner>) -> Self {
        let (in_flight, drained) = mpsc::channel();
        Self {
            inner,
            in_flight,
            drained,
        }
    }

    /// Blocks until every query this connection has routed so far is off
    /// every link: swaps in a fresh channel and waits for the old one's
    /// senders — one per gather still alive — to be dropped.
    fn wait_for_own_queries(&mut self) {
        let (in_flight, drained) = mpsc::channel();
        drop(std::mem::replace(&mut self.in_flight, in_flight));
        let _ = std::mem::replace(&mut self.drained, drained).recv();
    }

    /// Writes one query to every worker, or explains why not. Worker order
    /// is shard order: worker `w`'s local id `i` is global id
    /// `map.to_global(w, i)`.
    fn route_query(
        &self,
        request_id: u64,
        index: String,
        params: hydra::SearchParams,
        query: Vec<f32>,
        reply: &Reply,
    ) {
        let workers = &self.inner.workers;
        let Some(rix) = self.inner.indexes.iter().find(|rix| rix.info.name == index) else {
            let (code, message) = (
                ErrorCode::UnknownIndex,
                format!("no index named {index:?} is served"),
            );
            return reply.send(request_id, ResponseBody::Error { code, message });
        };
        let gather = Arc::new(Gather {
            reply: reply.clone(),
            request_id,
            k: params.k,
            slots: Mutex::new(Some(vec![None; workers.len()])),
            _in_flight: self.in_flight.clone(),
        });
        // Encoded once: each link only overwrites the id.
        let mut frame = Request::Query {
            request_id: UNNUMBERED,
            index,
            params,
            query,
        }
        .encode();
        for (w, link) in workers.iter().enumerate() {
            let (gather, map) = (Arc::clone(&gather), Arc::clone(&rix.map));
            link.start(
                &mut frame,
                move |body| match body {
                    ResponseBody::Answer { mut neighbors } => {
                        // A decodable answer can still carry garbage ids (a
                        // buggy or corrupted worker); remapping one would
                        // fabricate a neighbor some *other* worker owns.
                        if neighbors.iter().any(|n| n.index >= map.shard_len(w)) {
                            return Err("an out-of-range series id".into());
                        }
                        for n in &mut neighbors {
                            n.index = map.to_global(w, n.index);
                        }
                        Ok(neighbors)
                    }
                    other => Err(format!("a query with {other:?}")),
                },
                move |result| gather.fill(w, result),
            );
        }
    }
}

impl Handler for ClientConn {
    fn handle(&mut self, request: Request, reply: &Reply) {
        if !matches!(request, Request::Query { .. }) {
            self.wait_for_own_queries();
        }
        let inner = &self.inner;
        match request {
            Request::Query {
                request_id,
                index,
                params,
                query,
            } => {
                inner.queries_total.inc();
                self.route_query(request_id, index, params, query, reply);
            }
            Request::ListIndexes { request_id } => {
                let indexes = inner.indexes.iter().map(|rix| rix.info.clone()).collect();
                reply.send(request_id, ResponseBody::Indexes { indexes });
            }
            Request::Reload { request_id } => {
                // Reload worker by worker, all-or-nothing like a query: a
                // zoo where only some shards reloaded would merge answers
                // across snapshot generations. The first failure ends it;
                // the acked epoch is the minimum across workers — the
                // number of reloads every worker has completed at least.
                let epochs: Result<Vec<u64>, CallError> = inner
                    .workers
                    .iter()
                    .map(|link| {
                        let request_id = UNNUMBERED;
                        link.call(&Request::Reload { request_id }, |body| match body {
                            ResponseBody::ReloadAck { epoch } => Ok(epoch),
                            other => Err(format!("a reload with {other:?}")),
                        })
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
                let text = inner.registry.render();
                reply.send(request_id, ResponseBody::Stats { text });
            }
            Request::Shutdown { request_id } => {
                // Whole-deployment shutdown: acknowledge, pass the frame on
                // to every reachable worker (best effort — a dead worker
                // has nothing to stop), then stop routing.
                reply.send(request_id, ResponseBody::ShutdownAck);
                for link in &inner.workers {
                    let request_id = UNNUMBERED;
                    let _ = link.call(&Request::Shutdown { request_id }, |body| match body {
                        ResponseBody::ShutdownAck => Ok(()),
                        other => Err(format!("a shutdown with {other:?}")),
                    });
                }
                inner.listener.begin_shutdown();
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

    /// Waits for the acceptor and every client connection to finish —
    /// each stays up until its last routed query is answered — then closes
    /// the worker links, joining their reader threads, and reports the
    /// run's counters.
    ///
    /// # Panics
    /// Propagates a panic of the acceptor thread or of a link's reader
    /// thread (not expected).
    pub fn join(self) -> RouterStats {
        self.acceptor.join().expect("acceptor panicked");
        for link in &self.inner.workers {
            link.close();
        }
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
    /// of every index, its shards contiguous ranges of the dataset, as
    /// `fig* --save-index DIR --shards S` writes them), validates that
    /// every worker serves the same index names with the same method and
    /// series length, and binds `addr` for clients.
    ///
    /// # Errors
    /// An [`std::io::Error`] if `workers` is empty or names one address
    /// twice (that shard would be counted twice, its neighbors answered
    /// under two global ids), a worker cannot be reached within
    /// [`RouterConfig::boot_timeout`], the workers' listings disagree
    /// (serving a zoo where shard 1 of `rand256-dstree` is missing would
    /// answer every query wrongly), a shard is empty, or the listener
    /// cannot bind.
    pub fn spawn<A: ToSocketAddrs>(
        workers: &[SocketAddr],
        addr: A,
        config: RouterConfig,
    ) -> std::io::Result<RouterHandle> {
        if workers.is_empty() {
            return Err(invalid("refusing to route to zero workers".into()));
        }
        if let Some(w) = (1..workers.len()).find(|&w| workers[..w].contains(&workers[w])) {
            return Err(invalid(format!(
                "worker {w} repeats {}: every shard needs a worker of its own",
                workers[w]
            )));
        }
        let registry = MetricsRegistry::new();
        let links: Vec<Arc<WorkerLink>> = workers
            .iter()
            .map(|&worker| Arc::new(WorkerLink::new(worker, config, &registry)))
            .collect();
        Self::boot(&links, addr, config, registry).inspect_err(|_| {
            // A refused boot leaves no reader thread behind.
            for link in &links {
                link.close();
            }
        })
    }

    /// Boot proper: connects every link, lists every worker's zoo over it,
    /// validates agreement and starts serving the merged view.
    fn boot<A: ToSocketAddrs>(
        links: &[Arc<WorkerLink>],
        addr: A,
        config: RouterConfig,
        registry: MetricsRegistry,
    ) -> std::io::Result<RouterHandle> {
        let workers: Vec<SocketAddr> = links.iter().map(|link| link.addr).collect();
        let mut listings: Vec<Vec<IndexInfo>> = Vec::with_capacity(links.len());
        for link in links {
            let client = ServeClient::connect_with_retry(link.addr, config.boot_timeout)?;
            link.install(&mut link.lock(), client);
            let request_id = UNNUMBERED;
            let mut listing = link
                .call(&Request::ListIndexes { request_id }, |body| match body {
                    ResponseBody::Indexes { indexes } => Ok(indexes),
                    other => Err(format!("a listing with {other:?}")),
                })
                .map_err(|(_, message)| invalid(format!("boot listing failed: {message}")))?;
            listing.sort_by(|a, b| a.name.cmp(&b.name));
            listings.push(listing);
        }
        // Validate agreement and build the merged view.
        let mut indexes = Vec::with_capacity(listings[0].len());
        for (listing, &worker) in listings.iter().zip(&workers).skip(1) {
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
            for (listing, &worker) in listings.iter().zip(&workers) {
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
            let map = ShardMap::contiguous_from_lens(&lens).map_err(|e| {
                invalid(format!(
                    "shard sizes {lens:?} of index {:?} are not a split: {e}",
                    first.name
                ))
            })?;
            let mut info = first.clone();
            info.num_series = map.total() as u64;
            let map = Arc::new(map);
            indexes.push(RouterIndex { info, map });
        }
        let inner = Arc::new(Inner {
            workers: links.to_vec(),
            indexes,
            listener: Listener::bind(addr, &registry, "hydra_router")?,
            queries_total: registry.counter("hydra_router_queries_total", &[]),
            registry,
        });
        let shared = Arc::clone(&inner);
        let acceptor = inner
            .listener
            .spawn(move || ClientConn::new(Arc::clone(&shared)));
        Ok(RouterHandle { inner, acceptor })
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServedIndex, Server, ServerConfig, ServerHandle};
    use hydra::core::{Capabilities, Representation};
    use hydra::{AnnIndex, Neighbor, QueryStats, Result, SearchParams, SearchResult};
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

    #[test]
    fn routes_and_merges_across_two_workers() {
        // Worker 0: ids 0..3 at distances 10,11,12. Worker 1: ids 0..2 at
        // distances 5,6 → global 3,4. Merged top-3: (5, g3), (6, g4), (10, g0).
        let w0 = ramp_worker("ramp", 3, 10.0);
        let w1 = ramp_worker("ramp", 2, 5.0);
        let router = Router::spawn(
            &[w0.local_addr(), w1.local_addr()],
            "127.0.0.1:0",
            RouterConfig::default(),
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
        assert!(Router::spawn(&[], "127.0.0.1:0", RouterConfig::default()).is_err());
        let w0 = ramp_worker("ramp", 3, 0.0);
        let w1 = ramp_worker("other", 3, 0.0);
        let err = Router::spawn(
            &[w0.local_addr(), w1.local_addr()],
            "127.0.0.1:0",
            RouterConfig::default(),
        );
        assert!(err.is_err(), "mismatched index names must fail the boot");
        // One worker named twice would serve its shard twice over.
        let twice = Router::spawn(
            &[w0.local_addr(), w0.local_addr()],
            "127.0.0.1:0",
            RouterConfig::default(),
        );
        let err = twice.err().expect("a repeated worker must fail the boot");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        w0.shutdown();
        w1.shutdown();
        w0.join();
        w1.join();
    }

    #[test]
    fn malformed_client_frames_hang_up_that_connection_only() {
        let w0 = ramp_worker("ramp", 2, 0.0);
        let router =
            Router::spawn(&[w0.local_addr()], "127.0.0.1:0", RouterConfig::default()).unwrap();
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
