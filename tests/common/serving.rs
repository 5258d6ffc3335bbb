//! The serving suites' deployments: a [`Scan`] server, a scripted worker
//! that fails on cue, S shard workers of either kind behind a router, and
//! the query helpers that drive them over real sockets.
//!
//! The scripted worker speaks the wire protocol directly (a raw
//! [`TcpListener`] + `hydra_serve::protocol`), because a real `Server`
//! cannot be told to fail in precisely controlled ways.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hydra::{Dataset, PartitionScheme, SearchParams};
use hydra_serve::protocol::read_request;
use hydra_serve::{
    ErrorCode, IndexInfo, Request, Response, ResponseBody, Router, RouterConfig, RouterHandle,
    RouterStats, ServeClient, ServedIndex, Server, ServerConfig, ServerHandle,
};

use super::{assert_same_neighbors, brute_force_top_k, Scan};

/// The one index every deployment here serves.
pub const INDEX: &str = "walk-scan";

/// A worker timeout short enough for a test to wait out.
pub const WORKER_TIMEOUT: Duration = Duration::from_millis(400);

/// A real worker: a `hydra-serve` server holding a [`Scan`] over `data`.
pub fn scan_server(data: &Dataset) -> ServerHandle {
    let served = ServedIndex {
        name: INDEX.into(),
        index: Box::new(Scan { data: data.clone() }),
    };
    Server::spawn(vec![served], "127.0.0.1:0", ServerConfig::default()).unwrap()
}

/// What a worker's first query is answered with under [`Mode::Corrupt`]:
/// the honest response in, the bytes to put on the wire out — `None`
/// hangs up instead.
pub type Corruption = dyn Fn(Response) -> Option<Vec<u8>> + Send + Sync;

/// What the scripted worker does when a query arrives.
#[derive(Clone)]
pub enum Mode {
    /// Answer correctly: the brute-force top-k over its shard, in local
    /// ids (the router owns the local→global remap).
    Healthy,
    /// Read the request, then drop the connection without answering — a
    /// worker crashing mid-call.
    CloseOnQuery,
    /// Read the request and never answer — a wedged worker.
    Stall,
    /// Hold this many queries, then answer them all, last received first.
    Reverse(usize),
    /// Answer every query correctly, this long after it arrived, without
    /// making the queries behind it wait.
    Delay(Duration),
    /// Read queries without answering for as long as this mode is set,
    /// then answer correctly.
    Hold,
    /// Hold this many queries, then write half of the first one's answer
    /// and hang up — a worker dying with calls in flight.
    HangUpMidResponse(usize),
    /// Answer the next query with what the corruption makes of its honest
    /// answer, then turn [`Mode::Healthy`].
    Corrupt(Arc<Corruption>),
}

/// A scripted shard worker speaking the real wire protocol on a real
/// socket, with a switchable failure mode. The listener stays alive across
/// failures so the router's reconnection attempts land on the same address,
/// as they would with a supervised worker restart.
pub struct ScriptedWorker {
    pub addr: SocketAddr,
    mode: Arc<Mutex<Mode>>,
    stop: Arc<AtomicBool>,
    /// The connection being served, shut on drop so that a worker dropped
    /// while its router still holds the link — a test failing midway —
    /// stops instead of waiting on that link forever.
    conn: Arc<Mutex<Option<TcpStream>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ScriptedWorker {
    pub fn spawn(shard: Dataset, initial: Mode) -> Self {
        let listed = shard.len() as u64;
        Self::spawn_listing(shard, initial, listed)
    }

    /// A worker whose index listing reports `listed` series, whatever its
    /// shard holds — counts a router must check before it trusts them.
    pub fn spawn_listing(shard: Dataset, initial: Mode, listed: u64) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mode = Arc::new(Mutex::new(initial));
        let stop = Arc::new(AtomicBool::new(false));
        let conn = Arc::new(Mutex::new(None));
        let thread = {
            let (mode, stop, conn) = (Arc::clone(&mode), Arc::clone(&stop), Arc::clone(&conn));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(false).unwrap();
                            *conn.lock().unwrap() = stream.try_clone().ok();
                            // Checked after the store: a drop either sees
                            // this connection or is seen here.
                            if !stop.load(Ordering::SeqCst) {
                                serve_scripted(stream, &shard, listed, &mode, &stop);
                            }
                            // The last handle: dropping it is the hangup.
                            conn.lock().unwrap().take();
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })
        };
        Self {
            addr,
            mode,
            stop,
            conn,
            thread: Some(thread),
        }
    }

    pub fn set_mode(&self, mode: Mode) {
        *self.mode.lock().unwrap() = mode;
    }
}

impl Drop for ScriptedWorker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(conn) = self.conn.lock().unwrap().take() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(thread) = self.thread.take() {
            thread.join().unwrap();
        }
    }
}

/// Puts one frame on a connection whose write half delayed answers share.
fn put(write_half: &Mutex<TcpStream>, frame: &[u8]) -> bool {
    let mut stream = write_half.lock().unwrap();
    stream.write_all(frame).and_then(|()| stream.flush()).is_ok()
}

/// One connection to the scripted worker: real protocol frames in,
/// scripted behavior out. Returning drops the stream — the "crash".
fn serve_scripted(stream: TcpStream, shard: &Dataset, listed: u64, mode: &Mutex<Mode>, stop: &AtomicBool) {
    let write_half = match stream.try_clone() {
        Ok(s) => Arc::new(Mutex::new(s)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let respond = |request_id, body| put(&write_half, &Response { request_id, body }.encode());
    // Answers being held back (`Reverse`, `HangUpMidResponse`) and the
    // threads sleeping on delayed ones (`Delay`).
    let mut held: Vec<Response> = Vec::new();
    let mut delayed: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while let Ok(Some(request)) = read_request(&mut reader) {
        let ok = match request {
            Request::ListIndexes { request_id } => {
                let info = IndexInfo {
                    name: INDEX.into(),
                    method: "scan".into(),
                    num_series: listed,
                    series_len: shard.series_len() as u64,
                    exact: true,
                    ng_approximate: false,
                    epsilon_approximate: false,
                    delta_epsilon_approximate: false,
                    disk_resident: false,
                    streaming_insert: false,
                };
                respond(request_id, ResponseBody::Indexes { indexes: vec![info] })
            }
            Request::Query {
                request_id,
                query,
                params,
                ..
            } => {
                let answer = Response {
                    request_id,
                    body: ResponseBody::Answer {
                        neighbors: brute_force_top_k(shard, &query, params.k),
                    },
                };
                let mode_now = {
                    let mut mode = mode.lock().unwrap();
                    let now = mode.clone();
                    if let Mode::Corrupt(_) = now {
                        *mode = Mode::Healthy;
                    }
                    now
                };
                match mode_now {
                    Mode::Healthy => put(&write_half, &answer.encode()),
                    Mode::CloseOnQuery => false,
                    Mode::Stall => {
                        while !stop.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        false
                    }
                    Mode::Reverse(count) => {
                        held.push(answer);
                        held.len() < count
                            || held.drain(..).rev().all(|r| put(&write_half, &r.encode()))
                    }
                    Mode::Delay(delay) => {
                        let write_half = Arc::clone(&write_half);
                        delayed.push(std::thread::spawn(move || {
                            std::thread::sleep(delay);
                            put(&write_half, &answer.encode());
                        }));
                        true
                    }
                    Mode::Hold => {
                        let holding = || matches!(*mode.lock().unwrap(), Mode::Hold);
                        while holding() && !stop.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        put(&write_half, &answer.encode())
                    }
                    Mode::HangUpMidResponse(count) => {
                        held.push(answer);
                        if held.len() >= count {
                            let frame = held[0].encode();
                            put(&write_half, &frame[..frame.len() / 2]);
                        }
                        held.len() < count
                    }
                    Mode::Corrupt(corrupt) => {
                        corrupt(answer).is_some_and(|bytes| put(&write_half, &bytes))
                    }
                }
            }
            // Like a real worker spawned without a `Reloader`: a typed
            // refusal, the connection stays up.
            Request::Reload { request_id } => {
                let message = "scripted worker has no reloader".into();
                respond(request_id, ResponseBody::Error { code: ErrorCode::Unavailable, message })
            }
            // A minimal but well-formed exposition; the suites never scrape
            // a scripted worker, the arm only keeps the protocol complete.
            Request::Stats { request_id } => {
                let text = "# TYPE hydra_queries_total counter\nhydra_queries_total 0\n".into();
                respond(request_id, ResponseBody::Stats { text })
            }
            Request::Shutdown { request_id } => {
                respond(request_id, ResponseBody::ShutdownAck);
                false
            }
        };
        if !ok {
            break;
        }
    }
    for thread in delayed {
        thread.join().unwrap();
    }
}

/// One shard worker of a [`Deployment`].
pub enum Shard {
    /// A [`scan_server`].
    Scan,
    /// A [`ScriptedWorker`] starting in this mode.
    Scripted(Mode),
}

/// S shard workers over a contiguous split of one dataset, each a
/// [`Scan`] server or scripted, and a router in front of them.
pub struct Deployment {
    /// The unsharded dataset, the oracle of every routed answer.
    pub data: Dataset,
    /// The [`Shard::Scan`] workers, in shard order.
    pub servers: Vec<ServerHandle>,
    /// The [`Shard::Scripted`] workers, in shard order.
    pub scripted: Vec<ScriptedWorker>,
    pub router: RouterHandle,
}

impl Deployment {
    /// Splits `data` into one contiguous part per shard, spawns each
    /// shard's worker, and a router in front of them, in shard order.
    pub fn spawn(data: Dataset, shards: Vec<Shard>, worker_timeout: Duration) -> Self {
        let scheme = PartitionScheme::Contiguous;
        let (_, parts) = hydra::partition(&data, scheme, shards.len()).unwrap();
        let (mut servers, mut scripted, mut addrs) = (Vec::new(), Vec::new(), Vec::new());
        for (shard, part) in shards.into_iter().zip(parts) {
            match shard {
                Shard::Scan => {
                    servers.push(scan_server(&part));
                    addrs.push(servers.last().unwrap().local_addr());
                }
                Shard::Scripted(mode) => {
                    scripted.push(ScriptedWorker::spawn(part, mode));
                    addrs.push(scripted.last().unwrap().addr);
                }
            }
        }
        let config = RouterConfig { worker_timeout, ..RouterConfig::default() };
        let router = Router::spawn(&addrs, "127.0.0.1:0", config).unwrap();
        Self { data, servers, scripted, router }
    }

    /// A client of the router.
    pub fn client(&self) -> ServeClient {
        ServeClient::connect(self.router.local_addr()).unwrap()
    }

    /// Series `i` of the dataset, as a query.
    pub fn series(&self, i: usize) -> Vec<f32> {
        self.data.series(i).to_vec()
    }

    /// `body` must be the exact top-`k` of `series` over the whole
    /// dataset, bit for bit.
    pub fn assert_exact(&self, context: &str, body: ResponseBody, series: &[f32], k: usize) {
        let ResponseBody::Answer { neighbors } = body else {
            panic!("{context}: expected an answer, got {body:?}");
        };
        assert_same_neighbors(context, &neighbors, &brute_force_top_k(&self.data, series, k));
    }

    /// `hydra_router_worker_in_flight` of the first scripted worker's link.
    pub fn in_flight(&self) -> i64 {
        let worker = self.scripted[0].addr.to_string();
        let metrics = self.router.metrics();
        metrics.gauge("hydra_router_worker_in_flight", &[("worker", &worker)]).get()
    }

    /// A counter of the first scripted worker's link.
    pub fn link_counter(&self, name: &str) -> u64 {
        let worker = self.scripted[0].addr.to_string();
        self.router.metrics().counter(name, &[("worker", &worker)]).get()
    }

    /// Stops the router, then every server still up; the scripted
    /// workers stop when dropped.
    pub fn stop(self) -> RouterStats {
        self.router.shutdown();
        let stats = self.router.join();
        for server in self.servers {
            server.shutdown();
            server.join();
        }
        stats
    }
}

/// A query for the `params` answer to `series` in `index`.
pub fn query(request_id: u64, index: &str, params: SearchParams, series: &[f32]) -> Request {
    let (index, query) = (index.to_string(), series.to_vec());
    Request::Query { request_id, index, params, query }
}

/// Asks the exact top-`k` of `series` in [`INDEX`] and returns the body of
/// the answer.
pub fn ask(client: &mut ServeClient, request_id: u64, series: &[f32], k: usize) -> ResponseBody {
    let request = query(request_id, INDEX, SearchParams::exact(k), series);
    client.call(&request).expect("every query frame must be answered").body
}

/// Sends the exact top-`k` query of `series` in [`INDEX`] without waiting
/// for its answer.
pub fn send(client: &mut ServeClient, request_id: u64, series: &[f32], k: usize) {
    client.send(&query(request_id, INDEX, SearchParams::exact(k), series)).unwrap();
}

/// Whether `body` is the typed error of a query no worker could complete.
pub fn unavailable(body: &ResponseBody) -> bool {
    matches!(body, ResponseBody::Error { code: ErrorCode::Unavailable, .. })
}

/// [`ask`]s on fresh request ids from `first_id` until an answer comes and
/// returns it; a retry is due on `Unavailable` alone, and the router must
/// recover within 10 s.
pub fn ask_until_answered(
    client: &mut ServeClient,
    first_id: u64,
    series: &[f32],
    k: usize,
) -> ResponseBody {
    let deadline = Instant::now() + Duration::from_secs(10);
    for request_id in first_id.. {
        match ask(client, request_id, series, k) {
            body @ ResponseBody::Answer { .. } => return body,
            body if unavailable(&body) => {
                assert!(Instant::now() < deadline, "the router did not recover within 10 s");
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("unexpected response during recovery: {other:?}"),
        }
    }
    unreachable!("request ids ran out")
}
