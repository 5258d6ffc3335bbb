//! Router fault-injection suite: the multi-process half of the sharded
//! scale-out contract. A router in front of real shard workers must be
//! answer-identical to the unsharded index; a router in front of a
//! *misbehaving* worker must degrade into typed errors, quickly and only
//! for the queries it cannot answer completely —
//!
//! * a worker that dies mid-batch turns every affected query into an
//!   [`ErrorCode::Unavailable`] answer (never a hang, never a partial
//!   top-k), while other client connections keep working;
//! * a worker that accepts a query and stalls forever costs at most the
//!   configured worker timeout;
//! * a worker that comes back is picked up through the reconnection
//!   backoff without restarting the router;
//! * many calls share one worker link: answers come back matched by id
//!   in whatever order the worker gives them, never crossed between
//!   clients that number their requests alike; at most 64 are in flight
//!   per link; and a worker dying with N in flight fails exactly those N,
//!   each once.
//!
//! The misbehaving workers are scripted directly on the wire protocol
//! (raw [`TcpListener`] + `hydra_serve::protocol`), because a real
//! `Server` cannot be told to fail in precisely controlled ways.

mod common;

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::Scan;
use hydra::prelude::*;
use hydra::{partition, PartitionScheme};
use hydra_serve::protocol::{read_request, read_response};
use hydra_serve::{
    ErrorCode, IndexInfo, Request, Response, ResponseBody, Router, RouterConfig, RouterHandle,
    ServeClient, ServedIndex, Server, ServerConfig, ServerHandle,
};

const INDEX: &str = "walk-scan";

fn fast_config() -> RouterConfig {
    RouterConfig {
        worker_timeout: Duration::from_millis(400),
        connect_timeout: Duration::from_millis(200),
        boot_timeout: Duration::from_secs(5),
        backoff_initial: Duration::from_millis(10),
        backoff_max: Duration::from_millis(100),
        ..RouterConfig::default()
    }
}

/// A real worker: a full `hydra-serve` server holding one shard.
fn scan_worker(shard: &hydra::Dataset) -> ServerHandle {
    Server::spawn(
        vec![ServedIndex {
            name: INDEX.into(),
            index: Box::new(Scan {
                data: shard.clone(),
            }),
        }],
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap()
}

/// What the scripted worker does when a query arrives.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
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
}

/// A scripted shard worker speaking the real wire protocol on a real
/// socket, with a switchable failure mode. The listener stays alive across
/// failures so the router's reconnection attempts land on the same address,
/// as they would with a supervised worker restart.
struct ScriptedWorker {
    addr: SocketAddr,
    mode: Arc<Mutex<Mode>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ScriptedWorker {
    fn spawn(shard: hydra::Dataset, initial: Mode) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mode = Arc::new(Mutex::new(initial));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (mode, stop) = (Arc::clone(&mode), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(false).unwrap();
                            serve_scripted(stream, &shard, &mode, &stop);
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
            thread: Some(thread),
        }
    }

    fn set_mode(&self, mode: Mode) {
        *self.mode.lock().unwrap() = mode;
    }
}

impl Drop for ScriptedWorker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
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
fn serve_scripted(stream: TcpStream, shard: &hydra::Dataset, mode: &Mutex<Mode>, stop: &AtomicBool) {
    let write_half = match stream.try_clone() {
        Ok(s) => Arc::new(Mutex::new(s)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let respond = |response: Response| put(&write_half, &response.encode());
    // Answers being held back (`Reverse`, `HangUpMidResponse`) and the
    // threads sleeping on delayed ones (`Delay`).
    let mut held: Vec<Response> = Vec::new();
    let mut delayed: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            _ => break,
        };
        match request {
            Request::ListIndexes { request_id } => {
                let ok = respond(Response {
                    request_id,
                    body: ResponseBody::Indexes {
                        indexes: vec![IndexInfo {
                            name: INDEX.into(),
                            method: "scan".into(),
                            num_series: shard.len() as u64,
                            series_len: shard.series_len() as u64,
                            exact: true,
                            ng_approximate: false,
                            epsilon_approximate: false,
                            delta_epsilon_approximate: false,
                            disk_resident: false,
                            streaming_insert: false,
                        }],
                    },
                });
                if !ok {
                    break;
                }
            }
            Request::Query {
                request_id,
                query,
                params,
                ..
            } => {
                let mode_now = *mode.lock().unwrap();
                let answer = Response {
                    request_id,
                    body: ResponseBody::Answer {
                        neighbors: common::brute_force_top_k(shard, &query, params.k),
                    },
                };
                match mode_now {
                    Mode::Healthy => {
                        if !respond(answer) {
                            break;
                        }
                    }
                    Mode::CloseOnQuery => break,
                    Mode::Stall => {
                        while !stop.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        break;
                    }
                    Mode::Reverse(count) => {
                        held.push(answer);
                        if held.len() >= count && !held.drain(..).rev().all(&respond) {
                            break;
                        }
                    }
                    Mode::Delay(delay) => {
                        let write_half = Arc::clone(&write_half);
                        delayed.push(std::thread::spawn(move || {
                            std::thread::sleep(delay);
                            put(&write_half, &answer.encode());
                        }));
                    }
                    Mode::Hold => {
                        while *mode.lock().unwrap() == Mode::Hold && !stop.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        if !respond(answer) {
                            break;
                        }
                    }
                    Mode::HangUpMidResponse(count) => {
                        held.push(answer);
                        if held.len() >= count {
                            let frame = held[0].encode();
                            put(&write_half, &frame[..frame.len() / 2]);
                            break;
                        }
                    }
                }
            }
            Request::Reload { request_id } => {
                // Like a real worker spawned without a `Reloader`: a typed
                // refusal, the connection stays up.
                let ok = respond(Response {
                    request_id,
                    body: ResponseBody::Error {
                        code: ErrorCode::Unavailable,
                        message: "scripted worker has no reloader".into(),
                    },
                });
                if !ok {
                    break;
                }
            }
            Request::Stats { request_id } => {
                // A minimal but well-formed exposition; these tests never
                // scrape the scripted worker, the arm only keeps the
                // protocol complete.
                let ok = respond(Response {
                    request_id,
                    body: ResponseBody::Stats {
                        text: "# TYPE hydra_queries_total counter\nhydra_queries_total 0\n"
                            .into(),
                    },
                });
                if !ok {
                    break;
                }
            }
            Request::Shutdown { request_id } => {
                let _ = respond(Response {
                    request_id,
                    body: ResponseBody::ShutdownAck,
                });
                break;
            }
        }
    }
    for thread in delayed {
        thread.join().unwrap();
    }
}

fn query(client: &mut ServeClient, request_id: u64, series: &[f32], k: usize) -> ResponseBody {
    client
        .call(&Request::Query {
            request_id,
            index: INDEX.into(),
            params: SearchParams::exact(k),
            query: series.to_vec(),
        })
        .unwrap()
        .body
}

fn is_unavailable(body: &ResponseBody) -> bool {
    matches!(
        body,
        ResponseBody::Error {
            code: ErrorCode::Unavailable,
            ..
        }
    )
}

#[test]
fn routed_answers_over_real_workers_are_bit_identical_to_unsharded() {
    let data = hydra::data::random_walk(240, 16, 777);
    let unsharded = Scan { data: data.clone() };
    let (_, shards) = partition(&data, PartitionScheme::Contiguous, 2).unwrap();
    let workers: Vec<ServerHandle> = shards.iter().map(scan_worker).collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.local_addr()).collect();
    let router = Router::spawn(&addrs, "127.0.0.1:0", fast_config()).unwrap();

    let mut client = ServeClient::connect(router.local_addr()).unwrap();
    let infos = client.list_indexes().unwrap();
    assert_eq!(infos.len(), 1);
    assert_eq!(
        infos[0].num_series as usize,
        data.len(),
        "the merged listing sums the shards"
    );

    let k = 9;
    let workload = hydra::data::noisy_queries(&data, 10, &[0.0, 0.2], 17);
    for (q, series) in workload.iter().enumerate() {
        let offline = unsharded.search(series, &SearchParams::exact(k)).unwrap();
        match query(&mut client, (q + 1) as u64, series, k) {
            ResponseBody::Answer { neighbors } => {
                common::assert_same_neighbors(&format!("routed query {q}"), &neighbors, &offline.neighbors);
            }
            other => panic!("query {q} failed: {other:?}"),
        }
    }

    // One client shutdown frame stops the whole deployment: the router acks
    // it, forwards it to every worker, and exits.
    client.shutdown().unwrap();
    drop(client);
    let stats = router.join();
    assert_eq!(stats.queries, 10);
    assert_eq!(stats.worker_errors, 0);
    for worker in workers {
        worker.join();
    }
}

#[test]
fn a_worker_dying_mid_batch_yields_typed_errors_and_other_connections_survive() {
    let data = hydra::data::random_walk(180, 12, 888);
    let (_, shards) = partition(&data, PartitionScheme::Contiguous, 2).unwrap();
    let real = scan_worker(&shards[0]);
    let scripted = ScriptedWorker::spawn(shards[1].clone(), Mode::Healthy);
    let router = Router::spawn(
        &[real.local_addr(), scripted.addr],
        "127.0.0.1:0",
        fast_config(),
    )
    .unwrap();
    let mut client = ServeClient::connect(router.local_addr()).unwrap();

    // First, a complete merged answer while both workers are healthy.
    let unsharded = Scan { data: data.clone() };
    let series: Vec<f32> = data.series(0).to_vec();
    let offline = unsharded.search(&series, &SearchParams::exact(5)).unwrap();
    match query(&mut client, 1, &series, 5) {
        ResponseBody::Answer { neighbors } => assert_eq!(neighbors, offline.neighbors),
        other => panic!("healthy query failed: {other:?}"),
    }

    // The worker dies. Every subsequent query on this connection becomes
    // one typed Unavailable answer within the timeout budget — not a hang,
    // not a partial top-k over the surviving shard.
    scripted.set_mode(Mode::CloseOnQuery);
    let started = Instant::now();
    for request_id in 2..=5u64 {
        let body = query(&mut client, request_id, &series, 5);
        assert!(
            is_unavailable(&body),
            "query {request_id} after worker death: expected Unavailable, got {body:?}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "typed errors must arrive fast, took {:?}",
        started.elapsed()
    );

    // Other connections are unaffected: the merged listing still answers
    // (it needs no worker call), on a fresh connection, immediately.
    let mut second = ServeClient::connect(router.local_addr()).unwrap();
    assert_eq!(second.list_indexes().unwrap().len(), 1);
    drop(second);

    // And the original connection is still usable — the errors were
    // per-query, not a poisoned stream.
    assert!(is_unavailable(&query(&mut client, 6, &series, 5)));

    drop(client);
    router.shutdown();
    let stats = router.join();
    assert!(
        stats.worker_errors >= 4,
        "each failed query counts a worker error: {stats:?}"
    );
    real.shutdown();
    real.join();
}

#[test]
fn a_stalled_worker_costs_at_most_the_worker_timeout() {
    let data = hydra::data::random_walk(160, 12, 999);
    let (_, shards) = partition(&data, PartitionScheme::Contiguous, 2).unwrap();
    let real = scan_worker(&shards[0]);
    let scripted = ScriptedWorker::spawn(shards[1].clone(), Mode::Stall);
    let config = fast_config();
    let router = Router::spawn(&[real.local_addr(), scripted.addr], "127.0.0.1:0", config).unwrap();

    // Pipeline the stalled query, then prove the router is not wedged by
    // serving another connection *while* the first is still waiting.
    let mut stalled = ServeClient::connect(router.local_addr()).unwrap();
    let series: Vec<f32> = data.series(1).to_vec();
    stalled
        .send(&Request::Query {
            request_id: 1,
            index: INDEX.into(),
            params: SearchParams::exact(3),
            query: series.clone(),
        })
        .unwrap();
    let mut other = ServeClient::connect(router.local_addr()).unwrap();
    assert_eq!(
        other.list_indexes().unwrap().len(),
        1,
        "an unrelated connection must not wait behind a stalled worker"
    );
    drop(other);

    let started = Instant::now();
    let response = stalled.recv().unwrap();
    let elapsed = started.elapsed();
    assert!(
        is_unavailable(&response.body),
        "a stall must become a typed error: {:?}",
        response.body
    );
    assert!(
        elapsed < config.worker_timeout + Duration::from_secs(2),
        "the stall cost {elapsed:?}; the budget was {:?}",
        config.worker_timeout
    );

    drop(stalled);
    router.shutdown();
    router.join();
    real.shutdown();
    real.join();
}

#[test]
fn the_router_reconnects_through_backoff_when_a_worker_restarts() {
    let data = hydra::data::random_walk(200, 12, 1234);
    let unsharded = Scan { data: data.clone() };
    let (_, shards) = partition(&data, PartitionScheme::Contiguous, 2).unwrap();
    let real = scan_worker(&shards[0]);
    let scripted = ScriptedWorker::spawn(shards[1].clone(), Mode::Healthy);
    let router = Router::spawn(
        &[real.local_addr(), scripted.addr],
        "127.0.0.1:0",
        fast_config(),
    )
    .unwrap();
    let mut client = ServeClient::connect(router.local_addr()).unwrap();
    let series: Vec<f32> = data.series(2).to_vec();
    let offline = unsharded.search(&series, &SearchParams::exact(6)).unwrap();

    // Healthy → crash: queries degrade to typed errors.
    assert!(matches!(
        query(&mut client, 1, &series, 6),
        ResponseBody::Answer { .. }
    ));
    scripted.set_mode(Mode::CloseOnQuery);
    assert!(is_unavailable(&query(&mut client, 2, &series, 6)));

    // Restart: the same address answers again. The router must recover
    // through its reconnection backoff without being told anything.
    scripted.set_mode(Mode::Healthy);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut request_id = 3;
    let recovered = loop {
        match query(&mut client, request_id, &series, 6) {
            ResponseBody::Answer { neighbors } => break neighbors,
            body if is_unavailable(&body) => {
                assert!(
                    Instant::now() < deadline,
                    "the router did not recover within 10 s of the worker restart"
                );
                request_id += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected response during recovery: {other:?}"),
        }
    };
    assert_eq!(
        recovered, offline.neighbors,
        "the recovered answer must be the full merged answer"
    );

    drop(client);
    router.shutdown();
    router.join();
    real.shutdown();
    real.join();
}

// ---------------------------------------------------------------------------
// Many calls in flight per worker link.
// ---------------------------------------------------------------------------

/// What the link tests share: a real worker on shard 0, a scripted one on
/// shard 1, a router in front of both, and the unsharded oracle.
struct Deployment {
    unsharded: Scan,
    real: ServerHandle,
    scripted: ScriptedWorker,
    router: RouterHandle,
}

impl Deployment {
    fn spawn(seed: u64, initial: Mode, config: RouterConfig) -> Self {
        let data = hydra::data::random_walk(200, 12, seed);
        let (_, shards) = partition(&data, PartitionScheme::Contiguous, 2).unwrap();
        let real = scan_worker(&shards[0]);
        let scripted = ScriptedWorker::spawn(shards[1].clone(), initial);
        let router =
            Router::spawn(&[real.local_addr(), scripted.addr], "127.0.0.1:0", config).unwrap();
        Self {
            unsharded: Scan { data },
            real,
            scripted,
            router,
        }
    }

    /// Series `i` of the dataset, as a query.
    fn series(&self, i: usize) -> Vec<f32> {
        self.unsharded.data.series(i).to_vec()
    }

    /// `body` must be the unsharded scan's answer to `series`, bit for bit.
    fn assert_exact(&self, context: &str, body: ResponseBody, series: &[f32], k: usize) {
        let ResponseBody::Answer { neighbors } = body else {
            panic!("{context}: expected an answer, got {body:?}");
        };
        let offline = self.unsharded.search(series, &SearchParams::exact(k)).unwrap();
        let routed = hydra::SearchResult::new(neighbors, hydra::QueryStats::new());
        common::assert_same_answer(context, &routed, &offline, common::StatsMatch::Ignored);
    }

    /// `hydra_router_worker_in_flight` of the scripted worker's link.
    fn in_flight(&self) -> i64 {
        let worker = self.scripted.addr.to_string();
        self.router
            .metrics()
            .gauge("hydra_router_worker_in_flight", &[("worker", &worker)])
            .get()
    }

    /// A counter of the scripted worker's link.
    fn link_counter(&self, name: &str) -> u64 {
        let worker = self.scripted.addr.to_string();
        self.router
            .metrics()
            .counter(name, &[("worker", &worker)])
            .get()
    }

    fn stop(self) -> hydra_serve::RouterStats {
        self.router.shutdown();
        let stats = self.router.join();
        self.real.shutdown();
        self.real.join();
        stats
    }
}

fn send_query(client: &mut ServeClient, request_id: u64, series: &[f32], k: usize) {
    client
        .send(&Request::Query {
            request_id,
            index: INDEX.into(),
            params: SearchParams::exact(k),
            query: series.to_vec(),
        })
        .unwrap();
}

#[test]
fn answers_a_worker_gives_out_of_order_reach_the_clients_that_asked() {
    // The worker sits on the first call until the second has arrived —
    // which a one-call-at-a-time link never delivers — then answers the
    // second first.
    let d = Deployment::spawn(4242, Mode::Reverse(2), fast_config());
    let mut first = ServeClient::connect(d.router.local_addr()).unwrap();
    let mut second = ServeClient::connect(d.router.local_addr()).unwrap();
    let (a, b) = (d.series(3), d.series(150));
    send_query(&mut first, 11, &a, 7);
    send_query(&mut second, 22, &b, 7);
    let (got_a, got_b) = (first.recv().unwrap(), second.recv().unwrap());
    assert_eq!((got_a.request_id, got_b.request_id), (11, 22));
    d.assert_exact("first client", got_a.body, &a, 7);
    d.assert_exact("second client", got_b.body, &b, 7);
    drop((first, second));
    let stats = d.stop();
    assert_eq!((stats.queries, stats.worker_errors), (2, 0));
}

#[test]
fn two_connections_numbering_their_requests_alike_never_cross_answers() {
    // Both clients count from 1, and every round has both queries in
    // flight on the same link at once (the worker answers only pairs).
    let d = Deployment::spawn(5151, Mode::Reverse(2), fast_config());
    let mut first = ServeClient::connect(d.router.local_addr()).unwrap();
    let mut second = ServeClient::connect(d.router.local_addr()).unwrap();
    for round in 0..12usize {
        let (a, b) = (d.series(round), d.series(199 - round));
        let id = (round + 1) as u64;
        send_query(&mut first, id, &a, 5);
        send_query(&mut second, id, &b, 5);
        for (client, series, who) in [(&mut first, &a, "first"), (&mut second, &b, "second")] {
            let response = client.recv().unwrap();
            assert_eq!(response.request_id, id);
            d.assert_exact(&format!("round {round}, {who} client"), response.body, series, 5);
        }
    }
    drop((first, second));
    assert_eq!(d.stop().worker_errors, 0);
}

#[test]
fn queries_pipelined_on_one_connection_overlap_on_the_worker() {
    let delay = Duration::from_millis(250);
    let config = RouterConfig {
        worker_timeout: Duration::from_secs(5),
        ..fast_config()
    };
    let d = Deployment::spawn(6262, Mode::Delay(delay), config);
    let mut client = ServeClient::connect(d.router.local_addr()).unwrap();
    let started = Instant::now();
    for request_id in 1..=8u64 {
        send_query(&mut client, request_id, &d.series(request_id as usize * 20), 6);
    }
    let mut answered = Vec::new();
    for _ in 0..8 {
        let response = client.recv().unwrap();
        let series = d.series(response.request_id as usize * 20);
        d.assert_exact("pipelined query", response.body, &series, 6);
        answered.push(response.request_id);
    }
    let elapsed = started.elapsed();
    answered.sort_unstable();
    assert_eq!(answered, (1..=8).collect::<Vec<u64>>());
    // One at a time they would take eight delays.
    assert!(
        elapsed < 3 * delay,
        "8 pipelined queries took {elapsed:?} against a worker answering each after {delay:?}"
    );
    drop(client);
    assert_eq!(d.stop().worker_errors, 0);
}

#[test]
fn a_worker_dying_with_calls_in_flight_fails_exactly_those_calls_once_each() {
    const IN_FLIGHT: u64 = 5;
    // A timeout far beyond the test's patience: the errors below can only
    // come from the hangup, never from a timeout that happened to fire.
    let config = RouterConfig {
        worker_timeout: Duration::from_secs(30),
        ..fast_config()
    };
    let d = Deployment::spawn(7373, Mode::HangUpMidResponse(IN_FLIGHT as usize), config);
    let mut client = ServeClient::connect(d.router.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let series = d.series(9);
    let errors_before = d.link_counter("hydra_router_worker_errors_total");
    for request_id in 1..=IN_FLIGHT {
        send_query(&mut client, request_id, &series, 4);
    }
    let mut failed = Vec::new();
    for _ in 0..IN_FLIGHT {
        let response = client.recv().expect("a call in flight was left hanging");
        assert!(
            is_unavailable(&response.body),
            "expected Unavailable, got {:?}",
            response.body
        );
        failed.push(response.request_id);
    }
    failed.sort_unstable();
    assert_eq!(failed, (1..=IN_FLIGHT).collect::<Vec<u64>>());
    assert_eq!(d.in_flight(), 0);
    assert_eq!(
        d.link_counter("hydra_router_worker_errors_total") - errors_before,
        IN_FLIGHT
    );
    assert_eq!(d.link_counter("hydra_router_worker_timeouts_total"), 0);

    // The worker comes back: the link reconnects through its backoff, and
    // nothing of the failed calls is left on the client connection (`call`
    // rejects a response on any id but the one it just sent).
    d.scripted.set_mode(Mode::Healthy);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut request_id = IN_FLIGHT + 1;
    loop {
        match query(&mut client, request_id, &series, 4) {
            body @ ResponseBody::Answer { .. } => {
                d.assert_exact("after the restart", body, &series, 4);
                break;
            }
            body if is_unavailable(&body) => {
                assert!(Instant::now() < deadline, "the link never reconnected");
                request_id += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected response during recovery: {other:?}"),
        }
    }
    assert!(d.link_counter("hydra_router_worker_reconnects_total") >= 1);
    drop(client);
    d.stop();
}

#[test]
fn a_link_carries_at_most_64_calls_and_a_flooding_client_is_still_fully_answered() {
    const FLOOD: u64 = 1_000;
    let config = RouterConfig {
        worker_timeout: Duration::from_secs(60),
        ..fast_config()
    };
    let d = Deployment::spawn(8484, Mode::Hold, config);
    let stream = TcpStream::connect(d.router.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let queries: Vec<Vec<f32>> = (0..10).map(|i| d.series(i * 17)).collect();
    // The flood is written from its own thread: once the link is full the
    // router stops reading this connection, and the writes may block.
    let writer = {
        let (mut stream, queries) = (stream, queries.clone());
        std::thread::spawn(move || {
            for request_id in 1..=FLOOD {
                let frame = Request::Query {
                    request_id,
                    index: INDEX.into(),
                    params: SearchParams::exact(3),
                    query: queries[request_id as usize % queries.len()].clone(),
                }
                .encode();
                stream.write_all(&frame).unwrap();
            }
        })
    };
    // While the worker holds its answers back, the link fills to the cap
    // and stays there.
    let deadline = Instant::now() + Duration::from_secs(20);
    while d.in_flight() < 64 {
        assert!(Instant::now() < deadline, "the link never filled: {}", d.in_flight());
        std::thread::sleep(Duration::from_millis(2));
    }
    for _ in 0..50 {
        assert!(d.in_flight() <= 64, "{} calls in flight on one link", d.in_flight());
        std::thread::sleep(Duration::from_millis(2));
    }
    // Released, every query is answered, each once.
    d.scripted.set_mode(Mode::Healthy);
    let mut answered = Vec::new();
    for _ in 0..FLOOD {
        let response = read_response(&mut reader).unwrap().expect("the router hung up");
        let series = &queries[response.request_id as usize % queries.len()];
        d.assert_exact("flooded query", response.body, series, 3);
        answered.push(response.request_id);
        assert!(d.in_flight() <= 64);
    }
    answered.sort_unstable();
    assert_eq!(answered, (1..=FLOOD).collect::<Vec<u64>>());
    writer.join().unwrap();
    drop(reader);
    let stats = d.stop();
    assert_eq!((stats.queries, stats.worker_errors), (FLOOD, 0));
}
