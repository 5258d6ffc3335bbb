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
//! The misbehaving workers are `common::serving`'s scripted worker.
//!
//! [`ErrorCode::Unavailable`]: hydra_serve::ErrorCode::Unavailable

mod common;

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::serving::{
    ask, ask_until_answered, query, send, unavailable, Deployment, Mode, ScriptedWorker, Shard,
    INDEX, WORKER_TIMEOUT,
};
use hydra::prelude::*;
use hydra_serve::protocol::read_response;
use hydra_serve::{ResponseBody, Router, RouterConfig};

/// Shard 0 a real worker, shard 1 scripted in `mode`, over `n` series of a
/// random walk.
fn real_and_scripted(n: usize, seed: u64, mode: Mode, worker_timeout: Duration) -> Deployment {
    let data = hydra::data::random_walk(n, 12, seed);
    Deployment::spawn(data, vec![Shard::Scan, Shard::Scripted(mode)], worker_timeout)
}

#[test]
fn routed_answers_over_real_workers_are_bit_identical_to_unsharded() {
    let data = hydra::data::random_walk(240, 16, 777);
    let d = Deployment::spawn(data, vec![Shard::Scan, Shard::Scan], WORKER_TIMEOUT);
    let mut client = d.client();
    let infos = client.list_indexes().unwrap();
    assert_eq!(infos.len(), 1);
    assert_eq!(
        infos[0].num_series as usize,
        d.data.len(),
        "the merged listing sums the shards"
    );

    let k = 9;
    let workload = hydra::data::noisy_queries(&d.data, 10, &[0.0, 0.2], 17);
    for (q, series) in workload.iter().enumerate() {
        let body = ask(&mut client, (q + 1) as u64, series, k);
        d.assert_exact(&format!("routed query {q}"), body, series, k);
    }

    // One client shutdown frame stops the whole deployment: the router acks
    // it, forwards it to every worker, and exits.
    client.shutdown().unwrap();
    drop(client);
    let stats = d.router.join();
    assert_eq!(stats.queries, 10);
    assert_eq!(stats.worker_errors, 0);
    for worker in d.servers {
        worker.join();
    }
}

#[test]
fn a_router_refuses_worker_series_counts_that_sum_past_usize_max() {
    let data = hydra::data::random_walk(8, 12, 555);
    let workers = [u64::MAX, 1].map(|listed| ScriptedWorker::spawn_listing(data.clone(), Mode::Healthy, listed));
    let addrs: Vec<_> = workers.iter().map(|w| w.addr).collect();
    let err = Router::spawn(&addrs, "127.0.0.1:0", RouterConfig::default()).err().unwrap();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("are not a split"), "{err}");
}

#[test]
fn a_worker_dying_mid_batch_yields_typed_errors_and_other_connections_survive() {
    let d = real_and_scripted(180, 888, Mode::Healthy, WORKER_TIMEOUT);
    let mut client = d.client();

    // First, a complete merged answer while both workers are healthy.
    let series = d.series(0);
    d.assert_exact("healthy query", ask(&mut client, 1, &series, 5), &series, 5);

    // The worker dies. Every subsequent query on this connection becomes
    // one typed Unavailable answer within the timeout budget — not a hang,
    // not a partial top-k over the surviving shard.
    d.scripted[0].set_mode(Mode::CloseOnQuery);
    let started = Instant::now();
    for request_id in 2..=5u64 {
        let body = ask(&mut client, request_id, &series, 5);
        assert!(
            unavailable(&body),
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
    let mut second = d.client();
    assert_eq!(second.list_indexes().unwrap().len(), 1);
    drop(second);

    // And the original connection is still usable — the errors were
    // per-query, not a poisoned stream.
    assert!(unavailable(&ask(&mut client, 6, &series, 5)));

    drop(client);
    let stats = d.stop();
    assert!(
        stats.worker_errors >= 4,
        "each failed query counts a worker error: {stats:?}"
    );
}

#[test]
fn a_stalled_worker_costs_at_most_the_worker_timeout() {
    let d = real_and_scripted(160, 999, Mode::Stall, WORKER_TIMEOUT);

    // Pipeline the stalled query, then prove the router is not wedged by
    // serving another connection *while* the first is still waiting.
    let mut stalled = d.client();
    send(&mut stalled, 1, &d.series(1), 3);
    let mut other = d.client();
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
        unavailable(&response.body),
        "a stall must become a typed error: {:?}",
        response.body
    );
    assert!(
        elapsed < WORKER_TIMEOUT + Duration::from_secs(2),
        "the stall cost {elapsed:?}; the budget was {WORKER_TIMEOUT:?}"
    );

    drop(stalled);
    d.stop();
}

#[test]
fn the_router_reconnects_through_backoff_when_a_worker_restarts() {
    let d = real_and_scripted(200, 1234, Mode::Healthy, WORKER_TIMEOUT);
    let mut client = d.client();
    let series = d.series(2);

    // Healthy → crash: queries degrade to typed errors.
    assert!(matches!(ask(&mut client, 1, &series, 6), ResponseBody::Answer { .. }));
    d.scripted[0].set_mode(Mode::CloseOnQuery);
    assert!(unavailable(&ask(&mut client, 2, &series, 6)));

    // Restart: the same address answers again. The router must recover
    // through its reconnection backoff without being told anything, to
    // the full merged answer.
    d.scripted[0].set_mode(Mode::Healthy);
    d.assert_exact("recovered", ask_until_answered(&mut client, 3, &series, 6), &series, 6);

    drop(client);
    d.stop();
}

// ---------------------------------------------------------------------------
// Many calls in flight per worker link.
// ---------------------------------------------------------------------------

#[test]
fn answers_a_worker_gives_out_of_order_reach_the_clients_that_asked() {
    // The worker sits on the first call until the second has arrived —
    // which a one-call-at-a-time link never delivers — then answers the
    // second first.
    let d = real_and_scripted(200, 4242, Mode::Reverse(2), WORKER_TIMEOUT);
    let (mut first, mut second) = (d.client(), d.client());
    let (a, b) = (d.series(3), d.series(150));
    send(&mut first, 11, &a, 7);
    send(&mut second, 22, &b, 7);
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
    let d = real_and_scripted(200, 5151, Mode::Reverse(2), WORKER_TIMEOUT);
    let (mut first, mut second) = (d.client(), d.client());
    for round in 0..12usize {
        let (a, b) = (d.series(round), d.series(199 - round));
        let id = (round + 1) as u64;
        send(&mut first, id, &a, 5);
        send(&mut second, id, &b, 5);
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
    let d = real_and_scripted(200, 6262, Mode::Delay(delay), Duration::from_secs(5));
    let mut client = d.client();
    let started = Instant::now();
    for request_id in 1..=8u64 {
        send(&mut client, request_id, &d.series(request_id as usize * 20), 6);
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
    let mode = Mode::HangUpMidResponse(IN_FLIGHT as usize);
    let d = real_and_scripted(200, 7373, mode, Duration::from_secs(30));
    let mut client = d.client();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let series = d.series(9);
    let errors_before = d.link_counter("hydra_router_worker_errors_total");
    for request_id in 1..=IN_FLIGHT {
        send(&mut client, request_id, &series, 4);
    }
    let mut failed = Vec::new();
    for _ in 0..IN_FLIGHT {
        let response = client.recv().expect("a call in flight was left hanging");
        assert!(
            unavailable(&response.body),
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
    d.scripted[0].set_mode(Mode::Healthy);
    let recovered = ask_until_answered(&mut client, IN_FLIGHT + 1, &series, 4);
    d.assert_exact("after the restart", recovered, &series, 4);
    assert!(d.link_counter("hydra_router_worker_reconnects_total") >= 1);
    drop(client);
    d.stop();
}

#[test]
fn a_link_carries_at_most_64_calls_and_a_flooding_client_is_still_fully_answered() {
    const FLOOD: u64 = 1_000;
    let d = real_and_scripted(200, 8484, Mode::Hold, Duration::from_secs(60));
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
                let series = &queries[request_id as usize % queries.len()];
                let frame = query(request_id, INDEX, SearchParams::exact(3), series).encode();
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
    d.scripted[0].set_mode(Mode::Healthy);
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
