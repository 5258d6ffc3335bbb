//! Observability acceptance suite: the telemetry layer must *describe*
//! the serving pipeline without *touching* it.
//!
//! Two contracts are asserted over real TCP:
//!
//! 1. **Answers are unchanged.** Every answer served while metrics are
//!    being recorded is byte-identical (same neighbors, bit-identical
//!    distances) to the offline path on an index loaded from the same
//!    snapshots — observability never changes answers.
//! 2. **Scrapes reconcile exactly.** The `Stats` frame's Prometheus text
//!    exposition parses cleanly (every line a `# TYPE` header or one
//!    sample, no duplicate keys), `hydra_queries_total` equals the number
//!    of queries actually replayed, each
//!    `hydra_query_stats_total{counter=...}` equals the same counter
//!    summed over the offline runs' [`QueryStats`], and a second scrape
//!    is monotone on every counter. The router answers the same frame
//!    from its own registry, and its per-worker call counters reconcile
//!    with the worker's own served-query count.
//!
//! 3. **`join()` is the scrape.** The registry is each role's only set of
//!    books: every `ServerStats`/`RouterStats` field equals the registry
//!    sample taken just before shutdown, and the router meters its own
//!    wire (`hydra_router_{rx,tx}_*`) like the server does.
//!
//! Queries replay sequentially through [`ServeClient::call`] (one query
//! per batch tick), so the batcher's `search_batch` degenerates to the
//! offline per-query path and the per-query counters must match exactly.

mod common;

use std::collections::BTreeMap;
use std::time::Duration;

use common::serving::{ask, query, unavailable, Deployment, Shard, INDEX, WORKER_TIMEOUT};
use common::Scan;
use hydra::prelude::*;
use hydra::QueryStats;
use hydra_serve::{
    boot_from_dir, Request, ResponseBody, ServeClient, ServedIndex, Server, ServerConfig,
};

/// Parses a Prometheus text exposition into `sample key -> value`,
/// asserting the grammar on the way: every line is either a
/// `# TYPE <name> <kind>` header or a `<name>[{labels}] <value>` sample,
/// and no sample key appears twice.
fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    let mut samples = BTreeMap::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "blank line in exposition");
        if let Some(header) = line.strip_prefix("# TYPE ") {
            let mut parts = header.split(' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            assert!(!name.is_empty(), "TYPE header without a name: {line:?}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "TYPE header with unknown kind: {line:?}"
            );
            assert!(parts.next().is_none(), "trailing tokens in {line:?}");
            continue;
        }
        let (key, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparseable sample line {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value in sample line {line:?}"));
        assert!(
            samples.insert(key.to_string(), value).is_none(),
            "duplicate sample key {key:?}"
        );
    }
    samples
}

/// Looks up one sample and returns it as the non-negative integer every
/// counter (and `_count`) must be.
fn counter(samples: &BTreeMap<String, f64>, key: &str) -> u64 {
    let v = *samples
        .get(key)
        .unwrap_or_else(|| panic!("missing sample {key:?}"));
    assert!(
        v >= 0.0 && v.fract() == 0.0,
        "sample {key:?} is not a non-negative integer: {v}"
    );
    v as u64
}

#[test]
fn scraped_metrics_reconcile_exactly_and_answers_stay_byte_identical() {
    let zoo = common::in_memory_zoo();
    let registry = hydra::standard_registry(hydra::StorageConfig::in_memory(), 9);
    let booted = boot_from_dir(&zoo.dir, &registry).unwrap();
    assert_eq!(booted.indexes.len(), 8, "the whole zoo must boot");
    let offline = boot_from_dir(&zoo.dir, &registry).unwrap();
    let handle = Server::spawn(
        booted.indexes,
        "127.0.0.1:0",
        ServerConfig {
            batch_window: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    let k = 10;
    let params = SearchParams::ng(k, 16);
    let workload = hydra::data::noisy_queries(&zoo.data, 6, &[0.0, 0.2], 41);

    // Replay the workload against every index, one query per call, while
    // the offline twin answers the same queries; answers must match to
    // the bit and the per-query stats sum into the reconciliation total.
    let mut client = ServeClient::connect(addr).unwrap();
    let mut offline_sums = QueryStats::new();
    let mut replayed: u64 = 0;
    for served in &offline.indexes {
        for (q, query) in workload.iter().enumerate() {
            replayed += 1;
            let request = common::serving::query(replayed, &served.name, params, query);
            let answer = served.index.search(query, &params).unwrap();
            let context = format!("{} query {q} under instrumentation", served.name);
            let body = client.call(&request).unwrap().body;
            let ResponseBody::Answer { neighbors: wire } = body else {
                panic!("{context}: no answer but {body:?}");
            };
            common::assert_same_neighbors(&context, &wire, &answer.neighbors);
            offline_sums.merge(&answer.stats);
        }
    }

    // One query for an index that does not exist: it must still be
    // *counted* (as a query and as a typed error), not just answered.
    let series = workload.iter().next().unwrap();
    let response = client
        .call(&query(replayed + 1, "no-such-index", params, series))
        .unwrap();
    assert!(
        matches!(
            response.body,
            ResponseBody::Error {
                code: hydra_serve::ErrorCode::UnknownIndex,
                ..
            }
        ),
        "expected UnknownIndex, got {:?}",
        response.body
    );
    let total = replayed + 1;

    // First scrape: exact reconciliation.
    let first = parse_exposition(&client.stats().unwrap());
    assert_eq!(
        counter(&first, "hydra_queries_total"),
        total,
        "queries_total must equal the number of queries replayed"
    );
    assert_eq!(
        counter(&first, "hydra_query_micros_count"),
        total,
        "every query (even a failed one) must observe its latency"
    );
    assert_eq!(
        counter(&first, "hydra_query_errors_total{kind=\"unknown_index\"}"),
        1
    );
    assert_eq!(counter(&first, "hydra_query_errors_total{kind=\"search\"}"), 0);
    for (name, value) in offline_sums.counters() {
        assert_eq!(
            counter(&first, &format!("hydra_query_stats_total{{counter=\"{name}\"}}")),
            value,
            "scraped {name} must equal the offline QueryStats sum"
        );
    }
    assert!(counter(&first, "hydra_connections_total") >= 1);
    assert!(counter(&first, "hydra_ticks_total") >= 1);
    assert!(counter(&first, "hydra_batch_calls_total") >= replayed);
    assert_eq!(counter(&first, "hydra_rx_frames_total"), total + 1); // + the stats frame
    assert_eq!(*first.get("hydra_epoch").unwrap(), 0.0, "no reload has happened");
    assert_eq!(
        *first.get("hydra_reload_last_ok").unwrap(),
        -1.0,
        "reload_last_ok starts unset"
    );

    // More traffic (pipelined this time — grouping is allowed to batch),
    // then a second scrape: every counter-like sample is monotone and the
    // query total advances by exactly the replayed count.
    let more = common::replay(addr, &offline.indexes[0].name, &params, &workload, 2);
    assert_eq!(more.len(), workload.len());
    let second = parse_exposition(&client.stats().unwrap());
    assert_eq!(
        counter(&second, "hydra_queries_total"),
        total + workload.len() as u64
    );
    for (key, v1) in &first {
        if key.ends_with("_total") || key.ends_with("_count") || key.contains("_bucket{") {
            let v2 = second
                .get(key)
                .unwrap_or_else(|| panic!("sample {key:?} disappeared between scrapes"));
            assert!(
                v2 >= v1,
                "counter {key:?} went backwards between scrapes: {v1} -> {v2}"
            );
        }
    }

    client.shutdown().unwrap();
    drop(client);
    let stats = handle.join();
    // The legacy join() totals and the scraped registry agree.
    assert_eq!(stats.queries, total + workload.len() as u64);
}

#[test]
fn the_router_answers_stats_from_its_own_registry_and_reconciles_with_its_worker() {
    let data = hydra::data::random_walk(200, 16, 4242);
    let d = Deployment::spawn(data, vec![Shard::Scan], WORKER_TIMEOUT);
    let worker = &d.servers[0];

    let k = 4;
    let workload = hydra::data::noisy_queries(&d.data, 5, &[0.0, 0.2], 7);
    let mut client = d.client();
    for (q, series) in workload.iter().enumerate() {
        let body = ask(&mut client, (q + 1) as u64, series, k);
        d.assert_exact(&format!("routed query {q}"), body, series, k);
    }

    // The router's scrape is its *own* registry: router-level families
    // plus one labeled family set per worker — never the worker's
    // server-level families.
    let samples = parse_exposition(&client.stats().unwrap());
    let queries = workload.len() as u64;
    assert_eq!(counter(&samples, "hydra_router_queries_total"), queries);
    assert!(counter(&samples, "hydra_router_connections_total") >= 1);
    assert!(
        !samples.contains_key("hydra_queries_total"),
        "the router must not leak worker-level families into its scrape"
    );
    let label = format!("worker=\"{}\"", worker.local_addr());
    assert!(
        counter(&samples, &format!("hydra_router_worker_calls_total{{{label}}}")) >= queries,
        "every routed query is one worker call"
    );
    assert_eq!(
        counter(&samples, &format!("hydra_router_worker_errors_total{{{label}}}")),
        0
    );
    assert_eq!(
        counter(&samples, &format!("hydra_router_worker_timeouts_total{{{label}}}")),
        0
    );
    assert_eq!(
        *samples
            .get(&format!("hydra_router_worker_in_flight{{{label}}}"))
            .unwrap(),
        0.0,
        "no call is in flight while the scrape itself is being answered"
    );
    assert!(
        counter(&samples, &format!("hydra_router_worker_call_micros_count{{{label}}}"))
            >= queries
    );

    // Cross-tier reconciliation: the worker's own scrape confirms it
    // served exactly the queries the router fanned out.
    let mut direct = ServeClient::connect(worker.local_addr()).unwrap();
    let worker_samples = parse_exposition(&direct.stats().unwrap());
    assert_eq!(counter(&worker_samples, "hydra_queries_total"), queries);
    drop(direct);

    // One client shutdown stops the deployment; the legacy router stats
    // agree with the scrape.
    client.shutdown().unwrap();
    drop(client);
    let stats = d.stop();
    assert_eq!(stats.queries, queries);
    assert_eq!(stats.worker_errors, 0);
}

#[test]
fn a_servers_join_equals_its_last_scrape() {
    let data = hydra::data::random_walk(60, 16, 5);
    let scan = move || ServedIndex {
        name: INDEX.into(),
        index: Box::new(Scan { data: data.clone() }) as Box<dyn AnnIndex>,
    };
    // Reloads succeed once, then fail: both outcomes are on the books.
    let generations = std::sync::atomic::AtomicU64::new(0);
    let reloader: hydra_serve::Reloader = {
        let scan = scan.clone();
        Box::new(
            move || match generations.fetch_add(1, std::sync::atomic::Ordering::SeqCst) {
                0 => Ok(vec![scan()]),
                _ => Err("no more generations".into()),
            },
        )
    };
    let handle = Server::spawn_with_metrics(
        vec![scan()],
        "127.0.0.1:0",
        ServerConfig::default(),
        Some(reloader),
        hydra_serve::MetricsRegistry::new(),
    )
    .unwrap();
    let series = vec![0.25f32; 16];
    for connection in 0..2u64 {
        let mut client = ServeClient::connect(handle.local_addr()).unwrap();
        for q in 1..=4 {
            let body = ask(&mut client, connection * 10 + q, &series, 3);
            assert!(matches!(body, ResponseBody::Answer { .. }), "{body:?}");
        }
        let unknown = client.call(&query(99, "no-such-index", SearchParams::exact(3), &series));
        assert!(matches!(unknown.unwrap().body, ResponseBody::Error { .. }));
        if connection == 0 {
            assert_eq!(client.reload().unwrap(), 1);
            assert!(client.reload().is_err());
        }
    }
    let scrape = parse_exposition(&handle.metrics().render());
    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.queries, 10);
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.queries, counter(&scrape, "hydra_queries_total"));
    assert_eq!(stats.ticks, counter(&scrape, "hydra_ticks_total"));
    assert_eq!(
        stats.batch_calls,
        counter(&scrape, "hydra_batch_calls_total")
    );
    assert_eq!(
        stats.connections,
        counter(&scrape, "hydra_connections_total")
    );
    assert_eq!(
        stats.reloads,
        counter(&scrape, "hydra_reloads_total{outcome=\"success\"}")
    );
    assert_eq!(
        counter(&scrape, "hydra_reloads_total{outcome=\"failed\"}"),
        1
    );
}

#[test]
fn a_routers_join_equals_its_last_scrape_and_counts_every_failed_worker_call() {
    let data = hydra::data::random_walk(120, 16, 99);
    let mut d = Deployment::spawn(data, vec![Shard::Scan, Shard::Scan], WORKER_TIMEOUT);
    let series = vec![0.25f32; 16];
    let mut client = d.client();
    for q in 1..=3 {
        d.assert_exact(&format!("query {q}"), ask(&mut client, q, &series, 3), &series, 3);
    }
    // Both workers die; the next query fails on *two* links. It is one
    // failed request but two failed worker calls — and worker calls are
    // what `worker_errors` has always documented.
    for worker in d.servers.drain(..) {
        worker.shutdown();
        worker.join();
    }
    assert!(
        unavailable(&ask(&mut client, 4, &series, 3)),
        "a query over dead workers is one typed error"
    );
    // The error reply leaves with the first refused link, before the
    // second is tried; a `Stats` frame on the same connection waits for
    // every link call of this connection's queries.
    let scrape = parse_exposition(&client.stats().unwrap());
    drop(client);
    let stats = d.stop();
    assert_eq!(stats.queries, 4);
    assert_eq!(stats.worker_errors, 2, "one failed call per dead worker");
    assert_eq!(stats.connections, 1);
    assert_eq!(
        stats.queries,
        counter(&scrape, "hydra_router_queries_total")
    );
    assert_eq!(
        stats.connections,
        counter(&scrape, "hydra_router_connections_total")
    );
    let link_errors: u64 = scrape
        .keys()
        .filter(|key| key.starts_with("hydra_router_worker_errors_total{"))
        .map(|key| counter(&scrape, key))
        .sum();
    assert_eq!(stats.worker_errors, link_errors);
}

#[test]
fn the_router_meters_its_own_wire() {
    use hydra_serve::protocol::read_frame;
    use std::io::Write;

    let data = hydra::data::random_walk(120, 16, 99);
    let d = Deployment::spawn(data, vec![Shard::Scan, Shard::Scan], WORKER_TIMEOUT);
    let router = &d.router;
    let stream = std::net::TcpStream::connect(router.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let requests = [
        Request::ListIndexes { request_id: 1 },
        query(2, INDEX, SearchParams::exact(5), &[0.5; 16]),
        query(3, "no-such-index", SearchParams::exact(5), &[0.5; 16]),
        Request::Stats { request_id: 4 },
    ];
    let (mut sent_bytes, mut received_bytes) = (0u64, 0u64);
    for request in &requests {
        let frame = request.encode();
        writer.write_all(&frame).unwrap();
        sent_bytes += frame.len() as u64;
        let payload = read_frame(&mut reader, hydra_serve::RESPONSE_MAGIC)
            .unwrap()
            .unwrap();
        received_bytes += 10 + payload.len() as u64; // magic + version + length, then the payload
    }
    // The writer thread books a frame just after putting it on the wire, so
    // the last response may be a moment ahead of its own count.
    let wire = |key: &str| counter(&parse_exposition(&router.metrics().render()), key);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while wire("hydra_router_tx_frames_total") < requests.len() as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "the last response was never booked"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let scrape = parse_exposition(&router.metrics().render());
    assert_eq!(
        counter(&scrape, "hydra_router_rx_frames_total"),
        requests.len() as u64
    );
    assert_eq!(counter(&scrape, "hydra_router_rx_bytes_total"), sent_bytes);
    assert_eq!(
        counter(&scrape, "hydra_router_tx_frames_total"),
        requests.len() as u64
    );
    assert_eq!(
        counter(&scrape, "hydra_router_tx_bytes_total"),
        received_bytes
    );
    assert_eq!(counter(&scrape, "hydra_router_protocol_errors_total"), 0);
    // Its own families only — never a worker's.
    for family in [
        "hydra_queries_total",
        "hydra_rx_frames_total",
        "hydra_tx_bytes_total",
    ] {
        assert!(
            !scrape.contains_key(family),
            "{family} leaked into the router's scrape"
        );
    }
    drop((reader, writer));
    d.stop();
}
