//! The five workloads. Each has a set-up (data generation, build, snapshot
//! save, boot — everything `setup_s` covers) and a `slice` that runs
//! operations in a closed loop until a deadline, timing each and checking
//! its answer against the oracle as it arrives.
//!
//! Why these five: `mem_exact` is compute-bound (storage all hits, serving
//! bypassed); `ooc_eps` is storage-bound (data = 16x pool); `serve_ng` is
//! dominated by protocol, batch window and thread hand-offs; `route_exact`
//! isolates fan-out, worker links and merge; `ingest_stream` runs storage,
//! DSTree and persist the opposite way round. A change to one layer should
//! move its workload and leave the ones that bypass the layer alone.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::inputs::{dataset, Dirs, Inputs, ORACLE_K};
use crate::measure::SliceOut;
use crate::sut::{
    self, Client, Dataset, FileIoMode, Index, Journal, Neighbor, PageCodec, Scrape, SearchParams,
    SearchResult, StoreCounters, SutError,
};
use crate::trace::Tracer;

/// Queries per `search_batch` call of `ooc_eps`.
pub const OOC_BATCH: usize = 8;
/// Series per journal append + `insert_batch` of `ingest_stream`.
pub const INGEST_CHUNK: usize = 16;
/// Client connections of the two wire workloads (= `nproc` on the
/// reference box).
pub const CONNECTIONS: usize = 2;
/// Requests each `serve_ng` connection keeps in flight.
pub const SERVE_WINDOW: usize = 8;

/// How an answer is judged.
pub enum Expect {
    /// Neighbor ids equal the oracle's, rank by rank; a different id is
    /// allowed only on a distance tie.
    Exact,
    /// The k-th distance is within `(1 + epsilon)` of the oracle's.
    Epsilon(f32),
    /// Ids and distances equal the in-process answers computed at set-up
    /// (the serving contract: served == offline, bit for bit).
    Same(Vec<Vec<Neighbor>>),
}

/// Judges answers and scores them against the oracle.
pub struct Checker<'a> {
    inputs: &'a Inputs,
    k: usize,
    expect: Expect,
}

impl<'a> Checker<'a> {
    fn new(inputs: &'a Inputs, k: usize, expect: Expect) -> Self {
        Checker { inputs, k, expect }
    }

    /// Whether `found` is a correct answer to pool query `qi`, and its
    /// average precision against the oracle.
    pub fn judge(&self, qi: usize, found: &[Neighbor]) -> (bool, f64) {
        let truth = self.inputs.truth(qi, self.k);
        let ok = found.len() == truth.len()
            && match &self.expect {
                Expect::Exact => found.iter().zip(truth).all(|(f, t)| {
                    f.index == t.index || (f.distance - t.distance).abs() <= 1e-6 * t.distance
                }),
                Expect::Epsilon(eps) => match (found.last(), truth.last()) {
                    (Some(f), Some(t)) => f.distance <= (1.0 + eps) * t.distance * (1.0 + 1e-6),
                    _ => true,
                },
                Expect::Same(expected) => found == &expected[qi][..],
            };
        (ok, sut::average_precision(found, truth))
    }

    /// Folds one answered (or failed) operation into a slice's tallies.
    fn tally(&self, out: &mut SliceOut, qi: usize, answer: Result<&[Neighbor], ()>) {
        match answer {
            Ok(found) => {
                let (ok, ap) = self.judge(qi, found);
                out.failed += u64::from(!ok);
                out.precisions.push((qi as u32, ap));
            }
            Err(()) => out.failed += 1,
        }
    }
}

/// What a scrape of the serving layer showed over the measured phase.
#[derive(Debug, Clone)]
pub struct ServeScrape {
    /// Worker registries, summed (the single server on `serve_ng`).
    pub workers: Scrape,
    /// The router's own registry (`route_exact` only).
    pub router: Option<Scrape>,
    /// Wall time of one stats scrape under the workload's connections.
    pub scrape_ms: f64,
}

/// A set-up workload.
pub trait Workload {
    /// Runs operations for `dur`, recording spans when `traced`.
    fn slice(&mut self, dur: Duration, traced: bool) -> SliceOut;

    /// Cumulative counters of the store behind the workload's index.
    fn store_counters(&mut self) -> StoreCounters;

    /// A scrape of the serving layer (`None` for in-process workloads).
    fn scrape(&mut self) -> Option<ServeScrape> {
        None
    }

    /// Median in-process time of one operation's search, in microseconds
    /// (what the wire workloads' latency is compared against).
    fn in_process_search_us(&self) -> f64 {
        0.0
    }

    /// Stops anything the set-up started and, when `check` is set, runs the
    /// post-measurement checks, returned as one more (latency-free) tally.
    fn finish(self: Box<Self>, check: bool) -> SliceOut;
}

/// Sets a workload up from scratch: generate, build, save, boot.
pub fn set_up<'a>(name: &str, inputs: &'a Inputs, dirs: &Dirs) -> Box<dyn Workload + 'a> {
    match name {
        "mem_exact" => Box::new(MemExact::set_up(inputs)),
        "ooc_eps" => Box::new(OocEps::set_up(inputs, dirs)),
        "serve_ng" => Box::new(Wire::serve_ng(inputs, dirs)),
        "route_exact" => Box::new(Wire::route_exact(inputs, dirs)),
        "ingest_stream" => Box::new(IngestStream::set_up(inputs, dirs)),
        other => panic!("unknown workload {other:?}"),
    }
}

fn tracer_for(traced: bool, epoch: Instant) -> Option<Tracer> {
    traced.then(|| Tracer::new(epoch))
}

fn neighbors(result: &Result<SearchResult, SutError>) -> Result<&[Neighbor], ()> {
    result.as_ref().map(|r| &r.neighbors[..]).map_err(|_| ())
}

// ---------------------------------------------------------------------------
// mem_exact
// ---------------------------------------------------------------------------

struct MemExact<'a> {
    inputs: &'a Inputs,
    checker: Checker<'a>,
    index: Index,
    params: SearchParams,
    cursor: usize,
    epoch: Instant,
}

impl<'a> MemExact<'a> {
    fn set_up(inputs: &'a Inputs) -> Self {
        let data = dataset(inputs.seed, inputs.scale);
        let index = Index::new(sut::build_isax(&data, sut::resident(), inputs.seed));
        MemExact {
            inputs,
            checker: Checker::new(inputs, ORACLE_K, Expect::Exact),
            index,
            params: SearchParams::exact(ORACLE_K),
            cursor: 0,
            epoch: Instant::now(),
        }
    }
}

impl Workload for MemExact<'_> {
    fn slice(&mut self, dur: Duration, traced: bool) -> SliceOut {
        let mut out = SliceOut::default();
        let mut tracer = tracer_for(traced, self.epoch);
        let deadline = Instant::now() + dur;
        loop {
            let qi = self.cursor % self.inputs.pool();
            let start = Instant::now();
            if start >= deadline {
                break;
            }
            let result = self.index.search(self.inputs.query(qi), &self.params);
            let end = Instant::now();
            out.lat_ms.push((end - start).as_secs_f64() * 1e3);
            self.checker.tally(&mut out, qi, neighbors(&result));
            if let Ok(r) = &result {
                out.stats.merge(&r.stats);
            }
            if let Some(t) = tracer.as_mut() {
                let op = self.cursor as u64;
                let root = t.reserve();
                t.child(root, op, "isax.search", start, end);
                t.record(root, 0, op, "op", start, Instant::now());
            }
            self.cursor += 1;
        }
        out.spans = tracer.map(|t| t.spans).unwrap_or_default();
        out
    }

    fn store_counters(&mut self) -> StoreCounters {
        self.index.store_counters()
    }

    fn finish(self: Box<Self>, _check: bool) -> SliceOut {
        SliceOut::default()
    }
}

// ---------------------------------------------------------------------------
// ooc_eps
// ---------------------------------------------------------------------------

struct OocEps<'a> {
    inputs: &'a Inputs,
    checker: Checker<'a>,
    index: Index,
    params: SearchParams,
    cursor: usize,
    epoch: Instant,
}

impl<'a> OocEps<'a> {
    fn set_up(inputs: &'a Inputs, dirs: &Dirs) -> Self {
        let dir = dirs.fresh("ooc");
        {
            let data = dataset(inputs.seed, inputs.scale);
            let tree = sut::build_dstree(&data, sut::resident(), inputs.seed);
            sut::save_dataset(&data, &dir);
            sut::save_index(&tree, &sut::index_snapshot(&dir, "dstree"));
            // Both are dropped here: the boot below must run — and the
            // measured phase must stay — at O(pool) heap.
        }
        let storage = sut::pooled(
            inputs.scale.ooc_pool_pages,
            PageCodec::F32,
            FileIoMode::Pread,
        );
        let index = sut::boot_out_of_core(&dir, &sut::registry(storage, inputs.seed));
        let epsilon = 1.0;
        OocEps {
            inputs,
            checker: Checker::new(inputs, ORACLE_K, Expect::Epsilon(epsilon)),
            index,
            params: SearchParams::epsilon(ORACLE_K, epsilon),
            cursor: 0,
            epoch: Instant::now(),
        }
    }
}

impl Workload for OocEps<'_> {
    fn slice(&mut self, dur: Duration, traced: bool) -> SliceOut {
        let mut out = SliceOut::default();
        let mut tracer = tracer_for(traced, self.epoch);
        let deadline = Instant::now() + dur;
        let pool = self.inputs.pool();
        loop {
            let first = self.cursor;
            let batch: Vec<&[f32]> = (0..OOC_BATCH)
                .map(|i| self.inputs.query((first + i) % pool))
                .collect();
            let start = Instant::now();
            if start >= deadline {
                break;
            }
            let results = self.index.search_batch(&batch, &self.params);
            let end = Instant::now();
            // An operation is a query; its latency is the batch call it
            // rode in.
            let lat_ms = (end - start).as_secs_f64() * 1e3;
            for (i, result) in results.iter().enumerate() {
                out.lat_ms.push(lat_ms);
                self.checker
                    .tally(&mut out, (first + i) % pool, neighbors(result));
                if let Ok(r) = result {
                    out.stats.merge(&r.stats);
                }
            }
            if let Some(t) = tracer.as_mut() {
                let op = first as u64;
                let root = t.reserve();
                t.child(root, op, "dstree.search_batch", start, end);
                t.record(root, 0, op, "op", start, Instant::now());
            }
            self.cursor += OOC_BATCH;
        }
        out.spans = tracer.map(|t| t.spans).unwrap_or_default();
        out
    }

    fn store_counters(&mut self) -> StoreCounters {
        self.index.store_counters()
    }

    fn finish(self: Box<Self>, _check: bool) -> SliceOut {
        SliceOut::default()
    }
}

// ---------------------------------------------------------------------------
// serve_ng, route_exact
// ---------------------------------------------------------------------------

/// The two wire workloads: closed-loop clients against a server, or
/// against a router in front of two shard workers.
struct Wire<'a> {
    inputs: &'a Inputs,
    checker: Checker<'a>,
    params: SearchParams,
    window: usize,
    clients: Vec<Client>,
    /// Next pool position of each client (client `c` asks `c`, `c + C`, ...).
    cursors: Vec<usize>,
    /// One scrape connection per worker, and one to the router if any.
    worker_scrapers: Vec<Client>,
    router_scraper: Option<Client>,
    workers: Vec<sut::ServerHandle>,
    router: Option<sut::RouterHandle>,
    in_process_us: f64,
    epoch: Instant,
}

impl<'a> Wire<'a> {
    /// One server booted from a resident DSTree snapshot directory; ng
    /// `nprobe = 1`, 10-NN, 2 connections x 8 in flight.
    fn serve_ng(inputs: &'a Inputs, dirs: &Dirs) -> Self {
        let params = SearchParams::ng(10, 1);
        let dir = dirs.fresh("serve");
        let data = dataset(inputs.seed, inputs.scale);
        let (expected, in_process_us) =
            save_dstree_dir(&data, &dir, inputs, &params, inputs.pool());
        drop(data);
        let registry = sut::registry(sut::resident(), inputs.seed);
        let server = sut::boot_server(&dir, &registry);
        let addr = server.local_addr();
        Wire {
            inputs,
            checker: Checker::new(inputs, params.k, Expect::Same(expected)),
            params,
            window: SERVE_WINDOW,
            clients: connect_all(addr, CONNECTIONS),
            cursors: (0..CONNECTIONS).collect(),
            worker_scrapers: vec![Client::connect(addr, sut::DSTREE_SERVED)],
            router_scraper: None,
            workers: vec![server],
            router: None,
            in_process_us,
            epoch: Instant::now(),
        }
    }

    /// A router in front of two in-process workers holding the two
    /// contiguous halves; exact 100-NN, 2 connections x 1 in flight.
    fn route_exact(inputs: &'a Inputs, dirs: &Dirs) -> Self {
        let params = SearchParams::exact(ORACLE_K);
        let data = dataset(inputs.seed, inputs.scale);
        let registry = sut::registry(sut::resident(), inputs.seed);
        let mut workers = Vec::new();
        let mut shard_us = Vec::new();
        for (s, shard) in sut::contiguous_shards(&data, 2).iter().enumerate() {
            let dir = dirs.fresh(&format!("shard-{s}"));
            // Exact answers are judged against the oracle; a sample of the
            // pool is enough to time the in-process search.
            let sample = inputs.pool().min(32);
            shard_us.push(save_dstree_dir(shard, &dir, inputs, &params, sample).1);
            workers.push(sut::boot_server(&dir, &registry));
        }
        drop(data);
        let addrs: Vec<_> = workers.iter().map(|w| w.local_addr()).collect();
        let router = sut::spawn_router(&addrs);
        let addr = router.local_addr();
        Wire {
            inputs,
            checker: Checker::new(inputs, params.k, Expect::Exact),
            params,
            window: 1,
            clients: connect_all(addr, CONNECTIONS),
            cursors: (0..CONNECTIONS).collect(),
            worker_scrapers: addrs
                .iter()
                .map(|&a| Client::connect(a, sut::DSTREE_SERVED))
                .collect(),
            router_scraper: Some(Client::connect(addr, sut::DSTREE_SERVED)),
            workers,
            router: Some(router),
            // The answer waits for the slower of the two shard searches.
            in_process_us: shard_us.iter().copied().fold(0.0, f64::max),
            epoch: Instant::now(),
        }
    }
}

/// Builds a resident DSTree over `data`, saves dataset + index into `dir`
/// for the boot path, and answers the first `answered` pool queries
/// in-process: the expected answers of the serving contract, and the
/// in-process search time the wire latency is compared with.
fn save_dstree_dir(
    data: &Dataset,
    dir: &std::path::Path,
    inputs: &Inputs,
    params: &SearchParams,
    answered: usize,
) -> (Vec<Vec<Neighbor>>, f64) {
    let tree = sut::build_dstree(data, sut::resident(), inputs.seed);
    sut::save_dataset(data, dir);
    sut::save_index(&tree, &sut::index_snapshot(dir, "dstree"));
    let tree = Index::new(tree);
    let mut times = Vec::with_capacity(answered);
    let expected = (0..answered)
        .map(|qi| {
            let start = Instant::now();
            let result = tree.search(inputs.query(qi), params);
            times.push(start.elapsed().as_secs_f64() * 1e6);
            result.map(|r| r.neighbors).unwrap_or_default()
        })
        .collect();
    (expected, crate::measure::median(&times))
}

fn connect_all(addr: std::net::SocketAddr, connections: usize) -> Vec<Client> {
    (0..connections)
        .map(|_| Client::connect(addr, sut::DSTREE_SERVED))
        .collect()
}

/// What the connections of one slice share.
struct SliceShared<'a> {
    inputs: &'a Inputs,
    checker: &'a Checker<'a>,
    params: &'a SearchParams,
    /// Requests each connection keeps in flight.
    window: usize,
    /// Pool positions between a connection's consecutive queries.
    stride: usize,
    deadline: Instant,
}

/// One connection's closed loop: keep `window` requests in flight until the
/// deadline, then drain. A transport failure fails everything in flight and
/// ends the loop (later slices on the connection fail fast the same way).
fn client_loop(
    client: &mut Client,
    cursor: &mut usize,
    shared: &SliceShared<'_>,
    mut tracer: Option<Tracer>,
) -> SliceOut {
    let SliceShared {
        inputs,
        checker,
        params,
        window,
        stride,
        deadline,
    } = *shared;
    struct InFlight {
        id: u64,
        qi: usize,
        op: u64,
        sent: Instant,
        root: u64,
    }
    let mut out = SliceOut::default();
    let mut in_flight: Vec<InFlight> = Vec::with_capacity(window);
    let pool = inputs.pool();
    'connection: loop {
        // Top the window up while the slice is still open.
        while in_flight.len() < window && Instant::now() < deadline {
            let qi = *cursor % pool;
            // Connections walk disjoint pool positions, so the position is
            // the operation id.
            let op = *cursor as u64;
            *cursor += stride;
            let sent = Instant::now();
            let Ok(id) = client.send(inputs.query(qi), params) else {
                out.lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                out.failed += 1;
                break 'connection;
            };
            let root = tracer.as_mut().map_or(0, |t| {
                let root = t.reserve();
                t.child(root, op, "serve.send", sent, Instant::now());
                root
            });
            in_flight.push(InFlight {
                id,
                qi,
                op,
                sent,
                root,
            });
        }
        if in_flight.is_empty() {
            break;
        }
        let recv_start = Instant::now();
        let received = client.recv();
        let end = Instant::now();
        let Ok((id, answer)) = received else {
            break;
        };
        let Some(pos) = in_flight.iter().position(|f| f.id == id) else {
            out.failed += 1;
            continue;
        };
        let op = in_flight.swap_remove(pos);
        out.lat_ms.push((end - op.sent).as_secs_f64() * 1e3);
        checker.tally(&mut out, op.qi, answer.as_deref().map_err(|_| ()));
        if let Some(t) = tracer.as_mut() {
            t.child(op.root, op.op, "serve.recv", recv_start, end);
            t.record(op.root, 0, op.op, "op", op.sent, Instant::now());
        }
    }
    for op in in_flight {
        out.lat_ms.push(op.sent.elapsed().as_secs_f64() * 1e3);
        out.failed += 1;
    }
    out.spans = tracer.map(|t| t.spans).unwrap_or_default();
    out
}

impl Workload for Wire<'_> {
    fn slice(&mut self, dur: Duration, traced: bool) -> SliceOut {
        let shared = SliceShared {
            inputs: self.inputs,
            checker: &self.checker,
            params: &self.params,
            window: self.window,
            stride: self.clients.len(),
            deadline: Instant::now() + dur,
        };
        let (shared, epoch) = (&shared, self.epoch);
        let mut out = SliceOut::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.cursors.iter_mut())
                .map(|(client, cursor)| {
                    let tracer = tracer_for(traced, epoch);
                    scope.spawn(move || client_loop(client, cursor, shared, tracer))
                })
                .collect();
            for handle in handles {
                out.absorb(handle.join().expect("client thread panicked"));
            }
        });
        out
    }

    fn store_counters(&mut self) -> StoreCounters {
        // The indexes live inside the servers; their store counters are the
        // `hydra_store` gauges of the workers' scrapes.
        let mut total = StoreCounters::default();
        for scraper in &mut self.worker_scrapers {
            let scrape = scraper.scrape();
            let gauge = |counter: &str| {
                scrape.labelled(
                    "hydra_store",
                    &[("index", sut::DSTREE_SERVED), ("counter", counter)],
                ) as u64
            };
            total.merge(&StoreCounters {
                random_ios: gauge("random_ios"),
                sequential_ios: gauge("sequential_ios"),
                bytes_read: gauge("bytes_read"),
                pool_hits: gauge("pool_hits"),
                pool_misses: gauge("pool_misses"),
                pool_evictions: gauge("pool_evictions"),
                compressed_bytes_read: gauge("compressed_bytes_read"),
            });
        }
        total
    }

    fn scrape(&mut self) -> Option<ServeScrape> {
        let start = Instant::now();
        let mut workers = self.worker_scrapers[0].scrape();
        let scrape_ms = start.elapsed().as_secs_f64() * 1e3;
        for scraper in &mut self.worker_scrapers[1..] {
            workers = workers.plus(&scraper.scrape());
        }
        Some(ServeScrape {
            workers,
            router: self.router_scraper.as_mut().map(Client::scrape),
            scrape_ms,
        })
    }

    fn in_process_search_us(&self) -> f64 {
        self.in_process_us
    }

    fn finish(self: Box<Self>, _check: bool) -> SliceOut {
        let this = *self;
        drop(this.clients);
        drop(this.worker_scrapers);
        drop(this.router_scraper);
        if let Some(router) = this.router {
            sut::stop_router(router);
        }
        for worker in this.workers {
            sut::stop_server(worker);
        }
        SliceOut::default()
    }
}

// ---------------------------------------------------------------------------
// ingest_stream
// ---------------------------------------------------------------------------

/// One pass over the stream: a freshly loaded base, its journal, and how
/// far the pass has got.
struct Pass {
    index: Index,
    journal: Journal,
    next: usize,
}

struct IngestStream<'a> {
    inputs: &'a Inputs,
    data: Dataset,
    base: Dataset,
    snapshot: PathBuf,
    registry: sut::LoaderRegistry,
    pass: Option<Pass>,
    /// Whether the journal beside the snapshot holds one complete pass.
    journal_complete: bool,
    /// Chunks streamed so far (the operation id of a traced chunk).
    chunks: u64,
    epoch: Instant,
}

impl<'a> IngestStream<'a> {
    fn set_up(inputs: &'a Inputs, dirs: &Dirs) -> Self {
        let dir = dirs.fresh("ingest");
        let data = dataset(inputs.seed, inputs.scale);
        let base = sut::prefix(&data, data.len() - inputs.scale.ingest_stream);
        let snapshot = sut::index_snapshot(&dir, "dstree");
        sut::save_index(
            &sut::build_dstree(&base, sut::resident(), inputs.seed),
            &snapshot,
        );
        IngestStream {
            inputs,
            data,
            base,
            snapshot,
            registry: sut::registry(sut::resident(), inputs.seed),
            pass: None,
            journal_complete: false,
            chunks: 0,
            epoch: Instant::now(),
        }
    }

    /// Loads the base snapshot into a fresh index and truncates the
    /// journal. Untimed: the workload measures the stream, not the reload.
    fn begin_pass(&mut self) {
        self.pass = Some(Pass {
            index: sut::load(&self.registry, &self.snapshot, &self.base),
            journal: Journal::create(&self.snapshot),
            next: self.base.len(),
        });
        self.journal_complete = false;
    }

    /// Journals and inserts the next chunk; returns the two call boundaries
    /// and whether both calls succeeded.
    fn stream_chunk(&mut self) -> (Instant, Instant, Instant, bool) {
        let pass = self.pass.as_mut().expect("a pass is open");
        let end = (pass.next + INGEST_CHUNK).min(self.data.len());
        let chunk: Vec<&[f32]> = (pass.next..end).map(|i| self.data.series(i)).collect();
        let start = Instant::now();
        let journaled = pass.journal.append_batch(&chunk);
        let mid = Instant::now();
        let inserted = pass.index.insert_batch(&chunk);
        let done = Instant::now();
        pass.next = end;
        if end == self.data.len() {
            self.pass = None;
            self.journal_complete = true;
        }
        (start, mid, done, journaled.is_ok() && inserted.is_ok())
    }
}

impl Workload for IngestStream<'_> {
    fn slice(&mut self, dur: Duration, traced: bool) -> SliceOut {
        let mut out = SliceOut::default();
        let mut tracer = tracer_for(traced, self.epoch);
        let mut deadline = Instant::now() + dur;
        while Instant::now() < deadline {
            if self.pass.is_none() {
                let reload = Instant::now();
                self.begin_pass();
                let untimed = reload.elapsed();
                out.untimed_s += untimed.as_secs_f64();
                deadline += untimed;
            }
            let before = self.pass.as_ref().map_or(0, |p| p.next);
            let (start, mid, done, ok) = self.stream_chunk();
            let series = self.pass.as_ref().map_or(self.data.len(), |p| p.next) - before;
            // An operation is one series; its latency is its chunk's.
            let lat_ms = (done - start).as_secs_f64() * 1e3;
            for _ in 0..series {
                out.lat_ms.push(lat_ms);
            }
            if !ok {
                out.failed += series as u64;
            }
            if let Some(t) = tracer.as_mut() {
                let op = self.chunks;
                let root = t.reserve();
                t.child(root, op, "persist.journal_append", start, mid);
                t.child(root, op, "dstree.insert_batch", mid, done);
                t.record(root, 0, op, "op", start, Instant::now());
            }
            self.chunks += 1;
        }
        out.spans = tracer.map(|t| t.spans).unwrap_or_default();
        out
    }

    fn store_counters(&mut self) -> StoreCounters {
        self.pass
            .as_ref()
            .map(|p| p.index.store_counters())
            .unwrap_or_default()
    }

    /// Acknowledged writes are readable after a restart: base + journal,
    /// loaded into a fresh index, must answer like the oracle *and* like a
    /// fresh build over the whole collection.
    fn finish(mut self: Box<Self>, check: bool) -> SliceOut {
        if !check {
            return SliceOut::default();
        }
        if !self.journal_complete {
            if self.pass.is_none() {
                self.begin_pass();
            }
            while self.pass.is_some() {
                self.stream_chunk();
            }
        }
        self.pass = None;
        let restarted = sut::load_journaled(&self.registry, &self.snapshot, &self.base);
        let fresh = Index::new(sut::build_dstree(
            &self.data,
            sut::resident(),
            self.inputs.seed,
        ));
        let params = SearchParams::exact(ORACLE_K);
        let checker = Checker::new(self.inputs, ORACLE_K, Expect::Exact);
        let checks = self.inputs.scale.ingest_checks.min(self.inputs.pool());
        let mut out = SliceOut {
            checks: checks as u64 + 1,
            failed: u64::from(restarted.num_series() != self.data.len()),
            ..SliceOut::default()
        };
        for qi in 0..checks {
            let query = self.inputs.query(qi);
            let (answer, reference) = (
                restarted.search(query, &params),
                fresh.search(query, &params),
            );
            checker.tally(&mut out, qi, neighbors(&answer));
            let same =
                matches!((&answer, &reference), (Ok(a), Ok(b)) if a.neighbors == b.neighbors);
            out.failed += u64::from(!same);
        }
        out
    }
}
