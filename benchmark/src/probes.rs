//! The isolated layer probes of a traced run. From outside the program,
//! nested layers are invisible — a span around `search` cannot say how long
//! the kernels or the pool took inside it — so each layer's public
//! functions are timed on the run's own inputs, one layer at a time, and
//! the report multiplies these costs by the workload's per-operation counts.

use std::hint::black_box;
use std::time::Instant;

use crate::inputs::{dataset, Dirs, Inputs, ORACLE_K};
use crate::measure::{median, time_per_call};
use crate::sut::{
    self, kernels, AppendStore, Client, Dataset, FileIoMode, Index, Journal, Neighbor, PageCodec,
    QueryStats, SearchParams, Sharded, Store, SERIES_LEN,
};
use crate::workloads::{INGEST_CHUNK, OOC_BATCH};

/// The probe costs the `est.*_share` estimates are built from.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    /// One full-length distance computation, in ns.
    pub distance_ns: f64,
    /// One pool-hit `SeriesStore::read`, in us.
    pub read_hit_us: f64,
    /// One pool-miss `SeriesStore::read` (pread, f32 pages), in us.
    pub read_miss_us: f64,
    /// One query against a no-op index over the wire, in us.
    pub noop_rtt_us: f64,
}

type Values = Vec<(&'static str, f64)>;

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn ns(seconds: f64) -> f64 {
    seconds * 1e9
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Median time of `f(i)` over `i in 0..count`, in microseconds.
fn median_us(count: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..count)
        .map(|i| {
            let start = Instant::now();
            f(i);
            us(start.elapsed().as_secs_f64())
        })
        .collect();
    median(&times)
}

/// Runs every probe, appending `(metric, value)` pairs to `values`.
pub fn run(inputs: &Inputs, dirs: &Dirs, values: &mut Values) -> LayerCosts {
    let iters = inputs.scale.probe_iters;
    let (data, generate_s) = timed(|| dataset(inputs.seed, inputs.scale));
    values.push(("data.generate_s", generate_s));
    eval(inputs, &data, values);
    let distance_ns = core_and_summarize(inputs, &data, iters, values);
    let tree = indexes(inputs, &data, iters, values);
    let (read_hit_us, read_miss_us) = persist_and_storage(inputs, dirs, &data, tree, iters, values);
    shard(inputs, &data, iters, values);
    let noop_rtt_us = serve_and_obs(inputs, iters, values);
    LayerCosts {
        distance_ns,
        read_hit_us,
        read_miss_us,
        noop_rtt_us,
    }
}

fn eval(inputs: &Inputs, data: &Dataset, values: &mut Values) {
    // A tenth of the pool, scaled up: the whole oracle is seconds of work a
    // run has already paid (or loaded from its cache) once.
    let share = (inputs.pool() / 10).max(1);
    let subset = sut::query_pool(data, share, inputs.seed ^ 0xABCD);
    let (_, subset_s) = timed(|| black_box(sut::oracle(data, &subset, ORACLE_K)));
    values.push((
        "eval.ground_truth_s",
        subset_s * inputs.pool() as f64 / share as f64,
    ));
    let scans = share.min(8);
    values.push((
        "eval.scan_us_per_query",
        median_us(scans, |i| {
            black_box(sut::scan(data, inputs.query(i), ORACLE_K));
        }),
    ));
}

/// Kernels at length 256 and the query-side transforms. Returns the cost of
/// one full-length distance computation in nanoseconds.
fn core_and_summarize(inputs: &Inputs, data: &Dataset, iters: usize, values: &mut Values) -> f64 {
    let reps = 5;
    let candidates = data.len().min(2048);
    let per_elem = |seconds: f64| ns(seconds) / (candidates * SERIES_LEN) as f64;
    let query = inputs.query(0);
    // The bound a search holds once its answer has settled; the candidates
    // are the first series of the dataset, unrelated to the query, so most
    // are cut short — the cheap end of what a real query sees.
    let bound = inputs
        .truth(0, ORACLE_K)
        .last()
        .map_or(f32::MAX, |n| n.distance);

    let euclidean = per_elem(time_per_call(reps, iters, || {
        for i in 0..candidates {
            black_box(kernels::euclidean(black_box(query), data.series(i)));
        }
    }));
    values.extend([
        ("core.euclidean_ns_per_elem", euclidean),
        (
            "core.early_abandon_ns_per_elem",
            per_elem(time_per_call(reps, iters, || {
                for i in 0..candidates {
                    black_box(kernels::euclidean_early_abandon(
                        black_box(query),
                        data.series(i),
                        bound,
                    ));
                }
            })),
        ),
    ]);

    // The same candidates as one-byte and half-precision codes.
    let flat = &data.as_flat()[..candidates * SERIES_LEN];
    let (min, max) = flat
        .iter()
        .fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let scale = ((max - min) / 255.0).max(f32::MIN_POSITIVE);
    let codes_u8: Vec<u8> = flat
        .iter()
        .map(|&v| ((v - min) / scale).round() as u8)
        .collect();
    let codes_f16: Vec<u16> = flat
        .iter()
        .map(|&v| kernels::f16_bits_from_f32(v))
        .collect();
    values.push((
        "core.early_abandon_u8_ns_per_elem",
        per_elem(time_per_call(reps, iters, || {
            for codes in codes_u8.chunks_exact(SERIES_LEN) {
                black_box(kernels::euclidean_early_abandon_u8(
                    black_box(query),
                    codes,
                    min,
                    scale,
                    bound,
                ));
            }
        })),
    ));
    values.push((
        "core.early_abandon_f16_ns_per_elem",
        per_elem(time_per_call(reps, iters, || {
            for codes in codes_f16.chunks_exact(SERIES_LEN) {
                black_box(kernels::euclidean_early_abandon_f16(
                    black_box(query),
                    codes,
                    bound,
                ));
            }
        })),
    ));

    let lists = [
        inputs.truth(0, ORACLE_K).to_vec(),
        inputs.truth(1 % inputs.pool(), ORACLE_K).to_vec(),
    ];
    values.push((
        "core.merge_top_k_us",
        us(time_per_call(reps, 100 * iters, || {
            black_box(kernels::merge_top_k(ORACLE_K, black_box(&lists)));
        })),
    ));

    let per_query_elem = |seconds: f64| ns(seconds) / (inputs.pool() * SERIES_LEN) as f64;
    let pool_pass = |f: &dyn Fn(&[f32])| {
        time_per_call(reps, iters, || {
            for qi in 0..inputs.pool() {
                f(black_box(inputs.query(qi)));
            }
        })
    };
    let sax = kernels::SaxParams::default();
    let breakpoints = kernels::normal_breakpoints(sax.max_cardinality());
    let dft = kernels::DftSummarizer::new(SERIES_LEN, 16);
    values.extend([
        (
            "summarize.paa_ns_per_elem",
            per_query_elem(pool_pass(&|q| {
                black_box(kernels::paa(q, 16));
            })),
        ),
        (
            "summarize.sax_ns_per_elem",
            per_query_elem(pool_pass(&|q| {
                black_box(kernels::sax_word(q, &sax, &breakpoints));
            })),
        ),
        (
            "summarize.dft_ns_per_elem",
            per_query_elem(pool_pass(&|q| {
                black_box(dft.transform(q));
            })),
        ),
    ]);
    euclidean * SERIES_LEN as f64
}

/// Builds, first-leaf prediction and direct resident search of the three
/// disk-capable methods. Hands the built DSTree on to the persist probes.
fn indexes(inputs: &Inputs, data: &Dataset, iters: usize, values: &mut Values) -> sut::DsTree {
    let seed = inputs.seed;
    let (dstree, dstree_s) = timed(|| sut::build_dstree(data, sut::resident(), seed));
    let (isax, isax_s) = timed(|| sut::build_isax(data, sut::resident(), seed));
    let (vafile, vafile_s) = timed(|| sut::build_vafile(data, sut::resident(), seed));
    values.extend([
        ("dstree.build_s", dstree_s),
        ("isax.build_s", isax_s),
        ("vafile.build_s", vafile_s),
    ]);

    let queries = inputs.pool().min(4 * iters);
    values.extend([
        (
            "core.predict_first_leaf_dstree_us",
            median_us(queries, |qi| {
                black_box(sut::first_leaf(&dstree, inputs.query(qi)));
            }),
        ),
        (
            "core.predict_first_leaf_isax_us",
            median_us(queries, |qi| {
                black_box(sut::first_leaf(&isax, inputs.query(qi)));
            }),
        ),
    ]);

    let modes = [
        SearchParams::exact(ORACLE_K),
        SearchParams::epsilon(ORACLE_K, 1.0),
        SearchParams::ng(10, 1),
    ];
    let names = [
        [
            "dstree.search_exact_us",
            "dstree.search_eps1_us",
            "dstree.search_ng1_us",
        ],
        [
            "isax.search_exact_us",
            "isax.search_eps1_us",
            "isax.search_ng1_us",
        ],
        [
            "vafile.search_exact_us",
            "vafile.search_eps1_us",
            "vafile.search_ng1_us",
        ],
    ];
    search_modes(inputs, &dstree, names[0], &modes, queries, values);
    search_modes(inputs, &isax, names[1], &modes, queries, values);
    search_modes(inputs, &vafile, names[2], &modes, queries, values);
    dstree
}

/// Median direct `search` time of one index under each of the three modes.
fn search_modes<I: sut::AnnIndex>(
    inputs: &Inputs,
    index: &I,
    names: [&'static str; 3],
    modes: &[SearchParams; 3],
    queries: usize,
    values: &mut Values,
) {
    for (name, params) in names.into_iter().zip(modes) {
        values.push((
            name,
            median_us(queries, |qi| {
                black_box(index.search(inputs.query(qi), params).ok());
            }),
        ));
    }
}

/// Snapshot save/load, journal append/replay, streaming insert, and the
/// store behind a file-backed DSTree under each backing and codec. Returns
/// the pool-hit and pool-miss (pread, f32) read costs in microseconds.
fn persist_and_storage(
    inputs: &Inputs,
    dirs: &Dirs,
    data: &Dataset,
    tree: sut::DsTree,
    iters: usize,
    values: &mut Values,
) -> (f64, f64) {
    let seed = inputs.seed;
    let dir = dirs.fresh("probe");
    let snapshot = sut::index_snapshot(&dir, "dstree");
    let (_, save_dataset_s) = timed(|| sut::save_dataset(data, &dir));
    let (_, save_index_s) = timed(|| sut::save_index(&tree, &snapshot));
    drop(tree);
    values.extend([
        ("persist.save_dataset_s", save_dataset_s),
        ("persist.save_index_s", save_index_s),
        (
            "persist.disk_bytes_per_data_byte",
            sut::dir_bytes(&dir) as f64 / data.payload_bytes() as f64,
        ),
    ]);
    let dataset_snapshot = sut::dataset_snapshot(&dir);
    let (_, load_resident_s) =
        timed(|| sut::load_dstree(&snapshot, data, sut::resident(), seed, None));
    values.push(("persist.load_resident_s", load_resident_s));

    // File-backed stores: the first load also writes the series sidecar the
    // out-of-core boot pays once, so it is the one `setup_s` sees.
    let pages = data.payload_bytes().div_ceil(64 * 1024);
    let file_backed = |pool_pages: usize, codec: PageCodec, io: FileIoMode| {
        sut::load_dstree(
            &snapshot,
            data,
            sut::pooled(pool_pages, codec, io),
            seed,
            Some(&dataset_snapshot),
        )
    };
    let (all_hit, load_file_backed_s) =
        timed(|| file_backed(2 * pages, PageCodec::F32, FileIoMode::Pread));
    values.push(("persist.load_file_backed_s", load_file_backed_s));

    // One read per page, so a small pool misses every time and a pool
    // larger than the data hits every time after the first pass.
    let one_per_page = |store: &Store<'_>, passes: usize, read: &mut dyn FnMut(usize)| -> f64 {
        let step = store.series_per_page();
        let records: Vec<usize> = (0..store.len()).step_by(step).collect();
        us(time_per_call(3, passes, || {
            for &record in &records {
                read(record);
            }
        })) / records.len() as f64
    };
    let mut stats = QueryStats::default();
    let hit_store = Store::of(&all_hit);
    one_per_page(&hit_store, 1, &mut |r| {
        black_box(hit_store.read(r, &mut stats));
    });
    let read_hit_us = one_per_page(&hit_store, iters, &mut |r| {
        black_box(hit_store.read(r, &mut stats));
    });
    values.push(("storage.read_hit_us", read_hit_us));

    let mut read_miss_us = 0.0;
    let query = inputs.query(0);
    for (name, codec, io) in [
        (
            "storage.read_miss_pread_f32_us",
            PageCodec::F32,
            FileIoMode::Pread,
        ),
        (
            "storage.read_miss_mmap_f32_us",
            PageCodec::F32,
            FileIoMode::Mmap,
        ),
        (
            "storage.read_miss_pread_u8_us",
            PageCodec::U8,
            FileIoMode::Pread,
        ),
        (
            "storage.read_miss_pread_f16_us",
            PageCodec::F16,
            FileIoMode::Pread,
        ),
    ] {
        let index = file_backed(2, codec, io);
        let store = Store::of(&index);
        let cost = if codec == PageCodec::F32 {
            one_per_page(&store, 1, &mut |r| {
                black_box(store.read(r, &mut stats));
            })
        } else {
            // Coded pages are only reached through `refine`; a bound of zero
            // abandons on the compressed page, so no exact read follows.
            one_per_page(&store, 1, &mut |r| {
                black_box(store.refine(r, query, 0.0, &mut stats));
            })
        };
        if name == "storage.read_miss_pread_f32_us" {
            read_miss_us = cost;
        }
        values.push((name, cost));
    }

    // The out-of-core workload's own store shape: a 32-page pool.
    let pooled = file_backed(
        inputs.scale.ooc_pool_pages,
        PageCodec::F32,
        FileIoMode::Pread,
    );
    let pooled_store = Store::of(&pooled);
    let stride = (pooled_store.len() / OOC_BATCH).max(1);
    let leaf = 128.min(pooled_store.len());
    values.push((
        "storage.pin_working_set_us",
        median_us(8 * iters, |i| {
            let ranges: Vec<(usize, usize)> = (0..OOC_BATCH)
                .map(|b| {
                    (
                        (b * stride + i * leaf) % (pooled_store.len() - leaf + 1),
                        leaf,
                    )
                })
                .collect();
            black_box(pooled_store.pin_and_release(&ranges));
        }),
    ));

    // The same eps=1 batches against the all-hit pool and the 32-page pool:
    // the share of the latter's time that is the miss path.
    let params = SearchParams::epsilon(ORACLE_K, 1.0);
    let batches = (inputs.pool() / OOC_BATCH).clamp(1, 2 * iters);
    let (all_hit, pooled) = (Index::new(all_hit), Index::new(pooled));
    let run_batches = |index: &Index| {
        for b in 0..batches {
            let batch: Vec<&[f32]> = (0..OOC_BATCH)
                .map(|i| inputs.query((b * OOC_BATCH + i) % inputs.pool()))
                .collect();
            black_box(index.search_batch(&batch, &params));
        }
    };
    run_batches(&all_hit);
    let (_, hit_s) = timed(|| run_batches(&all_hit));
    let (_, pooled_s) = timed(|| run_batches(&pooled));
    values.push(("storage.miss_path_share", 1.0 - hit_s / pooled_s));
    drop((all_hit, pooled));

    let mut appended = AppendStore::new();
    let appends = data.len().min(1024);
    values.push((
        "storage.append_us",
        us(time_per_call(1, 1, || {
            for i in 0..appends {
                black_box(appended.append(data.series(i)));
            }
        })) / appends as f64,
    ));

    // Journal + streaming insert on top of a base snapshot, then restart.
    let chunks = 2 * iters;
    let base = sut::prefix(data, data.len() - chunks * INGEST_CHUNK);
    let base_snapshot = sut::index_snapshot(&dir, "base");
    sut::save_index(
        &sut::build_dstree(&base, sut::resident(), seed),
        &base_snapshot,
    );
    let registry = sut::registry(sut::resident(), seed);
    let (mut live, base_load_s) = timed(|| sut::load(&registry, &base_snapshot, &base));
    let mut journal = Journal::create(&base_snapshot);
    let (mut append_us, mut insert_us) = (Vec::new(), Vec::new());
    for c in 0..chunks {
        let first = base.len() + c * INGEST_CHUNK;
        let chunk: Vec<&[f32]> = (first..first + INGEST_CHUNK)
            .map(|i| data.series(i))
            .collect();
        let (_, append_s) = timed(|| journal.append_batch(&chunk).expect("journal append"));
        let (_, insert_s) = timed(|| live.insert_batch(&chunk).expect("insert"));
        append_us.push(append_s * 1e6);
        insert_us.push(insert_s * 1e6 / INGEST_CHUNK as f64);
    }
    drop((live, journal));
    let (_, journaled_load_s) = timed(|| sut::load_journaled(&registry, &base_snapshot, &base));
    values.extend([
        ("persist.journal_append_us", median(&append_us)),
        ("dstree.insert_us_per_series", median(&insert_us)),
        // Base + journal load minus the same base alone: the replay.
        (
            "persist.journal_replay_s",
            (journaled_load_s - base_load_s).max(0.0),
        ),
    ]);
    (read_hit_us, read_miss_us)
}

fn shard(inputs: &Inputs, data: &Dataset, iters: usize, values: &mut Values) {
    let sharded = Sharded::build(data, inputs.seed);
    let params = SearchParams::exact(ORACLE_K);
    let queries = inputs.pool().min(4 * iters);
    let (mut whole_us, mut self_us) = (Vec::new(), Vec::new());
    for qi in 0..queries {
        let query = inputs.query(qi);
        let (_, whole_s) = timed(|| black_box(sharded.search(query, &params).ok()));
        // The fan-out runs the shards side by side, so the slower one is on
        // the critical path; the merge follows it.
        let mut slowest_s = 0.0f64;
        let mut answers: Vec<Vec<Neighbor>> = Vec::new();
        for s in 0..sharded.num_shards() {
            let (result, shard_s) = timed(|| sharded.shard_search(s, query, &params));
            slowest_s = slowest_s.max(shard_s);
            answers.push(result.map(|r| r.neighbors).unwrap_or_default());
        }
        let (_, merge_s) = timed(|| black_box(kernels::merge_top_k(ORACLE_K, &answers)));
        whole_us.push(whole_s * 1e6);
        self_us.push((whole_s - slowest_s - merge_s) * 1e6);
    }
    values.extend([
        ("shard.search_exact_us", median(&whole_us)),
        ("shard.self_us", median(&self_us)),
    ]);
}

/// Wire codec, a no-op index behind a real server, and the cost of the
/// instrumentation primitives. Returns the no-op round trip in us.
fn serve_and_obs(inputs: &Inputs, iters: usize, values: &mut Values) -> f64 {
    let reps = 5;
    let calls = 2000 * iters;
    let params = SearchParams::ng(10, 1);
    let request = sut::wire::query_request(7, sut::DSTREE_SERVED, &params, inputs.query(0));
    let request_frame = sut::wire::encode_request(&request);
    let request_payload = sut::wire::request_payload(&request_frame);
    let response = sut::wire::answer_response(7, inputs.truth(0, params.k).to_vec());
    let response_frame = sut::wire::encode_response(&response);
    let response_payload = sut::wire::response_payload(&response_frame);
    values.extend([
        (
            "serve.request_encode_ns",
            ns(time_per_call(reps, calls, || {
                black_box(sut::wire::encode_request(black_box(&request)));
            })),
        ),
        (
            "serve.request_decode_ns",
            ns(time_per_call(reps, calls, || {
                black_box(sut::wire::decode_request(black_box(&request_payload)));
            })),
        ),
        (
            "serve.response_encode_ns",
            ns(time_per_call(reps, calls, || {
                black_box(sut::wire::encode_response(black_box(&response)));
            })),
        ),
        (
            "serve.response_decode_ns",
            ns(time_per_call(reps, calls, || {
                black_box(sut::wire::decode_response(black_box(&response_payload)));
            })),
        ),
    ]);

    // One request in flight against an index that does nothing: every
    // microsecond is serving overhead (the batch window above all).
    let server = sut::serve_noop();
    let mut client = Client::connect(server.local_addr(), "noop");
    let noop_rtt_us = median_us(40 * iters, |_| {
        client
            .send(inputs.query(0), &params)
            .expect("no-op request");
        black_box(client.recv().expect("no-op answer").1.ok());
    });
    drop(client);
    sut::stop_server(server);
    values.push(("serve.noop_query_rtt_us", noop_rtt_us));

    let registry = sut::obs_probe::MetricsRegistry::new();
    let counter = registry.counter("benchmark_probe_total", &[]);
    let histogram = registry.histogram("benchmark_probe_micros", &[]);
    let mut v = 1u64;
    values.extend([
        (
            "obs.counter_inc_ns",
            ns(time_per_call(reps, 100 * calls, || {
                black_box(&counter).inc()
            })),
        ),
        (
            "obs.histogram_observe_ns",
            ns(time_per_call(reps, 100 * calls, || {
                v = v
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                black_box(&histogram).observe(v >> 44);
            })),
        ),
    ]);
    noop_rtt_us
}
