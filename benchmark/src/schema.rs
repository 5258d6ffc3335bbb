//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same lists; `tests/schema.rs` fails when the
//! two (or the names a run actually emits) drift apart.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json` and `results.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit, direction and — for end-to-end metrics —
/// the share of the parent's median it may worsen by before a change is a
/// regression.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name (`layer.metric` for per-layer metrics).
    pub name: &'static str,
    /// Unit, in the benchmark contract's alphabet.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// The five workloads and why each exists (one line; the README has the
/// long form).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "mem_exact",
        "iSAX2+ exact 100-NN on a resident store, one thread: compute-bound; kernels, lower bounds and traversal move it, storage and serving must not",
    ),
    (
        "ooc_eps",
        "DSTree eps=1 100-NN, file-backed behind a 32-page pool (data = 16x pool), batches of 8: storage-bound; the miss/copy/pin-prefetch path moves it",
    ),
    (
        "serve_ng",
        "DSTree ng nprobe=1 10-NN over hydra-serve, 2 connections x 8 in flight: protocol, batch window and thread hand-offs dominate; search is a small share",
    ),
    (
        "route_exact",
        "DSTree exact 100-NN through a router and two shard workers, 2 connections x 1 in flight: fan-out, worker links and merge, which no other workload touches",
    ),
    (
        "ingest_stream",
        "journal append + DSTree insert_batch in chunks of 16, then restart and re-answer: the write path, so a read-side gain that taxes inserts shows",
    ),
];

/// The six end-to-end metrics every workload reports (tracing off).
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("lat_p50_ms", "ms", Better::Lower, 0.25),
    e2e("lat_p99_ms", "ms", Better::Lower, 0.25),
    e2e("map", "ratio", Better::Higher, 0.25),
    e2e("peak_heap_mb", "MB", Better::Lower, 0.10),
];

/// The per-layer metrics every traced run reports (layer = crate).
pub const PER_LAYER: [MetricDef; 79] = [
    // core: kernels at length 256, merge, first-leaf prediction.
    lo("core.euclidean_ns_per_elem", "ns/elem"),
    lo("core.early_abandon_ns_per_elem", "ns/elem"),
    lo("core.early_abandon_u8_ns_per_elem", "ns/elem"),
    lo("core.early_abandon_f16_ns_per_elem", "ns/elem"),
    lo("core.merge_top_k_us", "us"),
    lo("core.predict_first_leaf_dstree_us", "us"),
    lo("core.predict_first_leaf_isax_us", "us"),
    // summarize: the query-side transforms.
    lo("summarize.paa_ns_per_elem", "ns/elem"),
    lo("summarize.sax_ns_per_elem", "ns/elem"),
    lo("summarize.dft_ns_per_elem", "ns/elem"),
    // index: work counts of the traced workload, per operation.
    lo("index.distance_computations_per_op", "count/op"),
    lo("index.lower_bound_computations_per_op", "count/op"),
    lo("index.leaves_visited_per_op", "count/op"),
    lo("index.series_scanned_ratio", "ratio"),
    lo("dstree.build_s", "s"),
    lo("isax.build_s", "s"),
    lo("vafile.build_s", "s"),
    lo("dstree.search_exact_us", "us"),
    lo("dstree.search_eps1_us", "us"),
    lo("dstree.search_ng1_us", "us"),
    lo("isax.search_exact_us", "us"),
    lo("isax.search_eps1_us", "us"),
    lo("isax.search_ng1_us", "us"),
    lo("vafile.search_exact_us", "us"),
    lo("vafile.search_eps1_us", "us"),
    lo("vafile.search_ng1_us", "us"),
    lo("dstree.insert_us_per_series", "us/series"),
    // storage: isolated reads, then the traced workload's pool economics.
    lo("storage.read_hit_us", "us"),
    lo("storage.read_miss_pread_f32_us", "us"),
    lo("storage.read_miss_mmap_f32_us", "us"),
    lo("storage.read_miss_pread_u8_us", "us"),
    lo("storage.read_miss_pread_f16_us", "us"),
    lo("storage.pin_working_set_us", "us"),
    hi("storage.pool_hit_ratio", "ratio"),
    lo("storage.pool_misses_per_op", "count/op"),
    lo("storage.evictions_per_op", "count/op"),
    lo("storage.bytes_read_per_op", "bytes/op"),
    lo("storage.random_ios_per_op", "count/op"),
    lo("storage.sequential_ios_per_op", "count/op"),
    lo("storage.miss_path_share", "ratio"),
    lo("storage.append_us", "us"),
    // persist
    lo("persist.save_dataset_s", "s"),
    lo("persist.save_index_s", "s"),
    lo("persist.load_resident_s", "s"),
    lo("persist.load_file_backed_s", "s"),
    lo("persist.journal_replay_s", "s"),
    lo("persist.journal_append_us", "us"),
    lo("persist.disk_bytes_per_data_byte", "ratio"),
    // shard
    lo("shard.search_exact_us", "us"),
    lo("shard.self_us", "us"),
    // serve: codec, a no-op index behind the server, then scrapes.
    lo("serve.request_encode_ns", "ns"),
    lo("serve.request_decode_ns", "ns"),
    lo("serve.response_encode_ns", "ns"),
    lo("serve.response_decode_ns", "ns"),
    lo("serve.noop_query_rtt_us", "us"),
    lo("serve.stage_enqueue_us", "us"),
    lo("serve.stage_shard_search_us", "us"),
    lo("serve.stage_write_us", "us"),
    hi("serve.batch_occupancy_mean", "count"),
    lo("serve.batch_calls_per_tick", "count"),
    hi("serve.ticks_per_s", "1/s"),
    lo("serve.rx_bytes_per_op", "bytes/op"),
    lo("serve.tx_bytes_per_op", "bytes/op"),
    lo("serve.router_worker_call_us", "us"),
    lo("serve.router_self_us", "us"),
    lo("serve.router_worker_errors", "count"),
    lo("serve.overhead_share", "ratio"),
    lo("serve.unattributed_us", "us"),
    // obs
    lo("obs.counter_inc_ns", "ns"),
    lo("obs.histogram_observe_ns", "ns"),
    lo("obs.scrape_ms", "ms"),
    hi("obs.tracing_overhead_ratio", "ratio"),
    // data / eval
    lo("data.generate_s", "s"),
    lo("eval.ground_truth_s", "s"),
    lo("eval.scan_us_per_query", "us"),
    // est: probe cost x per-operation count, as a share of operation time.
    lo("est.kernel_share", "ratio"),
    lo("est.storage_share", "ratio"),
    lo("est.serve_share", "ratio"),
    lo("est.unattributed_share", "ratio"),
];

/// The `why` of a workload name, or `None` for an unknown name.
pub fn workload_why(name: &str) -> Option<&'static str> {
    WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(
                name_ok(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&bound), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
