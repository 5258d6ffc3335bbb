//! Workload execution and measurement.
//!
//! # Measurement protocol
//!
//! The paper's experimental unit is *one workload, one method, one
//! parameter setting*. This module runs that unit two ways and produces the
//! same [`WorkloadReport`] for both:
//!
//! * [`run_workload`] — the paper-faithful protocol: queries are answered
//!   one at a time through [`AnnIndex::search`], each timed individually.
//!   All of the paper's figures are defined over this protocol.
//! * [`run_workload_parallel`] — the serving-mode protocol: the workload is
//!   sharded into contiguous batches, one per worker thread, and each shard
//!   is answered through [`AnnIndex::search_batch`] inside a
//!   [`std::thread::scope`]. Shards are merged back in workload order, so
//!   accuracy and cost counters are **deterministic and identical** to the
//!   sequential runner (the `search_batch` contract forbids batching from
//!   changing answers or per-query stats); only the wall-clock fields
//!   differ. One caveat: for disk-resident indexes, the I/O-*operation*
//!   counters (`random_ios`/`sequential_ios` — both their split *and*
//!   their sum, since a buffer-pool hit charges no operation at all) can
//!   drift with access interleaving, because the simulated pool is shared,
//!   order-sensitive state — exactly as on a real machine. `bytes_read`
//!   and every CPU-side counter stay exact.
//!
//! ## Snapshots and the indexing-cost split
//!
//! Both runners are oblivious to *how* the index came to exist: a freshly
//! built index and one restored via `hydra_persist::PersistentIndex::load`
//! are contractually indistinguishable (same answers, same CPU counters),
//! so the combined index+query figures can charge either a build or a
//! (much cheaper) snapshot load as the indexing-cost term. The figure
//! harness does exactly that for `--load-index` runs.
//!
//! ## Per-query timing under parallelism
//!
//! A batched call yields one wall-clock measurement per shard, not per
//! query, so the parallel runner attributes to every query of a shard the
//! shard's *amortized mean* (`shard_time / shard_len`). This keeps
//! `per_query_seconds` meaningful as input to the extrapolation below while
//! being honest about what was actually measured; per-query variance within
//! a shard is deliberately not invented.
//!
//! ## The 10 000-query extrapolation rule
//!
//! The paper reports large-workload costs by extrapolation rather than by
//! answering 10 000 queries against every method × dataset × setting cell:
//! sort the observed per-query times, drop the 5 best and the 5 worst, and
//! multiply the mean of the remainder by 10 000 ([`extrapolate_seconds`]).
//!
//! ## Why trimmed means
//!
//! The first queries of a run pay one-off costs (cold buffer pool, cold CPU
//! caches, page-in of the approximation file), and a stray slow query —
//! an OS scheduling hiccup, or a genuinely adversarial query — can be an
//! order of magnitude above the median. With only ~100 queries per
//! workload, a plain mean would let a single outlier move the extrapolated
//! figure by more than the differences between methods the figures are
//! meant to show; trimming both tails makes the estimate robust without
//! biasing it toward either the easy or the hard queries.
//!
//! ## Latency percentiles (p50 / p95 / p99)
//!
//! Serving a live workload cares about tails, which both the trimmed mean
//! and the extrapolation above deliberately ignore. Every report therefore
//! also carries the 50th, 95th and 99th percentile of `per_query_seconds`
//! ([`WorkloadReport::latency`]), computed with the **nearest-rank**
//! definition ([`percentile_seconds`]): the p-th percentile of `n` sorted
//! observations is the value at rank `ceil(p/100 · n)`. Nearest-rank always
//! returns an observed value (no interpolation can invent a latency nobody
//! measured) and is exact for the small workloads here. The same caveat as
//! above applies under the parallel runner: its per-query times are
//! per-shard amortized means, so its percentiles describe shard-level, not
//! query-level, tails — serving-side tails are measured where they are
//! real, at the client (`serve_client` reports these same three
//! percentiles over wire-level latencies).

use std::time::{Duration, Instant};

use hydra_core::{AnnIndex, Neighbor, QueryStats, SearchParams};
use hydra_data::{GroundTruth, QueryWorkload};
use hydra_obs::{QueryTrace, Stage, StageIo};

use crate::metrics::{average_precision, mean_relative_error, recall, AccuracySummary};

/// Everything measured while answering one workload with one method under
/// one parameter setting — the unit from which every figure of the paper is
/// assembled.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Method name.
    pub method: String,
    /// Search parameters used.
    pub params: SearchParams,
    /// Accuracy over the workload.
    pub accuracy: AccuracySummary,
    /// Total wall-clock time for the whole workload, in seconds.
    pub total_seconds: f64,
    /// Throughput in queries per minute.
    pub queries_per_minute: f64,
    /// Estimated total seconds for a 10 000-query workload, using the
    /// paper's extrapolation protocol (drop the 5 best and 5 worst queries,
    /// multiply the mean of the rest by 10 000).
    pub extrapolated_10k_seconds: f64,
    /// Cost counters summed over the workload.
    pub stats: QueryStats,
    /// Per-query wall-clock times in seconds. Under the parallel runner
    /// these are per-shard amortized means (see the module docs).
    pub per_query_seconds: Vec<f64>,
    /// p50/p95/p99 of [`Self::per_query_seconds`] (nearest-rank; see the
    /// module docs for the definition and its serving-mode caveat).
    pub latency: LatencyPercentiles,
    /// Number of queries answered.
    pub num_queries: usize,
    /// Number of worker threads actually spawned (1 for the sequential
    /// runner; can be below the requested count when ceiling-division
    /// sharding merges the tail, e.g. 9 queries at 8 requested threads run
    /// as 5 shards of 2).
    pub threads: usize,
    /// Stage-span breakdown of the whole workload: the sequential runner
    /// attributes each query's time (and the workload's summed I/O) to
    /// the search stage; the parallel runner additionally records the
    /// fan-out stage (wall-clock of the threaded section, waiting on the
    /// slowest shard). Fig binaries render this as the `--trace-out`
    /// stage-breakdown CSV.
    pub trace: QueryTrace,
}

impl WorkloadReport {
    /// Fraction of the raw dataset accessed (bytes read / total payload).
    pub fn fraction_data_accessed(&self, total_bytes: u64) -> f64 {
        self.stats.fraction_data_accessed(total_bytes) / self.num_queries.max(1) as f64
    }

    /// Average random I/Os per query.
    pub fn random_ios_per_query(&self) -> f64 {
        self.stats.random_ios as f64 / self.num_queries.max(1) as f64
    }
}

/// The latency tail of one workload run: 50th, 95th and 99th percentile of
/// the per-query times, nearest-rank definition (module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyPercentiles {
    /// Median per-query seconds.
    pub p50_seconds: f64,
    /// 95th-percentile per-query seconds.
    pub p95_seconds: f64,
    /// 99th-percentile per-query seconds.
    pub p99_seconds: f64,
}

impl LatencyPercentiles {
    /// Computes the three percentiles of `per_query_seconds` (0.0 across
    /// the board for an empty slice), sorting the observations once.
    pub fn from_times(per_query_seconds: &[f64]) -> Self {
        if per_query_seconds.is_empty() {
            return Self::default();
        }
        let mut sorted = per_query_seconds.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Self {
            p50_seconds: sorted[nearest_rank(sorted.len(), 50.0) - 1],
            p95_seconds: sorted[nearest_rank(sorted.len(), 95.0) - 1],
            p99_seconds: sorted[nearest_rank(sorted.len(), 99.0) - 1],
        }
    }
}

/// The 1-based nearest rank of the p-th percentile among `n` observations:
/// `ceil(p/100 · n)`, clamped into `1..=n`.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile: the value at rank `ceil(p/100 · n)` of the
/// sorted observations (`0 < p ≤ 100`), i.e. the smallest observation that
/// at least `p` percent of the sample does not exceed. Returns 0.0 for an
/// empty slice.
///
/// # Panics
/// Panics if `p` is not in `(0, 100]` — asking for the 0th or the 150th
/// percentile is a caller bug, not a data property.
pub fn percentile_seconds(per_query_seconds: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100], got {p}");
    if per_query_seconds.is_empty() {
        return 0.0;
    }
    let mut sorted = per_query_seconds.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Extrapolates a large-workload runtime from per-query times, following the
/// paper: discard the 5 best and 5 worst queries (when there are enough) and
/// multiply the average of the remainder by `target` queries.
pub fn extrapolate_seconds(per_query_seconds: &[f64], target: usize) -> f64 {
    if per_query_seconds.is_empty() {
        return 0.0;
    }
    let mut sorted = per_query_seconds.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let trimmed: &[f64] = if sorted.len() > 10 {
        &sorted[5..sorted.len() - 5]
    } else {
        &sorted
    };
    let mean = trimmed.iter().sum::<f64>() / trimmed.len() as f64;
    mean * target as f64
}

/// Runs `workload` against `index` with the given parameters and measures
/// accuracy against `ground_truth`.
///
/// Queries the index one at a time (the paper runs queries asynchronously,
/// not in batch mode) and accumulates wall-clock time and cost counters.
pub fn run_workload(
    index: &dyn AnnIndex,
    workload: &QueryWorkload,
    ground_truth: &GroundTruth,
    params: &SearchParams,
) -> WorkloadReport {
    let mut per_query = Vec::with_capacity(workload.len());
    let mut per_query_seconds = Vec::with_capacity(workload.len());
    let mut stats = QueryStats::new();
    let started = Instant::now();
    let mut trace = QueryTrace::new();
    for (q, query) in workload.iter().enumerate() {
        let t0 = Instant::now();
        // A failed query (unsupported mode mid-sweep) counts as an empty
        // answer instead of aborting a whole experiment.
        let result = index.search(query, params).unwrap_or_default();
        let elapsed = t0.elapsed();
        trace.record(Stage::ShardSearch, elapsed);
        per_query_seconds.push(elapsed.as_secs_f64());
        stats.merge(&result.stats);
        per_query.push(accuracy_of(&result.neighbors, &ground_truth.answers[q]));
    }
    let total_seconds = started.elapsed().as_secs_f64();
    finish(index, params, &per_query, per_query_seconds, stats, total_seconds, 1, trace)
}

/// One query's (recall, average precision, mean relative error) against
/// its exact answer — a row of [`AccuracySummary::from_queries`].
fn accuracy_of(neighbors: &[Neighbor], truth: &[Neighbor]) -> (f64, f64, f64) {
    (
        recall(neighbors, truth),
        average_precision(neighbors, truth),
        mean_relative_error(neighbors, truth),
    )
}

/// Assembles the report both runners return from what each measured its
/// own way: per-query accuracy rows and times in workload order, the
/// summed counters, the wall-clock of the whole run, the threads that ran
/// and a trace holding the time spans (the summed I/O is attributed to
/// the search stage here).
#[allow(clippy::too_many_arguments)] // private; each argument is one measured thing
fn finish(
    index: &dyn AnnIndex,
    params: &SearchParams,
    per_query: &[(f64, f64, f64)],
    per_query_seconds: Vec<f64>,
    stats: QueryStats,
    total_seconds: f64,
    threads: usize,
    mut trace: QueryTrace,
) -> WorkloadReport {
    let num_queries = per_query_seconds.len();
    trace.record_io(
        Stage::ShardSearch,
        StageIo {
            bytes_read: stats.bytes_read,
            random_ios: stats.random_ios,
            sequential_ios: stats.sequential_ios,
        },
    );
    let queries_per_minute = if total_seconds > 0.0 {
        num_queries as f64 / total_seconds * 60.0
    } else {
        f64::INFINITY
    };
    WorkloadReport {
        method: index.name().to_string(),
        params: *params,
        accuracy: AccuracySummary::from_queries(per_query),
        total_seconds,
        queries_per_minute,
        extrapolated_10k_seconds: extrapolate_seconds(&per_query_seconds, 10_000),
        stats,
        latency: LatencyPercentiles::from_times(&per_query_seconds),
        per_query_seconds,
        num_queries,
        threads,
        trace,
    }
}

/// Runs `workload` against `index` with `num_threads` worker threads,
/// measuring accuracy against `ground_truth`.
///
/// The workload is split into `num_threads` contiguous shards; each worker
/// answers its shard with one [`AnnIndex::search_batch`] call (letting the
/// index amortize per-query setup across the shard) and the per-shard
/// results are merged back in workload order. Accuracy and summed
/// [`QueryStats`] are identical to [`run_workload`] for any thread count —
/// see the module docs for the exact determinism contract and the timing
/// semantics of `per_query_seconds`.
pub fn run_workload_parallel(
    index: &dyn AnnIndex,
    workload: &QueryWorkload,
    ground_truth: &GroundTruth,
    params: &SearchParams,
    num_threads: usize,
) -> WorkloadReport {
    let queries: Vec<&[f32]> = workload.iter().collect();
    let n = queries.len();
    let num_threads = num_threads.max(1).min(n.max(1));
    let chunk = n.div_ceil(num_threads).max(1);
    // Ceiling division can merge the tail: 9 queries at 8 requested threads
    // yield ceil(9/2) = 5 shards. Report what actually ran.
    let spawned = if n == 0 { 1 } else { n.div_ceil(chunk) };

    let mut per_query = vec![(0.0f64, 0.0f64, 0.0f64); n];
    let mut per_query_seconds = vec![0.0f64; n];
    let mut per_query_stats = vec![QueryStats::new(); n];
    let started = Instant::now();
    if n > 0 {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (t, shard) in queries.chunks(chunk).enumerate() {
                let shard_range = (t * chunk, t * chunk + shard.len());
                let handle = scope.spawn(move || {
                    let t0 = Instant::now();
                    let results = index.search_batch(shard, params);
                    let amortized = t0.elapsed().as_secs_f64() / shard.len() as f64;
                    let offset = t * chunk;
                    let mut rows = Vec::with_capacity(shard.len());
                    for (i, res) in results.into_iter().enumerate() {
                        let result = res.unwrap_or_default();
                        let truth = &ground_truth.answers[offset + i];
                        rows.push((accuracy_of(&result.neighbors, truth), result.stats));
                    }
                    (t, amortized, rows)
                });
                handles.push((shard_range, handle));
            }
            for ((start, end), handle) in handles {
                // A panicking worker must name its shard: a poisoned run
                // over thousands of queries is undiagnosable from a bare
                // "workload worker panicked".
                let (t, amortized, rows) = handle.join().unwrap_or_else(|payload| {
                    panic!(
                        "workload shard {} (queries {start}..{end}) panicked: {}",
                        start / chunk,
                        panic_message(&payload)
                    )
                });
                for (i, (accuracy, qstats)) in rows.into_iter().enumerate() {
                    let g = t * chunk + i;
                    per_query[g] = accuracy;
                    per_query_seconds[g] = amortized;
                    per_query_stats[g] = qstats;
                }
            }
        });
    }
    let fan_out_wall = started.elapsed();
    let total_seconds = fan_out_wall.as_secs_f64();
    let mut stats = QueryStats::new();
    for s in &per_query_stats {
        stats.merge(s);
    }
    // Per-query search time is the shard-amortized mean (module docs);
    // the fan-out span is the wall-clock of the whole threaded section,
    // i.e. the wait on the slowest shard.
    let mut trace = QueryTrace::new();
    for &s in &per_query_seconds {
        trace.record(Stage::ShardSearch, Duration::from_secs_f64(s));
    }
    if n > 0 {
        trace.record(Stage::FanOut, fan_out_wall);
    }
    finish(index, params, &per_query, per_query_seconds, stats, total_seconds, spawned, trace)
}

/// Renders a worker's panic payload: `panic!` with a message produces a
/// `String` or `&str` payload; anything else (a custom `panic_any`) is
/// reported by its opaqueness rather than dropped.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "(non-string panic payload)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::{Capabilities, Dataset, Representation, Result, SearchResult};
    use hydra_data::{ground_truth, noisy_queries, random_walk};

    /// A trivially exact "index": brute force scan. Lets the runner be
    /// tested independently of any real index crate.
    struct BruteForce {
        data: Dataset,
    }

    impl AnnIndex for BruteForce {
        fn name(&self) -> &'static str {
            "brute-force"
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
            self.data.len()
        }
        fn series_len(&self) -> usize {
            self.data.series_len()
        }
        fn memory_footprint(&self) -> usize {
            self.data.payload_bytes()
        }
        fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult> {
            let neighbors = hydra_data::exact_knn(&self.data, query, params.k);
            let mut stats = QueryStats::new();
            stats.distance_computations = self.data.len() as u64;
            Ok(SearchResult::new(neighbors, stats))
        }
        /// Shares the scoped-thread brute-force scan with the ground-truth
        /// path; stats are attributed per query exactly as in `search`.
        fn search_batch(
            &self,
            queries: &[&[f32]],
            params: &SearchParams,
        ) -> Vec<Result<SearchResult>> {
            hydra_data::exact_knn_batch(&self.data, queries, params.k)
                .into_iter()
                .map(|neighbors| {
                    let mut stats = QueryStats::new();
                    stats.distance_computations = self.data.len() as u64;
                    Ok(SearchResult::new(neighbors, stats))
                })
                .collect()
        }
    }

    #[test]
    fn exact_method_scores_perfect_accuracy() {
        let data = random_walk(200, 32, 1);
        let workload = noisy_queries(&data, 12, &[0.1], 2);
        let gt = ground_truth(&data, &workload, 5);
        let index = BruteForce { data };
        let report = run_workload(&index, &workload, &gt, &SearchParams::exact(5));
        assert_eq!(report.num_queries, 12);
        assert!((report.accuracy.avg_recall - 1.0).abs() < 1e-12);
        assert!((report.accuracy.map - 1.0).abs() < 1e-12);
        assert!(report.accuracy.mre.abs() < 1e-12);
        assert!(report.total_seconds > 0.0);
        assert!(report.queries_per_minute > 0.0);
        assert!(report.extrapolated_10k_seconds > 0.0);
        assert_eq!(report.per_query_seconds.len(), 12);
        assert_eq!(report.stats.distance_computations, 12 * 200);
        assert_eq!(report.method, "brute-force");
        assert!(report.random_ios_per_query() >= 0.0);
        assert!(report.fraction_data_accessed(1) >= 0.0);
    }

    #[test]
    fn parallel_runner_is_deterministic_across_thread_counts() {
        let data = random_walk(300, 32, 7);
        let workload = noisy_queries(&data, 13, &[0.0, 0.2], 8);
        let gt = ground_truth(&data, &workload, 5);
        let index = BruteForce { data };
        let params = SearchParams::exact(5);
        let sequential = run_workload(&index, &workload, &gt, &params);
        for threads in [1usize, 2, 4] {
            let parallel = run_workload_parallel(&index, &workload, &gt, &params, threads);
            assert_eq!(parallel.num_queries, sequential.num_queries);
            assert_eq!(parallel.threads, threads.min(13));
            assert_eq!(
                parallel.accuracy, sequential.accuracy,
                "{threads}-thread accuracy must match the sequential runner"
            );
            assert_eq!(
                parallel.stats, sequential.stats,
                "{threads}-thread summed stats must match the sequential runner"
            );
            assert_eq!(parallel.per_query_seconds.len(), 13);
            assert!(parallel.total_seconds > 0.0);
            assert!(parallel.extrapolated_10k_seconds > 0.0);
            assert_eq!(parallel.method, "brute-force");
        }
    }

    #[test]
    fn parallel_runner_handles_degenerate_workloads() {
        let data = random_walk(50, 16, 9);
        let workload = noisy_queries(&data, 2, &[0.1], 10);
        let gt = ground_truth(&data, &workload, 3);
        let index = BruteForce { data };
        // More threads than queries: clamped, still correct.
        let report = run_workload_parallel(&index, &workload, &gt, &SearchParams::exact(3), 16);
        assert_eq!(report.threads, 2);
        assert_eq!(report.num_queries, 2);
        assert!((report.accuracy.avg_recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reported_threads_is_the_spawned_shard_count() {
        // 9 queries at 8 requested threads: chunk = ceil(9/8) = 2, so only
        // ceil(9/2) = 5 shards actually run — the report must say 5.
        let data = random_walk(60, 16, 11);
        let workload = noisy_queries(&data, 9, &[0.1], 12);
        let gt = ground_truth(&data, &workload, 3);
        let index = BruteForce { data };
        let report = run_workload_parallel(&index, &workload, &gt, &SearchParams::exact(3), 8);
        assert_eq!(report.threads, 5);
        assert_eq!(report.num_queries, 9);
    }

    /// An index whose batch entry point panics when a shard contains the
    /// poison query (first value negative) — for testing worker-panic
    /// propagation.
    struct Poisoned;

    impl AnnIndex for Poisoned {
        fn name(&self) -> &'static str {
            "poisoned"
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
            1
        }
        fn series_len(&self) -> usize {
            2
        }
        fn memory_footprint(&self) -> usize {
            0
        }
        fn search(&self, query: &[f32], _params: &SearchParams) -> Result<SearchResult> {
            assert!(query[0] >= 0.0, "poison query reached the worker");
            Ok(SearchResult::default())
        }
    }

    #[test]
    #[should_panic(expected = "workload shard 1 (queries 2..4) panicked")]
    fn panicking_worker_names_its_shard() {
        // 4 queries on 2 threads: shard 0 answers queries 0..2, shard 1
        // queries 2..4. The poison query sits at index 3, so the panic
        // message must name shard 1 and its query range.
        let queries = Dataset::from_series(
            2,
            &[[0.0f32, 0.0], [1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]],
        )
        .unwrap();
        let workload = hydra_data::QueryWorkload {
            noise_levels: vec![0.0; queries.len()],
            queries,
        };
        let gt = GroundTruth {
            k: 1,
            answers: vec![Vec::new(); 4],
        };
        run_workload_parallel(&Poisoned, &workload, &gt, &SearchParams::exact(1), 2);
    }

    #[test]
    fn percentiles_pin_the_nearest_rank_definition() {
        // 10 observations 1..=10: p50 = ceil(5) -> 5th smallest = 5,
        // p95 = ceil(9.5) -> 10th = 10, p99 -> 10, p100 -> 10, p10 -> 1.
        let t: Vec<f64> = (1..=10).map(|v| v as f64).collect();
        assert_eq!(percentile_seconds(&t, 50.0), 5.0);
        assert_eq!(percentile_seconds(&t, 95.0), 10.0);
        assert_eq!(percentile_seconds(&t, 99.0), 10.0);
        assert_eq!(percentile_seconds(&t, 100.0), 10.0);
        assert_eq!(percentile_seconds(&t, 10.0), 1.0);
        // Order of the input must not matter.
        let shuffled = [7.0, 1.0, 10.0, 4.0, 2.0, 9.0, 5.0, 3.0, 8.0, 6.0];
        assert_eq!(percentile_seconds(&shuffled, 50.0), 5.0);
        // A single observation is every percentile.
        assert_eq!(percentile_seconds(&[0.25], 50.0), 0.25);
        assert_eq!(percentile_seconds(&[0.25], 99.0), 0.25);
        // 100 observations 1..=100: p99 = 99th smallest.
        let t: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile_seconds(&t, 99.0), 99.0);
        assert_eq!(percentile_seconds(&t, 95.0), 95.0);
        // Empty input degrades to zero rather than panicking.
        assert_eq!(percentile_seconds(&[], 50.0), 0.0);
        let l = LatencyPercentiles::from_times(&[3.0, 1.0, 2.0]);
        assert_eq!(l.p50_seconds, 2.0);
        assert_eq!(l.p95_seconds, 3.0);
        assert_eq!(l.p99_seconds, 3.0);
        assert_eq!(LatencyPercentiles::from_times(&[]), LatencyPercentiles::default());
    }

    #[test]
    #[should_panic(expected = "percentile must be in (0, 100]")]
    fn zeroth_percentile_is_a_caller_bug() {
        percentile_seconds(&[1.0], 0.0);
    }

    #[test]
    fn reports_carry_consistent_latency_percentiles() {
        let data = random_walk(120, 16, 3);
        let workload = noisy_queries(&data, 11, &[0.1], 4);
        let gt = ground_truth(&data, &workload, 3);
        let index = BruteForce { data };
        for report in [
            run_workload(&index, &workload, &gt, &SearchParams::exact(3)),
            run_workload_parallel(&index, &workload, &gt, &SearchParams::exact(3), 3),
        ] {
            assert_eq!(
                report.latency,
                LatencyPercentiles::from_times(&report.per_query_seconds)
            );
            assert!(report.latency.p50_seconds > 0.0);
            assert!(report.latency.p50_seconds <= report.latency.p95_seconds);
            assert!(report.latency.p95_seconds <= report.latency.p99_seconds);
        }
    }

    #[test]
    fn reports_carry_stage_traces() {
        let data = random_walk(150, 16, 21);
        let workload = noisy_queries(&data, 8, &[0.1], 22);
        let gt = ground_truth(&data, &workload, 3);
        let index = BruteForce { data };
        let params = SearchParams::exact(3);

        let seq = run_workload(&index, &workload, &gt, &params);
        let search = seq.trace.span(Stage::ShardSearch);
        assert_eq!(search.calls, 8, "one search span per query");
        assert!(search.nanos > 0);
        assert_eq!(seq.trace.span(Stage::FanOut).calls, 0, "sequential runner never fans out");
        assert_eq!(search.io.bytes_read, seq.stats.bytes_read);

        let par = run_workload_parallel(&index, &workload, &gt, &params, 4);
        assert_eq!(par.trace.span(Stage::ShardSearch).calls, 8);
        assert_eq!(par.trace.span(Stage::FanOut).calls, 1, "one fan-out per threaded section");
        assert!(par.trace.span(Stage::FanOut).nanos > 0);
    }

    #[test]
    fn extrapolation_trims_outliers() {
        // 20 queries at 1ms with two outliers; trimmed mean ignores them.
        let mut times = vec![0.001f64; 18];
        times.push(10.0);
        times.push(0.000001);
        let est = extrapolate_seconds(&times, 10_000);
        assert!((est - 10.0).abs() < 1.0, "outliers must be trimmed: {est}");
        // Short workloads are used as-is.
        let est_small = extrapolate_seconds(&[0.002, 0.004], 100);
        assert!((est_small - 0.3).abs() < 1e-9);
        assert_eq!(extrapolate_seconds(&[], 100), 0.0);
    }
}
