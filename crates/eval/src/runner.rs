//! Workload execution and measurement.
//!
//! # Measurement protocol
//!
//! The paper's experimental unit is *one workload, one method, one
//! parameter setting*. [`run_workload`] runs that unit the paper's way:
//! queries are answered one at a time through [`AnnIndex::search`], each
//! timed individually, and the run yields one [`WorkloadReport`]. All of
//! the paper's figures are defined over this protocol.
//!
//! ## Snapshots and the indexing-cost split
//!
//! The runner is oblivious to *how* the index came to exist: a freshly
//! built index and one restored via `hydra_persist::PersistentIndex::load`
//! are contractually indistinguishable (same answers, same CPU counters),
//! so the combined index+query figures can charge either a build or a
//! (much cheaper) snapshot load as the indexing-cost term. The figure
//! harness does exactly that for `--load-index` runs.
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
//! definition ([`LatencyPercentiles::from_times`]): the p-th percentile of
//! `n` sorted observations is the value at rank `ceil(p/100 · n)`.
//! Nearest-rank always returns an observed value (no interpolation can
//! invent a latency nobody measured) and is exact for the small workloads
//! here. Serving-side tails are measured at the client (`serve_client`
//! reports these same three percentiles over wire-level latencies).

use std::time::Instant;

use hydra_core::{AnnIndex, QueryStats, SearchParams};
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
    /// Per-query wall-clock times in seconds.
    pub per_query_seconds: Vec<f64>,
    /// p50/p95/p99 of [`Self::per_query_seconds`] (nearest-rank; see the
    /// module docs).
    pub latency: LatencyPercentiles,
    /// Number of queries answered.
    pub num_queries: usize,
    /// Stage-span breakdown of the whole workload: each query's time (and
    /// the workload's summed I/O) is attributed to the search stage. Fig
    /// binaries render this as the `--trace-out` stage-breakdown CSV.
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
        let truth = &ground_truth.answers[q];
        per_query.push((
            recall(&result.neighbors, truth),
            average_precision(&result.neighbors, truth),
            mean_relative_error(&result.neighbors, truth),
        ));
    }
    let total_seconds = started.elapsed().as_secs_f64();
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
        accuracy: AccuracySummary::from_queries(&per_query),
        total_seconds,
        queries_per_minute,
        extrapolated_10k_seconds: extrapolate_seconds(&per_query_seconds, 10_000),
        stats,
        latency: LatencyPercentiles::from_times(&per_query_seconds),
        per_query_seconds,
        num_queries,
        trace,
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
    fn percentiles_pin_the_nearest_rank_definition() {
        // 10 observations 1..=10: p50 = ceil(5) -> 5th smallest = 5,
        // p95 = ceil(9.5) -> 10th = 10, p99 -> 10.
        let ten = LatencyPercentiles { p50_seconds: 5.0, p95_seconds: 10.0, p99_seconds: 10.0 };
        let t: Vec<f64> = (1..=10).map(|v| v as f64).collect();
        assert_eq!(LatencyPercentiles::from_times(&t), ten);
        // Order of the input must not matter.
        let shuffled = [7.0, 1.0, 10.0, 4.0, 2.0, 9.0, 5.0, 3.0, 8.0, 6.0];
        assert_eq!(LatencyPercentiles::from_times(&shuffled), ten);
        // A single observation is every percentile.
        let one = LatencyPercentiles { p50_seconds: 0.25, p95_seconds: 0.25, p99_seconds: 0.25 };
        assert_eq!(LatencyPercentiles::from_times(&[0.25]), one);
        // 100 observations 1..=100: p95 = 95th smallest, p99 = 99th.
        let t: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let hundred = LatencyPercentiles { p50_seconds: 50.0, p95_seconds: 95.0, p99_seconds: 99.0 };
        assert_eq!(LatencyPercentiles::from_times(&t), hundred);
        // Empty input degrades to zero rather than panicking.
        assert_eq!(LatencyPercentiles::from_times(&[]), LatencyPercentiles::default());
    }

    #[test]
    fn reports_carry_consistent_latency_percentiles() {
        let data = random_walk(120, 16, 3);
        let workload = noisy_queries(&data, 11, &[0.1], 4);
        let gt = ground_truth(&data, &workload, 3);
        let index = BruteForce { data };
        let report = run_workload(&index, &workload, &gt, &SearchParams::exact(3));
        assert_eq!(report.latency, LatencyPercentiles::from_times(&report.per_query_seconds));
        assert!(report.latency.p50_seconds > 0.0);
        assert!(report.latency.p50_seconds <= report.latency.p95_seconds);
        assert!(report.latency.p95_seconds <= report.latency.p99_seconds);
    }

    #[test]
    fn reports_carry_stage_traces() {
        let data = random_walk(150, 16, 21);
        let workload = noisy_queries(&data, 8, &[0.1], 22);
        let gt = ground_truth(&data, &workload, 3);
        let index = BruteForce { data };
        let report = run_workload(&index, &workload, &gt, &SearchParams::exact(3));
        let search = report.trace.span(Stage::ShardSearch);
        assert_eq!(search.calls, 8, "one search span per query");
        assert!(search.nanos > 0);
        assert_eq!(search.io.bytes_read, report.stats.bytes_read);
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
