//! Implementation-independent query cost counters.
//!
//! The paper complements wall-clock measurements with two
//! implementation-independent measures: the number of random disk accesses
//! and the percentage of data accessed. [`QueryStats`] captures those,
//! together with CPU-side counters that explain where time goes (distance
//! computations, lower-bound computations, visited leaves/nodes).

/// Cost counters accumulated while answering one query (or a workload, when
/// merged with [`QueryStats::merge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Number of full (or early-abandoned) raw-data distance computations.
    pub distance_computations: u64,
    /// Number of lower-bound distance computations on summarizations: one
    /// per node bounded, and one per leaf member bounded from its own
    /// summary before its raw series is read (iSAX2+).
    pub lower_bound_computations: u64,
    /// Number of leaf nodes (or inverted lists / buckets) visited.
    pub leaves_visited: u64,
    /// Number of nodes popped from the search priority queue and not pruned
    /// — internal nodes and leaves alike, so never less than
    /// `leaves_visited`.
    pub nodes_visited: u64,
    /// Number of raw series fetched from storage and compared to the query.
    pub series_scanned: u64,
    /// Bytes of raw data read from the (simulated) storage layer.
    pub bytes_read: u64,
    /// Number of random I/O operations charged by the storage layer.
    pub random_ios: u64,
    /// Number of sequential I/O operations charged by the storage layer.
    pub sequential_ios: u64,
    /// Whether the probabilistic (δ) stop condition fired for this query.
    pub delta_stop_triggered: bool,
}

impl QueryStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `other` into `self` (used to aggregate a workload).
    pub fn merge(&mut self, other: &QueryStats) {
        self.distance_computations += other.distance_computations;
        self.lower_bound_computations += other.lower_bound_computations;
        self.leaves_visited += other.leaves_visited;
        self.nodes_visited += other.nodes_visited;
        self.series_scanned += other.series_scanned;
        self.bytes_read += other.bytes_read;
        self.random_ios += other.random_ios;
        self.sequential_ios += other.sequential_ios;
        self.delta_stop_triggered |= other.delta_stop_triggered;
    }

    /// The numeric counters as stable `(name, value)` pairs, in
    /// declaration order. This is the single source of truth used both
    /// by the serve tier (summing per-query stats into scrapeable
    /// `hydra_query_stats_total{counter=...}` metrics) and by the
    /// reconciliation test that asserts those scraped sums equal the
    /// client-side sums — sharing the enumeration means a new counter
    /// field cannot silently fall out of the contract.
    pub fn counters(&self) -> [(&'static str, u64); 8] {
        [
            ("distance_computations", self.distance_computations),
            ("lower_bound_computations", self.lower_bound_computations),
            ("leaves_visited", self.leaves_visited),
            ("nodes_visited", self.nodes_visited),
            ("series_scanned", self.series_scanned),
            ("bytes_read", self.bytes_read),
            ("random_ios", self.random_ios),
            ("sequential_ios", self.sequential_ios),
        ]
    }

    /// Fraction of the dataset touched, given the total raw payload size in
    /// bytes. Returns a value in `[0, +∞)`; values above 1 indicate repeated
    /// access to the same data.
    pub fn fraction_data_accessed(&self, total_bytes: u64) -> f64 {
        if total_bytes == 0 {
            0.0
        } else {
            self.bytes_read as f64 / total_bytes as f64
        }
    }
}

/// Cumulative, process-lifetime counters of a series store (buffer pool
/// plus backing file), as reported live by disk-capable indexes through
/// [`crate::AnnIndex::store_counters`].
///
/// Unlike [`QueryStats`], which is scoped to one query, these are
/// monotone totals since the store was created — the shape an operator
/// scrapes as gauges/counters rather than per-answer deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Random (seek-then-read) I/O operations charged so far.
    pub random_ios: u64,
    /// Sequential I/O operations charged so far.
    pub sequential_ios: u64,
    /// Raw bytes served out of the store so far.
    pub bytes_read: u64,
    /// Buffer-pool page hits.
    pub pool_hits: u64,
    /// Buffer-pool page misses (faults that went to the backing file).
    pub pool_misses: u64,
    /// Buffer-pool page evictions.
    pub pool_evictions: u64,
    /// Bytes served from *compressed* pages (u8/f16 codecs), a subset of
    /// [`Self::bytes_read`]. Zero on raw-f32 stores; on a coded store the
    /// remainder `bytes_read - compressed_bytes_read` is the exact-f32
    /// refinement traffic, so this pair shows the compression win live.
    pub compressed_bytes_read: u64,
}

impl StoreCounters {
    /// Component-wise sum, used by sharded indexes to aggregate their
    /// shards' stores into one logical store view.
    pub fn merge(&mut self, other: &StoreCounters) {
        self.random_ios += other.random_ios;
        self.sequential_ios += other.sequential_ios;
        self.bytes_read += other.bytes_read;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.pool_evictions += other.pool_evictions;
        self.compressed_bytes_read += other.compressed_bytes_read;
    }

    /// The counters as stable `(name, value)` pairs, mirroring
    /// [`QueryStats::counters`] for the scrape path.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("random_ios", self.random_ios),
            ("sequential_ios", self.sequential_ios),
            ("bytes_read", self.bytes_read),
            ("pool_hits", self.pool_hits),
            ("pool_misses", self.pool_misses),
            ("pool_evictions", self.pool_evictions),
            ("compressed_bytes_read", self.compressed_bytes_read),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_enumeration_matches_fields() {
        let s = QueryStats {
            distance_computations: 1,
            lower_bound_computations: 2,
            leaves_visited: 3,
            nodes_visited: 4,
            series_scanned: 5,
            bytes_read: 6,
            random_ios: 7,
            sequential_ios: 8,
            delta_stop_triggered: true,
        };
        let pairs = s.counters();
        assert_eq!(pairs[0], ("distance_computations", 1));
        assert_eq!(pairs[7], ("sequential_ios", 8));
        let names: std::collections::BTreeSet<_> = pairs.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), pairs.len(), "counter names must be unique");
    }

    #[test]
    fn store_counters_merge_sums_component_wise() {
        let mut a = StoreCounters {
            random_ios: 1,
            sequential_ios: 2,
            bytes_read: 3,
            pool_hits: 4,
            pool_misses: 5,
            pool_evictions: 6,
            compressed_bytes_read: 7,
        };
        a.merge(&StoreCounters {
            random_ios: 10,
            sequential_ios: 20,
            bytes_read: 30,
            pool_hits: 40,
            pool_misses: 50,
            pool_evictions: 60,
            compressed_bytes_read: 70,
        });
        assert_eq!(a.bytes_read, 33);
        assert_eq!(a.pool_evictions, 66);
        assert_eq!(a.compressed_bytes_read, 77);
        assert_eq!(a.counters()[2], ("bytes_read", 33));
        assert_eq!(a.counters()[6], ("compressed_bytes_read", 77));
        let names: std::collections::BTreeSet<_> =
            a.counters().iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), a.counters().len());
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = QueryStats {
            distance_computations: 1,
            lower_bound_computations: 2,
            leaves_visited: 3,
            nodes_visited: 4,
            series_scanned: 5,
            bytes_read: 6,
            random_ios: 7,
            sequential_ios: 8,
            delta_stop_triggered: false,
        };
        let b = QueryStats {
            distance_computations: 10,
            lower_bound_computations: 20,
            leaves_visited: 30,
            nodes_visited: 40,
            series_scanned: 50,
            bytes_read: 60,
            random_ios: 70,
            sequential_ios: 80,
            delta_stop_triggered: true,
        };
        a.merge(&b);
        assert_eq!(a.distance_computations, 11);
        assert_eq!(a.lower_bound_computations, 22);
        assert_eq!(a.leaves_visited, 33);
        assert_eq!(a.nodes_visited, 44);
        assert_eq!(a.series_scanned, 55);
        assert_eq!(a.bytes_read, 66);
        assert_eq!(a.random_ios, 77);
        assert_eq!(a.sequential_ios, 88);
        assert!(a.delta_stop_triggered);
    }

    #[test]
    fn fraction_data_accessed_handles_zero_total() {
        let s = QueryStats {
            bytes_read: 100,
            ..Default::default()
        };
        assert_eq!(s.fraction_data_accessed(0), 0.0);
        assert!((s.fraction_data_accessed(400) - 0.25).abs() < 1e-12);
    }
}
