//! # hydra-shard
//!
//! Sharded scale-out search: the in-process half of the system's
//! partition-and-aggregate story. A [`ShardedIndex`] wraps `S` inner
//! indexes — one per shard of a dataset partitioned by
//! [`hydra_data::partition()`] — behind the same [`AnnIndex`] interface
//! every other method implements, so the figure binaries, the parallel
//! workload runner, persistence, and `hydra-serve` all work over shards
//! unchanged.
//!
//! The adapter does three things, each with a hard contract:
//!
//! 1. **Fan-out**: `search`/`search_batch` run on all shards at once,
//!    one worker per shard of [`hydra_core::workers::answer_on_workers`]
//!    (shard-parallel, like the multi-process router that mirrors this
//!    adapter over TCP).
//! 2. **Merge**: per-shard answers are translated to global ids through
//!    the [`ShardMap`] and merged with [`hydra_core::merge_top_k`] —
//!    deterministic (distance, global id) ordering, so shard count and
//!    answer arrival order never change the result. For exact search this
//!    is an equivalence: the merged answer is bit-identical to the
//!    unsharded index's answer over the whole dataset, at any `S` and any
//!    thread count (`tests/integration_shard.rs`).
//! 3. **Stats**: per-query [`hydra_core::QueryStats`] are the *sum* of the
//!    shard stats (counters added, the δ-stop flag ORed via
//!    [`hydra_core::QueryStats::merge`]) — total work is reported, exactly
//!    as if one index had done it all.
//!
//! What sharding does to the guarantee classes: exact stays exact (every
//! shard returns its true local top-k, and the true global top-k is a
//! subset of their union); ε-approximate stays ε-approximate (each true
//! global neighbor lives in some shard, whose answer is within `(1 + ε)`
//! of that shard's — hence of the global — true k-th distance);
//! δ-ε-approximate degrades to `δ^S` (the per-shard guarantees are
//! independent); ng-approximate applies its effort knob per shard, so a
//! sharded run does up to `S×` the work and typically reports equal or
//! better accuracy.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use hydra_core::workers::answer_on_workers;
use hydra_core::{
    merge_top_k, AnnIndex, Capabilities, Dataset, Error, Neighbor, QueryStats, Result,
    SearchParams, SearchResult,
};
use hydra_data::{partition, PartitionScheme, ShardMap};

/// An [`AnnIndex`] that fans every query out to `S` per-shard inner
/// indexes and merges their answers (see the crate docs).
pub struct ShardedIndex {
    shards: Vec<Box<dyn AnnIndex>>,
    map: ShardMap,
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("method", &self.name())
            .field("num_shards", &self.map.num_shards())
            .field("scheme", &self.map.scheme())
            .field("num_series", &self.map.total())
            .finish()
    }
}

impl ShardedIndex {
    /// Wraps per-shard indexes (shard order) behind one sharded view.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] if the shard list does not match the
    /// map (count or per-shard series count), the shards disagree on
    /// series length, or they are different methods — any of these would
    /// silently corrupt id translation or the merged answers.
    pub fn new(shards: Vec<Box<dyn AnnIndex>>, map: ShardMap) -> Result<Self> {
        if shards.len() != map.num_shards() {
            return Err(Error::InvalidParameter(format!(
                "{} shard indexes for a {}-shard map",
                shards.len(),
                map.num_shards()
            )));
        }
        for (s, shard) in shards.iter().enumerate() {
            if shard.num_series() != map.shard_len(s) {
                return Err(Error::InvalidParameter(format!(
                    "shard {s} holds {} series but the map assigns it {}",
                    shard.num_series(),
                    map.shard_len(s)
                )));
            }
            if shard.series_len() != shards[0].series_len() {
                return Err(Error::InvalidParameter(format!(
                    "shard {s} indexes series of length {} (shard 0: {})",
                    shard.series_len(),
                    shards[0].series_len()
                )));
            }
            if shard.name() != shards[0].name() {
                return Err(Error::InvalidParameter(format!(
                    "shard {s} is a {} index (shard 0: {}) — shards must be one method",
                    shard.name(),
                    shards[0].name()
                )));
            }
        }
        Ok(Self { shards, map })
    }

    /// Partitions `data` under `scheme` into `num_shards` shards and
    /// builds one inner index per shard with `build` (called with the
    /// shard's dataset and its shard number, in shard order).
    ///
    /// # Errors
    /// Partitioning errors (see [`hydra_data::partition()`]) and any error
    /// `build` returns.
    pub fn from_partition<F>(
        data: &Dataset,
        scheme: PartitionScheme,
        num_shards: usize,
        mut build: F,
    ) -> Result<Self>
    where
        F: FnMut(&Dataset, usize) -> Result<Box<dyn AnnIndex>>,
    {
        let (map, shard_data) = partition(data, scheme, num_shards)?;
        let shards = shard_data
            .iter()
            .enumerate()
            .map(|(s, d)| build(d, s))
            .collect::<Result<Vec<_>>>()?;
        Self::new(shards, map)
    }

    /// The local↔global id map this view translates through.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.map.num_shards()
    }

    /// The per-shard inner indexes, in shard order.
    pub fn shards(&self) -> &[Box<dyn AnnIndex>] {
        &self.shards
    }

    /// Runs `f` on every shard at once, one worker per shard, and returns
    /// the results in shard order. A panicking call propagates to the
    /// caller.
    fn fan_out<T: Send>(&self, f: impl Fn(&dyn AnnIndex) -> T + Sync) -> Vec<T> {
        answer_on_workers(&self.shards, self.shards.len(), || (), |_, shard| f(shard.as_ref()))
    }

    /// Translates one shard's answer to global ids in place.
    fn globalize(&self, shard: usize, neighbors: &mut [Neighbor]) {
        for n in neighbors {
            n.index = self.map.to_global(shard, n.index);
        }
    }

    /// Merges per-shard results for one query: global ids, merged top-k,
    /// summed stats. Any shard error fails the query (the error is
    /// per-query, mirroring `search_batch`'s failure contract).
    fn merge_query(
        &self,
        k: usize,
        per_shard: Vec<Result<SearchResult>>,
    ) -> Result<SearchResult> {
        let mut stats = QueryStats::default();
        let mut answers = Vec::with_capacity(per_shard.len());
        for (s, result) in per_shard.into_iter().enumerate() {
            let mut result = result?;
            self.globalize(s, &mut result.neighbors);
            stats.merge(&result.stats);
            answers.push(result.neighbors);
        }
        Ok(SearchResult::new(merge_top_k(k, &answers), stats))
    }
}

impl AnnIndex for ShardedIndex {
    /// The inner method's name — a sharded DSTree still reports "DSTree",
    /// so CSV rows and served listings stay comparable across shard
    /// counts.
    fn name(&self) -> &'static str {
        self.shards[0].name()
    }

    fn capabilities(&self) -> Capabilities {
        self.shards[0].capabilities()
    }

    fn num_series(&self) -> usize {
        self.map.total()
    }

    fn series_len(&self) -> usize {
        self.shards[0].series_len()
    }

    fn memory_footprint(&self) -> usize {
        self.shards.iter().map(|s| s.memory_footprint()).sum()
    }

    /// The component-wise sum over every shard's store, presenting the
    /// sharded collection as one logical store to the scrape path.
    /// `None` when the inner method holds no store at all.
    fn store_counters(&self) -> Option<hydra_core::StoreCounters> {
        let mut total = hydra_core::StoreCounters::default();
        let mut any = false;
        for shard in &self.shards {
            if let Some(c) = shard.store_counters() {
                total.merge(&c);
                any = true;
            }
        }
        any.then_some(total)
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult> {
        let per_shard = self.fan_out(|shard| shard.search(query, params));
        self.merge_query(params.k, per_shard)
    }

    fn search_batch(&self, queries: &[&[f32]], params: &SearchParams) -> Vec<Result<SearchResult>> {
        // One search_batch call per shard, so the inner indexes keep their
        // per-batch amortizations (ADC tables, scratch buffers); then a
        // per-query merge across shards.
        let mut per_shard: Vec<Vec<Option<Result<SearchResult>>>> = self
            .fan_out(|shard| shard.search_batch(queries, params))
            .into_iter()
            .map(|results| results.into_iter().map(Some).collect())
            .collect();
        (0..queries.len())
            .map(|q| {
                let results = per_shard
                    .iter_mut()
                    .enumerate()
                    .map(|(s, shard)| {
                        shard.get_mut(q).and_then(Option::take).unwrap_or_else(|| {
                            Err(Error::InvalidParameter(format!(
                                "shard {s} ({}) violated the search_batch contract: fewer \
                                 results than queries",
                                self.shards[s].name()
                            )))
                        })
                    })
                    .collect();
                self.merge_query(params.k, results)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_data::generators::random_walk;
    use hydra_dstree::{DsTree, DsTreeConfig};

    /// A minimal exact scanner with deterministic answers and visible
    /// stats: one distance computation per stored series.
    struct Scan {
        data: Dataset,
    }

    impl AnnIndex for Scan {
        fn name(&self) -> &'static str {
            "scan"
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities {
                exact: true,
                ng_approximate: false,
                epsilon_approximate: false,
                delta_epsilon_approximate: false,
                disk_resident: false,
                streaming_insert: false,
                representation: hydra_core::Representation::Raw,
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
            hydra_core::check_query(self.capabilities(), self.series_len(), query, params)?;
            assert!(!query[0].is_nan(), "poison query");
            let mut top = hydra_core::TopK::new(params.k);
            let mut stats = QueryStats::default();
            for (i, series) in self.data.iter().enumerate() {
                stats.distance_computations += 1;
                top.push(Neighbor::new(i, hydra_core::euclidean(query, series)));
            }
            Ok(SearchResult::new(top.into_sorted(), stats))
        }
    }

    fn sharded_scan(data: &Dataset, scheme: PartitionScheme, s: usize) -> ShardedIndex {
        ShardedIndex::from_partition(data, scheme, s, |shard, _| {
            Ok(Box::new(Scan {
                data: shard.clone(),
            }) as Box<dyn AnnIndex>)
        })
        .unwrap()
    }

    #[test]
    fn a_panicking_shard_unwinds_out_of_the_fan_out_with_its_payload() {
        let sharded = sharded_scan(&random_walk(20, 4, 3), PartitionScheme::Contiguous, 2);
        let poison = [f32::NAN; 4];
        let batch: Vec<&[f32]> = vec![&poison];
        let params = SearchParams::exact(1);
        let search = || drop(sharded.search(&poison, &params));
        let search_batch = || drop(sharded.search_batch(&batch, &params));
        for run in [&search as &dyn Fn(), &search_batch] {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            let payload = unwound.expect_err("the shard's panic propagates");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"poison query"));
        }
    }

    #[test]
    fn sharded_exact_search_is_bit_identical_to_unsharded() {
        let data = random_walk(97, 16, 7);
        let whole = Scan { data: data.clone() };
        for scheme in [PartitionScheme::Contiguous, PartitionScheme::Strided] {
            for s in [1, 2, 5] {
                let sharded = sharded_scan(&data, scheme, s);
                assert_eq!(sharded.num_series(), 97);
                assert_eq!(sharded.series_len(), 16);
                assert_eq!(sharded.name(), "scan");
                for q in 0..5 {
                    let params = SearchParams::exact(10);
                    let a = whole.search(data.series(q), &params).unwrap();
                    let b = sharded.search(data.series(q), &params).unwrap();
                    assert_eq!(a.neighbors.len(), b.neighbors.len());
                    for (x, y) in a.neighbors.iter().zip(b.neighbors.iter()) {
                        assert_eq!(x.index, y.index, "{scheme:?} S={s} q={q}");
                        assert_eq!(
                            x.distance.to_bits(),
                            y.distance.to_bits(),
                            "{scheme:?} S={s} q={q}"
                        );
                    }
                    // Summed stats: every shard scanned its whole shard.
                    assert_eq!(b.stats.distance_computations, 97, "{scheme:?} S={s}");
                }
            }
        }
    }

    #[test]
    fn search_batch_matches_per_query_search_and_keeps_error_positions() {
        let data = random_walk(40, 8, 3);
        let sharded = sharded_scan(&data, PartitionScheme::Contiguous, 3);
        let good = data.series(0).to_vec();
        let bad = vec![0.0f32; 5]; // wrong dimensionality
        let queries: Vec<&[f32]> = vec![&good, &bad, &good];
        let params = SearchParams::exact(4);
        let results = sharded.search_batch(&queries, &params);
        assert_eq!(results.len(), 3);
        let single = sharded.search(&good, &params).unwrap();
        for i in [0usize, 2] {
            let r = results[i].as_ref().unwrap();
            assert_eq!(r.neighbors, single.neighbors);
            assert_eq!(r.stats, single.stats);
        }
        assert!(matches!(
            results[1],
            Err(Error::DimensionMismatch { expected: 8, found: 5 })
        ));
        // Unsupported mode fails every query, exactly like the inner index.
        let ng = sharded.search(&good, &SearchParams::ng(4, 2));
        assert!(matches!(ng, Err(Error::UnsupportedMode(_))));
    }

    #[test]
    fn sharded_dstree_delegates_metadata_and_sums_stats() {
        let data = random_walk(60, 16, 11);
        let config = DsTreeConfig::default();
        let sharded = ShardedIndex::from_partition(&data, PartitionScheme::Contiguous, 2, |d, _| {
            Ok(Box::new(DsTree::build(d, config).unwrap()) as Box<dyn AnnIndex>)
        })
        .unwrap();
        let whole = DsTree::build(&data, config).unwrap();
        assert_eq!(sharded.name(), whole.name());
        assert_eq!(sharded.capabilities(), whole.capabilities());
        assert_eq!(sharded.num_series(), 60);
        assert!(sharded.memory_footprint() > 0);
        let params = SearchParams::exact(5);
        let merged = sharded.search(data.series(1), &params).unwrap();
        let plain = whole.search(data.series(1), &params).unwrap();
        assert_eq!(merged.neighbors, plain.neighbors);
        // The merged stats are the sum of searching each shard directly.
        // Search a freshly built twin so per-index warm-up state (I/O
        // counters depend on what a previous search already paged in)
        // matches the cold searches the merged answer summed.
        let twin = ShardedIndex::from_partition(&data, PartitionScheme::Contiguous, 2, |d, _| {
            Ok(Box::new(DsTree::build(d, config).unwrap()) as Box<dyn AnnIndex>)
        })
        .unwrap();
        let mut manual = QueryStats::default();
        for shard in twin.shards() {
            manual.merge(&shard.search(data.series(1), &params).unwrap().stats);
        }
        assert_eq!(merged.stats, manual);
    }

    #[test]
    fn mismatched_shards_are_rejected() {
        let data = random_walk(30, 8, 1);
        let (map, shards) = partition(&data, PartitionScheme::Contiguous, 2).unwrap();
        // Wrong shard count.
        let one: Vec<Box<dyn AnnIndex>> = vec![Box::new(Scan {
            data: shards[0].clone(),
        })];
        assert!(ShardedIndex::new(one, map.clone()).is_err());
        // Swapped shards (sizes no longer match the map).
        let (map3, shards3) = partition(&data, PartitionScheme::Contiguous, 3).unwrap();
        let swapped: Vec<Box<dyn AnnIndex>> = vec![
            Box::new(Scan {
                data: shards3[0].clone(),
            }),
            Box::new(Scan {
                data: shards3[1].clone(),
            }),
        ];
        assert!(ShardedIndex::new(swapped, map.clone()).is_err());
        let _ = map3;
        // Mixed methods.
        let mixed: Vec<Box<dyn AnnIndex>> = vec![
            Box::new(Scan {
                data: shards[0].clone(),
            }),
            Box::new(DsTree::build(&shards[1], DsTreeConfig::default()).unwrap()),
        ];
        assert!(ShardedIndex::new(mixed, map).is_err());
    }
}
