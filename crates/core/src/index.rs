//! Index traits and capability descriptors.
//!
//! Two traits structure the workspace:
//!
//! * [`AnnIndex`] is the uniform, object-safe query interface implemented by
//!   every method in the study (DSTree, iSAX2+, VA+file, HNSW, IMI, SRS,
//!   QALSH, FLANN). The evaluation harness only talks to `dyn AnnIndex`.
//! * [`HierarchicalIndex`] exposes the tree structure of indexes built by
//!   conservative recursive partitioning (DSTree, iSAX2+). The paper's
//!   Algorithm 1 (exact search) and Algorithm 2 (δ-ε-approximate search) are
//!   implemented once, generically, over this trait in [`crate::search`].

use crate::error::{Error, Result};
use crate::query::{SearchMode, SearchParams, SearchResult};
use crate::stats::{QueryStats, StoreCounters};

/// How a method summarizes (represents) the data, mirroring the
/// "Representation" column of Table 1 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representation {
    /// Raw series, no reduced representation.
    Raw,
    /// Extended Adaptive Piecewise Constant Approximation (DSTree).
    Eapca,
    /// indexable Symbolic Aggregate approXimation (iSAX family).
    Isax,
    /// Discrete Fourier Transform coefficients (modified VA+file).
    Dft,
    /// (Optimized) product quantization codes (IMI).
    Opq,
    /// LSH / random projection signatures (SRS, QALSH).
    Signatures,
    /// Hierarchical k-means / kd-tree partitions (FLANN).
    Partitions,
    /// Proximity graph over raw vectors (HNSW, NSG).
    Graph,
}

impl Representation {
    /// Human-readable name used in the Table 1 reproduction.
    pub fn name(&self) -> &'static str {
        match self {
            Representation::Raw => "Raw",
            Representation::Eapca => "EAPCA",
            Representation::Isax => "iSAX",
            Representation::Dft => "DFT",
            Representation::Opq => "OPQ",
            Representation::Signatures => "Signatures",
            Representation::Partitions => "Partitions",
            Representation::Graph => "Graph",
        }
    }
}

/// What a method can do — the paper's Table 1 as a queryable structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Supports exact k-NN queries.
    pub exact: bool,
    /// Supports ng-approximate (no guarantee) queries.
    pub ng_approximate: bool,
    /// Supports ε-approximate queries.
    pub epsilon_approximate: bool,
    /// Supports δ-ε-approximate queries.
    pub delta_epsilon_approximate: bool,
    /// Can operate on disk-resident data (through the simulated storage
    /// layer); methods without this flag are in-memory only.
    pub disk_resident: bool,
    /// Accepts new series after the build through
    /// [`AnnIndex::insert_batch`] (streaming ingest); methods without this
    /// flag answer queries over a frozen collection and return
    /// [`crate::Error::UnsupportedMode`] from `insert_batch`.
    pub streaming_insert: bool,
    /// The reduced representation the method indexes.
    pub representation: Representation,
}

impl Capabilities {
    /// Whether the given search mode is supported.
    pub fn supports(&self, mode: &SearchMode) -> bool {
        match mode {
            SearchMode::Exact => self.exact,
            SearchMode::Ng { .. } => self.ng_approximate,
            SearchMode::Epsilon { .. } => self.epsilon_approximate,
            SearchMode::DeltaEpsilon { .. } => self.delta_epsilon_approximate,
        }
    }
}

/// The one door of every [`AnnIndex::search`]: decides whether an index
/// with capabilities `caps` over series of `series_len` values accepts
/// `query` under `params`. What a method answers is therefore decided by
/// its [`Capabilities`] row alone.
///
/// # Errors
/// In this order:
/// * [`Error::DimensionMismatch`] if `query` does not have `series_len`
///   values;
/// * [`Error::UnsupportedMode`] if `caps` does not support the mode;
/// * [`Error::InvalidParameter`] if `k == 0`, ε is negative or NaN, or δ
///   lies outside `[0, 1]`.
pub fn check_query(
    caps: Capabilities,
    series_len: usize,
    query: &[f32],
    params: &SearchParams,
) -> Result<()> {
    if query.len() != series_len {
        return Err(Error::DimensionMismatch {
            expected: series_len,
            found: query.len(),
        });
    }
    let mode = params.mode;
    if !caps.supports(&mode) {
        return Err(Error::UnsupportedMode(format!(
            "{} search is not among this method's guarantees",
            mode.label()
        )));
    }
    let (epsilon, delta) = (mode.epsilon(), mode.delta());
    if params.k == 0 {
        Err(Error::InvalidParameter("k must be at least 1".into()))
    } else if epsilon.is_nan() || epsilon < 0.0 {
        Err(Error::InvalidParameter(format!("epsilon must be >= 0, got {epsilon}")))
    } else if !(0.0..=1.0).contains(&delta) {
        Err(Error::InvalidParameter(format!("delta must lie in [0, 1], got {delta}")))
    } else {
        Ok(())
    }
}

/// Uniform query interface implemented by every similarity search method in
/// the study.
pub trait AnnIndex: Send + Sync {
    /// Short method name ("DSTree", "iSAX2+", "VA+file", "HNSW", ...).
    fn name(&self) -> &'static str;

    /// The guarantees and representation of this method (Table 1).
    fn capabilities(&self) -> Capabilities;

    /// Number of series indexed.
    fn num_series(&self) -> usize;

    /// Length (dimensionality) of the indexed series.
    fn series_len(&self) -> usize;

    /// Approximate main-memory footprint of the index structure in bytes
    /// (excluding any raw data kept on simulated disk).
    fn memory_footprint(&self) -> usize;

    /// Answers a k-NN query under the requested guarantee level.
    ///
    /// # Errors
    /// Whatever [`check_query`] returns for this index's
    /// [`Self::capabilities`] and [`Self::series_len`]: every
    /// implementation passes the query through it first.
    fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult>;

    /// Answers a batch of k-NN queries under one parameter setting.
    ///
    /// The default implementation simply calls [`Self::search`] once per
    /// query. Indexes override it when a batch lets them amortize per-query
    /// setup — e.g. IMI builds the ADC lookup tables of every query in a
    /// single pass over its codebooks, and the scan-based methods reuse
    /// per-batch scratch buffers instead of reallocating them per query.
    ///
    /// # Contract for implementors
    ///
    /// * `results[i]` answers `queries[i]`; the output length equals the
    ///   input length.
    /// * Every query is answered exactly as [`Self::search`] would answer
    ///   it: same neighbors, same errors, same per-query [`QueryStats`]
    ///   (batching may only amortize *work*, never change *answers* — this
    ///   is what lets the parallel workload runner reproduce the sequential
    ///   runner's figures exactly). Counters derived from shared storage
    ///   state — the simulated buffer pool's I/O-operation charges — are
    ///   exempt: they depend on access interleaving, exactly as between two
    ///   sequential runs.
    /// * Failures are per query: one unsupported or malformed query yields
    ///   an `Err` at its position without poisoning the rest of the batch.
    fn search_batch(
        &self,
        queries: &[&[f32]],
        params: &SearchParams,
    ) -> Vec<Result<SearchResult>> {
        queries.iter().map(|q| self.search(q, params)).collect()
    }

    /// Ingests a batch of new series into a live index (streaming ingest).
    ///
    /// Opt-in via [`Capabilities::streaming_insert`]; the default
    /// implementation rejects the batch with
    /// [`crate::Error::UnsupportedMode`]. The new series receive the next
    /// consecutive dataset positions (`num_series()` before the call, ...).
    ///
    /// # Contract for implementors (ingest equivalence)
    ///
    /// After ingesting series `0..n` in any order of calls and any batch
    /// chunking, exact and ε/δ-ε answers must be **bit-identical** to a
    /// fresh build over the same `n` series in the same arrival order:
    /// same neighbors, same distances, same accuracy. Only I/O-economics
    /// counters ([`QueryStats`] fields derived from buffer-pool state) may
    /// differ. An ingest must either apply the whole batch or — on a
    /// validation error such as a dimension mismatch — leave the index
    /// exactly as it was (no partial batches).
    ///
    /// # Errors
    /// [`crate::Error::UnsupportedMode`] if the index is build-once;
    /// [`crate::Error::DimensionMismatch`] if any series in the batch does
    /// not have [`Self::series_len`] values (the index is left unchanged).
    fn insert_batch(&mut self, batch: &[&[f32]]) -> Result<()> {
        let _ = batch;
        Err(Error::UnsupportedMode(format!(
            "{} does not support streaming ingest",
            self.name()
        )))
    }

    /// Cumulative lifetime counters of the series store backing this
    /// index, for live observability scrapes.
    ///
    /// `None` (the default) means the index holds no series store —
    /// purely in-memory methods (HNSW, IMI, FLANN) have no I/O economy
    /// to report. Disk-capable methods return their store's running
    /// totals; sharded indexes return the sum over their shards.
    /// Reading the counters must never perturb them (a scrape is not a
    /// query).
    fn store_counters(&self) -> Option<StoreCounters> {
        None
    }
}

/// A node handle inside a [`HierarchicalIndex`]. Implementations typically
/// use an arena index.
pub type NodeId = usize;

/// Structural view of a hierarchical index built by conservative recursive
/// partitioning, as required by the optimal exact NN algorithm the paper
/// builds on (Hjaltason & Samet / Berchtold et al.).
///
/// "Conservative" means that the lower-bound distance of a node never
/// exceeds the true distance of any series stored beneath it; this is what
/// makes Algorithm 1 exact and Algorithm 2's ε bound valid.
///
/// ## The `prepare` → `min_dist` contract
///
/// A search computes hundreds to thousands of lower bounds against *one*
/// query, and the part of a bound that depends only on the query (iSAX2+:
/// the squared distance from its PAA to every SAX region a node can name)
/// is the same every time. [`Self::prepare`] computes that part
/// once; [`Self::min_dist`] takes it by reference, next to the query
/// itself. The drivers in [`crate::search`] call `prepare` exactly once per
/// query and hand the same value to every `min_dist` of that query. An
/// index with nothing worth hoisting uses `()`. A prepared value belongs
/// to the query and the index it was prepared for: passing it to another
/// index, or alongside another query, is a caller bug (the bound is then
/// meaningless, though no memory-safety hazard).
pub trait HierarchicalIndex {
    /// Whatever [`Self::min_dist`] needs of a query that does not depend
    /// on the node — computed once per search by [`Self::prepare`].
    type Prepared;

    /// Root node(s) of the index. Most trees have one root; iSAX-style
    /// indexes have one root child per initial SAX word.
    fn roots(&self) -> &[NodeId];

    /// Whether `node` is a leaf.
    fn is_leaf(&self, node: NodeId) -> bool;

    /// Children of an internal node (empty for leaves).
    fn children(&self, node: NodeId) -> &[NodeId];

    /// Computes the query-only part of the lower bound, once per search.
    fn prepare(&self, query: &[f32]) -> Self::Prepared;

    /// Lower bound on the distance between `query` and any series stored in
    /// the subtree rooted at `node`; `prepared` is what [`Self::prepare`]
    /// returned for this very `query`.
    fn min_dist(&self, query: &[f32], prepared: &Self::Prepared, node: NodeId) -> f32;

    /// Number of series stored in leaf `node` (0 for internal nodes).
    fn leaf_size(&self, node: NodeId) -> usize;

    /// Refines the series stored in leaf `node` against `query` under an
    /// early-abandonment bound, invoking `accept` with the dataset position
    /// and exact distance of each candidate that survives; `accept` returns
    /// the (possibly tightened) bound for subsequent candidates. `prepared`
    /// is what [`Self::prepare`] returned for this very `query`.
    ///
    /// Returns the number of *raw series compared* — each one distance
    /// computation, abandoned or not, which the driver adds to
    /// [`QueryStats::distance_computations`] and
    /// [`QueryStats::series_scanned`]. An index that keeps a summary of
    /// every series may first bound each member from `prepared` and skip
    /// the ones whose bound strictly exceeds the live best-so-far — exactly
    /// the candidates the early-abandoning kernel would have returned
    /// `None` for, so `accept` sees the same sequence. A skipped member is
    /// not read and not counted in the return value; the implementation
    /// adds each such per-member check to
    /// [`QueryStats::lower_bound_computations`] itself. It must also
    /// account for storage-layer costs in `stats`.
    ///
    /// Indexes whose leaves live in a `SeriesStore` route contiguous leaf
    /// runs through the store's codec-aware refinement scan, which prunes
    /// on compressed pages and recomputes surviving distances from exact
    /// f32 series; the accumulation-order contract of [`crate::distance`]
    /// keeps those distances bit-identical to
    /// [`crate::distance::euclidean_early_abandon`] over the raw series.
    fn refine_leaf(
        &self,
        node: NodeId,
        query: &[f32],
        prepared: &Self::Prepared,
        best_so_far: f32,
        stats: &mut QueryStats,
        accept: &mut dyn FnMut(usize, f32) -> f32,
    ) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SearchMode;

    #[test]
    fn capabilities_supports_matches_flags() {
        let caps = Capabilities {
            exact: true,
            ng_approximate: true,
            epsilon_approximate: false,
            delta_epsilon_approximate: false,
            disk_resident: true,
            streaming_insert: false,
            representation: Representation::Eapca,
        };
        assert!(caps.supports(&SearchMode::Exact));
        assert!(caps.supports(&SearchMode::Ng { nprobe: 1 }));
        assert!(!caps.supports(&SearchMode::Epsilon { epsilon: 1.0 }));
        assert!(!caps.supports(&SearchMode::DeltaEpsilon {
            epsilon: 1.0,
            delta: 0.5
        }));
    }

    #[test]
    fn check_query_decides_length_then_row_then_knobs() {
        let caps = Capabilities {
            exact: true,
            ng_approximate: true,
            epsilon_approximate: false,
            delta_epsilon_approximate: true,
            disk_resident: false,
            streaming_insert: false,
            representation: Representation::Raw,
        };
        let check =
            |len: usize, params: SearchParams| check_query(caps, 4, &vec![0.0; len], &params);
        let invalid = |r: Result<()>| matches!(r, Err(Error::InvalidParameter(_)));
        assert!(check(4, SearchParams::exact(1)).is_ok());
        assert!(check(4, SearchParams::ng(1 << 36, 0)).is_ok(), "any k >= 1, nprobe 0 too");
        for (epsilon, delta) in [(0.0, 0.0), (-0.0, 1.0), (f32::INFINITY, 0.5)] {
            assert!(check(4, SearchParams::delta_epsilon(3, delta, epsilon)).is_ok());
        }
        assert!(matches!(
            check(3, SearchParams::epsilon(0, f32::NAN)),
            Err(Error::DimensionMismatch {
                expected: 4,
                found: 3
            })
        ));
        let unsupported = check(4, SearchParams::epsilon(0, f32::NAN));
        assert!(matches!(&unsupported, Err(Error::UnsupportedMode(m)) if m.starts_with("eps ")));
        assert!(invalid(check(4, SearchParams::exact(0))));
        let bad_knobs = [(f32::NAN, 0.5), (-1.0, 0.5), (1.0, -1.0), (1.0, 2.0), (1.0, f32::NAN)];
        for (epsilon, delta) in bad_knobs {
            assert!(invalid(check(4, SearchParams::delta_epsilon(3, delta, epsilon))));
        }
    }

    #[test]
    fn default_search_batch_answers_queries_in_order() {
        use crate::query::{SearchParams, SearchResult};
        use crate::Neighbor;

        /// Echoes the first query value as the neighbor id, so order is
        /// observable.
        struct Echo;
        impl AnnIndex for Echo {
            fn name(&self) -> &'static str {
                "echo"
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
                1
            }
            fn memory_footprint(&self) -> usize {
                0
            }
            fn search(&self, query: &[f32], _params: &SearchParams) -> Result<SearchResult> {
                if query.len() != 1 {
                    return Err(crate::Error::DimensionMismatch {
                        expected: 1,
                        found: query.len(),
                    });
                }
                Ok(SearchResult::new(
                    vec![Neighbor::new(query[0] as usize, 0.0)],
                    QueryStats::new(),
                ))
            }
        }

        let mut index = Echo;
        let series = [0.5f32];
        let batch: Vec<&[f32]> = vec![&series];
        assert!(
            matches!(
                index.insert_batch(&batch),
                Err(crate::Error::UnsupportedMode(_))
            ),
            "the default insert_batch must reject ingest on build-once indexes"
        );
        let index = index;
        let q0 = [0.0f32];
        let q1 = [1.0f32];
        let bad = [2.0f32, 2.0];
        let q3 = [3.0f32];
        let queries: Vec<&[f32]> = vec![&q0, &q1, &bad, &q3];
        let results = index.search_batch(&queries, &SearchParams::exact(1));
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].as_ref().unwrap().neighbors[0].index, 0);
        assert_eq!(results[1].as_ref().unwrap().neighbors[0].index, 1);
        assert!(results[2].is_err(), "failures must stay per-query");
        assert_eq!(results[3].as_ref().unwrap().neighbors[0].index, 3);
    }

    #[test]
    fn representation_names_are_stable() {
        assert_eq!(Representation::Eapca.name(), "EAPCA");
        assert_eq!(Representation::Isax.name(), "iSAX");
        assert_eq!(Representation::Dft.name(), "DFT");
        assert_eq!(Representation::Opq.name(), "OPQ");
        assert_eq!(Representation::Raw.name(), "Raw");
        assert_eq!(Representation::Graph.name(), "Graph");
        assert_eq!(Representation::Signatures.name(), "Signatures");
        assert_eq!(Representation::Partitions.name(), "Partitions");
    }
}
