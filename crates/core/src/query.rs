//! Query, answer, and search-mode types.
//!
//! The paper's taxonomy (Figure 1) classifies similarity search methods by
//! the guarantees they provide: exact, ε-approximate, δ-ε-approximate and
//! ng-approximate (no guarantees). [`SearchMode`] encodes the guarantee that
//! a caller requests for one query; each index maps the mode onto its own
//! search algorithm or rejects it through
//! [`crate::index::Capabilities`].

use crate::stats::QueryStats;

/// One answer of a k-NN query: the position of the series in the dataset and
/// its Euclidean distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the series in the collection it was built from.
    pub index: usize,
    /// Euclidean distance between the query and the series.
    pub distance: f32,
}

impl Neighbor {
    /// Creates a neighbor entry.
    pub fn new(index: usize, distance: f32) -> Self {
        Self { index, distance }
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    /// Orders by distance (total order; NaN sorts last), breaking ties by
    /// index so that results are deterministic.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then_with(|| self.index.cmp(&other.index))
    }
}

/// An ordered list of `k` (or fewer) nearest neighbors.
pub type Answer = Vec<Neighbor>;

/// The guarantee level requested for a query, mirroring the paper's
/// taxonomy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchMode {
    /// Exact search: the correct and complete k-NN answer.
    Exact,
    /// ng-approximate ("no guarantees") search.
    ///
    /// For tree indexes `nprobe` is the number of leaves visited, for
    /// VA+file the number of raw series refined, for IMI the number of
    /// inverted lists scanned, and for graph methods the size of the
    /// candidate beam (`efSearch`).
    Ng {
        /// Method-specific search effort knob (see above).
        nprobe: usize,
    },
    /// ε-approximate search: every returned distance is at most `(1 + ε)`
    /// times the true k-th nearest neighbor distance.
    Epsilon {
        /// Relative distance error bound (`ε ≥ 0`); `ε = 0` degenerates to
        /// exact search.
        epsilon: f32,
    },
    /// δ-ε-approximate search: the ε guarantee holds with probability at
    /// least δ. `δ = 1` degenerates to ε-approximate search.
    DeltaEpsilon {
        /// Relative distance error bound (`ε ≥ 0`).
        epsilon: f32,
        /// Probability (`0 ≤ δ ≤ 1`) with which the ε guarantee holds.
        delta: f32,
    },
}

impl SearchMode {
    /// The ε used for pruning (0 for exact and ng modes).
    pub fn epsilon(&self) -> f32 {
        match self {
            SearchMode::Epsilon { epsilon } | SearchMode::DeltaEpsilon { epsilon, .. } => *epsilon,
            _ => 0.0,
        }
    }

    /// The δ probability (1 when not probabilistic).
    pub fn delta(&self) -> f32 {
        match self {
            SearchMode::DeltaEpsilon { delta, .. } => *delta,
            _ => 1.0,
        }
    }

    /// The ng effort knob (0 for the guarantee modes, which carry none).
    pub fn nprobe(&self) -> usize {
        match self {
            SearchMode::Ng { nprobe } => *nprobe,
            _ => 0,
        }
    }

    /// A short label used in reports ("exact", "ng", "eps", "delta-eps").
    pub fn label(&self) -> &'static str {
        match self {
            SearchMode::Exact => "exact",
            SearchMode::Ng { .. } => "ng",
            SearchMode::Epsilon { .. } => "eps",
            SearchMode::DeltaEpsilon { .. } => "delta-eps",
        }
    }
}

/// Parameters of one k-NN query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchParams {
    /// Number of nearest neighbors requested.
    pub k: usize,
    /// Guarantee level and associated knobs.
    pub mode: SearchMode,
}

/// A canonical, hashable, totally ordered key identifying one
/// [`SearchParams`] value.
///
/// `SearchParams` itself carries `f32` knobs, so it cannot implement `Eq`
/// or `Hash` directly; serving-side batchers need exactly that to group
/// compatible requests (only queries sharing one parameter setting may be
/// answered by a single [`crate::AnnIndex::search_batch`] call). The key
/// folds the floats in by bit pattern, so two parameter values map to the
/// same key **iff** they request bit-identical searches — `0.0` and `-0.0`
/// ε are deliberately distinct, exactly as `-0.0f32.to_bits()` is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SearchKey {
    k: usize,
    mode_tag: u8,
    nprobe: usize,
    epsilon_bits: u32,
    delta_bits: u32,
}

impl SearchParams {
    /// The canonical grouping key of this parameter value (see
    /// [`SearchKey`]).
    pub fn key(&self) -> SearchKey {
        let (mode_tag, nprobe, epsilon_bits, delta_bits) = match self.mode {
            SearchMode::Exact => (0u8, 0usize, 0u32, 0u32),
            SearchMode::Ng { nprobe } => (1, nprobe, 0, 0),
            SearchMode::Epsilon { epsilon } => (2, 0, epsilon.to_bits(), 0),
            SearchMode::DeltaEpsilon { epsilon, delta } => {
                (3, 0, epsilon.to_bits(), delta.to_bits())
            }
        };
        SearchKey {
            k: self.k,
            mode_tag,
            nprobe,
            epsilon_bits,
            delta_bits,
        }
    }

    /// Exact k-NN search.
    pub fn exact(k: usize) -> Self {
        Self {
            k,
            mode: SearchMode::Exact,
        }
    }

    /// ng-approximate k-NN search with the given effort knob.
    pub fn ng(k: usize, nprobe: usize) -> Self {
        Self {
            k,
            mode: SearchMode::Ng { nprobe },
        }
    }

    /// ε-approximate k-NN search.
    pub fn epsilon(k: usize, epsilon: f32) -> Self {
        Self {
            k,
            mode: SearchMode::Epsilon { epsilon },
        }
    }

    /// δ-ε-approximate k-NN search.
    pub fn delta_epsilon(k: usize, delta: f32, epsilon: f32) -> Self {
        Self {
            k,
            mode: SearchMode::DeltaEpsilon { epsilon, delta },
        }
    }
}

/// The outcome of answering one query: the neighbors found plus the cost
/// counters accumulated while finding them.
#[derive(Debug, Clone, Default)]
pub struct SearchResult {
    /// Neighbors in increasing distance order (at most `k`).
    pub neighbors: Answer,
    /// Cost counters for this query.
    pub stats: QueryStats,
}

impl SearchResult {
    /// Creates a result from neighbors and stats.
    pub fn new(neighbors: Answer, stats: QueryStats) -> Self {
        Self { neighbors, stats }
    }

    /// Distance of the worst (furthest) returned neighbor, or `+∞` if empty.
    pub fn kth_distance(&self) -> f32 {
        self.neighbors
            .last()
            .map(|n| n.distance)
            .unwrap_or(f32::INFINITY)
    }
}

/// The most neighbors [`TopK::new`] reserves room for before the first
/// push.
const TOP_K_RESERVE: usize = 4096;

/// A bounded max-heap that maintains the `k` best (smallest-distance)
/// neighbors seen so far. All indexes use this to build their answer sets.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<Neighbor>,
}

impl TopK {
    /// Creates a container for the best `k` neighbors.
    ///
    /// Room for at most 4096 neighbors is reserved up front and the heap
    /// grows past it on demand, so a `k` far beyond the collection costs
    /// only what is actually found.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k.min(TOP_K_RESERVE) + 1),
        }
    }

    /// Offers a candidate; keeps it only if it is among the best `k` so far.
    /// Returns `true` if the candidate was kept.
    pub fn push(&mut self, candidate: Neighbor) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(candidate);
            true
        } else if candidate < *self.heap.peek().expect("non-empty") {
            self.heap.pop();
            self.heap.push(candidate);
            true
        } else {
            false
        }
    }

    /// The current k-th best distance (`+∞` until `k` candidates are held).
    ///
    /// This is the best-so-far pruning threshold of Algorithms 1 and 2.
    pub fn kth_distance(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap.peek().map(|n| n.distance).unwrap_or(f32::INFINITY)
        }
    }

    /// Number of neighbors currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no neighbor has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `k` neighbors are held (the heap is full).
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Consumes the container and returns neighbors sorted by increasing
    /// distance.
    pub fn into_sorted(self) -> Answer {
        let mut v = self.heap.into_vec();
        v.sort();
        v
    }
}

/// Merges per-shard top-k answer lists into the global top-k — the merge
/// kernel of sharded (partition-and-aggregate) search.
///
/// Each input list holds the best neighbors one shard found, with indices
/// already mapped to **global** ids (shards partition one dataset, so
/// global ids are unique across lists). The output is exactly the `k`
/// smallest neighbors of the concatenation under the total [`Neighbor`]
/// order — distance first, ties broken by global id — so the result is
/// deterministic regardless of shard count, shard order, or the order
/// answers arrived in. Lists need not be sorted; fewer than `k` total
/// candidates yield them all, and `k == 0` yields an empty answer.
///
/// The equivalence contract built on this: an exact search fanned out over
/// any partition of a dataset and merged here returns bit-identical
/// neighbors and distances to the unsharded exact search (property-tested
/// in this crate, asserted zoo-wide in `tests/integration_shard.rs`).
pub fn merge_top_k(k: usize, shard_answers: &[Answer]) -> Answer {
    if k == 0 {
        return Vec::new();
    }
    let mut top = TopK::new(k);
    for answer in shard_answers {
        for &neighbor in answer {
            top.push(neighbor);
        }
    }
    top.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_ordering_is_total_and_tie_broken_by_index() {
        let a = Neighbor::new(3, 1.0);
        let b = Neighbor::new(1, 1.0);
        let c = Neighbor::new(0, 2.0);
        assert!(b < a);
        assert!(a < c);
        let mut v = vec![c, a, b];
        v.sort();
        assert_eq!(v, vec![b, a, c]);
    }

    #[test]
    fn search_mode_accessors() {
        assert_eq!(SearchMode::Exact.epsilon(), 0.0);
        assert_eq!(SearchMode::Exact.delta(), 1.0);
        assert_eq!(SearchMode::Exact.nprobe(), 0);
        assert_eq!(SearchMode::Ng { nprobe: 5 }.nprobe(), 5);
        assert_eq!(SearchMode::Ng { nprobe: 5 }.label(), "ng");
        let m = SearchMode::DeltaEpsilon {
            epsilon: 2.0,
            delta: 0.9,
        };
        assert_eq!(m.epsilon(), 2.0);
        assert_eq!(m.delta(), 0.9);
        assert_eq!(SearchParams::epsilon(10, 1.0).mode.label(), "eps");
        assert_eq!(SearchParams::exact(1).k, 1);
        assert_eq!(SearchParams::ng(5, 2).k, 5);
        assert_eq!(SearchParams::delta_epsilon(5, 0.5, 1.0).mode.delta(), 0.5);
    }

    #[test]
    fn search_keys_group_identical_params_and_separate_different_ones() {
        use std::collections::HashSet;
        let same = [
            SearchParams::ng(10, 16).key(),
            SearchParams::ng(10, 16).key(),
        ];
        assert_eq!(same[0], same[1]);
        let distinct: HashSet<SearchKey> = [
            SearchParams::exact(10),
            SearchParams::exact(11),
            SearchParams::ng(10, 16),
            SearchParams::ng(10, 17),
            SearchParams::epsilon(10, 1.0),
            SearchParams::epsilon(10, 2.0),
            SearchParams::delta_epsilon(10, 0.9, 1.0),
            SearchParams::delta_epsilon(10, 0.99, 1.0),
            SearchParams::delta_epsilon(10, 0.9, 2.0),
        ]
        .iter()
        .map(|p| p.key())
        .collect();
        assert_eq!(distinct.len(), 9, "every distinct setting gets its own key");
        // Bit-pattern semantics: 0.0 and -0.0 are different requests.
        assert_ne!(
            SearchParams::epsilon(5, 0.0).key(),
            SearchParams::epsilon(5, -0.0).key()
        );
        // Keys are ordered, so they can key a BTreeMap deterministically.
        let mut keys = vec![
            SearchParams::ng(10, 2).key(),
            SearchParams::exact(10).key(),
        ];
        keys.sort();
        assert_eq!(keys[0], SearchParams::exact(10).key());
    }

    #[test]
    fn topk_keeps_best_k() {
        let mut t = TopK::new(3);
        assert!(t.is_empty());
        assert_eq!(t.kth_distance(), f32::INFINITY);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            t.push(Neighbor::new(i, *d));
        }
        assert!(t.is_full());
        assert_eq!(t.len(), 3);
        assert_eq!(t.kth_distance(), 3.0);
        let sorted = t.into_sorted();
        let dists: Vec<f32> = sorted.iter().map(|n| n.distance).collect();
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn topk_rejects_worse_candidates_when_full() {
        let mut t = TopK::new(2);
        t.push(Neighbor::new(0, 1.0));
        t.push(Neighbor::new(1, 2.0));
        assert!(!t.push(Neighbor::new(2, 3.0)));
        assert!(t.push(Neighbor::new(3, 0.5)));
        let sorted = t.into_sorted();
        assert_eq!(sorted[0].index, 3);
        assert_eq!(sorted[1].index, 0);
    }

    #[test]
    fn topk_with_a_k_beyond_memory_holds_what_it_is_given() {
        // Reserving `k + 1` slots of this overflows the address space.
        let mut t = TopK::new(usize::MAX / 2);
        for (i, d) in [3.0, 1.0, 2.0].into_iter().enumerate() {
            assert!(t.push(Neighbor::new(i, d)));
        }
        assert!(!t.is_full());
        assert_eq!(t.kth_distance(), f32::INFINITY);
        let ids: Vec<usize> = t.into_sorted().iter().map(|n| n.index).collect();
        assert_eq!(ids, vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn topk_rejects_zero_k() {
        let _ = TopK::new(0);
    }

    #[test]
    fn merge_top_k_equals_top_k_of_concatenation() {
        let a = vec![Neighbor::new(0, 1.0), Neighbor::new(2, 3.0)];
        let b = vec![Neighbor::new(5, 0.5), Neighbor::new(7, 2.0)];
        let c = vec![Neighbor::new(9, 4.0)];
        let merged = merge_top_k(3, &[a.clone(), b.clone(), c.clone()]);
        let mut concat: Vec<Neighbor> = [a, b, c].concat();
        concat.sort();
        concat.truncate(3);
        assert_eq!(merged, concat);
        // Fewer candidates than k yields everything, still sorted.
        let short = merge_top_k(10, &[vec![Neighbor::new(1, 2.0)], vec![Neighbor::new(0, 1.0)]]);
        assert_eq!(short, vec![Neighbor::new(0, 1.0), Neighbor::new(1, 2.0)]);
        // k == 0 and empty inputs are legal.
        assert!(merge_top_k(0, &[vec![Neighbor::new(1, 1.0)]]).is_empty());
        assert!(merge_top_k(3, &[]).is_empty());
        assert!(merge_top_k(3, &[Vec::new(), Vec::new()]).is_empty());
    }

    #[test]
    fn merge_top_k_breaks_duplicate_distance_ties_by_global_id() {
        // Three shards all report distance 1.0 at the k boundary; the
        // winners must be the smallest global ids, independent of shard
        // order.
        let shards = vec![
            vec![Neighbor::new(30, 1.0), Neighbor::new(31, 1.0)],
            vec![Neighbor::new(10, 1.0), Neighbor::new(40, 2.0)],
            vec![Neighbor::new(20, 1.0)],
        ];
        let merged = merge_top_k(3, &shards);
        assert_eq!(
            merged,
            vec![
                Neighbor::new(10, 1.0),
                Neighbor::new(20, 1.0),
                Neighbor::new(30, 1.0)
            ]
        );
        // Reversing the shard order changes nothing: the merge is
        // deterministic by construction.
        let reversed: Vec<Answer> = shards.into_iter().rev().collect();
        assert_eq!(merge_top_k(3, &reversed), merged);
    }

    #[test]
    fn search_result_kth_distance() {
        let r = SearchResult::default();
        assert_eq!(r.kth_distance(), f32::INFINITY);
        let r = SearchResult::new(
            vec![Neighbor::new(0, 1.0), Neighbor::new(1, 2.0)],
            QueryStats::default(),
        );
        assert_eq!(r.kth_distance(), 2.0);
    }
}
