//! Index-invariant exact and approximate k-NN search.
//!
//! This module implements the paper's Algorithm 1 (exact 1-NN generalized to
//! k-NN) and Algorithm 2 (its δ-ε-approximate extension) once, generically,
//! over any index exposing the [`HierarchicalIndex`] trait. DSTree and
//! iSAX2+ reuse this driver directly, which mirrors the paper's point that
//! the modification applies to *any* index built by conservative recursive
//! partitioning.
//!
//! The driver unifies all four guarantee levels of the taxonomy:
//!
//! * **exact** — ε = 0, δ = 1, no leaf budget;
//! * **ε-approximate** — prune with `bsf / (1 + ε)` instead of `bsf`;
//! * **δ-ε-approximate** — additionally stop once
//!   `bsf ≤ (1 + ε) · r_δ` (the ball around the query of radius `r_δ` is
//!   empty with probability δ, so the current answer already satisfies the
//!   guarantee with that probability);
//! * **ng-approximate** — stop after visiting `nprobe` leaves, no guarantee.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::histogram::DistanceHistogram;
use crate::index::{HierarchicalIndex, NodeId};
use crate::query::{Neighbor, SearchMode, SearchParams, SearchResult, TopK};
use crate::stats::QueryStats;

/// Fully-resolved search controls derived from a [`SearchParams`] and, for
/// probabilistic modes, a [`DistanceHistogram`].
#[derive(Debug, Clone, Copy)]
pub struct SearchSpec {
    /// Number of neighbors to return.
    pub k: usize,
    /// Relative error bound ε (0 ⇒ exact pruning).
    pub epsilon: f32,
    /// The δ-radius; 0 disables the probabilistic stop condition.
    pub r_delta: f32,
    /// Maximum number of leaves to visit (ng-approximate); `None` means
    /// unbounded.
    pub max_leaves: Option<usize>,
}

impl SearchSpec {
    /// Exact k-NN.
    pub fn exact(k: usize) -> Self {
        Self {
            k,
            epsilon: 0.0,
            r_delta: 0.0,
            max_leaves: None,
        }
    }

    /// Translates user-facing [`SearchParams`] into a search spec.
    ///
    /// `histogram` provides the distance distribution needed to estimate
    /// `r_δ`; it is only consulted for [`SearchMode::DeltaEpsilon`] with
    /// δ < 1.
    pub fn from_params(params: &SearchParams, histogram: Option<&DistanceHistogram>) -> Self {
        match params.mode {
            SearchMode::Exact => Self::exact(params.k),
            SearchMode::Ng { nprobe } => Self {
                k: params.k,
                epsilon: 0.0,
                r_delta: 0.0,
                max_leaves: Some(nprobe.max(1)),
            },
            SearchMode::Epsilon { epsilon } => Self {
                k: params.k,
                epsilon,
                r_delta: 0.0,
                max_leaves: None,
            },
            SearchMode::DeltaEpsilon { epsilon, delta } => {
                let r_delta = if delta < 1.0 {
                    histogram.map(|h| h.r_delta(delta)).unwrap_or(0.0)
                } else {
                    0.0
                };
                Self {
                    k: params.k,
                    epsilon,
                    r_delta,
                    max_leaves: None,
                }
            }
        }
    }
}

/// A queue entry ordered by lower-bound distance (min-heap via `Reverse`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueEntry {
    lb: f32,
    node: NodeId,
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.lb
            .total_cmp(&other.lb)
            .then_with(|| self.node.cmp(&other.node))
    }
}

/// Runs Algorithm 2 (which subsumes Algorithm 1) over `index` and returns
/// the neighbors found together with cost counters.
///
/// # Panics
/// Panics if `spec.k == 0` (see [`TopK::new`]); [`SearchSpec::from_params`]
/// of a query that passed [`crate::check_query`] never asks for it.
pub fn knn_search<I: HierarchicalIndex + ?Sized>(
    index: &I,
    query: &[f32],
    spec: &SearchSpec,
) -> SearchResult {
    let mut stats = QueryStats::new();
    let mut top = TopK::new(spec.k);
    let mut queue = BinaryHeap::new();

    // The query-only half of every lower bound below, computed once.
    let prepared = index.prepare(query);

    // Lines 2-5 / 4-7: seed the queue with the root node(s).
    for &root in index.roots() {
        let lb = index.min_dist(query, &prepared, root);
        stats.lower_bound_computations += 1;
        queue.push(Reverse(QueueEntry { lb, node: root }));
    }

    let one_plus_eps = 1.0 + spec.epsilon;
    let delta_threshold = one_plus_eps * spec.r_delta;
    let mut leaves_visited = 0usize;

    // Lines 8-21: best-first traversal with ε-relaxed pruning.
    while let Some(Reverse(entry)) = queue.pop() {
        let bsf = top.kth_distance();
        if entry.lb > bsf / one_plus_eps {
            // All remaining entries have even larger lower bounds.
            break;
        }
        stats.nodes_visited += 1;
        if index.is_leaf(entry.node) {
            leaves_visited += 1;
            stats.leaves_visited += 1;
            let scanned = index.refine_leaf(
                entry.node,
                query,
                &prepared,
                top.kth_distance(),
                &mut stats,
                &mut |id, d| {
                    top.push(Neighbor::new(id, d));
                    top.kth_distance()
                },
            );
            stats.series_scanned += scanned;
            stats.distance_computations += scanned;
            // Line 16 of Algorithm 2: probabilistic stop condition.
            if spec.r_delta > 0.0 && top.is_full() && top.kth_distance() <= delta_threshold {
                stats.delta_stop_triggered = true;
                break;
            }
            // ng-approximate leaf budget.
            if let Some(max_leaves) = spec.max_leaves {
                if leaves_visited >= max_leaves {
                    break;
                }
            }
        } else {
            // The surviving children enter the queue in one `extend`,
            // which restores the heap once for the lot (O(n) for a wide
            // fan-out) instead of sifting each one up. `QueueEntry`'s
            // order is total and node ids are unique, so the pop
            // sequence is the one n pushes would give.
            let bsf = top.kth_distance();
            let keep_all = !top.is_full();
            let children = index.children(entry.node);
            stats.lower_bound_computations += children.len() as u64;
            queue.extend(children.iter().filter_map(|&child| {
                let lb = index.min_dist(query, &prepared, child);
                (lb < bsf / one_plus_eps || keep_all)
                    .then_some(Reverse(QueueEntry { lb, node: child }))
            }));
        }
    }

    SearchResult::new(top.into_sorted(), stats)
}

/// Predicts the leaf a best-first search would refine first: a greedy
/// descent from the closest root, following the child with the smallest
/// lower bound at every level (the first of several equally close ones).
/// Entirely I/O-free — only `min_dist` is consulted, once per candidate
/// among two or more. `None` on an empty hierarchy (no roots, or an
/// internal node without children).
///
/// No search path calls this: a batch predicts no working set. It stays
/// only because the benchmark's `core.predict_first_leaf_*` probes time it.
pub fn predict_first_leaf<I: HierarchicalIndex + ?Sized>(
    index: &I,
    query: &[f32],
) -> Option<usize> {
    let prepared = index.prepare(query);
    let closest = |nodes: &[NodeId]| match nodes {
        // A lone candidate (the usual single root) wins without a bound.
        [only] => Some(*only),
        _ => nodes
            .iter()
            .map(|&node| (index.min_dist(query, &prepared, node), node))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, node)| node),
    };
    let mut node = closest(index.roots())?;
    while !index.is_leaf(node) {
        node = closest(index.children(node))?;
    }
    Some(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean;
    use crate::series::Dataset;

    /// A toy balanced binary tree over 1-D points, used to validate the
    /// generic driver without depending on any concrete index crate.
    struct ToyTree {
        dataset: Dataset,
        // Nodes: (lo, hi) ranges over the sorted order; leaves hold <= cap.
        nodes: Vec<ToyNode>,
        order: Vec<usize>,
        /// How many lower bounds have been computed against this tree.
        min_dist_calls: std::cell::Cell<u64>,
        /// Every node expanded (`children`) or refined (`refine_leaf`), in
        /// call order.
        visited: std::cell::RefCell<Vec<NodeId>>,
    }

    struct ToyNode {
        lo: usize,
        hi: usize,
        min: f32,
        max: f32,
        children: Vec<NodeId>,
    }

    impl ToyTree {
        fn build(values: &[f32], leaf_cap: usize) -> Self {
            Self::build_wide(values, leaf_cap, 2)
        }

        /// A tree whose internal nodes have up to `fanout` children.
        fn build_wide(values: &[f32], leaf_cap: usize, fanout: usize) -> Self {
            let mut order: Vec<usize> = (0..values.len()).collect();
            order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
            let mut dataset = Dataset::new(1).unwrap();
            for &v in values {
                dataset.push(&[v]).unwrap();
            }
            let mut tree = ToyTree {
                dataset,
                nodes: Vec::new(),
                order,
                min_dist_calls: std::cell::Cell::new(0),
                visited: Default::default(),
            };
            tree.split(0, values.len(), leaf_cap, fanout, values);
            tree
        }

        /// Visits every series of leaf `node` with its id and raw values.
        fn visit_leaf(&self, node: NodeId, visit: &mut dyn FnMut(usize, &[f32])) {
            self.visited.borrow_mut().push(node);
            let n = &self.nodes[node];
            for &idx in &self.order[n.lo..n.hi] {
                visit(idx, self.dataset.series(idx));
            }
        }

        fn split(
            &mut self,
            lo: usize,
            hi: usize,
            cap: usize,
            fanout: usize,
            values: &[f32],
        ) -> NodeId {
            let id = self.nodes.len();
            let slice = &self.order[lo..hi];
            let min = slice.iter().map(|&i| values[i]).fold(f32::INFINITY, f32::min);
            let max = slice
                .iter()
                .map(|&i| values[i])
                .fold(f32::NEG_INFINITY, f32::max);
            self.nodes.push(ToyNode {
                lo,
                hi,
                min,
                max,
                children: Vec::new(),
            });
            if hi - lo > cap {
                let step = (hi - lo).div_ceil(fanout);
                for start in (lo..hi).step_by(step) {
                    let child = self.split(start, (start + step).min(hi), cap, fanout, values);
                    self.nodes[id].children.push(child);
                }
            }
            id
        }
    }

    impl HierarchicalIndex for ToyTree {
        type Prepared = ();

        fn roots(&self) -> &[NodeId] {
            &[0]
        }
        fn is_leaf(&self, node: NodeId) -> bool {
            self.nodes[node].children.is_empty()
        }
        fn children(&self, node: NodeId) -> &[NodeId] {
            self.visited.borrow_mut().push(node);
            &self.nodes[node].children
        }
        fn prepare(&self, _query: &[f32]) {}
        fn min_dist(&self, query: &[f32], _prepared: &(), node: NodeId) -> f32 {
            self.min_dist_calls.set(self.min_dist_calls.get() + 1);
            let q = query[0];
            let n = &self.nodes[node];
            if q < n.min {
                n.min - q
            } else if q > n.max {
                q - n.max
            } else {
                0.0
            }
        }
        fn refine_leaf(
            &self,
            node: NodeId,
            query: &[f32],
            _prepared: &(),
            best_so_far: f32,
            _stats: &mut QueryStats,
            accept: &mut dyn FnMut(usize, f32) -> f32,
        ) -> u64 {
            let mut scanned = 0u64;
            let mut bound = best_so_far;
            self.visit_leaf(node, &mut |id, series| {
                scanned += 1;
                if let Some(d) = crate::distance::euclidean_early_abandon(query, series, bound) {
                    bound = accept(id, d);
                }
            });
            scanned
        }
        fn leaf_size(&self, node: NodeId) -> usize {
            let n = &self.nodes[node];
            if self.is_leaf(node) {
                n.hi - n.lo
            } else {
                0
            }
        }
    }

    fn brute_force(values: &[f32], q: f32, k: usize) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = values
            .iter()
            .enumerate()
            .map(|(i, &x)| Neighbor::new(i, euclidean(&[x], &[q])))
            .collect();
        v.sort();
        v.truncate(k);
        v
    }

    fn sample_values(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37) % 101) as f32 / 3.0).collect()
    }

    #[test]
    fn exact_search_matches_brute_force() {
        let values = sample_values(200);
        let tree = ToyTree::build(&values, 8);
        for q in [0.0f32, 5.5, 17.2, 40.0] {
            for k in [1usize, 5, 20] {
                let res = knn_search(&tree, &[q], &SearchSpec::exact(k));
                let expected = brute_force(&values, q, k);
                let got: Vec<f32> = res.neighbors.iter().map(|n| n.distance).collect();
                let want: Vec<f32> = expected.iter().map(|n| n.distance).collect();
                assert_eq!(got.len(), k);
                for (g, w) in got.iter().zip(want.iter()) {
                    assert!((g - w).abs() < 1e-5, "q={q} k={k}: {got:?} vs {want:?}");
                }
            }
        }
    }

    #[test]
    fn ng_search_visits_at_most_nprobe_leaves() {
        let values = sample_values(200);
        let tree = ToyTree::build(&values, 8);
        let spec = SearchSpec {
            k: 3,
            epsilon: 0.0,
            r_delta: 0.0,
            max_leaves: Some(1),
        };
        let res = knn_search(&tree, &[12.0], &spec);
        assert_eq!(res.stats.leaves_visited, 1);
        assert_eq!(res.neighbors.len(), 3);
        let spec2 = SearchSpec {
            max_leaves: Some(3),
            ..spec
        };
        let res2 = knn_search(&tree, &[12.0], &spec2);
        assert!(res2.stats.leaves_visited <= 3);
        // More leaves can only improve (or keep) the answer.
        assert!(res2.kth_distance() <= res.kth_distance() + 1e-6);
    }

    #[test]
    fn epsilon_guarantee_holds() {
        let values = sample_values(500);
        let tree = ToyTree::build(&values, 4);
        for &eps in &[0.0f32, 0.5, 1.0, 3.0] {
            for q in [3.3f32, 11.0, 29.9] {
                let spec = SearchSpec {
                    k: 5,
                    epsilon: eps,
                    r_delta: 0.0,
                    max_leaves: None,
                };
                let res = knn_search(&tree, &[q], &spec);
                let exact = brute_force(&values, q, 5);
                // Definition 5: every returned distance is within (1+eps) of the
                // exact k-th NN distance.
                let bound = (1.0 + eps) * exact[4].distance + 1e-5;
                for n in &res.neighbors {
                    assert!(n.distance <= bound, "eps={eps} q={q}");
                }
            }
        }
    }

    #[test]
    fn epsilon_reduces_work() {
        let values = sample_values(2000);
        let tree = ToyTree::build(&values, 4);
        let exact = knn_search(&tree, &[15.0], &SearchSpec::exact(10));
        let relaxed = knn_search(
            &tree,
            &[15.0],
            &SearchSpec {
                k: 10,
                epsilon: 2.0,
                r_delta: 0.0,
                max_leaves: None,
            },
        );
        assert!(relaxed.stats.leaves_visited <= exact.stats.leaves_visited);
        assert!(relaxed.stats.distance_computations <= exact.stats.distance_computations);
    }

    #[test]
    fn delta_stop_triggers_with_large_radius() {
        let values = sample_values(500);
        let tree = ToyTree::build(&values, 4);
        let spec = SearchSpec {
            k: 1,
            epsilon: 0.0,
            r_delta: 1e6, // absurdly large radius: first leaf should satisfy it
            max_leaves: None,
        };
        let res = knn_search(&tree, &[10.0], &spec);
        assert!(res.stats.delta_stop_triggered);
        assert_eq!(res.stats.leaves_visited, 1);
    }

    #[test]
    fn predict_first_leaf_bounds_each_candidate_once_and_keeps_the_first_minimum() {
        // 64 points, leaves of 2, fan-out 8: two internal levels, so the
        // greedy descent bounds eight children twice (the lone root needs
        // no bound). Comparing pairs the old way took 2 * 7 per level.
        let values = sample_values(64);
        let tree = ToyTree::build_wide(&values, 2, 8);
        for q in [0.0f32, 9.1, 17.2, 40.0] {
            tree.min_dist_calls.set(0);
            let leaf = predict_first_leaf(&tree, &[q]).unwrap();
            assert!(tree.is_leaf(leaf));
            assert_eq!(tree.min_dist_calls.get(), 8 + 8, "q={q}");
            // The prediction is the leaf a one-leaf search refines, and the
            // search counts exactly the bounds it computed.
            tree.min_dist_calls.set(0);
            let one_leaf = SearchSpec {
                max_leaves: Some(1),
                ..SearchSpec::exact(1)
            };
            let res = knn_search(&tree, &[q], &one_leaf);
            assert_eq!(
                res.stats.lower_bound_computations,
                tree.min_dist_calls.get()
            );
            let mut members = Vec::new();
            tree.visit_leaf(leaf, &mut |id, _| members.push(id));
            assert!(members.contains(&res.neighbors[0].index), "q={q}");
        }
        // Two children exactly as close as each other: the first one wins,
        // as `Iterator::min_by` has always resolved it.
        let tree = ToyTree::build(&[0.0, 1.0, 2.0, 3.0], 2);
        assert_eq!(tree.children(0), &[1, 2]);
        assert_eq!(predict_first_leaf(&tree, &[1.5]), Some(1));
    }

    /// Exact best-first search pushing one child at a time — what the
    /// driver did before it loaded the queue in bulk. Returns the nodes in
    /// the order they were visited.
    fn visit_order_pushing_one_by_one(tree: &ToyTree, q: f32, k: usize) -> Vec<NodeId> {
        let mut order = Vec::new();
        let mut top = TopK::new(k);
        let mut queue = BinaryHeap::new();
        let lb = tree.min_dist(&[q], &(), 0);
        queue.push(Reverse(QueueEntry { lb, node: 0 }));
        while let Some(Reverse(entry)) = queue.pop() {
            if entry.lb > top.kth_distance() {
                break;
            }
            order.push(entry.node);
            if tree.is_leaf(entry.node) {
                tree.visit_leaf(entry.node, &mut |id, series| {
                    top.push(Neighbor::new(id, euclidean(&[q], series)));
                });
            } else {
                let bsf = top.kth_distance();
                for &child in tree.children(entry.node) {
                    let lb = tree.min_dist(&[q], &(), child);
                    if lb < bsf || !top.is_full() {
                        queue.push(Reverse(QueueEntry { lb, node: child }));
                    }
                }
            }
        }
        order
    }

    #[test]
    fn bulk_loading_the_queue_visits_nodes_in_the_one_push_per_child_order() {
        // Eight distinct values, eight copies each, fan-out 8: the eight
        // leaves under a child all tie, and children at equal distance
        // either side of the query tie with each other.
        let values: Vec<f32> = (0..64).map(|i| (i / 8) as f32).collect();
        let tree = ToyTree::build_wide(&values, 2, 8);
        for q in [-1.0f32, 0.0, 3.5, 4.0, 6.5, 9.0] {
            for k in [1usize, 3, 9, 20] {
                tree.visited.borrow_mut().clear();
                let res = knn_search(&tree, &[q], &SearchSpec::exact(k));
                let bulk = std::mem::take(&mut *tree.visited.borrow_mut());
                assert_eq!(bulk.len() as u64, res.stats.nodes_visited);
                assert_eq!(
                    bulk,
                    visit_order_pushing_one_by_one(&tree, q, k),
                    "q={q} k={k}"
                );
            }
        }
    }

    #[test]
    fn from_params_translation() {
        let p = SearchParams::exact(7);
        let s = SearchSpec::from_params(&p, None);
        assert_eq!(s.k, 7);
        assert_eq!(s.epsilon, 0.0);
        assert_eq!(s.max_leaves, None);

        let p = SearchParams::ng(5, 3);
        let s = SearchSpec::from_params(&p, None);
        assert_eq!(s.max_leaves, Some(3));

        let p = SearchParams::epsilon(5, 2.0);
        let s = SearchSpec::from_params(&p, None);
        assert_eq!(s.epsilon, 2.0);
        assert_eq!(s.r_delta, 0.0);

        // delta < 1 without a histogram falls back to r_delta = 0.
        let p = SearchParams::delta_epsilon(5, 0.5, 1.0);
        let s = SearchSpec::from_params(&p, None);
        assert_eq!(s.r_delta, 0.0);

        // delta = 1 never consults the histogram.
        let h = DistanceHistogram::from_samples(&[1.0, 2.0, 3.0], 4, 100);
        let p = SearchParams::delta_epsilon(5, 1.0, 1.0);
        let s = SearchSpec::from_params(&p, Some(&h));
        assert_eq!(s.r_delta, 0.0);

        let p = SearchParams::delta_epsilon(5, 0.5, 1.0);
        let s = SearchSpec::from_params(&p, Some(&h));
        assert!(s.r_delta > 0.0);
    }
}
