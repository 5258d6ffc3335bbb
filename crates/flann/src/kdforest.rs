//! Randomized kd-tree forest.
//!
//! Each tree chooses, at every node, a random split dimension among the few
//! dimensions with the highest variance (Silpa-Anan & Hartley). All trees
//! are searched simultaneously with one shared priority queue of unexplored
//! branches, and the search stops after `max_checks` point comparisons.

use hydra_core::{Dataset, Error, Neighbor, QueryStats, Result, SearchResult, TopK};
use hydra_persist::{Fingerprint, PersistError, Section, SnapshotReader, SnapshotWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of the randomized kd-forest [`crate::Flann`] selects for
/// high-dimensional or small collections.
#[derive(Debug, Clone, Copy)]
pub struct KdForestConfig {
    /// Number of randomized trees.
    pub num_trees: usize,
    /// Maximum number of points per leaf.
    pub leaf_size: usize,
    /// Number of top-variance dimensions the random split dimension is
    /// drawn from (FLANN uses 5).
    pub top_dims: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KdForestConfig {
    fn default() -> Self {
        Self {
            num_trees: 4,
            leaf_size: 16,
            top_dims: 5,
            seed: 0x5D,
        }
    }
}

#[derive(Debug)]
enum KdNode {
    Leaf {
        points: Vec<u32>,
    },
    Split {
        dim: usize,
        value: f32,
        left: usize,
        right: usize,
    },
}

/// An ensemble of randomized kd-trees over the dataset its [`crate::Flann`]
/// holds.
pub(crate) struct KdForest {
    /// Per tree: an arena of nodes, root at index 0.
    trees: Vec<Vec<KdNode>>,
}

impl KdForest {
    /// Builds the forest over a non-empty `dataset`.
    pub(crate) fn build(dataset: &Dataset, config: KdForestConfig) -> Result<Self> {
        if config.num_trees == 0 || config.leaf_size == 0 {
            return Err(Error::InvalidParameter(
                "kd-forest needs at least one tree and a positive leaf size".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut trees = Vec::with_capacity(config.num_trees);
        for _ in 0..config.num_trees {
            let mut nodes = Vec::new();
            let ids: Vec<u32> = (0..dataset.len() as u32).collect();
            build_node(dataset, ids, &config, &mut nodes, &mut rng);
            trees.push(nodes);
        }
        Ok(Self { trees })
    }

    /// Bytes of the node arenas (the raw vectors are [`crate::Flann`]'s).
    pub(crate) fn memory_footprint(&self) -> usize {
        self.trees
            .iter()
            .map(|t| t.len() * std::mem::size_of::<KdNode>())
            .sum()
    }

    /// Hashes the build parameters into a snapshot fingerprint (persistence
    /// hook of [`crate::Flann`]).
    pub(crate) fn push_fingerprint(config: &KdForestConfig, f: &mut Fingerprint) {
        f.push_usize(config.num_trees);
        f.push_usize(config.leaf_size);
        f.push_usize(config.top_dims);
        f.push_u64(config.seed);
    }

    /// Appends the forest's structure (every tree's node arena) to a
    /// snapshot being written (persistence hook).
    pub(crate) fn persist_sections(&self, data: &Dataset, w: &mut SnapshotWriter) {
        let mut meta = Section::new();
        meta.put_usize(data.series_len());
        meta.put_usize(data.len());
        meta.put_usize(self.trees.len());
        w.push(meta);

        let mut trees = Section::new();
        for nodes in &self.trees {
            trees.put_usize(nodes.len());
            for node in nodes {
                match node {
                    KdNode::Leaf { points } => {
                        trees.put_u8(0);
                        trees.put_u32s(points);
                    }
                    KdNode::Split {
                        dim,
                        value,
                        left,
                        right,
                    } => {
                        trees.put_u8(1);
                        trees.put_usize(*dim);
                        trees.put_f32(*value);
                        trees.put_usize(*left);
                        trees.put_usize(*right);
                    }
                }
            }
        }
        w.push(trees);
    }

    /// Restores a forest from the sections written by
    /// [`Self::persist_sections`] (persistence hook).
    pub(crate) fn restore_sections(
        r: &mut SnapshotReader,
        dataset: &Dataset,
    ) -> hydra_persist::Result<Self> {
        let mut meta = r.next_section()?;
        let series_len = meta.get_usize()?;
        let n = meta.get_usize()?;
        let tree_count = meta.get_usize()?;
        if series_len != dataset.series_len() || n != dataset.len() {
            return Err(PersistError::Corrupt(
                "snapshot metadata disagrees with the dataset".into(),
            ));
        }

        let mut sec = r.next_section()?;
        let mut trees = Vec::with_capacity(tree_count);
        for _ in 0..tree_count {
            let node_count = sec.get_usize()?;
            let mut nodes = Vec::with_capacity(node_count);
            for _ in 0..node_count {
                nodes.push(match sec.get_u8()? {
                    0 => {
                        let points = sec.get_u32s()?;
                        if points.iter().any(|&p| p as usize >= n) {
                            return Err(PersistError::Corrupt(
                                "kd leaf point out of range".into(),
                            ));
                        }
                        KdNode::Leaf { points }
                    }
                    1 => {
                        let dim = sec.get_usize()?;
                        let value = sec.get_f32()?;
                        let left = sec.get_usize()?;
                        let right = sec.get_usize()?;
                        if dim >= series_len || left >= node_count || right >= node_count {
                            return Err(PersistError::Corrupt(
                                "kd split references a missing node or dimension".into(),
                            ));
                        }
                        KdNode::Split {
                            dim,
                            value,
                            left,
                            right,
                        }
                    }
                    tag => {
                        return Err(PersistError::Corrupt(format!(
                            "invalid kd-node tag {tag}"
                        )))
                    }
                });
            }
            trees.push(nodes);
        }

        Ok(Self { trees })
    }

    /// Searches every tree at once through one shared branch queue and
    /// stops after `max_checks` point comparisons.
    pub(crate) fn search(
        &self,
        data: &Dataset,
        query: &[f32],
        k: usize,
        max_checks: usize,
    ) -> SearchResult {
        let mut stats = QueryStats::new();
        let mut top = TopK::new(k);
        let mut checked = vec![false; data.len()];
        let mut checks = 0usize;

        // Shared branch queue across all trees: (lower bound, tree, node).
        #[derive(PartialEq)]
        struct Branch(f32, usize, usize);
        impl Eq for Branch {}
        impl PartialOrd for Branch {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Branch {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0
                    .total_cmp(&other.0)
                    .then(self.1.cmp(&other.1))
                    .then(self.2.cmp(&other.2))
            }
        }
        let mut queue: BinaryHeap<Reverse<Branch>> = BinaryHeap::new();
        for t in 0..self.trees.len() {
            queue.push(Reverse(Branch(0.0, t, 0)));
        }

        while let Some(Reverse(Branch(lb, tree, mut node))) = queue.pop() {
            if checks >= max_checks {
                break;
            }
            if top.is_full() && lb > top.kth_distance() {
                continue;
            }
            // Descend to a leaf, pushing the unexplored sibling branches.
            loop {
                match &self.trees[tree][node] {
                    KdNode::Leaf { points } => {
                        stats.leaves_visited += 1;
                        for &id in points {
                            let id = id as usize;
                            if checked[id] || checks >= max_checks {
                                continue;
                            }
                            checked[id] = true;
                            checks += 1;
                            stats.distance_computations += 1;
                            stats.series_scanned += 1;
                            if let Some(d) = hydra_core::euclidean_early_abandon(
                                query,
                                data.series(id),
                                top.kth_distance(),
                            ) {
                                top.push(Neighbor::new(id, d));
                            }
                        }
                        break;
                    }
                    KdNode::Split {
                        dim,
                        value,
                        left,
                        right,
                    } => {
                        let diff = query[*dim] - value;
                        let (near, far) = if diff < 0.0 {
                            (*left, *right)
                        } else {
                            (*right, *left)
                        };
                        queue.push(Reverse(Branch(lb.max(diff.abs()), tree, far)));
                        node = near;
                    }
                }
            }
        }
        SearchResult::new(top.into_sorted(), stats)
    }
}

/// Recursively builds one node; returns its index in the arena.
fn build_node(
    data: &Dataset,
    ids: Vec<u32>,
    config: &KdForestConfig,
    nodes: &mut Vec<KdNode>,
    rng: &mut StdRng,
) -> usize {
    let my_index = nodes.len();
    if ids.len() <= config.leaf_size {
        nodes.push(KdNode::Leaf { points: ids });
        return my_index;
    }
    // Pick a random dimension among the top-variance ones.
    let dim_count = data.series_len();
    let mut variances: Vec<(f32, usize)> = (0..dim_count)
        .map(|d| {
            let mean: f32 = ids.iter().map(|&i| data.series(i as usize)[d]).sum::<f32>()
                / ids.len() as f32;
            let var: f32 = ids
                .iter()
                .map(|&i| {
                    let v = data.series(i as usize)[d] - mean;
                    v * v
                })
                .sum::<f32>()
                / ids.len() as f32;
            (var, d)
        })
        .collect();
    variances.sort_by(|a, b| b.0.total_cmp(&a.0));
    let pick = rng.gen_range(0..config.top_dims.min(variances.len()));
    let dim = variances[pick].1;
    let mut values: Vec<f32> = ids.iter().map(|&i| data.series(i as usize)[dim]).collect();
    values.sort_by(f32::total_cmp);
    let median = values[values.len() / 2];
    let (left_ids, right_ids): (Vec<u32>, Vec<u32>) = ids
        .iter()
        .partition(|&&i| data.series(i as usize)[dim] < median);
    if left_ids.is_empty() || right_ids.is_empty() {
        // Constant dimension slice: stop splitting.
        nodes.push(KdNode::Leaf { points: ids });
        return my_index;
    }
    nodes.push(KdNode::Split {
        dim,
        value: median,
        left: 0,
        right: 0,
    });
    let left = build_node(data, left_ids, config, nodes, rng);
    let right = build_node(data, right_ids, config, nodes, rng);
    if let KdNode::Split {
        left: l, right: r, ..
    } = &mut nodes[my_index]
    {
        *l = left;
        *r = right;
    }
    my_index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Flann, FlannAlgorithm, FlannConfig};
    use hydra_core::{AnnIndex, SearchParams};
    use hydra_data::{exact_knn, sift_like};

    #[test]
    fn forest_reaches_good_recall_with_enough_checks() {
        let data = sift_like(600, 20, 11);
        let forest = KdForest::build(
            &data,
            KdForestConfig {
                num_trees: 4,
                leaf_size: 8,
                top_dims: 5,
                seed: 3,
            },
        )
        .unwrap();
        assert_eq!(forest.trees.len(), 4);
        let queries = sift_like(5, 20, 99);
        let mut hits = 0usize;
        for q in queries.iter() {
            let res = forest.search(&data, q, 1, 300);
            let gt = exact_knn(&data, q, 1);
            if res.neighbors[0].index == gt[0].index {
                hits += 1;
            }
        }
        assert!(hits >= 3, "kd-forest 1-NN hits: {hits}/5");
    }

    #[test]
    fn checks_budget_is_respected() {
        let data = sift_like(500, 16, 13);
        let forest = KdForest::build(&data, KdForestConfig::default()).unwrap();
        let q = data.series(0);
        let res = forest.search(&data, q, 5, 50);
        assert!(res.stats.series_scanned <= 50);
        let bigger = forest.search(&data, q, 5, 200);
        assert!(bigger.stats.series_scanned <= 200);
        assert!(bigger.kth_distance() <= res.kth_distance() + 1e-6);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let empty = Dataset::new(4).unwrap();
        assert!(Flann::build(&empty, FlannConfig::default()).is_err());
        // Under 1000 series the selection rule picks the kd-forest.
        let data = sift_like(10, 8, 1);
        let no_trees = FlannConfig {
            kd: KdForestConfig {
                num_trees: 0,
                ..KdForestConfig::default()
            },
            ..FlannConfig::default()
        };
        assert!(Flann::build(&data, no_trees).is_err());
        let flann = Flann::build(&data, FlannConfig::default()).unwrap();
        assert_eq!(flann.algorithm(), FlannAlgorithm::RandomizedKdTrees);
        assert!(matches!(
            flann.search(&[0.0; 8], &SearchParams::exact(1)),
            Err(Error::UnsupportedMode(_))
        ));
        assert!(matches!(
            flann.search(&[0.0; 2], &SearchParams::ng(1, 5)),
            Err(Error::DimensionMismatch { .. })
        ));
    }
}
