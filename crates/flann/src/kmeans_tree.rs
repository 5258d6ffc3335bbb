//! Hierarchical k-means tree (the "k-means tree" algorithm of FLANN).
//!
//! The dataset is recursively partitioned by k-means with a small branching
//! factor; leaves hold a bounded number of points. Search descends to the
//! closest centroid at each level and keeps unexplored siblings in a
//! priority queue ordered by centroid distance, stopping after `max_checks`
//! point comparisons.

use hydra_core::{Dataset, Error, Neighbor, QueryStats, Result, SearchResult, TopK};
use hydra_persist::{codec, Fingerprint, PersistError, Section, SnapshotReader, SnapshotWriter};
use hydra_summarize::quantization::KMeans;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of the hierarchical k-means tree [`crate::Flann`] selects
/// for large collections of short series.
#[derive(Debug, Clone, Copy)]
pub struct KMeansTreeConfig {
    /// Branching factor of each internal node.
    pub branching: usize,
    /// Maximum number of points per leaf.
    pub leaf_size: usize,
    /// k-means iterations per node.
    pub kmeans_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KMeansTreeConfig {
    fn default() -> Self {
        Self {
            branching: 16,
            leaf_size: 32,
            kmeans_iters: 8,
            seed: 0xF1A,
        }
    }
}

enum TreeNode {
    Leaf {
        points: Vec<u32>,
    },
    Internal {
        centroids: KMeans,
        children: Vec<usize>,
    },
}

/// The hierarchical k-means tree over the dataset its [`crate::Flann`]
/// holds.
pub(crate) struct KMeansTree {
    nodes: Vec<TreeNode>,
}

impl KMeansTree {
    /// Builds the tree over a non-empty `dataset`.
    pub(crate) fn build(dataset: &Dataset, config: KMeansTreeConfig) -> Result<Self> {
        if config.branching < 2 || config.leaf_size == 0 {
            return Err(Error::InvalidParameter(
                "k-means tree needs branching >= 2 and a positive leaf size".into(),
            ));
        }
        let mut tree = Self { nodes: Vec::new() };
        let ids: Vec<u32> = (0..dataset.len() as u32).collect();
        tree.build_node(dataset, &config, ids, config.seed);
        Ok(tree)
    }

    fn build_node(
        &mut self,
        data: &Dataset,
        config: &KMeansTreeConfig,
        ids: Vec<u32>,
        seed: u64,
    ) -> usize {
        let my_index = self.nodes.len();
        if ids.len() <= config.leaf_size.max(config.branching) {
            self.nodes.push(TreeNode::Leaf { points: ids });
            return my_index;
        }
        let refs: Vec<&[f32]> = ids.iter().map(|&i| data.series(i as usize)).collect();
        let km = KMeans::fit(&refs, config.branching, config.kmeans_iters, seed);
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); km.k()];
        for &id in &ids {
            let c = km.assign(data.series(id as usize));
            buckets[c].push(id);
        }
        // If clustering failed to separate the points, fall back to a leaf.
        if buckets.iter().filter(|b| !b.is_empty()).count() <= 1 {
            self.nodes.push(TreeNode::Leaf { points: ids });
            return my_index;
        }
        self.nodes.push(TreeNode::Internal {
            centroids: km,
            children: Vec::new(),
        });
        let mut children = Vec::new();
        for (c, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                children.push(usize::MAX);
                continue;
            }
            let child = self.build_node(data, config, bucket, seed.wrapping_add(c as u64 + 1));
            children.push(child);
        }
        if let TreeNode::Internal { children: ch, .. } = &mut self.nodes[my_index] {
            *ch = children;
        }
        my_index
    }

    /// Bytes of the codebooks and leaf memberships (the raw vectors are
    /// [`crate::Flann`]'s).
    pub(crate) fn memory_footprint(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                TreeNode::Internal { centroids, .. } => centroids.memory_footprint(),
                TreeNode::Leaf { points } => points.len() * std::mem::size_of::<u32>(),
            })
            .sum()
    }

    /// Hashes the build parameters into a snapshot fingerprint (persistence
    /// hook of [`crate::Flann`]).
    pub(crate) fn push_fingerprint(config: &KMeansTreeConfig, f: &mut Fingerprint) {
        f.push_usize(config.branching);
        f.push_usize(config.leaf_size);
        f.push_usize(config.kmeans_iters);
        f.push_u64(config.seed);
    }

    /// Appends the tree's structure (leaf membership and per-node k-means
    /// codebooks) to a snapshot being written (persistence hook).
    ///
    /// Empty-cluster children are recorded with the same `usize::MAX`
    /// sentinel the in-memory arena uses (stored as `u64::MAX`).
    pub(crate) fn persist_sections(&self, data: &Dataset, w: &mut SnapshotWriter) {
        let mut meta = Section::new();
        meta.put_usize(data.series_len());
        meta.put_usize(data.len());
        meta.put_usize(self.nodes.len());
        w.push(meta);

        let mut nodes = Section::new();
        for node in &self.nodes {
            match node {
                TreeNode::Leaf { points } => {
                    nodes.put_u8(0);
                    nodes.put_u32s(points);
                }
                TreeNode::Internal {
                    centroids,
                    children,
                } => {
                    nodes.put_u8(1);
                    codec::put_kmeans(&mut nodes, centroids);
                    nodes.put_usizes(children);
                }
            }
        }
        w.push(nodes);
    }

    /// Restores a tree from the sections written by
    /// [`Self::persist_sections`] (persistence hook).
    pub(crate) fn restore_sections(
        r: &mut SnapshotReader,
        dataset: &Dataset,
    ) -> hydra_persist::Result<Self> {
        let mut meta = r.next_section()?;
        let series_len = meta.get_usize()?;
        let n = meta.get_usize()?;
        let node_count = meta.get_usize()?;
        if series_len != dataset.series_len() || n != dataset.len() {
            return Err(PersistError::Corrupt(
                "snapshot metadata disagrees with the dataset".into(),
            ));
        }

        let mut sec = r.next_section()?;
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            nodes.push(match sec.get_u8()? {
                0 => {
                    let points = sec.get_u32s()?;
                    if points.iter().any(|&p| p as usize >= n) {
                        return Err(PersistError::Corrupt(
                            "k-means leaf point out of range".into(),
                        ));
                    }
                    TreeNode::Leaf { points }
                }
                1 => {
                    let centroids = codec::get_kmeans(&mut sec)?;
                    if centroids.dim() != series_len {
                        return Err(PersistError::Corrupt(
                            "node codebook dimensionality mismatch".into(),
                        ));
                    }
                    let children = sec.get_usizes()?;
                    if children
                        .iter()
                        .any(|&c| c != usize::MAX && c >= node_count)
                    {
                        return Err(PersistError::Corrupt(
                            "k-means child id out of range".into(),
                        ));
                    }
                    TreeNode::Internal {
                        centroids,
                        children,
                    }
                }
                tag => {
                    return Err(PersistError::Corrupt(format!(
                        "invalid k-means-tree node tag {tag}"
                    )))
                }
            });
        }

        Ok(Self { nodes })
    }
    /// Descends to the closest centroid first, keeping unexplored siblings
    /// in a queue ordered by centroid distance, and stops after
    /// `max_checks` point comparisons.
    pub(crate) fn search(
        &self,
        data: &Dataset,
        query: &[f32],
        k: usize,
        max_checks: usize,
    ) -> SearchResult {
        let mut stats = QueryStats::new();
        let mut top = TopK::new(k);
        let mut checks = 0usize;

        #[derive(PartialEq)]
        struct Entry(f32, usize);
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
            }
        }
        let mut queue: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
        queue.push(Reverse(Entry(0.0, 0)));

        while let Some(Reverse(Entry(_, node))) = queue.pop() {
            if checks >= max_checks {
                break;
            }
            match &self.nodes[node] {
                TreeNode::Leaf { points } => {
                    stats.leaves_visited += 1;
                    for &id in points {
                        if checks >= max_checks {
                            break;
                        }
                        let id = id as usize;
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
                }
                TreeNode::Internal {
                    centroids,
                    children,
                } => {
                    let dists = centroids.distances(query);
                    stats.lower_bound_computations += dists.len() as u64;
                    for (c, d) in dists.into_iter().enumerate() {
                        if children[c] != usize::MAX {
                            queue.push(Reverse(Entry(d.sqrt(), children[c])));
                        }
                    }
                }
            }
        }
        SearchResult::new(top.into_sorted(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Flann, FlannAlgorithm, FlannConfig};
    use hydra_core::{AnnIndex, SearchParams};
    use hydra_data::{exact_knn, sift_like};

    #[test]
    fn tree_reaches_good_recall_with_enough_checks() {
        let data = sift_like(700, 20, 21);
        let tree = KMeansTree::build(
            &data,
            KMeansTreeConfig {
                branching: 8,
                leaf_size: 16,
                kmeans_iters: 6,
                seed: 2,
            },
        )
        .unwrap();
        let queries = sift_like(5, 20, 98);
        let mut hits = 0usize;
        for q in queries.iter() {
            let res = tree.search(&data, q, 1, 300);
            let gt = exact_knn(&data, q, 1);
            if res.neighbors[0].index == gt[0].index {
                hits += 1;
            }
        }
        assert!(hits >= 3, "k-means tree 1-NN hits: {hits}/5");
    }

    #[test]
    fn checks_budget_is_respected_and_improves_quality() {
        let data = sift_like(600, 16, 23);
        let tree = KMeansTree::build(&data, KMeansTreeConfig::default()).unwrap();
        let q = data.series(1);
        let small = tree.search(&data, q, 5, 40);
        let large = tree.search(&data, q, 5, 400);
        assert!(small.stats.series_scanned <= 40);
        assert!(large.stats.series_scanned <= 400);
        assert!(large.kth_distance() <= small.kth_distance() + 1e-6);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        // 1000 series of length <= 64: the selection rule picks the tree.
        let data = sift_like(1000, 8, 1);
        let unary = FlannConfig {
            kmeans: KMeansTreeConfig {
                branching: 1,
                ..KMeansTreeConfig::default()
            },
            ..FlannConfig::default()
        };
        assert!(Flann::build(&data, unary).is_err());
        let flann = Flann::build(&data, FlannConfig::default()).unwrap();
        assert_eq!(flann.algorithm(), FlannAlgorithm::HierarchicalKMeans);
        assert!(matches!(
            flann.search(&[0.0; 8], &SearchParams::epsilon(1, 1.0)),
            Err(Error::UnsupportedMode(_))
        ));
        assert!(matches!(
            flann.search(&[0.0; 2], &SearchParams::ng(1, 5)),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(flann.memory_footprint() > 0);
    }
}
