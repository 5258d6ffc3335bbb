//! # hydra-hnsw
//!
//! Hierarchical Navigable Small World graphs (Malkov & Yashunin), the
//! state-of-the-art in-memory ng-approximate nearest-neighbor method of the
//! Lernaean Hydra study.
//!
//! The index is a multi-layer proximity graph: every vector is assigned an
//! exponentially-distributed maximum layer; upper layers contain long-range
//! links that make greedy routing fast, the bottom layer contains all
//! vectors with denser connectivity (`2·M` links). A query descends the
//! layers greedily and runs a best-first beam search (`efSearch`
//! candidates) on the bottom layer.
//!
//! As in the paper, HNSW keeps the raw vectors in memory, provides no
//! guarantee on result quality (ng-approximate only), and its
//! speed/accuracy trade-off is controlled at *query* time by `efSearch`
//! (mapped to the `nprobe` knob of [`hydra_core::SearchMode::Ng`]) and at
//! *build* time by `M` and `efConstruction`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use hydra_core::{
    AnnIndex, Capabilities, Dataset, Error, Neighbor, QueryStats, Representation, Result,
    SearchMode, SearchParams, SearchResult, TopK,
};
use hydra_persist::{
    fingerprint_dataset, DataSource, Fingerprint, PersistError, PersistentIndex, Section, StoreBacking,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;

/// Configuration of an [`Hnsw`] index.
#[derive(Debug, Clone, Copy)]
pub struct HnswConfig {
    /// Number of bidirectional links per node on the upper layers
    /// (layer 0 uses `2 · m`).
    pub m: usize,
    /// Beam width used while inserting nodes.
    pub ef_construction: usize,
    /// RNG seed for layer assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    /// `M = 16`, `efConstruction = 500`: the configuration the paper used
    /// for the Deep/Sift datasets.
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 500,
            seed: 0x4A53,
        }
    }
}

/// The HNSW graph index.
pub struct Hnsw {
    config: HnswConfig,
    data: Dataset,
    /// `neighbors[layer][node]` — adjacency lists. Layer 0 covers all nodes.
    neighbors: Vec<Vec<Vec<u32>>>,
    /// Maximum layer of each node.
    levels: Vec<u8>,
    entry_point: usize,
    max_level: usize,
}

impl Hnsw {
    /// Builds an HNSW graph over `dataset`.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or `m < 2`.
    pub fn build(dataset: &Dataset, config: HnswConfig) -> Result<Self> {
        if dataset.is_empty() {
            return Err(Error::EmptyDataset);
        }
        if config.m < 2 {
            return Err(Error::InvalidParameter("m must be at least 2".into()));
        }
        let n = dataset.len();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let ml = 1.0 / (config.m as f64).ln();
        let levels: Vec<u8> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                ((-u.ln() * ml).floor() as usize).min(31) as u8
            })
            .collect();
        let max_level = levels.iter().copied().max().unwrap_or(0) as usize;
        let mut index = Self {
            config,
            data: dataset.clone(),
            neighbors: (0..=max_level).map(|_| vec![Vec::new(); n]).collect(),
            levels,
            entry_point: 0,
            max_level,
        };
        // Make node 0 the initial entry point at its level.
        for id in 1..n {
            index.insert(id);
        }
        Ok(index)
    }

    fn dist(&self, a: usize, b: usize) -> f32 {
        hydra_core::euclidean(self.data.series(a), self.data.series(b))
    }

    fn dist_to(&self, query: &[f32], node: usize) -> f32 {
        hydra_core::euclidean(query, self.data.series(node))
    }

    /// Greedy search on one layer starting from `entry`, returning the
    /// closest node found.
    fn greedy_closest(&self, query: &[f32], entry: usize, layer: usize) -> usize {
        let mut current = entry;
        let mut current_dist = self.dist_to(query, current);
        loop {
            let mut improved = false;
            for &nb in &self.neighbors[layer][current] {
                let d = self.dist_to(query, nb as usize);
                if d < current_dist {
                    current = nb as usize;
                    current_dist = d;
                    improved = true;
                }
            }
            if !improved {
                return current;
            }
        }
    }

    /// Best-first beam search on one layer; returns up to `ef` closest nodes
    /// sorted by distance. `stats`, when provided, accumulates distance
    /// computations.
    fn search_layer(
        &self,
        query: &[f32],
        entry: usize,
        ef: usize,
        layer: usize,
        stats: Option<&mut QueryStats>,
    ) -> Vec<Neighbor> {
        let mut visited = vec![false; self.data.len()];
        let mut candidates: BinaryHeap<Reverse<Neighbor>> = BinaryHeap::new();
        let mut best: BinaryHeap<Neighbor> = BinaryHeap::new(); // max-heap of current ef best
        let mut computations = 0u64;

        let entry_dist = self.dist_to(query, entry);
        computations += 1;
        visited[entry] = true;
        candidates.push(Reverse(Neighbor::new(entry, entry_dist)));
        best.push(Neighbor::new(entry, entry_dist));

        while let Some(Reverse(cand)) = candidates.pop() {
            let worst = best.peek().map(|n| n.distance).unwrap_or(f32::INFINITY);
            if cand.distance > worst && best.len() >= ef {
                break;
            }
            for &nb in &self.neighbors[layer][cand.index] {
                let nb = nb as usize;
                if visited[nb] {
                    continue;
                }
                visited[nb] = true;
                let d = self.dist_to(query, nb);
                computations += 1;
                let worst = best.peek().map(|n| n.distance).unwrap_or(f32::INFINITY);
                if best.len() < ef || d < worst {
                    candidates.push(Reverse(Neighbor::new(nb, d)));
                    best.push(Neighbor::new(nb, d));
                    if best.len() > ef {
                        best.pop();
                    }
                }
            }
        }
        if let Some(stats) = stats {
            stats.distance_computations += computations;
            stats.series_scanned += computations;
        }
        let mut result = best.into_vec();
        result.sort();
        result
    }

    /// The neighbor-selection heuristic of the HNSW paper (Algorithm 4):
    /// a candidate is kept only if it is closer to the base point than to
    /// every already-kept neighbor. This preserves links *between* clusters,
    /// which plain "keep the closest M" would prune away, disconnecting the
    /// graph on clustered data.
    fn select_neighbors(&self, candidates: &[Neighbor], max_links: usize) -> Vec<Neighbor> {
        let mut selected: Vec<Neighbor> = Vec::with_capacity(max_links);
        for cand in candidates {
            if selected.len() >= max_links {
                break;
            }
            let dominated = selected
                .iter()
                .any(|kept| self.dist(cand.index, kept.index) < cand.distance);
            if !dominated {
                selected.push(*cand);
            }
        }
        // Fill any remaining slots with the closest skipped candidates.
        if selected.len() < max_links {
            for cand in candidates {
                if selected.len() >= max_links {
                    break;
                }
                if !selected.iter().any(|s| s.index == cand.index) {
                    selected.push(*cand);
                }
            }
        }
        selected
    }

    fn insert(&mut self, id: usize) {
        let level = self.levels[id] as usize;
        let query = self.data.series(id).to_vec();
        let mut entry = self.entry_point;

        // Descend from the top layer to level+1 greedily.
        let top = self.levels[self.entry_point] as usize;
        for layer in ((level + 1)..=top).rev() {
            entry = self.greedy_closest(&query, entry, layer);
        }

        // Insert with beam search on each layer from min(level, top) down to 0.
        for layer in (0..=level.min(top)).rev() {
            let found = self.search_layer(&query, entry, self.config.ef_construction, layer, None);
            entry = found.first().map(|n| n.index).unwrap_or(entry);
            let max_links = if layer == 0 {
                self.config.m * 2
            } else {
                self.config.m
            };
            let selected = self.select_neighbors(&found, max_links);
            for nb in selected.iter().map(|n| n.index) {
                self.neighbors[layer][id].push(nb as u32);
                self.neighbors[layer][nb].push(id as u32);
                // Shrink over-connected neighbors with the same heuristic.
                if self.neighbors[layer][nb].len() > max_links {
                    let mut links: Vec<Neighbor> = self.neighbors[layer][nb]
                        .iter()
                        .map(|&other| Neighbor::new(other as usize, self.dist(nb, other as usize)))
                        .collect();
                    links.sort();
                    let kept = self.select_neighbors(&links, max_links);
                    self.neighbors[layer][nb] = kept.iter().map(|n| n.index as u32).collect();
                }
            }
        }

        // New top-level entry point?
        if level > self.levels[self.entry_point] as usize {
            self.entry_point = id;
        }
    }

    /// Extends the graph with `batch`, reproducing exactly what a fresh
    /// [`Hnsw::build`] over the grown collection would construct.
    ///
    /// Layer assignment comes from one seeded RNG stream drawn in node
    /// order; re-seeding and burning the draws the build already consumed
    /// resumes that stream, so node `i` receives the same level whether it
    /// arrived at build time or by ingest. Insertion itself is the same
    /// sequential [`Hnsw::insert`] loop the build runs — its outcome
    /// depends only on the nodes inserted before, never on future levels —
    /// so the grown graph is link-for-link identical to a fresh build.
    fn ingest(&mut self, batch: &[&[f32]]) -> Result<()> {
        for series in batch {
            if series.len() != self.data.series_len() {
                return Err(Error::DimensionMismatch {
                    expected: self.data.series_len(),
                    found: series.len(),
                });
            }
        }
        if batch.is_empty() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let ml = 1.0 / (self.config.m as f64).ln();
        let draw = move |rng: &mut StdRng| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            ((-u.ln() * ml).floor() as usize).min(31) as u8
        };
        for _ in 0..self.levels.len() {
            draw(&mut rng);
        }
        let first = self.data.len();
        for series in batch {
            self.data.push(series)?;
            self.levels.push(draw(&mut rng));
        }
        let total = self.data.len();
        self.max_level = self
            .max_level
            .max(self.levels[first..].iter().copied().max().unwrap_or(0) as usize);
        for layer in &mut self.neighbors {
            layer.resize(total, Vec::new());
        }
        while self.neighbors.len() <= self.max_level {
            self.neighbors.push(vec![Vec::new(); total]);
        }
        for id in first..total {
            self.insert(id);
        }
        Ok(())
    }

    /// Number of links in the whole graph (for diagnostics / footprint).
    pub fn num_links(&self) -> usize {
        self.neighbors
            .iter()
            .map(|layer| layer.iter().map(|l| l.len()).sum::<usize>())
            .sum()
    }

    /// The configuration the graph was built with.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// Highest layer of the hierarchy.
    pub fn max_level(&self) -> usize {
        self.max_level
    }
}

impl PersistentIndex for Hnsw {
    type Config = HnswConfig;
    const KIND: &'static str = "hnsw";

    fn hash_config(config: &HnswConfig, f: &mut Fingerprint) {
        f.push_usize(config.m);
        f.push_usize(config.ef_construction);
        f.push_u64(config.seed);
    }

    /// Snapshots the layer assignment and the full adjacency of every
    /// layer — the product of the expensive incremental construction. The
    /// raw vectors (which HNSW keeps in memory) are re-attached from the
    /// dataset at load time.
    fn save(&self, path: &Path) -> hydra_persist::Result<()> {
        let mut w = Self::snapshot_writer(&self.config, fingerprint_dataset(&self.data));

        let mut meta = Section::new();
        meta.put_usize(self.data.series_len());
        meta.put_usize(self.data.len());
        meta.put_usize(self.entry_point);
        meta.put_usize(self.max_level);
        w.push(meta);

        let mut levels = Section::new();
        levels.put_u8s(&self.levels);
        w.push(levels);

        let mut adjacency = Section::new();
        adjacency.put_usize(self.neighbors.len());
        for layer in &self.neighbors {
            for links in layer {
                adjacency.put_u32s(links);
            }
        }
        w.push(adjacency);

        w.write_to(path)
    }

    fn load_from(
        path: &Path,
        source: DataSource<'_>,
        config: &HnswConfig,
        _backing: StoreBacking<'_>,
    ) -> hydra_persist::Result<Self> {
        let dataset = &*source.materialized()?;
        let mut r = Self::open_snapshot(path, config, fingerprint_dataset(dataset))?;

        let mut meta = r.next_section()?;
        let series_len = meta.get_usize()?;
        let n = meta.get_usize()?;
        let entry_point = meta.get_usize()?;
        let max_level = meta.get_usize()?;
        if series_len != dataset.series_len() || n != dataset.len() || entry_point >= n {
            return Err(PersistError::Corrupt(
                "snapshot metadata disagrees with the dataset".into(),
            ));
        }

        let mut sec = r.next_section()?;
        let levels = sec.get_u8s()?;
        if levels.len() != n {
            return Err(PersistError::Corrupt(
                "layer assignment does not cover every node".into(),
            ));
        }
        if levels.iter().any(|&l| l as usize > max_level) {
            return Err(PersistError::Corrupt(
                "node level exceeds the maximum layer".into(),
            ));
        }

        let mut sec = r.next_section()?;
        let layer_count = sec.get_usize()?;
        if layer_count != max_level + 1 {
            return Err(PersistError::Corrupt(
                "adjacency layer count disagrees with the maximum level".into(),
            ));
        }
        let mut neighbors = Vec::with_capacity(layer_count);
        for _ in 0..layer_count {
            let mut layer = Vec::with_capacity(n);
            for _ in 0..n {
                let links = sec.get_u32s()?;
                if links.iter().any(|&l| l as usize >= n) {
                    return Err(PersistError::Corrupt("graph link out of range".into()));
                }
                layer.push(links);
            }
            neighbors.push(layer);
        }

        Ok(Self {
            config: *config,
            data: dataset.clone(),
            neighbors,
            levels,
            entry_point,
            max_level,
        })
    }
}

impl AnnIndex for Hnsw {
    fn name(&self) -> &'static str {
        "HNSW"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact: false,
            ng_approximate: true,
            epsilon_approximate: false,
            delta_epsilon_approximate: false,
            disk_resident: false,
            streaming_insert: true,
            representation: Representation::Graph,
        }
    }

    fn num_series(&self) -> usize {
        self.data.len()
    }

    fn series_len(&self) -> usize {
        self.data.series_len()
    }

    fn memory_footprint(&self) -> usize {
        // Graph links plus the raw vectors, which HNSW must keep in memory.
        self.num_links() * std::mem::size_of::<u32>() + self.data.payload_bytes()
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult> {
        if query.len() != self.data.series_len() {
            return Err(Error::DimensionMismatch {
                expected: self.data.series_len(),
                found: query.len(),
            });
        }
        let SearchMode::Ng { nprobe } = params.mode else {
            return Err(Error::UnsupportedMode(
                "HNSW is ng-approximate only (no guarantees)".into(),
            ));
        };
        let ef = nprobe.max(params.k).max(1);
        let mut stats = QueryStats::new();

        // Greedy descent through the upper layers.
        let mut entry = self.entry_point;
        let top = self.levels[self.entry_point] as usize;
        for layer in (1..=top).rev() {
            entry = self.greedy_closest(query, entry, layer);
        }
        // Beam search on the bottom layer.
        let found = self.search_layer(query, entry, ef, 0, Some(&mut stats));
        let mut top_k = TopK::new(params.k.max(1));
        for n in found {
            top_k.push(n);
        }
        Ok(SearchResult::new(top_k.into_sorted(), stats))
    }

    fn insert_batch(&mut self, batch: &[&[f32]]) -> Result<()> {
        self.ingest(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_data::{exact_knn, random_walk, sift_like};

    fn recall(found: &[Neighbor], truth: &[Neighbor]) -> f64 {
        let truth_ids: std::collections::HashSet<usize> = truth.iter().map(|n| n.index).collect();
        found.iter().filter(|n| truth_ids.contains(&n.index)).count() as f64 / truth.len() as f64
    }

    fn build(n: usize, dim: usize) -> (Dataset, Hnsw) {
        let data = sift_like(n, dim, 31);
        let config = HnswConfig {
            m: 8,
            ef_construction: 64,
            seed: 2,
        };
        let h = Hnsw::build(&data, config).unwrap();
        (data, h)
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let empty = Dataset::new(4).unwrap();
        assert!(Hnsw::build(&empty, HnswConfig::default()).is_err());
        let one = random_walk(4, 8, 1);
        assert!(Hnsw::build(
            &one,
            HnswConfig {
                m: 1,
                ..HnswConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn high_ef_search_reaches_high_recall() {
        let (data, h) = build(800, 24);
        let queries = sift_like(10, 24, 77);
        let mut total_recall = 0.0;
        for q in queries.iter() {
            let res = h.search(q, &SearchParams::ng(10, 128)).unwrap();
            let gt = exact_knn(&data, q, 10);
            total_recall += recall(&res.neighbors, &gt);
        }
        let avg = total_recall / 10.0;
        assert!(avg > 0.85, "HNSW recall too low: {avg}");
    }

    #[test]
    fn larger_ef_does_not_reduce_quality() {
        let (data, h) = build(600, 16);
        let q_owned = sift_like(1, 16, 5);
        let q = q_owned.series(0);
        let small = h.search(q, &SearchParams::ng(10, 10)).unwrap();
        let large = h.search(q, &SearchParams::ng(10, 200)).unwrap();
        let gt = exact_knn(&data, q, 10);
        assert!(recall(&large.neighbors, &gt) >= recall(&small.neighbors, &gt));
        assert!(large.stats.distance_computations >= small.stats.distance_computations);
    }

    #[test]
    fn search_touches_only_a_fraction_of_the_data() {
        let (data, h) = build(1000, 16);
        let q_owned = sift_like(1, 16, 9);
        let res = h.search(q_owned.series(0), &SearchParams::ng(5, 32)).unwrap();
        assert!((res.stats.distance_computations as usize) < data.len() / 2);
        assert_eq!(res.neighbors.len(), 5);
    }

    #[test]
    fn guarantee_modes_are_rejected() {
        let (_, h) = build(100, 16);
        let q = vec![0.0f32; 16];
        assert!(h.search(&q, &SearchParams::exact(1)).is_err());
        assert!(h.search(&q, &SearchParams::epsilon(1, 1.0)).is_err());
        assert!(h
            .search(&q, &SearchParams::delta_epsilon(1, 0.9, 1.0))
            .is_err());
        assert!(h.search(&[0.0; 3], &SearchParams::ng(1, 10)).is_err());
    }

    #[test]
    fn ingest_matches_fresh_build_link_for_link() {
        let data = sift_like(300, 16, 41);
        let config = HnswConfig {
            m: 6,
            ef_construction: 48,
            seed: 3,
        };
        let fresh = Hnsw::build(&data, config).unwrap();
        let mut base = Dataset::new(16).unwrap();
        for i in 0..200 {
            base.push(data.series(i)).unwrap();
        }
        let mut grown = Hnsw::build(&base, config).unwrap();
        let rest: Vec<&[f32]> = (200..300).map(|i| data.series(i)).collect();
        grown.insert_batch(&rest[..1]).unwrap();
        grown.insert_batch(&rest[1..37]).unwrap();
        grown.insert_batch(&[]).unwrap();
        grown.insert_batch(&rest[37..]).unwrap();
        assert_eq!(grown.levels, fresh.levels, "resumed RNG must match");
        assert_eq!(grown.neighbors, fresh.neighbors, "grown graph drifted");
        assert_eq!(grown.entry_point, fresh.entry_point);
        assert_eq!(grown.max_level, fresh.max_level);
        // A malformed batch is rejected wholesale.
        assert!(grown.insert_batch(&[&[0.0f32; 3][..]]).is_err());
        assert_eq!(grown.num_series(), 300);
        assert!(grown.capabilities().streaming_insert);
    }

    #[test]
    fn metadata_is_consistent() {
        let (_, h) = build(200, 16);
        assert_eq!(h.name(), "HNSW");
        assert!(!h.capabilities().exact);
        assert!(!h.capabilities().disk_resident);
        assert_eq!(h.num_series(), 200);
        assert_eq!(h.series_len(), 16);
        assert!(h.memory_footprint() > 200 * 16 * 4);
        assert!(h.num_links() > 0);
        assert_eq!(h.config().m, 8);
    }
}
