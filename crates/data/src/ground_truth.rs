//! Brute-force exact k-NN ground truth.
//!
//! Accuracy metrics (recall, MAP, MRE) compare approximate answers against
//! the exact neighbors. The exact answers are computed by a parallel linear
//! scan — the only method guaranteed correct independently of any index
//! implementation, which is why the harness uses it as the yardstick.

use std::path::{Path, PathBuf};

use hydra_core::workers::{answer_on_workers, batch_workers};
use hydra_core::{Dataset, Neighbor, TopK};
use hydra_persist::{
    fingerprint_dataset, Fingerprint, PersistError, Section, SnapshotReader, SnapshotWriter,
};

use crate::queries::QueryWorkload;

/// Exact k-NN answers for a whole workload.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// `answers[q]` holds the exact k nearest neighbors of query `q`,
    /// sorted by increasing distance.
    pub answers: Vec<Vec<Neighbor>>,
    /// The `k` the ground truth was computed for.
    pub k: usize,
}

impl GroundTruth {
    /// Number of queries covered.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Whether the ground truth is empty.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }
}

/// Exact k nearest neighbors of `query` in `dataset` by linear scan.
pub fn exact_knn(dataset: &Dataset, query: &[f32], k: usize) -> Vec<Neighbor> {
    let mut top = TopK::new(k.max(1));
    for (i, s) in dataset.iter().enumerate() {
        let bsf = top.kth_distance();
        if let Some(d) = hydra_core::euclidean_early_abandon(query, s, bsf) {
            top.push(Neighbor::new(i, d));
        }
    }
    top.into_sorted()
}

/// Exact k-NN answers for a batch of queries, scanned on the batch fan-out
/// ([`hydra_core::workers::answer_on_workers`]) by one worker per core.
///
/// This is the shared brute-force scan behind [`ground_truth`] and behind
/// any `AnnIndex::search_batch` implementation that answers a batch by
/// parallel linear scan. Results are in query order and identical to calling
/// [`exact_knn`] per query, whatever the worker count; a panicking scan
/// unwinds out of the call with its own payload.
pub fn exact_knn_batch(dataset: &Dataset, queries: &[&[f32]], k: usize) -> Vec<Vec<Neighbor>> {
    answer_on_workers(queries, batch_workers(), || (), |_, query| exact_knn(dataset, query, k))
}

/// Exact k-NN ground truth for every query of a workload (the parallel
/// [`exact_knn_batch`] scan over the workload's queries).
pub fn ground_truth(dataset: &Dataset, workload: &QueryWorkload, k: usize) -> GroundTruth {
    let queries: Vec<&[f32]> = workload.iter().collect();
    let answers = exact_knn_batch(dataset, &queries, k);
    GroundTruth { answers, k }
}

/// Kind tag of ground-truth cache snapshots.
pub const GROUND_TRUTH_KIND: &str = "ground-truth";

/// Fingerprint of one exact-answer computation: the dataset content, the
/// query content (series and noise levels) and `k`. Any change to any of
/// them changes the cache key, so a cache can never serve answers for the
/// wrong question.
pub fn ground_truth_fingerprint(dataset: &Dataset, workload: &QueryWorkload, k: usize) -> u64 {
    let mut f = Fingerprint::new();
    f.push_str(GROUND_TRUTH_KIND);
    f.push_u64(fingerprint_dataset(dataset));
    f.push_u64(fingerprint_dataset(&workload.queries));
    f.push_f32s(&workload.noise_levels);
    f.push_usize(k);
    f.finish()
}

/// The cache file a given computation maps to inside `cache_dir`.
pub fn ground_truth_cache_file(
    cache_dir: &Path,
    dataset: &Dataset,
    workload: &QueryWorkload,
    k: usize,
) -> PathBuf {
    cache_dir.join(format!(
        "gt-{:016x}.snap",
        ground_truth_fingerprint(dataset, workload, k)
    ))
}

/// [`ground_truth`] with an on-disk cache: answers are served from
/// `cache_dir` when a snapshot keyed by the dataset/query/`k` fingerprint
/// exists, and computed-then-cached otherwise.
///
/// Returns the ground truth and whether it was a cache *hit*. The cache is
/// strictly an optimization and this function never fails: a missing,
/// stale (different fingerprint) or damaged cache file counts as a miss
/// and is overwritten with a fresh computation, and an *unwritable* cache
/// only forfeits the caching (with a warning on stderr) — the
/// already-computed answers are returned either way, never thrown away and
/// recomputed.
pub fn ground_truth_cached(
    dataset: &Dataset,
    workload: &QueryWorkload,
    k: usize,
    cache_dir: &Path,
) -> (GroundTruth, bool) {
    let path = ground_truth_cache_file(cache_dir, dataset, workload, k);
    let fingerprint = ground_truth_fingerprint(dataset, workload, k);
    if let Ok(truth) = read_ground_truth(&path, fingerprint, dataset.len(), workload.len(), k) {
        return (truth, true);
    }

    let truth = ground_truth(dataset, workload, k);
    let mut w = SnapshotWriter::new(GROUND_TRUTH_KIND, fingerprint);
    let mut s = Section::new();
    s.put_usize(truth.k);
    s.put_usize(truth.answers.len());
    for answer in &truth.answers {
        s.put_usize(answer.len());
        for n in answer {
            s.put_usize(n.index);
            s.put_f32(n.distance);
        }
    }
    w.push(s);
    if let Err(e) = w.write_to(&path) {
        eprintln!(
            "warning: cannot write ground-truth cache {}: {e}",
            path.display()
        );
    }
    (truth, false)
}

/// Reads and fully validates a cached ground truth; any defect is an error
/// (which [`ground_truth_cached`] treats as a miss).
fn read_ground_truth(
    path: &Path,
    fingerprint: u64,
    dataset_len: usize,
    num_queries: usize,
    k: usize,
) -> hydra_persist::Result<GroundTruth> {
    let mut r = SnapshotReader::open(path)?;
    r.expect_kind(GROUND_TRUTH_KIND)?;
    r.expect_fingerprint(fingerprint)?;
    let mut s = r.next_section()?;
    let stored_k = s.get_usize()?;
    let count = s.get_usize()?;
    if stored_k != k || count != num_queries {
        return Err(PersistError::Corrupt(
            "cached ground truth does not match the workload shape".into(),
        ));
    }
    let mut answers = Vec::with_capacity(count);
    for _ in 0..count {
        let len = s.get_usize()?;
        if len > dataset_len.min(k.max(1)) {
            return Err(PersistError::Corrupt(
                "cached answer longer than the dataset allows".into(),
            ));
        }
        let mut answer = Vec::with_capacity(len);
        for _ in 0..len {
            let index = s.get_usize()?;
            if index >= dataset_len {
                return Err(PersistError::Corrupt(format!(
                    "cached neighbor id {index} out of range"
                )));
            }
            answer.push(Neighbor::new(index, s.get_f32()?));
        }
        answers.push(answer);
    }
    Ok(GroundTruth { answers, k })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_walk;
    use hydra_core::workers::with_batch_workers;
    use crate::queries::noisy_queries;

    #[test]
    fn exact_knn_finds_the_query_itself() {
        let d = random_walk(100, 32, 1);
        let gt = exact_knn(&d, d.series(42), 3);
        assert_eq!(gt[0].index, 42);
        assert!(gt[0].distance.abs() < 1e-5);
        assert_eq!(gt.len(), 3);
        // Sorted by distance.
        assert!(gt[0].distance <= gt[1].distance);
        assert!(gt[1].distance <= gt[2].distance);
    }

    #[test]
    fn parallel_ground_truth_matches_sequential() {
        let d = random_walk(300, 32, 2);
        let w = noisy_queries(&d, 16, &[0.1, 0.5], 3);
        let gt = ground_truth(&d, &w, 5);
        assert_eq!(gt.len(), 16);
        assert_eq!(gt.k, 5);
        assert!(!gt.is_empty());
        for (q, query) in w.iter().enumerate() {
            let seq = exact_knn(&d, query, 5);
            assert_eq!(gt.answers[q].len(), 5);
            for (a, b) in gt.answers[q].iter().zip(seq.iter()) {
                assert_eq!(a.index, b.index);
                assert!((a.distance - b.distance).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn exact_knn_batch_matches_per_query_scan() {
        let d = random_walk(200, 16, 6);
        let w = noisy_queries(&d, 9, &[0.2], 7);
        let refs: Vec<&[f32]> = w.iter().collect();
        for workers in [1, 2, 4] {
            let batch = with_batch_workers(workers, || exact_knn_batch(&d, &refs, 4));
            assert_eq!(batch.len(), 9);
            for (q, ans) in refs.iter().zip(batch.iter()) {
                let seq = exact_knn(&d, q, 4);
                assert_eq!(ans.len(), seq.len());
                for (a, b) in ans.iter().zip(seq.iter()) {
                    assert_eq!(a.index, b.index, "{workers} workers");
                    assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{workers} workers");
                }
            }
            assert!(with_batch_workers(workers, || exact_knn_batch(&d, &[], 4)).is_empty());
        }
    }

    #[test]
    fn a_panicking_scan_unwinds_out_of_the_batch_with_its_payload() {
        let d = random_walk(50, 16, 8);
        let short = [0.0f32; 3];
        let mut refs: Vec<&[f32]> = (0..5).map(|i| d.series(i)).collect();
        refs.push(&short);
        for workers in [1, 2, 4] {
            let unwound = std::panic::catch_unwind(|| {
                with_batch_workers(workers, || exact_knn_batch(&d, &refs, 3))
            });
            let payload = unwound.expect_err("a wrong-length query panics the scan");
            let message = payload.downcast_ref::<String>().expect("a formatted assertion");
            assert!(message.contains("slice lengths differ"), "{workers} workers: {message}");
        }
    }

    #[test]
    fn k_larger_than_dataset_returns_all() {
        let d = random_walk(5, 16, 4);
        let gt = exact_knn(&d, d.series(0), 10);
        assert_eq!(gt.len(), 5);
    }

    fn temp_cache_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hydra-gt-cache-{}-{name}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn ground_truth_cache_misses_then_hits_bitwise_identically() {
        let d = random_walk(200, 16, 11);
        let w = noisy_queries(&d, 6, &[0.1], 12);
        let dir = temp_cache_dir("hit-miss");

        let (first, hit1) = ground_truth_cached(&d, &w, 5, &dir);
        assert!(!hit1, "an empty cache must miss");
        let (second, hit2) = ground_truth_cached(&d, &w, 5, &dir);
        assert!(hit2, "the second identical call must hit");
        assert_eq!(first.k, second.k);
        assert_eq!(first.answers.len(), second.answers.len());
        for (a, b) in first.answers.iter().zip(second.answers.iter()) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.index, y.index);
                assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            }
        }
        // And both must equal the uncached computation.
        let fresh = ground_truth(&d, &w, 5);
        for (a, b) in fresh.answers.iter().zip(second.answers.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.index, y.index);
                assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ground_truth_cache_key_separates_dataset_queries_and_k() {
        let d = random_walk(120, 16, 21);
        let d2 = random_walk(120, 16, 22);
        let w = noisy_queries(&d, 4, &[0.1], 23);
        let w2 = noisy_queries(&d, 4, &[0.2], 24);
        let dir = std::path::Path::new("/tmp");
        let base = ground_truth_cache_file(dir, &d, &w, 5);
        assert_ne!(base, ground_truth_cache_file(dir, &d2, &w, 5));
        assert_ne!(base, ground_truth_cache_file(dir, &d, &w2, 5));
        assert_ne!(base, ground_truth_cache_file(dir, &d, &w, 6));
        assert_eq!(base, ground_truth_cache_file(dir, &d, &w, 5));
    }

    #[test]
    fn corrupted_cache_degrades_to_a_recomputing_miss() {
        let d = random_walk(150, 16, 31);
        let w = noisy_queries(&d, 5, &[0.1], 32);
        let dir = temp_cache_dir("corrupt");
        let (_, hit) = ground_truth_cached(&d, &w, 4, &dir);
        assert!(!hit);
        // Damage the cached file: flip a payload byte.
        let path = ground_truth_cache_file(&dir, &d, &w, 4);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (truth, hit) = ground_truth_cached(&d, &w, 4, &dir);
        assert!(!hit, "a damaged cache must be a miss, not an error");
        // The rewritten cache hits again and the answers are correct.
        let (again, hit) = ground_truth_cached(&d, &w, 4, &dir);
        assert!(hit);
        let fresh = ground_truth(&d, &w, 4);
        for (a, b) in fresh.answers.iter().zip(truth.answers.iter().chain(again.answers.iter())) {
            assert_eq!(a[0].index, b[0].index);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
