//! The batch fan-out: one helper that runs a body over a slice of items on
//! the calling thread plus scoped helper threads, and the test seam that
//! fixes its worker count.
//!
//! A file-backed query batch (`hydra_persist::backing::Collection::answer_batch`),
//! the brute-force ground-truth scan (`hydra_data::exact_knn_batch`), the
//! δ-ε histogram's distance samples
//! ([`crate::DistanceHistogram::from_pairwise`]) all run on it, and so do,
//! with one worker per shard or connection, the sharded fan-out
//! (`hydra_shard::ShardedIndex`), the parallel workload runner
//! (`hydra_eval::run_workload_parallel`) and `serve_client`'s replay.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// The worker count [`with_batch_workers`] imposes on fan-outs started
    /// from this thread (`None`: the host's parallelism).
    static BATCH_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with every fan-out it starts on this thread ([`batch_workers`])
/// using `workers` workers instead of the host's parallelism — a test seam,
/// so that the parallel paths are exercised at 1, 2 and 4 workers on any
/// machine. Nested calls restore the outer count on every exit path.
#[doc(hidden)]
pub fn with_batch_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BATCH_WORKERS.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(BATCH_WORKERS.with(|w| w.replace(Some(workers.max(1)))));
    f()
}

/// The workers a fan-out may use: one per available core, or what
/// [`with_batch_workers`] imposes.
pub fn batch_workers() -> usize {
    BATCH_WORKERS
        .with(Cell::get)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `body` over every item of `items` on up to `workers` workers, at
/// most one per item, and returns the results in item order: the calling
/// thread plus scoped threads, each drawing the next item index from an
/// atomic cursor. With one worker nothing is spawned.
///
/// Each worker calls `scratch` once and hands the value to `body` for every
/// item it takes. A panicking `body` unwinds out of the call with its own
/// payload once every worker has stopped.
pub fn answer_on_workers<T: Sync, R: Send, S>(
    items: &[T],
    workers: usize,
    scratch: impl Fn() -> S + Sync,
    body: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut scratch = scratch();
        let mut answered = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices; the results reach
            // the caller through `join`.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return answered;
            };
            answered.push((i, body(&mut scratch, item)));
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut answered = work();
        for helper in helpers {
            answered.extend(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        answered.sort_unstable_by_key(|&(i, _)| i);
        answered.into_iter().map(|(_, result)| result).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_batch_comes_back_in_query_order_with_one_scratch_per_worker() {
        let queries: Vec<Vec<f32>> = (0..9).map(|i| vec![i as f32]).collect();
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        for workers in [1usize, 2, 4, 16] {
            let scratches = AtomicUsize::new(0);
            let got = answer_on_workers(
                &refs,
                workers,
                || scratches.fetch_add(1, Ordering::Relaxed),
                |_, query| query[0] as usize,
            );
            assert_eq!(got, (0..9).collect::<Vec<_>>(), "{workers} workers");
            assert_eq!(scratches.into_inner(), workers.min(9), "{workers} workers");

            // A panicking body unwinds out of the batch with its own
            // payload, whichever worker answered the query.
            let unwound = std::panic::catch_unwind(|| {
                answer_on_workers(&refs, workers, || (), |_, query| {
                    if query[0] == 5.0 {
                        panic!("query body");
                    }
                })
            });
            let payload = unwound.expect_err("the body's panic propagates");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"query body"));
        }
        let none: Vec<usize> = answer_on_workers::<&[f32], _, _>(&[], 4, || (), |_, _| unreachable!());
        assert!(none.is_empty());
    }

    #[test]
    fn the_seam_sets_the_worker_count_and_restores_it_on_every_exit() {
        let host = batch_workers();
        assert!(host >= 1);
        with_batch_workers(3, || {
            assert_eq!(batch_workers(), 3);
            with_batch_workers(0, || assert_eq!(batch_workers(), 1, "zero means one"));
            assert_eq!(batch_workers(), 3);
            let unwound = std::panic::catch_unwind(|| with_batch_workers(7, || panic!("inner")));
            assert!(unwound.is_err());
            assert_eq!(batch_workers(), 3, "restored after a panic");
        });
        assert_eq!(batch_workers(), host);
    }
}
