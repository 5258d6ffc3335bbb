//! Figure 3: in-memory query efficiency vs. accuracy (100-NN queries) on
//! short random walks, long random walks, SIFT-like and Deep-like vectors.
//!
//! For every method and sweep setting the harness emits three series per
//! dataset, matching the paper's panels:
//! * throughput (queries/minute) vs. MAP, for ng-approximate sweeps and for
//!   guarantee-carrying (δ-ε) sweeps;
//! * combined index + 100-query cost vs. MAP;
//! * combined index + 10K-query cost (extrapolated) vs. MAP.
//!
//! Paper shape to reproduce: HNSW has the best ng throughput/accuracy but
//! never reaches MAP = 1; the data-series indexes do. DSTree dominates the
//! δ-ε methods; SRS caps out at moderate MAP; with indexing time included,
//! iSAX2+ wins small workloads and DSTree large ones.
//!
//! Every workload runs under the paper's sequential protocol, one query at
//! a time; parallel replay of the same workloads is `serve_client
//! --connections N` against a `hydra-serve` booted from `--save-index`.
//!
//! Pass `--save-index DIR` to snapshot every index after its build, or
//! `--load-index DIR` to restore every index from such snapshots and skip
//! the build phase entirely — the combined-cost columns then report the
//! load time instead of a rebuild, and the accuracy columns are identical
//! by the snapshot contract. `HYDRA_GT_CACHE=DIR` additionally caches the
//! exact ground-truth answers.
//!
//! Pass `--shards S` to build every method as a `ShardedIndex` over `S`
//! contiguous shards of each dataset — same method set, same CSV rows,
//! answers merged by (distance, global id). Exact and guarantee-class
//! accuracy is identical to the unsharded run; ng-approximate rows may
//! improve (the effort knob applies per shard).
//!
//! Pass `--trace-out FILE` to additionally write a per-stage breakdown
//! CSV (one row per sweep point per recorded pipeline stage: call count,
//! seconds, and I/O) — where each point's query time actually went.

fn main() {
    hydra_bench::efficiency_accuracy_figure("fig3", hydra_bench::in_memory_datasets, true, 3);
}
