//! Figure 4: on-disk query efficiency vs. accuracy (100-NN queries) for the
//! disk-capable methods (DSTree, iSAX2+, VA+file, SRS, IMI), with the
//! simulated buffer pool much smaller than the dataset.
//!
//! Paper shape to reproduce: DSTree and iSAX2+ outperform everything else on
//! both ng and δ-ε queries; IMI is fast but its accuracy collapses; SRS
//! degrades badly on disk; iSAX2+ is competitive when indexing cost matters
//! (small workloads).
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
//! Pass `--out-of-core` (with `--load-index`) to serve the raw series from
//! the snapshot files through a real page cache instead of holding them
//! resident, and `--pool-pages N` to bound that cache — the genuinely
//! disk-resident regime of the paper. Answers, accuracy and per-query
//! `QueryStats` are byte-identical to the resident run at any pool size;
//! the store-level `bytes_read`/eviction totals become measurements.
//!
//! Pass `--page-codec u8|f16|f32` (with `--load-index`) to serve the raw
//! series through the quantized page tier: pages hold u8 (or f16) codes
//! with a per-page min/scale header, pruning runs on the fused
//! decode+distance kernels, and every returned distance is refined against
//! the exact f32 series. Accuracy and distance columns are bit-identical
//! to the default `f32` run at any pool size; `bytes_read` drops ~4×
//! (`u8`) or ~2× (`f16`) at equal `--pool-pages`, and the store-level
//! `compressed_bytes_read` counter records the coded traffic — the
//! equal-memory comparison CI diffs.
//!
//! Pass `--ingest-split F` (`0 < F < 1`) to build every index over the
//! first `ceil(F·n)` series only and stream the rest in through
//! `insert_batch` — the streaming-ingest regime. Methods without
//! streaming insert fall back to a full build. Every accuracy column is
//! identical to an unsplit run (the ingest-equivalence contract), and
//! with `--save-index` the saved snapshots are byte-identical too — the
//! diff CI runs to prove live growth loses nothing.
//!
//! Pass `--shards S` to build every method as a `ShardedIndex` over `S`
//! contiguous shards; with `--save-index DIR` each shard writes a complete
//! bootable `DIR/shard-<s>/` directory for one `hydra-serve --shard-role
//! worker`. Exact and guarantee-class accuracy columns are identical to
//! the unsharded run; ng-approximate rows may improve (the effort knob
//! applies per shard).
//!
//! Pass `--trace-out FILE` to additionally write a per-stage breakdown
//! CSV (one row per sweep point per recorded pipeline stage: call count,
//! seconds, and I/O) — where each point's query time actually went.

fn main() {
    hydra_bench::efficiency_accuracy_figure("fig4", hydra_bench::on_disk_datasets, false, 5);
}
