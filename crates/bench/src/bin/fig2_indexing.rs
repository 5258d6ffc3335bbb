//! Figure 2: indexing scalability — (a) index-building time and (b) index
//! memory footprint as the dataset size grows.
//!
//! Paper shape to reproduce: iSAX2+ builds fastest, followed by VA+file and
//! SRS; DSTree is slower; HNSW and IMI are the slowest despite parallelism.
//! DSTree has the smallest footprint, iSAX2+ next; IMI/SRS/VA+file/FLANN are
//! orders of magnitude larger; QALSH and HNSW the largest (they keep raw
//! data or per-point signatures).
//!
//! Pass `--save-index DIR` to snapshot every index right after its timed
//! build, or `--load-index DIR` to skip the builds and report snapshot
//! load times instead — the `fig2a` column then measures restore cost,
//! which is the honest number for a server booting from disk. Snapshot
//! fingerprints cover the dataset content and the build configuration, so
//! the only consumer of a `fig2` snapshot directory is `fig2_indexing
//! --load-index` itself (fig3/fig4 use their own datasets and seeds and
//! keep their own directories).

use hydra_bench::{bench_flags, build_or_load_methods, print_header, print_row, scale};

fn main() {
    let flags = bench_flags();
    print_header();
    let sizes = [1_000usize, 2_000, 4_000, 8_000];
    for &n in &sizes {
        let n = n * scale();
        let data = hydra::data::random_walk(n, 256, 42);
        let name = format!("rand-{n}");
        for built in build_or_load_methods(&name, &data, true, 7, &flags) {
            print_row(
                if built.loaded {
                    "fig2a-load-time"
                } else {
                    "fig2a-indexing-time"
                },
                &name,
                built.index.name(),
                if built.loaded { "load" } else { "build" },
                n as f64,
                built.build_seconds,
            );
            print_row(
                "fig2b-index-footprint",
                &name,
                built.index.name(),
                "footprint",
                n as f64,
                built.index.memory_footprint() as f64 / (1024.0 * 1024.0),
            );
        }
    }
}
