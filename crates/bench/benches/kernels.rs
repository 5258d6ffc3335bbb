//! Criterion micro-benchmarks of the computational kernels every index is
//! built on: distance computation, summarization and quantization — and of
//! the two per-page costs of the storage layer (a pool touch, a page miss).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hydra::storage::{BufferPool, FileSpan, SeriesStore};
use hydra::summarize::apca::{segment_stats, uniform_segments, Segment};
use hydra::summarize::quantization::{KMeans, ProductQuantizer, ScalarQuantizer};
use hydra::summarize::sax::{normal_breakpoints, sax_word, SaxParams};
use hydra::summarize::{paa, DftSummarizer, GaussianProjection};
use hydra::{FileIoMode, StorageConfig};

fn series(seed: u64, n: usize) -> Vec<f32> {
    let d = hydra::data::random_walk(1, n, seed);
    d.series(0).to_vec()
}

fn bench_distances(c: &mut Criterion) {
    let a = series(1, 256);
    let b = series(2, 256);
    let mut group = c.benchmark_group("distance");
    group.sample_size(30);
    group.bench_function("euclidean-256", |bench| {
        bench.iter(|| std::hint::black_box(hydra::core::euclidean(&a, &b)))
    });
    group.bench_function("early-abandon-256-tight", |bench| {
        bench.iter(|| std::hint::black_box(hydra::core::euclidean_early_abandon(&a, &b, 0.5)))
    });
    group.bench_function("early-abandon-256-loose", |bench| {
        bench.iter(|| {
            std::hint::black_box(hydra::core::euclidean_early_abandon(&a, &b, f32::INFINITY))
        })
    });
    group.finish();
}

/// The compressed page tier's fused decode+distance kernels against their
/// decode-into-a-scratch-buffer equivalent. The fused path's edge is
/// abandonment: it never decodes positions past the abandon point, so
/// under a tight bound (the refinement regime — most candidates abandon
/// early) it skips almost all decode work, while the loose-bound case
/// pays for fusion with a less vectorizable loop. The page tier's win is
/// bytes moved either way; these numbers locate the CPU crossover.
fn bench_fused_quantized(c: &mut Criterion) {
    let query = series(4, 256);
    let target = series(5, 256);
    let (lo, hi) = target.iter().fold((f32::MAX, f32::MIN), |(lo, hi), &v| {
        (lo.min(v), hi.max(v))
    });
    let scale = ((hi - lo) / 255.0).max(f32::MIN_POSITIVE);
    let min = lo;
    let u8_codes: Vec<u8> = target
        .iter()
        .map(|&v| (((v - min) / scale).round() as i64).clamp(0, 255) as u8)
        .collect();
    let f16_codes: Vec<u16> = target
        .iter()
        .map(|&v| hydra::core::f16_bits_from_f32(v))
        .collect();
    let mut group = c.benchmark_group("fused-quantized");
    group.sample_size(30);
    group.bench_function("fused-u8-256-loose", |bench| {
        bench.iter(|| {
            std::hint::black_box(hydra::core::euclidean_early_abandon_u8(
                &query,
                &u8_codes,
                min,
                scale,
                f32::INFINITY,
            ))
        })
    });
    group.bench_function("fused-u8-256-tight", |bench| {
        bench.iter(|| {
            std::hint::black_box(hydra::core::euclidean_early_abandon_u8(
                &query, &u8_codes, min, scale, 0.5,
            ))
        })
    });
    group.bench_function("fused-f16-256-loose", |bench| {
        bench.iter(|| {
            std::hint::black_box(hydra::core::euclidean_early_abandon_f16(
                &query,
                &f16_codes,
                f32::INFINITY,
            ))
        })
    });
    group.bench_function("decode-then-kernel-u8-256", |bench| {
        bench.iter(|| {
            let decoded: Vec<f32> = u8_codes.iter().map(|&c| min + c as f32 * scale).collect();
            std::hint::black_box(hydra::core::euclidean_early_abandon(
                &query,
                &decoded,
                f32::INFINITY,
            ))
        })
    });
    group.finish();
}

fn bench_summarizations(c: &mut Criterion) {
    let s = series(3, 256);
    let params = SaxParams::default();
    let breakpoints = normal_breakpoints(params.max_cardinality());
    let dft = DftSummarizer::new(256, 8);
    let proj = GaussianProjection::new(256, 16, 7);
    let segments = uniform_segments(256, 16);
    let mut group = c.benchmark_group("summarization");
    group.sample_size(30);
    group.bench_function("paa-256-to-16", |bench| {
        bench.iter(|| std::hint::black_box(paa(&s, 16)))
    });
    group.bench_function("sax-word-256", |bench| {
        bench.iter(|| std::hint::black_box(sax_word(&s, &params, &breakpoints)))
    });
    group.bench_function("dft-256-to-8", |bench| {
        bench.iter(|| std::hint::black_box(dft.transform(&s)))
    });
    group.bench_function("gaussian-projection-256-to-16", |bench| {
        bench.iter(|| std::hint::black_box(proj.project(&s)))
    });
    group.bench_function("eapca-stats-16-segments", |bench| {
        bench.iter(|| {
            let stats: Vec<_> = segments
                .iter()
                .map(|seg: &Segment| segment_stats(&s, *seg))
                .collect();
            std::hint::black_box(stats)
        })
    });
    group.finish();
}

fn bench_quantization(c: &mut Criterion) {
    let data = hydra::data::sift_like(512, 32, 5);
    let refs: Vec<&[f32]> = data.iter().collect();
    let sq = ScalarQuantizer::train(&refs, 4);
    let pq = ProductQuantizer::train(&refs, 4, 32, 10, 1);
    let km = KMeans::fit(&refs, 32, 10, 1);
    let query = data.series(0).to_vec();
    let code = pq.encode(data.series(1));
    let table = pq.distance_table(&query);
    let mut group = c.benchmark_group("quantization");
    group.sample_size(30);
    group.bench_function("scalar-encode-32d", |bench| {
        bench.iter(|| std::hint::black_box(sq.encode(&query)))
    });
    group.bench_function("pq-encode-32d", |bench| {
        bench.iter(|| std::hint::black_box(pq.encode(&query)))
    });
    group.bench_function("pq-adc-distance", |bench| {
        bench.iter(|| std::hint::black_box(ProductQuantizer::adc_distance(&table, &code)))
    });
    group.bench_function("kmeans-assign-32d-k32", |bench| {
        bench.iter(|| std::hint::black_box(km.assign(&query)))
    });
    group.bench_function("pq-distance-table", |bench| {
        bench.iter_batched(
            || query.clone(),
            |q| std::hint::black_box(pq.distance_table(&q)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The buffer pool's bookkeeping alone, at the benchmark's shape (512
/// pages behind a 32-page pool): what one page touch costs when it hits,
/// and when it misses and evicts. No frames, no I/O.
fn bench_pool_touch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_touch");
    group.sample_size(30);
    let mut pool = BufferPool::new(32);
    for page in 0..32 {
        pool.access(page);
    }
    let mut page = 0u64;
    group.bench_function("hit-32-resident", |bench| {
        bench.iter(|| {
            page = (page + 7) % 32;
            std::hint::black_box(pool.access(page))
        })
    });
    group.bench_function("miss-evict-512-over-32", |bench| {
        bench.iter(|| {
            page = (page + 37) % 512;
            std::hint::black_box(pool.access(page))
        })
    });
    group.finish();
}

/// The whole miss path of a file-backed store — allocate the frame, move
/// one 64 KiB page off the file into it, install it — isolated by a pool
/// of capacity 0 (every read misses, nothing is ever evicted), under both
/// transfer modes. The file sits in the OS page cache, so this is the
/// cost of the path, not of a device.
fn bench_page_miss(c: &mut Criterion) {
    let data = hydra::data::random_walk(512, 256, 9); // 8 pages of 64 series
    let path = std::env::temp_dir().join(format!("hydra-kernels-{}.flat", std::process::id()));
    let bytes: Vec<u8> = data
        .as_flat()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    std::fs::write(&path, bytes).expect("temp dir is writable");
    let span = FileSpan {
        offset: 0,
        records: data.len(),
    };
    let mut group = c.benchmark_group("page_miss");
    group.sample_size(30);
    for io in [FileIoMode::Pread, FileIoMode::Mmap] {
        let config = StorageConfig::on_disk().with_pool_pages(0).with_io_mode(io);
        let store = SeriesStore::file_backed(&path, span, 256, config).expect("span fits the file");
        let mut stats = hydra::QueryStats::new();
        let mut record = 0usize;
        group.bench_function(format!("{}-64KiB", io.name()), |bench| {
            bench.iter(|| {
                record = (record + 64 * 3) % 512;
                std::hint::black_box(store.read(record, &mut stats)[0])
            })
        });
    }
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(
    benches,
    bench_distances,
    bench_fused_quantized,
    bench_summarizations,
    bench_quantization,
    bench_pool_touch,
    bench_page_miss
);
criterion_main!(benches);
