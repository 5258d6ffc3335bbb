//! One run of one workload: prepare the inputs, set the workload up (three
//! times untraced, so `setup_s` is a median), measure for the requested
//! seconds, check every answer, and turn what was seen into named metrics —
//! the six end-to-end ones untraced, the per-layer ones traced.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::inputs::{Dirs, Inputs, Scale};
use crate::measure::{
    counters_since, median, percentile, quiet_quarter, relative_iqr, Phase, Quiet, SliceOut, SLICES,
};
use crate::probes::{self, LayerCosts};
use crate::schema::{MetricDef, END_TO_END, PER_LAYER};
use crate::sut::{heap, Scrape, StoreCounters};
use crate::trace;
use crate::workloads::{self, ServeScrape, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of the measured seconds each set-up spends warming up, untimed as
/// far as operations go but inside `setup_s`.
const WARMUP_SHARE: f64 = 0.1;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// One of [`crate::schema::WORKLOADS`].
    pub workload: &'a str,
    /// Seed of every input.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// Whether to record spans and report per-layer metrics.
    pub traced: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Name, unit and direction, from [`crate::schema`].
    pub def: &'static MetricDef,
    /// The value as measured.
    pub value: f64,
    /// Within-run spread as a share of the value (relative inter-quartile
    /// range of the slices or set-ups it is the median of; 0 where the
    /// metric is a single deterministic number).
    pub spread: f64,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload that ran.
    pub workload: String,
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations whose answer was wrong, refused or errored.
    pub failed: u64,
    /// The end-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Measured>,
    /// Per span name: count, total and self time, as printed lines.
    pub trace_summary: Vec<String>,
}

/// Everything the measured phase of one workload produced.
struct Observed {
    setup_s: Vec<f64>,
    phase: Phase,
    extra: SliceOut,
    peak_heap_mb: f64,
    store: StoreCounters,
    serve: Option<ServeScrape>,
    in_process_us: f64,
}

impl Observed {
    fn attempted(&self) -> u64 {
        self.phase.attempted() + self.extra.checks
    }

    fn failed(&self) -> u64 {
        self.phase.failed() + self.extra.failed
    }

    /// Mean average precision over the distinct pool queries answered.
    /// Answers are deterministic per query, so each counts once however
    /// often the run got round to it — the value repeats exactly across
    /// runs of one seed once the pool has been covered.
    fn map(&self) -> f64 {
        let by_query: BTreeMap<u32, f64> = self
            .phase
            .slices
            .iter()
            .map(|s| &s.out)
            .chain([&self.extra])
            .flat_map(|out| out.precisions.iter().copied())
            .collect();
        by_query.values().sum::<f64>() / by_query.len().max(1) as f64
    }
}

/// Sets `name` up `reps` times (each including its warm-up pass), measures
/// on the last instance, and tears it down.
fn observe(
    name: &str,
    inputs: &Inputs,
    dirs: &Dirs,
    seconds: f64,
    slices: usize,
    traced: bool,
    reps: usize,
) -> Observed {
    let warmup = Duration::from_secs_f64(seconds * WARMUP_SHARE);
    let mut setup_s = Vec::with_capacity(reps);
    let mut workload: Option<Box<dyn Workload + '_>> = None;
    for _ in 0..reps {
        if let Some(previous) = workload.take() {
            previous.finish(false);
        }
        let start = Instant::now();
        let mut fresh = workloads::set_up(name, inputs, dirs);
        fresh.slice(warmup, false);
        setup_s.push(start.elapsed().as_secs_f64());
        workload = Some(fresh);
    }
    let mut workload = workload.expect("at least one set-up");
    let store_before = workload.store_counters();
    let serve_before = workload.scrape();
    heap::reset_heap_peak();
    let phase = Phase::run(seconds, slices, traced, |dur, traced| {
        workload.slice(dur, traced)
    });
    let peak_heap_mb = heap::heap_peak_bytes() as f64 / (1024.0 * 1024.0);
    let store = counters_since(&workload.store_counters(), &store_before);
    let serve = workload
        .scrape()
        .zip(serve_before)
        .map(|(after, before)| ServeScrape {
            workers: after.workers.since(&before.workers),
            router: after.router.zip(before.router).map(|(a, b)| a.since(&b)),
            scrape_ms: after.scrape_ms,
        });
    let in_process_us = workload.in_process_search_us();
    let extra = workload.finish(true);
    Observed {
        setup_s,
        phase,
        extra,
        peak_heap_mb,
        store,
        serve,
        in_process_us,
    }
}

/// Runs one workload once and reports its metrics.
pub fn run(spec: &RunSpec<'_>, dirs: &Dirs) -> RunReport {
    let inputs = Inputs::prepare(spec.seed, spec.scale, dirs);
    let reps = if spec.traced { 1 } else { SETUP_REPS };
    let seen = observe(
        spec.workload,
        &inputs,
        dirs,
        spec.seconds,
        SLICES,
        spec.traced,
        reps,
    );
    let (metrics, trace_summary) = if spec.traced {
        let spans = seen.phase.spans();
        let path = dirs.out.join(format!("trace-{}.jsonl", spec.workload));
        if let Err(e) = trace::write_jsonl(&spans, &path) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
        let summary = trace::summarize(&spans)
            .into_iter()
            .map(|(name, s)| {
                format!(
                    "span {name}: count {} total_ms {:.3} self_ms {:.3}",
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.self_ns as f64 / 1e6
                )
            })
            .collect();
        (per_layer(spec, &inputs, dirs, &seen), summary)
    } else {
        (end_to_end(&seen), Vec::new())
    };
    RunReport {
        workload: spec.workload.to_string(),
        attempted: seen.attempted(),
        failed: seen.failed(),
        metrics,
        trace_summary,
    }
}

fn end_to_end(seen: &Observed) -> Vec<Measured> {
    let rates = seen.phase.slice_rates(false);
    let slice_quantile = |q: f64| -> Vec<f64> {
        seen.phase
            .slices
            .iter()
            .map(|s| percentile(&s.out.lat_ms, q))
            .collect()
    };
    let (slice_p50, slice_p99) = (slice_quantile(0.5), slice_quantile(0.99));
    let setup_mid = median(&seen.setup_s);
    let setup_range = seen.setup_s.iter().copied().fold(f64::MIN, f64::max)
        - seen.setup_s.iter().copied().fold(f64::MAX, f64::min);
    // The three timed metrics are means over the quietest quarter of the
    // slices, not medians over all of them: on the shared reference host an
    // interference burst can cover half of a ten-second run, which moves
    // the median slice (its p99 most of all) and leaves the quiet quarter
    // alone. Interference only ever adds time, so the quiet end is the
    // fast one.
    let values = [
        ("setup_s", setup_mid, setup_range / setup_mid),
        (
            "ops_per_s",
            quiet_quarter(&rates, Quiet::Highest),
            relative_iqr(&rates),
        ),
        (
            "lat_p50_ms",
            quiet_quarter(&slice_p50, Quiet::Lowest),
            relative_iqr(&slice_p50),
        ),
        (
            "lat_p99_ms",
            quiet_quarter(&slice_p99, Quiet::Lowest),
            relative_iqr(&slice_p99),
        ),
        ("map", seen.map(), 0.0),
        ("peak_heap_mb", seen.peak_heap_mb, 0.0),
    ];
    END_TO_END
        .iter()
        .map(|def| {
            let (_, value, spread) = values
                .iter()
                .find(|(name, _, _)| *name == def.name)
                .expect("every end-to-end metric is computed");
            Measured {
                def,
                value: *value,
                spread: *spread,
            }
        })
        .collect()
}

/// What a wire-shaped run (the workload itself, or a short probe of the
/// same shape) showed: client-side mean latency beside the servers' own
/// account of where the time went.
#[derive(Clone)]
struct WireView {
    scrape: ServeScrape,
    client_mean_us: f64,
    ops: f64,
    wall_s: f64,
    in_process_us: f64,
}

impl WireView {
    fn of(seen: &Observed) -> Option<WireView> {
        let scrape = seen.serve.as_ref()?;
        let ops = seen.phase.attempted() as f64;
        let total_ms: f64 = seen
            .phase
            .slices
            .iter()
            .flat_map(|s| s.out.lat_ms.iter())
            .sum();
        Some(WireView {
            scrape: scrape.clone(),
            client_mean_us: total_ms / ops.max(1.0) * 1e3,
            ops,
            wall_s: seen.phase.slices.iter().map(|s| s.wall_s).sum(),
            in_process_us: seen.in_process_us,
        })
    }

    /// A short untraced run of a wire workload, for traced runs of other
    /// workloads.
    fn probe(name: &str, inputs: &Inputs, dirs: &Dirs) -> WireView {
        // Two slices: every slice end drains the pipeline, which a short
        // probe cut twenty ways would mostly be measuring.
        WireView::of(&observe(
            name,
            inputs,
            dirs,
            inputs.scale.wire_probe_s,
            2,
            false,
            1,
        ))
        .expect("wire workloads scrape their servers")
    }
}

/// Mean of the histogram `family` over the label sets that carry `labels`.
fn mean_of(scrape: &Scrape, family: &str, labels: &[(&str, &str)]) -> f64 {
    let total = |suffix: &str| {
        let name = format!("{family}_{suffix}");
        if labels.is_empty() {
            scrape.sum_prefix(&name)
        } else {
            scrape.labelled(&name, labels)
        }
    };
    let count = total("count");
    if count == 0.0 {
        0.0
    } else {
        total("sum") / count
    }
}

fn per_layer(spec: &RunSpec<'_>, inputs: &Inputs, dirs: &Dirs, seen: &Observed) -> Vec<Measured> {
    let mut values: Vec<(&'static str, f64)> = Vec::with_capacity(PER_LAYER.len());
    let costs: LayerCosts = probes::run(inputs, dirs, &mut values);

    // The traced workload's own counts, per operation.
    let ops = seen.phase.attempted().max(1) as f64;
    let own_wire = WireView::of(seen);
    let stats = seen.phase.stats();
    let query_stat = |name: &str, in_process: u64| match &own_wire {
        Some(view) => view
            .scrape
            .workers
            .labelled("hydra_query_stats_total", &[("counter", name)]),
        None => in_process as f64,
    };
    let distance_computations =
        query_stat("distance_computations", stats.distance_computations) / ops;
    let series_scanned = query_stat("series_scanned", stats.series_scanned) / ops;
    let accesses = (seen.store.pool_hits + seen.store.pool_misses) as f64;
    values.extend([
        ("index.distance_computations_per_op", distance_computations),
        (
            "index.lower_bound_computations_per_op",
            query_stat("lower_bound_computations", stats.lower_bound_computations) / ops,
        ),
        (
            "index.leaves_visited_per_op",
            query_stat("leaves_visited", stats.leaves_visited) / ops,
        ),
        (
            "index.series_scanned_ratio",
            series_scanned / inputs.scale.n as f64,
        ),
        (
            "storage.pool_hit_ratio",
            if accesses == 0.0 {
                1.0
            } else {
                seen.store.pool_hits as f64 / accesses
            },
        ),
        (
            "storage.pool_misses_per_op",
            seen.store.pool_misses as f64 / ops,
        ),
        (
            "storage.evictions_per_op",
            seen.store.pool_evictions as f64 / ops,
        ),
        (
            "storage.bytes_read_per_op",
            seen.store.bytes_read as f64 / ops,
        ),
        (
            "storage.random_ios_per_op",
            seen.store.random_ios as f64 / ops,
        ),
        (
            "storage.sequential_ios_per_op",
            seen.store.sequential_ios as f64 / ops,
        ),
    ]);

    // Serving, as the servers account for it: on the single-server shape
    // and on the routed shape — the workload's own run when it has that
    // shape, a short probe of it otherwise.
    let wire_view = |shape: &str| match &own_wire {
        Some(own) if spec.workload == shape => own.clone(),
        _ => WireView::probe(shape, inputs, dirs),
    };
    let (direct, routed) = (wire_view("serve_ng"), wire_view("route_exact"));
    let workers = &direct.scrape.workers;
    let stage = |name: &str| mean_of(workers, "hydra_stage_micros", &[("stage", name)]);
    // Per-stage means sum to the server's own account of one query.
    let stages_us: f64 = [
        "enqueue",
        "batch_group",
        "fan_out",
        "shard_search",
        "merge",
        "write",
    ]
    .iter()
    .map(|name| stage(name))
    .sum();
    let ticks = workers.get("hydra_ticks_total").max(1.0);
    let router = routed
        .scrape
        .router
        .as_ref()
        .expect("the routed shape has a router");
    let worker_call_us = mean_of(router, "hydra_router_worker_call_micros", &[]);
    values.extend([
        ("serve.stage_enqueue_us", stage("enqueue")),
        ("serve.stage_shard_search_us", stage("shard_search")),
        ("serve.stage_write_us", stage("write")),
        (
            "serve.batch_occupancy_mean",
            mean_of(workers, "hydra_batch_occupancy", &[]),
        ),
        (
            "serve.batch_calls_per_tick",
            workers.get("hydra_batch_calls_total") / ticks,
        ),
        (
            "serve.ticks_per_s",
            workers.get("hydra_ticks_total") / direct.wall_s,
        ),
        (
            "serve.rx_bytes_per_op",
            workers.get("hydra_rx_bytes_total") / direct.ops.max(1.0),
        ),
        (
            "serve.tx_bytes_per_op",
            workers.get("hydra_tx_bytes_total") / direct.ops.max(1.0),
        ),
        ("serve.router_worker_call_us", worker_call_us),
        (
            "serve.router_self_us",
            routed.client_mean_us - worker_call_us,
        ),
        (
            "serve.router_worker_errors",
            router.sum_prefix("hydra_router_worker_errors_total"),
        ),
        (
            "serve.overhead_share",
            1.0 - direct.in_process_us / direct.client_mean_us,
        ),
        // What the client saw beyond the server's own account is nobody's.
        ("serve.unattributed_us", direct.client_mean_us - stages_us),
        ("obs.scrape_ms", direct.scrape.scrape_ms),
    ]);

    // Traced against untraced throughput of this workload, interleaved.
    let untraced_rate = median(&seen.phase.slice_rates(false));
    values.push((
        "obs.tracing_overhead_ratio",
        median(&seen.phase.slice_rates(true)) / untraced_rate,
    ));

    // Probe cost x per-operation count, as a share of one operation's time:
    // which layer is on the critical path, before anyone touches it.
    let (op_us, serve_us) = match spec.workload {
        "serve_ng" => (direct.client_mean_us, costs.noop_rtt_us),
        "route_exact" => (routed.client_mean_us, 2.0 * costs.noop_rtt_us),
        _ => (1e6 / untraced_rate, 0.0),
    };
    // Every candidate run to completion: an upper bound, since early
    // abandoning cuts most of them short.
    let kernel_us = distance_computations * costs.distance_ns / 1e3;
    let storage_us = (seen.store.pool_misses as f64 * costs.read_miss_us
        + seen.store.pool_hits as f64 * costs.read_hit_us)
        / ops;
    values.extend([
        ("est.kernel_share", kernel_us / op_us),
        ("est.storage_share", storage_us / op_us),
        ("est.serve_share", serve_us / op_us),
        (
            "est.unattributed_share",
            1.0 - (kernel_us + storage_us + serve_us) / op_us,
        ),
    ]);

    PER_LAYER
        .iter()
        .map(|def| Measured {
            def,
            value: values
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", def.name))
                .1,
            spread: 0.0,
        })
        .collect()
}
