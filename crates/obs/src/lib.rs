//! # hydra-obs — zoo-wide telemetry
//!
//! Observability primitives shared by every tier of the Hydra stack:
//!
//! * [`MetricsRegistry`] — a process-wide (or per-server) registry of
//!   atomic [`Counter`]s, [`Gauge`]s, and fixed-bucket log-scale
//!   [`Histogram`]s, keyed by `name{label="value"}` pairs and rendered
//!   as Prometheus text exposition ([`MetricsRegistry::render`]).
//! * [`QueryTrace`] — a per-query (or per-workload) breakdown of where
//!   time and I/O went, as one merged [`StageSpan`] per pipeline
//!   [`Stage`] (enqueue → per-shard search → write).
//!
//! ## Design constraints
//!
//! The crate is **dependency-free** (std only) because it sits below
//! everything else in the workspace DAG — core, storage, eval, serve,
//! and bench all link it, so it must not drag anything in. All hot-path
//! operations (`inc`, `add`, `observe`, `set`) are single relaxed
//! atomic RMWs; the registry mutex is touched only on first
//! registration and at scrape time. The cardinal rule, tested at the
//! integration level: **observability never changes answers** — every
//! instrument is additive bookkeeping on the side of the query path.
//!
//! ## Panics
//!
//! Hostile *data* never panics anything in this workspace, and that
//! holds here: rendering, observing, and merging are total. The one
//! deliberate panic is a **programmer error**: registering the same
//! `name{labels}` key twice with two different metric kinds (say, a
//! counter and then a histogram). That is a bug in instrumentation
//! code, caught loudly at first use rather than silently mis-rendered.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod alloc;
mod metrics;
mod trace;

pub use alloc::{heap_live_bytes, heap_peak_bytes, reset_heap_peak, TrackingAllocator};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use trace::{Stage, StageIo, StageSpan, QueryTrace};
