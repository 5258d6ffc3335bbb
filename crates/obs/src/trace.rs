//! Per-query stage tracing: where did the time (and I/O) go?
//!
//! A [`QueryTrace`] holds one merged [`StageSpan`] per pipeline
//! [`Stage`]. Producers call [`QueryTrace::record`] /
//! [`QueryTrace::record_io`] as work completes; consumers (the
//! slow-query log, `--trace-out` CSVs, `WorkloadReport`) read the spans
//! back. Traces are plain data — cloneable, mergeable, comparable — so
//! they ride inside reports without threading or lifetime baggage.

use std::time::Duration;

/// The pipeline stages a query can pass through, in execution order.
///
/// Single-process serving records enqueue → per-shard search → write;
/// the offline eval runner records the search stage alone. The router
/// records no stages (its per-worker call time is
/// `hydra_router_worker_call_micros`). Stages a query never entered
/// simply stay at zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Waiting in the batcher queue before any work.
    Enqueue,
    /// The actual per-shard (or single-index) similarity search.
    ShardSearch,
    /// Encoding and writing the response frame.
    Write,
}

impl Stage {
    /// Every stage, in pipeline order (the order trace consumers print).
    pub const ALL: [Stage; 3] = [Stage::Enqueue, Stage::ShardSearch, Stage::Write];

    /// Stable lowercase name used in metric labels, CSV rows, and the
    /// slow-query log.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Enqueue => "enqueue",
            Stage::ShardSearch => "shard_search",
            Stage::Write => "write",
        }
    }
}

/// I/O attributed to one stage: what the storage layer did on this
/// stage's behalf.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageIo {
    /// Raw bytes read from the series store.
    pub bytes_read: u64,
    /// Random (seek-then-read) I/O operations.
    pub random_ios: u64,
    /// Sequential (read-ahead-friendly) I/O operations.
    pub sequential_ios: u64,
}

impl StageIo {
    /// Component-wise sum.
    pub fn merge(&mut self, other: &StageIo) {
        self.bytes_read += other.bytes_read;
        self.random_ios += other.random_ios;
        self.sequential_ios += other.sequential_ios;
    }
}

/// The merged record of everything one stage did for one query (or one
/// whole workload — spans add).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageSpan {
    /// How many times the stage ran (a whole workload accumulates).
    pub calls: u64,
    /// Total wall-clock nanoseconds spent in the stage.
    pub nanos: u64,
    /// I/O attributed to the stage.
    pub io: StageIo,
}

/// One query's (or one workload's) per-stage breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryTrace {
    spans: [StageSpan; Stage::ALL.len()],
}

impl QueryTrace {
    /// An all-zero trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed pass through `stage`.
    pub fn record(&mut self, stage: Stage, elapsed: Duration) {
        let span = &mut self.spans[stage as usize];
        span.calls += 1;
        span.nanos += elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
    }

    /// Attributes I/O to `stage` (does not bump `calls` — pair with
    /// [`QueryTrace::record`] for the timing half).
    pub fn record_io(&mut self, stage: Stage, io: StageIo) {
        self.spans[stage as usize].io.merge(&io);
    }

    /// Adds another trace into this one, stage by stage.
    pub fn merge(&mut self, other: &QueryTrace) {
        for stage in Stage::ALL {
            let i = stage as usize;
            self.spans[i].calls += other.spans[i].calls;
            self.spans[i].nanos += other.spans[i].nanos;
            self.spans[i].io.merge(&other.spans[i].io);
        }
    }

    /// The span for one stage.
    pub fn span(&self, stage: Stage) -> StageSpan {
        self.spans[stage as usize]
    }

    /// All `(stage, span)` pairs in pipeline order.
    pub fn spans(&self) -> impl Iterator<Item = (Stage, StageSpan)> + '_ {
        Stage::ALL.iter().map(move |&s| (s, self.spans[s as usize]))
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self == &QueryTrace::default()
    }

    /// Renders the compact one-line stage breakdown used by the
    /// slow-query log: `enqueue=1.2ms shard_search=40.0ms ...`,
    /// skipping stages that never ran.
    pub fn breakdown(&self) -> String {
        let mut out = String::new();
        for (stage, span) in self.spans() {
            if span.calls == 0 && span.nanos == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&format!("{}={:.1}ms", stage.name(), span.nanos as f64 / 1e6));
        }
        if out.is_empty() {
            out.push_str("(no stages recorded)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_calls_and_time() {
        let mut t = QueryTrace::new();
        assert!(t.is_empty());
        t.record(Stage::ShardSearch, Duration::from_micros(500));
        t.record(Stage::ShardSearch, Duration::from_micros(300));
        t.record(Stage::Enqueue, Duration::from_micros(10));
        let s = t.span(Stage::ShardSearch);
        assert_eq!(s.calls, 2);
        assert_eq!(s.nanos, 800_000);
        assert!(!t.is_empty());
    }

    #[test]
    fn io_attribution_and_merge_sum_component_wise() {
        let mut a = QueryTrace::new();
        a.record(Stage::ShardSearch, Duration::from_nanos(100));
        a.record_io(Stage::ShardSearch, StageIo { bytes_read: 4096, random_ios: 2, sequential_ios: 1 });
        let mut b = QueryTrace::new();
        b.record(Stage::ShardSearch, Duration::from_nanos(50));
        b.record_io(Stage::ShardSearch, StageIo { bytes_read: 1024, random_ios: 0, sequential_ios: 3 });
        b.record(Stage::Write, Duration::from_nanos(7));
        a.merge(&b);
        let s = a.span(Stage::ShardSearch);
        assert_eq!(s.calls, 2);
        assert_eq!(s.nanos, 150);
        assert_eq!(s.io, StageIo { bytes_read: 5120, random_ios: 2, sequential_ios: 4 });
        assert_eq!(a.span(Stage::Write).calls, 1);
    }

    #[test]
    fn breakdown_prints_only_touched_stages_in_pipeline_order() {
        let mut t = QueryTrace::new();
        t.record(Stage::Write, Duration::from_micros(1500));
        t.record(Stage::Enqueue, Duration::from_micros(200));
        let line = t.breakdown();
        assert_eq!(line, "enqueue=0.2ms write=1.5ms");
        assert_eq!(QueryTrace::new().breakdown(), "(no stages recorded)");
    }

    #[test]
    fn stage_names_are_stable_and_unique() {
        let names: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}
