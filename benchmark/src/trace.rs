//! The harness-side span recorder of a traced run: one span per call the
//! harness makes into a layer, kept in memory, written as JSON lines when
//! the run ends. Spans inside the program are a later issue; from outside,
//! nested layers are invisible, which is what the layer probes are for.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span ids are unique per process, across threads and slices; 0 is the
/// "no parent" mark. Relaxed: the counter publishes no other data.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// One recorded call: `parent == 0` marks an operation's root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one (0 for an operation root).
    pub parent: u64,
    /// The operation both belong to.
    pub op: u64,
    /// `layer.call`, e.g. `dstree.search_batch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// An in-memory span log. Each client thread owns one per slice and the
/// logs are concatenated at the end of the phase.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch` (one epoch per workload, so
    /// the spans of all its tracers share a time axis).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent itself is recorded (it ends last).
    pub fn reserve(&mut self) -> u64 {
        NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
    }

    /// Reserves an id and records a finished child span in one step.
    pub fn child(
        &mut self,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.reserve();
        self.record(id, parent, op, name, start, end);
    }
}

/// Count, total and self time of every span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameSummary {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by child spans.
    pub self_ns: u64,
}

/// Per-name totals, with self time = duration minus children.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
    }
    let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
    for span in spans {
        let duration = span.end_ns - span.start_ns;
        let covered = child_ns.get(&span.id).copied().unwrap_or(0);
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(covered);
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(epoch);
        let root = t.reserve();
        t.child(root, 1, "layer.a", at(10), at(40));
        t.child(root, 1, "layer.b", at(50), at(60));
        t.record(root, 0, 1, "op", at(0), at(100));
        let summary = summarize(&t.spans);
        assert_eq!(summary["op"].total_ns, 100_000);
        assert_eq!(summary["op"].self_ns, 60_000);
        assert_eq!(summary["layer.a"].self_ns, 30_000);
        assert_eq!(summary["layer.b"].count, 1);
        // A second tracer never reuses an id: slices are summarized together.
        let mut later = Tracer::new(epoch);
        assert!(t.spans.iter().all(|s| s.id != later.reserve()));
    }
}
