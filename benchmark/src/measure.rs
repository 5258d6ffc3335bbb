//! Timing bookkeeping of a measured phase: equal time slices, per-operation
//! latencies, failure and accuracy accounting, and the order statistics the
//! report is made of.

use std::time::{Duration, Instant};

use crate::sut::{QueryStats, StoreCounters};
use crate::trace::Span;

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Distance between the first and third quartile as a share of the median
/// (0 for fewer than two values or a zero median).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    (percentile(values, 0.75) - percentile(values, 0.25)) / mid.abs()
}

/// Which end of a set of per-slice values the undisturbed slices lie at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiet {
    /// Latencies: interference makes them longer.
    Lowest,
    /// Rates: interference makes them lower.
    Highest,
}

/// Mean of the quarter of `values` (at least one) nearest the quiet end
/// (0 when empty).
pub fn quiet_quarter(values: &[f64], quiet: Quiet) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if quiet == Quiet::Highest {
        sorted.reverse();
    }
    let quarter = &sorted[..(sorted.len() / 4).max(1)];
    quarter.iter().sum::<f64>() / quarter.len() as f64
}

/// Median wall time of `reps` runs of `f`, each of `iters` calls, per call,
/// in seconds.
pub fn time_per_call(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_call.push(start.elapsed().as_secs_f64() / iters as f64);
    }
    median(&per_call)
}

/// What one client thread (or the single harness thread) saw during one
/// slice.
#[derive(Debug, Default)]
pub struct SliceOut {
    /// Latency of every completed operation, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Operations whose answer was wrong, refused or errored.
    pub failed: u64,
    /// `(pool query, average precision)` of every answered operation.
    pub precisions: Vec<(u32, f64)>,
    /// Per-query work counters summed (in-process workloads only).
    pub stats: QueryStats,
    /// Spans recorded while the slice ran traced.
    pub spans: Vec<Span>,
    /// Operations attempted that have no latency (post-measurement checks).
    pub checks: u64,
    /// Seconds of the slice spent on work the workload declares untimed
    /// (the slice runs that much longer, and its wall time excludes it).
    pub untimed_s: f64,
}

impl SliceOut {
    /// Folds another thread's view of the same slice into this one.
    pub fn absorb(&mut self, other: SliceOut) {
        self.lat_ms.extend(other.lat_ms);
        self.failed += other.failed;
        self.precisions.extend(other.precisions);
        self.stats.merge(&other.stats);
        self.spans.extend(other.spans);
        self.checks += other.checks;
        self.untimed_s = self.untimed_s.max(other.untimed_s);
    }
}

/// One finished slice of the measured phase.
#[derive(Debug)]
pub struct Slice {
    /// Whether the harness recorded spans during it.
    pub traced: bool,
    /// Wall time from the slice's start to its last completion.
    pub wall_s: f64,
    /// What was observed.
    pub out: SliceOut,
}

impl Slice {
    /// Operations completed per second of this slice.
    pub fn ops_per_s(&self) -> f64 {
        self.out.lat_ms.len() as f64 / self.wall_s
    }
}

/// A measured phase: alternating untraced and traced slices (all untraced
/// when the run is not traced).
#[derive(Debug, Default)]
pub struct Phase {
    /// The slices, in the order they ran.
    pub slices: Vec<Slice>,
}

/// Equal slices a workload's measured phase is cut into. The timed metrics
/// are read off the quietest quarter of them ([`quiet_quarter`]): with
/// twenty half-second slices (at the benchmark's ten seconds) that is five
/// slices, which the host's interference bursts — a few seconds each on the
/// reference box — leave alone in all but the worst runs.
pub const SLICES: usize = 20;

impl Phase {
    /// Runs the phase: `seconds` of measurement cut into `slices` equal
    /// slices; a traced phase alternates untraced and traced slices, so
    /// drift hits both sides alike.
    pub fn run(
        seconds: f64,
        slices: usize,
        traced: bool,
        mut slice: impl FnMut(Duration, bool) -> SliceOut,
    ) -> Self {
        let each = Duration::from_secs_f64(seconds / slices as f64);
        let mut phase = Phase::default();
        for i in 0..slices {
            let slice_traced = traced && i % 2 == 1;
            let start = Instant::now();
            let out = slice(each, slice_traced);
            phase.slices.push(Slice {
                traced: slice_traced,
                wall_s: start.elapsed().as_secs_f64() - out.untimed_s,
                out,
            });
        }
        phase
    }

    fn side(&self, traced: bool) -> impl Iterator<Item = &Slice> {
        self.slices.iter().filter(move |s| s.traced == traced)
    }

    /// Slice throughputs of one side (untraced or traced).
    pub fn slice_rates(&self, traced: bool) -> Vec<f64> {
        self.side(traced).map(Slice::ops_per_s).collect()
    }

    /// Operations attempted over the whole phase.
    pub fn attempted(&self) -> u64 {
        self.slices.iter().map(|s| s.out.lat_ms.len() as u64).sum()
    }

    /// Operations failed over the whole phase.
    pub fn failed(&self) -> u64 {
        self.slices.iter().map(|s| s.out.failed).sum()
    }

    /// Per-query work counters summed over the whole phase.
    pub fn stats(&self) -> QueryStats {
        let mut total = QueryStats::default();
        for s in &self.slices {
            total.merge(&s.out.stats);
        }
        total
    }

    /// Every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.slices
            .iter()
            .flat_map(|s| s.out.spans.iter().copied())
            .collect()
    }
}

/// `later - earlier`, counter by counter (saturating: `ingest_stream` swaps
/// its store for a fresh one between passes, which restarts the counters).
pub fn counters_since(later: &StoreCounters, earlier: &StoreCounters) -> StoreCounters {
    StoreCounters {
        random_ios: later.random_ios.saturating_sub(earlier.random_ios),
        sequential_ios: later.sequential_ios.saturating_sub(earlier.sequential_ios),
        bytes_read: later.bytes_read.saturating_sub(earlier.bytes_read),
        pool_hits: later.pool_hits.saturating_sub(earlier.pool_hits),
        pool_misses: later.pool_misses.saturating_sub(earlier.pool_misses),
        pool_evictions: later.pool_evictions.saturating_sub(earlier.pool_evictions),
        compressed_bytes_read: later
            .compressed_bytes_read
            .saturating_sub(earlier.compressed_bytes_read),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert!((relative_iqr(&v) - 1.5 / 2.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[7.0]), 0.0);
    }

    #[test]
    fn the_quiet_quarter_is_the_fast_end() {
        let v = [8.0, 1.0, 5.0, 2.0, 7.0, 3.0, 6.0, 4.0];
        assert_eq!(quiet_quarter(&v, Quiet::Lowest), 1.5);
        assert_eq!(quiet_quarter(&v, Quiet::Highest), 7.5);
        assert_eq!(quiet_quarter(&[3.0, 9.0], Quiet::Lowest), 3.0);
        assert_eq!(quiet_quarter(&[], Quiet::Highest), 0.0);
    }

    #[test]
    fn a_traced_phase_alternates_sides() {
        let phase = Phase::run(0.01, SLICES, true, |_, traced| SliceOut {
            lat_ms: vec![1.0; if traced { 2 } else { 4 }],
            ..SliceOut::default()
        });
        assert_eq!(phase.slices.len(), SLICES);
        assert_eq!(phase.slice_rates(true).len(), SLICES / 2);
        assert_eq!(phase.attempted(), 6 * SLICES as u64 / 2);
    }
}
