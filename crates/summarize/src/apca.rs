//! The segment synopses of EAPCA, the extended Adaptive Piecewise Constant
//! Approximation.
//!
//! APCA (Chakrabarti et al.) represents a series with `l` variable-length
//! segments, each summarized by its mean. EAPCA (Wang et al., the DSTree
//! paper) additionally stores the standard deviation of each segment, which
//! gives the DSTree both a lower- and an upper-bounding distance. The
//! DSTree chooses its segments itself (uniform at the root, refined by
//! splits), so this module computes only the per-segment statistics.

/// A segment `[start, end)` of a series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First point of the segment (inclusive).
    pub start: usize,
    /// One past the last point of the segment (exclusive).
    pub end: usize,
}

impl Segment {
    /// Number of points covered by this segment.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the segment covers no points.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Mean and standard deviation of a series restricted to one segment —
/// the per-segment synopsis of EAPCA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentStats {
    /// Mean of the points in the segment.
    pub mean: f32,
    /// Population standard deviation of the points in the segment.
    pub std: f32,
}

/// Computes the mean/std synopsis of `series` over each segment of
/// `segments` (the EAPCA representation for a fixed segmentation).
pub fn eapca_segments(series: &[f32], segments: &[Segment]) -> Vec<SegmentStats> {
    segments
        .iter()
        .map(|seg| segment_stats(series, *seg))
        .collect()
}

/// Mean and standard deviation of `series[seg.start..seg.end]`.
pub fn segment_stats(series: &[f32], seg: Segment) -> SegmentStats {
    let slice = &series[seg.start..seg.end];
    let n = slice.len().max(1) as f32;
    let mean = slice.iter().sum::<f32>() / n;
    let var = slice.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    SegmentStats {
        mean,
        std: var.sqrt(),
    }
}

/// Splits `[0, series_len)` into `count` equal-width segments (the
/// non-adaptive segmentation used to initialize DSTree nodes and by plain
/// PAA/SAX).
pub fn uniform_segments(series_len: usize, count: usize) -> Vec<Segment> {
    let count = count.clamp(1, series_len.max(1));
    (0..count)
        .map(|s| Segment {
            start: s * series_len / count,
            end: (s + 1) * series_len / count,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_segments_cover_series_exactly() {
        for n in [1usize, 7, 16, 100] {
            for c in [1usize, 3, 4, 16] {
                let segs = uniform_segments(n, c);
                assert_eq!(segs[0].start, 0);
                assert_eq!(segs.last().unwrap().end, n);
                for w in segs.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "segments must be contiguous");
                }
                assert!(segs.iter().all(|s| !s.is_empty()));
            }
        }
    }

    #[test]
    fn segment_stats_matches_manual_computation() {
        let s = [1.0f32, 3.0, 5.0, 7.0];
        let st = segment_stats(&s, Segment { start: 0, end: 4 });
        assert!((st.mean - 4.0).abs() < 1e-6);
        assert!((st.std - 5.0f32.sqrt()).abs() < 1e-5);
        let st2 = segment_stats(&s, Segment { start: 2, end: 4 });
        assert!((st2.mean - 6.0).abs() < 1e-6);
    }

    #[test]
    fn eapca_segments_one_stat_per_segment() {
        let s: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let segs = uniform_segments(12, 3);
        let stats = eapca_segments(&s, &segs);
        assert_eq!(stats.len(), 3);
        assert!((stats[0].mean - 1.5).abs() < 1e-6);
        assert!((stats[2].mean - 9.5).abs() < 1e-6);
    }
}
