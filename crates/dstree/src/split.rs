//! Split policies of the DSTree.

use hydra_summarize::apca::{segment_stats, Segment};

/// Which per-segment statistic a horizontal split partitions on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitKind {
    /// Partition on the segment mean.
    Mean,
    /// Partition on the segment standard deviation.
    Std,
}

/// A horizontal split rule: series whose statistic over `segment` is below
/// `threshold` go to the left child, the rest to the right child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitRule {
    /// Index of the segment (in the node's own segmentation) the rule
    /// evaluates.
    pub segment: usize,
    /// Statistic used.
    pub kind: SplitKind,
    /// Split threshold.
    pub threshold: f32,
}

impl SplitRule {
    /// Evaluates the rule on a series: `true` routes to the left child.
    pub fn goes_left(&self, series: &[f32], segments: &[Segment]) -> bool {
        let stats = segment_stats(series, segments[self.segment]);
        let value = match self.kind {
            SplitKind::Mean => stats.mean,
            SplitKind::Std => stats.std,
        };
        value <= self.threshold
    }
}

/// A candidate split considered by the quality-of-split heuristic.
#[derive(Debug, Clone)]
pub struct SplitCandidate {
    /// The (possibly refined) segmentation the children will use.
    pub segments: Vec<Segment>,
    /// The horizontal rule applied on that segmentation.
    pub rule: SplitRule,
    /// Quality-of-split score (higher is better).
    pub score: f32,
    /// Whether this candidate refines the segmentation (vertical split).
    pub vertical: bool,
}

/// Enumerates horizontal and vertical split candidates for a leaf holding
/// `series`, scoring each by the expected reduction of the node's
/// lower-bound slack.
///
/// The score of splitting segment `s` on statistic `x` is
/// `len(s) · range(x)²` — the contribution of that segment's synopsis range
/// to the worst-case gap between the lower bound and true distances. A
/// vertical candidate halves the widest segment first, paying a small
/// penalty so it is only preferred when clearly better (matching the
//  original DSTree's bias towards horizontal splits).
pub fn enumerate_candidates(
    series: &[&[f32]],
    segments: &[Segment],
    max_segments: usize,
) -> Vec<SplitCandidate> {
    let mut candidates = Vec::new();
    if series.is_empty() {
        return candidates;
    }
    for (s, seg) in segments.iter().enumerate() {
        for (kind, score, threshold) in score_splits(series, *seg) {
            candidates.push(SplitCandidate {
                segments: segments.to_vec(),
                rule: SplitRule {
                    segment: s,
                    kind,
                    threshold,
                },
                score,
                vertical: false,
            });
        }
        // Vertical candidate: refine this segment into two halves (only if
        // it is long enough and the segmentation budget allows it).
        if seg.len() >= 2 && segments.len() < max_segments {
            let mid = seg.start + seg.len() / 2;
            let mut refined = segments.to_vec();
            refined[s] = Segment {
                start: seg.start,
                end: mid,
            };
            refined.insert(
                s + 1,
                Segment {
                    start: mid,
                    end: seg.end,
                },
            );
            for (sub, offset) in [(refined[s], 0usize), (refined[s + 1], 1usize)] {
                for (kind, score, threshold) in score_splits(series, sub) {
                    candidates.push(SplitCandidate {
                        segments: refined.clone(),
                        rule: SplitRule {
                            segment: s + offset,
                            kind,
                            threshold,
                        },
                        // Mild penalty: vertical splits grow the synopsis.
                        score: score * 0.9,
                        vertical: true,
                    });
                }
            }
        }
    }
    candidates
}

/// Scores horizontal splits of `seg` on the mean and on the standard
/// deviation, in that order, from one pass of statistics over `series`:
/// `(kind, score, threshold)` for each statistic that is not constant.
fn score_splits(series: &[&[f32]], seg: Segment) -> impl Iterator<Item = (SplitKind, f32, f32)> {
    let (means, stds): (Vec<f32>, Vec<f32>) = series
        .iter()
        .map(|s| {
            let st = segment_stats(s, seg);
            (st.mean, st.std)
        })
        .unzip();
    [(SplitKind::Mean, means), (SplitKind::Std, stds)]
        .into_iter()
        .filter_map(move |(kind, values)| {
            score_split(values, seg).map(|(score, threshold)| (kind, score, threshold))
        })
}

/// Scores a horizontal split of `seg` on one statistic of every member,
/// `values`, and proposes a threshold (the median of the statistic, which
/// balances the children). Returns `None` when the statistic is constant
/// (splitting would be useless).
fn score_split(mut values: Vec<f32>, seg: Segment) -> Option<(f32, f32)> {
    values.sort_by(f32::total_cmp);
    let min = *values.first()?;
    let max = *values.last()?;
    let range = max - min;
    if range <= f32::EPSILON {
        return None;
    }
    let median = values[values.len() / 2];
    // A threshold equal to the max would send everything left; nudge to the
    // midpoint in that case.
    let threshold = if median >= max { (min + max) / 2.0 } else { median };
    Some((seg.len() as f32 * range * range, threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_summarize::apca::uniform_segments;

    #[test]
    fn rule_routes_by_threshold() {
        let segments = uniform_segments(4, 2);
        let rule = SplitRule {
            segment: 0,
            kind: SplitKind::Mean,
            threshold: 1.0,
        };
        assert!(rule.goes_left(&[0.0, 0.0, 9.0, 9.0], &segments));
        assert!(!rule.goes_left(&[5.0, 5.0, 0.0, 0.0], &segments));
        let rule_std = SplitRule {
            segment: 1,
            kind: SplitKind::Std,
            threshold: 0.5,
        };
        assert!(rule_std.goes_left(&[0.0, 0.0, 3.0, 3.0], &segments));
        assert!(!rule_std.goes_left(&[0.0, 0.0, 0.0, 10.0], &segments));
    }

    #[test]
    fn candidates_prefer_discriminative_segments() {
        // Series differ only in the second half: the best candidate must
        // split on segment 1.
        let a = [0.0f32, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        let b = [0.0f32, 0.0, 0.0, 0.0, 9.0, 9.0, 9.0, 9.0];
        let c = [0.0f32, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0];
        let series: Vec<&[f32]> = vec![&a, &b, &c];
        let segments = uniform_segments(8, 2);
        let candidates = enumerate_candidates(&series, &segments, 8);
        assert!(!candidates.is_empty());
        let best = candidates
            .iter()
            .max_by(|x, y| x.score.total_cmp(&y.score))
            .unwrap();
        assert_eq!(best.rule.segment, 1);
        assert_eq!(best.rule.kind, SplitKind::Mean);
    }

    #[test]
    fn constant_segments_produce_no_horizontal_candidate() {
        let a = [2.0f32, 2.0];
        let b = [2.0f32, 2.0];
        let series: Vec<&[f32]> = vec![&a, &b];
        let segments = uniform_segments(2, 1);
        let candidates = enumerate_candidates(&series, &segments, 4);
        assert!(candidates.is_empty());
    }

    #[test]
    fn vertical_candidates_refine_segmentation() {
        // Identical first halves within each series but differing patterns
        // inside the single segment — a vertical split is required to see it.
        let a = [0.0f32, 0.0, 5.0, 5.0];
        let b = [5.0f32, 5.0, 0.0, 0.0];
        let series: Vec<&[f32]> = vec![&a, &b];
        let segments = uniform_segments(4, 1);
        let candidates = enumerate_candidates(&series, &segments, 4);
        // Means over the whole series are identical (2.5) and stds are
        // identical too, so only vertical candidates can discriminate.
        let has_vertical = candidates.iter().any(|c| c.vertical && c.segments.len() == 2);
        assert!(has_vertical);
        assert!(candidates.iter().all(|c| c.vertical));
    }

    #[test]
    fn vertical_candidates_respect_segment_budget() {
        let a = [0.0f32, 1.0, 2.0, 3.0];
        let b = [3.0f32, 2.0, 1.0, 0.0];
        let series: Vec<&[f32]> = vec![&a, &b];
        let segments = uniform_segments(4, 2);
        let candidates = enumerate_candidates(&series, &segments, 2);
        assert!(candidates.iter().all(|c| !c.vertical));
    }
}
