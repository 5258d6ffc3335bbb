//! The Figure 9 decision matrix.

/// The scenario axes of the paper's recommendation matrix (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Whether the dataset fits in memory.
    pub in_memory: bool,
    /// Whether the user needs guarantees (ε / δ-ε) on the answers.
    pub needs_guarantees: bool,
    /// Whether index-construction time must be amortized over a small query
    /// workload (≈100 queries) rather than a large one (≈10K queries).
    pub small_workload: bool,
}

/// A recommendation produced by [`recommend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recommendation {
    /// Primary method to use.
    pub method: &'static str,
    /// Justification, phrased like the paper's discussion.
    pub rationale: &'static str,
}

/// The paper's Figure 9 decision matrix (query answering with an existing
/// index, refined by the amortization discussion of Section 4.2.3):
///
/// * in-memory, no guarantees → HNSW (best ng throughput/accuracy), unless
///   the index must be amortized over few queries, in which case iSAX2+;
/// * in-memory, with guarantees → DSTree;
/// * on-disk, no guarantees → DSTree or iSAX2+ (iSAX2+ when indexing time
///   dominates, i.e. small workloads);
/// * on-disk, with guarantees → DSTree.
pub fn recommend(scenario: Scenario) -> Recommendation {
    match (scenario.in_memory, scenario.needs_guarantees, scenario.small_workload) {
        (true, false, false) => Recommendation {
            method: "HNSW",
            rationale: "best in-memory ng-approximate throughput/accuracy when the index already exists",
        },
        (true, false, true) => Recommendation {
            method: "iSAX2+",
            rationale: "cheapest index construction amortized over a small ng workload",
        },
        (true, true, _) => Recommendation {
            method: "DSTree",
            rationale: "best guarantee-carrying accuracy/efficiency tradeoff in memory",
        },
        (false, false, true) => Recommendation {
            method: "iSAX2+",
            rationale: "fastest index build; wins when only ~100 queries amortize it",
        },
        (false, false, false) => Recommendation {
            method: "DSTree",
            rationale: "best on-disk ng-approximate performance for large workloads",
        },
        (false, true, _) => Recommendation {
            method: "DSTree",
            rationale: "best on-disk performance with epsilon/delta-epsilon guarantees",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommendations_match_figure_9() {
        // In-memory without guarantees: HNSW (large workload).
        assert_eq!(
            recommend(Scenario {
                in_memory: true,
                needs_guarantees: false,
                small_workload: false
            })
            .method,
            "HNSW"
        );
        // In-memory with guarantees: DSTree.
        assert_eq!(
            recommend(Scenario {
                in_memory: true,
                needs_guarantees: true,
                small_workload: false
            })
            .method,
            "DSTree"
        );
        // On-disk with guarantees: DSTree.
        assert_eq!(
            recommend(Scenario {
                in_memory: false,
                needs_guarantees: true,
                small_workload: true
            })
            .method,
            "DSTree"
        );
        // On-disk, no guarantees, small workload: iSAX2+ (indexing wins).
        assert_eq!(
            recommend(Scenario {
                in_memory: false,
                needs_guarantees: false,
                small_workload: true
            })
            .method,
            "iSAX2+"
        );
        // On-disk, no guarantees, large workload: DSTree.
        assert_eq!(
            recommend(Scenario {
                in_memory: false,
                needs_guarantees: false,
                small_workload: false
            })
            .method,
            "DSTree"
        );
    }
}
