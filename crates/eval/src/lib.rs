//! # hydra-eval
//!
//! Accuracy metrics, the workload execution protocol and reporting helpers
//! used to regenerate the tables and figures of the Lernaean Hydra paper.
//!
//! * [`metrics`] — Avg Recall, Mean Average Precision (MAP) and Mean
//!   Relative Error (MRE), defined exactly as in Section 4.1 of the paper.
//! * [`runner`] — runs a query workload against any [`hydra_core::AnnIndex`],
//!   measuring wall-clock time, implementation-independent cost counters and
//!   accuracy against brute-force ground truth; implements the paper's
//!   extrapolation protocol for large workloads (drop the 5 best and 5 worst
//!   queries, scale the mean of the rest). [`runner::run_workload`] answers
//!   the queries one at a time, as the paper does.
//! * [`report`] — the Figure 9 decision-matrix recommendation logic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod report;
pub mod runner;

pub use metrics::{average_precision, mean_relative_error, recall, AccuracySummary};
pub use report::{recommend, Recommendation, Scenario};
pub use runner::{run_workload, LatencyPercentiles, WorkloadReport};
