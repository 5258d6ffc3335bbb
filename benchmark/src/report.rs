//! Rendering: the one-line result the driver reads, the `name value unit`
//! lines a person reads, and `results.json` for `compare` and the baseline.

use crate::json::Json;
use crate::run::{Measured, RunReport};

/// The driver's result object: `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_line(report: &RunReport) -> String {
    Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|m| {
                (
                    m.def.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.def.unit)),
                    ]),
                )
            })),
        ),
    ])
    .compact()
}

/// Every metric by name with its unit, one per line, then the failure
/// accounting and (traced) the span summary.
pub fn human(report: &RunReport) -> String {
    let mut out = String::new();
    for m in &report.metrics {
        out.push_str(&format!(
            "{} {} {} {}\n",
            report.workload, m.def.name, m.value, m.def.unit
        ));
    }
    out.push_str(&format!(
        "{} ops_attempted {} count\n{} ops_failed {} count\n",
        report.workload, report.attempted, report.workload, report.failed
    ));
    for line in &report.trace_summary {
        out.push_str(&format!("{} {line}\n", report.workload));
    }
    out
}

fn metrics_json(metrics: &[Measured]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.def.name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.def.unit)),
                ("better", Json::str(m.def.better.name())),
                ("spread", Json::Num(m.spread)),
            ]),
        )
    }))
}

/// One workload's entry of `results.json`: the untraced run's end-to-end
/// metrics and failure accounting, the traced run's per-layer metrics.
pub fn workload_json(untraced: &RunReport, traced: &RunReport) -> Json {
    Json::obj([
        ("ops_attempted", Json::Num(untraced.attempted as f64)),
        (
            "ops_failed",
            Json::Num((untraced.failed + traced.failed) as f64),
        ),
        ("end_to_end", metrics_json(&untraced.metrics)),
        ("per_layer", metrics_json(&traced.metrics)),
    ])
}
