//! `compare <base.json> <new.json>`: one row per workload x end-to-end
//! metric of two `results.json` files — base, new, ratio, the metric's
//! regression bound and a verdict. Exits non-zero if any row is `worse`.
//!
//! `compare bundle <out.json> <results.json>...` concatenates result files
//! into one baseline document (`baselines/BENCH_<pr>.json`).

use std::process::ExitCode;

use hydra_benchmark::json::Json;
use hydra_benchmark::schema::{Better, END_TO_END, WORKLOADS};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(value, spread)` of one end-to-end metric of one workload.
fn metric(results: &Json, workload: &str, name: &str) -> Option<(f64, f64)> {
    let entry = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(name)?;
    Some((
        entry.get("value")?.as_f64()?,
        entry.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    ))
}

/// `better` / `same` / `worse` by the bound, or `unresolved` when either
/// run's own spread is wider than the bound (the guide's rule: a metric
/// noisier than its bound cannot be called unchanged).
fn verdict(base: (f64, f64), new: (f64, f64), better: Better, bound: f64) -> &'static str {
    let worse_by = match better {
        Better::Lower => (new.0 - base.0) / base.0,
        Better::Higher => (base.0 - new.0) / base.0,
    };
    if base.1.max(new.1) > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    }
}

fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    println!(
        "{:<14} {:<13} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let mut any_worse = false;
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let (Some(b), Some(n)) = (
                metric(&base, workload, def.name),
                metric(&new, workload, def.name),
            ) else {
                return Err(format!(
                    "{workload}/{} is missing from a results file",
                    def.name
                ));
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let verdict = verdict(b, n, def.better, bound);
            any_worse |= verdict == "worse";
            println!(
                "{:<14} {:<13} {:>14.6} {:>14.6} {:>8.4} {:>6.2}  {}",
                workload,
                def.name,
                b.0,
                n.0,
                n.0 / b.0,
                bound,
                verdict
            );
        }
    }
    Ok(any_worse)
}

fn bundle(out: &str, inputs: &[String]) -> Result<(), String> {
    let runs = inputs
        .iter()
        .map(|path| load(path))
        .collect::<Result<Vec<_>, _>>()?;
    let document = Json::obj([("runs", Json::Arr(runs))]);
    std::fs::write(out, document.pretty()).map_err(|e| format!("{out}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [cmd, out, inputs @ ..] if cmd == "bundle" && !inputs.is_empty() => {
            bundle(out, inputs).map(|()| false)
        }
        [base, new] => compare(base, new),
        _ => Err(
            "usage: compare <base.json> <new.json> | compare bundle <out.json> <results.json>..."
                .into(),
        ),
    };
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let quiet = |v| (v, 0.01);
        assert_eq!(
            verdict(quiet(100.0), quiet(105.0), Better::Lower, 0.1),
            "same"
        );
        assert_eq!(
            verdict(quiet(100.0), quiet(115.0), Better::Lower, 0.1),
            "worse"
        );
        assert_eq!(
            verdict(quiet(100.0), quiet(85.0), Better::Lower, 0.1),
            "better"
        );
        assert_eq!(
            verdict(quiet(100.0), quiet(85.0), Better::Higher, 0.1),
            "worse"
        );
        assert_eq!(
            verdict(quiet(100.0), quiet(115.0), Better::Higher, 0.1),
            "better"
        );
        assert_eq!(
            verdict((100.0, 0.2), quiet(150.0), Better::Lower, 0.1),
            "unresolved"
        );
    }
}
