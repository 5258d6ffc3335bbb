//! `hydra-benchmark`: one workload for the benchmark driver
//! (`--workload <name> --seed <n> --seconds <s> --trace <0|1>`), or — with
//! no `--workload` — every workload untraced and then traced, written to
//! `benchmark/out/results.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use hydra_benchmark::inputs::{Dirs, Scale};
use hydra_benchmark::json::Json;
use hydra_benchmark::report;
use hydra_benchmark::run::{run, RunSpec};
use hydra_benchmark::schema::{workload_why, WORKLOADS};
use hydra_benchmark::sut::TrackingAllocator;

// `peak_heap_mb` is read from this allocator's high-water mark.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const USAGE: &str = "usage: hydra-benchmark --seed <u64> [--workload <name>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke] [--out <dir>]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        smoke: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut seed = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload_why(&name).ok_or(format!("unknown workload {name:?}"))?;
                args.workload = Some(name);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

fn command_output(program: &str, argv: &[&str]) -> String {
    std::process::Command::new(program)
        .args(argv)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dirs = match Dirs::create(&args.out) {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("cannot create {}: {e}", args.out.display());
            return ExitCode::from(2);
        }
    };
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.5 } else { 10.0 });
    let spec = |workload, traced| RunSpec {
        workload,
        seed: args.seed,
        seconds,
        traced,
        scale,
    };

    if let Some(workload) = &args.workload {
        let report = run(&spec(workload, args.trace), &dirs);
        print!("{}", report::human(&report));
        println!("{}", report::driver_line(&report));
        return if report.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut failed = 0;
    let mut workloads = Vec::new();
    for (workload, _) in WORKLOADS {
        let untraced = run(&spec(workload, false), &dirs);
        print!("{}", report::human(&untraced));
        let traced = run(&spec(workload, true), &dirs);
        print!("{}", report::human(&traced));
        failed += untraced.failed + traced.failed;
        workloads.push((workload, report::workload_json(&untraced, &traced)));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = Json::obj([
        (
            "header",
            Json::obj([
                ("seed", Json::Num(args.seed as f64)),
                ("seconds", Json::Num(seconds)),
                ("smoke", Json::Bool(args.smoke)),
                ("nproc", Json::Num(nproc as f64)),
                ("rustc", Json::str(command_output("rustc", &["--version"]))),
                (
                    "commit",
                    Json::str(command_output("git", &["rev-parse", "HEAD"])),
                ),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = dirs.out.join("results.json");
    if let Err(e) = std::fs::write(&path, results.pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} operations failed");
        ExitCode::FAILURE
    }
}
