//! Load generator for `hydra-serve`: replays the figure workloads against
//! a running server and emits the same CSV schema as `fig3_inmemory` /
//! `fig4_ondisk`, so the serving path can be diffed against the offline
//! path column for column.
//!
//! ```text
//! serve_client --addr HOST:PORT [--scenario fig4|fig3] [--connections N]
//!              [--connect-timeout-ms N] [--reload] [--shutdown]
//! ```
//!
//! `--reload` asks the server to hot-reload its snapshot directory
//! **before** the replay (and before the capability listing, so the plan
//! reflects the post-reload zoo): the server re-boots its snapshots —
//! journals replayed, ingested series included — and swaps them in
//! atomically without dropping this or any other live connection. The
//! acknowledged epoch is printed to stderr; a refused reload exits 2.
//!
//! For every scenario dataset, every served index belonging to it, and
//! every sweep setting the offline figure would run
//! (`sweep_settings_for`, planned from the server's own capability
//! listing), the whole workload is replayed through `--connections`
//! concurrent client connections (concurrency is what gives the server's
//! micro-batcher something to batch) and scored against the locally
//! recomputed ground truth. Output rows:
//!
//! ```text
//! serve-throughput-{ng|delta-eps}  x = MAP   y = queries/minute
//! serve-p50-ms-{ng|delta-eps}      x = MAP   y = wire-level p50 latency (ms)
//! serve-p95-ms-{ng|delta-eps}      x = MAP   y = wire-level p95 latency (ms)
//! serve-p99-ms-{ng|delta-eps}      x = MAP   y = wire-level p99 latency (ms)
//! ```
//!
//! The `serve-throughput-*` MAP column must be **identical** to the
//! offline `fig{3,4}-throughput-*` MAP column for the same
//! dataset/method/setting — that is the serving-correctness contract CI
//! enforces. Any server-side error response, protocol error, or missing
//! answer exits 2: a divergence must fail the run, not skew a row.

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

use hydra::eval::{average_precision, mean_relative_error, recall, AccuracySummary, LatencyPercentiles};
use hydra::{Neighbor, SearchParams};
use hydra_bench::{
    in_memory_datasets, on_disk_datasets, print_header, print_row, sweep_settings_for,
    BenchDataset,
};
use hydra_serve::cli::{fail, non_empty, parse, positive, Flag};
use hydra_serve::{dataset_for_index, IndexInfo, Request, ResponseBody, ServeClient};

#[derive(Debug, Clone, PartialEq)]
struct Args {
    addr: String,
    fig3: bool,
    connections: usize,
    connect_timeout: Duration,
    reload: bool,
    shutdown: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: String::new(),
            fig3: false,
            connections: 4,
            connect_timeout: Duration::from_secs(30),
            reload: false,
            shutdown: false,
        }
    }
}

const FLAGS: [Flag<Args>; 6] = [
    Flag::new("--addr", Some("HOST:PORT"), |a, v| {
        non_empty(v, "--addr expects HOST:PORT").map(|addr| a.addr = addr)
    }),
    Flag::new("--scenario", Some("fig3|fig4"), |a, v| {
        a.fig3 = match v {
            "fig3" => true,
            "fig4" => false,
            other => return Err(format!("--scenario expects fig3 or fig4, got {other:?}")),
        };
        Ok(())
    }),
    Flag::new("--connections", Some("N"), |a, v| {
        positive("--connections", v).map(|n| a.connections = n)
    }),
    Flag::new("--connect-timeout-ms", Some("N"), |a, v| {
        let ms = v
            .parse()
            .map_err(|_| format!("--connect-timeout-ms expects an integer, got {v:?}"))?;
        a.connect_timeout = Duration::from_millis(ms);
        Ok(())
    }),
    Flag::new("--reload", None, |a, _| {
        a.reload = true;
        Ok(())
    }),
    Flag::new("--shutdown", None, |a, _| {
        a.shutdown = true;
        Ok(())
    }),
];

/// Strict flag parsing in the house style (`hydra_serve::cli`, shared
/// with the `hydra-serve` binary).
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let seen = parse(args, &FLAGS, &mut out)?;
    if !seen.contains(&"--addr") {
        return Err("--addr HOST:PORT is required".into());
    }
    Ok(out)
}

/// Replays every query of `dataset`'s workload against `index_name`
/// through `connections` concurrent connections; returns the answers in
/// workload order, each with its wire-level latency in seconds, plus the
/// total wall-clock seconds.
fn replay(
    addr: SocketAddr,
    index_name: &str,
    params: &SearchParams,
    dataset: &BenchDataset,
    connections: usize,
) -> (Vec<(Vec<Neighbor>, f64)>, f64) {
    let queries: Vec<&[f32]> = dataset.workload.iter().collect();
    let n = queries.len();
    let connections = connections.max(1).min(n.max(1));
    let chunk = n.div_ceil(connections).max(1);
    let started = Instant::now();
    let mut merged: Vec<Option<(Vec<Neighbor>, f64)>> = vec![None; n];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, shard) in queries.chunks(chunk).enumerate() {
            let handle = scope.spawn(move || {
                let mut client = ServeClient::connect(addr)
                    .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
                let mut answers = Vec::with_capacity(shard.len());
                for (i, query) in shard.iter().enumerate() {
                    let request_id = (c * chunk + i + 1) as u64;
                    let t0 = Instant::now();
                    let response = client
                        .call(&Request::Query {
                            request_id,
                            index: index_name.to_string(),
                            params: *params,
                            query: query.to_vec(),
                        })
                        .unwrap_or_else(|e| {
                            fail(&format!("query {request_id} against {index_name}: {e}"))
                        });
                    let latency = t0.elapsed().as_secs_f64();
                    match response.body {
                        ResponseBody::Answer { neighbors } => answers.push((neighbors, latency)),
                        ResponseBody::Error { code, message } => fail(&format!(
                            "server answered query {request_id} against {index_name} with \
                             {code:?}: {message}"
                        )),
                        other => fail(&format!(
                            "unexpected response body {other:?} to query {request_id}"
                        )),
                    }
                }
                (c, answers)
            });
            handles.push(handle);
        }
        for handle in handles {
            let (c, answers) = handle.join().expect("replay connection panicked");
            for (i, answer) in answers.into_iter().enumerate() {
                merged[c * chunk + i] = Some(answer);
            }
        }
    });
    let total_seconds = started.elapsed().as_secs_f64();
    let answers = merged
        .into_iter()
        .enumerate()
        .map(|(q, a)| a.unwrap_or_else(|| fail(&format!("query {q} was never answered"))))
        .collect();
    (answers, total_seconds)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => fail(&msg),
    };
    let addr: SocketAddr = args
        .addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next())
        .unwrap_or_else(|| fail(&format!("cannot resolve {:?}", args.addr)));
    let mut control = ServeClient::connect_with_retry(addr, args.connect_timeout)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    if args.reload {
        let epoch = control
            .reload()
            .unwrap_or_else(|e| fail(&format!("hot reload was refused: {e}")));
        eprintln!("serve_client: server hot-reloaded to epoch {epoch}");
    }
    let infos: Vec<IndexInfo> = control
        .list_indexes()
        .unwrap_or_else(|e| fail(&format!("cannot list indexes: {e}")));
    if infos.is_empty() {
        fail("the server serves no indexes");
    }
    let k = 100;
    let datasets = if args.fig3 {
        in_memory_datasets(k)
    } else {
        on_disk_datasets(k)
    };
    print_header();
    let mut replayed = 0usize;
    for dataset in &datasets {
        // Match served indexes to datasets by the same longest-prefix
        // rule the server's boot scan uses.
        for info in infos.iter().filter(|info| {
            dataset_for_index(&info.name, datasets.iter().map(|d| d.name))
                == Some(dataset.name)
        }) {
            if info.series_len as usize != dataset.data.series_len()
                || info.num_series as usize != dataset.data.len()
            {
                fail(&format!(
                    "served index {} has shape {}x{}, the {} scenario expects {}x{} — \
                     wrong snapshot directory or HYDRA_SCALE?",
                    info.name,
                    info.num_series,
                    info.series_len,
                    dataset.name,
                    dataset.data.len(),
                    dataset.data.series_len()
                ));
            }
            let caps = info.capabilities();
            for guarantees in [false, true] {
                let mode = if guarantees { "delta-eps" } else { "ng" };
                for (setting, params) in sweep_settings_for(&caps, k, guarantees) {
                    let (answers, total_seconds) =
                        replay(addr, &info.name, &params, dataset, args.connections);
                    replayed += answers.len();
                    let per_query: Vec<(f64, f64, f64)> = answers
                        .iter()
                        .enumerate()
                        .map(|(q, (neighbors, _))| {
                            let truth = &dataset.truth.answers[q];
                            (
                                recall(neighbors, truth),
                                average_precision(neighbors, truth),
                                mean_relative_error(neighbors, truth),
                            )
                        })
                        .collect();
                    let accuracy = AccuracySummary::from_queries(&per_query);
                    let latencies: Vec<f64> = answers.iter().map(|(_, l)| *l).collect();
                    let tail = LatencyPercentiles::from_times(&latencies);
                    let qpm = if total_seconds > 0.0 {
                        answers.len() as f64 / total_seconds * 60.0
                    } else {
                        f64::INFINITY
                    };
                    print_row(
                        &format!("serve-throughput-{mode}"),
                        dataset.name,
                        &info.method,
                        &setting,
                        accuracy.map,
                        qpm,
                    );
                    for (figure, seconds) in [
                        ("serve-p50-ms", tail.p50_seconds),
                        ("serve-p95-ms", tail.p95_seconds),
                        ("serve-p99-ms", tail.p99_seconds),
                    ] {
                        print_row(
                            &format!("{figure}-{mode}"),
                            dataset.name,
                            &info.method,
                            &setting,
                            accuracy.map,
                            seconds * 1e3,
                        );
                    }
                }
            }
        }
    }
    if replayed == 0 {
        fail(&format!(
            "no served index matches any {} dataset (served: {})",
            if args.fig3 { "fig3" } else { "fig4" },
            infos
                .iter()
                .map(|i| i.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    if args.shutdown {
        control
            .shutdown()
            .unwrap_or_else(|e| fail(&format!("shutdown was not acknowledged: {e}")));
    }
    eprintln!("serve_client: replayed {replayed} queries against {addr}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parser_accepts_both_spellings_and_rejects_garbage() {
        let a = parse_args(&args(&["--addr", "127.0.0.1:7878"])).unwrap();
        assert!(!a.fig3 && !a.shutdown && !a.reload);
        assert_eq!(a.connections, 4);
        let a = parse_args(&args(&[
            "--addr=h:1",
            "--scenario=fig3",
            "--connections=8",
            "--connect-timeout-ms=500",
            "--reload",
            "--shutdown",
        ]))
        .unwrap();
        assert!(a.fig3 && a.shutdown && a.reload);
        assert_eq!(a.connections, 8);
        assert_eq!(a.connect_timeout, Duration::from_millis(500));
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--addr"])).is_err());
        assert!(parse_args(&args(&["--addr", "h:1", "--scenario", "fig9"])).is_err());
        assert!(parse_args(&args(&["--addr", "h:1", "--connections", "0"])).is_err());
        assert!(parse_args(&args(&["--addr", "h:1", "--shutdown", "--shutdown"])).is_err());
        assert!(parse_args(&args(&["--addr", "h:1", "--reload", "--reload"])).is_err());
        assert!(parse_args(&args(&["--addr", "h:1", "--reload=now"])).is_err());
        assert!(parse_args(&args(&["--addr", "h:1", "--threads", "2"])).is_err());
    }
}
