//! `hydra_stat`: a `top`-style live view of a running `hydra-serve`
//! server (or router), built on the stats frame of the serving protocol.
//!
//! ```text
//! hydra_stat --addr HOST:PORT            # refresh every 2 s until Ctrl-C
//! hydra_stat --addr HOST:PORT --once     # one scrape to stdout, then exit
//! hydra_stat --addr HOST:PORT --interval-ms 500
//! ```
//!
//! Each refresh opens one `Stats` request over the existing connection and
//! prints the returned Prometheus text exposition verbatim — `hydra_stat`
//! adds no interpretation beyond a screen clear and a timestamp header, so
//! what it shows is exactly what a real scraper would ingest. `--once`
//! (scrape to stdout, no screen control) is the scriptable spelling the CI
//! observability smoke uses.
//!
//! Diagnostics go to stderr; scraped text goes to stdout.

use std::time::Duration;

use hydra_serve::cli::{fail, non_empty, parse, positive, Flag};
use hydra_serve::ServeClient;

struct Args {
    addr: String,
    once: bool,
    interval: Duration,
}

const FLAGS: [Flag<Args>; 3] = [
    Flag::new("--addr", Some("HOST:PORT"), |a, v| {
        non_empty(v, "--addr expects HOST:PORT").map(|addr| a.addr = addr)
    }),
    Flag::new("--once", None, |a, _| {
        a.once = true;
        Ok(())
    }),
    Flag::new("--interval-ms", Some("N"), |a, v| {
        positive("--interval-ms", v).map(|ms| a.interval = Duration::from_millis(ms))
    }),
];

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        addr: String::new(),
        once: false,
        interval: Duration::from_secs(2),
    };
    let seen = parse(args, &FLAGS, &mut out)?;
    if !seen.contains(&"--addr") {
        return Err("--addr HOST:PORT is required".into());
    }
    if out.once && seen.contains(&"--interval-ms") {
        return Err("--interval-ms is meaningless with --once".into());
    }
    Ok(out)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|msg| fail(&msg));
    let addr = args.addr.as_str();
    let mut client = ServeClient::connect(addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    let mut scrapes: u64 = 0;
    loop {
        let text = client
            .stats()
            .unwrap_or_else(|e| fail(&format!("stats scrape of {addr} failed: {e}")));
        scrapes += 1;
        if args.once {
            print!("{text}");
            return;
        }
        // ANSI clear + home, like `top` — the exposition itself is
        // printed untouched below the header line.
        print!("\x1b[2J\x1b[H");
        println!(
            "hydra_stat: {} (scrape #{scrapes}, every {:?}; Ctrl-C to quit)",
            args.addr, args.interval
        );
        println!();
        print!("{text}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        std::thread::sleep(args.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parser_is_strict_about_flags() {
        let a = parse_args(&args(&["--addr", "127.0.0.1:7878"])).unwrap();
        assert_eq!(a.addr, "127.0.0.1:7878");
        assert!(!a.once);
        assert_eq!(a.interval, Duration::from_secs(2));
        let a = parse_args(&args(&["--addr=h:1", "--once"])).unwrap();
        assert!(a.once);
        let a = parse_args(&args(&["--addr=h:1", "--interval-ms=500"])).unwrap();
        assert_eq!(a.interval, Duration::from_millis(500));
        assert!(parse_args(&args(&[])).is_err(), "--addr is required");
        assert!(parse_args(&args(&["--addr"])).is_err());
        assert!(parse_args(&args(&["--addr="])).is_err());
        assert!(parse_args(&args(&["--addr=h:1", "--addr=h:2"])).is_err());
        assert!(parse_args(&args(&["--addr=h:1", "--interval-ms", "0"])).is_err());
        assert!(parse_args(&args(&["--addr=h:1", "--interval-ms", "soon"])).is_err());
        assert!(parse_args(&args(&["--addr=h:1", "--once", "--once"])).is_err());
        assert!(parse_args(&args(&["--addr=h:1", "--once", "--interval-ms=5"])).is_err());
        assert!(parse_args(&args(&["--addr=h:1", "--top"])).is_err());
    }
}
