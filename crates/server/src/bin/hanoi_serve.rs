//! The production server binary: a bounded, fault-isolated TCP front end
//! over one long-lived inference engine, with signal-driven graceful drain
//! and SIGHUP-driven hot config reload.
//!
//! ```text
//! hanoi_serve [--addr HOST:PORT] [--workers N] [--queue N] [--quota N]
//!             [--rate PER_SEC] [--burst N] [--grace-secs N]
//!             [--config FILE] [--warm-dir DIR] [--watchdog-secs N]
//!             [--drain-secs N] [--max-conns N] [--proxy-protocol] [--chaos]
//! ```
//!
//! SIGTERM or SIGINT triggers a graceful drain: stop admitting, finish (or
//! cancel) in-flight runs, checkpoint warm-start snapshots into
//! `--warm-dir`, exit.  SIGHUP re-reads `--config` (a flat JSON object of
//! tunables — see [`hanoi_server::Tunables::overlaid`]) and swaps the
//! operational tunables atomically, without dropping in-flight runs.
//! `--chaos` enables the fault-injection protocol directives used by
//! `hanoi_stress` — never enable it in production.  `--proxy-protocol`
//! expects every connection to open with a PROXY protocol v1 header (as
//! sent by HAProxy/nginx) and attributes rate limits and quotas to the
//! advertised source address instead of the proxy's own — required for
//! per-client fairness behind a reverse proxy, and only safe when the
//! listener is reachable exclusively from that proxy.
//!
//! An unknown argument, a flag without its value or a value that does not
//! parse is reported on stderr and the process exits with status 2.

use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use hanoi::EngineConfig;
use hanoi_server::{Server, ServerConfig};

/// Flipped by the signal handler; polled by the drain watcher thread.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);
/// Flipped by SIGHUP; polled by the same watcher, which runs the reload.
static RELOAD: AtomicBool = AtomicBool::new(false);

const SIGHUP: i32 = 1;
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    /// libc `signal(2)` — raw FFI, as the container ships no signal crate.
    fn signal(signum: i32, handler: usize) -> usize;
}

/// The handler bodies are one atomic store each: async-signal-safe.
extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

extern "C" fn on_reload(_signum: i32) {
    RELOAD.store(true, Ordering::Relaxed);
}

/// The flags [`parse_args`] accepts, as its error lists them.
const ACCEPTED_FLAGS: &str = "--addr <host:port>, --workers <n>, --queue <n>, --quota <n>, \
    --rate <per-sec>, --burst <n>, --grace-secs <n>, --config <file>, --warm-dir <dir>, \
    --watchdog-secs <n>, --drain-secs <n>, --max-conns <n>, --proxy-protocol, --chaos";

/// Parses the command line into the listen address and the server
/// configuration.  An unknown argument, a flag missing its value and a
/// value that does not parse are errors naming the argument.
fn parse_args(args: &[String]) -> Result<(String, ServerConfig), String> {
    let mut addr = "127.0.0.1:7077".to_string();
    let mut engine = EngineConfig::default();
    let mut config = ServerConfig::default();
    let mut rate: Option<f64> = None;
    let mut burst = config.tunables.rate_burst;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => addr = value()?.clone(),
            "--workers" => config = config.with_workers(parse_value(flag, value()?)?),
            "--queue" => config = config.with_max_queue_depth(parse_value(flag, value()?)?),
            "--quota" => config = config.with_per_client_quota(parse_value(flag, value()?)?),
            "--rate" => rate = Some(parse_value(flag, value()?)?),
            "--burst" => burst = parse_value(flag, value()?)?,
            "--grace-secs" => config = config.with_disconnect_grace(secs(flag, value()?)?),
            "--config" => config = config.with_config_path(value()?),
            "--warm-dir" => engine = engine.with_warm_start_dir(value()?),
            "--watchdog-secs" => config = config.with_watchdog(secs(flag, value()?)?),
            "--drain-secs" => config = config.with_drain_timeout(secs(flag, value()?)?),
            "--max-conns" => config = config.with_max_connections(parse_value(flag, value()?)?),
            "--proxy-protocol" => config = config.with_proxy_protocol(true),
            "--chaos" => config = config.with_chaos(true),
            other => {
                return Err(format!(
                    "unknown argument {other:?}; accepted flags: {ACCEPTED_FLAGS}"
                ))
            }
        }
    }
    // `--burst` only shapes a rate limit that `--rate` turns on.
    if let Some(rate) = rate {
        config = config.with_rate_limit(rate, burst);
    }
    Ok((addr, config.with_engine(engine)))
}

/// `raw` parsed as the value of `flag`, or an error naming the flag.
fn parse_value<T: FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

/// A whole number of seconds given to `flag`.
fn secs(flag: &str, raw: &str) -> Result<Duration, String> {
    parse_value(flag, raw).map(Duration::from_secs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, config) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("hanoi-serve: {e}");
        std::process::exit(2);
    });
    if let Some(dir) = &config.engine.warm_start_dir {
        // Boot-time store inventory: how much warmth this process can draw
        // on.
        match hanoi_store::ChunkStore::open(dir) {
            Ok(store) => {
                let stats = store.stats();
                eprintln!(
                    "hanoi-serve: warm store {}: {} manifest(s), {} chunk(s), {} byte(s)",
                    dir.display(),
                    stats.manifests,
                    stats.chunks,
                    stats.total_bytes()
                );
            }
            Err(e) => {
                // The engine degrades to cold starts either way; say why.
                eprintln!("hanoi-serve: warm store {} unavailable: {e}", dir.display());
            }
        }
    }

    // Panics are expected under chaos (and survivable always): keep the log
    // one line per incident instead of a default multi-line report.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("hanoi-serve: isolated panic: {info}");
    }));

    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGHUP, on_reload as *const () as usize);
    }

    let server = match Server::bind(&addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("hanoi-serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("hanoi-serve: listening on {}", server.local_addr());
    let handle = server.handle();
    let watcher_handle = handle.clone();
    std::thread::spawn(move || loop {
        if SHUTDOWN.load(Ordering::Relaxed) {
            eprintln!("hanoi-serve: signal received, draining");
            watcher_handle.drain();
            return;
        }
        if RELOAD.swap(false, Ordering::Relaxed) {
            match watcher_handle.reload_from_file() {
                Ok(tunables) => {
                    eprintln!("hanoi-serve: reloaded tunables: {}", tunables.render());
                }
                Err(e) => {
                    // A bad reload keeps the previous tunables in force.
                    eprintln!("hanoi-serve: reload failed ({}): {}", e.code, e.message);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    });

    match server.serve() {
        Ok(snapshots) => {
            eprintln!("hanoi-serve: drained, wrote {snapshots} warm-start snapshot(s)");
        }
        Err(e) => {
            eprintln!("hanoi-serve: drain checkpoint failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, ServerConfig), String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_and_default() {
        let (addr, config) = parse(&[]).unwrap();
        assert_eq!(addr, "127.0.0.1:7077");
        assert_eq!(config.workers, 2);
        assert_eq!(config.engine.parallelism, 1);
        assert_eq!(config.engine.warm_start_dir, None);
        assert_eq!(config.tunables, hanoi_server::Tunables::default());

        let (addr, config) = parse(&[
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "3",
            "--queue",
            "5",
            "--quota",
            "2",
            "--rate",
            "4.5",
            "--burst",
            "2",
            "--grace-secs",
            "7",
            "--watchdog-secs",
            "9",
            "--drain-secs",
            "11",
            "--max-conns",
            "13",
            "--warm-dir",
            "/tmp/warm",
            "--config",
            "/tmp/tunables.json",
            "--proxy-protocol",
            "--chaos",
        ])
        .unwrap();
        assert_eq!(addr, "0.0.0.0:9000");
        assert_eq!(config.workers, 3);
        assert_eq!(config.tunables.max_queue_depth, 5);
        assert_eq!(config.tunables.per_client_quota, 2);
        assert_eq!(config.tunables.rate_per_sec, 4.5);
        assert_eq!(config.tunables.rate_burst, 2.0);
        assert_eq!(config.tunables.disconnect_grace, Duration::from_secs(7));
        assert_eq!(config.tunables.watchdog, Duration::from_secs(9));
        assert_eq!(config.drain_timeout, Duration::from_secs(11));
        assert_eq!(config.max_connections, 13);
        assert_eq!(
            config.engine.warm_start_dir.as_deref(),
            Some(std::path::Path::new("/tmp/warm"))
        );
        assert_eq!(
            config.config_path.as_deref(),
            Some(std::path::Path::new("/tmp/tunables.json"))
        );
        assert!(config.proxy_protocol);
        assert!(config.enable_chaos);
    }

    #[test]
    fn bad_arguments_are_errors_naming_them() {
        for (args, named) in [
            (&["--workers", "nope"][..], "--workers"),
            (&["--quue", "4"][..], "\"--quue\""),
            (&["--parallelism", "2"][..], "\"--parallelism\""),
            (&["--queue"][..], "--queue"),
            (&["--rate", "fast"][..], "--rate"),
            (&["--grace-secs", "-1"][..], "--grace-secs"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(named), "{args:?}: {err}");
        }
    }
}
