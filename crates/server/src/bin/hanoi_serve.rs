//! The production server binary: a bounded, fault-isolated TCP front end
//! over one long-lived inference engine, with signal-driven graceful drain
//! and SIGHUP-driven hot config reload.
//!
//! ```text
//! hanoi_serve [--addr HOST:PORT] [--workers N] [--queue N] [--quota N]
//!             [--rate PER_SEC] [--burst N] [--grace-secs N]
//!             [--config FILE] [--parallelism N] [--warm-dir DIR]
//!             [--watchdog-secs N] [--drain-secs N] [--max-conns N]
//!             [--proxy-protocol] [--chaos]
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let number = |name: &str| value(name).and_then(|v| v.parse::<usize>().ok());

    let addr = value("--addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7077".to_string());
    let mut engine = EngineConfig::default().with_parallelism(number("--parallelism").unwrap_or(1));
    if let Some(dir) = value("--warm-dir") {
        engine = engine.with_warm_start_dir(dir);
        // Boot-time store inventory: how much warmth this process can draw
        // on.
        match hanoi_store::ChunkStore::open(dir) {
            Ok(store) => {
                let stats = store.stats();
                eprintln!(
                    "hanoi-serve: warm store {dir}: {} manifest(s), {} chunk(s), {} byte(s)",
                    stats.manifests,
                    stats.chunks,
                    stats.total_bytes()
                );
            }
            Err(e) => {
                // The engine degrades to cold starts either way; say why.
                eprintln!("hanoi-serve: warm store {dir} unavailable: {e}");
            }
        }
    }
    let mut config = ServerConfig::default()
        .with_workers(number("--workers").unwrap_or(2))
        .with_chaos(flag("--chaos"))
        .with_proxy_protocol(flag("--proxy-protocol"))
        .with_engine(engine);
    if let Some(queue) = number("--queue") {
        config = config.with_max_queue_depth(queue);
    }
    if let Some(quota) = number("--quota") {
        config = config.with_per_client_quota(quota);
    }
    if let Some(rate) = value("--rate").and_then(|v| v.parse::<f64>().ok()) {
        let burst = value("--burst")
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(16.0);
        config = config.with_rate_limit(rate, burst);
    }
    if let Some(secs) = number("--grace-secs") {
        config = config.with_disconnect_grace(Duration::from_secs(secs as u64));
    }
    if let Some(path) = value("--config") {
        config = config.with_config_path(path);
    }
    if let Some(secs) = number("--watchdog-secs") {
        config = config.with_watchdog(Duration::from_secs(secs as u64));
    }
    if let Some(secs) = number("--drain-secs") {
        config = config.with_drain_timeout(Duration::from_secs(secs as u64));
    }
    if let Some(conns) = number("--max-conns") {
        config = config.with_max_connections(conns);
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
