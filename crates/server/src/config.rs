//! Server configuration: every robustness knob in one place.
//!
//! Knobs come in two flavours.  *Structural* settings (worker count, frame
//! limits, buffer budgets) are fixed at [`crate::Server::bind`] time — they
//! size threads and allocations.  *Operational* settings (queue depth,
//! quotas, rate limits, watchdog clamps, grace deadlines) are [`Tunables`]:
//! they live behind a [`HotTunables`] swap cell and can be replaced
//! atomically at runtime — by the `reload` protocol op or a SIGHUP to
//! `hanoi_serve` — without dropping a single in-flight run.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hanoi::EngineConfig;
use hanoi_lang::json::Json;

/// Configuration of a [`crate::Server`].
///
/// The defaults are sized for the single-machine service shape: a small
/// worker pool over one shared [`hanoi::Engine`], a queue a few times deeper
/// than the pool, and timeouts that favour shedding over waiting.  Every
/// limit exists to bound a resource a hostile or unlucky client could
/// otherwise grow without bound — connections, queued work, line bytes,
/// frame nesting, per-run wall clock, per-run replay bytes, tracked runs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing inference runs.  The *admission budget* —
    /// with [`Tunables::max_queue_depth`], the number of runs the server
    /// holds before it sheds.
    pub workers: usize,
    /// The hot-reloadable operational knobs: queue depth, quotas, rate
    /// limits, watchdog clamps and grace deadlines.
    pub tunables: Tunables,
    /// Byte budget of each run's event replay buffer.  When journaled
    /// events outgrow it, the oldest are evicted and a resuming client gets
    /// an explicit gap marker instead of a silent hole.
    pub replay_buffer_bytes: usize,
    /// How long a finished run's registry entry (terminal result + replay
    /// buffer) is retained for late resumers before it is reaped.
    pub result_retention: Duration,
    /// Ceiling on registry entries (in-flight + retained).  Past it, the
    /// oldest *finished* entries are evicted early; in-flight runs are never
    /// evicted (they are already bounded by the admission budget).
    pub max_tracked_runs: usize,
    /// How long a drain waits for in-flight runs to finish before
    /// cancelling them.
    pub drain_timeout: Duration,
    /// Connections idle (no bytes at all) longer than this are closed.
    pub idle_timeout: Duration,
    /// A frame that stays incomplete longer than this is a slow-loris
    /// writer: the connection is closed.
    pub frame_timeout: Duration,
    /// Per-frame byte ceiling (longer lines are discarded and reported as a
    /// structured `oversized` error).
    pub max_frame_bytes: usize,
    /// JSON nesting ceiling for incoming frames.
    pub max_frame_depth: usize,
    /// Maximum concurrent client connections; further accepts are turned
    /// away with a `busy` error frame.
    pub max_connections: usize,
    /// Distinct problem sources the server keeps elaborated (an elaborated
    /// problem pins the `Env` identity the engine's cache registry is keyed
    /// by, so re-submissions of the same source share warm caches).
    pub max_cached_sources: usize,
    /// Expects every accepted connection to begin with a PROXY protocol v1
    /// header (`PROXY TCP4 <src> <dst> <sport> <dport>\r\n`) and uses the
    /// advertised *source* address as the client identity for rate limiting
    /// and the in-flight quota.  Required behind a reverse proxy: without
    /// it every proxied client arrives from the proxy's address and shares
    /// one rate bucket and one quota — one noisy client starves all of
    /// them.  Connections that do not present a well-formed header are
    /// closed.  Only enable when the listener is reachable *exclusively*
    /// through a proxy that sends the header; a direct client could
    /// otherwise spoof any address it likes.
    pub proxy_protocol: bool,
    /// Enables the chaos directives (`"chaos": …` on submit) used by the
    /// fault-injection harness.  Never enable in production.
    pub enable_chaos: bool,
    /// Path of the JSON tunables file re-read by the `reload` protocol op
    /// (and by SIGHUP in `hanoi_serve`).  `None` makes `reload` report
    /// `reload-unavailable`.
    pub config_path: Option<PathBuf>,
    /// Configuration of the engine the server owns.  Set
    /// [`EngineConfig::warm_start_dir`] to make drain checkpoint warm state
    /// to disk (and boot restore it).
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            tunables: Tunables::default(),
            replay_buffer_bytes: 256 * 1024,
            result_retention: Duration::from_secs(120),
            max_tracked_runs: 1024,
            drain_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            frame_timeout: Duration::from_secs(10),
            max_frame_bytes: hanoi_lang::json::DEFAULT_MAX_FRAME_BYTES,
            max_frame_depth: 128,
            max_connections: 512,
            max_cached_sources: 64,
            proxy_protocol: false,
            enable_chaos: false,
            config_path: None,
            engine: EngineConfig::default(),
        }
    }
}

impl ServerConfig {
    /// The default configuration.
    pub fn new() -> Self {
        ServerConfig::default()
    }

    /// Sets the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the admission-queue depth.
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.tunables.max_queue_depth = depth;
        self
    }

    /// Sets the per-client in-flight quota.
    pub fn with_per_client_quota(mut self, quota: usize) -> Self {
        self.tunables.per_client_quota = quota;
        self
    }

    /// Sets the per-client submit rate limit (`0.0` disables) and burst.
    pub fn with_rate_limit(mut self, per_sec: f64, burst: f64) -> Self {
        self.tunables.rate_per_sec = per_sec;
        self.tunables.rate_burst = burst;
        self
    }

    /// Sets the per-run watchdog ceiling.
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.tunables.watchdog = watchdog;
        self
    }

    /// Sets how long a disconnected client's runs keep executing before
    /// auto-cancel.
    pub fn with_disconnect_grace(mut self, grace: Duration) -> Self {
        self.tunables.disconnect_grace = grace;
        self
    }

    /// Sets the per-run replay-buffer byte budget.
    pub fn with_replay_buffer_bytes(mut self, bytes: usize) -> Self {
        self.replay_buffer_bytes = bytes;
        self
    }

    /// Sets how long finished runs stay resumable.
    pub fn with_result_retention(mut self, retention: Duration) -> Self {
        self.result_retention = retention;
        self
    }

    /// Sets the registry-entry ceiling.
    pub fn with_max_tracked_runs(mut self, max: usize) -> Self {
        self.max_tracked_runs = max;
        self
    }

    /// Sets the drain patience before in-flight runs are cancelled.
    pub fn with_drain_timeout(mut self, drain_timeout: Duration) -> Self {
        self.drain_timeout = drain_timeout;
        self
    }

    /// Sets the slow-loris frame-completion deadline.
    pub fn with_frame_timeout(mut self, frame_timeout: Duration) -> Self {
        self.frame_timeout = frame_timeout;
        self
    }

    /// Sets the idle-connection deadline.
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Sets the per-frame byte ceiling.
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self
    }

    /// Sets the connection ceiling.
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections;
        self
    }

    /// Expects PROXY protocol v1 headers and keys client identity on the
    /// advertised source address.
    pub fn with_proxy_protocol(mut self, enable: bool) -> Self {
        self.proxy_protocol = enable;
        self
    }

    /// Enables the chaos fault-injection directives.
    pub fn with_chaos(mut self, enable: bool) -> Self {
        self.enable_chaos = enable;
        self
    }

    /// Sets the tunables file the `reload` op (and SIGHUP) re-reads.
    pub fn with_config_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config_path = Some(path.into());
        self
    }

    /// Sets the engine configuration (warm-start dir, parallelism, cache
    /// budget).
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Checks the configuration is executable.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("workers", self.workers),
            ("max_frame_bytes", self.max_frame_bytes),
            ("max_frame_depth", self.max_frame_depth),
            ("max_connections", self.max_connections),
            ("max_cached_sources", self.max_cached_sources),
            ("replay_buffer_bytes", self.replay_buffer_bytes),
            ("max_tracked_runs", self.max_tracked_runs),
        ] {
            if value == 0 {
                return Err(format!("`{name}` must be at least 1"));
            }
        }
        self.tunables.validate()
    }
}

/// The hot-reloadable part of [`ServerConfig`]: the operational knobs an
/// operator retunes on a live fleet.
///
/// A [`Tunables`] value is immutable once published; a reload builds a new
/// one (current values overlaid with the config file's keys) and swaps it in
/// whole through [`HotTunables`], so every reader sees either the old set or
/// the new set, never a mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Tunables {
    /// Maximum queued (admitted, not yet running) runs.  A submit beyond
    /// this is shed with a `retry_after_ms` hint instead of queued.
    /// Hot-reloadable.
    pub max_queue_depth: usize,
    /// Maximum runs one client *address* may have in flight
    /// (queued + running) before its submits are shed — per-client fairness
    /// over the worker budget: one greedy client cannot occupy the whole
    /// queue.  Keyed by address (not connection) because runs outlive
    /// connections: a connection-keyed quota would reset every time the
    /// offender reconnects.  Behind a reverse proxy, enable
    /// [`ServerConfig::proxy_protocol`] so this keys on real client
    /// addresses rather than the proxy's.  Hot-reloadable.
    pub per_client_quota: usize,
    /// Sustained submits per second one client address may make before its
    /// submits are shed with `rate-limited` (a token bucket refilled at this
    /// rate).  `0.0` disables rate limiting — the shipped default, sized for
    /// trusted private-network deployments; enable it (`--rate` or a hot
    /// reload) wherever clients are not all well-behaved.  The concurrency
    /// quota bounds how much a client *holds*; this bounds how fast it
    /// *asks*.  Hot-reloadable.
    pub rate_per_sec: f64,
    /// Burst capacity of the per-client token bucket: this many submits may
    /// arrive back to back before the refill rate becomes the bound.
    /// Hot-reloadable.
    pub rate_burst: f64,
    /// Hard per-run wall-clock ceiling.  Client-requested timeouts are
    /// clamped to it, and a watchdog cancels (via the run's `CancelToken`)
    /// any run still alive past the ceiling plus
    /// [`Tunables::watchdog_grace`].  Hot-reloadable (applies to runs
    /// admitted after the reload).
    pub watchdog: Duration,
    /// Extra slack the watchdog grants beyond the clamped timeout before it
    /// force-cancels — covers runs wedged somewhere that polls the deadline
    /// rarely.  Hot-reloadable.
    pub watchdog_grace: Duration,
    /// How long a run keeps executing after its client disconnects before
    /// it is auto-cancelled.  Within the grace window the client may
    /// `resume` by run token and lose nothing; `0` restores the old
    /// cancel-on-disconnect behaviour.  Hot-reloadable.
    pub disconnect_grace: Duration,
    /// Base of the `retry_after_ms` backpressure hint; the hint scales with
    /// how overloaded the queue is (and carries bounded jitter so shed
    /// clients do not retry in lockstep).  Hot-reloadable.
    pub retry_after_base_ms: u64,
}

impl Default for Tunables {
    fn default() -> Self {
        Tunables {
            max_queue_depth: 64,
            per_client_quota: 8,
            rate_per_sec: 0.0,
            rate_burst: 16.0,
            watchdog: Duration::from_secs(120),
            watchdog_grace: Duration::from_millis(500),
            disconnect_grace: Duration::from_secs(15),
            retry_after_base_ms: 100,
        }
    }
}

impl Tunables {
    /// A copy of `self` with every key present in `json` (a flat object)
    /// replaced.  Unknown keys are rejected — a typoed knob in a reload file
    /// must fail loudly, not silently keep the old value — and so is a
    /// fractional value for a key that takes an integer.
    ///
    /// Recognized keys: `max_queue_depth`, `per_client_quota`,
    /// `rate_per_sec`, `rate_burst`, `retry_after_base_ms`, `watchdog_ms`,
    /// `watchdog_grace_ms`, `disconnect_grace_ms`.
    pub fn overlaid(&self, json: &Json) -> Result<Tunables, String> {
        let Json::Obj(map) = json else {
            return Err("tunables must be a JSON object".to_string());
        };
        let mut next = self.clone();
        for (key, value) in map {
            let num = value
                .as_f64()
                .ok_or_else(|| format!("`{key}` must be a number"))?;
            if !num.is_finite() || num < 0.0 {
                return Err(format!("`{key}` must be finite and non-negative"));
            }
            let int = || {
                if num.fract() == 0.0 {
                    Ok(num as u64)
                } else {
                    Err(format!("`{key}` must be an integer"))
                }
            };
            match key.as_str() {
                "max_queue_depth" => next.max_queue_depth = int()? as usize,
                "per_client_quota" => next.per_client_quota = int()? as usize,
                "rate_per_sec" => next.rate_per_sec = num,
                "rate_burst" => next.rate_burst = num,
                "retry_after_base_ms" => next.retry_after_base_ms = int()?,
                "watchdog_ms" => next.watchdog = Duration::from_millis(int()?),
                "watchdog_grace_ms" => next.watchdog_grace = Duration::from_millis(int()?),
                "disconnect_grace_ms" => next.disconnect_grace = Duration::from_millis(int()?),
                other => return Err(format!("unknown tunable `{other}`")),
            }
        }
        next.validate()?;
        Ok(next)
    }

    /// Checks the tunables are executable.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_queue_depth == 0 {
            return Err("`max_queue_depth` must be at least 1".to_string());
        }
        if self.per_client_quota == 0 {
            return Err("`per_client_quota` must be at least 1".to_string());
        }
        if self.watchdog.is_zero() {
            return Err("`watchdog` must be positive".to_string());
        }
        if !self.rate_per_sec.is_finite() || self.rate_per_sec < 0.0 {
            return Err("`rate_per_sec` must be finite and non-negative".to_string());
        }
        if self.rate_per_sec > 0.0 && self.rate_burst < 1.0 {
            return Err("`rate_burst` must be at least 1 when rate limiting is on".to_string());
        }
        Ok(())
    }

    /// Serializes the set (reported by `stats` and `reloaded` frames).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("max_queue_depth", Json::Num(self.max_queue_depth as f64)),
            ("per_client_quota", Json::Num(self.per_client_quota as f64)),
            ("rate_per_sec", Json::Num(self.rate_per_sec)),
            ("rate_burst", Json::Num(self.rate_burst)),
            (
                "retry_after_base_ms",
                Json::Num(self.retry_after_base_ms as f64),
            ),
            ("watchdog_ms", Json::Num(self.watchdog.as_millis() as f64)),
            (
                "watchdog_grace_ms",
                Json::Num(self.watchdog_grace.as_millis() as f64),
            ),
            (
                "disconnect_grace_ms",
                Json::Num(self.disconnect_grace.as_millis() as f64),
            ),
        ])
    }
}

/// The swap cell the live [`Tunables`] set is published through.
///
/// Readers take a cheap `Arc` clone of the current set and use it for the
/// whole request, so one request never mixes two generations; a reload
/// replaces the `Arc` atomically.  This is the whole reload-atomicity
/// argument: tunables are data, not state — nothing references them across
/// requests, so swapping the pointer is a complete, consistent reload.
#[derive(Debug)]
pub struct HotTunables {
    current: Mutex<Arc<Tunables>>,
}

impl HotTunables {
    /// Publishes an initial set.
    pub fn new(tunables: Tunables) -> HotTunables {
        HotTunables {
            current: Mutex::new(Arc::new(tunables)),
        }
    }

    /// The current set.  Hold the returned `Arc` for the duration of one
    /// request; re-read for the next.
    pub fn get(&self) -> Arc<Tunables> {
        Arc::clone(&self.current.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Atomically replaces the whole set.
    pub fn swap(&self, tunables: Tunables) {
        *self.current.lock().unwrap_or_else(|p| p.into_inner()) = Arc::new(tunables);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::json::parse;

    #[test]
    fn defaults_validate_and_zero_knobs_do_not() {
        assert!(ServerConfig::default().validate().is_ok());
        assert!(ServerConfig::default().with_workers(0).validate().is_err());
        assert!(ServerConfig::default()
            .with_max_queue_depth(0)
            .validate()
            .is_err());
        assert!(ServerConfig::default()
            .with_watchdog(Duration::ZERO)
            .validate()
            .is_err());
        assert!(ServerConfig::default()
            .with_replay_buffer_bytes(0)
            .validate()
            .is_err());
        // Rate limiting needs a usable burst.
        assert!(ServerConfig::default()
            .with_rate_limit(5.0, 0.5)
            .validate()
            .is_err());
        assert!(ServerConfig::default()
            .with_rate_limit(5.0, 2.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn overlay_replaces_named_keys_and_rejects_unknown_ones() {
        let base = Tunables::default();
        let next = base
            .overlaid(
                &parse(r#"{"rate_per_sec": 7.5, "per_client_quota": 3, "watchdog_ms": 1000}"#)
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(next.rate_per_sec, 7.5);
        assert_eq!(next.per_client_quota, 3);
        assert_eq!(next.watchdog, Duration::from_secs(1));
        // Untouched keys keep their old values.
        assert_eq!(next.max_queue_depth, base.max_queue_depth);
        assert_eq!(next.retry_after_base_ms, base.retry_after_base_ms);

        assert!(base
            .overlaid(&parse(r#"{"typoed_knob": 1}"#).unwrap())
            .is_err());
        assert!(base
            .overlaid(&parse(r#"{"rate_per_sec": "x"}"#).unwrap())
            .is_err());
        assert!(base.overlaid(&parse(r#"[1]"#).unwrap()).is_err());
        // An overlay that validates to nonsense is rejected whole.
        assert!(base
            .overlaid(&parse(r#"{"watchdog_ms": 0}"#).unwrap())
            .is_err());
        // Integer keys take integers only; the error names the key.
        for (overlay, key) in [
            (r#"{"max_queue_depth": 2.5}"#, "max_queue_depth"),
            (r#"{"watchdog_ms": 0.5}"#, "watchdog_ms"),
        ] {
            let err = base.overlaid(&parse(overlay).unwrap()).unwrap_err();
            assert_eq!(err, format!("`{key}` must be an integer"), "{overlay}");
        }
    }

    #[test]
    fn hot_swap_publishes_whole_sets() {
        let hot = HotTunables::new(Tunables::default());
        let before = hot.get();
        let mut next = (*before).clone();
        next.rate_per_sec = 42.0;
        next.max_queue_depth = 3;
        hot.swap(next);
        let after = hot.get();
        assert_eq!(after.rate_per_sec, 42.0);
        assert_eq!(after.max_queue_depth, 3);
        // The old Arc still reads the old generation: requests in flight at
        // swap time keep a consistent view.
        assert_eq!(before.max_queue_depth, 64);
    }
}
