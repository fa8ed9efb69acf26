//! The server proper: accept loop, connection threads, worker pool,
//! reaper, and the graceful-drain coordinator.
//!
//! # Thread shape
//!
//! [`Server::serve`] blocks inside one `std::thread::scope`:
//!
//! * the calling thread runs the (non-blocking, polled) **accept loop**;
//! * one scoped thread per accepted socket runs the **connection loop** —
//!   frame decoding, request dispatch, timeout enforcement;
//! * [`crate::ServerConfig::workers`] scoped threads run the **worker
//!   loop** — they pull admitted jobs and execute inference runs against
//!   the one shared [`Engine`];
//! * one scoped **reaper** thread force-cancels runs that outlive their
//!   deadline (the watchdog), cancels detached runs whose disconnect grace
//!   expired, expires finished runs past their retention window, and prunes
//!   idle rate-limiter buckets.
//!
//! When a drain is requested (the `drain` protocol op, or
//! [`ServerHandle::drain`] — typically wired to SIGTERM by the binary), the
//! accept loop exits and runs the drain sequence: stop admitting, wait for
//! in-flight work (cancelling whatever outlives the patience window),
//! checkpoint the engine's warm state to disk, then release every thread
//! and return.  The scope guarantees nothing leaks.
//!
//! # Run durability
//!
//! A run's lifetime is decoupled from its connection's: every accepted
//! submit is tracked in the [`RunRegistry`] under a server-issued token, and
//! every frame it produces is journaled in a per-run replay buffer before
//! being forwarded to the owning connection.  A client disconnect merely
//! *detaches* the run — it keeps executing, and a `resume` op presenting
//! the token on any later connection replays the missed frames and
//! continues live.  Only when nobody reclaims a detached run within
//! [`crate::config::Tunables::disconnect_grace`] does the reaper cancel it.
//!
//! # Fault isolation
//!
//! Every worker iteration runs behind `catch_unwind`, and the run itself
//! behind [`hanoi::Session::run_caught`] — a panicking run produces a
//! structured `error` frame for its one client (journaled like any other
//! terminal frame, so even a panic outcome survives a disconnect) while the
//! process, the other connections, and every *other* problem's warm caches
//! carry on.

use std::io::{ErrorKind, Read};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use hanoi::{Engine, Outcome, RunEvent, RunOptions, RunResult, RunStats};
use hanoi_abstraction::Problem;
use hanoi_lang::json::{self, FrameReader, FrameResult, Json};

use crate::admission::{Admission, Next};
use crate::config::{HotTunables, ServerConfig, Tunables};
use crate::protocol::{self, ChaosDirective, ProtocolError, Request, ShedReason, SubmitRequest};
use crate::ratelimit::RateLimiter;
use crate::registry::{FrameSink, RegisterError, ResumeError, RunEntry, RunRegistry};
use crate::stats::{bump, ServerStats};

/// How often blocked loops (accept, connection reads, worker polls, the
/// reaper) wake to re-check shutdown flags.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Write-side patience before a stuck client counts as gone.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

/// One admitted inference run, queued for a worker.  The durable state
/// (cancellation, journal, owning connection) lives in the registry entry;
/// the job only carries what the worker needs to execute.
struct Job {
    entry: Arc<RunEntry>,
    source: String,
    options: RunOptions,
    chaos: Option<ChaosDirective>,
    submitted_at: Instant,
}

/// The write half of one client connection, shared between its connection
/// thread and the workers streaming frames back to it.
#[derive(Debug)]
struct ClientHandle {
    id: u64,
    peer: IpAddr,
    writer: Mutex<TcpStream>,
    alive: AtomicBool,
    stats: Arc<ServerStats>,
}

impl ClientHandle {
    /// Sends one frame; on any write failure the client is marked dead so
    /// later sends (and event streams) short-circuit.
    fn send(&self, frame: &Json) -> bool {
        if !self.alive.load(Ordering::Relaxed) {
            return false;
        }
        let mut writer = lock(&self.writer);
        match json::write_frame(&mut *writer, frame) {
            Ok(()) => true,
            Err(_) => {
                self.alive.store(false, Ordering::Relaxed);
                bump(&self.stats.write_errors);
                false
            }
        }
    }
}

/// Workers deliver journaled frames through the registry, which addresses
/// the owning connection as a [`FrameSink`].
impl FrameSink for ClientHandle {
    fn send_frame(&self, frame: &Json) -> bool {
        self.send(frame)
    }
}

/// State shared by every thread of one server.
struct Shared {
    config: ServerConfig,
    engine: Engine,
    stats: Arc<ServerStats>,
    admission: Admission<Job>,
    /// The durable run registry: tokens, journals, owners.
    registry: RunRegistry,
    /// Per-client-address token buckets (time-based rate limiting).
    limiter: RateLimiter,
    /// The hot-reloadable tunables every admission decision reads.
    tunables: Arc<HotTunables>,
    /// Elaborated problems keyed by source text, most recent last.  The
    /// engine keys its warm caches by the elaborated problem's identity, so
    /// re-elaborating the same source would always start cold: this cache is
    /// what makes repeat submissions of one problem share warmth across
    /// connections.
    problems: Mutex<Vec<(String, Arc<Problem>)>>,
    drain_requested: AtomicBool,
    shutdown: AtomicBool,
    open_connections: AtomicUsize,
    next_conn_id: AtomicU64,
    /// Snapshot count once the drain completes.
    drained: Mutex<Option<usize>>,
    drained_cv: Condvar,
}

impl Shared {
    fn request_drain(&self) {
        self.drain_requested.store(true, Ordering::Relaxed);
        self.admission.begin_drain();
    }
}

/// A bounded, fault-isolated TCP front end over one shared [`Engine`].
///
/// Bind with [`Server::bind`], grab a [`ServerHandle`] for out-of-band
/// control, then call [`Server::serve`] (blocking until drained):
///
/// ```no_run
/// use hanoi_server::{Server, ServerConfig};
///
/// let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
/// let handle = server.handle();
/// std::thread::spawn(move || server.serve());
/// // … later, e.g. from a signal handler loop:
/// handle.drain();
/// handle.wait_drained(std::time::Duration::from_secs(60));
/// ```
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Out-of-band control of a running [`Server`]: its address, a drain
/// trigger, a config-reload trigger, and a way to wait for the drain to
/// finish.  Clonable and `Send`; the binary wires [`ServerHandle::drain`]
/// to SIGTERM/SIGINT and [`ServerHandle::reload_from_file`] to SIGHUP.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The server's bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain: stop admitting, finish (or cancel)
    /// in-flight runs, checkpoint warm state, shut down.  Idempotent,
    /// callable from any thread (it only flips flags — safe from a signal
    /// polling loop).
    pub fn drain(&self) {
        self.shared.request_drain();
    }

    /// Waits up to `timeout` for the drain to complete; returns the number
    /// of warm-start snapshots written, or `None` on timeout.
    pub fn wait_drained(&self, timeout: Duration) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        let mut drained = lock(&self.shared.drained);
        loop {
            if let Some(snapshots) = *drained {
                return Some(snapshots);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            drained = self
                .shared
                .drained_cv
                .wait_timeout(drained, deadline - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// Live server counters (same payload as the `stats` protocol reply's
    /// `server` field).
    pub fn stats_json(&self) -> Json {
        self.shared.stats.to_json()
    }

    /// The tunable set currently in force.
    pub fn tunables(&self) -> Arc<Tunables> {
        self.shared.tunables.get()
    }

    /// Re-reads the server's config file and hot-swaps the tunables
    /// (the `reload` op's out-of-band twin — the binary wires it to
    /// SIGHUP).  Returns the tunables now in force.
    pub fn reload_from_file(&self) -> Result<Json, ProtocolError> {
        reload(&self.shared)
    }
}

/// Re-reads the config file, overlays it on the boot-time tunables (the
/// file is declarative: a key removed from the file reverts to its
/// boot-time value on the next reload), validates the whole set, and
/// publishes it atomically.  In-flight runs are untouched: tunables are
/// read at decision points, never held.
fn reload(shared: &Shared) -> Result<Json, ProtocolError> {
    let Some(path) = shared.config.config_path.as_ref() else {
        return Err(ProtocolError::new(
            "reload-unavailable",
            "the server was started without --config; nothing to reload",
        ));
    };
    let fail = |message: String| ProtocolError::new("reload-failed", message);
    let text =
        std::fs::read_to_string(path).map_err(|e| fail(format!("read {}: {e}", path.display())))?;
    let overlay = json::parse_with_limits(&text, shared.config.max_frame_depth)
        .map_err(|e| fail(format!("parse {}: {e}", path.display())))?;
    let next = shared
        .config
        .tunables
        .overlaid(&overlay)
        .map_err(|e| fail(format!("{}: {e}", path.display())))?;
    shared.tunables.swap(next);
    bump(&shared.stats.config_reloads);
    Ok(shared.tunables.get().to_json())
}

impl Server {
    /// Binds a listener and builds the engine; the server is not serving
    /// until [`Server::serve`] is called.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
        let engine = Engine::new(config.engine.clone())
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let tunables = Arc::new(HotTunables::new(config.tunables.clone()));
        let admission = Admission::new(config.workers, Arc::clone(&tunables));
        let shared = Arc::new(Shared {
            engine,
            stats: Arc::new(ServerStats::default()),
            admission,
            registry: RunRegistry::new(),
            limiter: RateLimiter::new(),
            tunables,
            problems: Mutex::new(Vec::new()),
            drain_requested: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(0),
            drained: Mutex::new(None),
            drained_cv: Condvar::new(),
            config,
        });
        Ok(Server {
            listener,
            addr,
            shared,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A control handle, valid before and during [`Server::serve`].
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until drained; returns the number of warm-start snapshots the
    /// drain checkpoint wrote.
    pub fn serve(self) -> std::io::Result<usize> {
        let Server {
            listener, shared, ..
        } = self;
        let shared = &*shared;
        thread::scope(|scope| {
            for _ in 0..shared.config.workers {
                scope.spawn(|| worker_loop(shared));
            }
            scope.spawn(|| reaper_loop(shared));
            while !shared.drain_requested.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => accept_connection(shared, stream, scope),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
                    Err(_) => thread::sleep(POLL_INTERVAL),
                }
            }
            drop(listener);
            drain(shared)
        })
    }
}

fn accept_connection<'scope, 'env>(
    shared: &'scope Shared,
    stream: TcpStream,
    scope: &'scope thread::Scope<'scope, 'env>,
) {
    if shared.open_connections.load(Ordering::Relaxed) >= shared.config.max_connections {
        bump(&shared.stats.connections_rejected);
        let mut stream = stream;
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        let _ = json::write_frame(
            &mut stream,
            &protocol::error_frame(
                &ProtocolError::new("busy", "connection limit reached"),
                None,
            ),
        );
        return;
    }
    shared.open_connections.fetch_add(1, Ordering::Relaxed);
    bump(&shared.stats.connections_opened);
    scope.spawn(move || handle_connection(shared, stream));
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed) + 1;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    // The peer address keys the rate limiter and the in-flight quota, so a
    // connection that cannot be attributed to an address is closed rather
    // than pooled into a shared bucket where it would throttle (or hide
    // behind) unrelated clients.
    let Some(peer) = connection_peer(shared, &mut stream) else {
        bump(&shared.stats.unattributed_connections);
        bump(&shared.stats.connections_closed);
        shared.open_connections.fetch_sub(1, Ordering::Relaxed);
        return;
    };
    let client = match stream.try_clone() {
        Ok(writer) => {
            let _ = writer.set_write_timeout(Some(WRITE_TIMEOUT));
            Arc::new(ClientHandle {
                id: conn_id,
                peer,
                writer: Mutex::new(writer),
                alive: AtomicBool::new(true),
                stats: Arc::clone(&shared.stats),
            })
        }
        Err(_) => {
            bump(&shared.stats.connections_closed);
            shared.open_connections.fetch_sub(1, Ordering::Relaxed);
            return;
        }
    };
    let mut reader = stream;
    let mut frames = FrameReader::new(shared.config.max_frame_bytes);
    let mut last_activity = Instant::now();
    let mut partial_since: Option<Instant> = None;
    let timed_out = loop {
        if shared.shutdown.load(Ordering::Relaxed) || !client.alive.load(Ordering::Relaxed) {
            break false;
        }
        match frames.read_frame(&mut reader) {
            FrameResult::Frame(line) => {
                last_activity = Instant::now();
                partial_since = None;
                bump(&shared.stats.frames_received);
                handle_frame(shared, &client, &line);
            }
            FrameResult::WouldBlock => {
                let now = Instant::now();
                if frames.partial_len() > 0 {
                    // A frame has been trickling in: slow-loris defence.
                    let since = *partial_since.get_or_insert(now);
                    if now.duration_since(since) > shared.config.frame_timeout {
                        break true;
                    }
                } else {
                    partial_since = None;
                    if now.duration_since(last_activity) > shared.config.idle_timeout {
                        break true;
                    }
                }
            }
            FrameResult::Closed { .. } => break false,
            FrameResult::Oversized { limit } => {
                bump(&shared.stats.oversized_frames);
                client.send(&protocol::error_frame(
                    &ProtocolError::new(
                        "oversized",
                        format!("frame exceeds the {limit}-byte limit"),
                    ),
                    None,
                ));
            }
            FrameResult::InvalidUtf8 => {
                bump(&shared.stats.encoding_errors);
                client.send(&protocol::error_frame(
                    &ProtocolError::new("encoding", "frame is not valid UTF-8"),
                    None,
                ));
            }
            FrameResult::Err(_) => break false,
        }
    };
    if timed_out {
        bump(&shared.stats.connections_timed_out);
    }
    // Teardown: *detach* the connection's runs instead of cancelling them.
    // They keep executing and journaling under their tokens; the reaper
    // cancels whichever ones nobody resumes within the disconnect grace.
    client.alive.store(false, Ordering::Relaxed);
    let detached = shared.registry.detach_conn(conn_id, Instant::now());
    for _ in 0..detached {
        bump(&shared.stats.runs_detached);
    }
    bump(&shared.stats.connections_closed);
    shared.open_connections.fetch_sub(1, Ordering::Relaxed);
}

/// Longest legal PROXY protocol v1 line, terminator included.
const PROXY_V1_MAX: usize = 107;

/// The address all per-client accounting (rate buckets, in-flight quota)
/// keys on.
///
/// Direct deployments use the socket's peer address.  With
/// [`crate::ServerConfig::proxy_protocol`] on, the connection must open
/// with a PROXY protocol v1 header and the *advertised source* address is
/// used instead — behind a TLS/auth-terminating reverse proxy the socket
/// peer is always the proxy itself, which would fold every client into one
/// bucket.  `None` (close the connection) when the peer is unattributable:
/// no recoverable socket address, or a missing/malformed header.
fn connection_peer(shared: &Shared, stream: &mut TcpStream) -> Option<IpAddr> {
    let direct = stream.peer_addr().ok().map(|a| a.ip())?;
    if !shared.config.proxy_protocol {
        return Some(direct);
    }
    let deadline = Instant::now() + shared.config.frame_timeout;
    match read_proxy_v1(stream, deadline)? {
        // `PROXY UNKNOWN`: the proxy vouches for the connection but cannot
        // name the source (e.g. health checks); fall back to the socket.
        None => Some(direct),
        Some(source) => Some(source),
    }
}

/// Reads and parses one PROXY protocol v1 header line.  `Some(None)` for a
/// well-formed `UNKNOWN` header, `None` for anything malformed, oversized,
/// or slower than `deadline` (the caller closes the connection).
fn read_proxy_v1(stream: &mut TcpStream, deadline: Instant) -> Option<Option<IpAddr>> {
    let mut line = Vec::with_capacity(PROXY_V1_MAX);
    let mut byte = [0u8; 1];
    loop {
        if Instant::now() >= deadline {
            return None;
        }
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => {
                line.push(byte[0]);
                if line.len() >= PROXY_V1_MAX {
                    return None;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return None,
        }
    }
    let line = std::str::from_utf8(&line).ok()?;
    let line = line.strip_suffix('\r').unwrap_or(line);
    let mut fields = line.split(' ');
    if fields.next() != Some("PROXY") {
        return None;
    }
    match fields.next() {
        Some("UNKNOWN") => Some(None), // remainder is unspecified; ignore it
        Some("TCP4") | Some("TCP6") => {
            let source: IpAddr = fields.next()?.parse().ok()?;
            let _dest: IpAddr = fields.next()?.parse().ok()?;
            let _source_port: u16 = fields.next()?.parse().ok()?;
            let _dest_port: u16 = fields.next()?.parse().ok()?;
            if fields.next().is_some() {
                return None;
            }
            Some(Some(source))
        }
        _ => None,
    }
}

fn handle_frame(shared: &Shared, client: &Arc<ClientHandle>, line: &str) {
    let frame = match json::parse_with_limits(line, shared.config.max_frame_depth) {
        Ok(frame) => frame,
        Err(e) => {
            bump(&shared.stats.protocol_errors);
            client.send(&protocol::error_frame(
                &ProtocolError::new("parse", e.to_string()),
                None,
            ));
            return;
        }
    };
    let request = match protocol::parse_request(&frame) {
        Ok(request) => request,
        Err(error) => {
            bump(&shared.stats.protocol_errors);
            client.send(&protocol::error_frame(&error, protocol::request_id(&frame)));
            return;
        }
    };
    match request {
        Request::Ping => {
            client.send(&protocol::pong_frame());
        }
        Request::Stats => {
            let (queued, active) = shared.admission.load();
            client.send(&protocol::stats_frame(
                shared.stats.to_json(),
                shared.engine.cached_problems(),
                queued,
                active,
                shared.admission.is_draining(),
                shared.tunables.get().to_json(),
                shared.registry.tracked(),
            ));
        }
        Request::Drain => {
            shared.request_drain();
            client.send(&protocol::draining_frame());
        }
        Request::Reload => match reload(shared) {
            Ok(tunables) => {
                client.send(&protocol::reloaded_frame(tunables));
            }
            Err(error) => {
                bump(&shared.stats.protocol_errors);
                client.send(&protocol::error_frame(&error, None));
            }
        },
        Request::Cancel { id } => {
            let found = match shared.registry.resolve(client.id, &id) {
                Some(entry) => {
                    entry.cancel_token().cancel();
                    true
                }
                None => false,
            };
            if found {
                bump(&shared.stats.cancels_honoured);
            }
            client.send(&protocol::cancelled_frame(&id, found));
        }
        Request::Resume { token, last_seq } => handle_resume(shared, client, &token, last_seq),
        Request::Submit(submit) => handle_submit(shared, client, *submit),
    }
}

fn handle_resume(shared: &Shared, client: &Arc<ClientHandle>, token: &str, last_seq: u64) {
    let sink: Arc<dyn FrameSink> = Arc::clone(client) as Arc<dyn FrameSink>;
    match shared.registry.resume(
        token,
        client.id,
        sink,
        last_seq,
        Instant::now(),
        |id, replayed, finished| protocol::resumed_frame(id, token, replayed, finished),
        protocol::gap_frame,
    ) {
        Ok(resumed) => {
            bump(&shared.stats.runs_resumed);
            if resumed.gap.is_some() {
                bump(&shared.stats.replay_gaps);
            }
            for _ in 0..resumed.replayed {
                bump(&shared.stats.replay_events_sent);
            }
        }
        Err(error) => {
            bump(&shared.stats.protocol_errors);
            let code = match error {
                ResumeError::UnknownToken => "unknown-token",
                ResumeError::IdConflict => "resume-conflict",
            };
            client.send(&protocol::error_frame(
                &ProtocolError::new(code, error.to_string()),
                None,
            ));
        }
    }
}

fn handle_submit(shared: &Shared, client: &Arc<ClientHandle>, submit: SubmitRequest) {
    if submit.chaos.is_some() && !shared.config.enable_chaos {
        bump(&shared.stats.protocol_errors);
        client.send(&protocol::error_frame(
            &ProtocolError::new(
                "chaos-disabled",
                "chaos directives require a server started with chaos enabled",
            ),
            Some(&submit.id),
        ));
        return;
    }
    let tunables = shared.tunables.get();
    // The rate limiter sits in front of the admission queue: a client
    // hammering submits is shed on its own clock before it can contend for
    // queue depth, with an honest hint from its bucket's actual deficit.
    if let Err(retry_after_ms) = shared.limiter.try_acquire(
        client.peer,
        tunables.rate_per_sec,
        tunables.rate_burst,
        Instant::now(),
    ) {
        bump(&shared.stats.rate_limited_sheds);
        client.send(&protocol::shed_frame(
            &submit.id,
            ShedReason::RateLimited,
            retry_after_ms.max(1),
        ));
        return;
    }
    // The watchdog ceiling is a hard bound: client timeouts are clamped to
    // it, never trusted beyond it.
    let watchdog = tunables.watchdog;
    let mut options = submit.options;
    options.timeout = Some(options.timeout.map_or(watchdog, |t| t.min(watchdog)));
    let limit = options.timeout.unwrap_or(watchdog);
    let entry = match shared.registry.register(
        client.id,
        Arc::clone(client) as Arc<dyn FrameSink>,
        &submit.id,
        submit.events,
        limit,
        shared.config.replay_buffer_bytes,
        shared.config.max_tracked_runs,
    ) {
        Ok(entry) => entry,
        Err(RegisterError::DuplicateId) => {
            bump(&shared.stats.protocol_errors);
            client.send(&protocol::error_frame(
                &ProtocolError::new("bad-request", "run id already in flight"),
                Some(&submit.id),
            ));
            return;
        }
        Err(RegisterError::Full) => {
            bump(&shared.stats.shed_queue_full);
            client.send(&protocol::shed_frame(
                &submit.id,
                ShedReason::QueueFull,
                tunables.retry_after_base_ms.max(1),
            ));
            return;
        }
    };
    let job = Job {
        entry: Arc::clone(&entry),
        source: submit.source,
        options,
        chaos: submit.chaos,
        submitted_at: Instant::now(),
    };
    // Quota accounting keys on the client address, like the rate limiter:
    // runs outlive connections, so a connection-keyed quota would hand a
    // reconnecting client a fresh allowance while its old runs still hold
    // workers.
    match shared.admission.submit(client.peer, job) {
        Ok(queued) => {
            bump(&shared.stats.runs_accepted);
            client.send(&protocol::accepted_frame(&submit.id, queued, entry.token()));
        }
        Err((reason, retry_after_ms)) => {
            shared.registry.unregister(client.id, &entry);
            bump(match reason {
                ShedReason::QueueFull => &shared.stats.shed_queue_full,
                ShedReason::ClientQuota => &shared.stats.shed_client_quota,
                ShedReason::RateLimited => &shared.stats.rate_limited_sheds,
                ShedReason::Draining => &shared.stats.shed_draining,
            });
            client.send(&protocol::shed_frame(&submit.id, reason, retry_after_ms));
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        match shared.admission.next(POLL_INTERVAL * 2) {
            Next::Shutdown => return,
            Next::Idle => continue,
            Next::Job(client_addr, job) => {
                // The panic boundary: a defect anywhere in job execution
                // (including injected chaos) is contained to this job.
                let outcome = catch_unwind(AssertUnwindSafe(|| run_job(shared, &job)));
                if let Err(payload) = outcome {
                    bump(&shared.stats.runs_panicked);
                    if !job.entry.is_finished() {
                        let error = ProtocolError::new("panic", panic_text(payload.as_ref()));
                        let id = job.entry.id().to_string();
                        job.entry.finish(Instant::now(), |seq| {
                            protocol::sequenced(protocol::error_frame(&error, Some(&id)), seq)
                        });
                    }
                }
                // The id becomes reusable; the entry stays resumable by
                // token until retention expires.
                shared.registry.release_id(&job.entry);
                shared.admission.finish(client_addr);
            }
        }
    }
}

fn run_job(shared: &Shared, job: &Job) {
    if let Some(chaos) = job.chaos {
        match chaos {
            ChaosDirective::Sleep(ms) => thread::sleep(Duration::from_millis(ms.min(60_000))),
            ChaosDirective::Panic => panic!("chaos: injected worker panic"),
        }
    }
    let entry = &job.entry;
    let queue_ms = job.submitted_at.elapsed().as_millis() as u64;
    if entry.cancel_token().is_cancelled() {
        // Cancelled (or grace-reaped) while queued: answer without paying
        // for elaboration or a run.
        let result = RunResult::new(Outcome::Cancelled, RunStats::default());
        bump(&shared.stats.runs_completed);
        bump(&shared.stats.runs_cancelled);
        let id = entry.id().to_string();
        entry.finish(Instant::now(), |seq| {
            protocol::result_frame(&id, seq, &result, queue_ms, 0)
        });
        return;
    }
    let problem = match cached_problem(shared, &job.source) {
        Ok(problem) => problem,
        Err(message) => {
            bump(&shared.stats.runs_rejected);
            let error = ProtocolError::new("bad-problem", message);
            let id = entry.id().to_string();
            entry.finish(Instant::now(), |seq| {
                protocol::sequenced(protocol::error_frame(&error, Some(&id)), seq)
            });
            return;
        }
    };
    // Arm the watchdog: the run is now spending wall clock.
    entry.mark_started(Instant::now());
    let started = Instant::now();
    let session = shared.engine.session(&problem);
    let outcome = if entry.events_wanted() {
        let stats = &shared.stats;
        let id = entry.id().to_string();
        let mut observer = |event: &RunEvent| {
            bump(&stats.events_sent);
            // Journal + forward.  A dead owner detaches the run rather than
            // cancelling it: the journal keeps the stream whole for a
            // resumer, and the reaper enforces the grace deadline.
            let emitted = entry.emit(Instant::now(), |seq| protocol::event_frame(&id, seq, event));
            if emitted.detached {
                bump(&stats.runs_detached);
            }
        };
        session.run_caught(
            &job.options,
            Some(&mut observer),
            Some(entry.cancel_token().clone()),
        )
    } else {
        session.run_caught(&job.options, None, Some(entry.cancel_token().clone()))
    };
    let run_ms = started.elapsed().as_millis() as u64;
    match outcome {
        Ok(result) => {
            bump(&shared.stats.runs_completed);
            match &result.outcome {
                Outcome::Invariant(_) => bump(&shared.stats.runs_invariant),
                Outcome::Cancelled => bump(&shared.stats.runs_cancelled),
                Outcome::Timeout => bump(&shared.stats.runs_timeout),
                _ => {}
            }
            let id = entry.id().to_string();
            entry.finish(Instant::now(), |seq| {
                protocol::result_frame(&id, seq, &result, queue_ms, run_ms)
            });
        }
        Err(message) => {
            bump(&shared.stats.runs_panicked);
            let error = ProtocolError::new("panic", format!("run panicked: {message}"));
            let id = entry.id().to_string();
            entry.finish(Instant::now(), |seq| {
                protocol::sequenced(protocol::error_frame(&error, Some(&id)), seq)
            });
        }
    }
}

/// Looks up (or elaborates) the problem for `source`, LRU-bounded by
/// [`crate::ServerConfig::max_cached_sources`].  Sharing the elaborated
/// `Problem` is what lets repeat submissions share the engine's warm
/// caches: the engine keys cache entries by problem identity, so a fresh
/// elaboration per submit would always run cold.
fn cached_problem(shared: &Shared, source: &str) -> Result<Arc<Problem>, String> {
    {
        let mut cache = lock(&shared.problems);
        if let Some(pos) = cache.iter().position(|(s, _)| s == source) {
            let entry = cache.remove(pos);
            let problem = Arc::clone(&entry.1);
            cache.push(entry);
            return Ok(problem);
        }
    }
    // Elaborate outside the lock: it can be slow, and sibling workers must
    // not stall behind it.
    let problem = Arc::new(Problem::from_source(source).map_err(|e| e.to_string())?);
    let mut cache = lock(&shared.problems);
    if let Some(pos) = cache.iter().position(|(s, _)| s == source) {
        // A sibling elaborated the same source concurrently; share theirs,
        // since two elaborations never share engine-side warmth.
        return Ok(Arc::clone(&cache[pos].1));
    }
    cache.push((source.to_string(), Arc::clone(&problem)));
    while cache.len() > shared.config.max_cached_sources {
        cache.remove(0);
    }
    Ok(problem)
}

/// The watchdog, the disconnect-grace enforcer, the retention reaper, and
/// the rate-limiter pruner, in one periodic sweep.
fn reaper_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        thread::sleep(POLL_INTERVAL);
        let tunables = shared.tunables.get();
        let report = shared.registry.reap(
            Instant::now(),
            tunables.watchdog_grace,
            tunables.disconnect_grace,
            shared.config.result_retention,
        );
        for _ in 0..report.watchdog_cancels {
            bump(&shared.stats.watchdog_cancels);
        }
        for _ in 0..report.grace_cancels {
            bump(&shared.stats.grace_cancels);
        }
        shared
            .limiter
            .prune(tunables.rate_per_sec, tunables.rate_burst, Instant::now());
    }
}

/// The drain sequence; returns how many warm-start snapshots were written.
fn drain(shared: &Shared) -> std::io::Result<usize> {
    shared.admission.begin_drain();
    if !shared.admission.wait_idle(shared.config.drain_timeout) {
        // Patience exhausted.  Queued jobs never started: answer them
        // `cancelled` directly (journaled, like every terminal frame).
        for (_client, job) in shared.admission.drain_queue() {
            job.entry.cancel_token().cancel();
            let result = RunResult::new(Outcome::Cancelled, RunStats::default());
            bump(&shared.stats.runs_completed);
            bump(&shared.stats.runs_cancelled);
            let queue_ms = job.submitted_at.elapsed().as_millis() as u64;
            let id = job.entry.id().to_string();
            job.entry.finish(Instant::now(), |seq| {
                protocol::result_frame(&id, seq, &result, queue_ms, 0)
            });
            shared.registry.release_id(&job.entry);
        }
        // Running jobs get cancelled and a second patience window to unwind
        // through their cancellation points.
        shared.registry.cancel_all();
        shared.admission.wait_idle(shared.config.drain_timeout);
    }
    // Checkpoint warm state while the engine is quiescent.
    let written = shared.engine.save_state_to_warm_dir();
    if let Ok(count) = written {
        for _ in 0..count {
            bump(&shared.stats.drain_snapshots);
        }
    }
    // Release every thread: workers, reaper, connection loops.
    shared.shutdown.store(true, Ordering::Relaxed);
    shared.admission.shutdown();
    {
        let mut drained = lock(&shared.drained);
        *drained = Some(*written.as_ref().unwrap_or(&0));
        shared.drained_cv.notify_all();
    }
    written
}

/// Renders a panic payload as text.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
