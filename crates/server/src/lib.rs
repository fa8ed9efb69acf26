//! A fault-tolerant TCP front end for the hanoi inference engine.
//!
//! The engine ([`hanoi::Engine`]) is a long-lived in-process service; this
//! crate puts a network boundary in front of it without giving up the
//! robustness properties a shared service needs:
//!
//! * **Bounded admission & load shedding** ([`admission`]) — a strictly
//!   bounded queue with per-client fairness; overload produces immediate
//!   structured `shed` replies with jittered `retry_after_ms` backoff
//!   hints, never unbounded latency.
//! * **Time-based rate limiting** ([`ratelimit`]) — per-client-address
//!   token buckets in front of the admission queue bound the *rate* of
//!   submits (the quota only bounds concurrency); sheds carry an honest
//!   retry hint derived from the bucket's actual deficit.
//! * **Durable runs** ([`registry`], [`replay`]) — a run's lifetime is
//!   decoupled from its connection's: every accepted submit gets a run
//!   token, every reply frame is sequence-numbered and journaled in a
//!   bounded replay buffer, a disconnect merely detaches the run, and the
//!   `resume` op re-attaches by token, replaying whatever was missed.
//!   Detached runs nobody reclaims are cancelled after a grace period.
//! * **Panic isolation** ([`server`]) — every run executes behind
//!   `catch_unwind` (and [`hanoi::Session::run_caught`], which additionally
//!   evicts a possibly-poisoned cache entry): one defective run answers one
//!   client with a structured `panic` error and cannot take down the
//!   process or other problems' warm caches.
//! * **Deadlines & watchdog** — client timeouts are clamped to a hard
//!   per-run ceiling and a reaper thread force-cancels anything that
//!   outlives it, so a wedged run cannot occupy a worker forever.
//! * **Hot config reload** ([`config`]) — the operational tunables (queue
//!   depth, quotas, rate limits, watchdog clamps, grace deadlines) live in
//!   an atomically swappable set; SIGHUP or the `reload` op re-reads the
//!   config file and publishes a new set without dropping in-flight runs.
//! * **Graceful drain** — on the `drain` op (or
//!   [`ServerHandle::drain`], typically wired to SIGTERM): stop admitting,
//!   finish or cancel in-flight runs, checkpoint the engine's warm-start
//!   snapshots to disk, then exit.  A restarted server boots warm.
//! * **Hostile-input tolerance** ([`protocol`]) — newline-delimited JSON
//!   with per-frame byte and nesting limits; malformed, truncated,
//!   non-UTF-8 and oversized input produce structured `error` replies on a
//!   still-synchronized stream.
//!
//! Two binaries accompany the library: `hanoi_serve` (the production
//! entry point, with signal-driven drain and SIGHUP reload) and
//! `hanoi_stress` (a stress/chaos harness that hammers a server with
//! concurrent clients, forced disconnects, and fault injection, verifying
//! answers against direct engine runs).  The harness and the tests talk to
//! the server through [`client`], the one protocol client; the harness
//! reports round-trip percentiles through [`latency`].

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod config;
pub mod latency;
pub mod protocol;
pub mod ratelimit;
pub mod registry;
pub mod replay;
pub mod server;
pub mod stats;

pub use config::{HotTunables, ServerConfig, Tunables};
pub use server::{Server, ServerHandle};
pub use stats::ServerStats;
