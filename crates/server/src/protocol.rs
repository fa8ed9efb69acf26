//! The wire protocol: newline-delimited JSON frames.
//!
//! Every frame is one line: a JSON object, no embedded newlines, terminated
//! by `\n`.  Client → server frames carry an `"op"`; server → client frames
//! carry a `"reply"`.  The protocol is deliberately boring — its interesting
//! property is that *no* input, however malformed, produces anything but a
//! structured `error` reply (or a closed connection for transport-level
//! defects): parsing failures never panic and never desynchronize the frame
//! stream.
//!
//! # Requests
//!
//! | op       | fields                                                  |
//! |----------|---------------------------------------------------------|
//! | `submit` | `id`, `source`, `options?`, `events?`, `chaos?`         |
//! | `cancel` | `id`                                                    |
//! | `resume` | `token`, `last_seq?`                                    |
//! | `stats`  | —                                                       |
//! | `ping`   | —                                                       |
//! | `drain`  | —                                                       |
//! | `reload` | —                                                       |
//!
//! `options` is an object of per-run overrides: `quick` (bool, default
//! `true`), `mode` (a [`Mode`] label), `synth` (a [`SynthChoice`] label),
//! `timeout_ms`, `max_iterations`.  `chaos` is a fault-injection directive
//! (see [`ChaosDirective`]) honoured only when the server runs with chaos
//! enabled.  `resume` re-attaches to a run by the server-issued token from
//! its `accepted` frame; `last_seq` (default 0) is the highest `seq` the
//! client already received, and the server replays everything after it.
//! `reload` re-reads the server's config file and hot-swaps the tunables.
//!
//! The `*_request` functions below build these frames and are the single
//! source of truth for the request shapes every client sends
//! ([`crate::client`], `hanoi_stress`, the tests); [`parse_request`] is
//! their inverse.  Only frames that are malformed on purpose, and the
//! `options` object, are written by hand.
//!
//! # Replies
//!
//! `accepted` (with the run `token`), `shed` (with `retry_after_ms`),
//! `event` and `result` (each carrying the run's `seq`), `gap` (journaled
//! frames evicted before replay), `resumed`, `reloaded`, `error`, `pong`,
//! `stats`, `draining`, `cancelled` — built by the `*_frame` functions
//! below, which are the single source of truth for the reply shapes.

use std::time::Duration;

use hanoi::{Mode, Outcome, RunEvent, RunOptions, RunResult, SynthChoice};
use hanoi_lang::json::Json;

/// Protocol revision, reported in `stats` replies.  Version 2 added run
/// tokens, sequence-numbered streams, `resume`, and `reload`.
pub const PROTOCOL_VERSION: u64 = 2;

/// A structured protocol failure, reported to the client as an `error`
/// frame instead of ever tearing down the connection or the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable machine-readable code (`parse`, `bad-request`, `oversized`,
    /// `encoding`, `bad-problem`, `panic`, `chaos-disabled`, `busy`,
    /// `unknown-token`, `reload-unavailable`, `reload-failed`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// Creates an error.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtocolError {
            code,
            message: message.into(),
        }
    }
}

/// One parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit an inference run.  Boxed: the payload (source text plus
    /// options) dwarfs every other variant.
    Submit(Box<SubmitRequest>),
    /// Cancel an in-flight run of this connection.
    Cancel {
        /// The run id given at submit time.
        id: String,
    },
    /// Re-attach to a (possibly still running) run by its server-issued
    /// token, replaying the stream after `last_seq`.
    Resume {
        /// The token from the run's `accepted` frame.
        token: String,
        /// The highest `seq` the client already received (0 = replay all).
        last_seq: u64,
    },
    /// Report server statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Start a graceful drain of the whole server.
    Drain,
    /// Re-read the server's config file and hot-swap the tunables.
    Reload,
}

/// A `submit` request: one inference run.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Client-chosen run id, unique among this connection's in-flight runs.
    pub id: String,
    /// The problem source text.
    pub source: String,
    /// Per-run options (already validated).
    pub options: RunOptions,
    /// Stream [`RunEvent`]s to the client as `event` frames.
    pub events: bool,
    /// Fault injection (test harness only).
    pub chaos: Option<ChaosDirective>,
}

/// A fault-injection directive, honoured only when the server was started
/// with chaos enabled ([`crate::ServerConfig::enable_chaos`]).  Directives
/// fire on the *worker* thread, before the run proper — they simulate
/// defects in the service layer itself, the kind panic isolation exists
/// for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosDirective {
    /// Panic on the worker thread.
    Panic,
    /// Sleep this many milliseconds (occupies a worker; exercises the
    /// watchdog and the shedding path).
    Sleep(u64),
}

/// Why a submit was shed instead of queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was at capacity.
    QueueFull,
    /// The client exceeded its in-flight quota.
    ClientQuota,
    /// The client exceeded its submit rate (token bucket empty).
    RateLimited,
    /// The server is draining and admits no new work.
    Draining,
}

impl ShedReason {
    /// The wire label.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::ClientQuota => "client-quota",
            ShedReason::RateLimited => "rate-limited",
            ShedReason::Draining => "draining",
        }
    }
}

/// The `id` field of a frame, when present — used to tag error replies for
/// requests that failed before full parsing.
pub fn request_id(json: &Json) -> Option<&str> {
    json.get("id").and_then(Json::as_str)
}

/// Parses one client frame into a [`Request`].
pub fn parse_request(json: &Json) -> Result<Request, ProtocolError> {
    let bad = |message: String| ProtocolError::new("bad-request", message);
    if !matches!(json, Json::Obj(_)) {
        return Err(bad("a frame must be a JSON object".to_string()));
    }
    let op = json
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field `op`".to_string()))?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        "reload" => Ok(Request::Reload),
        "resume" => {
            let token = json
                .get("token")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("`resume` requires a string `token`".to_string()))?;
            if token.is_empty() {
                return Err(bad("`token` must be non-empty".to_string()));
            }
            let last_seq = match json.get("last_seq") {
                None | Some(Json::Null) => 0,
                Some(v) => v
                    .as_usize()
                    .ok_or_else(|| bad("`last_seq` must be a non-negative integer".to_string()))?
                    as u64,
            };
            Ok(Request::Resume {
                token: token.to_string(),
                last_seq,
            })
        }
        "cancel" => {
            let id = json
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("`cancel` requires a string `id`".to_string()))?;
            Ok(Request::Cancel { id: id.to_string() })
        }
        "submit" => parse_submit(json).map(|submit| Request::Submit(Box::new(submit))),
        other => Err(bad(format!("unknown op `{other}`"))),
    }
}

fn parse_submit(json: &Json) -> Result<SubmitRequest, ProtocolError> {
    let bad = |message: String| ProtocolError::new("bad-request", message);
    let id = json
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("`submit` requires a string `id`".to_string()))?;
    if id.is_empty() {
        return Err(bad("`id` must be non-empty".to_string()));
    }
    let source = json
        .get("source")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("`submit` requires a string `source`".to_string()))?;
    let events = json.get("events").and_then(Json::as_bool).unwrap_or(false);
    let options = parse_options(json.get("options"))?;
    let chaos = match json.get("chaos") {
        None | Some(Json::Null) => None,
        Some(directive) => Some(parse_chaos(directive)?),
    };
    Ok(SubmitRequest {
        id: id.to_string(),
        source: source.to_string(),
        options,
        events,
        chaos,
    })
}

fn parse_chaos(json: &Json) -> Result<ChaosDirective, ProtocolError> {
    let bad = |message: String| ProtocolError::new("bad-request", message);
    let kind = json
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("`chaos` requires a string `kind`".to_string()))?;
    match kind {
        "panic" => Ok(ChaosDirective::Panic),
        "sleep" => {
            let ms = json
                .get("ms")
                .and_then(Json::as_usize)
                .ok_or_else(|| bad("`chaos: sleep` requires a numeric `ms`".to_string()))?;
            Ok(ChaosDirective::Sleep(ms as u64))
        }
        other => Err(bad(format!("unknown chaos kind `{other}`"))),
    }
}

/// Inverse of [`Mode::label`].
fn mode_from_label(label: &str) -> Option<Mode> {
    Mode::all().into_iter().find(|m| m.label() == label)
}

fn parse_options(json: Option<&Json>) -> Result<RunOptions, ProtocolError> {
    let bad = |message: String| ProtocolError::new("bad-request", message);
    let Some(json) = json else {
        return Ok(RunOptions::quick());
    };
    if !matches!(json, Json::Obj(_)) {
        return Err(bad("`options` must be an object".to_string()));
    }
    let mut options = if json.get("quick").and_then(Json::as_bool) == Some(false) {
        RunOptions::paper()
    } else {
        RunOptions::quick()
    };
    if let Some(label) = json.get("mode").and_then(Json::as_str) {
        options.mode =
            mode_from_label(label).ok_or_else(|| bad(format!("unknown mode `{label}`")))?;
    }
    if let Some(label) = json.get("synth").and_then(Json::as_str) {
        options.synthesizer = SynthChoice::from_label(label)
            .ok_or_else(|| bad(format!("unknown synthesizer `{label}`")))?;
    }
    if let Some(ms) = json.get("timeout_ms").and_then(Json::as_usize) {
        options.timeout = Some(Duration::from_millis(ms as u64));
    }
    if let Some(n) = json.get("max_iterations").and_then(Json::as_usize) {
        options.max_iterations = n;
    }
    options
        .validate()
        .map_err(|e| bad(format!("invalid options: {e}")))?;
    Ok(options)
}

// ---------------------------------------------------------------------------
// Request frames
// ---------------------------------------------------------------------------

/// Submit `source` as run `id` under the default options, streaming its
/// [`RunEvent`]s when `events` is set, with an optional fault-injection
/// directive.
pub fn submit_request(id: &str, source: &str, events: bool, chaos: Option<ChaosDirective>) -> Json {
    let mut fields = vec![
        ("op", Json::Str("submit".to_string())),
        ("id", Json::Str(id.to_string())),
        ("source", Json::Str(source.to_string())),
        ("events", Json::Bool(events)),
    ];
    if let Some(chaos) = chaos {
        let directive = match chaos {
            ChaosDirective::Panic => Json::obj([("kind", Json::Str("panic".to_string()))]),
            ChaosDirective::Sleep(ms) => Json::obj([
                ("kind", Json::Str("sleep".to_string())),
                ("ms", Json::Num(ms as f64)),
            ]),
        };
        fields.push(("chaos", directive));
    }
    Json::obj(fields)
}

/// Cancel this connection's run `id`.
pub fn cancel_request(id: &str) -> Json {
    Json::obj([
        ("op", Json::Str("cancel".to_string())),
        ("id", Json::Str(id.to_string())),
    ])
}

/// Re-attach to the run `token` names, replaying everything after
/// `last_seq`.
pub fn resume_request(token: &str, last_seq: u64) -> Json {
    Json::obj([
        ("op", Json::Str("resume".to_string())),
        ("token", Json::Str(token.to_string())),
        ("last_seq", Json::Num(last_seq as f64)),
    ])
}

/// Ask for the server's statistics.
pub fn stats_request() -> Json {
    bare_request("stats")
}

/// Liveness probe.
pub fn ping_request() -> Json {
    bare_request("ping")
}

/// Start a graceful drain of the whole server.
pub fn drain_request() -> Json {
    bare_request("drain")
}

/// Re-read the server's config file.
pub fn reload_request() -> Json {
    bare_request("reload")
}

fn bare_request(op: &str) -> Json {
    Json::obj([("op", Json::Str(op.to_string()))])
}

// ---------------------------------------------------------------------------
// Reply frames
// ---------------------------------------------------------------------------

/// A run was admitted: `queued` is the queue depth it joined at and
/// `token` is the durable handle a `resume` presents after a disconnect.
pub fn accepted_frame(id: &str, queued: usize, token: &str) -> Json {
    Json::obj([
        ("reply", Json::Str("accepted".to_string())),
        ("id", Json::Str(id.to_string())),
        ("queued", Json::Num(queued as f64)),
        ("token", Json::Str(token.to_string())),
    ])
}

/// A run was shed; the client should back off `retry_after_ms` before
/// retrying.
pub fn shed_frame(id: &str, reason: ShedReason, retry_after_ms: u64) -> Json {
    Json::obj([
        ("reply", Json::Str("shed".to_string())),
        ("id", Json::Str(id.to_string())),
        ("reason", Json::Str(reason.label().to_string())),
        ("retry_after_ms", Json::Num(retry_after_ms as f64)),
    ])
}

/// A structured error, optionally tied to a run id.
pub fn error_frame(error: &ProtocolError, id: Option<&str>) -> Json {
    Json::obj([
        ("reply", Json::Str("error".to_string())),
        ("code", Json::Str(error.code.to_string())),
        ("message", Json::Str(error.message.clone())),
        (
            "id",
            match id {
                Some(id) => Json::Str(id.to_string()),
                None => Json::Null,
            },
        ),
    ])
}

/// Reply to `ping`.
pub fn pong_frame() -> Json {
    Json::obj([("reply", Json::Str("pong".to_string()))])
}

/// Reply to `stats`: server counters plus live queue/engine gauges, the
/// currently published tunables, and the tracked-run gauge.
pub fn stats_frame(
    server: Json,
    cached_problems: usize,
    queued: usize,
    active: usize,
    draining: bool,
    tunables: Json,
    tracked_runs: usize,
) -> Json {
    Json::obj([
        ("reply", Json::Str("stats".to_string())),
        ("protocol_version", Json::Num(PROTOCOL_VERSION as f64)),
        ("server", server),
        ("cached_problems", Json::Num(cached_problems as f64)),
        ("queued", Json::Num(queued as f64)),
        ("active", Json::Num(active as f64)),
        ("draining", Json::Bool(draining)),
        ("tunables", tunables),
        ("tracked_runs", Json::Num(tracked_runs as f64)),
    ])
}

/// Acknowledges a `drain` request.
pub fn draining_frame() -> Json {
    Json::obj([("reply", Json::Str("draining".to_string()))])
}

/// Reply to `cancel`: whether a matching in-flight run existed.
pub fn cancelled_frame(id: &str, found: bool) -> Json {
    Json::obj([
        ("reply", Json::Str("cancelled".to_string())),
        ("id", Json::Str(id.to_string())),
        ("found", Json::Bool(found)),
    ])
}

/// Acknowledges a successful `resume`, ahead of the replayed frames' gap
/// marker (if any) and the replay itself.  `finished` tells the client
/// whether a terminal `result`/`error` is part of the replay (nothing
/// further will stream after it).
pub fn resumed_frame(id: &str, token: &str, replayed: usize, finished: bool) -> Json {
    Json::obj([
        ("reply", Json::Str("resumed".to_string())),
        ("id", Json::Str(id.to_string())),
        ("token", Json::Str(token.to_string())),
        ("replayed", Json::Num(replayed as f64)),
        ("finished", Json::Bool(finished)),
    ])
}

/// Journaled frames `from..=to` were evicted from the replay buffer before
/// this resume: the client's stream has a hole it can see, not a silent one.
pub fn gap_frame(id: &str, from: u64, to: u64) -> Json {
    Json::obj([
        ("reply", Json::Str("gap".to_string())),
        ("id", Json::Str(id.to_string())),
        ("from", Json::Num(from as f64)),
        ("to", Json::Num(to as f64)),
    ])
}

/// Stamps an already-built reply frame with a sequence number — used for
/// journaled terminal `error` frames (`bad-problem`, `panic`), which close
/// a run's stream just like a `result` does.
pub fn sequenced(frame: Json, seq: u64) -> Json {
    match frame {
        Json::Obj(mut map) => {
            map.insert("seq".to_string(), Json::Num(seq as f64));
            Json::Obj(map)
        }
        other => other,
    }
}

/// Acknowledges a `reload`: the tunable set now in force.
pub fn reloaded_frame(tunables: Json) -> Json {
    Json::obj([
        ("reply", Json::Str("reloaded".to_string())),
        ("tunables", tunables),
    ])
}

/// One streamed [`RunEvent`], stamped with its position in the run's
/// sequence-numbered stream.
pub fn event_frame(id: &str, seq: u64, event: &RunEvent) -> Json {
    let body = match event {
        RunEvent::RunStarted { mode, synthesizer } => Json::obj([
            ("kind", Json::Str("run-started".to_string())),
            ("mode", Json::Str(mode.label().to_string())),
            ("synthesizer", Json::Str(synthesizer.label().to_string())),
        ]),
        RunEvent::CandidateProposed {
            iteration,
            candidate,
            from_cache,
        } => Json::obj([
            ("kind", Json::Str("candidate".to_string())),
            ("iteration", Json::Num(*iteration as f64)),
            ("candidate", Json::Str(candidate.to_string())),
            ("from_cache", Json::Bool(*from_cache)),
        ]),
        RunEvent::PositivesAdded { added, total } => Json::obj([
            ("kind", Json::Str("positives".to_string())),
            ("added", Json::Num(*added as f64)),
            ("total", Json::Num(*total as f64)),
        ]),
        RunEvent::NegativesAdded { added, total } => Json::obj([
            ("kind", Json::Str("negatives".to_string())),
            ("added", Json::Num(*added as f64)),
            ("total", Json::Num(*total as f64)),
        ]),
        RunEvent::PhaseFinished { phase, elapsed } => Json::obj([
            ("kind", Json::Str("phase".to_string())),
            ("phase", Json::Str(phase.label().to_string())),
            ("elapsed_ms", Json::Num(elapsed.as_secs_f64() * 1000.0)),
        ]),
        RunEvent::RunFinished {
            success,
            iterations,
            total,
        } => Json::obj([
            ("kind", Json::Str("run-finished".to_string())),
            ("success", Json::Bool(*success)),
            ("iterations", Json::Num(*iterations as f64)),
            ("total_ms", Json::Num(total.as_secs_f64() * 1000.0)),
        ]),
    };
    match body {
        Json::Obj(mut map) => {
            map.insert("reply".to_string(), Json::Str("event".to_string()));
            map.insert("id".to_string(), Json::Str(id.to_string()));
            map.insert("seq".to_string(), Json::Num(seq as f64));
            Json::Obj(map)
        }
        other => other,
    }
}

/// The wire label of a run outcome.
pub fn status_of(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Invariant(_) => "invariant",
        Outcome::SpecViolation(_) => "spec-violation",
        Outcome::SynthesisFailure(_) => "synthesis-failure",
        Outcome::Timeout => "timeout",
        Outcome::Cancelled => "cancelled",
    }
}

/// The final answer for a run: outcome, full statistics, and the time the
/// run spent queued vs running.  The terminal frame closes the run's
/// sequence-numbered stream, so it carries a `seq` too.
pub fn result_frame(id: &str, seq: u64, result: &RunResult, queue_ms: u64, run_ms: u64) -> Json {
    let detail = match &result.outcome {
        Outcome::SynthesisFailure(message) => Json::Str(message.clone()),
        Outcome::SpecViolation(values) => Json::Str(format!(
            "specification violated by {} constructible value(s)",
            values.len()
        )),
        _ => Json::Null,
    };
    Json::obj([
        ("reply", Json::Str("result".to_string())),
        ("id", Json::Str(id.to_string())),
        ("seq", Json::Num(seq as f64)),
        ("status", Json::Str(status_of(&result.outcome).to_string())),
        (
            "invariant",
            match result.outcome.invariant() {
                Some(expr) => Json::Str(expr.to_string()),
                None => Json::Null,
            },
        ),
        ("detail", detail),
        ("stats", result.stats.to_json()),
        ("queue_ms", Json::Num(queue_ms as f64)),
        ("run_ms", Json::Num(run_ms as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::json::parse;

    #[test]
    fn requests_parse() {
        let frame = parse(
            r#"{"op":"submit","id":"r1","source":"src","events":true,
                "options":{"mode":"OneShot","synth":"fold","timeout_ms":500,"max_iterations":7}}"#,
        )
        .unwrap();
        match parse_request(&frame).unwrap() {
            Request::Submit(submit) => {
                assert_eq!(submit.id, "r1");
                assert_eq!(submit.source, "src");
                assert!(submit.events);
                assert!(submit.chaos.is_none());
                assert_eq!(submit.options.mode, Mode::OneShot);
                assert_eq!(submit.options.synthesizer, SynthChoice::Fold);
                assert_eq!(submit.options.timeout, Some(Duration::from_millis(500)));
                assert_eq!(submit.options.max_iterations, 7);
            }
            other => panic!("expected submit, got {other:?}"),
        }
        assert!(matches!(
            parse_request(&parse(r#"{"op":"ping"}"#).unwrap()),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request(&parse(r#"{"op":"cancel","id":"x"}"#).unwrap()),
            Ok(Request::Cancel { .. })
        ));
        assert!(matches!(
            parse_request(&parse(r#"{"op":"reload"}"#).unwrap()),
            Ok(Request::Reload)
        ));
        match parse_request(&parse(r#"{"op":"resume","token":"run-1-aa","last_seq":17}"#).unwrap())
            .unwrap()
        {
            Request::Resume { token, last_seq } => {
                assert_eq!(token, "run-1-aa");
                assert_eq!(last_seq, 17);
            }
            other => panic!("expected resume, got {other:?}"),
        }
        match parse_request(&parse(r#"{"op":"resume","token":"t"}"#).unwrap()).unwrap() {
            Request::Resume { last_seq, .. } => assert_eq!(last_seq, 0),
            other => panic!("expected resume, got {other:?}"),
        }
    }

    #[test]
    fn chaos_directives_parse() {
        let frame =
            parse(r#"{"op":"submit","id":"c","source":"s","chaos":{"kind":"sleep","ms":40}}"#)
                .unwrap();
        match parse_request(&frame).unwrap() {
            Request::Submit(submit) => {
                assert_eq!(submit.chaos, Some(ChaosDirective::Sleep(40)))
            }
            other => panic!("expected submit, got {other:?}"),
        }
        let frame =
            parse(r#"{"op":"submit","id":"c","source":"s","chaos":{"kind":"panic"}}"#).unwrap();
        match parse_request(&frame).unwrap() {
            Request::Submit(submit) => assert_eq!(submit.chaos, Some(ChaosDirective::Panic)),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn request_builders_round_trip_through_the_parser() {
        // Through the wire text, as a client sends them.
        let parsed = |frame: Json| parse_request(&parse(&frame.render()).unwrap()).unwrap();
        for (events, chaos) in [
            (false, None),
            (true, Some(ChaosDirective::Sleep(40))),
            (false, Some(ChaosDirective::Panic)),
        ] {
            match parsed(submit_request("r1", "src", events, chaos)) {
                Request::Submit(submit) => {
                    assert_eq!(submit.id, "r1");
                    assert_eq!(submit.source, "src");
                    assert_eq!(submit.events, events);
                    assert_eq!(submit.chaos, chaos);
                }
                other => panic!("expected submit, got {other:?}"),
            }
        }
        match parsed(cancel_request("r1")) {
            Request::Cancel { id } => assert_eq!(id, "r1"),
            other => panic!("expected cancel, got {other:?}"),
        }
        match parsed(resume_request("run-1-aa", 17)) {
            Request::Resume { token, last_seq } => {
                assert_eq!(token, "run-1-aa");
                assert_eq!(last_seq, 17);
            }
            other => panic!("expected resume, got {other:?}"),
        }
        assert!(matches!(parsed(stats_request()), Request::Stats));
        assert!(matches!(parsed(ping_request()), Request::Ping));
        assert!(matches!(parsed(drain_request()), Request::Drain));
        assert!(matches!(parsed(reload_request()), Request::Reload));
    }

    #[test]
    fn malformed_requests_become_structured_errors() {
        for (frame, needle) in [
            (r#"[1,2,3]"#, "object"),
            (r#"{"noop":1}"#, "op"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"cancel"}"#, "id"),
            (r#"{"op":"submit","id":"r"}"#, "source"),
            (r#"{"op":"submit","id":"","source":"s"}"#, "non-empty"),
            (
                r#"{"op":"submit","id":"r","source":"s","options":{"mode":"Bogus"}}"#,
                "unknown mode",
            ),
            (
                r#"{"op":"submit","id":"r","source":"s","options":{"max_iterations":0}}"#,
                "max_iterations",
            ),
            (
                r#"{"op":"submit","id":"r","source":"s","chaos":{"kind":"explode"}}"#,
                "chaos",
            ),
            (r#"{"op":"resume"}"#, "token"),
            (r#"{"op":"resume","token":""}"#, "non-empty"),
            (r#"{"op":"resume","token":"t","last_seq":-4}"#, "last_seq"),
        ] {
            let json = parse(frame).unwrap();
            let error = parse_request(&json).expect_err(frame);
            assert_eq!(error.code, "bad-request", "{frame}");
            assert!(error.message.contains(needle), "{frame}: {}", error.message);
        }
    }

    #[test]
    fn reply_frames_have_the_documented_shape() {
        let shed = shed_frame("r9", ShedReason::QueueFull, 250);
        assert_eq!(shed.get("reply").unwrap().as_str(), Some("shed"));
        assert_eq!(shed.get("reason").unwrap().as_str(), Some("queue-full"));
        assert_eq!(shed.get("retry_after_ms").unwrap().as_usize(), Some(250));

        let err = error_frame(&ProtocolError::new("parse", "boom"), None);
        assert_eq!(err.get("code").unwrap().as_str(), Some("parse"));
        assert!(matches!(err.get("id"), Some(Json::Null)));

        let event = event_frame(
            "r1",
            7,
            &RunEvent::PhaseFinished {
                phase: hanoi::RunPhase::Synthesis,
                elapsed: Duration::from_millis(3),
            },
        );
        assert_eq!(event.get("reply").unwrap().as_str(), Some("event"));
        assert_eq!(event.get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(event.get("kind").unwrap().as_str(), Some("phase"));
        assert_eq!(event.get("seq").unwrap().as_usize(), Some(7));

        let result = result_frame(
            "r1",
            8,
            &RunResult::new(Outcome::Cancelled, hanoi::RunStats::default()),
            12,
            34,
        );
        assert_eq!(result.get("status").unwrap().as_str(), Some("cancelled"));
        assert_eq!(result.get("queue_ms").unwrap().as_usize(), Some(12));
        assert_eq!(result.get("seq").unwrap().as_usize(), Some(8));
        assert!(result.get("stats").is_some());

        let accepted = accepted_frame("r1", 2, "run-1-feed");
        assert_eq!(accepted.get("token").unwrap().as_str(), Some("run-1-feed"));

        let resumed = resumed_frame("r1", "run-1-feed", 5, true);
        assert_eq!(resumed.get("reply").unwrap().as_str(), Some("resumed"));
        assert_eq!(resumed.get("replayed").unwrap().as_usize(), Some(5));
        assert_eq!(resumed.get("finished").unwrap().as_bool(), Some(true));

        let gap = gap_frame("r1", 3, 9);
        assert_eq!(gap.get("reply").unwrap().as_str(), Some("gap"));
        assert_eq!(gap.get("from").unwrap().as_usize(), Some(3));
        assert_eq!(gap.get("to").unwrap().as_usize(), Some(9));

        assert_eq!(ShedReason::RateLimited.label(), "rate-limited");
    }
}
