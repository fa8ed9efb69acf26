//! Stress and chaos harness for `hanoi-server`.
//!
//! ```text
//! hanoi_stress (--spawn | --addr HOST:PORT) [--mode stress|chaos|both]
//!              [--clients N] [--storm-clients N] [--requests N]
//!              [--out REPORT.json]
//! ```
//!
//! `--clients` (default 100) clients send `--requests` (default 3) runs
//! each; `--storm-clients` (default 50) clients take part in the reconnect
//! storm.  `--mode` (default `both`) picks the stress phases, the chaos
//! phases or both.  Against `--addr` the phases that need the in-process
//! server (overload, reload, oversized and slow-loris frames, drain) are
//! skipped.
//!
//! With `--spawn` the harness runs a chaos-enabled server in-process
//! (including a deliberately corrupted warm-start directory at boot, to
//! exercise snapshot quarantine) and asserts the full robustness contract:
//!
//! * **stress** — many concurrent clients hammer the server with
//!   inference runs, honouring `retry_after_ms` backoff when shed;
//!   round-trip latency lands in a p50/p95/p99 histogram.  An overload
//!   burst at 2× the admission budget must produce `shed` replies carrying
//!   `retry_after_ms`.
//! * **chaos** — malformed / truncated / oversized / non-UTF-8 / over-deep
//!   frames, mid-frame disconnects, slow-loris writers, cancel storms and
//!   injected worker panics, interleaved with well-formed requests that
//!   must keep working; completed answers are verified against direct
//!   [`Engine`] runs.
//! * **resume equivalence** — for several benchmark problems, a run whose
//!   client is forcibly disconnected at assorted stream offsets and
//!   resumed by token must produce the identical result over a contiguous,
//!   gap-free sequence-numbered stream — indistinguishable from an
//!   uninterrupted run.
//! * **reconnect storm** — ≥50 concurrent clients each rip their socket
//!   out mid-stream at a client-specific offset, reconnect, resume, and
//!   verify the merged stream; end-to-end latency (including the
//!   disconnect) lands in its own histogram.
//! * **reload** — a SIGHUP raised mid-stress re-reads the config file and
//!   turns on a token-bucket rate limit; the new limit must shed an
//!   immediate volley with `rate-limited` hints while a run in flight
//!   across the swap completes untouched.
//! * **drain** — a protocol-level `drain` must checkpoint warm-start
//!   snapshots, and a fresh engine booted from them must report
//!   `warm_start_loads > 0`.
//!
//! Any violated expectation is reported on stderr and the process exits
//! with status 1.  The JSON report goes to stdout and, with `--out`, to the
//! given file (overwritten).  A bad command line (an unknown flag, a
//! missing or unparsable value, an unknown mode, or not exactly one of
//! `--spawn` and `--addr`) is reported on stderr with the accepted flags,
//! and the process exits with status 2 before it connects anywhere.

use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hanoi::{Engine, EngineConfig, RunOptions};
use hanoi_abstraction::Problem;
use hanoi_bench::latency::LatencyHistogram;
use hanoi_lang::json::Json;
use hanoi_server::client::{check_contiguous, run_interrupted, run_uninterrupted, Client};
use hanoi_server::protocol::{
    cancel_request, drain_request, ping_request, resume_request, submit_request,
    ChaosDirective::{Panic, Sleep},
};
use hanoi_server::{Server, ServerConfig, ServerHandle};

/// Flipped by the SIGHUP handler; the reload phase polls it to prove the
/// signal actually arrived before running the reload.
static HUP: AtomicBool = AtomicBool::new(false);

const SIGHUP: i32 = 1;

extern "C" {
    /// libc `signal(2)`/`raise(3)` — raw FFI, as the container ships no
    /// signal crate.
    fn signal(signum: i32, handler: usize) -> usize;
    fn raise(signum: i32) -> i32;
}

extern "C" fn on_hup(_signum: i32) {
    HUP.store(true, Ordering::Relaxed);
}

/// A named chaos scenario: a closure probing one failure mode of the server.
type Scenario<'a> = Box<dyn Fn() -> Result<(), String> + 'a>;

/// A problem cheap enough to run hundreds of times under stress.
const TRIVIAL: &str = r#"
    type nat = O | S of nat
    interface I = sig
      type t
      val make : t
    end
    module M : I = struct
      type t = nat
      let make : t = O
    end
    spec (s : t) = s == s
"#;

/// A problem with a real (non-trivial) invariant, for answer verification.
const LIST_SET: &str = r#"
    type nat = O | S of nat
    type list = Nil | Cons of nat * list

    interface SET = sig
      type t
      val empty : t
      val insert : t -> nat -> t
      val delete : t -> nat -> t
      val lookup : t -> nat -> bool
    end

    module ListSet : SET = struct
      type t = list
      let empty : t = Nil
      let rec lookup (l : t) (x : nat) : bool =
        match l with
        | Nil -> False
        | Cons (hd, tl) -> hd == x || lookup tl x
        end
      let insert (l : t) (x : nat) : t =
        if lookup l x then l else Cons (x, l)
      let rec delete (l : t) (x : nat) : t =
        match l with
        | Nil -> Nil
        | Cons (hd, tl) -> if hd == x then tl else Cons (hd, delete tl x)
        end
    end

    spec (s : t) (i : nat) =
      not (lookup empty i) && lookup (insert s i) i && not (lookup (delete s i) i)
"#;

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Report {
    latency: LatencyHistogram,
    accepted: u64,
    shed: u64,
    overload_submitted: u64,
    overload_accepted: u64,
    overload_shed: u64,
    chaos_scenarios: u64,
    violations: Vec<String>,
    drain_snapshots: Option<usize>,
    restart_warm_loads: Option<u64>,
    /// Benchmark problems proven disconnect/resume-equivalent.
    equivalence_sources: u64,
    /// Reconnect storm: clients, successful resumes, forced disconnects,
    /// and end-to-end latency across the disconnect.
    storm_clients: u64,
    storm_resumed: u64,
    storm_disconnects: u64,
    storm_latency: LatencyHistogram,
    /// Reload phase: config reloads applied and rate-limit sheds observed.
    reloads_applied: u64,
    rate_limited_sheds: u64,
}

impl Report {
    fn violation(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("VIOLATION: {message}");
        self.violations.push(message);
    }

    fn summary(&mut self, clients: usize, requests: usize) -> Json {
        Json::obj([
            ("clients", Json::Num(clients as f64)),
            ("requests_per_client", Json::Num(requests as f64)),
            ("latency", self.latency.summary()),
            ("accepted", Json::Num(self.accepted as f64)),
            ("shed", Json::Num(self.shed as f64)),
            (
                "overload",
                Json::obj([
                    ("submitted", Json::Num(self.overload_submitted as f64)),
                    ("accepted", Json::Num(self.overload_accepted as f64)),
                    ("shed", Json::Num(self.overload_shed as f64)),
                ]),
            ),
            ("chaos_scenarios", Json::Num(self.chaos_scenarios as f64)),
            (
                "resume_equivalence",
                Json::obj([("sources", Json::Num(self.equivalence_sources as f64))]),
            ),
            (
                "resume_storm",
                Json::obj([
                    ("clients", Json::Num(self.storm_clients as f64)),
                    ("resumed", Json::Num(self.storm_resumed as f64)),
                    (
                        "forced_disconnects",
                        Json::Num(self.storm_disconnects as f64),
                    ),
                    ("latency", self.storm_latency.summary()),
                ]),
            ),
            (
                "reload",
                Json::obj([
                    ("reloads_applied", Json::Num(self.reloads_applied as f64)),
                    (
                        "rate_limited_sheds",
                        Json::Num(self.rate_limited_sheds as f64),
                    ),
                ]),
            ),
            ("violations", Json::Num(self.violations.len() as f64)),
            (
                "drain_snapshots",
                match self.drain_snapshots {
                    Some(n) => Json::Num(n as f64),
                    None => Json::Null,
                },
            ),
            (
                "restart_warm_loads",
                match self.restart_warm_loads {
                    Some(n) => Json::Num(n as f64),
                    None => Json::Null,
                },
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// Stress phase
// ---------------------------------------------------------------------------

/// One client worker: `requests` sequential submits, honouring shed
/// backoff.  Returns `(latencies, accepted, shed, violations)`.
fn stress_client(
    addr: &str,
    who: usize,
    requests: usize,
) -> (Vec<Duration>, u64, u64, Vec<String>) {
    let mut latencies = Vec::new();
    let mut accepted = 0u64;
    let mut shed = 0u64;
    let mut violations = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => return (latencies, 0, 0, vec![format!("client {who}: connect: {e}")]),
    };
    for request in 0..requests {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > 200 {
                violations.push(format!("client {who}: request {request} never accepted"));
                break;
            }
            let id = format!("c{who}-r{request}-a{attempts}");
            let started = Instant::now();
            if let Err(e) = client.send(&submit_request(&id, TRIVIAL, false, None)) {
                violations.push(format!("client {who}: send: {e}"));
                return (latencies, accepted, shed, violations);
            }
            let answer = match client.wait_answer(&id) {
                Ok(answer) => answer,
                Err(e) => {
                    violations.push(format!("client {who}: read: {e}"));
                    return (latencies, accepted, shed, violations);
                }
            };
            match answer.get("reply").and_then(Json::as_str) {
                Some("shed") => {
                    shed += 1;
                    let backoff = answer
                        .get("retry_after_ms")
                        .and_then(Json::as_usize)
                        .unwrap_or(0);
                    if backoff == 0 {
                        violations.push(format!("client {who}: shed without retry_after_ms hint"));
                    }
                    std::thread::sleep(Duration::from_millis((backoff as u64).clamp(1, 500)));
                }
                Some("result") => {
                    accepted += 1;
                    latencies.push(started.elapsed());
                    let status = answer.get("status").and_then(Json::as_str).unwrap_or("");
                    if status != "invariant" {
                        violations.push(format!(
                            "client {who}: trivial run ended `{status}`, expected an invariant"
                        ));
                    }
                    break;
                }
                other => {
                    violations.push(format!(
                        "client {who}: unexpected answer {:?} to a well-formed submit",
                        other
                    ));
                    break;
                }
            }
        }
    }
    (latencies, accepted, shed, violations)
}

fn stress_phase(addr: &str, clients: usize, requests: usize, report: &Mutex<Report>) {
    let results: Vec<(Vec<Duration>, u64, u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|who| scope.spawn(move || stress_client(addr, who, requests)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut report = report.lock().unwrap();
    for (latencies, accepted, shed, violations) in results {
        for sample in latencies {
            report.latency.record(sample);
        }
        report.accepted += accepted;
        report.shed += shed;
        for violation in violations {
            report.violation(violation);
        }
    }
}

/// Fires ~2× the admission budget at the server at once (sleep-chaos runs
/// keep the workers busy so the queue genuinely fills) and checks that
/// overload produces `shed` replies carrying backoff hints.
fn overload_phase(addr: &str, budget: usize, quota: usize, report: &Mutex<Report>) {
    let target = 2 * budget;
    let client_count = target.div_ceil(quota);
    let results: Vec<(u64, u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..client_count)
            .map(|who| {
                scope.spawn(move || {
                    let mut accepted_ids = Vec::new();
                    let mut accepted = 0u64;
                    let mut shed = 0u64;
                    let mut violations = Vec::new();
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => return (0, 0, vec![format!("overload {who}: connect: {e}")]),
                    };
                    // Pipeline a full quota without waiting: worst-case burst.
                    for i in 0..quota {
                        let id = format!("o{who}-{i}");
                        let frame = submit_request(&id, TRIVIAL, false, Some(Sleep(150)));
                        if let Err(e) = client.send(&frame) {
                            violations.push(format!("overload {who}: send: {e}"));
                            return (accepted, shed, violations);
                        }
                    }
                    let mut pending = 0usize;
                    for _ in 0..quota {
                        let frame = match client.read_frame() {
                            Ok(frame) => frame,
                            Err(e) => {
                                violations.push(format!("overload {who}: read: {e}"));
                                return (accepted, shed, violations);
                            }
                        };
                        match frame.get("reply").and_then(Json::as_str) {
                            Some("accepted") => {
                                accepted += 1;
                                pending += 1;
                                if let Some(id) = frame.get("id").and_then(Json::as_str) {
                                    accepted_ids.push(id.to_string());
                                }
                            }
                            Some("shed") => {
                                shed += 1;
                                if frame
                                    .get("retry_after_ms")
                                    .and_then(Json::as_usize)
                                    .unwrap_or(0)
                                    == 0
                                {
                                    violations.push(format!(
                                        "overload {who}: shed without retry_after_ms"
                                    ));
                                }
                            }
                            other => violations.push(format!(
                                "overload {who}: unexpected reply {other:?} to a burst submit"
                            )),
                        }
                    }
                    // Wait the accepted runs out so the server quiesces.
                    for id in accepted_ids.iter().take(pending) {
                        if client.wait_answer(id).is_err() {
                            violations.push(format!("overload {who}: lost the answer to {id}"));
                            break;
                        }
                    }
                    (accepted, shed, violations)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut report = report.lock().unwrap();
    for (accepted, shed, violations) in results {
        report.overload_submitted += quota as u64;
        report.overload_accepted += accepted;
        report.overload_shed += shed;
        for violation in violations {
            report.violation(violation);
        }
    }
    if report.overload_shed == 0 {
        report.violation(format!(
            "overload at 2x budget ({target} submits) produced no shed replies"
        ));
    }
}

// ---------------------------------------------------------------------------
// Durability phases: resume equivalence, reconnect storm, hot reload
// ---------------------------------------------------------------------------

/// Disconnect/resume equivalence over three benchmark problems: the merged
/// stream must carry the identical terminal answer over a contiguous
/// sequence, for cut offsets that land on different parts of each stream.
fn resume_equivalence_phase(addr: &str, report: &Mutex<Report>) {
    let third = hanoi_benchmarks::find("/other/sized-list").expect("known benchmark id");
    let sources: Vec<(&str, String)> = vec![
        ("trivial", TRIVIAL.to_string()),
        ("list-set", LIST_SET.to_string()),
        ("sized-list", third.source),
    ];
    for (round, (name, source)) in sources.iter().enumerate() {
        let outcome = (|| -> Result<(), String> {
            let baseline = run_uninterrupted(addr, &format!("eq-base-{round}"), source)?;
            let expected = check_contiguous(&baseline, name)?;
            let offsets: &[usize] = match round % 3 {
                0 => &[1, 2],
                1 => &[2, 4],
                _ => &[3],
            };
            let merged = run_interrupted(addr, &format!("eq-chop-{round}"), source, offsets, 80)?;
            let got = check_contiguous(&merged, name)?;
            for key in ["reply", "status", "invariant"] {
                if got.get(key).and_then(Json::as_str) != expected.get(key).and_then(Json::as_str) {
                    return Err(format!(
                        "interrupted run differs on `{key}`: got {}, want {}",
                        got.render(),
                        expected.render()
                    ));
                }
            }
            Ok(())
        })();
        let mut report = report.lock().unwrap();
        match outcome {
            Ok(()) => report.equivalence_sources += 1,
            Err(e) => report.violation(format!("resume-equivalence {name}: {e}")),
        }
    }
}

/// One storm client: submit (honouring shed backoff), rip the socket out
/// at a client-specific stream offset — twice for every fifth client —
/// resume, and verify the merged stream.  Returns (end-to-end latency
/// across the disconnects, forced disconnects).
fn storm_client(addr: &str, who: usize) -> Result<(Duration, usize), String> {
    let id = format!("storm-{who}");
    let sleep_ms = 30 + (who as u64 * 7) % 50;
    let started = Instant::now();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut attempts = 0;
    let token = loop {
        attempts += 1;
        if attempts > 200 {
            return Err("never admitted".to_string());
        }
        let submit = submit_request(&id, TRIVIAL, true, Some(Sleep(sleep_ms)));
        client.send(&submit).map_err(|e| format!("send: {e}"))?;
        let refusal = match client
            .wait_admission(&id)
            .map_err(|e| format!("read: {e}"))?
        {
            Ok(token) => break token,
            Err(refusal) => refusal,
        };
        if refusal.get("reply").and_then(Json::as_str) != Some("shed") {
            return Err(format!("rejected: {}", refusal.render()));
        }
        let backoff = refusal
            .get("retry_after_ms")
            .and_then(Json::as_usize)
            .unwrap_or(0) as u64;
        if backoff == 0 {
            return Err("shed without a retry_after_ms hint".to_string());
        }
        std::thread::sleep(Duration::from_millis(backoff.clamp(1, 500)));
    };
    let first_cut = 1 + who % 3;
    let offsets: Vec<usize> = if who.is_multiple_of(5) {
        vec![first_cut, 2]
    } else {
        vec![first_cut]
    };
    let mut frames = Vec::new();
    let mut last_seq = 0u64;
    let mut disconnects = 0usize;
    let mut done = false;
    for &offset in &offsets {
        if client.read_sequenced(&mut frames, &mut last_seq, Some(offset))? {
            done = true;
            break;
        }
        drop(client);
        disconnects += 1;
        std::thread::sleep(Duration::from_millis(10 + (who as u64 * 13) % 40));
        client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
        client
            .send(&resume_request(&token, last_seq))
            .map_err(|e| format!("resume: {e}"))?;
    }
    if !done {
        client.read_sequenced(&mut frames, &mut last_seq, None)?;
    }
    let terminal = check_contiguous(&frames, &id)?;
    if terminal.get("status").and_then(Json::as_str) != Some("invariant") {
        return Err(format!(
            "run across {disconnects} disconnect(s) ended wrong: {}",
            terminal.render()
        ));
    }
    Ok((started.elapsed(), disconnects))
}

/// ≥50 concurrent clients, every one forcibly disconnected mid-stream at a
/// client-specific offset and resumed by token.  Zero tolerance: every
/// merged stream must be contiguous and end in the invariant.
fn resume_storm_phase(addr: &str, clients: usize, report: &Mutex<Report>) {
    let results: Vec<Result<(Duration, usize), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|who| scope.spawn(move || storm_client(addr, who)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut report = report.lock().unwrap();
    report.storm_clients += clients as u64;
    for (who, result) in results.into_iter().enumerate() {
        match result {
            Ok((latency, disconnects)) => {
                report.storm_latency.record(latency);
                report.storm_disconnects += disconnects as u64;
                if disconnects > 0 {
                    report.storm_resumed += 1;
                }
            }
            Err(e) => report.violation(format!("storm client {who}: {e}")),
        }
    }
}

/// SIGHUP mid-stress: the config file grows a token-bucket rate limit, the
/// signal's reload swaps it in atomically, a volley runs into the bucket,
/// and a run in flight across the swap completes untouched.
fn reload_phase(
    addr: &str,
    handle: &ServerHandle,
    config_path: &std::path::Path,
    report: &Mutex<Report>,
) {
    let outcome = (|| -> Result<u64, String> {
        // A run in flight across the swap.
        let mut straddler = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        straddler
            .send(&submit_request(
                "straddler",
                TRIVIAL,
                false,
                Some(Sleep(600)),
            ))
            .map_err(|e| format!("send: {e}"))?;

        // The rate limit arrives through the config file, announced by a
        // real SIGHUP (the handler only flips a flag; the reload itself
        // runs here, exactly as hanoi_serve's watcher thread does).
        std::fs::write(config_path, r#"{"rate_per_sec": 4.0, "rate_burst": 2.0}"#)
            .map_err(|e| format!("write config: {e}"))?;
        HUP.store(false, Ordering::Relaxed);
        unsafe {
            raise(SIGHUP);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while !HUP.load(Ordering::Relaxed) {
            if Instant::now() > deadline {
                return Err("SIGHUP was never delivered".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let tunables = handle
            .reload_from_file()
            .map_err(|e| format!("reload: {}: {}", e.code, e.message))?;
        if tunables.get("rate_per_sec").and_then(Json::as_f64) != Some(4.0) {
            return Err(format!("reload did not apply: {}", tunables.render()));
        }

        // An immediate 4x-burst volley must run into the bucket.
        let mut volley = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for i in 0..8 {
            volley
                .send(&submit_request(
                    &format!("volley-{i}"),
                    TRIVIAL,
                    false,
                    None,
                ))
                .map_err(|e| format!("send: {e}"))?;
        }
        let mut sheds = 0u64;
        for i in 0..8 {
            let answer = volley
                .wait_answer(&format!("volley-{i}"))
                .map_err(|e| format!("read: {e}"))?;
            if answer.get("reply").and_then(Json::as_str) == Some("shed") {
                if answer.get("reason").and_then(Json::as_str) != Some("rate-limited") {
                    return Err(format!("wrong shed reason: {}", answer.render()));
                }
                if answer
                    .get("retry_after_ms")
                    .and_then(Json::as_usize)
                    .unwrap_or(0)
                    == 0
                {
                    return Err("rate shed without a retry hint".to_string());
                }
                sheds += 1;
            }
        }
        if sheds == 0 {
            return Err("a 4x-burst volley was never rate-limited".to_string());
        }

        // The straddler crossed the swap untouched.
        let answer = straddler
            .wait_answer("straddler")
            .map_err(|e| format!("read: {e}"))?;
        if answer.get("status").and_then(Json::as_str) != Some("invariant") {
            return Err(format!(
                "in-flight run was dropped by the reload: {}",
                answer.render()
            ));
        }
        Ok(sheds)
    })();

    // Always turn the limit back off: the phases that follow assume an
    // unthrottled server, even if this phase failed halfway.
    let _ = std::fs::write(config_path, "{}");
    let restored = handle.reload_from_file().is_ok();

    let mut report = report.lock().unwrap();
    match outcome {
        Ok(sheds) => {
            report.reloads_applied += if restored { 2 } else { 1 };
            report.rate_limited_sheds += sheds;
        }
        Err(e) => report.violation(format!("reload: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Chaos phase
// ---------------------------------------------------------------------------

/// Sends `line` raw and expects a structured error reply with `code`,
/// then proves the stream is still synchronized with a ping.
fn expect_error_then_ping(addr: &str, raw: &[u8], want_code: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client.send_raw(raw).map_err(|e| format!("send: {e}"))?;
    let frame = client.read_frame().map_err(|e| format!("read: {e}"))?;
    let reply = frame.get("reply").and_then(Json::as_str).unwrap_or("");
    let code = frame.get("code").and_then(Json::as_str).unwrap_or("");
    if reply != "error" || code != want_code {
        return Err(format!(
            "expected an `error`/`{want_code}` reply, got `{reply}`/`{code}`"
        ));
    }
    client
        .send(&ping_request())
        .map_err(|e| format!("ping send: {e}"))?;
    let pong = client.read_frame().map_err(|e| format!("pong read: {e}"))?;
    if pong.get("reply").and_then(Json::as_str) != Some("pong") {
        return Err("stream desynchronized: ping after error did not pong".to_string());
    }
    Ok(())
}

fn scenario_malformed(addr: &str) -> Result<(), String> {
    for (raw, code) in [
        (&b"this is not json\n"[..], "parse"),
        (&b"{\"op\":\n"[..], "parse"),
        (&b"[1,2,3]\n"[..], "bad-request"),
        (&b"{\"op\":\"frobnicate\"}\n"[..], "bad-request"),
        (&b"{\"op\":\"submit\",\"id\":\"x\"}\n"[..], "bad-request"),
        (&b"\xff\xfe garbage \xfa\n"[..], "encoding"),
    ] {
        expect_error_then_ping(addr, raw, code)
            .map_err(|e| format!("input {:?}: {e}", String::from_utf8_lossy(raw)))?;
    }
    // Over-deep nesting: balanced but past the server's depth limit.
    let mut deep = Vec::new();
    deep.extend(std::iter::repeat_n(b'[', 300));
    deep.extend(std::iter::repeat_n(b']', 300));
    deep.push(b'\n');
    expect_error_then_ping(addr, &deep, "parse").map_err(|e| format!("deep nesting: {e}"))
}

fn scenario_oversized(addr: &str, max_frame_bytes: usize) -> Result<(), String> {
    let mut line = vec![b'a'; max_frame_bytes + 64];
    line.push(b'\n');
    expect_error_then_ping(addr, &line, "oversized")
}

fn scenario_mid_frame_disconnect(addr: &str) -> Result<(), String> {
    {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client
            .send_raw(br#"{"op":"submit","id":"trunc","sour"#)
            .map_err(|e| format!("send: {e}"))?;
        // Connection dropped mid-frame here.
    }
    let mut probe = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
    probe
        .send(&ping_request())
        .map_err(|e| format!("ping: {e}"))?;
    let pong = probe.read_frame().map_err(|e| format!("pong: {e}"))?;
    if pong.get("reply").and_then(Json::as_str) != Some("pong") {
        return Err("server unavailable after a mid-frame disconnect".to_string());
    }
    Ok(())
}

/// Writes one byte at a time, slower than the server's frame timeout; the
/// server must cut the connection rather than hold a buffer open forever.
fn scenario_slow_loris(addr: &str, frame_timeout: Duration) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Duration::from_millis(200))
        .map_err(|e| format!("set the read timeout: {e}"))?;
    let deadline = Instant::now() + frame_timeout * 10 + Duration::from_secs(5);
    let mut cut = false;
    while Instant::now() < deadline {
        if client.send_raw(b"{").is_err() {
            cut = true; // write side failed: server closed on us
            break;
        }
        match client.read_frame() {
            Err(e) if e.kind() == ErrorKind::WouldBlock => {} // still open; keep dripping
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset
                ) =>
            {
                cut = true;
                break;
            }
            Err(e) => return Err(format!("unexpected read error: {e}")),
            Ok(frame) => {
                return Err(format!(
                    "server answered a partial frame: {}",
                    frame.render()
                ))
            }
        }
        std::thread::sleep(frame_timeout / 4);
    }
    if !cut {
        return Err("slow-loris writer was never disconnected".to_string());
    }
    // And the server still serves others.
    let mut probe = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
    probe
        .send(&ping_request())
        .map_err(|e| format!("ping: {e}"))?;
    probe.read_frame().map_err(|e| format!("pong: {e}"))?;
    Ok(())
}

fn scenario_panic_isolation(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // Warm the caches with a clean run first.
    client
        .send(&submit_request("warm", TRIVIAL, false, None))
        .map_err(|e| format!("send: {e}"))?;
    let warm = client
        .wait_answer("warm")
        .map_err(|e| format!("read: {e}"))?;
    if warm.get("status").and_then(Json::as_str) != Some("invariant") {
        return Err("warm-up run failed".to_string());
    }
    // Injected worker panic: the answer is a structured error, not a hang.
    client
        .send(&submit_request("boom", TRIVIAL, false, Some(Panic)))
        .map_err(|e| format!("send: {e}"))?;
    let boom = client
        .wait_answer("boom")
        .map_err(|e| format!("read: {e}"))?;
    if boom.get("reply").and_then(Json::as_str) != Some("error")
        || boom.get("code").and_then(Json::as_str) != Some("panic")
    {
        return Err(format!(
            "expected a `panic` error for the injected panic, got {}",
            boom.render()
        ));
    }
    // The process survived, the connection survived, and the problem's warm
    // caches survived (a worker-layer panic never touches them): the next
    // run must not rebuild the value pools.
    client
        .send(&submit_request("after", TRIVIAL, false, None))
        .map_err(|e| format!("send: {e}"))?;
    let after = client
        .wait_answer("after")
        .map_err(|e| format!("read: {e}"))?;
    if after.get("status").and_then(Json::as_str) != Some("invariant") {
        return Err("run after the panic failed".to_string());
    }
    let pool_builds = after
        .get("stats")
        .and_then(|s| s.get("pool_builds"))
        .and_then(Json::as_usize);
    if pool_builds != Some(0) {
        return Err(format!(
            "warm caches lost across the panic: pool_builds = {pool_builds:?}"
        ));
    }
    Ok(())
}

fn scenario_cancel_storm(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let ids: Vec<String> = (0..4).map(|i| format!("storm-{i}")).collect();
    for id in &ids {
        client
            .send(&submit_request(id, TRIVIAL, false, Some(Sleep(300))))
            .map_err(|e| format!("send: {e}"))?;
    }
    for id in &ids {
        client
            .send(&cancel_request(id))
            .map_err(|e| format!("cancel: {e}"))?;
    }
    // Every run must terminate with an answer: accepted ones with a result
    // (cancelled or completed — the race is fair game), shed ones with the
    // shed reply itself.
    for id in &ids {
        let answer = client.wait_answer(id).map_err(|e| format!("answer: {e}"))?;
        let reply = answer.get("reply").and_then(Json::as_str).unwrap_or("");
        if !matches!(reply, "result" | "shed") {
            return Err(format!("run {id} ended with `{reply}`"));
        }
    }
    Ok(())
}

/// Every completed server answer must match a direct engine run bit for
/// bit (same invariant text).
fn scenario_correctness(addr: &str) -> Result<(), String> {
    let engine = Engine::with_defaults();
    for (name, source) in [("trivial", TRIVIAL), ("list-set", LIST_SET)] {
        let problem = Problem::from_source(source).map_err(|e| format!("{name}: {e}"))?;
        let direct = engine.run(&problem, &RunOptions::quick());
        let expect = direct
            .outcome
            .invariant()
            .map(|e| e.to_string())
            .ok_or_else(|| format!("{name}: direct run found no invariant"))?;
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let id = format!("verify-{name}");
        client
            .send(&submit_request(&id, source, false, None))
            .map_err(|e| format!("send: {e}"))?;
        let answer = client.wait_answer(&id).map_err(|e| format!("read: {e}"))?;
        let got = answer
            .get("invariant")
            .and_then(Json::as_str)
            .unwrap_or("<none>");
        if got != expect {
            return Err(format!(
                "{name}: server answered `{got}`, direct engine run answered `{expect}`"
            ));
        }
    }
    Ok(())
}

/// The server booted from a corrupted warm-start snapshot: the first runs
/// over that problem must report it quarantined (and still succeed).
fn scenario_quarantine(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .send(&submit_request("quarantine", TRIVIAL, false, None))
        .map_err(|e| format!("send: {e}"))?;
    let answer = client
        .wait_answer("quarantine")
        .map_err(|e| format!("read: {e}"))?;
    if answer.get("status").and_then(Json::as_str) != Some("invariant") {
        return Err(format!(
            "run over the corrupted snapshot failed: {}",
            answer.render()
        ));
    }
    let quarantined = answer
        .get("stats")
        .and_then(|s| s.get("warm_start_quarantined"))
        .and_then(Json::as_usize)
        .unwrap_or(0);
    if quarantined == 0 {
        return Err("corrupted snapshot was not quarantined".to_string());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Drain + report plumbing
// ---------------------------------------------------------------------------

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hanoi-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The flags [`parse_args`] accepts, as a usage error lists them.
const ACCEPTED_FLAGS: &str = "--spawn, --addr <host:port>, --mode <stress|chaos|both>, \
    --clients <n>, --storm-clients <n>, --requests <n>, --out <file>";

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    /// The server to target; `None` spawns one in-process (`--spawn`).
    addr: Option<String>,
    /// Whether the stress phases run (`--mode stress` or `both`).
    run_stress: bool,
    /// Whether the chaos suite runs (`--mode chaos` or `both`).
    run_chaos: bool,
    clients: usize,
    storm_clients: usize,
    requests: usize,
    out: Option<String>,
}

/// Parses the command line.  An unknown flag, a flag missing its value, a
/// count that does not parse, an unknown `--mode` and anything but exactly
/// one of `--spawn` and `--addr` are errors naming the argument.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut spawn = false;
    let mut parsed = Args {
        addr: None,
        run_stress: true,
        run_chaos: true,
        clients: 100,
        storm_clients: 50,
        requests: 3,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let mut count = || {
            let raw = value()?;
            raw.parse()
                .map_err(|_| format!("{flag}: cannot parse {raw:?} as a count"))
        };
        match flag.as_str() {
            "--spawn" => spawn = true,
            "--addr" => parsed.addr = Some(value()?.clone()),
            "--mode" => {
                (parsed.run_stress, parsed.run_chaos) = match value()?.as_str() {
                    "stress" => (true, false),
                    "chaos" => (false, true),
                    "both" => (true, true),
                    other => return Err(format!("--mode: unknown mode {other:?}")),
                }
            }
            "--clients" => parsed.clients = count()?,
            "--storm-clients" => parsed.storm_clients = count()?,
            "--requests" => parsed.requests = count()?,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if spawn == parsed.addr.is_some() {
        return Err("give exactly one of --spawn and --addr".to_string());
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        addr,
        run_stress,
        run_chaos,
        clients,
        storm_clients,
        requests,
        out,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("hanoi-stress: {e}; accepted flags: {ACCEPTED_FLAGS}");
        std::process::exit(2);
    });
    let spawn = addr.is_none();

    // Quiet one-line panic log: injected chaos panics are expected noise.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("hanoi-stress: isolated panic: {info}");
    }));

    // Spawn an in-process server (chaos-enabled, small budgets so overload
    // is reachable, short frame timeout so slow-loris is testable) — or
    // target an external one.
    let workers = 2;
    let queue_depth = 8;
    let quota = 4;
    let max_frame_bytes = 32 * 1024;
    let frame_timeout = Duration::from_millis(700);
    let mut report = Mutex::new(Report::default());

    let (addr, server_ctx) = if let Some(addr) = addr {
        (addr, None)
    } else {
        let warm_dir = scratch_dir("warm");
        // Hot-reload source: a flat tunables overlay, empty at boot.
        let cfg_dir = scratch_dir("cfg");
        let tunables_path = cfg_dir.join("tunables.json");
        std::fs::write(&tunables_path, "{}").expect("seed tunables file");
        unsafe {
            signal(SIGHUP, on_hup as *const () as usize);
        }
        // Corrupt warm-start store at boot: write a real chunked snapshot
        // for the trivial problem, then garble every chunk file in place —
        // each garbled chunk fails its content-address re-hash and is
        // quarantined individually at restore.
        {
            let engine = Engine::new(EngineConfig::default().with_warm_start_dir(&warm_dir))
                .expect("engine config");
            let problem = Problem::from_source(TRIVIAL).expect("trivial problem");
            let run = engine.run(&problem, &RunOptions::quick());
            assert!(run.is_success(), "seed run failed: {}", run.outcome);
            engine
                .save_state_to_warm_dir()
                .expect("seed warm-start save");
            let mut garbled = 0;
            for entry in std::fs::read_dir(warm_dir.join("chunks")).expect("read chunks dir") {
                let path = entry.expect("dir entry").path();
                if path.extension().and_then(|e| e.to_str()) == Some("json") {
                    std::fs::write(&path, b"{ truncated garbage").expect("garble");
                    garbled += 1;
                }
            }
            assert!(garbled > 0, "no chunk to garble");
        }
        let config = ServerConfig::default()
            .with_workers(workers)
            .with_max_queue_depth(queue_depth)
            .with_per_client_quota(quota)
            .with_max_frame_bytes(max_frame_bytes)
            .with_frame_timeout(frame_timeout)
            .with_drain_timeout(Duration::from_secs(10))
            .with_watchdog(Duration::from_secs(30))
            .with_config_path(&tunables_path)
            .with_chaos(true)
            .with_engine(EngineConfig::default().with_warm_start_dir(&warm_dir));
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve());
        (
            handle.addr().to_string(),
            Some((handle, join, warm_dir, cfg_dir, tunables_path)),
        )
    };
    eprintln!("hanoi-stress: target {addr} (stress: {run_stress}, chaos: {run_chaos})");

    if spawn && run_chaos {
        // Must run before anything else touches the trivial problem: the
        // quarantine happens when its engine cache entry is first created.
        report.get_mut().unwrap().chaos_scenarios += 1;
        if let Err(e) = scenario_quarantine(&addr) {
            report
                .get_mut()
                .unwrap()
                .violation(format!("quarantine: {e}"));
        }
    }

    if run_stress {
        eprintln!("hanoi-stress: stress phase ({clients} clients x {requests} requests)");
        stress_phase(&addr, clients, requests, &report);
        if spawn {
            eprintln!("hanoi-stress: overload burst (2x admission budget)");
            overload_phase(&addr, workers + queue_depth, quota, &report);
        }
        eprintln!("hanoi-stress: resume equivalence (3 benchmark problems)");
        resume_equivalence_phase(&addr, &report);
        eprintln!("hanoi-stress: reconnect storm ({storm_clients} clients, forced disconnects)");
        resume_storm_phase(&addr, storm_clients, &report);
    }

    if let Some((handle, _, _, _, tunables_path)) = server_ctx.as_ref() {
        eprintln!("hanoi-stress: SIGHUP reload mid-stress (rate limit on, volley, rate limit off)");
        reload_phase(&addr, handle, tunables_path, &report);
    }

    if run_chaos {
        let scenarios: Vec<(&str, Scenario<'_>)> = vec![
            ("malformed", Box::new(|| scenario_malformed(&addr))),
            (
                "mid-frame-disconnect",
                Box::new(|| scenario_mid_frame_disconnect(&addr)),
            ),
            ("cancel-storm", Box::new(|| scenario_cancel_storm(&addr))),
            (
                "panic-isolation",
                Box::new(|| scenario_panic_isolation(&addr)),
            ),
            ("correctness", Box::new(|| scenario_correctness(&addr))),
        ];
        for (name, scenario) in &scenarios {
            eprintln!("hanoi-stress: chaos scenario `{name}`");
            let mut r = report.lock().unwrap();
            r.chaos_scenarios += 1;
            drop(r);
            if let Err(e) = scenario() {
                report.lock().unwrap().violation(format!("{name}: {e}"));
            }
        }
        if spawn {
            for (name, result) in [
                ("oversized", scenario_oversized(&addr, max_frame_bytes)),
                ("slow-loris", scenario_slow_loris(&addr, frame_timeout)),
            ] {
                eprintln!("hanoi-stress: chaos scenario `{name}`");
                let mut r = report.lock().unwrap();
                r.chaos_scenarios += 1;
                match result {
                    Ok(()) => {}
                    Err(e) => r.violation(format!("{name}: {e}")),
                }
            }
        }
    }

    // Drain the spawned server through the protocol and prove the
    // warm-start checkpoint landed.
    if let Some((handle, join, warm_dir, cfg_dir, _)) = server_ctx {
        eprintln!("hanoi-stress: draining");
        match Client::connect(&addr) {
            Ok(mut client) => {
                if client.send(&drain_request()).is_err() {
                    report.get_mut().unwrap().violation("drain request failed");
                }
            }
            Err(e) => report
                .get_mut()
                .unwrap()
                .violation(format!("drain connect: {e}")),
        }
        match handle.wait_drained(Duration::from_secs(60)) {
            Some(snapshots) => {
                let report = report.get_mut().unwrap();
                report.drain_snapshots = Some(snapshots);
                if snapshots == 0 {
                    report.violation("drain wrote no warm-start snapshots");
                }
            }
            None => report.get_mut().unwrap().violation("drain timed out"),
        }
        match join.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => report
                .get_mut()
                .unwrap()
                .violation(format!("serve returned an error: {e}")),
            Err(_) => report
                .get_mut()
                .unwrap()
                .violation("server thread panicked"),
        }
        // A fresh engine must boot warm from the drained snapshots.
        let engine = Engine::new(EngineConfig::default().with_warm_start_dir(&warm_dir))
            .expect("engine config");
        let problem = Problem::from_source(TRIVIAL).expect("trivial problem");
        let restarted = engine.run(&problem, &RunOptions::quick());
        let report = report.get_mut().unwrap();
        report.restart_warm_loads = Some(restarted.stats.warm_start_loads);
        if restarted.stats.warm_start_loads == 0 {
            report.violation("restart after drain found no warm-start snapshots to load");
        }
        let _ = std::fs::remove_dir_all(&warm_dir);
        let _ = std::fs::remove_dir_all(&cfg_dir);
    }

    // Report.
    let mut report = report.into_inner().unwrap();
    let section = report.summary(clients, requests);
    println!("{}", section.render_pretty());
    if let Some(path) = out {
        match std::fs::write(&path, section.render_pretty() + "\n") {
            Ok(()) => eprintln!("hanoi-stress: wrote the report to {path}"),
            Err(e) => report.violation(format!("report: {path}: {e}")),
        }
    }
    if report.violations.is_empty() {
        eprintln!(
            "hanoi-stress: OK ({} accepted, {} shed, {} chaos scenario(s))",
            report.accepted + report.overload_accepted,
            report.shed + report.overload_shed,
            report.chaos_scenarios
        );
    } else {
        eprintln!(
            "hanoi-stress: FAILED with {} violation(s)",
            report.violations.len()
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn well_formed_command_lines_parse() {
        assert_eq!(
            parse("--spawn").unwrap(),
            Args {
                addr: None,
                run_stress: true,
                run_chaos: true,
                clients: 100,
                storm_clients: 50,
                requests: 3,
                out: None,
            }
        );
        assert_eq!(
            parse(
                "--addr 127.0.0.1:7077 --mode chaos --clients 7 --storm-clients 9 \
                 --requests 2 --out r.json"
            )
            .unwrap(),
            Args {
                addr: Some("127.0.0.1:7077".to_string()),
                run_stress: false,
                run_chaos: true,
                clients: 7,
                storm_clients: 9,
                requests: 2,
                out: Some("r.json".to_string()),
            }
        );
        let stress_only = parse("--spawn --mode stress").unwrap();
        assert!(stress_only.run_stress && !stress_only.run_chaos);
    }

    #[test]
    fn bad_command_lines_are_errors_naming_the_argument() {
        for (line, named) in [
            ("--addr 127.0.0.1:9 --mode bogus", "\"bogus\""),
            ("--addr 127.0.0.1:9 --clients abc", "--clients"),
            ("--spawn --storm-clients -1", "--storm-clients"),
            ("--addr 127.0.0.1:9 --frobnicate", "--frobnicate"),
            ("--spawn --requests", "--requests"),
            ("--mode stress", "--spawn"),
            ("--spawn --addr 127.0.0.1:9", "--addr"),
        ] {
            let error = parse(line).expect_err(line);
            assert!(error.contains(named), "{line}: {error}");
        }
    }
}
