//! End-to-end server behavior: answers must match direct engine runs,
//! overload must shed with backoff hints, quotas must keep one client from
//! starving the rest, cancellation must work at the protocol level, an
//! injected worker panic must cost exactly one run (never the process, the
//! connection, or the warm caches), and a graceful drain must checkpoint
//! warm-start state that a fresh engine can boot from.
//!
//! The durable-run half: a disconnect must *detach* a run rather than kill
//! it, `resume` must replay the missed sequence-numbered frames and then
//! go live, a merged disconnect/resume stream must be indistinguishable
//! from an uninterrupted one (same result, contiguous gap-free sequence),
//! detached runs nobody reclaims must be cancelled after the grace
//! deadline, token buckets must shed over-rate submitters with honest
//! hints, and a `reload` must swap tunables without dropping in-flight
//! runs.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use hanoi::{Engine, EngineConfig, RunOptions};
use hanoi_abstraction::Problem;
use hanoi_lang::json::Json;
use hanoi_server::client::{check_contiguous, run_interrupted, run_uninterrupted, Client};
use hanoi_server::protocol::{
    cancel_request, reload_request, resume_request, stats_request, submit_request,
    ChaosDirective::{Panic, Sleep},
};
use hanoi_server::ServerConfig;

mod common;
use common::{TestServer, TRIVIAL};

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

/// Reads until the next frame whose reply is `reply`; an `error` frame on
/// the way fails the test.
fn read_reply(conn: &mut Client, reply: &str) -> Json {
    loop {
        let frame = conn.read_frame().expect("read");
        match frame.get("reply").and_then(Json::as_str) {
            Some(got) if got == reply => return frame,
            Some("error") => panic!("waiting for `{reply}`: {}", frame.render()),
            _ => continue,
        }
    }
}

/// The `server` counter object from a wire-level `stats` round trip.
fn server_stats(conn: &mut Client) -> Json {
    conn.send(&stats_request()).expect("send stats");
    let stats = read_reply(conn, "stats");
    stats.get("server").expect("stats carry counters").clone()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hanoi-server-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn answers_match_direct_engine_runs() {
    let server = TestServer::spawn(ServerConfig::default().with_workers(2));
    let engine = Engine::with_defaults();
    for (name, source) in [("trivial", TRIVIAL), ("list-set", LIST_SET)] {
        let direct = engine.run(&Problem::from_source(source).unwrap(), &RunOptions::quick());
        let expected = direct
            .outcome
            .invariant()
            .unwrap_or_else(|| panic!("{name}: direct run failed: {}", direct.outcome))
            .to_string();
        let mut conn = server.connect();
        conn.send(&submit_request(name, source, false, None))
            .expect("send");
        let answer = conn.wait_answer(name).expect("answer");
        assert_eq!(
            answer.get("status").and_then(Json::as_str),
            Some("invariant"),
            "{name}: {}",
            answer.render()
        );
        assert_eq!(
            answer.get("invariant").and_then(Json::as_str),
            Some(expected.as_str()),
            "{name}: the served answer differs from a direct engine run"
        );
        // Accounting rode along: stats and timing are on the frame.
        assert!(answer.get("stats").is_some());
        assert!(answer.get("run_ms").and_then(Json::as_usize).is_some());
    }
}

#[test]
fn event_streams_arrive_in_protocol_order() {
    let server = TestServer::spawn(ServerConfig::default().with_workers(1));
    let mut conn = server.connect();
    conn.send(&submit_request("observed", TRIVIAL, true, None))
        .expect("send");
    let mut kinds = Vec::new();
    let result = loop {
        let frame = conn.read_frame().expect("read");
        match frame.get("reply").and_then(Json::as_str) {
            Some("event") => {
                kinds.push(
                    frame
                        .get("kind")
                        .and_then(Json::as_str)
                        .expect("events carry a kind")
                        .to_string(),
                );
            }
            Some("result") => break frame,
            Some("accepted") => {}
            other => panic!("unexpected reply {other:?}"),
        }
    };
    assert_eq!(
        result.get("status").and_then(Json::as_str),
        Some("invariant")
    );
    assert_eq!(kinds.first().map(String::as_str), Some("run-started"));
    assert_eq!(kinds.last().map(String::as_str), Some("run-finished"));
}

#[test]
fn overload_at_twice_the_budget_sheds_with_retry_hints() {
    // 1 worker, queue depth 2, generous quota: budget = 3 concurrent jobs.
    let server = TestServer::spawn(
        ServerConfig::default()
            .with_workers(1)
            .with_max_queue_depth(2)
            .with_per_client_quota(64)
            .with_chaos(true),
    );
    let mut conn = server.connect();
    let burst = 6; // 2x the admission budget
    for i in 0..burst {
        // Sleep-chaos keeps the worker busy so the queue genuinely fills.
        conn.send(&submit_request(
            &format!("burst-{i}"),
            TRIVIAL,
            false,
            Some(Sleep(200)),
        ))
        .expect("send");
    }
    let mut accepted = 0;
    let mut shed = 0;
    for i in 0..burst {
        let answer = conn.wait_answer(&format!("burst-{i}")).expect("answer");
        match answer.get("reply").and_then(Json::as_str) {
            Some("shed") => {
                shed += 1;
                assert_eq!(
                    answer.get("reason").and_then(Json::as_str),
                    Some("queue-full"),
                    "{}",
                    answer.render()
                );
                let hint = answer
                    .get("retry_after_ms")
                    .and_then(Json::as_usize)
                    .unwrap_or(0);
                assert!(hint > 0, "shed replies must carry a backoff hint");
            }
            Some("result") => accepted += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(accepted >= 1, "the in-budget prefix must be served");
    assert!(
        shed >= burst - 3,
        "an overload burst of {burst} against a budget of 3 shed only {shed}"
    );
}

#[test]
fn per_client_quota_protects_other_clients() {
    let server = TestServer::spawn(
        ServerConfig::default()
            .with_workers(1)
            .with_max_queue_depth(16)
            .with_per_client_quota(2)
            .with_chaos(true),
    );
    let mut greedy = server.connect();
    for i in 0..4 {
        greedy
            .send(&submit_request(
                &format!("greedy-{i}"),
                TRIVIAL,
                false,
                Some(Sleep(300)),
            ))
            .expect("send");
    }
    let mut shed_reasons = Vec::new();
    for i in 0..4 {
        let answer = greedy.wait_answer(&format!("greedy-{i}")).expect("answer");
        if answer.get("reply").and_then(Json::as_str) == Some("shed") {
            shed_reasons.push(
                answer
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            );
        }
    }
    assert!(
        shed_reasons.iter().any(|r| r == "client-quota"),
        "a client 2x over quota was never shed: {shed_reasons:?}"
    );
    // A different client was never locked out (the queue had room).
    let mut modest = server.connect();
    modest
        .send(&submit_request("modest", TRIVIAL, false, None))
        .expect("send");
    let answer = modest.wait_answer("modest").expect("answer");
    assert_eq!(
        answer.get("status").and_then(Json::as_str),
        Some("invariant"),
        "{}",
        answer.render()
    );
}

#[test]
fn queued_runs_can_be_cancelled_over_the_wire() {
    let server = TestServer::spawn(
        ServerConfig::default()
            .with_workers(1)
            .with_max_queue_depth(8)
            .with_chaos(true),
    );
    let mut conn = server.connect();
    // Occupy the single worker, then queue a victim behind it.
    conn.send(&submit_request("blocker", TRIVIAL, false, Some(Sleep(500))))
        .expect("send");
    conn.send(&submit_request("victim", TRIVIAL, false, None))
        .expect("send");
    conn.send(&cancel_request("victim")).expect("send");
    let ack = read_reply(&mut conn, "cancelled");
    assert_eq!(ack.get("found").and_then(Json::as_bool), Some(true));
    let victim = conn.wait_answer("victim").expect("answer");
    assert_eq!(
        victim.get("status").and_then(Json::as_str),
        Some("cancelled"),
        "{}",
        victim.render()
    );
    // Cancelling an unknown id is answered honestly.
    conn.send(&cancel_request("never-was")).expect("send");
    let ack = read_reply(&mut conn, "cancelled");
    assert_eq!(ack.get("found").and_then(Json::as_bool), Some(false));
}

#[test]
fn watchdog_ceiling_clamps_client_timeouts() {
    // The client asks for a 10-minute budget; the server's watchdog ceiling
    // is far smaller and must win.
    let server = TestServer::spawn(
        ServerConfig::default()
            .with_workers(1)
            .with_watchdog(Duration::from_millis(1)),
    );
    let mut conn = server.connect();
    conn.send(&Json::obj([
        ("op", Json::Str("submit".to_string())),
        ("id", Json::Str("hog".to_string())),
        ("source", Json::Str(LIST_SET.to_string())),
        ("options", Json::obj([("timeout_ms", Json::Num(600_000.0))])),
    ]))
    .expect("send");
    let answer = conn.wait_answer("hog").expect("answer");
    assert_eq!(
        answer.get("status").and_then(Json::as_str),
        Some("timeout"),
        "{}",
        answer.render()
    );
}

#[test]
fn a_panicking_run_is_isolated_and_warm_caches_survive() {
    let server = TestServer::spawn(ServerConfig::default().with_workers(2).with_chaos(true));
    let mut conn = server.connect();
    // Warm the problem's caches with a clean run.
    conn.send(&submit_request("warm", TRIVIAL, false, None))
        .expect("send");
    let warm = conn.wait_answer("warm").expect("answer");
    assert_eq!(warm.get("status").and_then(Json::as_str), Some("invariant"));

    // A worker panic becomes a structured error on the SAME connection.
    conn.send(&submit_request("boom", TRIVIAL, false, Some(Panic)))
        .expect("send");
    let boom = conn.wait_answer("boom").expect("answer");
    assert_eq!(
        boom.get("reply").and_then(Json::as_str),
        Some("error"),
        "{}",
        boom.render()
    );
    assert_eq!(boom.get("code").and_then(Json::as_str), Some("panic"));

    // The process, the connection, and the warm caches all survived: the
    // next run must not rebuild its value pools.
    conn.send(&submit_request("after", TRIVIAL, false, None))
        .expect("send");
    let after = conn.wait_answer("after").expect("answer");
    assert_eq!(
        after.get("status").and_then(Json::as_str),
        Some("invariant")
    );
    let pool_builds = after
        .get("stats")
        .and_then(|s| s.get("pool_builds"))
        .and_then(Json::as_usize);
    assert_eq!(
        pool_builds,
        Some(0),
        "warm caches were lost across the panic: {}",
        after.render()
    );
}

#[test]
fn drain_checkpoints_warm_state_a_fresh_engine_boots_from() {
    let dir = scratch_dir("drain");
    let server = TestServer::spawn(
        ServerConfig::default()
            .with_workers(1)
            .with_engine(EngineConfig::default().with_warm_start_dir(&dir)),
    );
    let mut conn = server.connect();
    conn.send(&submit_request("seed", TRIVIAL, false, None))
        .expect("send");
    let seed = conn.wait_answer("seed").expect("answer");
    assert_eq!(seed.get("status").and_then(Json::as_str), Some("invariant"));
    let snapshots = server.drain();
    assert!(snapshots >= 1, "drain wrote no warm-start snapshots");

    // "Next process": a brand-new engine pointed at the drained store must
    // come up warm.
    let engine = Engine::new(EngineConfig::default().with_warm_start_dir(&dir)).unwrap();
    let restarted = engine.run(
        &Problem::from_source(TRIVIAL).unwrap(),
        &RunOptions::quick(),
    );
    assert!(restarted.is_success());
    assert!(
        restarted.stats.warm_start_loads > 0,
        "restart found nothing to load: {:?}",
        restarted.stats
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Durable runs: resume, grace deadlines, rate limiting, hot reload
// ---------------------------------------------------------------------------

fn counter(server_stats: &Json, name: &str) -> usize {
    server_stats
        .get(name)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("stats counter `{name}` missing: {}", server_stats.render()))
}

#[test]
fn resume_replays_the_missed_stream_after_a_disconnect() {
    let server = TestServer::spawn(ServerConfig::default().with_workers(1).with_chaos(true));
    // Submit a streamed run, then vanish before a single event arrives: the
    // run must keep executing and journaling without us.
    let mut conn = server.connect();
    conn.send(&submit_request("durable", TRIVIAL, true, Some(Sleep(150))))
        .expect("send");
    let token = conn
        .wait_admission("durable")
        .expect("read")
        .expect("admitted");
    drop(conn); // hard disconnect: the run must keep executing

    // Come back well after the run finished detached: the whole stream —
    // terminal result included — must be served from the replay journal.
    std::thread::sleep(Duration::from_millis(700));
    let mut conn = server.connect();
    conn.send(&resume_request(&token, 0)).expect("send");
    let resumed = read_reply(&mut conn, "resumed");
    assert_eq!(resumed.get("id").and_then(Json::as_str), Some("durable"));
    assert_eq!(
        resumed.get("finished").and_then(Json::as_bool),
        Some(true),
        "{}",
        resumed.render()
    );
    assert!(
        resumed
            .get("replayed")
            .and_then(Json::as_usize)
            .unwrap_or(0)
            >= 2,
        "{}",
        resumed.render()
    );

    // Everything missed is replayed, then the stream goes live; merged it
    // must be a complete, contiguous, gap-free run.
    let mut frames = Vec::new();
    conn.read_sequenced(&mut frames, &mut 0, None)
        .expect("resumed run");
    let result = check_contiguous(&frames, "resumed run").expect("contiguous stream");
    assert_eq!(
        result.get("status").and_then(Json::as_str),
        Some("invariant"),
        "{}",
        result.render()
    );

    // The durability counters observed it all.
    let stats = server_stats(&mut conn);
    assert!(counter(&stats, "runs_detached") >= 1, "{}", stats.render());
    assert!(counter(&stats, "runs_resumed") >= 1, "{}", stats.render());
    assert!(
        counter(&stats, "replay_events_sent") >= 1,
        "{}",
        stats.render()
    );
}

#[test]
fn merged_disconnect_resume_streams_match_uninterrupted_runs() {
    // Chaos-equivalence over three real suite benchmarks: a run chopped up
    // by forced disconnects at assorted offsets must produce exactly the
    // same answer as an uninterrupted run, over a contiguous gap-free
    // sequence-numbered stream.
    let server = TestServer::spawn(
        ServerConfig::default()
            .with_workers(2)
            .with_chaos(true)
            .with_replay_buffer_bytes(4 * 1024 * 1024),
    );
    let suite: Vec<(String, String)> = [
        "/other/sized-list",
        "/vfa/assoc-list-::-table",
        "/coq/unique-list-::-set",
    ]
    .iter()
    .map(|id| {
        let benchmark = hanoi_benchmarks::find(id).expect("known benchmark id");
        (benchmark.id.to_string(), benchmark.source)
    })
    .collect();
    for (round, (name, source)) in suite.iter().enumerate() {
        let baseline = run_uninterrupted(&server.addr, &format!("base-{round}"), source)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let expected = check_contiguous(&baseline, name).unwrap_or_else(|e| panic!("{e}"));

        // Vary the cut points per benchmark: first frame, mid-stream, deep.
        let offsets: &[usize] = match round {
            0 => &[1, 2],
            1 => &[2, 5],
            _ => &[3],
        };
        let merged = run_interrupted(&server.addr, &format!("chop-{round}"), source, offsets, 150)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = check_contiguous(&merged, name).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            got.get("status").and_then(Json::as_str),
            expected.get("status").and_then(Json::as_str),
            "{name}: interrupted run ended differently: {}",
            got.render()
        );
        assert_eq!(
            got.get("invariant").and_then(Json::as_str),
            expected.get("invariant").and_then(Json::as_str),
            "{name}: interrupted run inferred a different invariant"
        );
    }
}

#[test]
fn detached_runs_are_cancelled_after_the_grace_deadline() {
    let server = TestServer::spawn(
        ServerConfig::default()
            .with_workers(1)
            .with_chaos(true)
            .with_disconnect_grace(Duration::from_millis(100)),
    );
    let mut conn = server.connect();
    conn.send(&submit_request(
        "abandoned",
        TRIVIAL,
        true,
        Some(Sleep(600)),
    ))
    .expect("send");
    let token = conn
        .wait_admission("abandoned")
        .expect("read")
        .expect("admitted");
    drop(conn); // nobody ever comes back ... within the grace window

    // Grace (100ms) + reaper poll (50ms) + chaos sleep (600ms): by 900ms the
    // run must have been force-cancelled and its terminal frame journaled.
    std::thread::sleep(Duration::from_millis(900));
    let mut conn = server.connect();
    conn.send(&resume_request(&token, 0)).expect("send");
    let resumed = read_reply(&mut conn, "resumed");
    assert_eq!(
        resumed.get("finished").and_then(Json::as_bool),
        Some(true),
        "{}",
        resumed.render()
    );
    let answer = conn.wait_answer("abandoned").expect("answer");
    assert_eq!(
        answer.get("status").and_then(Json::as_str),
        Some("cancelled"),
        "{}",
        answer.render()
    );
    let stats = server_stats(&mut conn);
    assert!(counter(&stats, "grace_cancels") >= 1, "{}", stats.render());
}

#[test]
fn over_rate_submitters_are_shed_by_the_token_bucket() {
    // Burst of 2, refill 5/s: a 6-submit volley must see rate sheds with
    // honest hints, and patience must be rewarded.
    let server = TestServer::spawn(
        ServerConfig::default()
            .with_workers(2)
            .with_rate_limit(5.0, 2.0),
    );
    let mut conn = server.connect();
    for i in 0..6 {
        conn.send(&submit_request(&format!("rl-{i}"), TRIVIAL, false, None))
            .expect("send");
    }
    let mut results = 0;
    let mut rate_shed = 0;
    for i in 0..6 {
        let answer = conn.wait_answer(&format!("rl-{i}")).expect("answer");
        match answer.get("reply").and_then(Json::as_str) {
            Some("result") => results += 1,
            Some("shed") => {
                assert_eq!(
                    answer.get("reason").and_then(Json::as_str),
                    Some("rate-limited"),
                    "{}",
                    answer.render()
                );
                let hint = answer
                    .get("retry_after_ms")
                    .and_then(Json::as_usize)
                    .unwrap_or(0);
                assert!(hint >= 1, "rate sheds must carry a positive hint");
                // Honest means honest: at 5/s the bucket cannot demand more
                // than a few seconds for a deficit this size.
                assert!(hint <= 2_000, "dishonest hint: {hint}ms");
                rate_shed += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(results >= 1, "the in-burst prefix must be served");
    assert!(rate_shed >= 2, "a 3x-burst volley shed only {rate_shed}");

    // After backing off, the bucket has refilled.
    std::thread::sleep(Duration::from_millis(700));
    conn.send(&submit_request("rl-patient", TRIVIAL, false, None))
        .expect("send");
    let answer = conn.wait_answer("rl-patient").expect("answer");
    assert_eq!(
        answer.get("status").and_then(Json::as_str),
        Some("invariant"),
        "{}",
        answer.render()
    );
    let stats = server_stats(&mut conn);
    assert!(
        counter(&stats, "rate_limited_sheds") >= 2,
        "{}",
        stats.render()
    );
}

#[test]
fn reload_swaps_tunables_without_dropping_in_flight_runs() {
    let dir = scratch_dir("reload");
    let path = dir.join("tunables.json");
    std::fs::write(&path, "{}").unwrap();
    let server = TestServer::spawn(
        ServerConfig::default()
            .with_workers(1)
            .with_chaos(true)
            .with_config_path(&path),
    );
    // An in-flight run straddles the reload.
    let mut conn = server.connect();
    conn.send(&submit_request(
        "straddler",
        TRIVIAL,
        false,
        Some(Sleep(400)),
    ))
    .expect("send");

    std::fs::write(&path, r#"{"rate_per_sec": 3.5, "max_queue_depth": 5}"#).unwrap();
    conn.send(&reload_request()).expect("send");
    let reloaded = read_reply(&mut conn, "reloaded");
    let tunables = reloaded.get("tunables").expect("reloaded carries tunables");
    assert_eq!(
        tunables.get("rate_per_sec").and_then(Json::as_f64),
        Some(3.5),
        "{}",
        tunables.render()
    );
    assert_eq!(
        tunables.get("max_queue_depth").and_then(Json::as_usize),
        Some(5)
    );

    // The straddler survived the swap.
    let answer = conn.wait_answer("straddler").expect("answer");
    assert_eq!(
        answer.get("status").and_then(Json::as_str),
        Some("invariant"),
        "{}",
        answer.render()
    );

    // A rejected reload (invalid tunables) keeps the previous set in force.
    std::fs::write(&path, r#"{"max_queue_depth": 0}"#).unwrap();
    conn.send(&reload_request()).expect("send");
    let refused = read_reply(&mut conn, "error");
    assert_eq!(
        refused.get("code").and_then(Json::as_str),
        Some("reload-failed"),
        "{}",
        refused.render()
    );
    let stats = server_stats(&mut conn);
    assert_eq!(counter(&stats, "config_reloads"), 1, "{}", stats.render());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_without_a_config_path_is_refused_honestly() {
    let server = TestServer::spawn(ServerConfig::default().with_workers(1));
    let mut conn = server.connect();
    conn.send(&reload_request()).expect("send");
    let frame = conn.read_frame().expect("read");
    assert_eq!(
        frame.get("code").and_then(Json::as_str),
        Some("reload-unavailable"),
        "{}",
        frame.render()
    );
}

#[test]
fn resuming_onto_a_conflicting_run_id_is_refused() {
    // Two clients each run a job under the same client-chosen id.  If the
    // second client resumes the first client's token, honouring it would
    // overwrite the cancel routing of its *own* run — the server must
    // refuse with a distinct error code instead.
    let server = TestServer::spawn(ServerConfig::default().with_workers(2).with_chaos(true));
    let mut first = server.connect();
    first
        .send(&submit_request("same", TRIVIAL, true, Some(Sleep(1_000))))
        .expect("send");
    let token = first
        .wait_admission("same")
        .expect("read")
        .expect("admitted");

    let mut second = server.connect();
    second
        .send(&submit_request("same", TRIVIAL, false, Some(Sleep(1_000))))
        .expect("send");
    // Wait for the accepted ack so the run is indexed under this conn.
    second
        .wait_admission("same")
        .expect("read")
        .expect("admitted");

    second.send(&resume_request(&token, 0)).expect("send");
    let frame = second.read_frame().expect("read");
    assert_eq!(
        frame.get("code").and_then(Json::as_str),
        Some("resume-conflict"),
        "{}",
        frame.render()
    );
    // The refused resume left the second client's own run addressable.
    second.send(&cancel_request("same")).expect("send");
    let answer = second.wait_answer("same").expect("answer");
    assert_eq!(
        answer.get("status").and_then(Json::as_str),
        Some("cancelled"),
        "{}",
        answer.render()
    );
}

#[test]
fn proxy_protocol_keys_rate_buckets_by_advertised_source() {
    // Behind a proxy every socket shares the proxy's own peer address; the
    // PROXY header must give each *advertised* client its own bucket.
    // Burst of 1 with a near-zero refill: the second submit from the same
    // advertised address must shed, while a different address sails through
    // on the same listener.
    let server = TestServer::spawn(
        ServerConfig::default()
            .with_workers(2)
            .with_proxy_protocol(true)
            .with_rate_limit(0.1, 1.0),
    );
    let mut alice = server.connect();
    alice
        .send_raw("PROXY TCP4 10.9.9.1 127.0.0.1 41000 7077\r\n".as_bytes())
        .expect("proxy header");
    let mut bob = server.connect();
    bob.send_raw("PROXY TCP4 10.9.9.2 127.0.0.1 41001 7077\r\n".as_bytes())
        .expect("proxy header");

    alice
        .send(&submit_request("a-1", TRIVIAL, false, None))
        .expect("send");
    let answer = alice.wait_answer("a-1").expect("answer");
    assert_eq!(
        answer.get("reply").and_then(Json::as_str),
        Some("result"),
        "{}",
        answer.render()
    );
    bob.send(&submit_request("b-1", TRIVIAL, false, None))
        .expect("send");
    let answer = bob.wait_answer("b-1").expect("answer");
    assert_eq!(
        answer.get("reply").and_then(Json::as_str),
        Some("result"),
        "distinct advertised sources must not share a bucket: {}",
        answer.render()
    );

    alice
        .send(&submit_request("a-2", TRIVIAL, false, None))
        .expect("send");
    let answer = alice.wait_answer("a-2").expect("answer");
    assert_eq!(
        answer.get("reason").and_then(Json::as_str),
        Some("rate-limited"),
        "{}",
        answer.render()
    );
}

#[test]
fn connections_without_a_proxy_header_are_closed() {
    use std::io::{Read, Write};
    let server = TestServer::spawn(
        ServerConfig::default()
            .with_workers(1)
            .with_proxy_protocol(true),
    );
    // A direct client (no header) sends a frame where the header belongs:
    // the server must close the connection rather than fall back to a
    // shared bucket.
    let mut stream = TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"{\"op\":\"ping\"}\n")
        .expect("write frame");
    let mut buf = Vec::new();
    let n = stream.read_to_end(&mut buf).expect("read until close");
    assert_eq!(n, 0, "unattributed connections must be closed silently");

    // The incident is visible in the counters, and properly-proxied
    // clients are unaffected.
    let mut conn = server.connect();
    conn.send_raw("PROXY TCP4 10.9.9.3 127.0.0.1 41002 7077\r\n".as_bytes())
        .expect("proxy header");
    let stats = server_stats(&mut conn);
    assert!(
        counter(&stats, "unattributed_connections") >= 1,
        "{}",
        stats.render()
    );
    conn.send(&submit_request("after", TRIVIAL, false, None))
        .expect("send");
    let answer = conn.wait_answer("after").expect("answer");
    assert_eq!(
        answer.get("status").and_then(Json::as_str),
        Some("invariant")
    );
}

#[test]
fn resuming_an_unknown_token_is_an_honest_error() {
    let server = TestServer::spawn(ServerConfig::default().with_workers(1));
    let mut conn = server.connect();
    conn.send(&resume_request("run-feed-beef", 0))
        .expect("send");
    let frame = conn.read_frame().expect("read");
    assert_eq!(
        frame.get("reply").and_then(Json::as_str),
        Some("error"),
        "{}",
        frame.render()
    );
    assert_eq!(
        frame.get("code").and_then(Json::as_str),
        Some("unknown-token"),
        "{}",
        frame.render()
    );
    // The connection is still synchronized afterwards.
    conn.send(&submit_request("after", TRIVIAL, false, None))
        .expect("send");
    let answer = conn.wait_answer("after").expect("answer");
    assert_eq!(
        answer.get("status").and_then(Json::as_str),
        Some("invariant")
    );
}
