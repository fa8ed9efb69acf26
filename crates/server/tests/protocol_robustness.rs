//! Protocol robustness: every malformed, truncated, oversized, mis-encoded
//! or absurdly nested input a client can send must come back as a
//! *structured error frame* — never a panic, never a closed stream, never a
//! desynchronized one.  After any rejected frame the same connection must
//! keep working (the error frames are answers, not punishments).
//!
//! These are the table-driven counterparts of the live chaos scenarios in
//! `src/bin/hanoi_stress.rs`, pinned as deterministic tests.

use std::io::ErrorKind;
use std::time::Duration;

use hanoi_lang::json::Json;
use hanoi_server::client::{check_contiguous, Client};
use hanoi_server::protocol::{
    drain_request, ping_request, resume_request, stats_request, submit_request,
    ChaosDirective::{Panic, Sleep},
};
use hanoi_server::ServerConfig;

mod common;
use common::{TestServer, TRIVIAL};

/// Proves the stream is still synchronized: a ping's next reply is its pong.
fn ping_pong(conn: &mut Client) {
    conn.send(&ping_request()).expect("send ping");
    let pong = conn.read_frame().expect("read pong");
    assert_eq!(
        pong.get("reply").and_then(Json::as_str),
        Some("pong"),
        "stream desynchronized: {}",
        pong.render()
    );
}

fn small_config() -> ServerConfig {
    ServerConfig::default()
        .with_workers(1)
        .with_max_frame_bytes(8 * 1024)
}

#[test]
fn malformed_inputs_become_structured_errors_and_the_stream_stays_synced() {
    let server = TestServer::spawn(small_config());
    // (raw input, expected error code); each runs on a FRESH connection and
    // must be answered by exactly one error frame followed by a working ping.
    let table: &[(&[u8], &str)] = &[
        // Truncated / non-JSON frames.
        (b"this is not json\n", "parse"),
        (b"{\"op\":\"submit\",\"id\":\"x\",\"sour\n", "parse"),
        (b"{\"op\": \n", "parse"),
        (b"\"just a string\"\n", "bad-request"),
        (b"[1,2,3]\n", "bad-request"),
        (b"42\n", "bad-request"),
        // Structurally valid, semantically broken requests.
        (b"{}\n", "bad-request"),
        (b"{\"op\":\"frobnicate\"}\n", "bad-request"),
        (b"{\"op\":\"submit\"}\n", "bad-request"),
        (b"{\"op\":\"submit\",\"id\":\"x\"}\n", "bad-request"),
        (
            b"{\"op\":\"submit\",\"id\":\"\",\"source\":\"s\"}\n",
            "bad-request",
        ),
        (b"{\"op\":\"cancel\"}\n", "bad-request"),
        (
            b"{\"op\":\"submit\",\"id\":\"x\",\"source\":\"spec\",\"options\":7}\n",
            "bad-request",
        ),
        // Malformed resume requests.
        (b"{\"op\":\"resume\"}\n", "bad-request"),
        (b"{\"op\":\"resume\",\"token\":\"\"}\n", "bad-request"),
        (
            b"{\"op\":\"resume\",\"token\":\"t\",\"last_seq\":-4}\n",
            "bad-request",
        ),
        (
            b"{\"op\":\"resume\",\"token\":\"t\",\"last_seq\":\"x\"}\n",
            "bad-request",
        ),
        // Bytes that are not UTF-8 at all.
        (b"\xff\xfe\xfd garbage\n", "encoding"),
    ];
    for (raw, want) in table {
        let mut conn = server.connect();
        conn.send_raw(raw).expect("write");
        let frame = conn.read_frame().expect("read");
        assert_eq!(
            frame.get("reply").and_then(Json::as_str),
            Some("error"),
            "input {:?} got {}",
            String::from_utf8_lossy(raw),
            frame.render()
        );
        assert_eq!(
            frame.get("code").and_then(Json::as_str),
            Some(*want),
            "input {:?} got {}",
            String::from_utf8_lossy(raw),
            frame.render()
        );
        assert!(
            frame.get("message").and_then(Json::as_str).is_some(),
            "errors carry a human-readable message"
        );
        ping_pong(&mut conn);
    }
}

#[test]
fn a_connection_survives_a_burst_of_garbage_and_still_serves_runs() {
    let server = TestServer::spawn(small_config());
    let mut conn = server.connect();
    // Many bad frames on ONE connection: one error each, in order.
    for _ in 0..20 {
        conn.send_raw(b"!!!not json!!!\n").expect("write");
    }
    for _ in 0..20 {
        let frame = conn.read_frame().expect("read");
        assert_eq!(frame.get("code").and_then(Json::as_str), Some("parse"));
    }
    // The very same connection still runs real work.
    conn.send(&submit_request("after-garbage", TRIVIAL, false, None))
        .expect("send");
    let answer = conn.wait_answer("after-garbage").expect("answer");
    assert_eq!(
        answer.get("status").and_then(Json::as_str),
        Some("invariant"),
        "{}",
        answer.render()
    );
}

#[test]
fn oversized_lines_are_rejected_with_the_limit_and_skipped() {
    let server = TestServer::spawn(small_config());
    let mut conn = server.connect();
    let mut line = vec![b'x'; 9 * 1024]; // over the 8 KiB config limit
    line.push(b'\n');
    conn.send_raw(&line).expect("write");
    let frame = conn.read_frame().expect("read");
    assert_eq!(frame.get("code").and_then(Json::as_str), Some("oversized"));
    // The offending line is consumed, not replayed: the stream works.
    ping_pong(&mut conn);
}

#[test]
fn overdeep_json_is_rejected_as_a_parse_error_not_a_stack_overflow() {
    let server = TestServer::spawn(small_config());
    let mut conn = server.connect();
    let mut deep = Vec::new();
    deep.extend(std::iter::repeat_n(b'[', 2_000));
    deep.extend(std::iter::repeat_n(b']', 2_000));
    deep.push(b'\n');
    conn.send_raw(&deep).expect("write");
    let frame = conn.read_frame().expect("read");
    assert_eq!(frame.get("code").and_then(Json::as_str), Some("parse"));
    ping_pong(&mut conn);
}

#[test]
fn unelaboratable_sources_are_rejected_per_run_not_per_connection() {
    let server = TestServer::spawn(small_config());
    let mut conn = server.connect();
    conn.send(&submit_request(
        "bad",
        "spec (s : t) = undefined_symbol",
        false,
        None,
    ))
    .expect("send");
    let answer = conn.wait_answer("bad").expect("answer");
    assert_eq!(
        answer.get("code").and_then(Json::as_str),
        Some("bad-problem"),
        "{}",
        answer.render()
    );
    // Correlation: the error carries the submit's id, and the connection
    // still serves good problems.
    assert_eq!(answer.get("id").and_then(Json::as_str), Some("bad"));
    conn.send(&submit_request("good", TRIVIAL, false, None))
        .expect("send");
    let answer = conn.wait_answer("good").expect("answer");
    assert_eq!(
        answer.get("status").and_then(Json::as_str),
        Some("invariant")
    );
}

#[test]
fn chaos_directives_are_refused_unless_enabled() {
    let server = TestServer::spawn(small_config()); // chaos off by default
    let mut conn = server.connect();
    conn.send(&submit_request("boom", TRIVIAL, false, Some(Panic)))
        .expect("send");
    let answer = conn.wait_answer("boom").expect("answer");
    assert_eq!(
        answer.get("code").and_then(Json::as_str),
        Some("chaos-disabled"),
        "{}",
        answer.render()
    );
    ping_pong(&mut conn);
}

#[test]
fn mid_frame_disconnects_leave_the_server_available() {
    let server = TestServer::spawn(small_config());
    for _ in 0..5 {
        let mut conn = server.connect();
        conn.send_raw(br#"{"op":"submit","id":"trunc","sourc"#)
            .expect("write");
        drop(conn); // disconnect mid-frame
    }
    let mut probe = server.connect();
    ping_pong(&mut probe);
}

#[test]
fn stats_and_drain_report_over_the_wire() {
    let server = TestServer::spawn(small_config());
    let mut conn = server.connect();
    conn.send(&stats_request()).expect("send");
    let stats = conn.read_frame().expect("read");
    assert_eq!(stats.get("reply").and_then(Json::as_str), Some("stats"));
    assert!(stats.get("server").is_some(), "{}", stats.render());
    assert!(
        stats
            .get("server")
            .unwrap()
            .get("frames_received")
            .is_some(),
        "{}",
        stats.render()
    );

    conn.send(&drain_request()).expect("send");
    let ack = conn.read_frame().expect("read");
    assert_eq!(ack.get("reply").and_then(Json::as_str), Some("draining"));
    // After the drain ack, new submits shed with reason `draining`.
    conn.send(&submit_request("late", TRIVIAL, false, None))
        .expect("send");
    let shed = conn.wait_answer("late").expect("answer");
    assert_eq!(shed.get("reply").and_then(Json::as_str), Some("shed"));
    assert_eq!(
        shed.get("reason").and_then(Json::as_str),
        Some("draining"),
        "{}",
        shed.render()
    );
    assert!(
        shed.get("retry_after_ms")
            .and_then(Json::as_usize)
            .unwrap_or(0)
            > 0
    );
}

#[test]
fn read_timeouts_do_not_poison_idle_connections() {
    // An idle (but not expired) connection must stay usable across the
    // server's internal 50 ms read-polling ticks.
    let server = TestServer::spawn(small_config());
    let mut conn = server.connect();
    ping_pong(&mut conn);
    std::thread::sleep(Duration::from_millis(400));
    ping_pong(&mut conn);
}

/// Submits a streamed sleep-chaos run, returns its token, and drops the
/// connection — leaving a detached run behind for resume scenarios.
fn detach_a_streamed_run(server: &TestServer, id: &str, sleep_ms: u64) -> String {
    let mut conn = server.connect();
    let submit = submit_request(id, TRIVIAL, true, Some(Sleep(sleep_ms)));
    conn.send(&submit).expect("send");
    conn.wait_admission(id)
        .expect("read")
        .expect("accepted frames carry a token")
}

#[test]
fn a_disconnect_mid_resume_replay_leaves_the_run_resumable() {
    // Client A starts a streamed run and vanishes; client B resumes but rips
    // its socket out again while the server is replaying; client C must
    // still get the complete journaled stream, contiguous from seq 1.
    let server = TestServer::spawn(small_config().with_chaos(true));
    let token = detach_a_streamed_run(&server, "torn", 100);
    // Let the run finish detached so the replay has the whole stream.
    std::thread::sleep(Duration::from_millis(800));

    let mut saboteur = server.connect();
    saboteur.send(&resume_request(&token, 0)).expect("send");
    drop(saboteur); // disconnect while the replay may be in flight

    let mut patient = server.connect();
    patient.send(&resume_request(&token, 0)).expect("send");
    let mut frames = Vec::new();
    patient
        .read_sequenced(&mut frames, &mut 0, None)
        .expect("replayed stream");
    let result = check_contiguous(&frames, "replayed stream").expect("contiguous replay");
    assert_eq!(
        result.get("status").and_then(Json::as_str),
        Some("invariant"),
        "{}",
        result.render()
    );
    // And the connection that got the replay is still synchronized.
    ping_pong(&mut patient);
}

#[test]
fn slow_loris_resume_frames_are_cut_off_and_the_run_stays_resumable() {
    // A half-written `resume` frame dripped slower than the frame timeout
    // must get the writer disconnected — without consuming the run, which a
    // well-behaved client can still claim afterwards.
    let config = small_config()
        .with_chaos(true)
        .with_frame_timeout(Duration::from_millis(300));
    let server = TestServer::spawn(config);
    let token = detach_a_streamed_run(&server, "dripped", 100);
    std::thread::sleep(Duration::from_millis(800));

    let mut loris = server.connect();
    loris.set_read_timeout(Duration::from_millis(100)).unwrap();
    let mut partial: &[u8] = b"{\"op\":\"resume\",\"token\":\"";
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let mut cut = false;
    while std::time::Instant::now() < deadline {
        let byte = match partial {
            [first, rest @ ..] => {
                partial = rest;
                *first
            }
            [] => b'x', // keep the frame unfinished forever
        };
        if loris.send_raw(&[byte]).is_err() {
            cut = true;
            break;
        }
        match loris.read_frame() {
            Ok(frame) => panic!("server answered an unfinished resume: {}", frame.render()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {} // still open
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset
                ) =>
            {
                cut = true;
                break;
            }
            Err(e) => panic!("unexpected read error: {e}"),
        }
        std::thread::sleep(Duration::from_millis(150));
    }
    assert!(cut, "slow-loris resume writer was never disconnected");

    let mut patient = server.connect();
    patient.send(&resume_request(&token, 0)).expect("send");
    let mut frames = Vec::new();
    patient
        .read_sequenced(&mut frames, &mut 0, None)
        .expect("replayed stream");
    let result = check_contiguous(&frames, "replayed stream").expect("contiguous replay");
    assert_eq!(
        result.get("status").and_then(Json::as_str),
        Some("invariant"),
        "{}",
        result.render()
    );
}

#[test]
fn slow_loris_writers_are_cut_off_by_the_frame_timeout() {
    let config = small_config().with_frame_timeout(Duration::from_millis(300));
    let server = TestServer::spawn(config);
    let mut conn = server.connect();
    conn.set_read_timeout(Duration::from_millis(100)).unwrap();
    // Drip one byte of a never-finished frame, slower than the timeout
    // allows; the server must cut us off within a few seconds.
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let mut cut = false;
    while std::time::Instant::now() < deadline {
        if conn.send_raw(b"{").is_err() {
            cut = true;
            break;
        }
        match conn.read_frame() {
            Ok(frame) => panic!("server answered an unfinished frame: {}", frame.render()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {} // still open
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset
                ) =>
            {
                cut = true;
                break;
            }
            Err(e) => panic!("unexpected read error: {e}"),
        }
        std::thread::sleep(Duration::from_millis(150));
    }
    assert!(cut, "slow-loris writer was never disconnected");
    // And the server still answers everyone else.
    let mut probe = server.connect();
    ping_pong(&mut probe);
}
