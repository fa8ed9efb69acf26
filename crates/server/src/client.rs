//! A blocking protocol client: the one client side of the wire protocol,
//! shared by `hanoi_stress` and the server's tests.
//!
//! It frames with the server's own codec: replies are read through a
//! bounded [`FrameReader`] capped at [`json::DEFAULT_MAX_FRAME_BYTES`], and
//! requests, built by the [`crate::protocol`] `*_request` functions, are
//! written with [`json::write_frame`].  On top of the frame calls sit the
//! resume-stream helpers: read a run's sequence-numbered stream, check that
//! it is whole, and run one submit either straight through or cut by forced
//! disconnects and resumed by token.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Write};
use std::net::TcpStream;
use std::time::Duration;

use hanoi_lang::json::{self, FrameReader, FrameResult, Json};

use crate::protocol::{self, ChaosDirective};

/// How long a read waits for the server before it fails with
/// [`ErrorKind::WouldBlock`].
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a write may block before it fails, so a server that stops
/// reading surfaces as an error instead of a hung client.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long [`run_interrupted`] stays away between a forced disconnect and
/// its resume, so the detached run makes progress without a client.
const RECONNECT_PAUSE: Duration = Duration::from_millis(60);

/// One connection to a server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    frames: FrameReader,
    /// Answers that arrived while waiting for a different id: pipelined
    /// runs finish in worker order, not submission order.
    parked: HashMap<String, Json>,
}

impl Client {
    /// Connects to `addr`, reading with [`DEFAULT_READ_TIMEOUT`] and
    /// writing with a 10 s timeout.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(Client {
            stream,
            frames: FrameReader::new(json::DEFAULT_MAX_FRAME_BYTES),
            parked: HashMap::new(),
        })
    }

    /// Sends one request frame.
    pub fn send(&mut self, frame: &Json) -> io::Result<()> {
        json::write_frame(&mut self.stream, frame)
    }

    /// Sends bytes as they are: a frame that is malformed or unfinished on
    /// purpose, or a PROXY header.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Replaces the read timeout.  A partial frame survives a timeout: the
    /// next [`Client::read_frame`] resumes it.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    /// Reads the next reply frame, skipping blank keep-alive lines.
    ///
    /// Fails with [`ErrorKind::WouldBlock`] when the read timeout elapses
    /// first, [`ErrorKind::UnexpectedEof`] when the server closed the
    /// connection, and [`ErrorKind::InvalidData`] for a frame that is over
    /// the cap, not UTF-8 or not JSON; after `InvalidData` the stream is
    /// still framed and the next call reads the next frame.
    pub fn read_frame(&mut self) -> io::Result<Json> {
        let invalid = |message: String| io::Error::new(ErrorKind::InvalidData, message);
        match self.frames.read_frame(&mut self.stream) {
            FrameResult::Frame(text) => json::parse(&text).map_err(|e| invalid(e.to_string())),
            FrameResult::WouldBlock => Err(io::Error::new(
                ErrorKind::WouldBlock,
                "no complete frame before the read timeout",
            )),
            FrameResult::Closed { mid_frame } => Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                if mid_frame {
                    "server closed the connection mid-frame"
                } else {
                    "server closed the connection"
                },
            )),
            FrameResult::Oversized { limit } => Err(invalid(format!("frame over {limit} bytes"))),
            FrameResult::InvalidUtf8 => Err(invalid("frame is not UTF-8".to_string())),
            FrameResult::Err(e) => Err(e),
        }
    }

    /// Reads until the `result`, `error` or `shed` answer for `id`,
    /// skipping acks and events.  Answers for other ids are parked for
    /// their own `wait_answer`, not dropped.
    pub fn wait_answer(&mut self, id: &str) -> io::Result<Json> {
        match self.parked.remove(id) {
            Some(frame) => Ok(frame),
            None => self.read_for(id, &["result", "error", "shed"]),
        }
    }

    /// Reads until the admission verdict for `id`: `Ok(token)` from its
    /// `accepted` ack, or `Err(frame)` with the `shed` or `error` reply
    /// that refused it.
    pub fn wait_admission(&mut self, id: &str) -> io::Result<Result<String, Json>> {
        let frame = self.read_for(id, &["accepted", "shed", "error"])?;
        let token = match frame.get("reply").and_then(Json::as_str) {
            Some("accepted") => frame.get("token").and_then(Json::as_str),
            _ => None,
        };
        Ok(token.map(str::to_string).ok_or(frame))
    }

    /// Reads the next frame for `id` whose reply is one of `wanted`,
    /// parking answers for other ids.
    fn read_for(&mut self, id: &str, wanted: &[&str]) -> io::Result<Json> {
        loop {
            let frame = self.read_frame()?;
            let reply = frame.get("reply").and_then(Json::as_str).unwrap_or("");
            let frame_id = frame.get("id").and_then(Json::as_str).unwrap_or("");
            if frame_id == id && wanted.contains(&reply) {
                return Ok(frame);
            }
            if matches!(reply, "result" | "error" | "shed") && !frame_id.is_empty() {
                self.parked.insert(frame_id.to_string(), frame);
            }
        }
    }

    /// Reads sequence-numbered frames (`event`, `result`, `error`) into
    /// `frames`, keeping `last_seq` at the last `seq` seen.  Returns
    /// `Ok(true)` at the terminal frame and `Ok(false)` once `limit` frames
    /// were read by this call.  `accepted` and `resumed` acks are skipped,
    /// except that an `accepted` after a `resumed` is an error: a replay
    /// comes from the journal, which holds no acks.  Any other reply, a
    /// `gap` included, is an error.
    pub fn read_sequenced(
        &mut self,
        frames: &mut Vec<Json>,
        last_seq: &mut u64,
        limit: Option<usize>,
    ) -> Result<bool, String> {
        let mut read_here = 0usize;
        let mut resumed = false;
        while limit.is_none_or(|limit| read_here < limit) {
            let frame = self.read_frame().map_err(|e| format!("read: {e}"))?;
            let terminal = match frame.get("reply").and_then(Json::as_str) {
                Some("event") => false,
                Some("result" | "error") => true,
                Some("resumed") => {
                    resumed = true;
                    continue;
                }
                Some("accepted") if !resumed => continue,
                _ => {
                    return Err(format!(
                        "unexpected frame in a run stream: {}",
                        frame.render()
                    ))
                }
            };
            if let Some(seq) = frame.get("seq").and_then(Json::as_usize) {
                *last_seq = seq as u64;
            }
            frames.push(frame);
            read_here += 1;
            if terminal {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Checks that `frames` are one whole run stream: sequence numbers exactly
/// `1..=n`, ending in a terminal `result` or `error`.  Returns the terminal
/// frame.
pub fn check_contiguous(frames: &[Json], what: &str) -> Result<Json, String> {
    let Some(last) = frames.last() else {
        return Err(format!("{what}: empty stream"));
    };
    for (i, frame) in frames.iter().enumerate() {
        if frame.get("seq").and_then(Json::as_usize) != Some(i + 1) {
            return Err(format!(
                "{what}: hole or duplicate at position {i}: {}",
                frame.render()
            ));
        }
    }
    match last.get("reply").and_then(Json::as_str) {
        Some("result" | "error") => Ok(last.clone()),
        _ => Err(format!(
            "{what}: stream has no terminal frame: {}",
            last.render()
        )),
    }
}

/// One streamed run, read straight through on one connection: the
/// reference stream.
pub fn run_uninterrupted(addr: &str, id: &str, source: &str) -> Result<Vec<Json>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .send(&protocol::submit_request(id, source, true, None))
        .map_err(|e| format!("send: {e}"))?;
    // No admission wait: the worker can outrace the `accepted` ack, and
    // the read below keeps the events that do.
    let mut frames = Vec::new();
    client.read_sequenced(&mut frames, &mut 0, None)?;
    Ok(frames)
}

/// The same run cut up: held on the worker for `sleep_ms` by a chaos
/// directive, its socket is dropped after each offset's worth of frames,
/// and a fresh connection resumes by token from the last `seq` seen; each
/// `resumed` ack must carry the run's token.  Returns the merged stream.
pub fn run_interrupted(
    addr: &str,
    id: &str,
    source: &str,
    offsets: &[usize],
    sleep_ms: u64,
) -> Result<Vec<Json>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let submit = protocol::submit_request(id, source, true, Some(ChaosDirective::Sleep(sleep_ms)));
    client.send(&submit).map_err(|e| format!("send: {e}"))?;
    let token = client
        .wait_admission(id)
        .map_err(|e| format!("read: {e}"))?
        .map_err(|refusal| format!("not admitted: {}", refusal.render()))?;
    let mut frames = Vec::new();
    let mut last_seq = 0u64;
    for &offset in offsets {
        if client.read_sequenced(&mut frames, &mut last_seq, Some(offset))? {
            return Ok(frames); // finished before this cut
        }
        drop(client); // mid-stream, no goodbye
        std::thread::sleep(RECONNECT_PAUSE);
        client = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
        client
            .send(&protocol::resume_request(&token, last_seq))
            .map_err(|e| format!("resume: {e}"))?;
        let ack = client.read_frame().map_err(|e| format!("read: {e}"))?;
        if ack.get("reply").and_then(Json::as_str) != Some("resumed")
            || ack.get("token").and_then(Json::as_str) != Some(token.as_str())
        {
            return Err(format!(
                "resume of {token} not acknowledged: {}",
                ack.render()
            ));
        }
    }
    client.read_sequenced(&mut frames, &mut last_seq, None)?;
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread::JoinHandle;

    /// A one-connection peer playing `script`, and a client connected to it.
    fn scripted_peer(script: impl FnOnce(TcpStream) + Send + 'static) -> (Client, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || script(listener.accept().unwrap().0));
        (Client::connect(&addr).unwrap(), peer)
    }

    fn is_pong(frame: &Json) -> bool {
        frame.get("reply").and_then(Json::as_str) == Some("pong")
    }

    #[test]
    fn a_reply_split_across_a_read_timeout_arrives_whole() {
        let (resume, resumed) = mpsc::channel::<()>();
        let (mut client, peer) = scripted_peer(move |mut stream| {
            stream.write_all(b"{\"reply\":").unwrap();
            // Hold the rest back until the client's read has timed out.
            resumed.recv().unwrap();
            stream.write_all(b"\"pong\"}\n").unwrap();
        });
        client.set_read_timeout(Duration::from_millis(100)).unwrap();
        let timed_out = client.read_frame().unwrap_err();
        assert_eq!(timed_out.kind(), ErrorKind::WouldBlock, "{timed_out}");
        resume.send(()).unwrap();
        client.set_read_timeout(DEFAULT_READ_TIMEOUT).unwrap();
        assert!(is_pong(&client.read_frame().unwrap()));
        peer.join().unwrap();
    }

    #[test]
    fn a_peer_closing_mid_frame_is_unexpected_eof() {
        let (mut client, peer) = scripted_peer(|mut stream| {
            stream.write_all(b"{\"reply\":\"po").unwrap();
        });
        peer.join().unwrap();
        let closed = client.read_frame().unwrap_err();
        assert_eq!(closed.kind(), ErrorKind::UnexpectedEof, "{closed}");
    }

    #[test]
    fn blank_keep_alive_lines_are_skipped() {
        let (mut client, peer) = scripted_peer(|mut stream| {
            stream.write_all(b"\n\r\n\n{\"reply\":\"pong\"}\n").unwrap();
        });
        assert!(is_pong(&client.read_frame().unwrap()));
        peer.join().unwrap();
    }

    /// Reads one scripted stream through `read_sequenced`.
    fn read_scripted(script: &'static str) -> Result<bool, String> {
        let (mut client, peer) =
            scripted_peer(|mut stream| stream.write_all(script.as_bytes()).unwrap());
        let read = client.read_sequenced(&mut Vec::new(), &mut 0, None);
        peer.join().unwrap();
        read
    }

    #[test]
    fn an_accepted_ack_is_skipped_live_but_is_an_error_in_a_replay() {
        let live = read_scripted(
            "{\"reply\":\"event\",\"seq\":1}\n{\"reply\":\"accepted\",\"id\":\"r\"}\n\
             {\"reply\":\"result\",\"seq\":2}\n",
        );
        assert_eq!(live, Ok(true));
        let replay = read_scripted(
            "{\"reply\":\"resumed\",\"token\":\"t\"}\n{\"reply\":\"accepted\",\"id\":\"r\"}\n\
             {\"reply\":\"result\",\"seq\":1}\n",
        );
        assert!(
            replay.as_ref().is_err_and(|e| e.contains("accepted")),
            "{replay:?}"
        );
    }

    #[test]
    fn an_oversized_line_is_invalid_data_and_the_next_frame_reads() {
        let (mut client, peer) = scripted_peer(|mut stream| {
            let mut line = vec![b'x'; json::DEFAULT_MAX_FRAME_BYTES + 1];
            line.extend_from_slice(b"\n{\"reply\":\"pong\"}\n");
            stream.write_all(&line).unwrap();
        });
        let oversized = client.read_frame().unwrap_err();
        assert_eq!(oversized.kind(), ErrorKind::InvalidData, "{oversized}");
        assert!(is_pong(&client.read_frame().unwrap()));
        peer.join().unwrap();
    }
}
