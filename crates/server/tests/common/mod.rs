//! What the server's integration test files share: an ephemeral server
//! guard and the cheapest problem to run.

// Each test file uses its own subset of these.
#![allow(dead_code)]

use std::thread::JoinHandle;
use std::time::Duration;

use hanoi_server::client::Client;
use hanoi_server::{Server, ServerConfig, ServerHandle};

/// A problem cheap enough to run in every test.
pub const TRIVIAL: &str = r#"
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

/// Spawns an ephemeral server; the guard drains it on drop so a failing
/// assertion cannot leak the serve thread past the test.
pub struct TestServer {
    pub addr: String,
    handle: ServerHandle,
    join: Option<JoinHandle<std::io::Result<usize>>>,
}

impl TestServer {
    pub fn spawn(config: ServerConfig) -> TestServer {
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let handle = server.handle();
        let addr = handle.addr().to_string();
        let join = Some(std::thread::spawn(move || server.serve()));
        TestServer { addr, handle, join }
    }

    pub fn connect(&self) -> Client {
        Client::connect(&self.addr).expect("connect")
    }

    /// Drains and returns the number of warm-start snapshots written.
    pub fn drain(mut self) -> usize {
        self.handle.drain();
        let snapshots = self
            .handle
            .wait_drained(Duration::from_secs(60))
            .expect("drain timed out");
        if let Some(join) = self.join.take() {
            join.join().expect("serve thread").expect("serve result");
        }
        snapshots
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.drain();
        self.handle.wait_drained(Duration::from_secs(60));
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}
